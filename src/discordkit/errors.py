"""Exception hierarchy shared by all discordkit modules."""


class DiscordKitError(Exception):
    """Base class for every error raised by this package."""


class PhysicalityError(DiscordKitError):
    """Matrix fails a density-matrix gate (Hermiticity, trace or positivity)."""


class OutOfFamilyError(DiscordKitError):
    """State has off-diagonal correlation-tensor entries and cannot be
    represented by the diagonal Bloch parametrization."""


class DomainError(DiscordKitError):
    """Argument outside the mathematical domain of a closed-form expression."""


class NormError(DiscordKitError):
    """Vector or quaternion norm deviates too far from 1."""


class DegenerateBranchError(DiscordKitError):
    """A measurement branch has vanishing probability, so its conditional
    state is undefined."""


class RangeError(DiscordKitError):
    """Scalar parameter (rate, grid bound, ...) outside its allowed range."""


class FamilyError(DiscordKitError):
    """Bloch parameters do not satisfy the preconditions of the requested
    closed-form family."""
