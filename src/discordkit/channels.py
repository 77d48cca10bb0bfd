"""Phase-damping channel and discord dynamics under it.

The channel acts symmetrically on both qubits with one decoherence rate
gamma.  Two equivalent damping routes are implemented and cross-checked:
the matrix route (Kraus operators applied to the density matrix) and the
parameter route (Bloch coefficients rescaled in place), the latter being
the fast default for dynamics.  Closed forms cover the damping gap of the
Werner state and of the in-plane correlation family, plus the family that
is exactly damping-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import BlochParams, _two_qubit, _xlog2
from .discord import (
    DiscordReport,
    _check_werner,
    discord_numeric,
    discord_numeric_batch,
    discord_s0_planar,
    mutual_information,
)
from .errors import DomainError, RangeError
from .sphereopt import SphereOptConfig


@dataclass(frozen=True)
class PhaseDamping:
    """Phase-damping channel with decoherence rate gamma in [0, 1]."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise RangeError(f"gamma = {self.gamma!r} outside [0, 1]")


class KrausPair(NamedTuple):
    k1: np.ndarray
    k2: np.ndarray


def kraus_pair(channel: PhaseDamping) -> KrausPair:
    """Kraus operators of single-qubit phase damping:

        K1 = |0><0| + sqrt(1-gamma) |1><1|,   K2 = sqrt(gamma) |1><1|

    They satisfy K1+ K1 + K2+ K2 = I exactly.
    """
    g = channel.gamma
    k1 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]], dtype=complex)
    k2 = np.array([[0.0, 0.0], [0.0, np.sqrt(g)]], dtype=complex)
    return KrausPair(k1, k2)


def apply_kraus(rho: np.ndarray, channel: PhaseDamping) -> np.ndarray:
    """Matrix-route damping: sum_{i,j} (K_i (x) K_j) rho (K_i (x) K_j)+.

    Trace-preserving and positivity-preserving; the input is gated through
    the density-matrix checks first and must be 4x4.
    """
    rho = _two_qubit(rho)
    ops = kraus_pair(channel)
    out = np.zeros((4, 4), dtype=complex)
    for ki in ops:
        for kj in ops:
            big = np.kron(ki, kj)
            out += big @ rho @ big.conj().T
    return out


def damp_bloch(params: BlochParams, channel: PhaseDamping) -> BlochParams:
    """Parameter-route damping: transverse Bloch components scale by
    sqrt(1-gamma), transverse correlations by (1-gamma), third components
    are untouched."""
    f = np.sqrt(1.0 - channel.gamma)
    scale_v = np.array([f, f, 1.0])
    scale_c = np.array([f * f, f * f, 1.0])
    return BlochParams(params.r * scale_v, params.s * scale_v, params.c * scale_c)


def damped_mutual_information(params: BlochParams, channel: PhaseDamping) -> float:
    """Mutual information of the damped state:
    ``mutual_information(damp_bloch(params, channel))``."""
    return mutual_information(damp_bloch(params, channel))


def damped_discord(
    params: BlochParams,
    channel: PhaseDamping,
    cfg: SphereOptConfig | None = None,
) -> DiscordReport:
    """Discord of the damped state: ``discord_numeric`` on the
    parameter-route damped state ``damp_bloch(params, channel)``.

    At gamma = 0 the rescale is the identity, so the report equals
    ``discord_numeric(params, cfg)`` exactly.
    """
    return discord_numeric(damp_bloch(params, channel), cfg)


def werner_damped_gap(c: float, gamma: float) -> float:
    """Damping gap T(c, gamma) = Q(rho) - Q(rho~) of the Werner state with
    correlation diagonal (c, c, c), c in [-1, 1/3]:

        T = [ (1+c) log2(1+c) + (1-3c) log2(1-3c)
              - (1-3c+2cg) log2(1-3c+2cg) - (1+c-2cg) log2(1+c-2cg) ] / 4

    Nonnegative, zero at gamma = 0 and nondecreasing in gamma.
    """
    _check_werner(c)
    g = PhaseDamping(gamma).gamma
    vals = _xlog2([1.0 + c, 1.0 - 3.0 * c, 1.0 - 3.0 * c + 2.0 * c * g, 1.0 + c - 2.0 * c * g])
    return 0.25 * float(vals[0] + vals[1] - vals[2] - vals[3])


def werner_damped_gap_dgamma(c: float, gamma: float) -> float:
    """Rate of change of the Werner damping gap:

        dT/dgamma = (c/2) log2( (1+c-2cg) / (1-3c+2cg) )
    """
    _check_werner(c)
    g = PhaseDamping(gamma).gamma
    num = 1.0 + c - 2.0 * c * g
    den = 1.0 - 3.0 * c + 2.0 * c * g
    if num <= 0.0 or den <= 0.0:
        raise DomainError("gap derivative undefined at the PSD boundary")
    return 0.5 * c * float(np.log2(num / den))


def planar_damped_gap(r, c: float, gamma: float) -> float:
    """Damping gap of the in-plane family ``s = 0``, ``c3 = 0``,
    ``c1 = c2 = c``.

    Damping keeps the family, so the gap is the difference of two
    :func:`discord_s0_planar` values: at (r, c) and at the
    :func:`damp_bloch` image of the state, the one damping rule
    :func:`damped_discord` and :func:`gamma_sweep` use.
    """
    channel = PhaseDamping(gamma)
    undamped = discord_s0_planar(r, c)
    damped = damp_bloch(BlochParams(r, [0.0, 0.0, 0.0], [c, c, 0.0]), channel)
    return undamped - discord_s0_planar(damped.r, damped.c[0])


def gamma_sweep(
    params: BlochParams,
    gammas,
    cfg: SphereOptConfig | None = None,
) -> list[tuple[float, float, float]]:
    """Damped discord and damping gap on a grid of rates.

    ``gammas`` must be strictly increasing inside [0, 1].  Returns
    (gamma, Q_damped, Q_gap) rows where Q_gap = Q(rho) - Q(rho~).  The
    state and its ``damp_bloch`` images at every gamma go through one
    :func:`discord_numeric_batch` call, so each row equals
    ``damped_discord(params, PhaseDamping(gamma), cfg)`` exactly while the
    sphere searches run in lockstep.  The image at gamma = 0 is the state
    itself, bit for bit, so a grid starting there reuses its report.
    """
    grid = np.asarray(gammas, dtype=float).reshape(-1)
    if grid.size == 0:
        raise RangeError("gamma grid is empty")
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise RangeError("gamma grid must lie inside [0, 1]")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise RangeError("gamma grid must be strictly increasing")
    start = int(grid[0] == 0.0)
    states = [params] + [damp_bloch(params, PhaseDamping(float(g))) for g in grid[start:]]
    q0, *damped = (report.discord for report in discord_numeric_batch(states, cfg))
    damped = [q0] * start + damped
    return [(float(g), qd, q0 - qd) for g, qd in zip(grid, damped)]
