"""Mutual information, classical correlation and quantum discord.

The numeric path maximizes the correlation objective over the measurement
sphere and works for every physical family state; it also serves as the
oracle for the closed forms.  Closed forms cover four parameter families:

* ``s = 0`` with a uniform correlation diagonal (including the Werner
  state and the ``c = |r|`` special case),
* ``r = 0`` with a uniform correlation diagonal,
* ``c1 = c2 = 0`` with one vanishing marginal (zero discord when s = 0),
* ``s = 0`` with in-plane correlations ``c1 = c2``, ``c3 = 0``.

Every report carries a ``method`` tag naming the path that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .density import (
    EIGENVALUE_FLOOR,
    BlochParams,
    entropic_h,
    _gated_state,
    _xlog2,
)
from .errors import DomainError, FamilyError
from .measurement import _correlation_derivatives, _correlation_kernel
from .sphereopt import OptResult, SphereOptConfig, maximize_batch

METHOD_NUMERIC = "numeric"
METHOD_S0_ISOTROPIC = "s0-isotropic"
METHOD_S0_ISOTROPIC_C_EQ_R = "s0-isotropic-c-eq-r"
METHOD_WERNER = "werner"
METHOD_R0_ISOTROPIC = "r0-isotropic"
METHOD_AXIAL_ZERO = "axial-zero"
METHOD_AXIAL_FORMULA = "axial-formula"
METHOD_S0_PLANAR = "s0-planar"

# Tolerance of every family predicate, here and in the CLI's verify.
_FAMILY_TOL = 1e-12
# States per lockstep search in discord_numeric_batch.
_BATCH_BLOCK = 32
# PSD bound of the c = |r| sub-family: (1-c)^2 >= 5 c^2.
C_EQ_R_MAX = 1.0 / (1.0 + np.sqrt(5.0))


@dataclass(frozen=True)
class DiscordReport:
    """Correlation summary of one state.

    ``discord = mutual_info - classical_corr`` holds by construction;
    ``method`` names the computation path (see the METHOD_* constants).
    """

    mutual_info: float
    classical_corr: float
    discord: float
    argmax_axis: np.ndarray
    spectrum: np.ndarray
    method: str

    def __post_init__(self):
        self.argmax_axis.setflags(write=False)
        self.spectrum.setflags(write=False)


class ThetaInterval(NamedTuple):
    theta_min: float
    theta_max: float


def theta_range(r_norm: float, c: float) -> ThetaInterval:
    """Range of theta = |r + c z|^2 over unit axes z:
    [(|r|-|c|)^2, (|r|+|c|)^2]."""
    if r_norm < 0:
        raise ValueError("r_norm must be nonnegative")
    return ThetaInterval((r_norm - abs(c)) ** 2, (r_norm + abs(c)) ** 2)


def reduced_correlation_objective(theta, r_norm: float, c: float):
    """One-dimensional reduction of the correlation objective for the
    ``s = 0``, uniform-c family:

        G(theta) = H_0(sqrt(theta))/2 + H_0(sqrt(2(|r|^2+c^2) - theta))/2

    Decreasing then increasing, with the minimum at theta = |r|^2 + c^2
    and equal values at the two ends of :func:`theta_range`.

    Raises
    ------
    DomainError
        For theta outside [0, 2(|r|^2 + c^2)] (or propagated when a log
        argument leaves [0, 1]).
    """
    theta_arr = np.asarray(theta, dtype=float)
    total = 2.0 * (r_norm**2 + c**2)
    if np.any(theta_arr < -1e-15) or np.any(theta_arr > total + 1e-15):
        raise DomainError(f"theta outside [0, {total!r}]")
    theta_arr = np.clip(theta_arr, 0.0, total)
    g = 0.5 * entropic_h(0.0, np.sqrt(theta_arr)) + 0.5 * entropic_h(
        0.0, np.sqrt(total - theta_arr)
    )
    return float(g) if np.isscalar(theta) else g


def _check_eigenvalues(lam, label: str) -> None:
    smallest = float(np.min(lam))
    if smallest < EIGENVALUE_FLOOR:
        raise DomainError(
            f"parameters leave the {label} family (eigenvalue {smallest:.3e})"
        )


def discord_s0_isotropic(r_norm: float, c: float) -> float:
    """Closed-form discord for ``s = 0``, ``c1 = c2 = c3 = c``:

        Q = H_c(|r|)/2 + H_{-c}(sqrt(4c^2+|r|^2))/2
            - [H_0(|r|+|c|) + H_0(||r|-|c||)]/2

    Delegates to :func:`werner_discord` at ``|r| = 0`` and to
    :func:`discord_s0_isotropic_c_eq_r` at ``c = |r| != 0``; all three
    expressions agree where they overlap.
    """
    if r_norm < 0:
        raise ValueError("r_norm must be nonnegative")
    lam = 0.25 * np.array(
        [
            1 + c + r_norm,
            1 + c - r_norm,
            1 - c + np.sqrt(4 * c**2 + r_norm**2),
            1 - c - np.sqrt(4 * c**2 + r_norm**2),
        ]
    )
    _check_eigenvalues(lam, "s0-isotropic")
    if r_norm == 0.0:
        return werner_discord(c)
    if c == r_norm:
        return discord_s0_isotropic_c_eq_r(c)
    big = np.sqrt(4 * c**2 + r_norm**2)
    return (
        0.5 * entropic_h(c, r_norm)
        + 0.5 * entropic_h(-c, big)
        - 0.5 * (entropic_h(0.0, r_norm + abs(c)) + entropic_h(0.0, abs(r_norm - abs(c))))
    )


def werner_discord(c: float) -> float:
    """Discord of the Werner member ``r = s = 0``, ``c1 = c2 = c3 = c``:

        Q = [(1-3c) log2(1-3c) - 2(1-c) log2(1-c) + (1+c) log2(1+c)] / 4

    valid on the PSD range c in [-1, 1/3] (eigenvalues (1+c)/4, three
    times, and (1-3c)/4).
    """
    _check_eigenvalues(0.25 * np.array([1.0 + c, 1.0 - 3.0 * c]), "Werner")
    return 0.25 * float(
        _xlog2(np.array(1.0 - 3.0 * c))
        - 2.0 * _xlog2(np.array(1.0 - c))
        + _xlog2(np.array(1.0 + c))
    )


def discord_s0_isotropic_c_eq_r(c: float) -> float:
    """Discord of the ``s = 0``, uniform-c family on the slice ``c = |r| != 0``:

        Q = [(1-c+sqrt5 c) log2(1-c+sqrt5 c) + (1-c-sqrt5 c) log2(1-c-sqrt5 c)
             - (1-2c) log2(1-2c)] / 4

    PSD restricts this slice to 0 < c <= 1/(1+sqrt5).
    """
    if not c > 0.0:
        raise DomainError(f"c = {c!r} outside (0, 1/(1+sqrt5)] for the c=|r| slice")
    root5 = np.sqrt(5.0)
    _check_eigenvalues(
        0.25 * np.array([1.0 + 2.0 * c, 1.0, 1.0 - c + root5 * c, 1.0 - c - root5 * c]),
        "c=|r|",
    )
    return 0.25 * float(
        _xlog2(np.array(1.0 - c + root5 * c))
        + _xlog2(np.array(1.0 - c - root5 * c))
        - _xlog2(np.array(1.0 - 2.0 * c))
    )


def discord_r0_isotropic(s_norm: float, c: float) -> float:
    """Closed-form discord for ``r = 0``, ``c1 = c2 = c3 = c``:

        Q = H_{-c}(sqrt(4c^2 + |s|^2))/2 - H_{-c}(|s|)/2

    Reduces to :func:`werner_discord` at ``|s| = 0``.
    """
    if s_norm < 0:
        raise ValueError("s_norm must be nonnegative")
    big = np.sqrt(4 * c**2 + s_norm**2)
    lam = 0.25 * np.array([1 + c + s_norm, 1 + c - s_norm, 1 - c + big, 1 - c - big])
    _check_eigenvalues(lam, "r0-isotropic")
    return 0.5 * entropic_h(-c, big) - 0.5 * entropic_h(-c, s_norm)


def discord_axial(
    params: BlochParams,
    cfg: SphereOptConfig | None = None,
    use_reference_formula: bool = False,
) -> float:
    """Discord for the single-axis correlation family ``c1 = c2 = 0``.

    Requires ``|s| = 0`` or ``|r| = 0``.  With ``s = 0`` the state is
    quantum-classical and the discord is exactly zero.  With ``r = 0`` the
    default is the numeric value (the reliable answer for this branch);
    ``use_reference_formula=True`` instead evaluates the reference closed
    form H_0(|s| / sqrt(s1^2 + s2^2 + (c3+s3)^2)), which is known to
    contradict the product-state limit (it gives 1 where the discord is 0)
    and is exposed for comparison only.
    """
    if abs(params.c[0]) > _FAMILY_TOL or abs(params.c[1]) > _FAMILY_TOL:
        raise FamilyError("axial family requires c1 = c2 = 0")
    if params.s_norm <= _FAMILY_TOL:
        return 0.0
    if params.r_norm > _FAMILY_TOL:
        raise FamilyError("axial family requires |s| = 0 or |r| = 0")
    if use_reference_formula:
        s = params.s
        denom = np.sqrt(s[0] ** 2 + s[1] ** 2 + (params.c[2] + s[2]) ** 2)
        if denom <= _FAMILY_TOL:
            raise DomainError("reference axial formula undefined: zero denominator")
        return entropic_h(0.0, params.s_norm / denom)
    return discord_numeric(params, cfg).discord


def discord_s0_planar(r, c: float) -> float:
    """Closed-form discord for ``s = 0``, ``c3 = 0``, ``c1 = c2 = c``:

        Q = [H_0(a+) + H_0(a-) - H_0(b+) - H_0(b-)] / 2
        a+- = sqrt(2c^2 + |r|^2 +- 2 sqrt(c^4 + c^2 (r1^2 + r2^2)))
        b+- = sqrt((sqrt(r1^2 + r2^2) +- c)^2 + r3^2)

    The b form is the algebraic simplification that stays defined at
    r1 = r2 = 0.
    """
    r = np.asarray(r, dtype=float)
    rho12_sq = r[0] ** 2 + r[1] ** 2
    rho12 = np.sqrt(rho12_sq)
    r_sq = float(r @ r)
    inner = np.sqrt(c**4 + c**2 * rho12_sq)
    alpha_plus = np.sqrt(2 * c**2 + r_sq + 2 * inner)
    alpha_minus = np.sqrt(max(2 * c**2 + r_sq - 2 * inner, 0.0))
    _check_eigenvalues(
        0.25 * np.array([1 + alpha_plus, 1 - alpha_plus, 1 + alpha_minus, 1 - alpha_minus]),
        "s0-planar",
    )
    beta_plus = np.sqrt((rho12 + c) ** 2 + r[2] ** 2)
    beta_minus = np.sqrt((rho12 - c) ** 2 + r[2] ** 2)
    return 0.5 * (
        entropic_h(0.0, alpha_plus)
        + entropic_h(0.0, alpha_minus)
        - entropic_h(0.0, beta_plus)
        - entropic_h(0.0, beta_minus)
    )


def _mutual_information(params: BlochParams, lam: np.ndarray) -> float:
    lam = np.clip(lam, 0.0, None)
    return float(
        2.0
        - entropic_h(0.0, params.r_norm)
        - entropic_h(0.0, params.s_norm)
        + np.sum(_xlog2(lam))
    )


def mutual_information(params: BlochParams) -> float:
    """Quantum mutual information I = S(rho_a) + S(rho_b) - S(rho), bits,
    through the expanded marginal-entropy form

        I = 2 - H_0(|r|) - H_0(|s|) + sum_i lambda_i log2 lambda_i

    (a qubit with Bloch vector v has entropy 1 - H_0(|v|)), on the gated
    spectrum of the state.
    """
    return _mutual_information(params, _gated_state(params)[1])


mutual_information_expanded = mutual_information


def _discord_cfg(cfg: SphereOptConfig | None) -> SphereOptConfig:
    # Correlation objectives are antipodally symmetric, so the hemisphere
    # restriction is exact here.
    if cfg is None:
        cfg = SphereOptConfig()
    return replace(cfg, hemisphere=True)


def _correlation_search(states: list[BlochParams], cfg) -> list[OptResult]:
    """Sphere maxima of the correlation objectives of ``states``: one
    Newton-polished :func:`maximize_batch` per block of at most 32 states,
    which bounds the memory of the shared Fibonacci pass."""
    eff = _discord_cfg(cfg)
    results: list[OptResult] = []
    for start in range(0, len(states), _BATCH_BLOCK):
        block = states[start : start + _BATCH_BLOCK]
        r, s, c = (np.stack([getattr(p, k) for p in block]) for k in "rsc")
        results += maximize_batch(
            lambda z: _correlation_kernel(r, s, c, z),
            len(block),
            eff,
            lambda z: _correlation_derivatives(r, s, c, z),
        )
    return results


def maximize_correlation_objective(
    params: BlochParams, cfg: SphereOptConfig | None = None
) -> OptResult:
    """Sphere maximum of the correlation objective."""
    return _correlation_search([params], cfg)[0]


def classical_correlation_numeric(
    params: BlochParams, cfg: SphereOptConfig | None = None
) -> tuple[float, np.ndarray]:
    """Classical correlation C = -H_0(|r|) + max_z G(z) and its maximizer."""
    res = maximize_correlation_objective(params, cfg)
    return -entropic_h(0.0, params.r_norm) + res.value, res.axis


def _numeric_report(
    params: BlochParams, spectrum: np.ndarray, res: OptResult
) -> DiscordReport:
    mutual = _mutual_information(params, spectrum)
    classical = -entropic_h(0.0, params.r_norm) + res.value
    return DiscordReport(
        mutual_info=mutual,
        classical_corr=classical,
        discord=mutual - classical,
        argmax_axis=res.axis,
        spectrum=spectrum,
        method=METHOD_NUMERIC,
    )


def discord_numeric(
    params: BlochParams, cfg: SphereOptConfig | None = None
) -> DiscordReport:
    """Discord by direct optimization; the oracle for every closed form."""
    return discord_numeric_batch([params], cfg)[0]


def discord_numeric_batch(
    params_seq, cfg: SphereOptConfig | None = None
) -> list[DiscordReport]:
    """Numeric discord of every state in ``params_seq``; each report is
    independent of the batch it came in.

    Every state passes the PSD gate before any search starts; the
    searches then run in lockstep blocks (see :func:`_correlation_search`).
    """
    states = list(params_seq)
    spectra = [_gated_state(p)[1] for p in states]
    results = _correlation_search(states, cfg)
    return [_numeric_report(*row) for row in zip(states, spectra, results)]


def _unit_or_z(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm <= _FAMILY_TOL:
        return np.array([0.0, 0.0, 1.0])
    return v / norm


def _analytic_dispatch(params: BlochParams):
    """Pick (method, discord value, analytic maximizer) when a closed form
    applies, else None."""
    r, s, c = params.r, params.s, params.c
    r_norm, s_norm = params.r_norm, params.s_norm
    iso = abs(c[0] - c[1]) <= _FAMILY_TOL and abs(c[1] - c[2]) <= _FAMILY_TOL
    if s_norm <= _FAMILY_TOL and iso:
        if r_norm <= _FAMILY_TOL:
            return METHOD_WERNER, werner_discord(c[2]), np.array([0.0, 0.0, 1.0])
        axis = _unit_or_z(r)
        if abs(c[2] - r_norm) <= _FAMILY_TOL and c[2] > _FAMILY_TOL:
            return (
                METHOD_S0_ISOTROPIC_C_EQ_R,
                discord_s0_isotropic_c_eq_r(c[2]),
                axis,
            )
        return METHOD_S0_ISOTROPIC, discord_s0_isotropic(r_norm, c[2]), axis
    if r_norm <= _FAMILY_TOL and iso:
        return METHOD_R0_ISOTROPIC, discord_r0_isotropic(s_norm, c[2]), _unit_or_z(s)
    axial = abs(c[0]) <= _FAMILY_TOL and abs(c[1]) <= _FAMILY_TOL
    if s_norm <= _FAMILY_TOL and axial:
        return METHOD_AXIAL_ZERO, 0.0, np.array([0.0, 0.0, 1.0])
    planar = abs(c[2]) <= _FAMILY_TOL and abs(c[0] - c[1]) <= _FAMILY_TOL
    if s_norm <= _FAMILY_TOL and planar:
        axis = _unit_or_z(np.array([r[0], r[1], 0.0]))
        if np.linalg.norm(r[:2]) <= _FAMILY_TOL:
            axis = np.array([1.0, 0.0, 0.0])
        return METHOD_S0_PLANAR, discord_s0_planar(r, c[0]), axis
    return None


def discord_auto(
    params: BlochParams, cfg: SphereOptConfig | None = None
) -> DiscordReport:
    """Discord through the closed form whose family preconditions match,
    falling back to the numeric path; the method tag names the route."""
    spectrum = _gated_state(params)[1]  # gates physicality first
    mutual = _mutual_information(params, spectrum)
    hit = _analytic_dispatch(params)
    if hit is None:
        classical, axis = classical_correlation_numeric(params, cfg)
        method, value = METHOD_NUMERIC, mutual - classical
    else:
        method, value, axis = hit
    return DiscordReport(
        mutual_info=mutual,
        classical_corr=mutual - value,
        discord=value,
        argmax_axis=axis,
        spectrum=spectrum,
        method=method,
    )
