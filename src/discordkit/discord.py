"""Mutual information, classical correlation and quantum discord.

The numeric path maximizes the correlation objective over the measurement
sphere and works for every physical family state; it also serves as the
oracle for the closed forms.  Closed forms cover four parameter families:

* ``s = 0`` with a uniform correlation diagonal (including the Werner
  state and the ``c = |r|`` special case),
* ``r = 0`` with a uniform correlation diagonal,
* ``c1 = c2 = 0`` with one vanishing marginal (zero discord when s = 0),
* ``s = 0`` with in-plane correlations ``c1 = c2``, ``c3 = 0``.

Only ``_FAMILIES`` (one row per closed-form method) and :func:`_family` name
them.  Every report carries a ``method`` tag naming the path that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .density import (
    EIGENVALUE_FLOOR,
    BlochParams,
    entropic_h,
    _check_floor,
    _gated_state,
    _gated_states,
    _isotropic_spectrum,
    _planar_radii,
    _xlog2,
)
from .errors import DomainError, FamilyError
from .measurement import _correlation_kernel, _correlation_model
from .sampling import draw_axial_zero, draw_r0_isotropic, draw_s0_isotropic, draw_s0_planar
from .sphereopt import OptResult, SphereOptConfig, maximize_batch

METHOD_NUMERIC = "numeric"
METHOD_S0_ISOTROPIC = "s0-isotropic"
METHOD_S0_ISOTROPIC_C_EQ_R = "s0-isotropic-c-eq-r"
METHOD_WERNER = "werner"
METHOD_R0_ISOTROPIC = "r0-isotropic"
METHOD_AXIAL_ZERO = "axial-zero"
METHOD_S0_PLANAR = "s0-planar"

# Tolerance of every family predicate.
_FAMILY_TOL = 1e-12
# The default search.  Correlation objectives are antipodally symmetric, so
# the hemisphere restriction is exact for them; built once, since each
# SphereOptConfig validates its fields.
_SEARCH_CONFIG = SphereOptConfig(hemisphere=True)
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
    if not 0 <= r_norm < np.inf:  # written so that NaN fails
        raise ValueError("r_norm must be nonnegative and finite")
    if not np.isfinite(c):
        raise ValueError("c must be finite")
    return ThetaInterval((r_norm - abs(c)) ** 2, (r_norm + abs(c)) ** 2)


def reduced_correlation_objective(theta, r_norm: float, c: float):
    """One-dimensional reduction of the correlation objective for the
    ``s = 0``, uniform-c family:

        G(theta) = H_0(sqrt(theta))/2 + H_0(sqrt(2(|r|^2+c^2) - theta))/2

    Decreasing then increasing, with the minimum at theta = |r|^2 + c^2
    and equal values at the two ends of :func:`theta_range`.

    Raises
    ------
    ValueError
        For a negative ``r_norm``.
    DomainError
        For theta outside [0, 2(|r|^2 + c^2)] (or propagated when a log
        argument leaves [0, 1]).
    """
    if r_norm < 0:  # NaN passes here and fails the floor check
        raise ValueError("r_norm must be nonnegative")
    theta_arr = np.asarray(theta, dtype=float)
    total = 2.0 * (r_norm**2 + c**2)
    if np.any(theta_arr < -1e-15) or np.any(theta_arr > total + 1e-15):
        raise DomainError(f"theta outside [0, {total!r}]")
    theta_arr = np.clip(theta_arr, 0.0, total)
    h = entropic_h(0.0, np.sqrt(np.stack([theta_arr, total - theta_arr])))
    g = 0.5 * h[0] + 0.5 * h[1]
    return float(g) if np.isscalar(theta) else g


def _isotropic_curve(params: BlochParams, samples: int):
    """G over :func:`theta_range` for the s = 0, uniform-c family."""
    r_norm, c = params.r_norm, params.c[2]
    lo, hi = theta_range(r_norm, c)
    theta = np.linspace(lo, hi, samples) if lo < hi else np.array([lo])
    return theta, reduced_correlation_objective(theta, r_norm, c)


def _planar_curve(params: BlochParams, samples: int):
    """G of the in-plane family along its extremal path z = (t rhat_12, 0),
    t in [-1, 1], sorted by theta = |r + c z|^2."""
    r, c = params.r, params.c[0]
    rho12 = float(np.hypot(r[0], r[1]))
    t = np.linspace(-1.0, 1.0, samples)
    theta = (rho12 + c * t) ** 2 + r[2] ** 2
    other = (rho12 - c * t) ** 2 + r[2] ** 2
    h = entropic_h(0.0, np.sqrt(np.stack([theta, other])))
    g = 0.5 * h[0] + 0.5 * h[1]
    order = np.argsort(theta, kind="stable")
    return theta[order], g[order]


def _check_eigenvalues(lam, label: str) -> None:
    _check_floor(np.min(lam), EIGENVALUE_FLOOR, DomainError,
                 f"parameters leave the {label} family: eigenvalue")


def discord_s0_isotropic(r_norm: float, c: float) -> float:
    """Closed-form discord for ``s = 0``, ``c1 = c2 = c3 = c``:

        Q = H_c(|r|)/2 + H_{-c}(sqrt(4c^2+|r|^2))/2
            - [H_0(|r|+|c|) + H_0(||r|-|c||)]/2

    Agrees with :func:`werner_discord` at ``|r| = 0`` and with
    :func:`discord_s0_isotropic_c_eq_r` at ``c = |r|``, to an ulp or two.
    """
    if not r_norm >= 0:
        raise ValueError("r_norm must be nonnegative")
    _check_eigenvalues(_isotropic_spectrum(r_norm, c), "s0-isotropic")
    big = np.sqrt(4 * c**2 + r_norm**2)
    h = entropic_h(
        np.array([c, -c, 0.0, 0.0]),
        np.array([r_norm, big, r_norm + abs(c), abs(r_norm - abs(c))]),
    )
    return float(0.5 * h[0] + 0.5 * h[1] - 0.5 * (h[2] + h[3]))


def _check_werner(c: float) -> None:
    # The Werner state is the |r| = 0 point of the uniform-c spectrum.
    _check_eigenvalues(_isotropic_spectrum(0.0, c), "Werner")


def werner_discord(c: float) -> float:
    """Discord of the Werner member ``r = s = 0``, ``c1 = c2 = c3 = c``:

        Q = [(1-3c) log2(1-3c) - 2(1-c) log2(1-c) + (1+c) log2(1+c)] / 4

    valid on the PSD range c in [-1, 1/3] (eigenvalues (1+c)/4, three
    times, and (1-3c)/4).
    """
    _check_werner(c)
    v = _xlog2([1.0 - 3.0 * c, 1.0 - c, 1.0 + c])
    return 0.25 * float(v[0] - 2.0 * v[1] + v[2])


def discord_s0_isotropic_c_eq_r(c: float) -> float:
    """Discord of the ``s = 0``, uniform-c family on the slice ``c = |r| != 0``:

        Q = [(1-c+sqrt5 c) log2(1-c+sqrt5 c) + (1-c-sqrt5 c) log2(1-c-sqrt5 c)
             - (1-2c) log2(1-2c)] / 4

    PSD restricts this slice to 0 < c <= 1/(1+sqrt5).
    """
    if not c > 0.0:
        raise DomainError(f"c = {c!r} outside (0, 1/(1+sqrt5)] for the c=|r| slice")
    root5 = np.sqrt(5.0)
    _check_eigenvalues(_isotropic_spectrum(c, c), "c=|r|")
    v = _xlog2([1.0 - c + root5 * c, 1.0 - c - root5 * c, 1.0 - 2.0 * c])
    return 0.25 * float(v[0] + v[1] - v[2])


def discord_r0_isotropic(s_norm: float, c: float) -> float:
    """Closed-form discord for ``r = 0``, ``c1 = c2 = c3 = c``:

        Q = H_{-c}(sqrt(4c^2 + |s|^2))/2 - H_{-c}(|s|)/2

    Reduces to :func:`werner_discord` at ``|s| = 0``.
    """
    if not s_norm >= 0:
        raise ValueError("s_norm must be nonnegative")
    _check_eigenvalues(_isotropic_spectrum(s_norm, c), "r0-isotropic")
    big = np.sqrt(4 * c**2 + s_norm**2)
    h = entropic_h(-c, np.array([big, s_norm]))
    return float(0.5 * h[0] - 0.5 * h[1])


def discord_axial(params: BlochParams, cfg: SphereOptConfig | None = None) -> float:
    """Discord for the single-axis correlation family ``c1 = c2 = 0``.

    Requires ``|s| = 0`` or ``|r| = 0``.  With ``s = 0`` the state is
    quantum-classical and the discord is exactly zero.  With ``r = 0`` no
    closed form is known to hold, so the value is the numeric one.  The
    ``FamilyError`` checks run first, then the PSD gate (``PhysicalityError``).
    """
    if abs(params.c[0]) > _FAMILY_TOL or abs(params.c[1]) > _FAMILY_TOL:
        raise FamilyError("axial family requires c1 = c2 = 0")
    if params.s_norm <= _FAMILY_TOL:
        _gated_state(params)
        return 0.0
    if params.r_norm > _FAMILY_TOL:
        raise FamilyError("axial family requires |s| = 0 or |r| = 0")
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
    if r.shape != (3,):  # NaN components fail the eigenvalue check
        raise ValueError(f"r must be a real 3-vector, got shape {r.shape}")
    # a+ >= |r| and a+ >= 2|c|, so the floor on (1 - a+)/4 below holds of
    # each bound first; checked before a+ is, they keep c**4 and r . r finite
    # (on Python floats: an np.min per bound costs several us per call)
    for bound in (math.hypot(*r.tolist()), 2.0 * abs(c)):
        _check_floor(0.25 * (1 - bound), EIGENVALUE_FLOOR, DomainError,
                     "parameters leave the s0-planar family: eigenvalue")
    alpha_plus, alpha_minus = _planar_radii(r, c)
    # The eigenvalues are (1 +- a+-)/4; (1 - a+)/4 is the smallest.
    _check_eigenvalues(0.25 * (1 - alpha_plus), "s0-planar")
    rho12 = np.sqrt(r[0] ** 2 + r[1] ** 2)
    beta_plus = np.sqrt((rho12 + c) ** 2 + r[2] ** 2)
    beta_minus = np.sqrt((rho12 - c) ** 2 + r[2] ** 2)
    h = entropic_h(0.0, np.array([alpha_plus, alpha_minus, beta_plus, beta_minus]))
    return float(0.5 * (h[0] + h[1] - h[2] - h[3]))


def _mutual_informations(states, spectra: np.ndarray) -> tuple[list[float], list[float]]:
    """The mutual informations of ``states`` from their (n, 4) gated
    spectra, and their H_0(|r|) terms, as Python floats.  One
    :func:`_xlog2` pass takes the 8n log arguments, per state 1 +- |r|,
    1 +- |s| and the four eigenvalues (it counts those below 1e-12, which
    the gate admits down to -1e-9, as zero); each state's terms then
    combine in floats as H_0 = (a + b)/2 and I = 2 - H_0(|r|) - H_0(|s|) +
    ((l0 + l1) + l2) + l3, the order of ``np.sum`` over a row.  So each
    value is the one of that state alone, bit for bit."""
    args = [
        [1.0 + p.r_norm, 1.0 - p.r_norm, 1.0 + p.s_norm, 1.0 - p.s_norm, *lam]
        for p, lam in zip(states, spectra.tolist())
    ]
    mutual, h_r = [], []
    for x0, x1, x2, x3, l0, l1, l2, l3 in _xlog2(args).tolist():
        h = 0.5 * (x0 + x1)
        mutual.append(((2.0 - h) - 0.5 * (x2 + x3)) + (((l0 + l1) + l2) + l3))
        h_r.append(h)
    return mutual, h_r


def mutual_information(params: BlochParams) -> float:
    """Quantum mutual information I = S(rho_a) + S(rho_b) - S(rho), bits,
    through the expanded marginal-entropy form

        I = 2 - H_0(|r|) - H_0(|s|) + sum_i lambda_i log2 lambda_i

    (a qubit with Bloch vector v has entropy 1 - H_0(|v|)), on the gated
    spectrum of the state.
    """
    return _mutual_informations([params], _gated_states([params])[1])[0][0]


def _correlation_search(states: list[BlochParams], cfg) -> list[OptResult]:
    """Sphere maxima of the correlation objectives of ``states``: one
    Newton-polished :func:`maximize_batch` over all of them.  Each state's
    r, s and c become float rows once, for the model, and the kernel's
    (n, 3) arrays are built from those rows.  The model reads its rows by
    search index, one per axis, so an extra basin's axis gets its state's
    rows again."""
    lists = tuple([getattr(p, k).tolist() for p in states] for k in "rsc")
    r, s, c = map(np.array, lists)

    def model(z, pairs, rows=None):
        picked = lists if rows is None else ([v[i] for i in rows] for v in lists)
        return _correlation_model(*picked, z, pairs)

    cfg = _SEARCH_CONFIG if cfg is None else replace(cfg, hemisphere=True)
    return maximize_batch(
        lambda z, rows=slice(None): _correlation_kernel(r[rows], s[rows], c[rows], z),
        len(states),
        cfg,
        model,
    )


def maximize_correlation_objective(
    params: BlochParams, cfg: SphereOptConfig | None = None
) -> OptResult:
    """Sphere maximum of the correlation objective; an unphysical state
    raises ``PhysicalityError`` from the PSD gate."""
    _gated_state(params)
    return _correlation_search([params], cfg)[0]


def classical_correlation_numeric(
    params: BlochParams, cfg: SphereOptConfig | None = None
) -> tuple[float, np.ndarray]:
    """Classical correlation C = -H_0(|r|) + max_z G(z) and its maximizer,
    as :func:`discord_numeric` reports them."""
    report = discord_numeric(params, cfg)
    return report.classical_corr, report.argmax_axis


def discord_numeric(
    params: BlochParams, cfg: SphereOptConfig | None = None
) -> DiscordReport:
    """Discord by direct optimization; the oracle for every closed form."""
    return discord_numeric_batch([params], cfg)[0]


def discord_numeric_batch(
    params_seq, cfg: SphereOptConfig | None = None
) -> list[DiscordReport]:
    """Numeric discord of every state in ``params_seq``; each report is
    independent of the batch it came in (see :func:`_reports`)."""
    return _reports(list(params_seq), cfg, closed_forms=False)


def _reports(states: list[BlochParams], cfg, closed_forms: bool) -> list[DiscordReport]:
    """The reports of ``states``: the one route from a state to its report.

    Every state passes the PSD gate, one stacked eigensolve for the batch
    (:func:`density._gated_states`), before anything else runs.  With
    ``closed_forms`` set, :func:`_closed_form` serves the states of its
    families, and C = I - Q; the other states (all of them otherwise)
    go through one :func:`_correlation_search`, and C = -H_0(|r|) +
    max_z G(z).  So does a gated state whose closed form raises
    ``DomainError``: within an ulp of the eigenvalue floor, the closed
    form's analytic spectrum can round below it where LAPACK's does not.
    The mutual informations come from one :func:`_xlog2` pass over the
    batch (see :func:`_mutual_informations`), so each report is the one a
    batch of that state alone gives, bit for bit.
    """
    if not states:
        return []
    spectra = _gated_states(states)[1]
    hits = list(map(_closed_form, states)) if closed_forms else [None] * len(states)
    misses = [p for p, hit in zip(states, hits) if hit is None]
    found = iter(_correlation_search(misses, cfg) if misses else ())
    mutual, h_r = _mutual_informations(states, spectra)
    reports = []
    for spectrum, hit, mutual_i, h_r_i in zip(spectra, hits, mutual, h_r):
        if hit is None:
            res = next(found)
            method, axis = METHOD_NUMERIC, res.axis
            classical = -h_r_i + res.value
            value = mutual_i - classical
        else:
            method, value, axis = hit
            classical = mutual_i - value
        reports.append(DiscordReport(
            mutual_info=mutual_i,
            classical_corr=classical,
            discord=value,
            argmax_axis=axis,
            spectrum=spectrum,
            method=method,
        ))
    return reports


class _Family(NamedTuple):
    """One closed-form family, the row of its method tag."""

    method: str
    solve: Callable  # params -> (discord, analytic axis)
    sampler: Callable | None  # the seeded draw verify checks; None for a slice
    curve: Callable | None  # (params, samples) -> (theta, G) for ``curve``


def _in_plane_axis(r) -> np.ndarray:
    """The in-plane family's analytic axis: r's in-plane direction, else e_x."""
    in_plane = np.array([r[0], r[1], 0.0])
    rho12 = float(np.linalg.norm(in_plane))
    return in_plane / rho12 if rho12 > _FAMILY_TOL else np.array([1.0, 0.0, 0.0])


# One row per closed-form method, in verify's order.  Each solve looks its
# closed form up when called, so a patched module name reaches every route.
_FAMILIES = (
    _Family(METHOD_S0_ISOTROPIC, sampler=draw_s0_isotropic, curve=_isotropic_curve,
            solve=lambda p: (discord_s0_isotropic(p.r_norm, p.c[2]), p.r / p.r_norm)),
    _Family(METHOD_WERNER, sampler=None, curve=_isotropic_curve,
            solve=lambda p: (werner_discord(p.c[2]), np.array([0.0, 0.0, 1.0]))),
    _Family(METHOD_S0_ISOTROPIC_C_EQ_R, sampler=None, curve=_isotropic_curve,
            solve=lambda p: (discord_s0_isotropic_c_eq_r(p.c[2]), p.r / p.r_norm)),
    _Family(METHOD_R0_ISOTROPIC, sampler=draw_r0_isotropic, curve=None,
            solve=lambda p: (discord_r0_isotropic(p.s_norm, p.c[2]), p.s / p.s_norm)),
    _Family(METHOD_AXIAL_ZERO, sampler=draw_axial_zero, curve=None,
            solve=lambda p: (0.0, np.array([0.0, 0.0, 1.0]))),
    _Family(METHOD_S0_PLANAR, sampler=draw_s0_planar, curve=_planar_curve,
            solve=lambda p: (discord_s0_planar(p.r, p.c[0]), _in_plane_axis(p.r))),
)
_BY_METHOD = {row.method: row for row in _FAMILIES}


def _family(params: BlochParams) -> _Family | None:
    """The row of the closed-form family of ``params``, or None, from the
    predicates alone: no closed form runs."""
    c, r_norm, s_norm = params.c, params.r_norm, params.s_norm
    if abs(c[0] - c[1]) <= _FAMILY_TOL and abs(c[1] - c[2]) <= _FAMILY_TOL:
        if s_norm > _FAMILY_TOL:
            return _BY_METHOD[METHOD_R0_ISOTROPIC] if r_norm <= _FAMILY_TOL else None
        if r_norm <= _FAMILY_TOL:
            return _BY_METHOD[METHOD_WERNER]
        if abs(c[2] - r_norm) <= _FAMILY_TOL and c[2] > _FAMILY_TOL:
            return _BY_METHOD[METHOD_S0_ISOTROPIC_C_EQ_R]
        return _BY_METHOD[METHOD_S0_ISOTROPIC]
    if s_norm <= _FAMILY_TOL and abs(c[0]) <= _FAMILY_TOL and abs(c[1]) <= _FAMILY_TOL:
        return _BY_METHOD[METHOD_AXIAL_ZERO]
    if s_norm <= _FAMILY_TOL and abs(c[2]) <= _FAMILY_TOL and abs(c[0] - c[1]) <= _FAMILY_TOL:
        return _BY_METHOD[METHOD_S0_PLANAR]
    return None


def _closed_form(params: BlochParams):
    """(method, discord, analytic axis) of a gated state from its family row;
    None outside the families or where the closed form raises DomainError."""
    family = _family(params)
    try:
        return None if family is None else (family.method, *family.solve(params))
    except DomainError:
        return None


def discord_auto(
    params: BlochParams, cfg: SphereOptConfig | None = None
) -> DiscordReport:
    """Discord through the closed form whose family preconditions match,
    falling back to the numeric path; the method tag names the route."""
    return _reports([params], cfg, closed_forms=True)[0]
