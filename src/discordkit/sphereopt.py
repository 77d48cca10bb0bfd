"""Deterministic global maximization of scalar objectives over the unit
sphere.

The strategy is a dense Fibonacci-lattice pass followed by shrinking
spherical-cap grids around the incumbent: monotone in the incumbent value
and bit-reproducible for a fixed configuration.  Objectives that come with
their gradient and Hessian trade the late cap rounds for at most three
Riemannian Newton steps, which also certify the local maximum; rows they
cannot certify finish with the plain rounds.

One engine, :func:`maximize_batch`, runs n such searches in lockstep: they
share the Fibonacci pass, and each refine round builds all n cap grids at
once and makes one objective call on an (n, m, 3) array, so the Python
cost per round is paid once for the whole batch.  Every row's result is
bit-identical to that of a search run alone; :func:`maximize_on_sphere`
is the one-row case, with an objective on (m, 3) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
_TIE_EPS = 1e-14
_NEXT = [1, 2, 0]
_AFTER = [2, 0, 1]
# Newton polish: cap rounds stop once the radius falls to _POLISH_RADIUS,
# which also bounds each Newton step; a row is certified when its tangent
# gradient norm is at most _GRADIENT_TOL and its tangent Hessian has every
# eigenvalue below -_CURVATURE_TOL (a flat direction, whose computed
# curvature is rounding noise, is not certified); a step may lower the
# running maximum by at most _VALUE_SLACK.
_POLISH_RADIUS = 1e-4
_NEWTON_STEPS = 3
_GRADIENT_TOL = 1e-10
_CURVATURE_TOL = 1e-8
_VALUE_SLACK = 1e-15


@dataclass(frozen=True)
class SphereOptConfig:
    """Search configuration.

    ``hemisphere=True`` restricts the search to z3 >= 0, which is exact
    for antipodally symmetric objectives (all correlation objectives in
    this package) and halves the work; leave it False for generic
    objectives.
    """

    grid_points: int = 2000
    refine_rounds: int = 40
    shrink_factor: float = 0.5
    local_points: int = 64
    hemisphere: bool = False

    def __post_init__(self):
        if self.grid_points < 1:
            raise ValueError("grid_points must be positive")
        if self.refine_rounds < 1:
            raise ValueError("refine_rounds must be positive")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink_factor must lie in (0, 1)")
        if self.local_points < 1:
            raise ValueError("local_points must be positive")


@dataclass(frozen=True)
class OptResult:
    """Maximum ``value`` at ``axis`` after ``evaluations`` objective
    evaluations, with diagnostics: the cap rounds run, the Newton steps
    accepted, the last tangent gradient norm, and the largest tangent
    Hessian eigenvalue of a certified local maximum (NaN when the Newton
    polish did not certify the row, or did not run)."""

    axis: np.ndarray
    value: float
    evaluations: int
    refine_rounds: int = 0
    newton_steps: int = 0
    gradient_norm: float = float("nan")
    hessian_max_eig: float = float("nan")

    def __post_init__(self):
        self.axis.setflags(write=False)


def fibonacci_grid(n: int, full_sphere: bool = False) -> np.ndarray:
    """Near-uniform deterministic lattice of ``n`` unit vectors.

    By default the points cover the hemisphere z3 >= 0; with
    ``full_sphere=True`` they cover the whole sphere.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k = np.arange(n) + 0.5
    if full_sphere:
        z3 = 1.0 - 2.0 * k / n
    else:
        z3 = k / n
    phi = k * _GOLDEN_ANGLE
    rho = np.sqrt(np.clip(1.0 - z3 * z3, 0.0, None))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z3], axis=1)


def _evaluate(f, points: np.ndarray) -> np.ndarray:
    n, m = points.shape[:2]
    values = np.asarray(f(points), dtype=float)
    if values.shape != (n, m):
        raise ValueError(
            f"objective returned shape {values.shape} for {n} x {m} points"
        )
    return values


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise tuple comparison a < b of (n, 3) arrays."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return (a0 < b0) | ((a0 == b0) & ((a1 < b1) | ((a1 == b1) & (a2 < b2))))


def _row_best(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the maximum value, and among the points within 1e-14 of it
    the lexicographically smallest (the first of equal ones).

    The candidates are narrowed one coordinate at a time to those holding
    the row minimum, which costs O(m) per row where a sort would cost
    O(m log m) on the wide Fibonacci pass.
    """
    vmax = values.max(axis=1)
    chosen = values >= vmax[:, None] - _TIE_EPS
    for k in range(3):
        key = np.where(chosen, points[..., k], np.inf)
        chosen = key == key.min(axis=1)[:, None]
    return vmax, points[np.arange(len(points)), chosen.argmax(axis=1)]


def _merge(best_value, best_axis, cand_value, cand_axis):
    """Associative reduction, row by row: keep the running maximum value,
    and among axes whose value ties it within 1e-14 the lexicographically
    smallest."""
    up = cand_value > best_value + _TIE_EPS
    tie = ~up & ~(cand_value < best_value - _TIE_EPS)
    take_axis = up | (tie & _lex_less(cand_axis, best_axis))
    value = np.where(
        up | (tie & (cand_value > best_value)), cand_value, best_value
    )
    return value, np.where(take_axis[:, None], cand_axis, best_axis)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (n, 3) arrays: component i is
    a[i+1] * b[i+2] - a[i+2] * b[i+1], indices mod 3."""
    return a[:, _NEXT] * b[:, _AFTER] - a[:, _AFTER] * b[:, _NEXT]


def _tangent_bases(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent pair (e1, e2) at each unit row of ``u``."""
    rows = np.arange(len(u))
    helper = np.zeros_like(u)
    helper[rows, np.argmin(np.abs(u), axis=1)] = 1.0
    e1 = _cross(u, helper)
    # (1, 3) @ (3, 1) runs the same BLAS dot as norm() of one 3-vector, so the
    # batched basis matches the single-axis one bit for bit
    e1 /= np.sqrt(np.matmul(e1[:, None, :], e1[:, :, None]))[:, 0]
    return e1, _cross(u, e1)


def _cap_grids(
    centers: np.ndarray,
    radius: float,
    spiral: tuple[np.ndarray, np.ndarray, np.ndarray],
    hemisphere: bool,
) -> np.ndarray:
    """Fibonacci-spiral grids on the geodesic caps of ``radius`` around
    each center, shape (n, m, 3); with the hemisphere restriction,
    spill-over points are replaced by their antipodes.  ``spiral`` holds
    the (m, 1) columns sqrt(j/m), cos(j * golden angle) and
    sin(j * golden angle), j = k + 1/2."""
    root, cos_ang, sin_ang = spiral
    dist = radius * root
    e1, e2 = _tangent_bases(centers)
    pts = np.cos(dist) * centers[:, None, :] + np.sin(dist) * (
        cos_ang * e1[:, None, :] + sin_ang * e2[:, None, :]
    )
    pts /= np.linalg.norm(pts, axis=2)[:, :, None]
    if hemisphere:
        pts[pts[:, :, 2] < 0.0] *= -1.0
    return pts


def _tangent_model(derivatives, z: np.ndarray):
    """Tangent bases (n, 3, 2), tangent gradients B^T grad (n, 2) and
    Riemannian Hessians B^T H B - (z . grad) I (n, 2, 2) at unit rows z."""
    grad, hess = derivatives(z)
    basis = np.stack(_tangent_bases(z), axis=2)
    basis_t = basis.transpose(0, 2, 1)
    g = np.matmul(basis_t, grad[:, :, None])[..., 0]
    h = basis_t @ hess @ basis
    radial = np.matmul(grad[:, None, :], z[:, :, None])[:, 0, 0]
    h[:, [0, 1], [0, 1]] -= radial[:, None]
    return basis, g, h


def _newton_polish(f, derivatives, value, axis, hemisphere):
    """At most three Riemannian Newton steps from each row's cap incumbent.

    A row is certified once its tangent gradient norm is at most 1e-10
    and the largest eigenvalue of its tangent Hessian is below -1e-8.  A
    row stops uncertified when its derivatives are undefined (NaN), its
    tangent Hessian is not negative definite by that margin, its step is
    longer than the polish radius, or a step lowers the running maximum
    by more than 1e-15.  Returns (certified, axes, values, accepted
    steps, objective evaluations, gradient norms, top eigenvalues), with
    the top eigenvalue NaN on uncertified rows.
    """
    n = len(axis)
    z, best = axis.copy(), value.copy()
    live = np.ones(n, dtype=bool)
    certified = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=int)
    evaluations = np.zeros(n, dtype=int)
    grad_norm = np.full(n, np.nan)
    top = np.full(n, np.nan)
    for k in range(_NEWTON_STEPS + 1):
        basis, g, h = _tangent_model(derivatives, z)
        a, b, d = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        lam = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
        norm = np.hypot(g[:, 0], g[:, 1])
        grad_norm[live] = norm[live]
        concave = lam < -_CURVATURE_TOL
        done = live & concave & (norm <= _GRADIENT_TOL)
        certified |= done
        top[done] = lam[done]
        live &= concave & ~done
        if k == _NEWTON_STEPS or not live.any():
            break
        # the Newton step -h^{-1} g; live rows have a d - b^2 > 1e-16
        det = np.where(live, a * d - b * b, 1.0)
        step0 = (b * g[:, 1] - d * g[:, 0]) / det
        step1 = (b * g[:, 0] - a * g[:, 1]) / det
        live &= np.hypot(step0, step1) <= _POLISH_RADIUS
        trial = z + step0[:, None] * basis[:, :, 0] + step1[:, None] * basis[:, :, 1]
        trial /= np.linalg.norm(trial, axis=1)[:, None]
        if hemisphere:
            trial[trial[:, 2] < 0.0] *= -1.0
        trial[~live] = z[~live]
        trial_value = _evaluate(f, trial[:, None, :])[:, 0]
        evaluations += live
        live &= trial_value >= best - _VALUE_SLACK
        steps += live
        z[live] = trial[live]
        best[live] = np.maximum(best[live], trial_value[live])
    return certified, z, best, steps, evaluations, grad_norm, top


def maximize_batch(
    f, n: int, cfg: SphereOptConfig | None = None, derivatives=None
) -> list[OptResult]:
    """Maximize ``n`` batch objectives on the unit sphere in lockstep.

    ``f`` receives an (n, m, 3) array of unit rows, row block i belonging
    to search i, and must return an (n, m) array of values.  All searches
    share the Fibonacci pass and then refine together, one objective call
    per round, so the result for each row equals that of a search run on
    its own.  Returns one :class:`OptResult` per row, in order.

    Without ``derivatives`` every row runs all ``refine_rounds`` cap
    rounds.  ``derivatives`` maps (n, 3) unit rows to the Euclidean
    gradients (n, 3) and Hessians (n, 3, 3) of the objectives, NaN where
    undefined.  With it, the cap rounds stop once the radius falls to
    1e-4 (12 rounds at the default configuration) or ``refine_rounds``
    run out, whichever comes first, and at most three
    Riemannian Newton steps polish each row's incumbent.  A row whose
    local maximum they certify stops there; every other row continues
    the plain rounds up to ``refine_rounds`` from its cap incumbent, and
    so ends exactly where a search without derivatives ends.
    """
    if cfg is None:
        cfg = SphereOptConfig()
    if n < 1:
        return []
    grid = fibonacci_grid(cfg.grid_points, full_sphere=not cfg.hemisphere)
    points = np.repeat(grid[None], n, axis=0)
    best_value, best_axis = _row_best(points, _evaluate(f, points))
    evaluations = np.full(n, len(grid))

    m = cfg.local_points
    j = (np.arange(m) + 0.5)[:, None]
    ang = j * _GOLDEN_ANGLE
    spiral = (np.sqrt(j / m), np.cos(ang), np.sin(ang))
    radius = min(np.pi / 2.0, 10.0 / np.sqrt(cfg.grid_points))
    rounds = np.zeros(n, dtype=int)
    certified = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=int)
    grad_norm = np.full(n, np.nan)
    top = np.full(n, np.nan)
    polished = derivatives is None  # the polish runs at most once
    for k in range(cfg.refine_rounds + 1):
        if not polished and (radius <= _POLISH_RADIUS or k == cfg.refine_rounds):
            polished = True
            certified, z, z_value, steps, newton_evals, grad_norm, top = _newton_polish(
                f, derivatives, best_value, best_axis, cfg.hemisphere
            )
            best_axis[certified] = z[certified]
            best_value[certified] = z_value[certified]
            evaluations += newton_evals
        if k == cfg.refine_rounds or certified.all():
            break
        local = _cap_grids(best_axis, radius, spiral, cfg.hemisphere)
        # certified rows are finished: their grids collapse onto their axes
        local[certified] = best_axis[certified, None, :]
        cand_value, cand_axis = _row_best(local, _evaluate(f, local))
        value, axis = _merge(best_value, best_axis, cand_value, cand_axis)
        best_value = np.where(certified, best_value, value)
        best_axis = np.where(certified[:, None], best_axis, axis)
        evaluations += m * ~certified
        rounds += ~certified
        radius *= cfg.shrink_factor

    return [
        OptResult(
            axis=best_axis[i].copy(),
            value=float(best_value[i]),
            evaluations=int(evaluations[i]),
            refine_rounds=int(rounds[i]),
            newton_steps=int(steps[i]),
            gradient_norm=float(grad_norm[i]),
            hessian_max_eig=float(top[i]),
        )
        for i in range(n)
    ]


def maximize_on_sphere(f, cfg: SphereOptConfig | None = None) -> OptResult:
    """Locate the global maximum of a batch objective on the unit sphere.

    ``f`` receives an (n, 3) array of unit rows and must return n values.
    A coarse Fibonacci pass is refined by ``refine_rounds`` spherical-cap
    grids whose radius shrinks by ``shrink_factor`` per round, so the
    incumbent value never decreases and the reported value is the maximum
    over every point examined.  Ties within 1e-14 resolve to the
    lexicographically smallest axis, making the argmax reproducible.
    This is the one-row case of :func:`maximize_batch`.
    """
    return maximize_batch(
        lambda z: np.asarray(f(z[0]), dtype=float).reshape(1, -1), 1, cfg
    )[0]
