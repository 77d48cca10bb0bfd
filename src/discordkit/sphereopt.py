"""Deterministic global maximization of scalar objectives over the unit
sphere.

The strategy is a dense Fibonacci-lattice pass followed by shrinking
spherical-cap grids around the incumbent: derivative-free, monotone in the
incumbent value and bit-reproducible for a fixed configuration.  Objectives
are evaluated in batches (an (n, 3) array of unit rows yields n values),
which keeps the inner loop vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
_TIE_EPS = 1e-14


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
    axis: np.ndarray
    value: float
    evaluations: int

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
    values = np.asarray(f(points), dtype=float).reshape(-1)
    if values.shape != (len(points),):
        raise ValueError(
            f"objective returned {values.shape} values for {len(points)} points"
        )
    return values


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    return tuple(a) < tuple(b)


def _batch_best(points: np.ndarray, values: np.ndarray) -> tuple[float, np.ndarray]:
    vmax = float(values.max())
    tied = np.nonzero(values >= vmax - _TIE_EPS)[0]
    best = points[tied[0]]
    for i in tied[1:]:
        if _lex_smaller(points[i], best):
            best = points[i]
    return vmax, np.array(best, dtype=float)


def _merge(best_value, best_axis, cand_value, cand_axis):
    """Associative reduction: keep the running maximum value, and among
    axes whose value ties it within 1e-14 the lexicographically smallest."""
    if cand_value > best_value + _TIE_EPS:
        return cand_value, cand_axis
    if cand_value < best_value - _TIE_EPS:
        return best_value, best_axis
    axis = cand_axis if _lex_smaller(cand_axis, best_axis) else best_axis
    return max(best_value, cand_value), axis


def _tangent_basis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pick = int(np.argmin(np.abs(u)))
    helper = np.zeros(3)
    helper[pick] = 1.0
    e1 = np.cross(u, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return e1, e2


def _cap_grid(center: np.ndarray, radius: float, m: int, hemisphere: bool) -> np.ndarray:
    """Fibonacci-spiral grid on the geodesic cap of ``radius`` around
    ``center``; with the hemisphere restriction, spill-over points are
    replaced by their antipodes."""
    e1, e2 = _tangent_basis(center)
    j = np.arange(m) + 0.5
    dist = radius * np.sqrt(j / m)
    ang = j * _GOLDEN_ANGLE
    pts = (
        np.cos(dist)[:, None] * center[None, :]
        + np.sin(dist)[:, None]
        * (np.cos(ang)[:, None] * e1[None, :] + np.sin(ang)[:, None] * e2[None, :])
    )
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    if hemisphere:
        flip = pts[:, 2] < 0.0
        pts[flip] *= -1.0
    return pts


def maximize_on_sphere(f, cfg: SphereOptConfig | None = None) -> OptResult:
    """Locate the global maximum of a batch objective on the unit sphere.

    ``f`` receives an (n, 3) array of unit rows and must return n values.
    A coarse Fibonacci pass is refined by ``refine_rounds`` spherical-cap
    grids whose radius shrinks by ``shrink_factor`` per round, so the
    incumbent value never decreases and the reported value is the maximum
    over every point examined.  Ties within 1e-14 resolve to the
    lexicographically smallest axis, making the argmax reproducible.
    """
    if cfg is None:
        cfg = SphereOptConfig()
    grid = fibonacci_grid(cfg.grid_points, full_sphere=not cfg.hemisphere)
    values = _evaluate(f, grid)
    best_value, best_axis = _batch_best(grid, values)
    evaluations = len(grid)

    radius = min(np.pi / 2.0, 10.0 / np.sqrt(cfg.grid_points))
    for _ in range(cfg.refine_rounds):
        local = _cap_grid(best_axis, radius, cfg.local_points, cfg.hemisphere)
        local_values = _evaluate(f, local)
        evaluations += len(local)
        cand_value, cand_axis = _batch_best(local, local_values)
        best_value, best_axis = _merge(best_value, best_axis, cand_value, cand_axis)
        radius *= cfg.shrink_factor

    return OptResult(axis=best_axis, value=best_value, evaluations=evaluations)
