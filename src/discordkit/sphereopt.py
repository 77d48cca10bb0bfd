"""Deterministic global maximization of scalar objectives over the unit
sphere.

The strategy is a dense Fibonacci-lattice pass followed by shrinking
spherical-cap grids around the incumbent: monotone in the incumbent value
and bit-reproducible for a fixed configuration.  Objectives with a model
(value, tangent gradient and Riemannian Hessian in one call) go from the
lattice pass straight to at most four Newton steps, which also certify
the local maximum; rows they cannot certify run the plain cap rounds.

One engine, :func:`maximize_batch`, runs n such searches in lockstep: they
share the Fibonacci pass, and each refine round builds the cap grids of
all uncertified rows at once and makes one objective call on them, so
the Python cost per round is paid once for the whole batch.  Every row's
result is bit-identical to that of a search run alone;
:func:`maximize_on_sphere` is the one-row case, with an objective on
(m, 3) arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
_NEXT = np.array([1, 2, 0])
_AFTER = np.array([2, 0, 1])
_EYE = np.eye(3)
# Newton polish, straight from the lattice pass: each step is at most the
# first cap radius long; a row is certified when its tangent gradient norm
# is at most _GRADIENT_TOL, its tangent Hessian has every eigenvalue below
# -_CURVATURE_TOL (a flat direction, whose computed curvature is rounding
# noise, is not certified) and its quadratic model rises at most
# _VALUE_SLACK above it; a step may lower the running maximum by at most
# _VALUE_SLACK.
_NEWTON_STEPS = 4
_GRADIENT_TOL = 1e-10
_CURVATURE_TOL = 1e-8
_VALUE_SLACK = 1e-15
# Axes per objective call of a batch's Fibonacci pass (see maximize_batch).
_AXIS_BUDGET = 8192


def _check_count(name: str, n) -> None:
    """A point or round count is an integer of at least 1; numpy integers pass."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"{name} must be a positive integer, got {n!r}")


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
        _check_count("grid_points", self.grid_points)
        _check_count("refine_rounds", self.refine_rounds)
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink_factor must lie in (0, 1)")
        _check_count("local_points", self.local_points)


@dataclass(frozen=True)
class OptResult:
    """Maximum ``value`` at ``axis`` after ``evaluations`` objective
    evaluations, with diagnostics: the cap rounds run, the Newton steps
    accepted, the last tangent gradient norm, and the largest tangent
    Hessian eigenvalue of a certified local maximum (NaN when the Newton
    polish did not certify the row, or did not run).  ``value`` is the
    objective at ``axis``, bit for bit, and at least every value the
    search evaluated, except the Newton trials of a row the polish did not
    certify.  Such a row reports no Newton steps, since its result does
    not use them, but its ``evaluations`` count the Newton trials."""

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
    _check_count("n", n)
    k = np.arange(n) + 0.5
    if full_sphere:
        z3 = 1.0 - 2.0 * k / n
    else:
        z3 = k / n
    phi = k * _GOLDEN_ANGLE
    rho = np.sqrt(np.clip(1.0 - z3 * z3, 0.0, None))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z3], axis=1)


@lru_cache(maxsize=None)
def _lattice(grid_points: int, hemisphere: bool) -> np.ndarray:
    """The first pass's Fibonacci lattice, built once per configuration
    and shared read-only."""
    grid = fibonacci_grid(grid_points, full_sphere=not hemisphere)
    grid.setflags(write=False)
    return grid


def _evaluate(f, points: np.ndarray) -> np.ndarray:
    n, m = points.shape[:2]
    values = np.asarray(f(points), dtype=float)
    if values.shape != (n, m):
        raise ValueError(
            f"objective returned shape {values.shape} for {n} x {m} points"
        )
    return values


def _row_best(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the maximum value and the first point that reaches it."""
    rows = np.arange(len(points))
    first = values.argmax(axis=1)
    return values[rows, first], points[rows, first]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (n, 3) arrays: component i is
    a[i+1] * b[i+2] - a[i+2] * b[i+1], indices mod 3."""
    a_next, a_after = a.take(_NEXT, axis=1), a.take(_AFTER, axis=1)
    return a_next * b.take(_AFTER, axis=1) - a_after * b.take(_NEXT, axis=1)


def _tangent_bases(u: np.ndarray) -> np.ndarray:
    """Orthonormal tangent pairs e1, e2 at the unit rows of ``u``, as (n, 3, 2) columns."""
    e1 = _cross(u, _EYE.take(np.argmin(np.abs(u), axis=1), axis=0))
    # (1, 3) @ (3, 1) runs the same BLAS dot as norm() of one 3-vector, so the
    # batched basis matches the serial one of tests/_oracles.py::_serial_cap_grid
    # bit for bit
    e1 /= np.sqrt(np.matmul(e1[:, None, :], e1[:, :, None]))[:, 0]
    return np.stack([e1, _cross(u, e1)], axis=2)


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
    basis = _tangent_bases(centers)[:, None]
    pts = np.cos(dist) * centers[:, None, :] + np.sin(dist) * (
        cos_ang * basis[..., 0] + sin_ang * basis[..., 1]
    )
    pts /= np.linalg.norm(pts, axis=2)[:, :, None]
    if hemisphere:
        pts[pts[:, :, 2] < 0.0] *= -1.0
    return pts


def _newton_polish(model, value, axis, hemisphere, max_step):
    """At most four Riemannian Newton steps from each row's lattice
    incumbent: a tangent basis and a ``model`` call there and per trial.

    A row is certified once its tangent gradient norm is at most 1e-10,
    the largest eigenvalue of its tangent Hessian is below -1e-8, and its
    quadratic model rises at most 1e-15 above it.  A row stops uncertified
    when its derivatives are undefined (NaN), its tangent Hessian is not
    negative definite by that margin, its step is longer than ``max_step``
    (the first cap radius), or a step lowers the running maximum by more
    than 1e-15.  A row's running maximum is the highest value among its
    incumbent and its accepted iterates, kept with the first axis that
    reached it; the last iterate, where the row is certified, may sit up
    to 1e-15 below it.  Returns (certified, axes and values of the running
    maxima, accepted steps, objective evaluations, gradient norms, top
    eigenvalues), with the steps 0 and the top eigenvalue NaN on
    uncertified rows; their evaluations still count the trials.
    """
    n = len(axis)
    z, best_z, best = axis.copy(), axis.copy(), value.copy()
    live = np.ones(n, dtype=bool)
    certified = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=int)
    evaluations = np.zeros(n, dtype=int)
    grad_norm = np.full(n, np.nan)
    top = np.full(n, np.nan)
    basis = _tangent_bases(z)
    g, h = model(z, basis)[1:]
    for k in range(_NEWTON_STEPS + 1):
        a, b, d = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        lam = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
        norm = np.hypot(g[:, 0], g[:, 1])
        np.copyto(grad_norm, norm, where=live)
        concave = lam < -_CURVATURE_TOL
        # the quadratic model's rise above z, g.(-h)^{-1} g / 2, is at most
        # norm^2 / (2 |lam|): where the curvature is weak, a small gradient
        # alone still leaves the row well below its maximum
        done = live & concave & (norm <= _GRADIENT_TOL) & (norm * norm <= -2.0 * lam * _VALUE_SLACK)
        certified |= done
        np.copyto(top, lam, where=done)
        live &= concave & ~done
        if k == _NEWTON_STEPS or not live.any():
            break
        # the Newton step -h^{-1} g; live rows have a d - b^2 > 1e-16
        det = np.where(live, a * d - b * b, 1.0)
        step0 = (b * g[:, 1] - d * g[:, 0]) / det
        step1 = (b * g[:, 0] - a * g[:, 1]) / det
        live &= np.hypot(step0, step1) <= max_step
        trial = z + step0[:, None] * basis[:, :, 0] + step1[:, None] * basis[:, :, 1]
        trial /= np.sqrt(np.add.reduce(trial * trial, axis=1))[:, None]  # as linalg.norm
        if hemisphere:
            trial[trial[:, 2] < 0.0] *= -1.0
        np.copyto(trial, z, where=~live[:, None])
        # the trial's value and, where it is accepted, the next basis and derivatives
        basis = _tangent_bases(trial)
        trial_value, g, h = model(trial, basis)
        evaluations += live
        live &= trial_value >= best - _VALUE_SLACK
        steps += live
        np.copyto(z, trial, where=live[:, None])
        up = live & (trial_value > best)
        np.copyto(best, trial_value, where=up)
        np.copyto(best_z, trial, where=up[:, None])
    steps[~certified] = 0
    return certified, best_z, best, steps, evaluations, grad_norm, top


def maximize_batch(
    f, n: int, cfg: SphereOptConfig | None = None, model=None
) -> list[OptResult]:
    """Maximize ``n`` batch objectives on the unit sphere in lockstep.

    ``f`` receives an (n, m, 3) array of unit rows, row block i belonging
    to search i, and must return an (n, m) array of values.  All searches
    share the Fibonacci pass and then refine together, one objective call
    per refine round, so the result for each row equals that of a search
    run on its own.  The pass's lattice is built once per (grid_points,
    hemisphere) and cached read-only; ``f`` gets writable copies of it in
    chunks of max(1, 8192 // n) lattice columns, one call each, small
    enough for the objective's temporaries to be reused (one call on the
    whole lattice took about 740 minor page faults at 11 rows).  The chunk
    maxima merge in lattice order, NaN ranking highest as in ``argmax``,
    so every row keeps its first maximal lattice point.  Returns one
    :class:`OptResult` per row, in order.

    Without ``model`` every row runs all ``refine_rounds`` cap rounds.
    ``model(z, basis)`` takes (n, 3) unit rows z and orthonormal tangent
    bases B (n, 3, 2) at them, and returns the objectives' values (n,), bit
    for bit those of ``f``, tangent gradients B^T grad (n, 2) and Riemannian
    Hessians B^T H B - (z . grad) I (n, 2, 2), NaN where undefined.  With
    it, at most four Newton steps polish each row's lattice incumbent, one
    model call per step and none of ``f``, each step no longer than the
    first cap radius min(pi/2, 10/sqrt(grid_points)).  A row whose local
    maximum they certify stops there; every other row runs the plain rounds
    from its lattice incumbent, and so ends exactly where a search without
    a model ends.  The rounds evaluate those rows only: while some row is
    certified, ``f`` is called as ``f(points, rows)``, points of shape
    (len(rows), m, 3) for the ascending search indices ``rows``.

    A row keeps the first point that reaches its highest value: the first
    maximal lattice point, then a cap round's or Newton iterate's point
    only where its value is strictly higher.  So each reported value is
    the objective at the reported axis, bit for bit.
    """
    if cfg is None:
        cfg = SphereOptConfig()
    if n < 1:
        return []
    grid = _lattice(cfg.grid_points, cfg.hemisphere)
    width = max(1, _AXIS_BUDGET // n)
    for start in range(0, len(grid), width):
        # a writable copy for f
        points = np.repeat(grid[None, start : start + width], n, axis=0)
        value, axis = _row_best(points, _evaluate(f, points))
        if start == 0:
            best_value, best_axis = value, axis
            continue
        # argmax's order across chunks: a strictly higher value, or NaN
        # over a number, replaces the first maximal point
        up = (value > best_value) | (np.isnan(value) & ~np.isnan(best_value))
        best_value[up] = value[up]
        best_axis[up] = axis[up]
    evaluations = np.full(n, len(grid))

    radius = min(np.pi / 2.0, 10.0 / np.sqrt(cfg.grid_points))
    certified = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=int)
    grad_norm = np.full(n, np.nan)
    top = np.full(n, np.nan)
    if model is not None:
        certified, axis, value, steps, newton_evals, grad_norm, top = _newton_polish(
            model, best_value, best_axis, cfg.hemisphere, radius
        )
        np.copyto(best_axis, axis, where=certified[:, None])
        np.copyto(best_value, value, where=certified)
        evaluations += newton_evals

    m = cfg.local_points
    rounds = cfg.refine_rounds * ~certified
    evaluations += m * rounds
    rows = np.flatnonzero(~certified)  # the searches the cap rounds refine
    if len(rows):
        objective = f if len(rows) == n else lambda z: f(z, rows)
        axis, value = best_axis[rows], best_value[rows]
        j = (np.arange(m) + 0.5)[:, None]
        spiral = (np.sqrt(j / m), np.cos(j * _GOLDEN_ANGLE), np.sin(j * _GOLDEN_ANGLE))
        for _ in range(cfg.refine_rounds):
            local = _cap_grids(axis, radius, spiral, cfg.hemisphere)
            cand_value, cand_axis = _row_best(local, _evaluate(objective, local))
            up = cand_value > value
            value[up] = cand_value[up]
            axis[up] = cand_axis[up]
            radius *= cfg.shrink_factor
        best_axis[rows], best_value[rows] = axis, value

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
    over every point examined.  The reported axis is the first point that
    reached that value, so the value is ``f`` at the axis, bit for bit,
    and runs are reproducible.  This is the one-row case of
    :func:`maximize_batch`.
    """
    return maximize_batch(
        lambda z: np.asarray(f(z[0]), dtype=float).reshape(1, -1), 1, cfg
    )[0]
