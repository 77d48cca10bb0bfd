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

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
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


def _check_count(name: str, n, least: int = 1) -> None:
    """A point, round or search count is an integer of at least ``least``;
    numpy integers pass, booleans (an ``Integral`` in Python) do not."""
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= least):
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {n!r}")


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
    sin(j * golden angle), j = k + 1/2.  Each cap spans the tangent pair
    of :func:`_tangent_pair` at its center."""
    root, cos_ang, sin_ang = spiral
    dist = radius * root
    basis = np.array([_tangent_pair(u) for u in centers.tolist()]).reshape(-1, 1, 3, 2)
    pts = np.cos(dist) * centers[:, None, :] + np.sin(dist) * (
        cos_ang * basis[..., 0] + sin_ang * basis[..., 1]
    )
    pts /= np.linalg.norm(pts, axis=2)[:, :, None]
    if hemisphere:
        pts[pts[:, :, 2] < 0.0] *= -1.0
    return pts


def _tangent_pair(u: list[float]) -> tuple[float, ...]:
    """An orthonormal tangent pair e1, e2 at the unit axis ``u``, in Python
    floats and as its (3, 2) columns flattened row by row: e1 = u x e_k for
    the e_k least aligned with u, normalized, then e2 = u x e1.  The frame
    of the Newton polish and the cap grids."""
    u0, u1, u2 = u
    a0, a1, a2 = abs(u0), abs(u1), abs(u2)
    if a0 <= a1 and a0 <= a2:  # argmin's first minimum
        f0, f1, f2 = 0.0, u2, -u1
    elif a1 <= a2:
        f0, f1, f2 = -u2, 0.0, u0
    else:
        f0, f1, f2 = u1, -u0, 0.0
    norm = math.sqrt((f0 * f0 + f1 * f1) + f2 * f2)
    f0, f1, f2 = f0 / norm, f1 / norm, f2 / norm
    return (f0, u1 * f2 - u2 * f1, f1, u2 * f0 - u0 * f2, f2, u0 * f1 - u1 * f0)


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
    to 1e-15 below it.  Returns seven lists as the polish kept them, in
    Python floats and ints: certified flags, the running maxima's axes
    (lists of 3 floats) and values, accepted steps, objective evaluations
    (the trials), gradient norms and top eigenvalues (NaN on uncertified
    rows, whose steps the caller reports as 0).

    The rows step in lockstep, one ``model`` call per iterate on the rows
    that moved (passed as ``rows`` when that is not every row), and all of
    it, the model's rows included, is Python floats: numpy's per-call cost
    on a handful of rows is what a search of one state would otherwise
    spend most of its polish on.
    """
    n = len(axis)
    z = axis.tolist()
    pairs = [_tangent_pair(u) for u in z]
    best, best_z = value.tolist(), list(z)
    certified = [False] * n
    steps, evaluations = [0] * n, [0] * n
    grad_norm, top = [math.nan] * n, [math.nan] * n
    live = range(n)
    derivatives = list(model(z, pairs)[1])
    for k in range(_NEWTON_STEPS + 1):
        concave = []
        for i in live:
            g0, g1, a, b, _, d = derivatives[i]
            lam = 0.5 * (a + d) + math.hypot(0.5 * (a - d), b)
            norm = grad_norm[i] = math.hypot(g0, g1)
            if not lam < -_CURVATURE_TOL:
                continue
            # the quadratic model's rise above z, g.(-h)^{-1} g / 2, is at most
            # norm^2 / (2 |lam|): where the curvature is weak, a small gradient
            # alone still leaves the row well below its maximum
            if norm <= _GRADIENT_TOL and norm * norm <= -2.0 * lam * _VALUE_SLACK:
                certified[i], top[i] = True, lam
            else:
                concave.append(i)
        if k == _NEWTON_STEPS or not concave:
            break
        # the Newton step -h^{-1} g; concave rows have a d - b^2 > 1e-16
        moved, trial, trial_pairs = [], [], []
        for i in concave:
            g0, g1, a, b, _, d = derivatives[i]
            det = a * d - b * b
            step0, step1 = (b * g1 - d * g0) / det, (b * g0 - a * g1) / det
            if not math.hypot(step0, step1) <= max_step:
                continue
            # z + step0 e1 + step1 e2, normalized and folded
            (z0, z1, z2), (e0, f0, e1, f1, e2, f2) = z[i], pairs[i]
            p0 = (z0 + step0 * e0) + step1 * f0
            p1 = (z1 + step0 * e1) + step1 * f1
            p2 = (z2 + step0 * e2) + step1 * f2
            length = math.sqrt((p0 * p0 + p1 * p1) + p2 * p2)
            if hemisphere and p2 < 0.0:
                length = -length
            u = [p0 / length, p1 / length, p2 / length]
            moved.append(i)
            trial.append(u)
            trial_pairs.append(_tangent_pair(u))
        if not moved:
            break
        # the trials' values and, where accepted, the next derivatives
        outputs = model(trial, trial_pairs) if len(moved) == n else model(trial, trial_pairs, moved)
        live = []
        for i, u, pair, u_value, u_derivatives in zip(moved, trial, trial_pairs, *outputs):
            evaluations[i] += 1
            if not u_value >= best[i] - _VALUE_SLACK:
                continue
            steps[i] += 1
            z[i], pairs[i], derivatives[i] = u, pair, u_derivatives
            live.append(i)
            if u_value > best[i]:
                best[i], best_z[i] = u_value, u
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
    :class:`OptResult` per row, in order; a certified row's result comes
    straight from the polish's float lists, and numpy arrays remain only
    for the lattice pass and the cap rounds of the other rows.

    Without ``model`` every row runs all ``refine_rounds`` cap rounds.
    ``model(z, pairs)`` takes Python floats: k unit axes z, each a list of
    3 floats, and orthonormal tangent pairs (e1x, e2x, e1y, e2y, e1z, e2z)
    at them.  It returns k values, bit for bit those of ``f``, and per axis
    (g1, g2, h11, h12, h21, h22): the tangent gradient B^T grad and the
    Riemannian Hessian B^T H B - (z . grad) I in B = [e1 e2], NaN where
    undefined.  With it, at most four Newton steps polish each row's
    lattice incumbent, one model call per step and none of ``f``, each step
    no longer than the first cap radius min(pi/2, 10/sqrt(grid_points)).  A
    row whose local maximum they certify stops there; every other row runs
    the plain rounds from its lattice incumbent, and so ends exactly where
    a search without a model ends.  Both evaluate only the rows that need
    it, under one convention: a call on fewer than all n rows passes the
    ascending search indices ``rows`` last, with one block of input per row
    in that order.  So a step calls ``model(z, pairs, rows)`` on the rows
    it moved, and while some row is certified the rounds call
    ``f(points, rows)``, points of shape (len(rows), m, 3).

    A row keeps the first point that reaches its highest value: the first
    maximal lattice point, then a cap round's or Newton iterate's point
    only where its value is strictly higher.  So each reported value is
    the objective at the reported axis, bit for bit.
    """
    _check_count("n", n, least=0)
    if cfg is None:
        cfg = SphereOptConfig()
    if n == 0:
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

    radius = min(np.pi / 2.0, 10.0 / np.sqrt(cfg.grid_points))
    if model is None:
        certified, steps, newton_evals = [False] * n, [0] * n, [0] * n
        grad_norm = top = [math.nan] * n
    else:
        certified, newton_axis, newton_value, steps, newton_evals, grad_norm, top = (
            _newton_polish(model, best_value, best_axis, cfg.hemisphere, radius)
        )

    rounds, m = int(cfg.refine_rounds), int(cfg.local_points)
    rows = [i for i, done in enumerate(certified) if not done]  # the cap rounds' searches
    if rows:
        rows = np.array(rows)
        objective = f if len(rows) == n else lambda z: f(z, rows)
        axis, value = best_axis[rows], best_value[rows]
        j = (np.arange(m) + 0.5)[:, None]
        spiral = (np.sqrt(j / m), np.cos(j * _GOLDEN_ANGLE), np.sin(j * _GOLDEN_ANGLE))
        for _ in range(rounds):
            local = _cap_grids(axis, radius, spiral, cfg.hemisphere)
            cand_value, cand_axis = _row_best(local, _evaluate(objective, local))
            up = cand_value > value
            value[up] = cand_value[up]
            axis[up] = cand_axis[up]
            radius *= cfg.shrink_factor
        best_axis[rows], best_value[rows] = axis, value

    values, results = best_value.tolist(), []
    for i, done in enumerate(certified):
        if done:
            axis, value, row_rounds = np.array(newton_axis[i]), newton_value[i], 0
        else:
            axis, value, row_rounds = best_axis[i].copy(), values[i], rounds
        results.append(OptResult(
            axis=axis,
            value=value,
            evaluations=len(grid) + newton_evals[i] + m * row_rounds,
            refine_rounds=row_rounds,
            newton_steps=steps[i] if done else 0,
            gradient_norm=grad_norm[i],
            hessian_max_eig=top[i],
        ))
    return results


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
