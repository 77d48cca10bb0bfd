"""Deterministic global maximization of scalar objectives over the unit
sphere.

The strategy is a dense Fibonacci-lattice pass followed by shrinking
spherical-cap grids around the incumbent: monotone in the incumbent value
and bit-reproducible for a fixed configuration.  Objectives with a model
(value, tangent gradient and Riemannian Hessian in one call) go from the
lattice pass straight to at most four Newton steps, which also certify
the local maximum, from the lattice incumbent and from up to four other
competitive lattice basins; rows they cannot certify run the plain cap
rounds and one more polish from where those end.

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
# Basin scan (see _basin_scan): a lattice point above each of its
# _SCAN_NEIGHBOURS nearest lattice points by more than _SCAN_MARGIN, and
# within _SCAN_WINDOW of its row's best lattice value, starts an extra
# polish row; at most _SCAN_CAP per search, highest first.  The margin
# sits far above the kernel's rounding (lattice values of a flat Werner
# objective differ by at most 1e-15) and far below a basin's rise over its
# lattice neighbours (at least 1e-8 on 7000 general and X-state draws at
# 500 points).
_SCAN_NEIGHBOURS = 8
_SCAN_MARGIN = 1e-12
_SCAN_WINDOW = 1e-3
_SCAN_CAP = 4


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

    grid_points: int = 500
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
    Hessian eigenvalue of a certified local maximum (NaN when no Newton
    polish certified the reported maximum, or none ran).  ``value`` is the
    objective at ``axis``, bit for bit, and at least every value the
    search evaluated, except the Newton trials of a polish that did not
    certify.  The steps and the certificate are those of the polish whose
    maximum the row reports (none for a cap-round incumbent), while
    ``evaluations`` count every polish's trials."""

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


@lru_cache(maxsize=None)
def _neighbours(grid_points: int, hemisphere: bool) -> np.ndarray:
    """The indices of each :func:`_lattice` point's _SCAN_NEIGHBOURS nearest
    other lattice points (all of them on a smaller lattice), built once
    per configuration and shared read-only.  On the hemisphere a point's
    antipode stands in for it (nearness is |z . z'|), since the objectives
    searched there are antipodally symmetric.  The similarities are taken
    256 rows at a time, so 20000 points need 41 MB of them, not 3.2 GB."""
    grid = _lattice(grid_points, hemisphere)
    k = min(_SCAN_NEIGHBOURS, grid_points - 1)
    table = np.empty((grid_points, k), dtype=np.intp)
    for start in range(0, grid_points, 256):
        near = grid[start : start + 256] @ grid.T
        if hemisphere:
            np.abs(near, out=near)
        own = np.arange(len(near))
        near[own, start + own] = -np.inf  # a point is not its own neighbour
        nearest = np.argpartition(near, grid_points - 1 - k, axis=1)
        table[start : start + 256] = nearest[:, grid_points - k :]
    table.setflags(write=False)
    return table


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


def _newton_polish(model, value, z, owners, hemisphere, max_step):
    """At most four Riemannian Newton steps from each polish row's start:
    a tangent basis and a ``model`` call there and per trial.

    Row i starts at the unit axis ``z[i]`` (a list of 3 floats) with value
    ``value[i]`` and belongs to search ``owners[i]``; ``model(z, pairs,
    rows)`` gets the search index of each row it evaluates.  A row is
    certified once its tangent gradient norm is at most 1e-10, the largest
    eigenvalue of its tangent Hessian is below -1e-8, and its quadratic
    model rises at most 1e-15 above it.  A row stops uncertified when its
    derivatives are undefined (NaN), its tangent Hessian is not negative
    definite by that margin, its step is longer than ``max_step`` (the
    first cap radius), or a step lowers the running maximum by more than
    1e-15.  A row's running maximum is the highest value among its start
    and its accepted iterates, kept with the first axis that reached it;
    the last iterate, where the row is certified, may sit up to 1e-15
    below it.  Returns seven lists as the polish kept them, in Python
    floats and ints: certified flags, the running maxima's axes (lists of
    3 floats) and values, accepted steps, objective evaluations (the
    trials), the last gradient norms and top eigenvalues (NaN on
    uncertified rows).

    The rows step in lockstep, one ``model`` call per iterate on the rows
    that moved, and all of it, the model's rows included, is Python
    floats: numpy's per-call cost on a handful of rows is what a search of
    one state would otherwise spend most of its polish on.
    """
    n = len(z)
    z = list(z)
    pairs = [_tangent_pair(u) for u in z]
    best, best_z = list(value), list(z)
    certified = [False] * n
    steps, evaluations = [0] * n, [0] * n
    grad_norm, top = [math.nan] * n, [math.nan] * n
    live = range(n)
    derivatives = list(model(z, pairs, owners)[1])
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
        outputs = model(trial, trial_pairs, [owners[i] for i in moved])
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


def _basin_scan(values: np.ndarray, best: np.ndarray, first: np.ndarray, table: np.ndarray):
    """The extra polish starts of a lattice pass with ``values`` (n rows of
    lattice values), best values ``best`` at lattice indices ``first``:
    per row, every other lattice point within _SCAN_WINDOW of the best
    value and above each of its ``table`` neighbours by more than
    _SCAN_MARGIN, at most _SCAN_CAP of them, highest value first (the
    lower lattice index on a tie).  Returns their rows, ascending, and
    lattice indices as two lists.  Only points inside the window have
    their neighbours read: on a general state, a few points around each
    competitive maximum."""
    row, col = np.nonzero(values >= (best - _SCAN_WINDOW)[:, None])
    value = values[row, col]
    keep = value > values[row[:, None], table[col]].max(axis=1, initial=-np.inf) + _SCAN_MARGIN
    keep &= col != first[row]
    picks: dict[int, list[tuple[float, int]]] = {}
    for i, j, v in zip(row[keep].tolist(), col[keep].tolist(), value[keep].tolist()):
        picks.setdefault(i, []).append((-v, j))
    owners, columns = [], []
    for i, found in picks.items():
        for _, j in sorted(found)[:_SCAN_CAP]:
            owners.append(i)
            columns.append(j)
    return owners, columns


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
    whole lattice took about 740 minor page faults at 11 rows).  The pass
    keeps every row's lattice values, and each row's incumbent is its
    first maximal lattice point, NaN ranking highest as in ``argmax``.
    Returns one :class:`OptResult` per row, in order; a certified row's
    result comes straight from the polish's float lists, and numpy arrays
    remain only for the lattice pass and the cap rounds of the other rows.

    Without ``model`` every row runs all ``refine_rounds`` cap rounds.
    ``model(z, pairs)`` takes Python floats: k unit axes z, each a list of
    3 floats, and orthonormal tangent pairs (e1x, e2x, e1y, e2y, e1z, e2z)
    at them.  It returns k values, bit for bit those of ``f``, and per axis
    (g1, g2, h11, h12, h21, h22): the tangent gradient B^T grad and the
    Riemannian Hessian B^T H B - (z . grad) I in B = [e1 e2], NaN where
    undefined.  With it, at most four Newton steps polish each row's
    lattice incumbent, one model call per step and none of ``f``, each step
    no longer than the first cap radius min(pi/2, 10/sqrt(grid_points)).

    The same polish call also starts from each row's other competitive
    basins, found by a scan of its lattice values: lattice points above
    each of their 8 nearest lattice neighbours (on the hemisphere, antipodes
    folded) by more than 1e-12 and within 1e-3 of the row's best value,
    at most 4 per row, highest first.  Each is an extra polish row, and a
    model call passes it its search's index.  A row the polish of its own
    incumbent cannot certify runs the plain cap rounds from that incumbent,
    as a search without a model does, and then one more polish from where
    the rounds end, whose result it takes if certified and strictly
    higher.  That polish's steps may be up to pi/2 long: the rounds have
    kept the row in its basin, and on a flat ridge they can stall farther
    from its maximum than the first cap radius.  Last, a row moves to an
    extra row's maximum only if that is certified and strictly higher than
    what it holds.

    Every call evaluates only the rows that need it, under one convention:
    a call on anything but the n searches in order passes, last, the search
    index of each block of input.  So the cap rounds call ``f(points,
    rows)`` on the ascending indices of the rows they refine, points of
    shape (len(rows), m, 3), while some row is certified; and ``model(z,
    pairs, rows)`` gets the index of each axis's search, where an extra row
    repeats the index of its search.

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
    values = np.empty((n, len(grid)))
    for start in range(0, len(grid), width):
        # a writable copy for f
        points = np.repeat(grid[None, start : start + width], n, axis=0)
        values[:, start : start + width] = _evaluate(f, points)
    first = values.argmax(axis=1)
    best_value, best_axis = values[np.arange(n), first], grid[first]

    radius = min(np.pi / 2.0, 10.0 / np.sqrt(cfg.grid_points))
    evaluations = [len(grid)] * n
    # per row: (certified, axis, value, steps, gradient norm, top eigenvalue)
    # of what it reports; None until its polish or cap rounds end
    held, extras = [None] * n, ()
    if model is not None:
        whole = list(range(n))

        def polish(starts, axes, owners, reach):
            outcome = _newton_polish(
                lambda z, pairs, rows: model(z, pairs) if rows == whole else model(z, pairs, rows),
                starts, axes, owners, cfg.hemisphere, reach,
            )
            for i, trials in zip(owners, outcome[4]):
                evaluations[i] += trials
            return [
                (done, axis, value, steps if done else 0, norm, top)
                for done, axis, value, steps, _, norm, top in zip(*outcome)
            ]

        table = _neighbours(cfg.grid_points, cfg.hemisphere)
        owners, columns = _basin_scan(values, best_value, first, table)
        starts, axes = best_value.tolist(), best_axis.tolist()
        if owners:
            starts += values[owners, columns].tolist()
            axes += grid[columns].tolist()
        polished = polish(starts, axes, whole + owners, radius)
        held = [row if row[0] else None for row in polished[:n]]
        extras = zip(owners, polished[n:])

    rows = [i for i, row in enumerate(held) if row is None]  # the cap rounds' searches
    rounds, m = int(cfg.refine_rounds), int(cfg.local_points)
    if rows:
        picked = np.array(rows)
        objective = f if len(rows) == n else lambda z: f(z, picked)
        axis, value = best_axis[picked], best_value[picked]
        j = (np.arange(m) + 0.5)[:, None]
        spiral = (np.sqrt(j / m), np.cos(j * _GOLDEN_ANGLE), np.sin(j * _GOLDEN_ANGLE))
        cap = radius
        for _ in range(rounds):
            local = _cap_grids(axis, cap, spiral, cfg.hemisphere)
            cand_value, cand_axis = _row_best(local, _evaluate(objective, local))
            up = cand_value > value
            value[up] = cand_value[up]
            axis[up] = cand_axis[up]
            cap *= cfg.shrink_factor
        value = value.tolist()
        for i, u, v in zip(rows, axis, value):
            held[i] = (False, u, v, 0, math.nan, math.nan)
            evaluations[i] += m * rounds
        if model is not None:
            # one more polish, from where the rounds end; a row it does not
            # move keeps the rounds' incumbent and its last gradient norm
            for i, again in zip(rows, polish(value, axis.tolist(), rows, np.pi / 2.0)):
                up = again[0] and again[2] > held[i][2]
                held[i] = again if up else held[i][:4] + (again[4], math.nan)
    for i, extra in extras:
        if extra[0] and extra[2] > held[i][2]:
            held[i] = extra

    capped = set(rows)
    return [
        OptResult(
            axis=np.array(axis, dtype=float),
            value=value,
            evaluations=evaluations[i],
            refine_rounds=rounds if i in capped else 0,
            newton_steps=steps,
            gradient_norm=norm,
            hessian_max_eig=top,
        )
        for i, (_, axis, value, steps, norm, top) in enumerate(held)
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
