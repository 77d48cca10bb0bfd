"""Tests for the Fibonacci lattice and the deterministic sphere maximizer."""

import re

import numpy as np
import pytest

from discordkit import (
    OptResult,
    SphereOptConfig,
    fibonacci_grid,
    maximize_batch,
    maximize_on_sphere,
)
from discordkit.sphereopt import (
    _GOLDEN_ANGLE,
    _basin_scan,
    _cap_grids,
    _neighbours,
    _tangent_pair,
)

from _oracles import serial_sphere_search


def test_grid_single_point_is_unit():
    grid = fibonacci_grid(1)
    assert grid.shape == (1, 3)
    assert abs(np.linalg.norm(grid[0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 17, 400, 2000])
@pytest.mark.parametrize("full", [False, True])
def test_grid_points_unit_norm(n, full):
    grid = fibonacci_grid(n, full_sphere=full)
    norms = np.linalg.norm(grid, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    if not full:
        assert np.all(grid[:, 2] >= 0.0)


def test_grid_nearest_neighbour_gap_is_small():
    # frozen by a one-off pairwise-distance scan: the measured maximum gap
    # at n=2000 is ~0.0559 rad
    grid = fibonacci_grid(2000)
    cos = grid @ grid.T
    np.fill_diagonal(cos, -1.0)
    gaps = np.arccos(np.clip(cos.max(axis=1), -1.0, 1.0))
    assert gaps.max() < 0.12
    assert gaps.max() == pytest.approx(0.055865788372880844, abs=1e-12)


def test_grid_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        fibonacci_grid(0)
    with pytest.raises(ValueError, match="n must be a positive integer, got 2.5"):
        fibonacci_grid(2.5)
    # bool is an Integral, but True is no count: it would give a one-point grid
    with pytest.raises(ValueError, match="n must be a positive integer, got True"):
        fibonacci_grid(True)
    assert fibonacci_grid(np.int64(5)).shape == (5, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        SphereOptConfig(grid_points=0)
    with pytest.raises(ValueError):
        SphereOptConfig(shrink_factor=1.0)
    with pytest.raises(ValueError):
        SphereOptConfig(local_points=0)
    with pytest.raises(ValueError):
        SphereOptConfig(refine_rounds=0)
    # a count is an integer: a fraction would fail inside numpy's index
    # arithmetic or round the lattice up, and True (an Integral) would run a
    # one-point lattice
    for name in ("grid_points", "refine_rounds", "local_points"):
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"{name} must be a positive integer, got {bad}"):
                SphereOptConfig(**{name: bad})
    assert SphereOptConfig(grid_points=np.int64(50)).grid_points == 50


def test_linear_objective_finds_pole():
    res = maximize_on_sphere(lambda z: z @ np.array([0.0, 0.0, 1.0]))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    # the last of the 40 cap rounds has radius 0.224 / 2^39, about 4e-13;
    # near the pole z3 = cos(angle) is flat to first order, so axes about
    # 1e-8 off already reach 1 within rounding (measured offset 9e-10)
    np.testing.assert_allclose(res.axis, [0, 0, 1], atol=1e-8)


def test_linear_objective_negative_pole_needs_full_sphere():
    a = np.array([0.0, 0.0, -1.0])
    full = maximize_on_sphere(lambda z: z @ a, SphereOptConfig(hemisphere=False))
    assert full.value == pytest.approx(1.0, abs=1e-9)
    hemi = maximize_on_sphere(lambda z: z @ a, SphereOptConfig(hemisphere=True))
    # restricted to z3 >= 0 the supremum of -z3 is 0
    assert hemi.value == pytest.approx(0.0, abs=1e-6)


def test_constant_objective_reports_the_first_lattice_point():
    cfg = SphereOptConfig(grid_points=500, refine_rounds=5)
    grids = []

    def constant(z):
        grids.append(z.copy())
        return np.full(len(z), 3.0)

    res = maximize_on_sphere(constant, cfg)
    assert res.value == 3.0
    first = fibonacci_grid(500, full_sphere=True)[0]
    assert np.array_equal(res.axis, first)
    # no cap round finds a strictly higher value, so every cap stays
    # centred on the first lattice point: its points lie within its radius
    assert len(grids) == 1 + cfg.refine_rounds
    radius = 10.0 / np.sqrt(500)
    for local in grids[1:]:
        assert np.arccos(np.clip(local @ first, -1.0, 1.0)).max() <= radius + 1e-12
        radius *= cfg.shrink_factor


def test_quadratic_forms_match_top_eigenvalue():
    rng = np.random.default_rng(107)
    for _ in range(100):
        m = rng.normal(size=(3, 3))
        m = 0.5 * (m + m.T)
        res = maximize_on_sphere(lambda z: np.einsum("ni,ij,nj->n", z, m, z))
        top = np.linalg.eigvalsh(m)[-1]
        assert res.value == pytest.approx(top, abs=1e-9)


def test_value_covers_every_examined_point():
    seen = []

    def recording(z):
        values = z @ np.array([0.3, -0.2, 0.9])
        seen.append(values.copy())
        return values

    res = maximize_on_sphere(recording)
    assert res.value >= max(float(v.max()) for v in seen)
    assert res.evaluations == sum(len(v) for v in seen)


def test_runs_are_bit_identical():
    m = np.diag([0.3, -0.1, 0.7])

    def f(z):
        return np.einsum("ni,ij,nj->n", z, m, z)

    r1 = maximize_on_sphere(f)
    r2 = maximize_on_sphere(f)
    assert r1.value == r2.value
    assert np.array_equal(r1.axis, r2.axis)
    assert r1.evaluations == r2.evaluations


def test_result_type_and_count():
    cfg = SphereOptConfig(grid_points=100, refine_rounds=3, local_points=16)
    res = maximize_on_sphere(lambda z: z[:, 0], cfg)
    assert isinstance(res, OptResult)
    assert res.evaluations == 100 + 3 * 16


# Axes whose |components| tie for the least aligned one, so that the
# helper axis e_k is argmin's first minimum, with -0.0 and 0.0 components.
_TIED_AXES = [
    np.ones(3) / np.sqrt(3.0),
    np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
    np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
    np.array([-0.0, 0.0, -1.0]),
    np.array([0.0, -1.0, -0.0]),
    np.array([-1.0, -0.0, 0.0]),
]
_DRAWN_AXES = [u / np.linalg.norm(u) for u in np.random.default_rng(137).normal(size=(6, 3))]


@pytest.mark.parametrize(
    "u",
    _TIED_AXES + _DRAWN_AXES,
    ids=[f"tied{k}" for k in range(8)] + [f"drawn{k}" for k in range(6)],
)
def test_tangent_pair_is_the_frame_from_the_first_least_aligned_axis(u):
    e1, e2 = np.array(_tangent_pair(u.tolist())).reshape(3, 2).T
    assert abs(e1 @ u) <= 1e-15
    assert np.array_equal(e2, np.cross(u, e1))
    assert abs(np.linalg.norm(e1) - 1.0) <= 1e-15
    assert abs(np.linalg.norm(e2) - 1.0) <= 1e-15
    # e1 = u x e_k, normalized, for the first k that minimizes |u_k|
    k = int(np.argmin(np.abs(u)))
    helper = np.cross(u, np.eye(3)[k])
    assert e1[k] == 0.0
    np.testing.assert_allclose(e1, helper / np.linalg.norm(helper), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("hemisphere", [False, True])
def test_cap_grids_at_tied_centers_are_unit_caps(hemisphere):
    centers, radius, m = np.array(_TIED_AXES), 0.3, 64
    j = (np.arange(m) + 0.5)[:, None]
    spiral = (np.sqrt(j / m), np.cos(j * _GOLDEN_ANGLE), np.sin(j * _GOLDEN_ANGLE))
    pts = _cap_grids(centers, radius, spiral, hemisphere)
    assert pts.shape == (len(centers), m, 3)
    assert np.abs(np.linalg.norm(pts, axis=2) - 1.0).max() <= 1e-15
    cos = np.einsum("nmi,ni->nm", pts, centers)
    if hemisphere:
        # spill-over points are folded to their antipodes
        assert np.all(pts[:, :, 2] >= 0.0)
        cos = np.abs(cos)
    assert np.arccos(np.clip(cos, -1.0, 1.0)).max() <= radius + 1e-12


def _row_objectives(kind: str, n: int):
    """n objectives of one kind, as (per-row (m, 3) -> (m,), batch)."""
    rng = np.random.default_rng(113)
    if kind == "linear":
        coef = rng.normal(size=(n, 3))
        # written out component by component, as the package's kernel is:
        # a BLAS z @ a rounds the same axis differently in an (m, 3) grid
        # and in a (1, 3) row, and a value must depend on its axis alone
        rows = [lambda z, a=a: z[:, 0] * a[0] + z[:, 1] * a[1] + z[:, 2] * a[2] for a in coef]
    elif kind == "quadratic":
        mats = rng.normal(size=(n, 3, 3))
        mats = 0.5 * (mats + mats.transpose(0, 2, 1))
        rows = [lambda z, m=m: np.einsum("ni,ij,nj->n", z, m, z) for m in mats]
    else:
        rows = [lambda z, k=k: np.full(len(z), float(k)) for k in range(n)]

    def batch(z):
        assert z.shape[0] == n and z.flags.writeable
        return np.stack([f(block) for f, block in zip(rows, z)])

    return rows, batch


def _check_lockstep_rows(kind, hemisphere, n):
    cfg = SphereOptConfig(hemisphere=hemisphere)
    rows, batch = _row_objectives(kind, n)
    results = maximize_batch(batch, len(rows), cfg)
    assert len(results) == len(rows)
    for f, res in zip(rows, results):
        single = maximize_on_sphere(f, cfg)
        value, axis, evaluations = serial_sphere_search(f, cfg)
        for other in (single, OptResult(axis, value, evaluations)):
            assert res.value == other.value
            assert np.array_equal(res.axis, other.axis)
            assert res.evaluations == other.evaluations


# At n = 4 the 8000 lattice axes fit one first-pass call.
@pytest.mark.parametrize("kind", ["linear", "quadratic", "constant"])
@pytest.mark.parametrize("hemisphere", [False, True])
def test_lockstep_rows_equal_single_and_serial_searches(kind, hemisphere):
    _check_lockstep_rows(kind, hemisphere, 4)


# At n = 11 the pass runs in three chunks of at most 744 columns, whose
# maxima merge in order.
@pytest.mark.parametrize("kind", ["linear", "quadratic", "constant"])
@pytest.mark.parametrize("hemisphere", [False, True])
def test_lockstep_rows_equal_single_and_serial_searches_across_chunks(kind, hemisphere):
    _check_lockstep_rows(kind, hemisphere, 11)


@pytest.mark.parametrize("n", [1, 11, 40])
def test_lattice_pass_calls_stay_within_the_axis_budget(n):
    cfg = SphereOptConfig()
    shapes = []

    def f(z):
        shapes.append(z.shape)
        return z[:, :, 2] + 0.0

    maximize_batch(f, n, cfg)
    first_pass = []
    while sum(m for _, m, _ in first_pass) < cfg.grid_points:
        first_pass.append(shapes[len(first_pass)])
    assert sum(m for _, m, _ in first_pass) == cfg.grid_points
    for rows, m, _ in first_pass:
        assert rows == n and rows * m <= max(8192, n)
    if n == 1:
        assert first_pass == [(1, cfg.grid_points, 3)]


def test_lockstep_rows_keep_a_nan_lattice_value_across_chunks():
    # a NaN ranks above every number, as in argmax: row k is NaN at lattice
    # point 180 k, so rows 0-4, 5-8 and 9-10 meet it in the first, second
    # and third of the three 744-column chunks of an 11-row pass over 2000 points
    cfg = SphereOptConfig(grid_points=2000, refine_rounds=2)
    lattice = fibonacci_grid(cfg.grid_points, full_sphere=True)
    rows = [
        lambda z, p=lattice[180 * k]: np.where(np.all(z == p, axis=-1), np.nan, z[..., 0])
        for k in range(11)
    ]
    results = maximize_batch(lambda z: np.stack([f(b) for f, b in zip(rows, z)]), 11, cfg)
    for k, (f, res) in enumerate(zip(rows, results)):
        single = maximize_on_sphere(f, cfg)
        assert np.isnan(res.value) and np.isnan(single.value)
        assert np.array_equal(res.axis, lattice[180 * k])
        assert np.array_equal(res.axis, single.axis)


@pytest.mark.parametrize(
    "returned",
    [lambda z: np.zeros(z.shape[:2])[:, :-1], lambda z: np.zeros(z.shape[1])],
    ids=["short-rows", "one-row"],
)
def test_batch_rejects_wrong_shape(returned):
    with pytest.raises(ValueError):
        maximize_batch(returned, 2, SphereOptConfig(grid_points=50, refine_rounds=1))
    with pytest.raises(ValueError):
        maximize_on_sphere(lambda z: np.zeros(len(z) + 1))


def test_batch_of_zero_searches_calls_nothing():
    def never(z):
        raise AssertionError("objective called")

    assert maximize_batch(never, 0) == []
    assert maximize_batch(never, np.int64(0)) == []
    # a search count is a non-negative integer, under the rule of every count
    for bad in (-1, 2.5, True, np.float64(2.0), "3"):
        message = f"n must be a non-negative integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            maximize_batch(never, bad)


def _tangent(z, basis, grad, hess):
    """The tangent gradients B^T grad and Riemannian Hessians
    B^T hess B - (z . grad) I of Euclidean derivatives at the unit rows z,
    after checking that ``basis`` holds an orthonormal tangent pair at each
    row: the model's contract, which a basis left over from an earlier
    iterate breaks."""
    assert basis.shape == z.shape + (2,)
    np.testing.assert_allclose(np.einsum("nia,ni->na", basis, z), 0.0, atol=1e-15)
    gram = np.einsum("nia,nib->nab", basis, basis)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-15)
    radial = np.einsum("ni,ni->n", grad, z)[:, None, None] * np.eye(2)
    hess = np.einsum("nia,nij,njb->nab", basis, hess, basis) - radial
    return np.einsum("nia,ni->na", basis, grad), hess


def _float_rows(model):
    """``model``, written on arrays (z (k, 3) and bases (k, 3, 2) in; values,
    gradients (k, 2) and Hessians (k, 2, 2) out), under maximize_batch's
    contract of float rows in and out."""

    def rows_model(z, pairs, *rows):
        z = np.array(z)
        value, grad, hess = model(z, np.array(pairs).reshape(len(z), 3, 2), *rows)
        return value.tolist(), np.concatenate([grad, hess.reshape(-1, 4)], axis=1).tolist()

    return rows_model


def _quadratic_batch(n: int, seed: int):
    """n quadratic forms z.A z, as a batch objective that also takes a row
    subset, and their model on (z, basis), which takes the same subset: the
    values and the tangent forms of the gradients 2Az and Hessians 2A."""
    mats = np.random.default_rng(seed).normal(size=(n, 3, 3))
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))

    def f(z, rows=slice(None)):
        return np.einsum("nmi,nij,nmj->nm", z, mats[rows], z)

    def model(z, basis, rows=slice(None)):
        grad = 2.0 * np.einsum("nij,nj->ni", mats[rows], z)
        return (f(z[:, None, :], rows)[:, 0],) + _tangent(z, basis, grad, 2.0 * mats[rows])

    return mats, f, model


def _recording(model, n):
    """``model`` and the search indices of each of its calls, a list per
    call (all n searches when the call names none)."""
    calls = []

    def recording(z, pairs, *rows):
        calls.append(list(rows[0]) if rows else list(range(n)))
        return model(z, pairs, *rows)

    return recording, calls


def _scan_rule(values, grid, hemisphere):
    """The basin scan's rule by brute force: each lattice point's 8 nearest
    other points by a full sort of z . z' (|z . z'| on the hemisphere);
    per row, the points other than the first maximal one that lie within
    1e-3 of the row's best and above all 8 neighbours by more than 1e-12,
    the 4 highest (the lower index on a tie), as (rows, indices)."""
    near = grid @ grid.T
    if hemisphere:
        near = np.abs(near)
    np.fill_diagonal(near, -np.inf)
    table = np.argsort(-near, axis=1, kind="stable")[:, :8]
    owners, columns = [], []
    for i, row in enumerate(values):
        first = int(np.argmax(row))
        picks = [
            j for j in range(len(row))
            if j != first and row[j] >= row[first] - 1e-3 and row[j] > row[table[j]].max() + 1e-12
        ]
        picks = sorted(picks, key=lambda j: (-row[j], j))[:4]
        owners += [i] * len(picks)
        columns += picks
    return owners, columns


def _scan_reference(f, n, cfg):
    """:func:`_scan_rule` on the lattice values of the batch objective ``f``."""
    grid = fibonacci_grid(cfg.grid_points, full_sphere=not cfg.hemisphere)
    return _scan_rule(f(np.repeat(grid[None], n, axis=0)), grid, cfg.hemisphere)


def test_result_diagnostics_default_and_plain_rounds():
    bare = OptResult(np.zeros(3), 1.0, 10)
    assert (bare.refine_rounds, bare.newton_steps) == (0, 0)
    assert np.isnan(bare.gradient_norm) and np.isnan(bare.hessian_max_eig)
    cfg = SphereOptConfig(refine_rounds=7)
    res = maximize_on_sphere(lambda z: z[:, 2], cfg)
    assert (res.refine_rounds, res.newton_steps) == (7, 0)
    assert np.isnan(res.gradient_norm) and np.isnan(res.hessian_max_eig)


@pytest.mark.parametrize("hemisphere", [False, True])
def test_newton_polish_certifies_quadratic_maxima(hemisphere):
    mats, f, model = _quadratic_batch(6, 127)
    cfg = SphereOptConfig(hemisphere=hemisphere)
    recording, calls = _recording(_float_rows(model), 6)
    results = maximize_batch(f, 6, cfg, recording)
    # on the whole sphere the scan polishes a form's antipodal maximum too,
    # as an extra row wherever its lattice maximum lies within 1e-3
    assert calls[0] == list(range(6)) + _scan_reference(f, 6, cfg)[0]
    trials = np.bincount([i for rows in calls[1:] for i in rows], minlength=6)
    for m, res, tried in zip(mats, results, trials):
        lam, vec = np.linalg.eigh(m)
        # Newton starts from the lattice incumbent and finishes: no cap rounds
        assert res.refine_rounds == 0 and res.newton_steps >= 1
        assert res.evaluations == cfg.grid_points + tried
        if hemisphere:  # one basin: the trials are the row's own accepted steps
            assert tried == res.newton_steps
        assert res.gradient_norm <= 1e-10
        # at the top eigenvector the tangent Hessian is 2 (A - lam_max I) on the
        # tangent plane, whose largest eigenvalue is 2 (lam_mid - lam_max)
        assert res.hessian_max_eig == pytest.approx(2 * (lam[1] - lam[2]), rel=1e-9)
        assert abs(res.value - lam[2]) <= 4e-15
        # the reported axis is the highest-valued iterate, which need not be
        # the last: a final step may lower the value by an ulp.  A value
        # within 4e-15 of the maximum lies within sqrt(8e-15 / |lam_max|)
        # of its axis (one of these rows is 7.2e-10 off)
        reach = np.sqrt(8e-15 / -res.hessian_max_eig)
        assert min(np.abs(res.axis - vec[:, 2]).max(), np.abs(res.axis + vec[:, 2]).max()) <= reach
        if hemisphere:
            assert res.axis[2] >= 0.0


@pytest.mark.parametrize("grid_points, shrink_factor", [(200, 0.3), (2000, 0.9)])
def test_polish_starts_right_after_the_lattice_pass(grid_points, shrink_factor):
    # whatever the lattice and the shrink factor, the polish runs before any
    # cap round, with steps up to the first cap radius min(pi/2, 10/sqrt(grid_points));
    # on the hemisphere each form has one basin, so the polish has no extra rows
    mats, f, model = _quadratic_batch(6, 127)
    cfg = SphereOptConfig(grid_points=grid_points, shrink_factor=shrink_factor, hemisphere=True)
    objective_calls, model_calls = [], []

    def recording(z):
        objective_calls.append(z.shape)
        return f(z)

    def recording_model(z, pairs, *rows):
        model_calls.append((len(z), *rows))
        return _float_rows(model)(z, pairs, *rows)

    results = maximize_batch(recording, 6, cfg, recording_model)
    for m, res in zip(mats, results):
        assert res.refine_rounds == 0 and res.newton_steps >= 1
        assert res.evaluations == grid_points + res.newton_steps
        assert res.gradient_norm <= 1e-10
        assert abs(res.value - np.linalg.eigvalsh(m)[-1]) <= 4e-15
    # f serves the lattice pass alone (in chunks of 8192 // 6 = 1365
    # columns); the polish makes one model call at the incumbents and one
    # per trial, on the rows that step, which are named whenever they are
    # not all six; every trial is accepted, so the k-th trial call holds
    # the rows of at least k steps
    chunks = [200] if grid_points == 200 else [1365, 635]
    assert objective_calls == [(6, k, 3) for k in chunks]
    expected = [(6,)]
    for k in range(1, 1 + max(res.newton_steps for res in results)):
        rows = [i for i, res in enumerate(results) if res.newton_steps >= k]
        expected.append((len(rows),) + ((rows,) if len(rows) < 6 else ()))
    assert model_calls == expected


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("hemisphere", [False, True])
def test_reported_value_is_the_objective_at_the_axis(kind, hemisphere):
    cfg = SphereOptConfig(hemisphere=hemisphere)
    rows, batch = _row_objectives(kind, 4)
    for f, res in zip(rows, maximize_batch(batch, len(rows), cfg)):
        assert res.value == f(res.axis[None])[0]
        assert maximize_on_sphere(f, cfg).value == f(res.axis[None])[0]
    if kind == "quadratic":
        # the Newton route: the axis of the running maximum, not the last iterate
        _, f, model = _quadratic_batch(6, 127)
        for i, res in enumerate(maximize_batch(f, 6, cfg, _float_rows(model))):
            assert res.value == f(np.repeat(res.axis[None, None], 6, axis=0))[i, 0]


def _tangent_scaled(model, factor):
    """The model with its tangent gradient scaled by ``factor``."""

    def scaled(z, basis, *rows):
        value, grad, hess = model(z, basis, *rows)
        return value, factor * grad, hess

    return scaled


def _rotated(f, mats, angle):
    """The values of ``f`` with the derivatives of the quadratic forms turned
    by ``angle`` in the plane of their top two eigenvectors, so that their
    maxima lie ``angle`` away."""
    turned = []
    for m in mats:
        v, u = np.linalg.eigh(m)[1][:, [2, 1]].T
        rot = (
            np.eye(3)
            + np.sin(angle) * (np.outer(u, v) - np.outer(v, u))
            + (np.cos(angle) - 1.0) * (np.outer(v, v) + np.outer(u, u))
        )
        turned.append(rot @ m @ rot.T)
    turned = np.array(turned)
    return lambda z, basis, rows=slice(None): (f(z[:, None], rows)[:, 0],) + _tangent(
        z, basis, 2.0 * np.einsum("nij,nj->ni", turned[rows], z), 2.0 * turned[rows]
    )


@pytest.mark.parametrize(
    "kind, trials",
    [
        ("undefined", 0),
        ("downhill", 1),  # the first trial is evaluated, rejected, not counted
        ("overshooting", 0),  # steps past the first cap radius are never tried
        # a step of about 0.6, past the first cap radius 0.447, is not tried either
        ("misdirected", 0),
    ],
)
def test_unusable_derivatives_fall_back_to_plain_rounds(kind, trials):
    # ``trials`` are the first polish's; the polish from the cap rounds'
    # incumbent, whose steps may reach pi/2, certifies nothing higher either
    mats, f, model = _quadratic_batch(3, 131)
    cfg = SphereOptConfig(hemisphere=True)

    def undefined(z, basis, rows=None):
        return f(z[:, None])[:, 0], np.full((len(z), 2), np.nan), np.full((len(z), 2, 2), np.nan)

    bad = _float_rows({
        "undefined": undefined,
        "downhill": _tangent_scaled(model, -1.0),
        "overshooting": _tangent_scaled(model, 1e3),
        "misdirected": _rotated(f, mats, 0.6),
    }[kind])
    recording, calls = _recording(bad, 3)
    rounds = []  # the model calls made before each call of f

    def counting(z):
        rounds.append(len(calls))
        return f(z)

    results = maximize_batch(counting, 3, cfg, recording)
    # the first polish's trials, then those of the polish after the rounds
    first = np.bincount([i for rows in calls[1 : rounds[1]] for i in rows], minlength=3)
    again = np.bincount([i for rows in calls[rounds[-1] + 1 :] for i in rows], minlength=3)
    assert list(first) == [trials] * 3
    for polished, plain, tried in zip(results, maximize_batch(f, 3, cfg), again):
        assert polished.value == plain.value
        assert np.array_equal(polished.axis, plain.axis)
        assert polished.evaluations == plain.evaluations + trials + tried
        assert (polished.refine_rounds, polished.newton_steps) == (40, 0)
        assert np.isnan(polished.hessian_max_eig)


def test_cap_rounds_evaluate_the_uncertified_rows_only():
    mats, f, model = _quadratic_batch(6, 127)
    open_rows = [1, 4]

    def partly_undefined(z, basis, rows=range(6)):  # rows 1 and 4 cannot be certified
        value, grad, hess = model(z, basis, list(rows))
        open_here = np.isin(rows, open_rows)
        grad[open_here] = np.nan
        hess[open_here] = np.nan
        return value, grad, hess

    calls = []

    def recording(z, rows=None):
        calls.append((z.shape, None if rows is None else rows.tolist()))
        return f(z) if rows is None else f(z, rows)

    cfg = SphereOptConfig()
    results = maximize_batch(recording, 6, cfg, _float_rows(partly_undefined))
    # the lattice pass takes every row (in one chunk: 6 x 500 axes are
    # within the 8192-axis budget), each cap round the open rows alone
    assert calls == [((6, 500, 3), None)] + [((2, 64, 3), open_rows)] * 40
    polished, plain = maximize_batch(f, 6, cfg, _float_rows(model)), maximize_batch(f, 6, cfg)
    for i, res in enumerate(results):
        expected = plain[i] if i in open_rows else polished[i]
        assert res.value == expected.value and np.array_equal(res.axis, expected.axis)
        assert res.evaluations == expected.evaluations
        assert res.refine_rounds == expected.refine_rounds
        assert res.newton_steps == expected.newton_steps


@pytest.mark.parametrize("hemisphere", [False, True])
def test_polish_hands_the_model_float_rows(hemisphere):
    # the model contract is Python floats end to end: plain lists of axes,
    # each a list of 3 floats, and at each the tangent pair of _tangent_pair
    _, f, model = _quadratic_batch(6, 127)
    seen = []

    def checking(z, pairs, *rows):
        assert type(z) is list and type(pairs) is list and len(pairs) == len(z)
        for u, pair in zip(z, pairs):
            assert type(u) is list and [type(x) for x in u] == [float] * 3
            assert type(pair) is tuple and pair == _tangent_pair(u)
        seen.append(len(z))
        return _float_rows(model)(z, pairs, *rows)

    cfg = SphereOptConfig(hemisphere=hemisphere)
    results = maximize_batch(f, 6, cfg, checking)
    assert all(res.newton_steps >= 1 for res in results)
    # the six incumbents and the scan's extra rows, then one call per trial
    # round, each on the rows still stepping
    assert seen[0] == 6 + len(_scan_reference(f, 6, cfg)[0])
    assert seen[1:] == sorted(seen[1:], reverse=True) and len(seen) <= 5
    if hemisphere:
        assert len(seen) == 1 + max(res.newton_steps for res in results)


@pytest.mark.parametrize("hemisphere", [False, True])
def test_neighbour_table_holds_the_eight_nearest_points(hemisphere):
    table = _neighbours(500, hemisphere)
    assert table.shape == (500, 8) and not table.flags.writeable
    assert _neighbours(500, hemisphere) is table  # built once
    grid = fibonacci_grid(500, full_sphere=not hemisphere)
    near = grid @ grid.T
    if hemisphere:
        near = np.abs(near)
    np.fill_diagonal(near, -np.inf)
    expected = np.argsort(-near, axis=1, kind="stable")[:, :8]
    assert np.array_equal(np.sort(table, axis=1), np.sort(expected, axis=1))
    # a lattice of at most 9 points: every other point is a neighbour
    assert np.array_equal(np.sort(_neighbours(3, hemisphere), axis=1), [[1, 2], [0, 2], [0, 1]])
    assert _neighbours(1, hemisphere).shape == (1, 0)


def test_basin_scan_keeps_strict_maxima_in_the_window_four_per_row():
    grid = fibonacci_grid(500)
    table = _neighbours(500, True)
    # isolated lattice points, each far from the others, over a floor of 0
    spots = [0]
    for j in range(500):
        if len(spots) < 9 and np.abs(grid[spots] @ grid[j]).max() < 0.9:
            spots.append(j)
    best, inside, low, outside, flat = spots[0], spots[1:6], spots[6], spots[7], spots[8]
    values = np.zeros((3, 500))
    values[0, best] = 1.0
    # five strict maxima in the window, the two lowest tied: the four highest
    # are kept, the lower index of the tie
    for j, v in zip(inside, [1.0 - 1e-4, 1.0 - 2e-4, 1.0 - 3e-4, 1.0 - 4e-4, 1.0 - 4e-4]):
        values[0, j] = v
    values[0, outside] = 1.0 - 2e-3  # outside the 1e-3 window
    # a plateau of two points, each a neighbour of the other, is no strict
    # maximum, nor is a point above its neighbours by rounding alone
    mate = next(j for j in table[flat] if flat in table[j])
    values[0, [flat, mate]] = 1.0 - 1e-4
    values[1] = 0.5
    values[1, low] = 0.5 + 1e-13
    values[1, best] = 1.0
    # an incumbent's tie elsewhere is a candidate of its own; NaN never is
    values[2, [best, low]] = 1.0
    values[2, outside] = np.nan
    first = np.nanargmax(values, axis=1)
    owners, columns = _basin_scan(values, values[[0, 1, 2], first], first, table)
    kept = sorted(inside[:4], key=lambda j: (-values[0, j], j))
    assert (owners, columns) == ([0] * 4 + [2], kept + [low])
    assert (owners, columns) == _scan_rule(np.nan_to_num(values, nan=-1.0), grid, True)


@pytest.mark.parametrize("hemisphere", [False, True])
def test_basin_scan_matches_the_brute_force_rule(hemisphere):
    # the highest of 16 random bumps of nearly equal heights: several
    # competitive maxima per row
    rng = np.random.default_rng(5)
    grid = fibonacci_grid(500, full_sphere=not hemisphere)
    centres = rng.normal(size=(40, 16, 3))
    centres /= np.linalg.norm(centres, axis=2)[:, :, None]
    cos = np.einsum("rki,gi->rkg", centres, grid)
    if hemisphere:
        cos = np.abs(cos)
    heights = 1.0 + 1e-4 * rng.uniform(size=(40, 16, 1))
    values = (heights * np.exp(2.0 * (cos - 1.0))).max(axis=1)
    first = values.argmax(axis=1)
    owners, columns = _basin_scan(
        values, values[np.arange(40), first], first, _neighbours(500, hemisphere)
    )
    assert (owners, columns) == _scan_rule(values, grid, hemisphere)
    assert len(owners) > 40 and max(np.bincount(owners)) == 4


def test_extra_rows_repeat_their_search_index_and_count_their_trials():
    # whole-sphere quadratic forms: a form's antipodal maximum is an extra
    # polish row of its search, passed to the model under that search's index
    mats, f, model = _quadratic_batch(6, 127)
    cfg = SphereOptConfig(grid_points=2000)
    recording, calls = _recording(_float_rows(model), 6)
    results = maximize_batch(f, 6, cfg, recording)
    owners = _scan_reference(f, 6, cfg)[0]
    assert owners == [2, 5]
    assert calls[0] == [0, 1, 2, 3, 4, 5, 2, 5]
    assert any(rows.count(2) == 2 for rows in calls[1:])  # an index twice in one call
    trials = np.bincount([i for rows in calls[1:] for i in rows], minlength=6)
    for m, res, tried in zip(mats, results, trials):
        assert res.evaluations == cfg.grid_points + tried
        assert res.refine_rounds == 0 and res.hessian_max_eig < 0.0
        assert abs(res.value - np.linalg.eigvalsh(m)[-1]) <= 4e-15
    assert trials[2] > results[2].newton_steps and trials[5] > results[5].newton_steps


def test_polish_runs_again_after_the_cap_rounds():
    # derivatives undefined until a cap round has run: the first polish
    # cannot certify, the rounds run, and a polish from their incumbent
    # (three rounds leave it about 0.06 rad from the maximum) certifies
    mats, f, model = _quadratic_batch(3, 131)
    cfg = SphereOptConfig(hemisphere=True, refine_rounds=3)
    events = []

    def recording_f(z, rows=None):
        events.append("f")
        return f(z) if rows is None else f(z, rows)

    def late(z, basis, rows=slice(None)):
        value, grad, hess = model(z, basis, rows)
        events.append("model")
        if events.count("f") == 1:  # the lattice pass alone
            grad[:], hess[:] = np.nan, np.nan
        return value, grad, hess

    results = maximize_batch(recording_f, 3, cfg, _float_rows(late))
    polish_calls = len(events) - 1 - 1 - 3
    assert events == ["f", "model"] + ["f"] * 3 + ["model"] * polish_calls
    plain = maximize_batch(f, 3, cfg)
    for m, res, before in zip(mats, results, plain):
        assert res.refine_rounds == 3 and res.newton_steps >= 1
        assert res.hessian_max_eig < 0.0 and res.gradient_norm <= 1e-10
        assert res.value > before.value
        assert abs(res.value - np.linalg.eigvalsh(m)[-1]) <= 4e-15
        assert res.evaluations == before.evaluations + res.newton_steps
