"""Tests for the Fibonacci lattice and the deterministic sphere maximizer."""

import numpy as np
import pytest

from discordkit import (
    OptResult,
    SphereOptConfig,
    fibonacci_grid,
    maximize_batch,
    maximize_on_sphere,
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
    # arithmetic or round the lattice up
    for name in ("grid_points", "refine_rounds", "local_points"):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer, got 2.5"):
            SphereOptConfig(**{name: 2.5})
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
    # and third of the three 744-column chunks of an 11-row pass
    cfg = SphereOptConfig(refine_rounds=2)
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


def _quadratic_batch(n: int, seed: int):
    """n quadratic forms z.A z, as a batch objective that also takes a row
    subset, and their model on (z, basis): the values and the tangent forms
    of the gradients 2Az and Hessians 2A."""
    mats = np.random.default_rng(seed).normal(size=(n, 3, 3))
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))

    def f(z, rows=slice(None)):
        return np.einsum("nmi,nij,nmj->nm", z, mats[rows], z)

    def model(z, basis):
        grad = 2.0 * np.einsum("nij,nj->ni", mats, z)
        return (f(z[:, None, :])[:, 0],) + _tangent(z, basis, grad, 2.0 * mats)

    return mats, f, model


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
    for m, res in zip(mats, maximize_batch(f, 6, cfg, model)):
        lam, vec = np.linalg.eigh(m)
        # Newton starts from the lattice incumbent and finishes: no cap rounds
        assert res.refine_rounds == 0 and res.newton_steps >= 1
        assert res.evaluations == 2000 + res.newton_steps
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
    # cap round, with steps up to the first cap radius min(pi/2, 10/sqrt(grid_points))
    mats, f, model = _quadratic_batch(6, 127)
    cfg = SphereOptConfig(grid_points=grid_points, shrink_factor=shrink_factor)
    objective_calls, model_calls = [], []

    def recording(z):
        objective_calls.append(z.shape)
        return f(z)

    def recording_model(z, basis):
        model_calls.append((z.shape, basis.shape))
        return model(z, basis)

    results = maximize_batch(recording, 6, cfg, recording_model)
    for m, res in zip(mats, results):
        assert res.refine_rounds == 0 and res.newton_steps >= 1
        assert res.evaluations == grid_points + res.newton_steps
        assert res.gradient_norm <= 1e-10
        assert abs(res.value - np.linalg.eigvalsh(m)[-1]) <= 4e-15
    # f serves the lattice pass alone (in chunks of 8192 // 6 = 1365
    # columns); the polish makes one model call at the incumbents and one
    # per trial, the last row to finish setting the count
    chunks = [200] if grid_points == 200 else [1365, 635]
    assert objective_calls == [(6, k, 3) for k in chunks]
    assert model_calls == [((6, 3), (6, 3, 2))] * (1 + max(res.newton_steps for res in results))


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
        for i, res in enumerate(maximize_batch(f, 6, cfg, model)):
            assert res.value == f(np.repeat(res.axis[None, None], 6, axis=0))[i, 0]


def _tangent_scaled(model, factor):
    """The model with its tangent gradient scaled by ``factor``."""

    def scaled(z, basis):
        value, grad, hess = model(z, basis)
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
    return lambda z, basis: (f(z[:, None])[:, 0],) + _tangent(
        z, basis, 2.0 * np.einsum("nij,nj->ni", turned, z), 2.0 * turned
    )


@pytest.mark.parametrize(
    "kind, trials",
    [
        ("undefined", 0),
        ("downhill", 1),  # the first trial is evaluated, rejected, not counted
        ("overshooting", 0),  # steps past the first cap radius are never tried
        # a step of about 0.3, past the first cap radius 0.22, is not tried either
        ("misdirected", 0),
    ],
)
def test_unusable_derivatives_fall_back_to_plain_rounds(kind, trials):
    mats, f, model = _quadratic_batch(3, 131)
    cfg = SphereOptConfig(hemisphere=True)

    def undefined(z, basis):
        return f(z[:, None])[:, 0], np.full((len(z), 2), np.nan), np.full((len(z), 2, 2), np.nan)

    bad = {
        "undefined": undefined,
        "downhill": _tangent_scaled(model, -1.0),
        "overshooting": _tangent_scaled(model, 1e3),
        "misdirected": _rotated(f, mats, 0.3),
    }[kind]
    for polished, plain in zip(maximize_batch(f, 3, cfg, bad), maximize_batch(f, 3, cfg)):
        assert polished.value == plain.value
        assert np.array_equal(polished.axis, plain.axis)
        assert polished.evaluations == plain.evaluations + trials
        assert (polished.refine_rounds, polished.newton_steps) == (40, 0)
        assert np.isnan(polished.hessian_max_eig)


def test_cap_rounds_evaluate_the_uncertified_rows_only():
    mats, f, model = _quadratic_batch(6, 127)
    open_rows = [1, 4]

    def partly_undefined(z, basis):  # rows 1 and 4 cannot be certified
        value, grad, hess = model(z, basis)
        grad[open_rows] = np.nan
        hess[open_rows] = np.nan
        return value, grad, hess

    calls = []

    def recording(z, rows=None):
        calls.append((z.shape, None if rows is None else rows.tolist()))
        return f(z) if rows is None else f(z, rows)

    cfg = SphereOptConfig()
    results = maximize_batch(recording, 6, cfg, partly_undefined)
    # the lattice pass takes every row (in chunks of 8192 // 6 = 1365
    # columns), each cap round the open rows alone
    assert calls == [((6, 1365, 3), None), ((6, 635, 3), None)] + [((2, 64, 3), open_rows)] * 40
    polished, plain = maximize_batch(f, 6, cfg, model), maximize_batch(f, 6, cfg)
    for i, res in enumerate(results):
        expected = plain[i] if i in open_rows else polished[i]
        assert res.value == expected.value and np.array_equal(res.axis, expected.axis)
        assert res.evaluations == expected.evaluations
        assert res.refine_rounds == expected.refine_rounds
        assert res.newton_steps == expected.newton_steps
