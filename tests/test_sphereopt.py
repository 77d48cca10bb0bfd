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


def test_config_validation():
    with pytest.raises(ValueError):
        SphereOptConfig(grid_points=0)
    with pytest.raises(ValueError):
        SphereOptConfig(shrink_factor=1.0)
    with pytest.raises(ValueError):
        SphereOptConfig(local_points=0)
    with pytest.raises(ValueError):
        SphereOptConfig(refine_rounds=0)


def test_linear_objective_finds_pole():
    res = maximize_on_sphere(lambda z: z @ np.array([0.0, 0.0, 1.0]))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    # the 1e-14 value-tie window makes axes within ~1e-7 of the pole
    # interchangeable, so only that much angular precision is guaranteed
    np.testing.assert_allclose(res.axis, [0, 0, 1], atol=1e-6)


def test_linear_objective_negative_pole_needs_full_sphere():
    a = np.array([0.0, 0.0, -1.0])
    full = maximize_on_sphere(lambda z: z @ a, SphereOptConfig(hemisphere=False))
    assert full.value == pytest.approx(1.0, abs=1e-9)
    hemi = maximize_on_sphere(lambda z: z @ a, SphereOptConfig(hemisphere=True))
    # restricted to z3 >= 0 the supremum of -z3 is 0
    assert hemi.value == pytest.approx(0.0, abs=1e-6)


def test_constant_objective_reports_tie_break_winner():
    cfg = SphereOptConfig(grid_points=500, refine_rounds=5)
    res = maximize_on_sphere(lambda z: np.full(len(z), 3.0), cfg)
    assert res.value == 3.0
    grid = fibonacci_grid(500, full_sphere=True)
    lex_min = min(map(tuple, grid))
    assert tuple(res.axis) <= lex_min


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
        rows = [lambda z, a=a: z @ a for a in coef]
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


@pytest.mark.parametrize("kind", ["linear", "quadratic", "constant"])
@pytest.mark.parametrize("hemisphere", [False, True])
def test_lockstep_rows_equal_single_and_serial_searches(kind, hemisphere):
    cfg = SphereOptConfig(hemisphere=hemisphere)
    rows, batch = _row_objectives(kind, 4)
    results = maximize_batch(batch, len(rows), cfg)
    assert len(results) == len(rows)
    for f, res in zip(rows, results):
        single = maximize_on_sphere(f, cfg)
        value, axis, evaluations = serial_sphere_search(f, cfg)
        for other in (single, OptResult(axis, value, evaluations)):
            assert res.value == other.value
            assert np.array_equal(res.axis, other.axis)
            assert res.evaluations == other.evaluations


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


def _quadratic_batch(n: int, seed: int):
    """n quadratic forms z.A z with their gradients 2Az and Hessians 2A."""
    mats = np.random.default_rng(seed).normal(size=(n, 3, 3))
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))

    def f(z):
        return np.einsum("nmi,nij,nmj->nm", z, mats, z)

    def derivatives(z):
        return 2.0 * np.einsum("nij,nj->ni", mats, z), 2.0 * mats

    return mats, f, derivatives


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
    mats, f, derivatives = _quadratic_batch(6, 127)
    cfg = SphereOptConfig(hemisphere=hemisphere)
    for m, res in zip(mats, maximize_batch(f, 6, cfg, derivatives)):
        lam, vec = np.linalg.eigh(m)
        # 12 cap rounds bring the radius to 1e-4; Newton finishes
        assert res.refine_rounds == 12 and res.newton_steps >= 1
        assert res.evaluations == 2000 + 12 * 64 + res.newton_steps
        assert res.gradient_norm <= 1e-10
        # at the top eigenvector the tangent Hessian is 2 (A - lam_max I) on the
        # tangent plane, whose largest eigenvalue is 2 (lam_mid - lam_max)
        assert res.hessian_max_eig == pytest.approx(2 * (lam[1] - lam[2]), rel=1e-9)
        assert abs(res.value - lam[2]) <= 4e-15
        assert min(np.abs(res.axis - vec[:, 2]).max(), np.abs(res.axis + vec[:, 2]).max()) <= 1e-12
        if hemisphere:
            assert res.axis[2] >= 0.0


def _tangent_scaled(derivatives, factor):
    """Derivatives whose tangent gradient is scaled by ``factor``."""

    def scaled(z):
        grad, hess = derivatives(z)
        radial = np.einsum("ni,ni->n", grad, z)[:, None] * z
        return radial + factor * (grad - radial), hess

    return scaled


@pytest.mark.parametrize(
    "kind, trials",
    [
        ("undefined", 0),
        ("downhill", 1),  # the first trial is evaluated, rejected, not counted
        ("overshooting", 0),  # steps past the polish radius are never tried
    ],
)
def test_unusable_derivatives_fall_back_to_plain_rounds(kind, trials):
    _, f, derivatives = _quadratic_batch(3, 131)
    cfg = SphereOptConfig(hemisphere=True)

    def undefined(z):
        return np.full(z.shape, np.nan), np.full(z.shape + (3,), np.nan)

    bad = {
        "undefined": undefined,
        "downhill": _tangent_scaled(derivatives, -1.0),
        "overshooting": _tangent_scaled(derivatives, 1e3),
    }[kind]
    for polished, plain in zip(maximize_batch(f, 3, cfg, bad), maximize_batch(f, 3, cfg)):
        assert polished.value == plain.value
        assert np.array_equal(polished.axis, plain.axis)
        assert polished.evaluations == plain.evaluations + trials
        assert (polished.refine_rounds, polished.newton_steps) == (40, 0)
        assert np.isnan(polished.hessian_max_eig)
