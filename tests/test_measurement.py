"""Tests for the measurement parametrization, post-measurement ensembles,
conditional entropy and the correlation objectives."""

import numpy as np
import pytest

from discordkit import (
    BlochParams,
    DegenerateBranchError,
    DomainError,
    NormError,
    UnitQuaternion,
    axis_from_su2,
    conditional_entropy,
    correlation_objective,
    damped_correlation_objective,
    fibonacci_grid,
    hermitian_eigen,
    maximize_correlation_objective,
    partial_trace,
    build_state,
    post_measurement_ensemble,
)
from discordkit import discord as discord_module
from discordkit.density import LOG_CLAMP, _xlog2
from discordkit.measurement import (
    _combine,
    _correlation_kernel,
    _correlation_model,
    _log_arguments,
)
from discordkit.sampling import draw_general_batch

from _oracles import conditional_entropy_reference, damped_objective_reference

SINGLET = BlochParams([0, 0, 0], [0, 0, 0], [-1, -1, -1])

# frozen by the dense-grid reference maximizer in _oracles.py
REF_A_MAX_OBJECTIVE = 0.07310400793180993
REF_B_DAMPED_MAX_OBJECTIVE_G02 = 0.0728518267223339


def _random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_axis_identity_quaternion():
    np.testing.assert_allclose(
        axis_from_su2(UnitQuaternion(1.0, 0.0, 0.0, 0.0)), [0, 0, 1], atol=0
    )


def test_axis_pure_y1_quaternion():
    np.testing.assert_allclose(
        axis_from_su2(UnitQuaternion(0.0, 1.0, 0.0, 0.0)), [0, 0, -1], atol=0
    )


def test_axis_unit_norm_on_random_quaternions():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        z = axis_from_su2(UnitQuaternion(*q))
        assert abs(np.linalg.norm(z) - 1.0) <= 1e-12


def test_axis_rejects_bad_norm():
    with pytest.raises(NormError):
        axis_from_su2(UnitQuaternion(1.0, 0.1, 0.0, 0.0))
    # NaN norms fail every norm check as well
    nan = float("nan")
    params = BlochParams([0.1, 0.0, 0.2], [0.0, 0.3, 0.1], [0.2, -0.1, 0.3])
    axis = [nan, 0.0, 1.0]
    for call in (
        lambda: axis_from_su2(UnitQuaternion(nan, 0.0, 0.0, 0.0)),
        lambda: correlation_objective(params, axis),
        lambda: correlation_objective(params, [[0.0, 0.0, 1.0], axis]),
        lambda: damped_correlation_objective(params, 0.3, axis),
        lambda: post_measurement_ensemble(params, axis),
        lambda: conditional_entropy(params, axis),
    ):
        with pytest.raises(NormError):
            call()


def test_ensemble_equal_probabilities_for_zero_s():
    rng = np.random.default_rng(43)
    params = BlochParams([0.1, 0.0, 0.2], [0, 0, 0], [0.2, 0.2, 0.2])
    for _ in range(20):
        ens = post_measurement_ensemble(params, _random_axis(rng))
        np.testing.assert_allclose(ens.probabilities, [0.5, 0.5], atol=0)


def test_ensemble_branch_states_uniform_c():
    c = 0.3
    params = BlochParams([0, 0, 0], [0, 0, 0], [c, c, c])
    ens = post_measurement_ensemble(params, [0.0, 0.0, 1.0])
    for k, sign in enumerate((1, -1)):
        lam = hermitian_eigen(ens.states[k]).eigenvalues
        np.testing.assert_allclose(lam, [(1 + c) / 2, (1 - c) / 2], atol=1e-14)
        expected = 0.5 * (np.eye(2) + sign * c * np.diag([1, -1]))
        np.testing.assert_allclose(ens.states[k], expected, atol=1e-14)


def test_ensemble_branch_eigenvalues_closed_form(ref_state_a):
    """Direct 2x2 diagonalization against the branch closed forms
    lambda_k^+- = (1 + (-1)^k s.z +- |r + (-1)^k c*z|) / (2 (1 + (-1)^k s.z))."""
    rng = np.random.default_rng(47)
    axes = [np.array([0.0, 0.0, 1.0])] + [_random_axis(rng) for _ in range(20)]
    for z in axes:
        ens = post_measurement_ensemble(ref_state_a, z)
        w = float(ref_state_a.s @ z)
        for k, sign in enumerate((1, -1)):
            x = np.linalg.norm(ref_state_a.r + sign * ref_state_a.c * z)
            denom = 2 * (1 + sign * w)
            expected = np.array([(1 + sign * w + x) / denom, (1 + sign * w - x) / denom])
            lam = hermitian_eigen(ens.states[k]).eigenvalues
            np.testing.assert_allclose(lam, expected, atol=1e-12)


def test_ensemble_mixing_reproduces_marginal():
    rng = np.random.default_rng(53)
    for params in draw_general_batch(rng, 100):
        z = _random_axis(rng)
        ens = post_measurement_ensemble(params, z)
        mix = ens.probabilities[0] * ens.states[0] + ens.probabilities[1] * ens.states[1]
        np.testing.assert_allclose(
            mix, partial_trace(build_state(params), "a"), atol=1e-10
        )


def test_ensemble_degenerate_branch_raises():
    params = BlochParams([0, 0, 0], [0, 0, 1.0], [0, 0, 0])
    with pytest.raises(DegenerateBranchError):
        post_measurement_ensemble(params, [0.0, 0.0, 1.0])


def test_conditional_entropy_product_state():
    params = BlochParams([0, 0, 0], [0, 0, 0], [0, 0, 0])
    rng = np.random.default_rng(59)
    for _ in range(10):
        assert conditional_entropy(params, _random_axis(rng)) == pytest.approx(1.0)


def test_conditional_entropy_singlet_is_zero():
    rng = np.random.default_rng(61)
    for _ in range(10):
        assert conditional_entropy(SINGLET, _random_axis(rng)) == pytest.approx(
            0.0, abs=1e-12
        )


def test_conditional_entropy_handles_degenerate_branch():
    # pure second marginal: branch 1 has zero probability and is dropped;
    # the surviving branch leaves party a maximally mixed
    params = BlochParams([0, 0, 0], [0, 0, 1.0], [0, 0, 0])
    assert conditional_entropy(params, [0.0, 0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_matches_reference():
    rng = np.random.default_rng(67)
    for params in draw_general_batch(rng, 25):
        z = _random_axis(rng)
        assert conditional_entropy(params, z) == pytest.approx(
            conditional_entropy_reference(params, z), abs=1e-12
        )


def test_objective_zero_for_trivial_state():
    params = BlochParams([0, 0, 0], [0, 0, 0], [0, 0, 0])
    rng = np.random.default_rng(71)
    for _ in range(10):
        assert correlation_objective(params, _random_axis(rng)) == pytest.approx(
            0.0, abs=1e-14
        )


def test_objective_is_one_minus_conditional_entropy():
    rng = np.random.default_rng(73)
    for params in draw_general_batch(rng, 100):
        z = _random_axis(rng)
        g = correlation_objective(params, z)
        assert g == pytest.approx(1.0 - conditional_entropy(params, z), abs=1e-10)


def test_objective_antipodal_symmetry():
    rng = np.random.default_rng(79)
    for params in draw_general_batch(rng, 100):
        z = _random_axis(rng)
        assert abs(
            correlation_objective(params, z) - correlation_objective(params, -z)
        ) <= 1e-13


def test_objective_uniform_c_value_along_r():
    """With s = 0 and a uniform diagonal, the objective at z parallel to r
    equals H_0(|r|+|c|)/2 + H_0(||r|-|c||)/2."""
    from discordkit import entropic_h

    rng = np.random.default_rng(83)
    for _ in range(25):
        c = rng.uniform(-0.3, 0.3)
        r_norm = rng.uniform(0.05, 0.45)
        direction = _random_axis(rng)
        params = BlochParams(r_norm * direction, [0, 0, 0], [c, c, c])
        expected = 0.5 * entropic_h(0.0, r_norm + abs(c)) + 0.5 * entropic_h(
            0.0, abs(r_norm - abs(c))
        )
        assert correlation_objective(params, direction) == pytest.approx(
            expected, abs=1e-12
        )


def test_objective_batch_matches_scalar(ref_state_a):
    rng = np.random.default_rng(89)
    axes = np.stack([_random_axis(rng) for _ in range(32)])
    batch = correlation_objective(ref_state_a, axes)
    for z, value in zip(axes, batch):
        assert value == correlation_objective(ref_state_a, z)


def test_objectives_of_an_empty_axis_batch_are_empty(ref_state_a):
    axes = np.empty((0, 3))
    for values in (correlation_objective(ref_state_a, axes),
                   damped_correlation_objective(ref_state_a, 0.3, axes)):
        assert values.shape == (0,)


def test_objective_reference_maximum(ref_state_a):
    from discordkit import maximize_correlation_objective

    res = maximize_correlation_objective(ref_state_a)
    assert res.value == pytest.approx(REF_A_MAX_OBJECTIVE, abs=1e-9)


def test_damped_objective_gamma_zero_reduces(ref_state_a, ref_state_b):
    rng = np.random.default_rng(97)
    for params in (ref_state_a, ref_state_b):
        for _ in range(25):
            z = _random_axis(rng)
            assert damped_correlation_objective(params, 0.0, z) == pytest.approx(
                correlation_objective(params, z), abs=1e-14
            )


def test_damped_objective_gamma_one_depends_only_on_z3(ref_state_a):
    rng = np.random.default_rng(101)
    z3 = 0.4
    base = None
    for _ in range(10):
        phi = rng.uniform(0, 2 * np.pi)
        rho = np.sqrt(1 - z3**2)
        z = np.array([rho * np.cos(phi), rho * np.sin(phi), z3])
        value = damped_correlation_objective(ref_state_a, 1.0, z)
        if base is None:
            base = value
        assert value == pytest.approx(base, abs=1e-14)


def test_damped_objective_matches_damped_parameters(ref_state_b):
    """The damped objective equals the oracle's objective expanded by hand
    from the undamped parameters (independent damping code)."""
    rng = np.random.default_rng(103)
    for gamma in (0.15, 0.5, 0.85):
        for _ in range(20):
            z = _random_axis(rng)
            assert damped_correlation_objective(ref_state_b, gamma, z) == pytest.approx(
                damped_objective_reference(ref_state_b, gamma, z), abs=1e-13
            )


def test_damped_objective_reference_maximum(ref_state_b):
    from discordkit import SphereOptConfig, maximize_on_sphere
    from dataclasses import replace

    cfg = replace(SphereOptConfig(), hemisphere=True)
    res = maximize_on_sphere(
        lambda z: damped_correlation_objective(ref_state_b, 0.2, z), cfg
    )
    assert res.value == pytest.approx(REF_B_DAMPED_MAX_OBJECTIVE_G02, abs=1e-9)


def test_damped_objective_rejects_bad_gamma(ref_state_b):
    from discordkit import RangeError

    with pytest.raises(RangeError):
        damped_correlation_objective(ref_state_b, 1.2, [0, 0, 1.0])


def _stacked(states):
    return tuple(np.stack([getattr(p, k) for p in states]) for k in "rsc")


def _bases(z):
    """An orthonormal tangent pair at each unit row of z, as (n, 3, 2)
    columns: z x e_k for the e_k least aligned with z, then z x e1."""
    e1 = np.cross(z, np.eye(3)[np.argmin(np.abs(z), axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return np.stack([e1, np.cross(z, e1)], axis=2)


def test_correlation_derivatives_match_central_differences():
    rng = np.random.default_rng(269)
    r, s, c = _stacked(draw_general_batch(rng, 40))
    z = rng.normal(size=(40, 3))
    z /= np.linalg.norm(z, axis=1)[:, None]
    basis = _bases(z)
    _, grad, hess = _correlation_model(r, s, c, z, basis)

    def g(shift):  # the kernel at the retraction normalize(z + B shift), one axis per state
        moved = z + basis @ shift
        moved /= np.linalg.norm(moved, axis=1)[:, None]
        return _correlation_kernel(r, s, c, moved[:, None])[:, 0]

    unit = np.eye(2)
    h = 1e-5
    fd_grad = np.stack([(g(h * e) - g(-h * e)) / (2 * h) for e in unit], axis=1)
    # measured worst deviation 4.4e-11 (truncation and rounding of the quotient)
    np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-8)
    # the retraction is second order, so its second differences give the
    # Riemannian Hessian B^T H B - (z . grad) I, radial term included
    h = 1e-4
    fd_hess = np.empty_like(hess)
    for i, ei in enumerate(unit):
        for j, ej in enumerate(unit):
            fd_hess[:, i, j] = (
                g(h * (ei + ej)) - g(h * (ei - ej)) - g(h * (ej - ei)) + g(-h * (ei + ej))
            ) / (4 * h * h)
    # the second difference is good to about 1e-6 of the entry
    np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-6)
    np.testing.assert_array_equal(hess, hess.transpose(0, 2, 1))


def test_correlation_derivatives_are_nan_where_undefined():
    # x+ = |r + c*z| vanishes at z = e3; the singlet's log argument 1 + w - x+
    # is 0 on every axis; the third state is smooth there
    states = [
        BlochParams([0, 0, 0.3], [0, 0, 0], [0, 0, -0.3]),
        SINGLET,
        BlochParams([0.1, 0, 0.2], [0, 0.1, 0], [0.3, 0.2, 0.1]),
    ]
    z = np.tile([0.0, 0.0, 1.0], (3, 1))
    value, grad, hess = _correlation_model(*_stacked(states), z, _bases(z))
    assert grad.shape == (3, 2) and hess.shape == (3, 2, 2)
    assert np.isnan(grad[:2]).all() and np.isnan(hess[:2]).all()
    assert np.isfinite(grad[2]).all() and np.isfinite(hess[2]).all()
    # the value is defined on every row, rough or not
    assert np.isfinite(value).all()


def _near_floor_states():
    """States with log arguments at and near the domain edge on some axes:
    x+ = 0 at e3, and 1 - x = eps on every axis for the singlet scaled to
    c = -(1 - eps): clamped to zero (eps = 0, 1e-13), rough (1e-6) and
    smooth (1e-2)."""
    scaled = [BlochParams([0, 0, 0], [0, 0, 0], [eps - 1.0] * 3) for eps in (1e-13, 1e-6, 1e-2)]
    boundary = BlochParams([0, 0, 0.3], [0, 0, 0], [0, 0, -0.3])
    return [boundary, SINGLET] + scaled


def test_correlation_model_value_is_the_kernels_bit_for_bit():
    rng = np.random.default_rng(31)
    states = draw_general_batch(rng, 12) + _near_floor_states()
    n = len(states)
    r, s, c = _stacked(states)

    def check(axes):  # (n, m, 3): the model column by column against the kernel
        values = _correlation_kernel(r, s, c, axes)
        for j in range(axes.shape[1]):
            z = axes[:, j]
            value = _correlation_model(r, s, c, z, _bases(z))[0]
            np.testing.assert_array_equal(value, values[:, j])

    check(np.repeat(fibonacci_grid(2000)[None, ::9], n, axis=0))  # the lattice pass
    centers = np.stack([_random_axis(rng) for _ in range(n)])
    cap = centers[:, None, :] + 0.05 * rng.normal(size=(n, 64, 3))
    check(cap / np.linalg.norm(cap, axis=2)[:, :, None])
    # axes up to 1e-3 off e3, where x+ of the boundary state is that small
    near = np.array([[0.0, 0.0, 1.0]] * 8) + np.logspace(-12, -3, 8)[:, None] * [1.0, 0.5, 0.0]
    check(np.repeat((near / np.linalg.norm(near, axis=1)[:, None])[None], n, axis=0))


@pytest.mark.parametrize("eps, raises", [(5e-9, True), (3e-9, False)])
def test_correlation_model_keeps_the_kernels_floor(eps, raises):
    # 1 - x = -eps on every axis for the singlet scaled to c = -(1 + eps);
    # the floor is -4e-9
    r, s, c = _stacked([BlochParams([0, 0, 0], [0, 0, 0], [-1.0 - eps] * 3)])
    z = np.array([[0.6, 0.0, 0.8]])
    if raises:
        for call in (lambda: _correlation_kernel(r, s, c, z[:, None]),
                     lambda: _correlation_model(r, s, c, z, _bases(z))):
            with pytest.raises(DomainError, match="log argument"):
                call()
    else:
        value = _correlation_model(r, s, c, z, _bases(z))[0]
        assert value == _correlation_kernel(r, s, c, z[:, None])[:, 0]


def test_kernel_skips_the_clamp_only_where_nothing_is_clamped():
    # r = s = (0, 0, 1/3), c = (0, 0, -1/3) has rank 3 (|11> spans its
    # kernel): at e3 its log argument 1 - w - x- is 0 up to rounding
    # (1.1e-16, below the clamp, so it counts as 0), while at (0.6, 0, 0.8)
    # the smallest is 0.133 and nothing is clamped
    third = 1.0 / 3.0
    r, s, c = _stacked([BlochParams([0, 0, third], [0, 0, third], [0, 0, -third])])
    for axis, clamped in (([0.0, 0.0, 1.0], True), ([0.6, 0.0, 0.8], False)):
        z = np.array([[axis]])
        t = _log_arguments(r, s, c, z)[0]
        assert (t.min() < LOG_CLAMP) == clamped
        expected = _combine(_xlog2_always_clamped(t))
        np.testing.assert_array_equal(_correlation_kernel(r, s, c, z), expected)


def _xlog2_always_clamped(t):
    """t log2 t with every argument below 1e-12 set to 1, always, and no
    floor test: the x log x -> 0 limit written out."""
    kept = np.where(t >= 1e-12, t, 1.0)
    return np.log2(kept) * kept


def test_xlog2_is_the_checked_x_log_x():
    rng = np.random.default_rng(18)
    smooth = rng.uniform(1e-12, 2.0, size=(6, 4, 5))
    smooth[0, 0, :3] = [1e-12, 1.0, 2.0]
    # arguments the gate admits that count as zero, down to the floor -4e-9
    low = np.concatenate([smooth[0, 0], [-0.0, 0.0, 1e-12, np.nextafter(1e-12, 0.0),
                                         1e-300, -1e-10, -1e-9, -3e-9, -4e-9]])
    for t, clamped in ((smooth, False), (low, True)):
        work = t.copy()
        out = _xlog2(work)
        expected = _xlog2_always_clamped(t)
        np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))
        # clamped in place: the caller's array now holds the arguments used
        np.testing.assert_array_equal(work, np.where(t >= 1e-12, t, 1.0))
        assert (work != t).any() == clamped
    for bad in (-4.0000001e-9, np.nan):
        with pytest.raises(DomainError, match="log argument"):
            _xlog2(np.array([0.5, bad, 1e-13]))


def test_kernel_value_depends_on_its_axis_only(monkeypatch):
    """Each kernel value is the one its axis gets alone, bit for bit, on
    the search's Fibonacci pass and on a cap; so the value a batched search
    computed at its reported axis is the objective there."""
    rng = np.random.default_rng(16)
    states = draw_general_batch(rng, 16)
    r, s, c = _stacked(states)

    def alone(i, z):
        return _correlation_kernel(r[i : i + 1], s[i : i + 1], c[i : i + 1], z[None, None])[0, 0]

    lattice = np.repeat(fibonacci_grid(2000)[None], 16, axis=0)
    first_pass = _correlation_kernel(r, s, c, lattice)
    for i in range(16):
        for j, z in enumerate(lattice[i]):
            assert first_pass[i, j] == alone(i, z)
    center = _random_axis(rng)
    cap = center + 0.05 * rng.normal(size=(64, 3))
    cap /= np.linalg.norm(cap, axis=1)[:, None]
    values = _correlation_kernel(r[:1], s[:1], c[:1], cap[None])[0]
    for z, value in zip(cap, values):
        assert value == alone(0, z)

    seen = []

    def recording(*args):
        seen.append((args[3], _correlation_kernel(*args)))
        return seen[-1][1]

    def recording_model(*args):  # the Newton iterates: one axis per state
        out = _correlation_model(*args)
        seen.append((args[3][:, None].copy(), out[0][:, None]))
        return out

    monkeypatch.setattr(discord_module, "_correlation_kernel", recording)
    monkeypatch.setattr(discord_module, "_correlation_model", recording_model)
    for i, (params, res) in enumerate(zip(states, discord_module._correlation_search(states, None))):
        at_axis = np.concatenate([v[i][(z[i] == res.axis).all(axis=1)] for z, v in seen])
        assert at_axis.size and (at_axis == correlation_objective(params, res.axis)).all()
