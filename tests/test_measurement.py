"""Tests for the measurement parametrization, post-measurement ensembles,
conditional entropy and the correlation objectives."""

import numpy as np
import pytest

from discordkit import (
    BlochParams,
    DegenerateBranchError,
    NormError,
    UnitQuaternion,
    axis_from_su2,
    conditional_entropy,
    correlation_objective,
    damped_correlation_objective,
    hermitian_eigen,
    partial_trace,
    build_state,
    post_measurement_ensemble,
)
from discordkit.measurement import _correlation_derivatives, _correlation_kernel
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
        # batched BLAS reductions may differ from single-row ones in the
        # last bit, nothing more
        assert value == pytest.approx(correlation_objective(ref_state_a, z), abs=1e-15)


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


def test_correlation_derivatives_match_central_differences():
    rng = np.random.default_rng(269)
    r, s, c = _stacked(draw_general_batch(rng, 40))
    z = rng.normal(size=(40, 3))
    z /= np.linalg.norm(z, axis=1)[:, None]
    grad, hess = _correlation_derivatives(r, s, c, z)

    def g(shift):  # the kernel at z + shift, one axis per state
        return _correlation_kernel(r, s, c, (z + shift)[:, None, :])[:, 0]

    unit = np.eye(3)
    h = 1e-5
    fd_grad = np.stack([(g(h * e) - g(-h * e)) / (2 * h) for e in unit], axis=1)
    # measured worst deviation 4.4e-11 (truncation and rounding of the quotient)
    np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-8)
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
    grad, hess = _correlation_derivatives(*_stacked(states), np.tile([0.0, 0.0, 1.0], (3, 1)))
    assert np.isnan(grad[:2]).all() and np.isnan(hess[:2]).all()
    assert np.isfinite(grad[2]).all() and np.isfinite(hess[2]).all()
