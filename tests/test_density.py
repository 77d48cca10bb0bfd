"""Tests for state construction, the PSD gate, the finite-Hermitian gate,
the eigendecomposition against the Jacobi oracle, partial traces,
entropies and the entropic function."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discordkit import (
    BlochParams,
    DomainError,
    OutOfFamilyError,
    PhaseDamping,
    PhysicalityError,
    apply_kraus,
    bloch_vector,
    build_state,
    check_density_matrix,
    entropic_h,
    extract_bloch,
    hermitian_eigen,
    partial_trace,
    qubit_state,
    von_neumann_entropy,
)
from discordkit import density
from discordkit.density import PAULI
from discordkit.discord import C_EQ_R_MAX
from discordkit.sampling import (
    draw_general_batch,
    draw_r0_isotropic,
    draw_s0_isotropic,
    draw_s0_planar,
)

from _oracles import eigh_spectrum, jacobi_eigen, kron_state, spectrum_convention

SINGLET = BlochParams([0, 0, 0], [0, 0, 0], [-1, -1, -1])
# The documented PSD gate, pinned here rather than read from the package.
EIGENVALUE_FLOOR = -1e-9


def test_pauli_trace_orthonormality():
    for i in range(3):
        for j in range(3):
            tr = np.trace(PAULI[i] @ PAULI[j])
            assert tr == pytest.approx(2.0 if i == j else 0.0, abs=1e-15)


def test_build_state_maximally_mixed():
    rho = build_state(BlochParams([0, 0, 0], [0, 0, 0], [0, 0, 0]))
    np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-15)


def test_build_state_singlet_projector():
    rho = build_state(SINGLET)
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-15)
    lam = hermitian_eigen(rho).eigenvalues
    np.testing.assert_allclose(lam, [1, 0, 0, 0], atol=1e-12)


def test_build_state_reference_entries(ref_state_a):
    rho = build_state(ref_state_a)
    assert rho[0, 0] == pytest.approx(0.375, abs=1e-15)
    assert rho[0, 1] == pytest.approx(0.025 - 0.05j, abs=1e-15)
    assert rho[1, 2] == pytest.approx(0.15, abs=1e-15)
    assert rho[3, 3] == pytest.approx(0.275, abs=1e-15)


def test_build_state_rejects_unphysical():
    with pytest.raises(PhysicalityError):
        build_state(BlochParams([0, 0, 0], [0, 0, 0], [1, 1, 1]))


def test_params_own_their_vectors_so_the_cached_norms_hold():
    # a caller that writes into the arrays it passed cannot change the state,
    # so a norm cached on first read stays the norm of the state's vector
    r, s = np.array([0.0, 0.6, 0.8]), np.array([0.0, 0.3, 0.4])
    params = BlochParams(r, s, [0, 0, 0])
    assert (params.r_norm, params.s_norm) == (1.0, 0.5)
    r[:] = s[:] = 0.0
    assert params.r.tolist() == [0.0, 0.6, 0.8] and params.s.tolist() == [0.0, 0.3, 0.4]
    assert (params.r_norm, params.s_norm) == (1.0, 0.5)


# Derandomized and without an example database: the same examples on
# every run, and nothing written to disk.
_GATE_SETTINGS = settings(derandomize=True, database=None, deadline=None)
_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 9)


def _scaled_toward_mixed(direction, target: float) -> BlochParams:
    """t * (r, s, c) with Jacobi lambda_min near ``target``: the state is
    I/4 + t D, so every eigenvalue moves linearly in t."""
    d = BlochParams(direction[:3], direction[3:6], direction[6:])
    mu = jacobi_eigen(kron_state(d))[0][-1] - 0.25
    assume(mu < -1e-3)
    t = (target - 0.25) / mu
    return BlochParams(t * d.r, t * d.s, t * d.c)


def _werner(c: float) -> BlochParams:
    return BlochParams([0, 0, 0], [0, 0, 0], [c, c, c])


@_GATE_SETTINGS
@given(_DIRECTIONS, st.floats(0.0, 0.25))
def test_build_state_equals_kron_sum(direction, target):
    params = _scaled_toward_mixed(direction, target)
    assert np.array_equal(build_state(params), kron_state(params))


@_GATE_SETTINGS
@given(_DIRECTIONS, st.floats(0.0, 0.25))
def test_gate_spectrum_matches_jacobi(direction, target):
    params = _scaled_toward_mixed(direction, target)
    lam = density._gated_state(params)[1]
    oracle = jacobi_eigen(build_state(params))[0]
    assert np.max(np.abs(lam - oracle)) <= 4e-15


@_GATE_SETTINGS
@given(_DIRECTIONS, st.floats(-2e-9, 1e-9))
def test_gate_decision_matches_jacobi_lambda_min(direction, target):
    params = _scaled_toward_mixed(direction, target)
    lam_min = jacobi_eigen(kron_state(params))[0][-1]
    assume(abs(lam_min - EIGENVALUE_FLOOR) > 1e-13)
    if lam_min < EIGENVALUE_FLOOR:
        with pytest.raises(PhysicalityError):
            build_state(params)
    else:
        build_state(params)


def _analytic_spectrum(params: BlochParams) -> np.ndarray:
    """The family's analytic spectrum from the density helpers, descending."""
    if params.c[2] == 0.0:  # s0-planar: (1 +- a+-)/4
        a_plus, a_minus = density._planar_radii(params.r, params.c[0])
        lam = 0.25 * np.array([1 + a_plus, 1 - a_plus, 1 + a_minus, 1 - a_minus])
    else:  # uniform c with one nonzero marginal
        lam = density._isotropic_spectrum(params.r_norm + params.s_norm, params.c[2])
    return np.sort(lam)[::-1]


@pytest.mark.parametrize("draw", [draw_s0_isotropic, draw_r0_isotropic, draw_s0_planar])
def test_analytic_family_spectra_match_the_eigensolvers(draw):
    """The one written-out spectrum of each closed-form family, which the
    closed forms and the samplers share, is the state's spectrum."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        params = draw(rng)
        lam = _analytic_spectrum(params)
        rho = build_state(params)
        assert np.max(np.abs(lam - density._eigenvalues(rho))) <= 4e-15
        assert np.max(np.abs(lam - jacobi_eigen(rho)[0])) <= 4e-15


@pytest.mark.parametrize(
    "params",
    [
        _werner(1 / 3 + 1e-10),
        _werner(-1 - 1e-10),
        BlochParams([0, 0, C_EQ_R_MAX + 1e-10], [0, 0, 0], [C_EQ_R_MAX + 1e-10] * 3),
    ],
    ids=["werner-third", "werner-singlet", "c-eq-r"],
)
def test_gate_accepts_states_just_past_the_boundary(params):
    assert EIGENVALUE_FLOOR <= density._gated_state(params)[1][-1] < 0.0


def test_gate_rejects_werner_past_the_floor():
    with pytest.raises(PhysicalityError):
        build_state(_werner(1 / 3 + 1e-8))


def test_extract_bloch_maximally_mixed():
    params = extract_bloch(np.eye(4, dtype=complex) / 4)
    np.testing.assert_allclose(params.r, 0, atol=1e-15)
    np.testing.assert_allclose(params.s, 0, atol=1e-15)
    np.testing.assert_allclose(params.c, 0, atol=1e-15)


def test_extract_bloch_round_trip():
    rng = np.random.default_rng(7)
    for params in draw_general_batch(rng, 50):
        back = extract_bloch(build_state(params))
        np.testing.assert_allclose(back.r, params.r, atol=1e-12)
        np.testing.assert_allclose(back.s, params.s, atol=1e-12)
        np.testing.assert_allclose(back.c, params.c, atol=1e-12)
    # the marginals' Bloch vectors are r and s, up to rounding in the traces
    for params in draw_general_batch(rng, 5):
        rho = build_state(params)
        np.testing.assert_allclose(bloch_vector(partial_trace(rho, "a")), params.r, atol=1e-15)
        np.testing.assert_allclose(bloch_vector(partial_trace(rho, "b")), params.s, atol=1e-15)


def test_extract_bloch_rejects_off_diagonal_correlations():
    rho = np.eye(4, dtype=complex) / 4 + 0.1 * np.kron(PAULI[0], PAULI[1]) / 4
    with pytest.raises(OutOfFamilyError):
        extract_bloch(rho)


def test_hermitian_eigen_identity_quarter():
    decomp = hermitian_eigen(np.eye(4, dtype=complex) / 4)
    np.testing.assert_allclose(decomp.eigenvalues, 0.25, atol=1e-14)


def test_hermitian_eigen_reference_spectrum(ref_state_a):
    lam = hermitian_eigen(build_state(ref_state_a)).eigenvalues
    np.testing.assert_allclose(lam, [0.4, 0.3427, 0.25, 0.0073], atol=5e-4)


def test_hermitian_eigen_uniform_c_closed_forms():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(-0.25, 0.25)
        r_norm = rng.uniform(0, 0.5)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        params = BlochParams(r_norm * direction, [0, 0, 0], [c, c, c])
        try:
            rho = build_state(params)
        except PhysicalityError:
            continue
        big = np.sqrt(4 * c**2 + r_norm**2)
        expected = np.sort(
            [1 + c + r_norm, 1 + c - r_norm, 1 - c + big, 1 - c - big]
        )[::-1] / 4.0
        np.testing.assert_allclose(
            hermitian_eigen(rho).eigenvalues, expected, atol=1e-10
        )


def test_hermitian_eigen_reconstruction_many_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = 0.5 * (raw + raw.conj().T)
        herm = herm - np.eye(4) * (np.trace(herm).real - 1.0) / 4.0
        decomp = hermitian_eigen(herm)
        recon = decomp.eigenvectors @ np.diag(decomp.eigenvalues) @ decomp.eigenvectors.conj().T
        assert np.max(np.abs(herm - recon)) <= 1e-10
        np.testing.assert_allclose(
            decomp.eigenvalues, eigh_spectrum(herm), atol=1e-10
        )


def test_hermitian_eigen_descending_and_phase_fixed():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    decomp = hermitian_eigen(0.5 * (raw + raw.conj().T))
    assert np.all(np.diff(decomp.eigenvalues) <= 1e-14)
    for k in range(4):
        col = decomp.eigenvectors[:, k]
        first = next(comp for comp in col if abs(comp) > 1e-12)
        assert first.imag == pytest.approx(0.0, abs=1e-13)
        assert first.real > 0


def test_hermitian_eigen_determinism():
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = 0.5 * (raw + raw.conj().T)
    s1 = hermitian_eigen(herm)
    s2 = hermitian_eigen(herm)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_hermitian_eigen_is_eigh_in_the_oracle_convention():
    # exact ties are where the order rule beyond the eigenvalue decides
    rng = np.random.default_rng(17)
    cases = [np.eye(4) / 4, np.diag([1.0, 1.0, 0.0, 0.0]) / 2]
    cases += [build_state(BlochParams([0, 0, 0], [0, 0, 0], [c, c, c]))
              for c in np.linspace(-1, 1 / 3, 25)]
    cases += [build_state(p) for p in draw_general_batch(rng, 200)]
    for _ in range(100):
        n = int(rng.integers(1, 6))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        cases.append(0.5 * (raw + raw.conj().T))
    ties = 0
    for h in cases:
        herm = np.asarray(h, dtype=complex)
        lam, vecs = spectrum_convention(*np.linalg.eigh(0.5 * (herm + herm.conj().T)))
        decomp = hermitian_eigen(h)
        assert np.array_equal(decomp.eigenvalues, lam)
        assert np.array_equal(decomp.eigenvectors, vecs)
        ties += bool(np.any(lam[1:] == lam[:-1]))
    assert ties >= 1


def test_jacobi_oracle_budget_exhaustion():
    rho = build_state(BlochParams([0, 0, 0], [0.1, 0.2, 0.2], [0.3, 0.3, 0.3]))
    with pytest.raises(RuntimeError, match="after 0 sweeps"):
        jacobi_eigen(rho, max_sweeps=0)


def test_hermitian_eigen_matches_jacobi_oracle(ref_state_a, ref_state_b):
    # Simple spectra only (eigenvalues at least 1e-3 apart): on a degenerate
    # eigenspace the two solvers may pick different bases.  The oracle stops
    # at off-diagonal norm 1e-13, so its eigenvectors carry an error up to
    # about 1e-13 / gap (measured 2.1e-12 at gap 0.064).
    rng = np.random.default_rng(41)
    params = [ref_state_a, ref_state_b] + draw_general_batch(rng, 200)
    checked = 0
    for rho in (build_state(p) for p in params):
        gap = np.min(-np.diff(eigh_spectrum(rho)))
        if gap < 1e-3:
            continue
        decomp = hermitian_eigen(rho)
        lam, vecs = jacobi_eigen(rho)
        assert np.max(np.abs(decomp.eigenvalues - lam)) <= 4e-15
        assert np.max(np.abs(decomp.eigenvectors - vecs)) <= 1e-12 + 1e-13 / gap
        checked += 1
    assert checked >= 150


def test_hermitian_eigen_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1e-6
    with pytest.raises(PhysicalityError):
        hermitian_eigen(bad)


_NON_FINITE_GATED = {
    "check_density_matrix": check_density_matrix,
    "apply_kraus": lambda rho: apply_kraus(rho, PhaseDamping(0.3)),
    "von_neumann_entropy": von_neumann_entropy,
    "hermitian_eigen": hermitian_eigen,
    "extract_bloch": extract_bloch,
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE_GATED))
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entries_are_unphysical(name, entry, value):
    rho = np.eye(4, dtype=complex) / 4
    i, j = entry
    rho[i, j] = rho[j, i] = value
    with pytest.raises(PhysicalityError, match="non-finite"):
        _NON_FINITE_GATED[name](rho)


@pytest.mark.parametrize("name", ["check_density_matrix", "apply_kraus", "extract_bloch"])
@pytest.mark.parametrize(
    "rho, message",
    [
        (np.eye(3, dtype=complex) / 3, "expected a 2x2 or 4x4 matrix, got shape (3, 3)"),
        (np.eye(4, dtype=complex) * (1.0 + 1e-9) / 4, "deviates from 1 beyond 1e-12"),
    ],
    ids=["3x3", "trace"],
)
def test_density_matrix_gate_rejects_shape_and_trace(name, rho, message):
    with pytest.raises(PhysicalityError, match=re.escape(message)):
        _NON_FINITE_GATED[name](rho)


@pytest.mark.parametrize("name", sorted(_NON_FINITE_GATED))
@pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0)], ids=["2x3", "vector", "empty"])
def test_non_square_input_is_unphysical(name, shape):
    # each route names the shape instead of failing inside numpy
    rho = np.full(shape, 0.25, dtype=complex)
    with pytest.raises(PhysicalityError, match=re.escape(f"matrix, got shape {shape}")):
        _NON_FINITE_GATED[name](rho)


def test_two_qubit_routes_reject_a_one_qubit_state():
    # a valid 2x2 state passes check_density_matrix but is no two-qubit state
    rho = np.eye(2, dtype=complex) / 2
    check_density_matrix(rho)
    message = re.escape("expected a 4x4 matrix, got shape (2, 2)")
    routes = (extract_bloch, _NON_FINITE_GATED["apply_kraus"], lambda m: partial_trace(m, "a"))
    for route in routes:
        with pytest.raises(PhysicalityError, match=message):
            route(rho)


@pytest.mark.parametrize("v", [[0.1, 0.2, 0.3, 0.4], [0.1, 0.2]], ids=["four", "two"])
def test_qubit_state_rejects_a_non_3_vector(v):
    message = re.escape(f"v must be a real 3-vector, got shape ({len(v)},)")
    with pytest.raises(ValueError, match=message):
        qubit_state(v)


def test_bloch_vector_rejects_a_two_qubit_state():
    message = re.escape("expected a 2x2 matrix, got shape (4, 4)")
    with pytest.raises(PhysicalityError, match=message):
        bloch_vector(np.eye(4) / 4)


def test_partial_trace_rejects_a_flat_vector():
    # 16 entries reshape to (2, 2, 2, 2), so only the shape check tells
    with pytest.raises(PhysicalityError, match=re.escape("got shape (16,)")):
        partial_trace(np.eye(4).reshape(16) / 4, "a")


def test_hermitian_gate_accepts_three_by_three():
    assert np.allclose(hermitian_eigen(np.eye(3) / 3).eigenvalues, 1 / 3)
    assert von_neumann_entropy(np.eye(3) / 3) == pytest.approx(np.log2(3))


def test_entropy_rejects_non_hermitian():
    bad = np.eye(2, dtype=complex) / 2
    bad[0, 1] = 1e-6
    with pytest.raises(PhysicalityError, match="Hermiticity"):
        von_neumann_entropy(bad)


def test_partial_trace_maximally_mixed():
    np.testing.assert_allclose(
        partial_trace(np.eye(4, dtype=complex) / 4, "a"), np.eye(2) / 2, atol=1e-15
    )


def test_partial_trace_reference_marginal(ref_state_a):
    marg = partial_trace(build_state(ref_state_a), "b")
    np.testing.assert_allclose(marg, qubit_state([0.1, 0.2, 0.2]), atol=1e-14)
    np.testing.assert_allclose(
        partial_trace(build_state(ref_state_a), "a"), np.eye(2) / 2, atol=1e-14
    )


def test_partial_trace_singlet_marginals():
    rho = build_state(SINGLET)
    for side in ("a", "b"):
        np.testing.assert_allclose(partial_trace(rho, side), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_rejects_bad_side():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, "c")


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(build_state(SINGLET)) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4, dtype=complex) / 4) == pytest.approx(2.0)
    assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(1.0)


def test_entropy_reference_state(ref_state_a):
    # expected value from the exact closed-form spectrum of this family
    s_norm, c = ref_state_a.s_norm, 0.3
    big = np.sqrt(4 * c**2 + s_norm**2)
    lam = np.array([1 + c + s_norm, 1 + c - s_norm, 1 - c + big, 1 - c - big]) / 4
    expected = float(-np.sum(lam * np.log2(lam)))
    assert von_neumann_entropy(build_state(ref_state_a)) == pytest.approx(
        expected, abs=1e-10
    )


def test_entropy_rejects_negative_eigenvalue():
    bad = np.diag([1.05, -0.05, 0.0, 0.0]).astype(complex)
    with pytest.raises(PhysicalityError):
        von_neumann_entropy(bad)


def test_entropy_bounds_and_rank_one():
    rng = np.random.default_rng(23)
    for params in draw_general_batch(rng, 100):
        s = von_neumann_entropy(build_state(params))
        assert 0.0 <= s <= 2.0


def test_qubit_entropy_matches_binary_form():
    rng = np.random.default_rng(29)
    for _ in range(100):
        v = rng.uniform(-1, 1, size=3)
        norm = np.linalg.norm(v)
        if norm >= 1:
            v /= norm * 1.01
            norm = np.linalg.norm(v)
        s = von_neumann_entropy(qubit_state(v))
        assert s + entropic_h(0.0, norm) == pytest.approx(1.0, abs=1e-12)


def test_qubit_eigenvalues_from_bloch_norm():
    rng = np.random.default_rng(31)
    for _ in range(50):
        v = rng.uniform(-0.57, 0.57, size=3)
        lam = hermitian_eigen(qubit_state(v)).eigenvalues
        norm = np.linalg.norm(v)
        np.testing.assert_allclose(lam, [(1 + norm) / 2, (1 - norm) / 2], atol=1e-12)


def test_entropic_h_fixed_points():
    assert entropic_h(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert entropic_h(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("eps", [-0.4, -0.1, 0.0, 0.3, 0.9])
def test_entropic_h_minimum_at_zero(eps):
    assert entropic_h(eps, 0.0) == pytest.approx(
        (1 + eps) * np.log2(1 + eps), abs=1e-14
    )
    xs = np.linspace(0, 1 + eps, 50)
    values = entropic_h(np.full_like(xs, eps), xs)
    assert np.all(values >= entropic_h(eps, 0.0) - 1e-14)


def test_entropic_h_exactly_even():
    rng = np.random.default_rng(37)
    for _ in range(200):
        eps = rng.uniform(-0.5, 0.5)
        x = rng.uniform(0, 1 + eps)
        assert entropic_h(eps, x) == entropic_h(eps, -x)


def test_entropic_h_domain_error():
    with pytest.raises(DomainError):
        entropic_h(0.0, 1.5)
    with pytest.raises(DomainError):
        entropic_h(-0.5, 0.8)


def test_entropic_h_floor_is_the_psd_gates():
    # a log argument is four times an eigenvalue, and the PSD gate passes
    # eigenvalues down to -1e-9: log arguments down to -4e-9 count as zero
    assert np.isfinite(entropic_h(0.0, 1.0 + 2e-9))
    with pytest.raises(DomainError):
        entropic_h(0.0, 1.0 + 5e-9)


def test_entropic_h_vectorized_matches_scalar():
    xs = np.array([0.0, 0.25, 0.5, 0.99])
    vec = entropic_h(0.1, xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(entropic_h(0.1, float(x)), abs=0)
    # an eps array, with log arguments 1 + eps - |x| on both sides of the
    # 1e-12 clamp (2e-12 is computed, 5e-13 and -5e-13 give zero)
    eps = np.array([0.1, -0.3, 0.0, 0.0, 0.0, 0.0, -0.5, 0.2])
    xs = np.array([0.25, -0.6, 1.0 - 2e-12, 1.0 - 5e-13, 1.0 + 5e-13, 1.0, 0.5 - 2e-12, 0.0])
    vec = entropic_h(eps, xs)
    assert vec.shape == eps.shape
    for e, x, v in zip(eps, xs, vec):
        scalar = entropic_h(float(e), float(x))
        assert type(scalar) is float
        assert v == scalar
        assert entropic_h(np.array(e), np.array(x)) == scalar  # 0-d arrays
        assert entropic_h(np.array([e]), x)[0] == scalar
    for k in (3, 4, 5):  # the clamped log argument adds exactly zero
        t = 1.0 + xs[k]
        assert vec[k] == 0.5 * (np.log2(t) * t)
