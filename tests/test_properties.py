"""Physical invariants of the discord routes, as properties over seeded
draws of general and closed-form family states, and at the edge of the
kernel's domain."""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from discordkit import (
    BlochParams,
    DiscordReport,
    PhaseDamping,
    build_state,
    conditional_entropy,
    correlation_objective,
    damp_bloch,
    discord_auto,
    discord_numeric,
    qubit_state,
    von_neumann_entropy,
)
from discordkit.sampling import (
    draw_axial_zero,
    draw_general,
    draw_general_batch,
    draw_r0_isotropic,
    draw_s0_isotropic,
    draw_s0_planar,
)

# Derandomized and without an example database: the same examples on
# every run, and nothing written to disk.
_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)
_SAMPLERS = (
    draw_general,
    draw_s0_isotropic,
    draw_r0_isotropic,
    draw_axial_zero,
    draw_s0_planar,
)
_STATES = st.builds(lambda draw, seed: draw(np.random.default_rng(seed)),
                    st.sampled_from(_SAMPLERS), st.integers(0, 2**32 - 1))


def _local_unitary(p: BlochParams, kind: str, axis: int) -> BlochParams:
    """A local unitary acting on the parameters.  ``cyclic`` permutes the
    axes of both qubits (x -> y -> z -> x); ``a`` and ``b`` rotate that
    qubit by pi about ``axis``, which negates the other two components of
    its Bloch vector and of c."""
    if kind == "cyclic":
        return BlochParams(np.roll(p.r, 1), np.roll(p.s, 1), np.roll(p.c, 1))
    flip = np.where(np.arange(3) == axis, 1.0, -1.0)
    if kind == "a":
        return BlochParams(p.r * flip, p.s, p.c * flip)
    return BlochParams(p.r, p.s * flip, p.c * flip)


@_SETTINGS
@given(_STATES, st.sampled_from(("cyclic", "a", "b")), st.integers(0, 2))
def test_discord_is_invariant_under_local_unitaries(params, kind, axis):
    moved = _local_unitary(params, kind, axis)
    assert abs(discord_auto(moved).discord - discord_auto(params).discord) <= 1e-12


@_SETTINGS
@given(_STATES)
def test_discord_and_classical_correlation_bounds(params):
    report = discord_auto(params)
    s_a = von_neumann_entropy(qubit_state(params.r))
    s_b = von_neumann_entropy(qubit_state(params.s))
    assert -1e-12 <= report.discord <= s_b + 1e-12
    assert report.classical_corr <= min(s_a, s_b) + 1e-12


def test_auto_equals_numeric_on_200_general_draws():
    """discord_auto's fallback is the report discord_numeric builds, so
    ``compute`` and ``compute --numeric`` agree bit for bit."""
    for params in draw_general_batch(np.random.default_rng(0), 200):
        auto, numeric = discord_auto(params), discord_numeric(params)
        for field in fields(DiscordReport):
            name = field.name
            assert np.array_equal(getattr(auto, name), getattr(numeric, name)), name


def _check_at_the_edge(params):
    """discord_numeric is finite and within the bounds on a gated state at
    the domain edge, and its value at the reported axis agrees with the
    2x2 route of conditional_entropy."""
    report = discord_numeric(params)
    assert np.isfinite([report.mutual_info, report.classical_corr, report.discord]).all()
    s_a = von_neumann_entropy(qubit_state(params.r))
    s_b = von_neumann_entropy(qubit_state(params.s))
    assert -1e-12 <= report.discord <= s_b + 1e-12
    assert report.classical_corr <= min(s_a, s_b) + 1e-12
    g = correlation_objective(params, report.argmax_axis)
    assert abs(g - (1.0 - conditional_entropy(params, report.argmax_axis))) <= 1e-12


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1e-9))
def test_states_on_the_psd_boundary(seed, lam_min):
    # scaling the Bloch parameters by t moves every eigenvalue linearly,
    # lambda(t) = 1/4 + t (lambda - 1/4); t puts the smallest one at lam_min
    p = draw_general(np.random.default_rng(seed))
    t = (0.25 - lam_min) / (0.25 - np.linalg.eigvalsh(build_state(p))[0])
    edge = BlochParams(t * p.r, t * p.s, t * p.c)
    assert abs(np.linalg.eigvalsh(build_state(edge))[0] - lam_min) <= 1e-15
    _check_at_the_edge(edge)


@_SETTINGS
@given(st.sampled_from(_SAMPLERS[1:]), st.integers(0, 2**32 - 1), st.floats(-0.99e-9, 1e-9))
def test_family_states_on_the_psd_boundary(draw, seed, lam_min):
    # as above, on the closed-form families (scaling keeps a state in its
    # family), down to the gate's floor: every log argument is at least
    # four times lam_min, and both routes answer
    p = draw(np.random.default_rng(seed))
    t = (0.25 - lam_min) / (0.25 - np.linalg.eigvalsh(build_state(p))[0])
    edge = BlochParams(t * p.r, t * p.s, t * p.c)
    auto, numeric = discord_auto(edge), discord_numeric(edge)
    assert np.isfinite([auto.discord, numeric.discord]).all()
    assert abs(auto.discord - numeric.discord) <= 1e-8


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from((1e-3, 1e-6, 1e-9)),
       st.integers(0, 2), st.floats(-1.0, 1.0))
def test_nearly_pure_second_marginal(seed, gap, axis, a):
    # mix a general state into the product of a qubit polarized by a along
    # e_axis with the pure qubit e_axis, in the weight that gives 1 - |s| = gap
    e = np.eye(3)[axis]
    p = draw_general(np.random.default_rng(seed))
    d = p.s - e
    # |e + x d| = 1 - gap: the smaller root x of qa x^2 + qb x + qc, in the
    # form that does not cancel
    qa, qb, qc = d @ d, 2.0 * d[axis], 1.0 - (1.0 - gap) ** 2
    x = 2.0 * qc / (-qb + np.sqrt(qb * qb - 4.0 * qa * qc))
    edge = BlochParams((1 - x) * a * e + x * p.r, (1 - x) * e + x * p.s,
                       (1 - x) * a * e + x * p.c)
    assert abs(1.0 - edge.s_norm - gap) <= 1e-6 * gap
    _check_at_the_edge(edge)


@_SETTINGS
@given(_STATES, st.sampled_from((0.0, 1.0)))
def test_damping_endpoints(params, gamma):
    _check_at_the_edge(damp_bloch(params, PhaseDamping(gamma)))
