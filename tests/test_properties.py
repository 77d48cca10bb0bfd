"""Physical invariants of the discord routes, as properties over seeded
draws of general and closed-form family states."""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from discordkit import (
    BlochParams,
    DiscordReport,
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
