"""Tests for the phase-damping channel, dual damping routes and the
closed-form damping gaps."""

from dataclasses import fields

import numpy as np
import pytest

from discordkit import (
    BlochParams,
    DiscordReport,
    DomainError,
    METHOD_S0_PLANAR,
    PhaseDamping,
    RangeError,
    SphereOptConfig,
    apply_kraus,
    build_state,
    damp_bloch,
    damped_discord,
    damped_mutual_information,
    discord_auto,
    discord_numeric,
    fibonacci_grid,
    gamma_sweep,
    kraus_pair,
    maximize_on_sphere,
    planar_damped_gap,
    werner_damped_gap,
    werner_damped_gap_dgamma,
)
from discordkit import channels as channels_module
from discordkit import discord as discord_module
from discordkit.sampling import draw_axial_zero, draw_general_batch, draw_s0_planar

from _oracles import (
    bell_diagonal_discord,
    damped_discord_reference,
    damped_mutual_information_reference,
    eigh_spectrum,
)

# frozen from the independent reference implementation in _oracles.py
PLANAR_GAP_G02 = 0.02974908655942432
PLANAR_GAP_G07 = 0.06934154888074906


def test_kraus_limits():
    k1, k2 = kraus_pair(PhaseDamping(0.0))
    np.testing.assert_allclose(k1, np.eye(2), atol=0)
    np.testing.assert_allclose(k2, np.zeros((2, 2)), atol=0)
    k1, k2 = kraus_pair(PhaseDamping(1.0))
    np.testing.assert_allclose(k1, np.diag([1.0, 0.0]), atol=0)
    np.testing.assert_allclose(k2, np.diag([0.0, 1.0]), atol=0)


def test_kraus_fixed_rate():
    k1, k2 = kraus_pair(PhaseDamping(0.36))
    np.testing.assert_allclose(k1, np.diag([1.0, 0.8]), atol=1e-15)
    np.testing.assert_allclose(k2, np.diag([0.0, 0.6]), atol=1e-15)


def test_kraus_completeness():
    rng = np.random.default_rng(191)
    for _ in range(50):
        k1, k2 = kraus_pair(PhaseDamping(rng.uniform(0, 1)))
        total = k1.conj().T @ k1 + k2.conj().T @ k2
        assert np.max(np.abs(total - np.eye(2))) <= 1e-14


def test_gamma_out_of_range_rejected():
    for gamma in (-0.1, 1.1):
        with pytest.raises(RangeError):
            PhaseDamping(gamma)


def test_apply_kraus_identity_at_zero(ref_state_a):
    rho = build_state(ref_state_a)
    np.testing.assert_allclose(apply_kraus(rho, PhaseDamping(0.0)), rho, atol=1e-15)


def test_apply_kraus_fixes_populations():
    rng = np.random.default_rng(193)
    for _ in range(20):
        pops = rng.dirichlet(np.ones(4))
        rho = np.diag(pops).astype(complex)
        damped = apply_kraus(rho, PhaseDamping(rng.uniform(0, 1)))
        np.testing.assert_allclose(damped, rho, atol=1e-15)


def test_apply_kraus_matches_parameter_route():
    rng = np.random.default_rng(197)
    for params in draw_general_batch(rng, 200):
        channel = PhaseDamping(rng.uniform(0, 1))
        via_matrix = apply_kraus(build_state(params), channel)
        via_params = build_state(damp_bloch(params, channel))
        assert np.max(np.abs(via_matrix - via_params)) <= 1e-12


def test_apply_kraus_preserves_trace_and_positivity():
    rng = np.random.default_rng(199)
    for params in draw_general_batch(rng, 50):
        damped = apply_kraus(build_state(params), PhaseDamping(rng.uniform(0, 1)))
        assert abs(np.trace(damped).real - 1.0) <= 1e-13
        assert eigh_spectrum(damped).min() >= -1e-12


def test_damp_bloch_limits(ref_state_a):
    p0 = damp_bloch(ref_state_a, PhaseDamping(0.0))
    np.testing.assert_allclose(p0.r, ref_state_a.r, atol=0)
    np.testing.assert_allclose(p0.s, ref_state_a.s, atol=0)
    np.testing.assert_allclose(p0.c, ref_state_a.c, atol=0)
    p1 = damp_bloch(ref_state_a, PhaseDamping(1.0))
    np.testing.assert_allclose(p1.s, [0, 0, ref_state_a.s[2]], atol=1e-15)
    np.testing.assert_allclose(p1.c, [0, 0, ref_state_a.c[2]], atol=1e-15)


def test_damp_bloch_half_rate_scaling():
    params = BlochParams([0.2, 0.1, 0.3], [0.1, -0.1, 0.2], [0.1, -0.2, 0.3])
    damped = damp_bloch(params, PhaseDamping(0.5))
    f = np.sqrt(0.5)
    np.testing.assert_allclose(damped.r, [0.2 * f, 0.1 * f, 0.3], atol=1e-15)
    np.testing.assert_allclose(damped.s, [0.1 * f, -0.1 * f, 0.2], atol=1e-15)
    np.testing.assert_allclose(damped.c, [0.05, -0.1, 0.3], atol=1e-15)


def test_damped_discord_gamma_zero(ref_state_b):
    rng = np.random.default_rng(207)
    for params in [ref_state_b] + draw_general_batch(rng, 3):
        damped = damped_discord(params, PhaseDamping(0.0))
        direct = discord_numeric(params)
        for field in fields(DiscordReport):
            assert np.array_equal(
                getattr(damped, field.name), getattr(direct, field.name)
            ), field.name


def test_damped_discord_matches_damped_parameters():
    """damped_discord against the oracle's expanded damped objective and
    mutual information, maximized by the same sphere search."""
    cfg = SphereOptConfig(hemisphere=True)
    rng = np.random.default_rng(211)
    for params in draw_general_batch(rng, 10):
        gamma = rng.uniform(0, 1)
        expected = damped_discord_reference(
            params, gamma, lambda f: maximize_on_sphere(f, cfg).value
        )
        assert damped_discord(params, PhaseDamping(gamma)).discord == pytest.approx(
            expected, abs=1e-10
        )


def test_damped_mutual_information_expanded_form():
    rng = np.random.default_rng(223)
    for params in draw_general_batch(rng, 25):
        gamma = rng.uniform(0, 1)
        assert damped_mutual_information(params, PhaseDamping(gamma)) == pytest.approx(
            damped_mutual_information_reference(params, gamma), abs=1e-10
        )


def test_damping_invariant_family():
    rng = np.random.default_rng(227)
    for _ in range(10):
        params = draw_axial_zero(rng)
        q0 = discord_numeric(params).discord
        for gamma in (0.3, 0.9):
            qd = damped_discord(params, PhaseDamping(gamma)).discord
            assert abs(qd - q0) <= 1e-8


def test_damped_spectrum_against_reference(ref_state_b):
    channel = PhaseDamping(0.2)
    report = damped_discord(ref_state_b, channel)
    expected = eigh_spectrum(build_state(damp_bloch(ref_state_b, channel)))
    np.testing.assert_allclose(report.spectrum, expected, atol=1e-10)


def test_werner_gap_zero_lines():
    for c in (-0.5, 0.0, 0.2, 1 / 3):
        assert werner_damped_gap(c, 0.0) == pytest.approx(0.0, abs=1e-14)
    for gamma in (0.0, 0.3, 1.0):
        assert werner_damped_gap(0.0, gamma) == pytest.approx(0.0, abs=1e-14)


def test_werner_gap_increasing_and_matches_numeric():
    c = 0.25
    previous = 0.0
    q0 = discord_numeric(BlochParams([0, 0, 0], [0, 0, 0], [c, c, c])).discord
    for gamma in (0.25, 0.5, 0.75):
        gap = werner_damped_gap(c, gamma)
        assert gap > previous
        previous = gap
        damped = damped_discord(
            BlochParams([0, 0, 0], [0, 0, 0], [c, c, c]), PhaseDamping(gamma)
        ).discord
        assert gap == pytest.approx(q0 - damped, abs=1e-6)


def test_werner_gap_derivative_matches_finite_differences():
    h = 1e-6
    for c in (-0.4, 0.1, 0.25, 1 / 3):
        for gamma in (0.2, 0.5, 0.8):
            numeric = (
                werner_damped_gap(c, gamma + h) - werner_damped_gap(c, gamma - h)
            ) / (2 * h)
            assert werner_damped_gap_dgamma(c, gamma) == pytest.approx(
                numeric, abs=1e-6
            )


def test_werner_gap_domain():
    with pytest.raises(DomainError):
        werner_damped_gap(0.5, 0.2)
    with pytest.raises(RangeError):
        werner_damped_gap(0.2, 1.5)


@pytest.mark.parametrize("c", [1 / 3 + 1e-10, -1 - 1e-10])
def test_werner_gap_on_gated_boundary_states(c):
    """Just past either Werner bound the gate still accepts the state
    (smallest eigenvalue above -1e-9), so the closed form answers too."""
    params = BlochParams([0, 0, 0], [0, 0, 0], [c, c, c])
    rows = gamma_sweep(params, [0.0, 0.5, 1.0])
    for gamma, _, gap in rows:
        assert werner_damped_gap(c, gamma) == pytest.approx(gap, abs=1e-6)
    # the derivative raises only where its log argument is not positive
    if c > 0:
        with pytest.raises(DomainError):
            werner_damped_gap_dgamma(c, 0.0)
    else:
        assert werner_damped_gap_dgamma(c, 0.5) == pytest.approx(
            0.5 * c * np.log2(1.0 / (1.0 - 2.0 * c)), abs=1e-12
        )


def test_planar_gap_zero_at_gamma_zero(ref_state_b):
    assert planar_damped_gap(ref_state_b.r, 0.3, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_planar_gap_reference_values(ref_state_b):
    assert planar_damped_gap([0.1, 0.2, 0], 0.3, 0.2) == pytest.approx(
        PLANAR_GAP_G02, abs=1e-10
    )
    assert planar_damped_gap([0.1, 0.2, 0], 0.3, 0.7) == pytest.approx(
        PLANAR_GAP_G07, abs=1e-10
    )


def test_planar_gap_matches_numeric_difference():
    rng = np.random.default_rng(229)
    for _ in range(10):
        params = draw_s0_planar(rng)
        gamma = rng.uniform(0, 1)
        closed = planar_damped_gap(params.r, params.c[0], gamma)
        numeric = (
            discord_numeric(params).discord
            - discord_numeric(damp_bloch(params, PhaseDamping(gamma))).discord
        )
        assert closed == pytest.approx(numeric, abs=1e-6)


def test_planar_gap_is_the_difference_of_the_served_discords():
    # the gap damps through damp_bloch, so it equals the difference of the
    # s0-planar values discord_auto serves for the state and its damped image
    rng = np.random.default_rng(0)
    compared = 0
    for params in [draw_s0_planar(rng) for _ in range(300)]:
        undamped = discord_auto(params)
        for gamma in (0.0, 0.1, 0.2, 0.5, 0.7, 0.9, 1.0):
            damped = discord_auto(damp_bloch(params, PhaseDamping(gamma)))
            if undamped.method == damped.method == METHOD_S0_PLANAR:
                compared += 1
                gap = planar_damped_gap(params.r, params.c[0], gamma)
                assert gap == undamped.discord - damped.discord, (params, gamma)
    assert compared == 1800


def test_gamma_sweep_single_point(ref_state_b):
    rows = gamma_sweep(ref_state_b, [0.0])
    assert len(rows) == 1
    gamma, q_damped, gap = rows[0]
    assert gamma == 0.0
    assert gap == 0.0
    assert q_damped == discord_numeric(ref_state_b).discord


def test_gamma_sweep_rows_equal_damped_discord(ref_state_b):
    rng = np.random.default_rng(241)
    for params in [ref_state_b] + draw_general_batch(rng, 3):
        q0 = discord_numeric(params).discord
        # with and without the gamma = 0 row, whose search is the state's own
        for grid in ([0.0, 0.2, 0.45, 0.9, 1.0], [0.2, 0.45]):
            expected = []
            for g in grid:
                qd = damped_discord(params, PhaseDamping(g)).discord
                expected.append((g, qd, q0 - qd))
            assert gamma_sweep(params, grid) == expected


def test_gamma_sweep_damps_the_whole_grid_at_once(monkeypatch):
    # one _damped_rows call on the rates above 0 gives every image: no
    # damp_bloch and no PhaseDamping per rate
    calls = []
    damped_rows = channels_module._damped_rows

    def recording_rows(params, gammas):
        calls.append(list(gammas))
        return damped_rows(params, gammas)

    monkeypatch.setattr(channels_module, "_damped_rows", recording_rows)
    for name in ("damp_bloch", "PhaseDamping"):
        monkeypatch.setattr(channels_module, name, lambda *args, name=name: calls.append(name))
    params = draw_general_batch(np.random.default_rng(251), 1)[0]
    grid = np.linspace(0.0, 1.0, 11)
    assert len(gamma_sweep(params, grid)) == 11
    assert calls == [grid[1:].tolist()]


def test_gamma_sweep_runs_one_lockstep_search(monkeypatch):
    calls, model_calls = [], []
    kernel, model = discord_module._correlation_kernel, discord_module._correlation_model

    def recording(*args):
        calls.append(args[-1].copy())
        return kernel(*args)

    def recording_model(r, s, c, z, pairs):
        # the pair is the tangent pair at this iterate, not a stale one
        basis = np.array(pairs).reshape(-1, 3, 2)
        assert np.abs(np.einsum("nia,ni->na", basis, np.array(z))).max() <= 1e-15
        model_calls.append((len(z), len(pairs)))
        return model(r, s, c, z, pairs)

    monkeypatch.setattr(discord_module, "_correlation_kernel", recording)
    monkeypatch.setattr(discord_module, "_correlation_model", recording_model)
    params = draw_general_batch(np.random.default_rng(251), 1)[0]
    gamma_sweep(params, np.linspace(0.0, 1.0, 11))
    # the state and its 10 images at gamma > 0 at once (the gamma = 0 row
    # reuses the state's report): one Fibonacci pass in one call (11 x 500
    # axes are within the 8192-axis budget), no extra basin, then one model
    # call at the lattice incumbents and three Newton trials, which certify
    # every row, so no cap round runs; two rows are certified after two
    # trials, so the third trial evaluates the other nine alone
    assert [z.shape for z in calls] == [(11, 500, 3)]
    assert all(np.array_equal(z, np.broadcast_to(z[:1], z.shape)) for z in calls)
    lattice = fibonacci_grid(SphereOptConfig().grid_points)  # the hemisphere
    assert np.array_equal(np.concatenate([z[0] for z in calls]), lattice)
    assert model_calls == [(11, 11)] * 3 + [(9, 9)]


@pytest.mark.parametrize("c3", [0.3, 0.5, 0.8])
def test_frozen_discord_under_phase_damping(c3):
    """Mazzola, Piilo & Maniscalco, PRL 104, 200401 (2010): damping scales
    c1 and c2 of the Bell-diagonal state c = (1, -c3, c3) by 1 - gamma, so
    its discord stays frozen up to gamma* = 1 - c3 and its classical
    correlation after, where the measurement axis jumps from e1 to e3."""
    params = BlochParams([0, 0, 0], [0, 0, 0], [1.0, -c3, c3])
    grid = np.linspace(0.0, 1.0, 11)  # gamma* on the grid: a tie of e1 and e3
    critical = 1.0 - c3
    rows = gamma_sweep(params, grid)
    reports = [damped_discord(params, PhaseDamping(g)) for g in grid]
    frozen_q, frozen_c = rows[0][1], reports[-1].classical_corr
    for (gamma, q, _), report in zip(rows, reports):
        assert q == report.discord
        # measured within 4.5e-16; at gamma = 1, Q reads -1.9e-16 for c3 = 0.3
        damped = damp_bloch(params, PhaseDamping(gamma)).c
        assert abs(q - bell_diagonal_discord(damped)) <= 1e-15
        axis = np.abs(report.argmax_axis)
        if gamma <= critical + 1e-12:
            assert abs(q - frozen_q) <= 1e-15
        if gamma >= critical - 1e-12:
            assert abs(report.classical_corr - frozen_c) <= 1e-15
        # off the tie the axis is e1 (the gamma = 0 row, with |c1| = 1, lies
        # 1.9e-8 off it) and then e3
        if gamma < critical - 1e-12:
            assert np.abs(axis - [1.0, 0.0, 0.0]).max() <= 1e-6
        elif gamma > critical + 1e-12:
            assert np.abs(axis - [0.0, 0.0, 1.0]).max() <= 1e-6


def test_gamma_sweep_werner_monotone():
    params = BlochParams([0, 0, 0], [0, 0, 0], [0.25, 0.25, 0.25])
    rows = gamma_sweep(params, np.linspace(0, 1, 11))
    gaps = [gap for _, _, gap in rows]
    assert all(b - a >= -1e-9 for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] == pytest.approx(0.0, abs=1e-10)


def test_gamma_sweep_invariant_family_zero_gap():
    rng = np.random.default_rng(233)
    params = draw_axial_zero(rng)
    rows = gamma_sweep(params, [0.0, 0.25, 0.5, 0.75, 1.0])
    for _, _, gap in rows:
        assert abs(gap) <= 1e-9


def test_gamma_sweep_rejects_bad_grids(ref_state_b):
    with pytest.raises(RangeError):
        gamma_sweep(ref_state_b, [0.5, 0.25])
    with pytest.raises(RangeError):
        gamma_sweep(ref_state_b, [0.5, 1.25])
    with pytest.raises(RangeError):
        gamma_sweep(ref_state_b, [])
    # a rate that is not finite, first or later: the grid check refuses it
    for bad in (np.nan, np.inf, -np.inf):
        for grid in ([bad], [bad, 0.5], [0.0, 0.25, bad], [0.25, bad, 0.75]):
            with pytest.raises(RangeError, match=r"gamma grid must lie inside \[0, 1\]"):
                gamma_sweep(ref_state_b, grid)
