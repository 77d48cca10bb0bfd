"""Tests for mutual information, classical correlation and the discord
closed forms against the numeric oracle."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from discordkit import (
    BlochParams,
    DiscordReport,
    DomainError,
    FamilyError,
    OptResult,
    PhaseDamping,
    PhysicalityError,
    RangeError,
    SphereOptConfig,
    build_state,
    classical_correlation_numeric,
    correlation_objective,
    damp_bloch,
    damped_discord,
    discord_auto,
    discord_axial,
    discord_numeric,
    discord_numeric_batch,
    discord_r0_isotropic,
    discord_s0_isotropic,
    discord_s0_isotropic_c_eq_r,
    discord_s0_planar,
    entropic_h,
    gamma_sweep,
    maximize_correlation_objective,
    mutual_information,
    partial_trace,
    planar_damped_gap,
    reduced_correlation_objective,
    theta_range,
    von_neumann_entropy,
    werner_damped_gap,
    werner_damped_gap_dgamma,
    werner_discord,
)
from discordkit import (
    METHOD_AXIAL_ZERO,
    METHOD_NUMERIC,
    METHOD_R0_ISOTROPIC,
    METHOD_S0_ISOTROPIC,
    METHOD_S0_ISOTROPIC_C_EQ_R,
    METHOD_S0_PLANAR,
    METHOD_WERNER,
)
import discordkit
from discordkit import cli, density
from discordkit import discord as discord_module
from discordkit import measurement as measurement_module
from discordkit.discord import C_EQ_R_MAX
from discordkit.measurement import _correlation_kernel, conditional_entropy
from discordkit.sampling import (
    draw_axial_zero,
    draw_general_batch,
    draw_r0_isotropic,
    draw_s0_isotropic,
    draw_s0_planar,
)

from _oracles import (
    array_mutual_informations,
    axial_reference_formula,
    discord_reference,
    mutual_information_reference,
    serial_sphere_search,
)

SINGLET = BlochParams([0, 0, 0], [0, 0, 0], [-1, -1, -1])

# regression values frozen from the independent reference implementation
# in _oracles.py (dense grid + scipy polish, numpy spectra)
REF_A_DISCORD = 0.2509412433027183
REF_A_MUTUAL = 0.324045251234528
REF_A_MAX_OBJECTIVE = 0.07310400793180993
REF_B_DISCORD = 0.07527161307432362
REF_B_MUTUAL = 0.14499021086512287
REF_B_MAX_OBJECTIVE = 0.10609271271085241
S0_ISO_R03_C02 = 0.07993038896376436
R0_ISO_S02_C02 = 0.07734801809343983
PLANAR_R004_C02 = 0.03237281651541801
AXIAL_B2_FIXTURE = 0.0012186756054127


def test_mutual_information_product_states():
    # genuine products representable in this family: one marginal trivial,
    # or both local vectors on the same axis with c3 = r3 s3
    rng = np.random.default_rng(109)
    for _ in range(20):
        r = rng.uniform(-0.9, 0.9) * (lambda v: v / np.linalg.norm(v))(
            rng.normal(size=3)
        )
        assert mutual_information(BlochParams(r, [0, 0, 0], [0, 0, 0])) == (
            pytest.approx(0.0, abs=1e-12)
        )
    for _ in range(20):
        a, b = rng.uniform(-0.9, 0.9, size=2)
        params = BlochParams([0, 0, a], [0, 0, b], [0, 0, a * b])
        assert mutual_information(params) == pytest.approx(0.0, abs=1e-12)


def test_zero_correlation_diagonal_is_classical_only():
    # with c = 0 and both marginals polarized the state is
    # quantum-classical: its mutual information is nonzero but entirely
    # classical, so the discord vanishes
    params = BlochParams([0.3, 0.1, 0.2], [0.2, -0.3, 0.1], [0, 0, 0])
    rep = discord_numeric(params)
    assert rep.mutual_info > 0.01
    assert rep.discord == pytest.approx(0.0, abs=1e-8)
    assert rep.classical_corr == pytest.approx(rep.mutual_info, abs=1e-8)


def test_mutual_information_singlet():
    assert mutual_information(SINGLET) == pytest.approx(2.0, abs=1e-12)


def test_mutual_information_reference(ref_state_a, ref_state_b):
    assert mutual_information(ref_state_a) == pytest.approx(REF_A_MUTUAL, abs=1e-12)
    assert mutual_information(ref_state_b) == pytest.approx(REF_B_MUTUAL, abs=1e-12)


def test_mutual_information_expanded_agrees():
    """The expanded form of ``mutual_information`` against
    S(rho_a) + S(rho_b) - S(rho) from numpy."""
    rng = np.random.default_rng(113)
    for params in draw_general_batch(rng, 100):
        assert mutual_information(params) == pytest.approx(
            mutual_information_reference(params), abs=1e-10
        )


def test_theta_range_values():
    assert theta_range(0.0, 0.3) == pytest.approx((0.09, 0.09))
    assert theta_range(0.3, 0.3) == pytest.approx((0.0, 0.36))
    assert theta_range(0.4, 0.0) == pytest.approx((0.16, 0.16))
    with pytest.raises(ValueError, match="c must be finite"):
        theta_range(0.3, np.inf)
    # an infinite |r| would give the interval (inf, inf); NaN fails as well
    for bad in (np.inf, -np.inf, np.nan, -0.1):
        with pytest.raises(ValueError, match="r_norm must be nonnegative and finite"):
            theta_range(bad, 0.3)


def test_reduced_objective_equal_at_interval_ends():
    rng = np.random.default_rng(127)
    for _ in range(50):
        c = rng.uniform(-0.3, 0.3)
        r_norm = rng.uniform(0, 0.5)
        lo, hi = theta_range(r_norm, c)
        g_lo = reduced_correlation_objective(lo, r_norm, c)
        g_hi = reduced_correlation_objective(hi, r_norm, c)
        assert abs(g_lo - g_hi) <= 1e-13


def test_reduced_objective_minimum_location():
    r_norm, c = 0.3, 0.2
    total = 2 * (r_norm**2 + c**2)
    thetas = np.linspace(0, total, 4001)
    values = reduced_correlation_objective(thetas, r_norm, c)
    assert thetas[np.argmin(values)] == pytest.approx(r_norm**2 + c**2, abs=1e-3)
    mid = np.searchsorted(thetas, r_norm**2 + c**2)
    assert np.all(np.diff(values[:mid]) <= 1e-15)
    assert np.all(np.diff(values[mid:]) >= -1e-15)


def test_reduced_objective_domain_error():
    with pytest.raises(DomainError):
        reduced_correlation_objective(-0.01, 0.3, 0.2)
    with pytest.raises(DomainError):
        reduced_correlation_objective(0.5, 0.3, 0.2)


def test_reduced_objective_rejects_a_negative_norm():
    # the value for -0.3 would be the one for +0.3
    with pytest.raises(ValueError, match="r_norm"):
        reduced_correlation_objective(0.1, -0.3, 0.2)


def test_s0_isotropic_zero_correlation_gives_zero():
    rng = np.random.default_rng(131)
    for _ in range(20):
        assert discord_s0_isotropic(rng.uniform(0, 1), 0.0) == pytest.approx(
            0.0, abs=1e-14
        )


def test_s0_isotropic_regression_value():
    assert discord_s0_isotropic(0.3, 0.2) == pytest.approx(S0_ISO_R03_C02, abs=1e-12)


def test_s0_isotropic_matches_numeric():
    rng = np.random.default_rng(137)
    for _ in range(25):
        params = draw_s0_isotropic(rng)
        closed = discord_s0_isotropic(params.r_norm, params.c[2])
        assert closed == pytest.approx(discord_numeric(params).discord, abs=1e-6)


def test_s0_isotropic_rejects_outside_family():
    with pytest.raises(DomainError):
        discord_s0_isotropic(0.9, 0.5)


def test_werner_values_and_numeric():
    assert werner_discord(0.0) == pytest.approx(0.0, abs=1e-14)
    # the fully entangled end of the range has unit discord
    assert werner_discord(-1.0) == pytest.approx(1.0, abs=1e-12)
    for c in (-0.7, -0.3, 0.1, 0.25, 1 / 3):
        params = BlochParams([0, 0, 0], [0, 0, 0], [c, c, c])
        assert werner_discord(c) == pytest.approx(
            discord_numeric(params).discord, abs=1e-8
        )
    with pytest.raises(DomainError):
        werner_discord(0.5)


def test_werner_agrees_with_general_form():
    for c in (-0.9, -0.4, 0.2, 1 / 3):
        assert werner_discord(c) == pytest.approx(
            discord_s0_isotropic(0.0, c), abs=1e-13
        )


def test_c_eq_r_slice_agrees_with_general_form():
    for c in (0.05, 0.15, 0.25, 0.305):
        general = (
            0.5 * entropic_h(c, c)
            + 0.5 * entropic_h(-c, np.sqrt(5) * c)
            - 0.5 * (entropic_h(0.0, 2 * c) + entropic_h(0.0, 0.0))
        )
        assert discord_s0_isotropic_c_eq_r(c) == pytest.approx(general, abs=1e-13)
        assert discord_s0_isotropic(c, c) == pytest.approx(general, abs=1e-13)


def test_c_eq_r_slice_matches_numeric():
    for c in (0.05, 0.2, 0.3):
        params = BlochParams([0, 0, c], [0, 0, 0], [c, c, c])
        assert discord_s0_isotropic_c_eq_r(c) == pytest.approx(
            discord_numeric(params).discord, abs=1e-8
        )


def test_c_eq_r_slice_domain():
    with pytest.raises(DomainError):
        discord_s0_isotropic_c_eq_r(0.0)
    with pytest.raises(DomainError):
        discord_s0_isotropic_c_eq_r(0.32)


def test_r0_isotropic_reduces_to_werner():
    for c in (-0.5, 0.2, 0.3):
        assert discord_r0_isotropic(0.0, c) == pytest.approx(
            werner_discord(c), abs=1e-13
        )


def test_r0_isotropic_zero_correlation():
    assert discord_r0_isotropic(0.4, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_r0_isotropic_regression_and_numeric():
    assert discord_r0_isotropic(0.2, 0.2) == pytest.approx(R0_ISO_S02_C02, abs=1e-12)
    rng = np.random.default_rng(139)
    for _ in range(25):
        params = draw_r0_isotropic(rng)
        closed = discord_r0_isotropic(params.s_norm, params.c[2])
        assert closed == pytest.approx(discord_numeric(params).discord, abs=1e-6)


def test_axial_zero_branch():
    rng = np.random.default_rng(149)
    for _ in range(20):
        params = draw_axial_zero(rng)
        assert discord_axial(params) == 0.0
        assert discord_numeric(params).discord == pytest.approx(0.0, abs=1e-8)


def test_axial_formula_contradicts_product_state():
    # a product state has no quantum correlation at all, yet the published
    # r = 0 axial formula (kept in the test oracles) evaluates to 1 on it;
    # discord_axial returns the numeric value instead
    params = BlochParams([0, 0, 0], [0.1, 0.1, 0.1], [0, 0, 0])
    assert axial_reference_formula(params) == pytest.approx(1.0)
    assert discord_axial(params) == pytest.approx(0.0, abs=1e-8)


def test_axial_formula_fails_against_the_oracle():
    # seeded r = 0 axial states (uniform-c draws with c1 = c2 zeroed): the
    # published formula is undefined on some and off by far more than the
    # verify tolerance on the rest
    rng = np.random.default_rng(0)
    states = []
    for _ in range(20):
        p = draw_r0_isotropic(rng)
        states.append(BlochParams(p.r, p.s, [0.0, 0.0, p.c[2]]))
    worst, undefined = 0.0, 0
    for params, report in zip(states, discord_numeric_batch(states)):
        try:
            value = axial_reference_formula(params)
        except ValueError:
            undefined += 1
            continue
        worst = max(worst, abs(value - report.discord))
    assert 0 < undefined < len(states)
    assert worst > 0.1


def test_axial_second_branch_oracle_fixture(ref_state_a):
    params = BlochParams([0, 0, 0], [0.1, 0.2, 0.2], [0, 0, 0.3])
    assert discord_axial(params) == pytest.approx(AXIAL_B2_FIXTURE, abs=1e-9)


def test_axial_rejects_other_families():
    with pytest.raises(FamilyError):
        discord_axial(BlochParams([0, 0, 0], [0, 0, 0], [0.1, 0, 0.2]))
    with pytest.raises(FamilyError):
        discord_axial(BlochParams([0.1, 0, 0], [0.1, 0, 0], [0, 0, 0.2]))


def test_planar_zero_correlation():
    assert discord_s0_planar([0.1, 0.2, 0.3], 0.0) == pytest.approx(0.0, abs=1e-14)


def test_planar_reference_and_degenerate(ref_state_b):
    assert discord_s0_planar([0.1, 0.2, 0.0], 0.3) == pytest.approx(
        REF_B_DISCORD, abs=1e-12
    )
    assert discord_s0_planar([0.0, 0.0, 0.4], 0.2) == pytest.approx(
        PLANAR_R004_C02, abs=1e-12
    )
    degenerate = BlochParams([0, 0, 0.4], [0, 0, 0], [0.2, 0.2, 0])
    assert discord_s0_planar([0.0, 0.0, 0.4], 0.2) == pytest.approx(
        discord_numeric(degenerate).discord, abs=1e-6
    )


def test_planar_matches_numeric():
    rng = np.random.default_rng(151)
    for _ in range(25):
        params = draw_s0_planar(rng)
        closed = discord_s0_planar(params.r, params.c[0])
        assert closed == pytest.approx(discord_numeric(params).discord, abs=1e-6)


def test_planar_rejects_outside_family():
    with pytest.raises(DomainError):
        discord_s0_planar([0.9, 0.0, 0.0], 0.6)


@pytest.mark.parametrize("route", [
    lambda r: discord_s0_planar(r, 0.2),
    lambda r: planar_damped_gap(r, 0.2, 0.5),
], ids=["closed-form", "damped-gap"])
@pytest.mark.parametrize("r", [[0.1, 0.2], [0.1, 0.2, 0.0, 0.0], [[0.1, 0.2, 0.0]]])
def test_planar_rejects_a_malformed_r(route, r):
    with pytest.raises(ValueError, match="r must be a real 3-vector"):
        route(r)


def test_numeric_quantum_classical_states_zero():
    # c = 0 with both marginals polarized: correlated (not a product), but
    # classical on b, so the discord vanishes; |r| + |s| <= 1 keeps the
    # zero-c family physical
    rng = np.random.default_rng(157)
    for _ in range(10):
        params = BlochParams(
            rng.uniform(-0.28, 0.28, size=3),
            rng.uniform(-0.28, 0.28, size=3),
            [0, 0, 0],
        )
        assert discord_numeric(params).discord == pytest.approx(0.0, abs=1e-8)


def test_numeric_reference_states(ref_state_a, ref_state_b):
    rep_a = discord_numeric(ref_state_a)
    assert rep_a.discord == pytest.approx(REF_A_DISCORD, abs=1e-9)
    rep_b = discord_numeric(ref_state_b)
    assert rep_b.discord == pytest.approx(REF_B_DISCORD, abs=1e-9)


def test_numeric_classical_classical_state():
    params = BlochParams([0, 0, 0], [0, 0, 0], [0, 0, 0.4])
    assert discord_numeric(params).discord == pytest.approx(0.0, abs=1e-10)


def test_classical_correlation_vanishes_on_products():
    rng = np.random.default_rng(161)
    for _ in range(5):
        r = rng.uniform(-0.8, 0.8) * (lambda v: v / np.linalg.norm(v))(
            rng.normal(size=3)
        )
        params = BlochParams(r, [0, 0, 0], [0, 0, 0])
        classical, _ = classical_correlation_numeric(params)
        assert classical == pytest.approx(0.0, abs=1e-10)


def test_measurement_rejects_non_unit_axis(ref_state_a):
    from discordkit import NormError

    with pytest.raises(NormError):
        correlation_objective(ref_state_a, [0.0, 0.0, 0.5])


NAN = float("nan")
NAN_CASES = [
    (werner_discord, (NAN,), DomainError),
    (discord_s0_isotropic, (NAN, 0.2), ValueError),
    (discord_s0_isotropic, (0.2, NAN), DomainError),
    (discord_s0_isotropic, (0.0, NAN), DomainError),
    (discord_s0_isotropic_c_eq_r, (NAN,), DomainError),
    (discord_r0_isotropic, (NAN, 0.2), ValueError),
    (discord_r0_isotropic, (0.2, NAN), DomainError),
    (discord_s0_planar, ([NAN, 0.0, 0.0], 0.2), DomainError),
    (discord_s0_planar, ([0.1, NAN, 0.0], 0.2), DomainError),
    (discord_s0_planar, ([0.1, 0.0, NAN], 0.2), DomainError),
    (discord_s0_planar, ([0.1, 0.2, 0.3], NAN), DomainError),
    (werner_damped_gap, (NAN, 0.5), DomainError),
    (werner_damped_gap, (0.2, NAN), RangeError),
    (werner_damped_gap_dgamma, (NAN, 0.5), DomainError),
    (planar_damped_gap, ([NAN, 0.0, 0.0], 0.2, 0.5), DomainError),
    (planar_damped_gap, ([0.1, 0.2, NAN], 0.2, 0.5), DomainError),
    (planar_damped_gap, ([0.1, 0.2, 0.3], NAN, 0.5), DomainError),
    (planar_damped_gap, ([0.1, 0.2, 0.3], 0.2, NAN), RangeError),
    (entropic_h, (NAN, 0.3), DomainError),
    (entropic_h, (0.0, NAN), DomainError),
    (entropic_h, (0.0, np.array([0.1, NAN])), DomainError),
    (reduced_correlation_objective, (NAN, 0.3, 0.2), DomainError),
    (reduced_correlation_objective, (np.array([0.1, NAN]), 0.3, 0.2), DomainError),
    (reduced_correlation_objective, (0.1, NAN, 0.2), DomainError),
    (reduced_correlation_objective, (0.1, 0.3, NAN), DomainError),
    (theta_range, (NAN, 0.2), ValueError),
    (theta_range, (0.3, NAN), ValueError),
]


@pytest.mark.parametrize(
    "func, args, error",
    NAN_CASES,
    ids=[f"{f.__name__}-{k}" for k, (f, _, _) in enumerate(NAN_CASES)],
)
def test_nan_state_arguments_raise(func, args, error):
    # A NaN norm, c, r component, eps, x or theta fails the floor or norm
    # checks instead of coming out as a number; a NaN gamma fails the
    # channel's range check.
    with pytest.raises(error):
        func(*args)


INF = float("inf")
INF_CASES = [
    (werner_discord, (INF,)),
    (werner_discord, (-INF,)),
    (discord_s0_isotropic_c_eq_r, (INF,)),
    (discord_s0_isotropic, (0.1, INF)),
    (discord_r0_isotropic, (0.1, INF)),
    (discord_r0_isotropic, (0.1, -INF)),
    (discord_s0_planar, ([0.1, 0.2, 0.3], INF)),
    (discord_s0_planar, ([INF, 0.0, 0.0], 0.1)),
    (werner_damped_gap, (INF, 0.5)),
    (werner_damped_gap_dgamma, (INF, 0.5)),
    (planar_damped_gap, ([0.1, 0.0, 0.0], INF, 0.5)),
]


@pytest.mark.parametrize(
    "func, args",
    INF_CASES,
    ids=[f"{f.__name__}-{k}" for k, (f, _) in enumerate(INF_CASES)],
)
def test_infinite_state_arguments_raise_as_nan_does(func, args):
    # each infinite c or r component raises the error a NaN in its place
    # raises (NAN_CASES), before numpy can warn about an inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            func(*args)


HUGE_CASES = [
    (discord_s0_planar, ([0.1, 0.0, 0.0], 1e100)),
    (discord_s0_planar, ([0.1, 0.0, 0.0], -1e100)),
    (discord_s0_planar, ([0.1, 0.0, 0.0], 1.7e308)),
    (discord_s0_planar, ([1e200, 0.0, 0.0], 0.1)),
    (planar_damped_gap, ([0.1, 0.0, 0.0], 1e100, 0.5)),
]


@pytest.mark.parametrize(
    "func, args",
    HUGE_CASES,
    ids=[f"{f.__name__}-{k}" for k, (f, _) in enumerate(HUGE_CASES)],
)
def test_huge_planar_arguments_raise_as_nan_does(func, args):
    # a finite c or r far outside the physical range, where c**4 or r . r
    # would overflow, fails the eigenvalue floor before either is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="s0-planar family"):
            func(*args)


def test_classical_correlation_identity():
    """C agrees with S(rho_a) - min_z conditional entropy, the minimum being
    attained at the reported axis."""
    rng = np.random.default_rng(163)
    for params in draw_general_batch(rng, 10):
        classical, axis = classical_correlation_numeric(params)
        s_a = von_neumann_entropy(partial_trace(build_state(params), "a"))
        assert classical == pytest.approx(
            s_a - conditional_entropy(params, axis), abs=1e-10
        )


def test_report_fields_consistent(ref_state_a):
    rep = discord_numeric(ref_state_a)
    assert rep.discord == rep.mutual_info - rep.classical_corr
    assert rep.method == METHOD_NUMERIC
    assert rep.spectrum.shape == (4,)
    assert abs(np.linalg.norm(rep.argmax_axis) - 1.0) <= 1e-12
    assert rep.mutual_info >= -1e-9
    assert rep.classical_corr >= -1e-9
    assert rep.discord >= -1e-9


def test_optimizer_lands_on_theta_interval_end():
    rng = np.random.default_rng(167)
    for _ in range(10):
        params = draw_s0_isotropic(rng)
        r_norm, c = params.r_norm, params.c[2]
        res = maximize_correlation_objective(params)
        lo, hi = theta_range(r_norm, c)
        expected = max(
            reduced_correlation_objective(lo, r_norm, c),
            reduced_correlation_objective(hi, r_norm, c),
        )
        assert res.value == pytest.approx(expected, abs=1e-9)
        theta_star = float(np.sum((params.r + c * res.axis) ** 2))
        assert min(abs(theta_star - lo), abs(theta_star - hi)) <= 1e-6


def test_s0_isotropic_internal_identity():
    """Closed form equals 2 + sum(lam log2 lam) - max G reassembled from its
    pieces."""
    rng = np.random.default_rng(173)
    for _ in range(25):
        params = draw_s0_isotropic(rng)
        r_norm, c = params.r_norm, params.c[2]
        big = np.sqrt(4 * c**2 + r_norm**2)
        lam = np.array(
            [1 + c + r_norm, 1 + c - r_norm, 1 - c + big, 1 - c - big]
        ) / 4.0
        lam = lam[lam > 1e-12]
        max_g = 0.5 * (
            entropic_h(0.0, r_norm + abs(c)) + entropic_h(0.0, abs(r_norm - abs(c)))
        )
        reassembled = 2.0 + float(np.sum(lam * np.log2(lam))) - max_g
        assert discord_s0_isotropic(r_norm, c) == pytest.approx(
            reassembled, abs=1e-12
        )


def test_log_ratio_slope_strictly_increasing():
    x = np.linspace(1e-4, 1 - 1e-9, 10000)
    g = np.log2((1 + x) / (1 - x)) / x
    assert np.all(np.diff(g) > 0)


def test_discord_nonnegative_on_random_states():
    rng = np.random.default_rng(179)
    for params in draw_general_batch(rng, 40):
        assert discord_numeric(params).discord >= -1e-8


def test_numeric_against_independent_reference():
    rng = np.random.default_rng(181)
    for params in draw_general_batch(rng, 3):
        assert discord_numeric(params).discord == pytest.approx(
            discord_reference(params), abs=1e-7
        )


# One state per dispatch branch, and one that no closed form serves.
DISPATCH_EXAMPLES = [
    (BlochParams([0, 0, 0], [0, 0, 0], [0.25, 0.25, 0.25]), METHOD_WERNER),
    (BlochParams([0, 0, 0.3], [0, 0, 0], [0.2, 0.2, 0.2]), METHOD_S0_ISOTROPIC),
    (
        BlochParams([0, 0, 0.2], [0, 0, 0], [0.2, 0.2, 0.2]),
        METHOD_S0_ISOTROPIC_C_EQ_R,
    ),
    (BlochParams([0, 0, 0], [0, 0, 0.3], [0.2, 0.2, 0.2]), METHOD_R0_ISOTROPIC),
    (BlochParams([0.3, 0, 0.2], [0, 0, 0], [0, 0, 0.4]), METHOD_AXIAL_ZERO),
    (BlochParams([0.1, 0.2, 0], [0, 0, 0], [0.3, 0.3, 0]), METHOD_S0_PLANAR),
    (BlochParams([0, 0, 0], [0.1, 0.2, 0.2], [0.1, 0.2, 0.3]), METHOD_NUMERIC),
]


@pytest.mark.parametrize(
    "params, method",
    DISPATCH_EXAMPLES
    # Just past the Werner and c = |r| PSD bounds: the smallest eigenvalue
    # stays above -1e-9, so the gate accepts these states.
    + [
        (BlochParams([0, 0, 0], [0, 0, 0], [c, c, c]), METHOD_WERNER)
        for c in (1 / 3 + 1e-11, 1 / 3 + 1e-10, 1 / 3 + 1e-9)
    ]
    + [
        (BlochParams([0, 0, k], [0, 0, 0], [k, k, k]), METHOD_S0_ISOTROPIC_C_EQ_R)
        for k in (C_EQ_R_MAX + 1e-11, C_EQ_R_MAX + 1e-10, C_EQ_R_MAX + 1e-9)
    ]
    # Just past the singlet end c = -1: the numeric objective meets log
    # arguments down to 1 - |c| = -1e-9, within four times the gate floor.
    + [
        (BlochParams([0, 0, 0], [0, 0, 0], [c, c, c]), METHOD_WERNER)
        for c in (-1 - 1e-11, -1 - 1e-10, -1 - 1e-9)
    ],
)
def test_auto_dispatch_tags_and_values(params, method):
    rep = discord_auto(params)
    assert rep.method == method
    assert rep.discord == pytest.approx(discord_numeric(params).discord, abs=1e-6)


def test_family_membership_runs_no_closed_form(monkeypatch, capsys):
    """The family table is the one place the closed-form families are
    named, and membership is decided from the predicates alone: with every
    closed form patched to raise, the classifier still picks each dispatch
    example's row and ``curve`` still prints the same CSV."""
    curve_states = [
        ["--r=0,0,0", "--s=0,0,0", "--c=0.25,0.25,0.25"],  # Werner
        ["--r=0,0,0.3", "--s=0,0,0", "--c=0.2,0.2,0.2"],  # s0-isotropic
        ["--r=0,0,0.2", "--s=0,0,0", "--c=0.2,0.2,0.2"],  # c = |r|
        ["--r=0.1,0.2,0.1", "--s=0,0,0", "--c=0.3,0.3,0"],  # in-plane
    ]

    def curve_csv(flags):
        assert cli.main(["curve", *flags]) == 0
        return capsys.readouterr().out

    unpatched = [curve_csv(flags) for flags in curve_states]

    def closed_form(*args):
        raise AssertionError("a closed form ran")

    for name in ("werner_discord", "discord_s0_isotropic", "discord_s0_isotropic_c_eq_r",
                 "discord_r0_isotropic", "discord_s0_planar"):
        monkeypatch.setattr(discord_module, name, closed_form)
    assert [curve_csv(flags) for flags in curve_states] == unpatched
    for params, method in DISPATCH_EXAMPLES:
        row = discord_module._family(params)
        assert (METHOD_NUMERIC if row is None else row.method) == method

    methods = {getattr(discordkit, name) for name in discordkit.__all__
               if name.startswith("METHOD_")} - {METHOD_NUMERIC}
    assert sorted(row.method for row in discord_module._FAMILIES) == sorted(methods)
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    families = next(a for a in commands.choices["verify"]._actions if a.dest == "families")
    assert families.choices == ("s0-isotropic", "r0-isotropic", "axial-zero", "s0-planar")


_SMALL_CFG = SphereOptConfig(grid_points=50, refine_rounds=2, local_points=8)
_GENERAL = BlochParams([0.1, 0, 0.2], [0.1, 0.2, 0.2], [0.1, 0.2, 0.3])


@pytest.mark.parametrize(
    "route, n",
    [
        (lambda: discord_numeric(_GENERAL, _SMALL_CFG), 1),
        (lambda: discord_auto(BlochParams([0, 0, 0.3], [0, 0, 0], [0.2, 0.2, 0.2])), 1),
        (lambda: discord_auto(_GENERAL, _SMALL_CFG), 1),
        (lambda: damped_discord(_GENERAL, PhaseDamping(0.4), _SMALL_CFG), 1),
        (lambda: discord_numeric_batch([_GENERAL], _SMALL_CFG), 1),
        (lambda: discord_numeric_batch([_GENERAL] * 3, _SMALL_CFG), 3),
        (lambda: gamma_sweep(_GENERAL, [0.0, 0.25, 0.5, 1.0], _SMALL_CFG), 4),
        (lambda: gamma_sweep(_GENERAL, [0.25, 0.5], _SMALL_CFG), 3),
    ],
    ids=["numeric", "auto-closed-form", "auto-general", "damped", "batch", "batch-3",
         "sweep-from-0", "sweep"],
)
def test_one_spectrum_per_state(monkeypatch, route, n):
    # one stacked eigensolve per batch: the gate's spectra serve the reports
    shapes = []
    eigenvalues = density._eigenvalues

    def counting(rho):
        shapes.append(np.shape(rho))
        return eigenvalues(rho)

    monkeypatch.setattr(density, "_eigenvalues", counting)
    route()
    assert shapes == [(n, 4, 4)]


def test_auto_report_reconstructs_classical_corr(ref_state_b):
    rep = discord_auto(ref_state_b)
    assert rep.method == METHOD_S0_PLANAR
    assert rep.classical_corr == pytest.approx(
        -entropic_h(0.0, ref_state_b.r_norm) + REF_B_MAX_OBJECTIVE, abs=1e-9
    )


def _assert_same_report(a: DiscordReport, b: DiscordReport) -> None:
    for field in fields(DiscordReport):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def _mixed_batch() -> list[BlochParams]:
    """47 states for one lockstep search: general draws, flat, product and
    boundary rows, the two one-sided families, and a damp sweep."""
    rng = np.random.default_rng(239)
    werner = BlochParams([0, 0, 0], [0, 0, 0], [0.2, 0.2, 0.2])  # flat objective
    # c = 0 with both marginals polarized: correlated, but classical on b
    classical_on_b = BlochParams([0.1, -0.2, 0.3], [0.2, 0.1, -0.1], [0, 0, 0])
    product = BlochParams([0, 0, 0.3], [0, 0, 0.4], [0, 0, 0.12])  # flat objective
    # its smallest eigenvalue lies in [-1e-9, 0), and the report clamps it
    k = C_EQ_R_MAX + 1e-10
    boundary = BlochParams([0, 0, k], [0, 0, 0], [k, k, k])
    assert -1e-9 <= density._gated_state(boundary)[1][-1] < 0.0
    r0 = BlochParams([0, 0, 0], [0.2, -0.1, 0.3], [0.3, -0.2, 0.1])
    s0 = BlochParams([0.1, 0.3, -0.2], [0, 0, 0], [-0.2, 0.3, 0.1])
    # the batch gamma_sweep hands discord_numeric_batch on a 0:1:0.1 grid
    swept = draw_general_batch(rng, 1)[0]
    sweep = [swept] + [damp_bloch(swept, PhaseDamping(g / 10)) for g in range(1, 11)]
    # 47 states in one lockstep search
    states = draw_general_batch(rng, 20) + [werner, classical_on_b, product, boundary]
    states += [r0, s0] + sweep + draw_general_batch(rng, 10)
    assert len(states) == 47
    return states


def test_numeric_batch_equals_one_state_at_a_time():
    states = _mixed_batch()
    batch = discord_numeric_batch(iter(states))
    assert len(batch) == 47
    for params, report in zip(states, batch):
        _assert_same_report(report, discord_numeric(params))


def test_batch_search_diagnostics_equal_one_state_at_a_time():
    # the polish steps every row in lockstep, so each row's Newton steps,
    # evaluations and certificate, not only its report, must be those of a
    # search run on it alone
    states = _mixed_batch()
    batch = discord_module._correlation_search(states, None)
    assert {res.refine_rounds for res in batch} == {0, 40}  # both routes run
    for params, res in zip(states, batch):
        alone = discord_module._correlation_search([params], None)[0]
        for field in fields(OptResult):
            assert np.array_equal(getattr(res, field.name), getattr(alone, field.name),
                                  equal_nan=True), field.name


def test_newton_model_evaluates_the_moved_rows_only(monkeypatch):
    # the polish calls the model on every row at the lattice incumbents and
    # at the scan's extra basins, then on the rows each trial moves, named by
    # their search indices (an extra row repeats its search's): so a search
    # is evaluated once per polish start and per Newton trial its result
    # counts, and never after it stopped; a row the cap rounds refine starts
    # one more polish where they end
    calls = []
    search = discord_module.maximize_batch

    def recording_search(f, n, cfg, model):
        def recording_model(z, basis, rows=None):
            if rows is None:
                calls.append(list(range(n)))
                return model(z, basis)
            # a call naming its rows is never the n searches in order
            assert list(rows) != list(range(n)) and set(rows) <= set(range(n))
            calls.append(list(rows))
            return model(z, basis, rows)

        return search(f, n, cfg, recording_model)

    monkeypatch.setattr(discord_module, "maximize_batch", recording_search)
    states = _mixed_batch()
    results = discord_module._correlation_search(states, None)
    assert any(len(rows) < len(states) for rows in calls[1:])
    assert calls[0][: len(states)] == list(range(len(states)))
    for i, res in enumerate(results):
        trials = res.evaluations - 500 - 64 * res.refine_rounds
        starts = calls[0].count(i) + (res.refine_rounds > 0)
        assert sum(rows.count(i) for rows in calls) == starts + trials


def _near_floor_batch() -> list[BlochParams]:
    """General draws scaled toward I/4 (the spectrum scales about 1/4) until
    their smallest eigenvalue lies in [-1e-9, 0)."""
    rng = np.random.default_rng(241)
    states = []
    for params in draw_general_batch(rng, 60):
        t = (rng.uniform(-0.99e-9, -1e-12) - 0.25) / (density._gated_state(params)[1][-1] - 0.25)
        scaled = BlochParams(t * params.r, t * params.s, t * params.c)
        if -1e-9 <= density._gated_state(scaled)[1][-1] < 0.0:
            states.append(scaled)
    assert len(states) >= 50
    return states


def test_float_mutual_informations_equal_the_array_formula():
    # the float pass of _mutual_informations sums every state's terms in the
    # order of the array formula, so each value is bit for bit the same
    batches = [_mixed_batch(), _near_floor_batch()]
    for draw in (draw_s0_isotropic, draw_r0_isotropic, draw_axial_zero, draw_s0_planar):
        rng = np.random.default_rng(0)
        batches.append([draw(rng) for _ in range(100)])
    for states in batches:
        spectra = density._gated_states(states)[1]
        mutual, h_r = discord_module._mutual_informations(states, spectra)
        expected_mutual, expected_h_r = array_mutual_informations(states, spectra)
        assert all(type(v) is float for v in mutual + h_r)
        assert [v.hex() for v in mutual] == [v.hex() for v in expected_mutual.tolist()]
        assert [v.hex() for v in h_r] == [v.hex() for v in expected_h_r.tolist()]


def test_mutual_informations_make_one_xlog2_pass(monkeypatch):
    # 1 +- |r|, 1 +- |s| and the four eigenvalues of every state of the batch
    # go through one _xlog2 call, whatever the batch size
    xlog2, calls = density._xlog2, []

    def counting_xlog2(t):
        calls.append(np.size(t))
        return xlog2(t)

    monkeypatch.setattr(density, "_xlog2", counting_xlog2)
    monkeypatch.setattr(discord_module, "_xlog2", counting_xlog2)
    states = _mixed_batch()
    for n in (1, 2, 47):
        spectra = density._gated_states(states[:n])[1]
        calls.clear()
        discord_module._mutual_informations(states[:n], spectra)
        assert calls == [8 * n]


def test_batch_gate_equals_the_one_state_gate_bit_for_bit():
    # one stacked eigensolve gives each state the spectrum of an eigensolve
    # of its own 4x4 matrix
    for states in (_mixed_batch(), _near_floor_batch()):
        rho, lam = density._gated_states(states)
        assert rho.shape == (len(states), 4, 4) and lam.shape == (len(states), 4)
        for params, rho_i, lam_i in zip(states, rho, lam):
            alone = density._family_matrix(params.r.tolist(), params.s.tolist(), params.c.tolist())
            assert rho_i.tobytes() == alone.tobytes()
            assert lam_i.tobytes() == np.linalg.eigvalsh(alone)[::-1].tobytes()
            one_rho, one_lam = density._gated_state(params)
            assert one_rho.tobytes() == alone.tobytes() and one_lam.tobytes() == lam_i.tobytes()


def test_batch_gate_raises_on_the_first_unphysical_state():
    werner = BlochParams([0, 0, 0], [0, 0, 0], [1, 1, 1])  # smallest eigenvalue -1/2
    axial = BlochParams([0.9, 0, 0], [0, 0, 0], [0, 0, 0.9])  # -6.8e-2
    batch = [_GENERAL, werner, _GENERAL, axial]
    message = "smallest eigenvalue -5.000e-01 below -1e-09"
    for route in (density._gated_states, discord_numeric_batch,
                  lambda states: discord_module._reports(states, None, closed_forms=True)):
        with pytest.raises(PhysicalityError) as caught:
            route(batch)
        assert str(caught.value) == message
    with pytest.raises(PhysicalityError, match="-6.8"):
        density._gated_states([_GENERAL, axial])


def test_numeric_batch_gates_every_state_before_searching(monkeypatch):
    searches = []
    monkeypatch.setattr(discord_module, "maximize_batch", lambda *a: searches.append(a))
    unphysical = BlochParams([0, 0, 0], [0, 0, 0], [1, 1, 1])
    with pytest.raises(PhysicalityError):
        discord_numeric_batch([SINGLET] * 40 + [unphysical])
    assert searches == []
    assert discord_numeric_batch([]) == []


def test_one_builder_batch_equals_discord_auto_state_by_state():
    # family draws interleaved with general ones: the closed forms serve
    # some states, the others share one search, and every report must
    # come back to its own state
    rng = np.random.default_rng(14)
    samplers = (draw_s0_isotropic, draw_r0_isotropic, draw_axial_zero, draw_s0_planar)
    states = [
        p for k, general in enumerate(draw_general_batch(rng, 16))
        for p in (samplers[k % 4](rng), general)
    ]
    reports = discord_module._reports(states, None, closed_forms=True)
    assert len(reports) == len(states)
    methods = {report.method for report in reports}
    assert METHOD_NUMERIC in methods and len(methods) >= 4
    for params, report in zip(states, reports):
        _assert_same_report(report, discord_auto(params))


# The gate's LAPACK spectrum puts its smallest eigenvalue just above
# -1e-9, the s0-isotropic closed form's analytic spectrum just below.
_REFUSED_BY_ITS_CLOSED_FORM = BlochParams(
    [0.3468229929777717, 0.03351376305701353, 0.6446504091617274],
    [0, 0, 0],
    [-0.26720841643592075] * 3,
)


def test_state_its_closed_form_refuses_is_answered_numerically():
    params = _REFUSED_BY_ITS_CLOSED_FORM
    assert -1e-9 <= min(density._gated_state(params)[1]) < 0.0
    with pytest.raises(DomainError, match="s0-isotropic"):
        discord_s0_isotropic(params.r_norm, params.c[2])
    report = discord_auto(params)
    assert report.method == METHOD_NUMERIC
    _assert_same_report(report, discord_numeric(params))


def _gate_edge(params: BlochParams, marginal: str) -> list[BlochParams]:
    """Both ends of a bisection of the scale of ``marginal`` (r or s) to
    where the PSD gate starts to refuse the state; adjacent floats."""

    def scaled(k):
        if marginal == "r":
            return BlochParams(k * params.r, params.s, params.c)
        return BlochParams(params.r, k * params.s, params.c)

    def gated(k):
        try:
            build_state(scaled(k))
        except PhysicalityError:
            return False
        return True

    lo, hi = 1.0, 2.0
    while gated(hi):
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if gated(mid) else (lo, mid)
    return [scaled(lo), scaled(hi)]


@pytest.mark.parametrize(
    "draw, marginal",
    [(draw_s0_isotropic, "r"), (draw_r0_isotropic, "s"), (draw_s0_planar, "r")],
    ids=["s0-isotropic", "r0-isotropic", "s0-planar"],
)
def test_family_states_at_the_gate_floor_get_a_report(draw, marginal):
    # growing the nonzero marginal moves the smallest eigenvalue down to the
    # gate's floor; there the closed form's analytic spectrum may round to
    # either side of it, and a state the gate accepts must get an answer
    rng = np.random.default_rng(1)
    accepted = served_numerically = 0
    for _ in range(40):
        for params in _gate_edge(draw(rng), marginal):
            try:
                build_state(params)
            except PhysicalityError:
                continue
            accepted += 1
            report = discord_auto(params)
            assert np.isfinite(report.discord)
            if report.method == METHOD_NUMERIC:
                served_numerically += 1
                _assert_same_report(report, discord_numeric(params))
    assert accepted == 40 and served_numerically > 0


@pytest.mark.parametrize("r, c", [((0, 0, 0.3), 0.4), ((0, 0, -0.5), -0.3)])
def test_planar_state_with_r_on_e3_takes_axis_e1(r, c):
    # r1 = r2 = 0: the objective is symmetric about e3, and e1 is the axis
    # the closed form reports
    params = BlochParams(r, [0, 0, 0], [c, c, 0])
    report, numeric = discord_auto(params), discord_numeric(params)
    assert report.method == METHOD_S0_PLANAR
    assert np.array_equal(report.argmax_axis, [1.0, 0.0, 0.0])
    assert abs(report.discord - numeric.discord) <= 1e-15
    maximum = maximize_correlation_objective(params).value
    assert abs(correlation_objective(params, report.argmax_axis) - maximum) <= 1e-15


@pytest.mark.parametrize("params", [
    BlochParams([0.9, 0, 0], [0, 0, 0], [0.5, 0.5, 0.5]),  # once a DomainError
    BlochParams([0, 0, 0], [0, 0, 0], [1, 1, 1]),  # once C = 1
])
def test_classical_correlation_numeric_gates_physicality(params):
    # the value is read off discord_numeric's report, so the PSD gate
    # runs before the search
    with pytest.raises(PhysicalityError):
        classical_correlation_numeric(params)


# Werner c = 0.34 is past the PSD bound 1/3, yet every 2x2 compression of it
# is PSD, so the objective's log floor alone would answer it; the axial state
# has lambda_min -6.8e-2 and sits in the axial-zero family.
_UNPHYSICAL_WERNER = BlochParams([0, 0, 0], [0, 0, 0], [0.34] * 3)
_UNPHYSICAL_AXIAL = BlochParams([0.9, 0, 0], [0, 0, 0], [0, 0, 0.9])
_ANSWERING_ROUTES = {
    "discord_auto": discord_auto,
    "discord_numeric": discord_numeric,
    "discord_numeric_batch": lambda p: discord_numeric_batch([p]),
    "classical_correlation_numeric": classical_correlation_numeric,
    "maximize_correlation_objective": maximize_correlation_objective,
    "mutual_information": mutual_information,
    "damped_discord": lambda p: damped_discord(p, PhaseDamping(0.0)),
    "gamma_sweep": lambda p: gamma_sweep(p, [0.0, 0.5]),
}


@pytest.mark.parametrize("name", sorted(_ANSWERING_ROUTES))
@pytest.mark.parametrize("params", [_UNPHYSICAL_WERNER, _UNPHYSICAL_AXIAL],
                         ids=["werner-0.34", "axial"])
def test_no_answering_route_accepts_a_state_the_gate_refuses(name, params):
    with pytest.raises(PhysicalityError):
        build_state(params)
    with pytest.raises(PhysicalityError):
        _ANSWERING_ROUTES[name](params)


def test_axial_zero_branch_gates_physicality():
    with pytest.raises(PhysicalityError):
        discord_axial(_UNPHYSICAL_AXIAL)
    # the family checks still come first
    with pytest.raises(FamilyError):
        discord_axial(BlochParams([0.9, 0, 0], [0, 0, 0], [0.9, 0, 0.9]))


def _forty_round_search(
    params: BlochParams, grid_points: int = SphereOptConfig.grid_points
) -> tuple[float, np.ndarray, int]:
    """The plain 40-round search of the correlation objective."""
    r, s, c = (v[None, :] for v in (params.r, params.s, params.c))
    return serial_sphere_search(
        lambda z: _correlation_kernel(r, s, c, z[None])[0],
        SphereOptConfig(grid_points=grid_points, hemisphere=True),
    )


def test_newton_polish_matches_forty_round_search():
    general = draw_general_batch(np.random.default_rng(887), 150)
    # damped images and family draws: weaker curvature, maxima on the pole
    # (gamma = 1) or on the equator (s0-planar), and a few flat rows
    rng = np.random.default_rng(889)
    others = [damp_bloch(p, PhaseDamping(g)) for g in (0.5, 1.0) for p in general[:25]]
    others += [
        draw(rng)
        for draw in (draw_s0_planar, draw_r0_isotropic, draw_s0_isotropic, draw_axial_zero)
        for _ in range(25)
    ]
    # near-Werner s0-isotropic states: curvature about -2e-8, where a tangent
    # gradient of 1e-10 alone would certify a point 2e-13 below the maximum
    others += [
        BlochParams(r, [0, 0, 0], [c, c, c])
        for r, c in [([0.003, 0, 0], 0.05), ([0.002, 0, 0], 0.07), ([0, 0, 0.002], 0.07)]
    ]
    states = general + others
    results = discord_module._correlation_search(states, None)
    for i, (params, res) in enumerate(zip(states, results)):
        value, axis, _ = _forty_round_search(params)
        offset = -entropic_h(0.0, params.r_norm)
        gap = (offset + res.value) - (offset + value)
        # measured over [-7.8e-16, 2.2e-16] here: a certified row may stop
        # where its quadratic model still rises up to 1e-15, and above the
        # 40-round value it sits by rounding only
        assert -1e-15 <= gap <= 5e-16
        if np.isnan(res.hessian_max_eig):
            # uncertified: the row ends exactly where the 40-round search ends
            assert i >= len(general)
            assert res.value == value and np.array_equal(res.axis, axis)
            assert (res.refine_rounds, res.newton_steps) == (40, 0)
            continue
        assert res.refine_rounds == 0 and res.newton_steps >= 1
        assert res.gradient_norm <= 1e-10 and res.hessian_max_eig < 0.0
        # the 40-round search moves only on a strictly higher computed value,
        # so near a weakly curved maximum its axis settles where rounding
        # hides the rise; the pin allows sqrt(4e-14 / |lam|), where the value
        # has dropped by 2e-14 at curvature lam.  Axes are compared up to
        # sign, since z and -z are the same measurement (an s0-planar
        # maximum lies on the equator, where both are in the hemisphere).
        # General draws are curved enough for a 1e-6 cap (measured 1.1e-7);
        # the others reach curvatures near -5e-8, where that reach is wider.
        drift = min(np.abs(res.axis - axis).max(), np.abs(res.axis + axis).max())
        reach = np.sqrt(4e-14 / -res.hessian_max_eig)
        assert drift <= (min(1e-6, reach) if i < len(general) else reach)
    assert sum(np.isnan(res.hessian_max_eig) for res in results) <= 2


def test_one_state_search_is_the_lattice_pass_and_newton_trials(monkeypatch):
    calls, model_calls, xlog_calls = [], [], []
    kernel, model = discord_module._correlation_kernel, discord_module._correlation_model
    xlog2 = measurement_module._xlog2

    def counting(*args):
        calls.append(args[-1].shape)
        return kernel(*args)

    def counting_model(r, s, c, z, pairs):
        # the pair is the tangent pair at this iterate, not a stale one
        basis = np.array(pairs).reshape(-1, 3, 2)
        assert np.abs(np.einsum("nia,ni->na", basis, np.array(z))).max() <= 1e-15
        before = len(xlog_calls)
        out = model(r, s, c, z, pairs)
        model_calls.append((len(z), len(pairs), xlog_calls[before:]))
        return out

    def counting_xlog2(t):
        xlog_calls.append(np.shape(t))
        return xlog2(t)

    monkeypatch.setattr(discord_module, "_correlation_kernel", counting)
    monkeypatch.setattr(discord_module, "_correlation_model", counting_model)
    monkeypatch.setattr(measurement_module, "_xlog2", counting_xlog2)
    # the pool of the oracle-scan benchmark at seed 1
    pool = draw_general_batch(np.random.default_rng(1), 48)
    extras = 0
    for params in pool:
        for log in (calls, model_calls):
            log.clear()
        res = discord_module._correlation_search([params], None)[0]
        # no 64-point cap round runs: the polish certifies every general
        # draw.  The lattice pass is one kernel call; the polish is one model
        # call at the incumbent and at any extra basin the scan found, then
        # one per Newton trial on the rows still stepping, and each model
        # call makes one _xlog2 pass, on the (k, 6) log arguments of its k rows
        trials = res.evaluations - 500
        rows = model_calls[0][0]
        assert res.refine_rounds == 0 and 1 <= trials <= 4 * rows
        assert calls == [(1, 500, 3)]
        assert model_calls[0] == (rows, rows, [(rows, 6)])
        for k, pairs, xlog_shapes in model_calls[1:]:
            assert 1 <= k <= rows and pairs == k and xlog_shapes == [(k, 6)]
        assert sum(k for k, _, _ in model_calls[1:]) == trials
        if rows == 1:
            assert model_calls == [(1, 1, [(1, 6)])] * (1 + trials)
        extras += rows - 1
    assert extras == 1  # one state of the pool has a second competitive basin
    # in a batch, too, each model call makes one _xlog2 pass for all its rows:
    # every row at the incumbents (and the one extra basin among the first
    # eight states), then the rows each trial moves
    model_calls.clear()
    discord_module._correlation_search(pool[:8], None)
    assert model_calls[0] == (9, 9, [(9, 6)])
    for k, pairs, xlog_shapes in model_calls:
        assert 1 <= k <= 9 and pairs == k and xlog_shapes == [(k, 6)]


def test_polish_from_a_coarse_lattice_keeps_global_reach():
    # at 50 lattice points the incumbent may sit far from the maximum and a
    # Newton step may be 10/sqrt(50) = 1.4 rad long; the polished value must
    # still never fall below what the plain rounds find
    states = draw_general_batch(np.random.default_rng(893), 40)
    cfg = SphereOptConfig(grid_points=50)
    for params, res in zip(states, discord_module._correlation_search(states, cfg)):
        value, _, _ = _forty_round_search(params, grid_points=50)
        assert res.value >= value - 1e-12


_TWENTY_THOUSAND = SphereOptConfig(grid_points=20000)


@pytest.mark.parametrize(
    "params",
    [
        # state 15106 of draw_general_batch(default_rng(12), 20000): a lower
        # maximum 1.30 rad from the global one, which is 1.78e-5 higher
        BlochParams(
            [0.01885415959389425, -0.363458589402468, -0.0038972889414590206],
            [-0.020448704800057005, 0.020915924643949424, -0.3457985466676039],
            [-0.4901731393787496, 0.2694155309048143, 0.4034476684472441],
        ),
        # a near-X state: two mirror maxima across the (e_x, e_z) plane,
        # 2.45e-6 apart in value
        BlochParams(
            [3.3698232137298746e-07, 4.2387603372863286e-08, -0.8802552449023451],
            [-1.5731212529670364e-06, -2.415237179863611e-06, -0.6337890892320988],
            [0.266991164820489, -0.313865227085695, 0.733208239881509],
        ),
    ],
    ids=["general", "near-x"],
)
def test_basin_scan_certifies_the_higher_of_two_close_maxima(params):
    # the best lattice point lies in the lower maximum's basin, which its
    # polish alone certifies; the scan polishes the other basin as well
    report = discord_numeric(params)
    reference = discord_numeric(params, _TWENTY_THOUSAND)
    assert abs(report.classical_corr - reference.classical_corr) <= 1e-12
    assert abs(report.discord - reference.discord) <= 1e-12
    res = maximize_correlation_objective(params)
    assert res.refine_rounds == 0 and res.hessian_max_eig < 0.0
    assert min(np.abs(res.axis - reference.argmax_axis).max(),
               np.abs(res.axis + reference.argmax_axis).max()) <= 1e-3


def test_flat_x_maximum_is_polished_after_the_cap_rounds():
    # an X state whose maximum on the equator is flat (top tangent-Hessian
    # eigenvalue -2.5e-5): the polish of its 500-point incumbent cannot
    # certify it, the cap rounds stop 4.7e-7 below it, and one more polish
    # from where they end certifies it
    params = BlochParams(
        [0, 0, 0.4307991051562148],
        [0, 0, 0.38146901246180454],
        [-0.2767049855816941, -0.27673285771437484, 0.1909645837932501],
    )
    res = maximize_correlation_objective(params, SphereOptConfig(grid_points=500))
    assert res.value >= 0.19839076937916247 - 1e-15
    assert res.refine_rounds == 40 and res.newton_steps >= 1
    assert -3e-5 < res.hessian_max_eig < -2e-5 and res.gradient_norm <= 1e-10
    plain, _, _ = _forty_round_search(params, grid_points=500)
    assert res.value - plain > 4e-7


def _fallback_states() -> dict[str, BlochParams]:
    k = C_EQ_R_MAX + 1e-10
    return {
        "werner": BlochParams([0, 0, 0], [0, 0, 0], [0.2, 0.2, 0.2]),
        "tied-bell": BlochParams([0, 0, 0], [0, 0, 0], [0.5, -0.5, 0.2]),
        "product": BlochParams([0, 0, 0.3], [0, 0, 0.4], [0, 0, 0.12]),
        "boundary": BlochParams([0, 0, k], [0, 0, 0], [k, k, k]),
    }


def test_flat_and_boundary_states_take_the_fallback():
    states = list(_fallback_states().values())
    # the product state is rho_a (x) rho_b: every measurement leaves the
    # same conditional entropy, so its objective is flat too
    product = states[2]
    assert np.allclose(
        build_state(product),
        np.kron(*(0.5 * (np.eye(2) + v * np.diag([1, -1])) for v in (0.3, 0.4))),
    )
    # flat rows fail the curvature test before any trial; the boundary
    # state's one accepted trial lands where x- = |r - c*z| is below 1e-3
    # (0 at the maximum), so its derivatives are undefined there
    trials = [0, 0, 0, 1]
    for params, res, tried in zip(states, discord_module._correlation_search(states, None), trials):
        value, axis, evaluations = _forty_round_search(params)
        assert res.value == value and np.array_equal(res.axis, axis)
        # the trials are counted, but a row that falls back reports no steps
        assert res.evaluations == evaluations + tried and res.newton_steps == 0
        assert res.refine_rounds == 40 and np.isnan(res.hessian_max_eig)


def test_flat_rows_get_no_extra_basin(monkeypatch):
    # the lattice values of a flat objective differ by rounding alone, so
    # no lattice point rises above its neighbours by the scan's margin: the
    # first model call holds the incumbents alone
    first_calls = []
    search = discord_module.maximize_batch

    def recording_search(f, n, cfg, model):
        def recording_model(z, pairs, *rows):
            if not first_calls:
                first_calls.append(len(z))
            return model(z, pairs, *rows)

        return search(f, n, cfg, recording_model)

    monkeypatch.setattr(discord_module, "maximize_batch", recording_search)
    states = [BlochParams([0, 0, 0], [0, 0, 0], [c, c, c]) for c in np.linspace(-0.99, 0.33, 23)]
    states.append(_fallback_states()["product"])
    results = discord_module._correlation_search(states, None)
    assert first_calls == [len(states)]
    assert all(res.refine_rounds == 40 for res in results)


def test_reported_value_covers_every_evaluated_axis(monkeypatch):
    seen = []  # (a Newton iterate?, each row's best value in the call)
    search = discord_module.maximize_batch

    def recording_search(f, n, cfg, model):
        def kernel(z, rows=slice(None)):  # the cap rounds pass a row subset
            values = f(z, rows)
            best = np.full(n, -np.inf)
            best[rows] = values.max(axis=1)
            seen.append((False, best))
            return values

        def recording_model(z, basis, rows=slice(None)):  # the moved rows
            out = model(z, basis) if isinstance(rows, slice) else model(z, basis, rows)
            best = np.full(n, -np.inf)
            best[rows] = out[0]
            seen.append((True, best))
            return out

        return search(kernel, n, cfg, recording_model)

    monkeypatch.setattr(discord_module, "maximize_batch", recording_search)
    states = draw_general_batch(np.random.default_rng(271), 12)
    states += list(_fallback_states().values())
    results = discord_module._correlation_search(states, None)
    certified = np.array([np.isfinite(res.hessian_max_eig) for res in results])
    assert certified.tolist() == [True] * 12 + [False] * 4
    assert len(seen) > 14  # the fallback rows ran the plain rounds
    assert any(trial for trial, _ in seen)
    # a certified row covers its Newton iterates too; a row that fell back
    # discards its Newton trials and ends where the 40-round search ends
    for i, res in enumerate(results):
        top = max(v[i] for trial, v in seen if certified[i] or not trial)
        assert res.value >= top


def test_reported_value_is_the_objective_at_the_reported_axis():
    # every route reports the objective at its own argmax axis, bit for bit;
    # with a value kept apart from its axis, 68 of these 500 draws disagreed
    general = draw_general_batch(np.random.default_rng(16), 500)
    rng = np.random.default_rng(17)
    damped = [damp_bloch(p, PhaseDamping(g)) for g in (0.5, 1.0) for p in general[:20]]
    family = [
        draw(rng)
        for draw in (draw_s0_planar, draw_r0_isotropic, draw_s0_isotropic, draw_axial_zero)
        for _ in range(10)
    ]
    states = general + damped + family + list(_fallback_states().values())

    def assert_consistent(params, report):
        offset = -entropic_h(0.0, params.r_norm)
        assert report.classical_corr == offset + correlation_objective(params, report.argmax_axis)

    for params, report in zip(states, discord_numeric_batch(states)):
        assert_consistent(params, report)
    # the one-state routes, on every non-general state and 50 general draws
    for params in general[:50] + damped + family + list(_fallback_states().values()):
        res = maximize_correlation_objective(params)
        assert res.value == correlation_objective(params, res.axis)
        assert_consistent(params, discord_numeric(params))
        auto = discord_auto(params)
        if auto.method == METHOD_NUMERIC:
            assert_consistent(params, auto)
    for params in general[:5]:
        for gamma in (0.3, 1.0):
            channel = PhaseDamping(gamma)
            assert_consistent(damp_bloch(params, channel), damped_discord(params, channel))
        # gamma_sweep reads its rows off one batch of the state and its images
        grid = np.linspace(0.0, 1.0, 11)
        images = [damp_bloch(params, PhaseDamping(float(g))) for g in grid]
        reports = discord_numeric_batch(images)
        for image, report, (_, q, _) in zip(images, reports, gamma_sweep(params, grid)):
            assert_consistent(image, report)
            assert q == report.discord
