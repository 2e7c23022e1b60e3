import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import (
    MarketConfig,
    RegimeKind,
    TypeDistribution,
    classify_regime,
    expected_payment,
    expected_payoff,
    optimize_reserve,
    solve_threshold_mid,
    solve_threshold_standard,
)
from spectrum_auction.numerics import has_interior_dip
from spectrum_auction.oracle import (
    lte_payoffs_for_types,
    payments_for_types,
    sample_type_matrix,
)
from spectrum_auction.provider import _second_lowest_integral, capacity_threshold, curve_point
from spectrum_auction.rng import RngStream


class TestExpectedPayment:
    def test_zero_in_low_regime(self, market_k4):
        assert expected_payment(market_k4, 30.0) == 0.0

    def test_collapses_at_standard_regime_floor(self, market_k4):
        # at c = r_min the quadrature and the tie term vanish, leaving
        # c * P(anyone sells)
        c = market_k4.dist.r_min
        r_t = solve_threshold_standard(market_k4, c)
        expected = c * (1.0 - (1.0 - market_k4.dist.cdf(r_t)) ** market_k4.k)
        assert expected_payment(market_k4, c) == pytest.approx(expected, rel=1e-10)

    def test_matches_monte_carlo_standard(self, market_k4):
        c = 55.0
        pool = sample_type_matrix(market_k4, 300_000, RngStream(21, 0))
        draws = payments_for_types(market_k4, c, pool)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(expected_payment(market_k4, c) - draws.mean()) < 3 * se

    def test_matches_monte_carlo_uniform_k2(self, market_uniform_k2):
        c = 100.0
        pool = sample_type_matrix(market_uniform_k2, 300_000, RngStream(22, 0))
        draws = payments_for_types(market_uniform_k2, c, pool)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(expected_payment(market_uniform_k2, c) - draws.mean()) < 3 * se


class TestExpectedPayoff:
    def test_low_regime_constant(self, market_k4):
        for c in (0.0, 20.0, 41.25):
            assert expected_payoff(market_k4, c) == pytest.approx(38.0, abs=1e-12)

    def test_matches_monte_carlo_each_regime(self, market_k4):
        pool = sample_type_matrix(market_k4, 300_000, RngStream(23, 0))
        for c in (45.0, 55.0, 130.0, 250.0):
            draws = lte_payoffs_for_types(market_k4, c, pool)
            se = draws.std(ddof=1) / np.sqrt(len(draws))
            assert abs(expected_payoff(market_k4, c) - draws.mean()) < 3 * se

    def test_continuity_at_regime_boundaries(self, market_k4):
        eps = 1e-6 * market_k4.dist.r_max
        tol = 1e-4 * market_k4.r_lte
        for boundary in (market_k4.low_regime_cap, 50.0, 200.0):
            below = expected_payoff(market_k4, boundary - eps)
            above = expected_payoff(market_k4, boundary + eps)
            assert abs(above - below) < tol

    def test_unimodal_on_example_curve(self, trunc_normal):
        # two sellers, large throughput: strictly unimodal past the cap
        cfg = MarketConfig(2, trunc_normal, 0.3, 0.4, 300.0)
        grid = np.linspace(cfg.low_regime_cap + 1e-9, 200.0, 150)
        values = [expected_payoff(cfg, float(c)) for c in grid]
        assert not has_interior_dip(values, 1e-4 * cfg.r_lte)
        # and it is not monotone: an interior maximum exists
        assert max(values) > max(values[0], values[-1])


class TestOptimizeReserve:
    def test_worked_example(self, market_k4):
        opt = optimize_reserve(market_k4)
        assert opt.case == 2
        assert opt.c_star == pytest.approx(49.4, abs=0.1)
        assert classify_regime(market_k4, opt.c_star) is RegimeKind.MID

    def test_case1_small_throughput(self, trunc_normal):
        # threshold (3.3 / (4*0.6)) * 50 = 68.75 > 40
        cfg = MarketConfig(4, trunc_normal, 0.3, 0.4, 40.0)
        assert capacity_threshold(cfg) == pytest.approx(68.75, abs=1e-9)
        opt = optimize_reserve(cfg)
        assert opt.case == 1
        assert opt.c_star == 0.0
        assert opt.interval == (0.0, pytest.approx(41.25, abs=1e-12))
        assert opt.expected_payoff == cfg.delta_lte * cfg.r_lte

    def test_case1_cap_is_global_max(self, trunc_normal):
        cfg = MarketConfig(4, trunc_normal, 0.3, 0.4, 40.0)
        grid = np.linspace(cfg.low_regime_cap + 1e-9, 200.0, 500)
        ceiling = cfg.delta_lte * cfg.r_lte + 1e-8 * cfg.r_lte
        assert all(expected_payoff(cfg, float(c)) <= ceiling for c in grid)

    def test_case3_large_throughput(self, market_uniform_k2):
        opt = optimize_reserve(market_uniform_k2)
        assert opt.case == 3
        assert market_uniform_k2.low_regime_cap < opt.c_star <= 200.0
        assert opt.expected_payoff >= expected_payoff(market_uniform_k2, opt.c_star) - 1e-9

    def test_case2_interval_membership(self, trunc_normal):
        cfg = MarketConfig(4, trunc_normal, 0.3, 0.4, 150.0)
        opt = optimize_reserve(cfg)
        assert opt.case == 2
        assert cfg.low_regime_cap < opt.c_star <= 150.0

    def test_payoff_curve_points(self, market_k4):
        points = [curve_point(market_k4, c) for c in (30.0, 45.0, 55.0, 250.0)]
        kinds = [p.regime for p in points]
        assert kinds == [
            RegimeKind.LOW,
            RegimeKind.MID,
            RegimeKind.STANDARD,
            RegimeKind.HIGH,
        ]
        assert points[0].expected_payment == 0.0
        assert all(p.expected_payoff <= market_k4.r_lte for p in points)


def four_branch_point(cfg, c):
    """``(payoff, payment)`` by a separate expression per regime: the
    reference the one-formula ``curve_point`` is checked against."""
    dist, r = cfg.dist, cfg.r_lte
    kind = classify_regime(cfg, c)
    if kind is RegimeKind.LOW:
        return cfg.delta_lte * r, 0.0
    if kind is RegimeKind.MID:
        none_sells = (1.0 - dist.cdf(solve_threshold_mid(cfg.sellers, c))) ** cfg.k
        payoff = none_sells * cfg.delta_lte * r + (1.0 - none_sells) * (r - c)
        return payoff, c * (1.0 - none_sells)
    if kind is RegimeKind.HIGH:
        payment = _second_lowest_integral(cfg, dist.r_max)
        return r - payment, payment
    f_c = dist.cdf(c)
    none_sells = (1.0 - dist.cdf(solve_threshold_standard(cfg.sellers, c))) ** cfg.k
    payment = (
        _second_lowest_integral(cfg, c)
        + cfg.k * c * f_c * (1.0 - f_c) ** (cfg.k - 1)
        + c * ((1.0 - f_c) ** cfg.k - none_sells)
    )
    return none_sells * cfg.delta_lte * r + (1.0 - none_sells) * r - payment, payment


LAWS = [TypeDistribution.uniform(50, 200), TypeDistribution.truncated_normal(125, 50, 50, 200)]


@st.composite
def markets_and_reserves(draw):
    """A market on a preset law with a preset throughput, and a reserve
    anywhere up to past r_max or at, or one ulp from, L, r_min or r_max.
    Each throughput exceeds r_min, so ``R - c`` does not cancel in the
    mid regime."""
    cfg = MarketConfig(
        k=draw(st.integers(2, 7)),
        dist=draw(st.sampled_from(LAWS)),
        eta_apo=draw(st.sampled_from([0.1, 0.3, 0.6, 0.9])),
        delta_lte=draw(st.sampled_from([0.2, 0.4, 0.8])),
        r_lte=draw(st.sampled_from([95.0, 150.0, 240.0, 370.0])),
    )
    step = draw(st.sampled_from([None, -1, 0, 1]))
    if step is None:
        return cfg, draw(st.floats(0.0, 250.0))
    anchor = draw(st.sampled_from([cfg.low_regime_cap, cfg.dist.r_min, cfg.dist.r_max]))
    return cfg, math.nextafter(anchor, step * math.inf) if step else anchor


@given(markets_and_reserves())
@settings(max_examples=150, deadline=None)
def test_one_formula_matches_the_four_branch_formula(market_and_reserve):
    """The payment is bit-equal in every regime, and so is the payoff
    outside the mid regime (F is 0 at r_min and 1 from r_max on). In the
    mid regime ``(1-n)*R - c*(1-n)`` replaces ``(1-n)*(R-c)``, which
    moves the payoff by at most 4 ulp."""
    cfg, c = market_and_reserve
    point = curve_point(cfg, c)
    payoff, payment = four_branch_point(cfg, c)
    assert point.expected_payment.hex() == payment.hex()
    if point.regime is RegimeKind.MID:
        assert abs(point.expected_payoff - payoff) <= 4 * math.ulp(payoff)
    else:
        assert point.expected_payoff.hex() == payoff.hex()


@pytest.mark.parametrize("kind", ["uniform", "truncated_normal"])
@pytest.mark.parametrize("k", [2, 4, 7])
def test_a_reserve_above_float_max_over_k_is_the_point_at_r_max(kind, k):
    """Above r_max every type bids truthfully, so the curve is flat. The
    one-type-below-c term used to overflow ``k * c`` to inf at c = 1e308
    and multiply it by 0.0, printing ``nan`` for payoff and payment."""
    dist = (TypeDistribution.uniform(50, 200) if kind == "uniform"
            else TypeDistribution.truncated_normal(125, 50, 50, 200))
    cfg = MarketConfig(k=k, dist=dist, eta_apo=0.3, delta_lte=0.4, r_lte=370.0)
    top, far = curve_point(cfg, dist.r_max), curve_point(cfg, 1e308)
    assert (far.expected_payoff, far.regime, far.expected_payment) == (
        top.expected_payoff, top.regime, top.expected_payment)


def test_a_law_wider_than_float_max_over_k_has_a_finite_rising_payment():
    """On uniform [50, 1e308] the one-type-below-c term is at most c, but
    ``k * c`` overflowed to inf for c above float max / k: the curve
    printed ``N`` for payoff and payment at c = 5e307 and 7.5e307."""
    dist = TypeDistribution.uniform(50.0, 1e308)
    cfg = MarketConfig(k=4, dist=dist, eta_apo=0.3, delta_lte=0.4, r_lte=95.0)
    points = [curve_point(cfg, c) for c in (2.5e307, 5e307, 7.5e307, 1e308)]
    payments = [p.expected_payment for p in points]
    assert all(math.isfinite(p.expected_payoff) for p in points)
    assert all(math.isfinite(p) for p in payments)
    assert payments == sorted(payments) and len(set(payments)) == len(payments)
