import numpy as np
import pytest

from spectrum_auction import (
    MarketConfig,
    RegimeKind,
    classify_regime,
    expected_payment,
    expected_payoff,
    optimize_reserve,
    solve_threshold_standard,
)
from spectrum_auction.numerics import has_interior_dip
from spectrum_auction.oracle import (
    lte_payoffs_for_types,
    payments_for_types,
    sample_type_matrix,
)
from spectrum_auction.provider import capacity_threshold, curve_point
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
        assert classify_regime(market_k4, opt.c_star).kind is RegimeKind.MID

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
        kinds = [p.regime.kind for p in points]
        assert kinds == [
            RegimeKind.LOW,
            RegimeKind.MID,
            RegimeKind.STANDARD,
            RegimeKind.HIGH,
        ]
        assert points[0].expected_payment == 0.0
        assert all(p.expected_payoff <= market_k4.r_lte for p in points)
