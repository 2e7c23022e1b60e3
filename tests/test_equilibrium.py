import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectrum_auction import (
    ABSTAIN,
    Bid,
    MarketConfig,
    NonUniqueThreshold,
    RegimeKind,
    TypeDistribution,
    bid,
    bid_values,
    classify_regime,
    solve_strategy,
    solve_threshold_mid,
    solve_threshold_standard,
)
from spectrum_auction.equilibrium import threshold_residual
from spectrum_auction.errors import BracketingError
from spectrum_auction.oracle import (
    uniform_k2_mid_threshold,
    uniform_k2_standard_threshold,
)


class TestMarketConfig:
    def test_rejects_single_seller(self, trunc_normal):
        with pytest.raises(ValueError):
            MarketConfig(1, trunc_normal, 0.3, 0.4, 95.0)

    def test_rejects_bad_discounts(self, trunc_normal):
        with pytest.raises(ValueError):
            MarketConfig(4, trunc_normal, 1.2, 0.4, 95.0)
        with pytest.raises(ValueError):
            MarketConfig(4, trunc_normal, 0.3, 0.0, 95.0)


class TestClassifyRegime:
    def test_low_example(self, market_k4):
        # L = (3.3/4)*50 = 41.25
        assert classify_regime(market_k4, 30.0) is RegimeKind.LOW
        assert market_k4.low_regime_cap == pytest.approx(41.25, abs=1e-12)

    def test_mid_example(self, market_k4):
        assert classify_regime(market_k4, 49.4) is RegimeKind.MID

    def test_high_boundary(self, market_k4):
        assert classify_regime(market_k4, 200.0) is RegimeKind.HIGH

    def test_boundary_conventions(self, market_k4):
        assert classify_regime(market_k4, 41.25) is RegimeKind.LOW
        assert classify_regime(market_k4, 50.0) is RegimeKind.STANDARD

    def test_partition_covers_half_line(self, market_k4):
        # grid test: every c belongs to exactly one regime whose interval
        # contains it, and the four intervals tile [0, inf)
        low_cap, r_min, r_max = market_k4.low_regime_cap, market_k4.dist.r_min, market_k4.dist.r_max
        bounds = {
            RegimeKind.LOW: (0.0, low_cap),
            RegimeKind.MID: (low_cap, r_min),
            RegimeKind.STANDARD: (r_min, r_max),
            RegimeKind.HIGH: (r_max, math.inf),
        }
        for c in np.linspace(0.0, 500.0, 4001):
            lo, hi = bounds[classify_regime(market_k4, float(c))]
            assert lo <= c <= hi
        kinds = {classify_regime(market_k4, c) for c in (10.0, 45.0, 100.0, 300.0)}
        assert kinds == set(RegimeKind)


class TestResiduals:
    def test_value_at_reserve(self, market_uniform_k2):
        # residual at r=c collapses to (1-F(c))^(K-1) * ((1-eta)/K) * c
        cfg, c = market_uniform_k2, 100.0
        expected = (1 - cfg.dist.cdf(c)) ** (cfg.k - 1) * (1 - cfg.eta_apo) / cfg.k * c
        assert threshold_residual(cfg, c, c) == pytest.approx(expected, rel=1e-12)
        assert expected > 0

    def test_value_at_support_top(self, market_uniform_k2):
        # residual at r_max collapses to (1-F(c))^(K-1) * (c - r_max)/K
        cfg, c = market_uniform_k2, 100.0
        r_max = cfg.dist.r_max
        expected = (1 - cfg.dist.cdf(c)) ** (cfg.k - 1) * (c - r_max) / cfg.k
        assert threshold_residual(cfg, c, r_max) == pytest.approx(expected, rel=1e-12)
        assert expected < 0

    def test_root_of_quadratic(self, market_uniform_k2):
        # 0.15 r^2 - 130 r + 15000 = 0 has its admissible root at 137.06
        root = uniform_k2_standard_threshold(market_uniform_k2, 100.0)
        assert threshold_residual(market_uniform_k2, 100.0, root) == pytest.approx(
            0.0, abs=1e-9
        )
        assert root == pytest.approx(137.06, abs=1e-3)

    def test_mid_residual_endpoint_sign(self, market_k4):
        # J(r_min) = c - L > 0 inside the mid regime
        c = 45.0
        val = threshold_residual(market_k4, c, market_k4.dist.r_min)
        assert val == pytest.approx(c - market_k4.low_regime_cap, rel=1e-12)


class TestThresholdSolvers:
    def test_standard_uniform_k2_against_quadratic(self, market_uniform_k2):
        got = solve_threshold_standard(market_uniform_k2, 100.0)
        assert got == pytest.approx(137.0601860894804, abs=1e-3)
        got = solve_threshold_standard(market_uniform_k2, 50.0)
        assert got == pytest.approx(73.54944758461826, abs=1e-3)

    def test_mid_uniform_k2_against_quadratic(self, market_uniform_k2):
        got = solve_threshold_mid(market_uniform_k2, 40.0)
        assert got == pytest.approx(60.374027892800846, abs=1e-3)

    def test_standard_truncnormal_worked_example(self, market_k4):
        assert solve_threshold_standard(market_k4, 55.0) == pytest.approx(65.8, abs=0.1)

    def test_mid_truncnormal_worked_example(self, market_k4):
        assert solve_threshold_mid(market_k4, 49.4) == pytest.approx(59.3, abs=0.1)

    def test_mid_threshold_collapses_at_low_boundary(self, market_uniform_k2):
        # just above L = 32.5 the threshold root sits just above r_min
        got = solve_threshold_mid(market_uniform_k2, 32.5 + 1e-6)
        assert got == pytest.approx(50.0, abs=1e-2)
        assert got > 50.0

    def test_threshold_containment_and_residuals(self, market_k4):
        r_max = market_k4.dist.r_max
        for c in (50.0, 55.0, 90.0, 150.0, 199.0):
            r_t = solve_threshold_standard(market_k4, c)
            assert c < r_t < r_max
            assert abs(threshold_residual(market_k4, c, r_t)) < 1e-9 * r_max
        for c in (41.3, 45.0, 49.9):
            r_x = solve_threshold_mid(market_k4, c)
            assert 50.0 < r_x < r_max
            assert abs(threshold_residual(market_k4, c, r_x)) < 1e-9 * r_max

    def test_quadratic_equivalence_random_draws(self, uniform_dist):
        # light version of the acceptance sweep
        rng = np.random.default_rng(5)
        for _ in range(20):
            eta = rng.uniform(0.05, 0.95)
            cfg = MarketConfig(2, uniform_dist, eta, 0.4, 300.0)
            c_std = rng.uniform(50.0, 199.0)
            assert solve_threshold_standard(cfg, c_std) == pytest.approx(
                uniform_k2_standard_threshold(cfg, c_std), abs=1e-6
            )
            low = cfg.low_regime_cap
            c_mid = rng.uniform(low + 1e-6, 50.0 - 1e-9)
            assert solve_threshold_mid(cfg, c_mid) == pytest.approx(
                uniform_k2_mid_threshold(cfg, c_mid), abs=1e-6
            )

    def test_wrong_regime_rejected(self, market_k4):
        with pytest.raises(ValueError):
            solve_threshold_standard(market_k4, 45.0)
        with pytest.raises(ValueError):
            solve_threshold_mid(market_k4, 55.0)

    def test_refuses_multiple_roots(self, market_k4, monkeypatch):
        # synthetic three-root residual exercises the refusal path
        import spectrum_auction.equilibrium as eq

        def wiggly(cfg, c, r, f_floor):
            r = np.asarray(r, dtype=float)
            out = np.sin((r - c) / (cfg.dist.r_max - c) * 3 * np.pi + 1e-3)
            return float(out) if np.ndim(out) == 0 else out

        monkeypatch.setattr(eq, "_threshold_residual", wiggly)
        eq.solve_threshold_standard.cache_clear()
        with pytest.raises(NonUniqueThreshold):
            eq.solve_threshold_standard(market_k4, 55.5)
        eq.solve_threshold_standard.cache_clear()

    def test_bracket_error_on_bad_signs(self, market_k4, monkeypatch):
        import spectrum_auction.equilibrium as eq

        def positive(cfg, c, r, f_floor):
            r = np.asarray(r, dtype=float)
            out = np.ones_like(r)
            return float(out) if np.ndim(out) == 0 else out

        monkeypatch.setattr(eq, "_threshold_residual", positive)
        eq.solve_threshold_standard.cache_clear()
        with pytest.raises(BracketingError):
            eq.solve_threshold_standard(market_k4, 55.5)
        eq.solve_threshold_standard.cache_clear()


class TestUniquenessScan:
    """A solve raises NonUniqueThreshold unless its scan finds exactly
    one root, so a solve that returns a root on the regime's interval
    has passed the uniqueness scan."""

    def test_uniform_k2_standard(self, market_uniform_k2):
        assert 100.0 < solve_threshold_standard(market_uniform_k2, 100.0) < 200.0

    def test_truncnormal_k5_standard(self, trunc_normal):
        cfg = MarketConfig(5, trunc_normal, 0.3, 0.4, 95.0)
        assert 70.0 < solve_threshold_standard(cfg, 70.0) < 200.0

    def test_truncnormal_k5_mid(self, trunc_normal):
        cfg = MarketConfig(5, trunc_normal, 0.3, 0.4, 95.0)
        # L = (4.3/5)*50 = 43 < 46 < 50
        assert 50.0 < solve_threshold_mid(cfg, 46.0) < 200.0

    def test_reports_bracket(self, market_k4):
        # the residual changes sign across the returned root
        r_t = solve_threshold_standard(market_k4, 55.0)
        assert threshold_residual(market_k4, 55.0, r_t - 1e-6) > 0.0
        assert threshold_residual(market_k4, 55.0, r_t + 1e-6) < 0.0


class TestBiddingStrategy:
    def test_worked_example_abstain(self, market_k4):
        assert bid(market_k4, 49.4, 64.0) == ABSTAIN

    def test_worked_example_cap_bid(self, market_k4):
        assert bid(market_k4, 55.0, 64.0) == Bid.of(55.0)

    def test_high_regime_truthful(self, market_k4):
        assert bid(market_k4, 250.0, 125.0) == Bid.of(125.0)

    def test_low_regime_all_abstain(self, market_k4):
        for r in (50.0, 125.0, 200.0):
            assert bid(market_k4, 30.0, r) == ABSTAIN

    def test_standard_truthful_below_reserve(self, market_k4):
        assert bid(market_k4, 55.0, 51.0) == Bid.of(51.0)
        assert bid(market_k4, 55.0, 50.0) == Bid.of(50.0)

    def test_boundary_types_deterministic(self, market_k4):
        strat = solve_strategy(market_k4, 55.0)
        assert strat.bid(strat.cutoff) == Bid.of(55.0)
        assert strat.bid(50.0) == Bid.of(50.0)
        mid = solve_strategy(market_k4, 49.4)
        assert mid.bid(mid.cutoff) == Bid.of(49.4)

    def test_out_of_support_type_rejected(self, market_k4):
        with pytest.raises(ValueError):
            bid(market_k4, 55.0, 10.0)

    def test_vector_scalar_agreement(self, market_k4):
        types = np.linspace(50, 200, 101)
        for c in (30.0, 45.0, 55.0, 250.0):
            vec = bid_values(market_k4, c, types)
            for t, v in zip(types, vec):
                b = bid(market_k4, c, float(t))
                assert (b.is_abstain and math.isinf(v)) or b.rate == v

    @given(
        r1=st.floats(min_value=50, max_value=200),
        r2=st.floats(min_value=50, max_value=200),
        c=st.floats(min_value=0, max_value=260),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_bidding(self, market_k4, r1, r2, c):
        lo, hi = min(r1, r2), max(r1, r2)
        b_lo, b_hi = bid(market_k4, c, lo), bid(market_k4, c, hi)
        if not b_hi.is_abstain:
            assert not b_lo.is_abstain
            assert b_lo.rate <= b_hi.rate

    @given(
        k=st.integers(2, 6),
        normal=st.booleans(),
        eta=st.floats(0.1, 0.9),
        regime=st.sampled_from(list(RegimeKind)),
        frac=st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_cutoff_is_the_largest_bidding_type(self, k, normal, eta, regime, frac):
        if normal:
            dist = TypeDistribution.truncated_normal(125.0, 50.0, 50.0, 200.0)
        else:
            dist = TypeDistribution.uniform(50.0, 200.0)
        cfg = MarketConfig(k, dist, eta, 0.4, 150.0)
        low_cap, r_min, r_max = cfg.low_regime_cap, dist.r_min, dist.r_max
        lo, hi = {
            RegimeKind.LOW: (0.0, low_cap),
            RegimeKind.MID: (low_cap, r_min),
            RegimeKind.STANDARD: (r_min, r_max),
            RegimeKind.HIGH: (r_max, 1.6 * r_max),
        }[regime]
        c = lo + frac * (hi - lo)
        assume(classify_regime(cfg, c) is regime)
        s = solve_strategy(cfg, c)
        marks = [c, r_min, r_max] + ([s.cutoff] if math.isfinite(s.cutoff) else [])
        types = np.concatenate([
            np.linspace(r_min, r_max, 301),
            marks,
            np.nextafter(marks, -math.inf),
            np.nextafter(marks, math.inf),
        ])
        bids = s.bid_values(types)
        assert np.array_equal(np.isfinite(bids), types <= s.cutoff)
        assert np.array_equal(bids[np.isfinite(bids)], np.minimum(types, c)[types <= s.cutoff])

    @given(
        c=st.floats(min_value=0, max_value=400),
        types=st.lists(st.floats(min_value=0), min_size=1, max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_numeric_bid_is_at_most_the_reserve(self, market_k4, c, types):
        """For any non-negative input, the auction's own rule holds: no
        numeric bid exceeds the reserve (a type above ``r_max`` too)."""
        bids = solve_strategy(market_k4, c).bid_values(np.array(types))
        assert (bids[np.isfinite(bids)] <= c).all()

    @given(
        r=st.floats(min_value=50, max_value=200),
        c=st.floats(min_value=0, max_value=260),
    )
    @settings(max_examples=60, deadline=None)
    def test_numeric_bids_capped_by_reserve(self, market_k4, r, c):
        b = bid(market_k4, c, r)
        if not b.is_abstain:
            assert b.rate <= c
