import math
import warnings

import numpy as np
import pytest

from spectrum_auction import (
    CertificationFailed,
    MarketConfig,
    NoRootInInterval,
    RngStream,
    TypeDistribution,
)
from spectrum_auction.oracle import (
    CertificationReport,
    _OpponentPool,
    best_response_check,
    equilibrium_strategy_map,
    lte_payoffs_for_types,
    mc_expected_payoff,
    mc_expected_payment,
    mutated_abstain_in_cap_band,
    mutated_cap_bid_past_threshold,
    mutated_mid_always_cap,
    sample_type_matrix,
    uniform_k2_mid_threshold,
    uniform_k2_standard_threshold,
)
from spectrum_auction.provider import expected_payoff


class TestQuadraticThresholds:
    def test_standard_root(self, market_uniform_k2):
        # 0.15 r^2 - 130 r + 15000: discriminant 7900
        root = uniform_k2_standard_threshold(market_uniform_k2, 100.0)
        assert root == pytest.approx(137.0601860894804, rel=1e-12)
        disc = 130.0**2 - 4 * 0.15 * 15000.0
        assert disc == pytest.approx(7900.0, abs=1e-9)
        assert root == pytest.approx((130.0 - math.sqrt(disc)) / 0.3, rel=1e-12)

    def test_mid_root(self, market_uniform_k2):
        # discriminant 11425 at c=40
        root = uniform_k2_mid_threshold(market_uniform_k2, 40.0)
        assert root == pytest.approx(60.374027892800846, rel=1e-12)
        a, b, c0 = 0.15, -40.0 / 2 + 25.0 - 130.0, 200.0 * 40 - 40 * 25.0
        assert b * b - 4 * a * c0 == pytest.approx(11425.0, abs=1e-9)

    def test_mid_root_at_low_boundary(self, market_uniform_k2):
        # at c = L = 32.5 the residual vanishes exactly at r_min
        assert uniform_k2_mid_threshold(market_uniform_k2, 32.5) == pytest.approx(
            50.0, abs=1e-9
        )

    def test_requires_uniform_k2(self, market_k4):
        with pytest.raises(ValueError):
            uniform_k2_standard_threshold(market_k4, 55.0)

    def test_no_root_signals_inconsistency(self, market_uniform_k2):
        # a reserve outside the standard regime has no admissible root
        with pytest.raises(NoRootInInterval):
            uniform_k2_standard_threshold(market_uniform_k2, 250.0)


class TestMonteCarloEstimators:
    def test_low_regime_zero_variance(self, market_k4):
        mean, se = mc_expected_payoff(market_k4, 30.0, 5000, RngStream(0, 0))
        assert mean == market_k4.delta_lte * market_k4.r_lte
        assert se == 0.0

    def test_standard_matches_closed_form(self, market_k4):
        mean, se = mc_expected_payoff(market_k4, 55.0, 250_000, RngStream(1, 0))
        assert abs(mean - expected_payoff(market_k4, 55.0)) < 3 * se

    def test_mid_matches_closed_form(self, market_k4):
        mean, se = mc_expected_payoff(market_k4, 49.4, 250_000, RngStream(2, 0))
        assert abs(mean - expected_payoff(market_k4, 49.4)) < 3 * se

    def test_payment_estimator_sane(self, market_k4):
        mean, se = mc_expected_payment(market_k4, 55.0, 100_000, RngStream(3, 0))
        assert 0.0 < mean < 55.0
        assert se > 0.0

    @pytest.mark.parametrize("estimator", [mc_expected_payoff, mc_expected_payment])
    @pytest.mark.parametrize("n", [0, 1, -3, True, 2.0, None])
    def test_needs_two_samples_for_a_standard_error(self, market_k4, estimator, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            estimator(market_k4, 55.0, n, RngStream(0, 0))

    @pytest.mark.parametrize("estimator", [mc_expected_payoff, mc_expected_payment])
    def test_two_samples_give_a_standard_error(self, market_k4, estimator):
        mean, se = estimator(market_k4, 55.0, np.int64(2), RngStream(0, 0))
        assert math.isfinite(mean) and math.isfinite(se)

    def test_payoff_matrix_shape(self, market_k4):
        pool = sample_type_matrix(market_k4, 1000, RngStream(4, 0))
        assert pool.shape == (1000, 4)
        pays = lte_payoffs_for_types(market_k4, 55.0, pool)
        assert pays.shape == (1000,)


class TestBestResponse:
    GRID = dict(type_grid=21, bid_grid=41, samples=20_000)

    def test_certifies_standard_regime(self, market_k4):
        report = best_response_check(market_k4, 55.0, rng=RngStream(5, 0), **self.GRID)
        assert report.certified
        assert report.max_gain <= report.epsilon + 1e-12

    def test_certifies_mid_regime(self, market_k4):
        assert best_response_check(market_k4, 49.4, rng=RngStream(5, 1), **self.GRID).certified

    def test_certifies_low_regime(self, market_k4):
        assert best_response_check(market_k4, 30.0, rng=RngStream(5, 2), **self.GRID).certified

    def test_certifies_high_regime_truthful(self, market_k4):
        assert best_response_check(market_k4, 250.0, rng=RngStream(5, 3), **self.GRID).certified

    def test_detects_abstain_mutation(self, market_k4):
        with pytest.raises(CertificationFailed) as err:
            best_response_check(
                market_k4, 55.0, rng=RngStream(5, 4),
                strategy=mutated_abstain_in_cap_band(market_k4, 55.0), **self.GRID
            )
        # a type inside the cap band gains by switching to a numeric bid
        assert 55.0 < err.value.bidder_type
        assert err.value.gain > err.value.epsilon

    def test_detects_overbid_mutation(self, market_k4):
        with pytest.raises(CertificationFailed):
            best_response_check(
                market_k4, 55.0, rng=RngStream(5, 5),
                strategy=mutated_cap_bid_past_threshold(market_k4, 55.0), **self.GRID
            )

    def test_detects_mid_mutation(self, market_k4):
        with pytest.raises(CertificationFailed):
            best_response_check(
                market_k4, 49.4, rng=RngStream(5, 6),
                strategy=mutated_mid_always_cap(market_k4, 49.4), **self.GRID
            )

    def test_mutation_factories_check_regime(self, market_k4):
        with pytest.raises(ValueError):
            mutated_abstain_in_cap_band(market_k4, 45.0)
        with pytest.raises(ValueError):
            mutated_mid_always_cap(market_k4, 55.0)

    def test_uniform_market_certifies(self, market_uniform_k2):
        report = best_response_check(
            market_uniform_k2, 100.0, rng=RngStream(5, 7), **self.GRID
        )
        assert report.certified


def nested_where_payoffs(pool, d, own_type):
    """The per-sample payoff rule as two nested ``np.where`` over the
    whole pool: the reference for the range-sliced ``payoff_samples``."""
    kappa = pool.cfg.externality_share
    if d is None:
        return np.where(np.isinf(pool.m), kappa * own_type, own_type)
    return np.where(
        pool.m > d,
        pool.w,
        np.where(pool.m < d, own_type, (pool.m + pool.t * own_type) / (pool.t + 1.0)),
    )


def opponent_pool(cfg, c, samples=4000, seed=11):
    types = sample_type_matrix(cfg, samples, RngStream(seed, 0), columns=cfg.k - 1)
    return _OpponentPool(cfg, c, equilibrium_strategy_map(cfg, c)(types))


class TestPayoffSamples:
    OWN_TYPES = (50.0, 54.3, 120.0, 200.0)

    def assert_matches(self, pool, deviations):
        for d in deviations:
            for own in self.OWN_TYPES:
                got = pool.payoff_samples(d, own)
                want = nested_where_payoffs(pool, d, own)
                assert got.shape == want.shape == (pool.n,)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (d, own)

    def test_standard_regime_pool(self, market_k4):
        c = 55.0
        pool = opponent_pool(market_k4, c)
        finite = pool.m[np.isfinite(pool.m)]
        # many opponents tie at the cap, some abstain, none bid below r_min
        assert (pool.m == c).sum() > 100 and 0 < pool.n_abstain < pool.n
        assert finite.min() >= 50.0 and finite.max() == c
        inner = float(finite[len(finite) // 3])
        self.assert_matches(pool, [
            None, 0.0, 49.99, float(finite.min()), inner, c,
            float(np.nextafter(c, math.inf)), 1e300,
        ])

    def test_all_abstain_pool(self, market_k4):
        pool = opponent_pool(market_k4, 30.0)
        assert pool.n_abstain == pool.n
        self.assert_matches(pool, [None, 0.0, 15.0, 30.0])

    def test_no_abstain_pool(self, market_k4):
        c = 250.0
        pool = opponent_pool(market_k4, c)
        assert pool.n_abstain == 0
        finite_max = float(pool.m[-1])
        self.assert_matches(pool, [
            None, 0.0, float(pool.m[0]), float(pool.m[pool.n // 2]), finite_max,
            float(np.nextafter(finite_max, math.inf)), 225.0, c,
        ])

    def test_uniform_pool_with_exact_ties(self, uniform_dist):
        # k = 5 uniform types bid the cap c = 80 on a whole band
        cfg = MarketConfig(5, uniform_dist, 0.3, 0.4, 300.0)
        pool = opponent_pool(cfg, 80.0, samples=3000, seed=12)
        assert (pool.t > 1.0).any()
        self.assert_matches(pool, [None, 50.0, 70.0, 80.0, 90.0])


class TestCertificationPins:
    """Outcomes recorded before the range-sliced per-sample payoffs and
    the blocked inverse CDF; both must leave every bit as it was."""

    def test_truncated_normal_k4_standard_report(self, market_k4):
        report = best_response_check(market_k4, 55.0, samples=20_000, rng=RngStream(5, 0))
        assert report == CertificationReport(
            certified=True, max_gain=0.0, epsilon=0.0, worst_type=50.0,
            worst_deviation=45.650000000000006, types_checked=50,
            deviations_checked=102, samples=20_000,
        )

    def test_uniform_k3_standard_report(self, uniform_dist):
        cfg = MarketConfig(3, uniform_dist, 0.3, 0.4, 300.0)
        report = best_response_check(cfg, 120.0, samples=20_000, rng=RngStream(5, 7))
        assert report == CertificationReport(
            certified=True, max_gain=0.0, epsilon=0.0, worst_type=50.0,
            worst_deviation=2.4, types_checked=50, deviations_checked=102,
            samples=20_000,
        )

    @pytest.mark.parametrize("mutation, c, refusal", [
        (mutated_abstain_in_cap_band, 55.0,
         (56.12244897959184, 0.0, 8.113349916498871, 0.02504975442256683)),
        (mutated_cap_bid_past_threshold, 55.0,
         (56.12244897959184, None, 0.26727193877551036, 0.0005664779450968416)),
        (mutated_mid_always_cap, 49.4, (50.0, None, 0.14999999999999858, 0.0)),
    ])
    def test_criterion_4_mutation_refusals(self, market_k4, mutation, c, refusal):
        with pytest.raises(CertificationFailed) as err:
            best_response_check(
                market_k4, c, type_grid=50, bid_grid=101, samples=100_000,
                rng=RngStream(2000, 0), strategy=mutation(market_k4, c),
            )
        e = err.value
        assert (e.bidder_type, e.deviation, e.gain, e.epsilon) == refusal


class TestVeryWideSupport:
    """TN(125, 50) over [50, 1e297]: per-sample payoffs reach 1e297, so
    the squared deviations of the exact re-check overflow unless they
    are taken in scaled units."""

    @pytest.fixture(scope="class")
    def wide_market(self):
        dist = TypeDistribution.truncated_normal(125.0, 50.0, 50.0, 1e297)
        return MarketConfig(4, dist, 0.3, 0.4, 95.0)

    def test_cap_past_threshold_mutation_is_refused(self, wide_market):
        with pytest.raises(CertificationFailed) as err:
            best_response_check(
                wide_market, 55.0, samples=2000, rng=RngStream(0, 0),
                strategy=mutated_cap_bid_past_threshold(wide_market, 55.0),
            )
        e = err.value
        assert math.isfinite(e.epsilon) and e.gain > e.epsilon

    def test_equilibrium_certifies_with_a_finite_epsilon(self, wide_market):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = best_response_check(wide_market, 55.0, samples=2000, rng=RngStream(0, 0))
        assert report.certified and math.isfinite(report.epsilon)
        assert report.max_gain <= report.epsilon
