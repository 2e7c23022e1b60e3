import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrum_auction import (
    Bid,
    InfeasibleBid,
    InvalidProfile,
    MarketConfig,
    Mode,
    MultiExperimentConfig,
    MultiMarketConfig,
    Origin,
    RngStream,
    VirtualBid,
    bid_alone,
    bid_shared,
    expected_payoff_multi,
    optimize_reserve_multi,
    resolve_multi,
    run_experiment_multi,
    virtual_bid,
)
from spectrum_auction.auction import _resolve_values
from spectrum_auction.multi_lte import (
    apo_payoffs_multi,
    bid_values_alone,
    feasible_reserve_bounds,
    lte_payoff_multi,
    run_benchmark_replication_multi,
    shared_participation_cutoff,
)


@pytest.fixture(scope="module")
def multi_market(trunc_normal):
    # theta=0.5, R=200: shared-bid offset is exactly 100
    return MultiMarketConfig(
        k_s=2, k_a=2, dist=trunc_normal, eta_apo=0.3, delta_lte=0.4,
        theta_lte=0.5, r_lte=200.0,
    )


class TestVirtualBid:
    def test_shared_additive_normalization(self, multi_market):
        got = virtual_bid(Bid.of(10.0), Origin.SHARED, multi_market, 140.0)
        assert got == VirtualBid(110.0, Origin.SHARED)

    def test_abstain_passthrough(self, multi_market):
        got = virtual_bid(Bid(None), Origin.SHARED, multi_market, 140.0)
        assert got.is_abstain

    def test_alone_identity(self, multi_market):
        got = virtual_bid(Bid.of(70.0), Origin.ALONE, multi_market, 140.0)
        assert got == VirtualBid(70.0, Origin.ALONE)

    def test_infeasible_shared_bid(self, multi_market):
        with pytest.raises(InfeasibleBid):
            virtual_bid(Bid.of(50.0), Origin.SHARED, multi_market, 140.0)

    def test_infeasible_alone_bid(self, multi_market):
        with pytest.raises(InfeasibleBid):
            virtual_bid(Bid.of(150.0), Origin.ALONE, multi_market, 140.0)

    @given(
        theta=st.floats(min_value=0.01, max_value=0.99),
        r_lte=st.floats(min_value=1.0, max_value=1000.0),
        c=st.floats(min_value=0.0, max_value=1000.0),
        ulps=st.integers(min_value=-3, max_value=3),
    )
    @example(theta=0.8627794553427012, r_lte=325.4653867739093, c=226.09129103966657, ulps=0)
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_shared_bid_resolves(self, uniform_dist, theta, r_lte, c, ulps):
        """A shared raw bid is accepted exactly when its normalized
        value is at most ``c``, the rule the auction applies, so an
        accepted bid always resolves. The cap used to be checked on the
        raw bid as ``c - (1-theta) R``, which rounding let through for
        raw bids whose normalized value exceeds ``c``."""
        cfg = MultiMarketConfig(2, 2, uniform_dist, 0.3, 0.4, theta, r_lte)
        raw = c - cfg.shared_offset
        for _ in range(abs(ulps)):
            raw = math.nextafter(raw, math.copysign(math.inf, ulps))
        if raw < 0.0:
            return
        try:
            vb = virtual_bid(Bid.of(raw), Origin.SHARED, cfg, c)
        except InfeasibleBid:
            assert raw + cfg.shared_offset > c
            return
        alone = [VirtualBid(None, Origin.ALONE)] * 2
        out = resolve_multi([vb, VirtualBid(None, Origin.SHARED), *alone], cfg, c, RngStream(0, 0))
        assert out.winner == 0 and out.virtual_price == c


class TestSharedBidding:
    def test_below_cutoff_bids_discounted_rate(self, multi_market):
        # cutoff (140-100)/0.3 = 133.33
        assert shared_participation_cutoff(multi_market, 140.0) == pytest.approx(133.333333, abs=1e-5)
        got = bid_shared(multi_market, 140.0, 100.0)
        assert got.origin is Origin.SHARED and got.rate == pytest.approx(130.0, rel=1e-12)

    def test_above_cutoff_abstains(self, multi_market):
        assert bid_shared(multi_market, 140.0, 150.0).is_abstain

    def test_small_reserve_forces_abstention(self, multi_market):
        # below the offset no shared bid is feasible
        for r in (50.0, 125.0, 200.0):
            assert bid_shared(multi_market, 90.0, r).is_abstain


class TestAloneBidding:
    def test_matches_single_buyer_equilibrium(self, uniform_dist):
        cfg = MultiMarketConfig(2, 2, uniform_dist, 0.3, 0.4, 0.5, 300.0)
        # k_a=2 threshold equals the two-seller quadratic root 137.06
        got = bid_alone(cfg, 100.0, 120.0)
        assert got == VirtualBid(100.0, Origin.ALONE)
        assert bid_alone(cfg, 100.0, 140.0).is_abstain

    def test_low_reserve_abstains(self, multi_market):
        assert bid_alone(multi_market, 30.0, 60.0).is_abstain

    def test_standard_truthful(self, multi_market):
        got = bid_alone(multi_market, 100.0, 80.0)
        assert got == VirtualBid(80.0, Origin.ALONE)


class TestResolveMulti:
    @pytest.mark.parametrize("n_bids", [0, 1])
    def test_rejects_fewer_than_two_bids(self, multi_market, n_bids):
        """One bid used to fail inside numpy with a zero-size array
        ``ValueError``."""
        vbids = [VirtualBid(70.0, Origin.ALONE)][:n_bids]
        with pytest.raises(InvalidProfile, match="at least two bids"):
            resolve_multi(vbids, multi_market, 140.0, RngStream(0, 0))

    def test_shared_winner_payment_identity(self, multi_market):
        # second virtual price 120; shared winner nets 20; buyer gets 80
        vbids = [
            bid_shared(multi_market, 140.0, 60.0),  # virtual 118, wins
            VirtualBid(None, Origin.SHARED),
            VirtualBid(120.0, Origin.ALONE),
            VirtualBid(125.0, Origin.ALONE),
        ]
        out = resolve_multi(vbids, multi_market, 140.0, RngStream(0, 0))
        assert out.winner == 0
        assert out.winner_origin is Origin.SHARED
        assert out.virtual_price == 120.0
        assert out.r_pay == 20.0
        lte = lte_payoff_multi(out, multi_market)
        assert lte == 80.0
        # the identity theta*R - r_pay == R - price holds exactly
        assert multi_market.theta_lte * multi_market.r_lte - out.r_pay == lte

    def test_all_abstain_competition_alone_channels_only(self, multi_market):
        vbids = [VirtualBid(None, Origin.SHARED)] * 2 + [VirtualBid(None, Origin.ALONE)] * 2
        channels = set()
        for i in range(60):
            out = resolve_multi(vbids, multi_market, 140.0, RngStream(1, i))
            assert out.mode is Mode.COMPETITION
            channels.add(out.channel)
            assert lte_payoff_multi(out, multi_market) == pytest.approx(80.0)
        assert channels == {2, 3}

    def test_alone_winner_second_price(self, multi_market):
        vbids = [
            VirtualBid(None, Origin.SHARED),
            VirtualBid(None, Origin.SHARED),
            VirtualBid(70.0, Origin.ALONE),
            VirtualBid(90.0, Origin.ALONE),
        ]
        out = resolve_multi(vbids, multi_market, 140.0, RngStream(0, 0))
        assert out.winner == 2
        assert out.winner_origin is Origin.ALONE
        assert out.r_pay == 90.0  # min{c, 90}

    def test_reduction_to_single_buyer(self, multi_market, market_k4):
        # with every shared seller abstaining, resolution over the alone
        # sellers reproduces the single-buyer auction exactly
        alone_market = multi_market.alone_market
        rng_multi = RngStream(3, 5)
        rng_single = RngStream(3, 5)
        for types in ([60.0, 75.0], [150.0, 170.0], [55.0, 55.0]):
            values = bid_values_alone(multi_market, 100.0, np.array(types))
            vbids = [VirtualBid(None, Origin.SHARED)] * 2 + [
                VirtualBid(None if np.isinf(v) else float(v), Origin.ALONE)
                for v in values
            ]
            out_multi = resolve_multi(vbids, multi_market, 100.0, rng_multi)
            out_single = _resolve_values(values, 100.0, rng_single)
            assert out_multi.mode == out_single.mode
            assert out_multi.r_pay == out_single.r_pay
            if out_single.winner is None:
                assert out_multi.channel - 2 == out_single.channel
            else:
                assert out_multi.winner - 2 == out_single.winner


class TestPayoffsMulti:
    def test_shared_non_winner_keeps_discounted_rate(self, multi_market):
        vbids = [
            VirtualBid(None, Origin.SHARED),
            VirtualBid(None, Origin.SHARED),
            VirtualBid(70.0, Origin.ALONE),
            VirtualBid(90.0, Origin.ALONE),
        ]
        out = resolve_multi(vbids, multi_market, 140.0, RngStream(0, 0))
        got = apo_payoffs_multi(out, (100.0, 120.0, 70.0, 90.0), multi_market)
        assert got.tolist() == [30.0, 36.0, 90.0, 90.0]

    def test_alone_all_abstain_share(self, multi_market):
        vbids = [VirtualBid(None, o) for o in (Origin.SHARED,) * 2 + (Origin.ALONE,) * 2]
        out = resolve_multi(vbids, multi_market, 90.0, RngStream(2, 0))
        got = apo_payoffs_multi(out, (100.0, 100.0, 100.0, 100.0), multi_market)
        # competition channel gets eta * r, the other alone seller keeps r
        alone = sorted(got[2:].tolist())
        assert alone == [30.0, 100.0]
        # expected alone payoff under the uniform channel pick is
        # ((k_a - 1 + eta)/k_a) * r = 65
        assert (multi_market.k_a - 1 + multi_market.eta_apo) / multi_market.k_a * 100.0 == 65.0

    def test_alone_loser_keeps_rate(self, multi_market):
        vbids = [
            VirtualBid(None, Origin.SHARED),
            VirtualBid(None, Origin.SHARED),
            VirtualBid(70.0, Origin.ALONE),
            VirtualBid(None, Origin.ALONE),
        ]
        out = resolve_multi(vbids, multi_market, 140.0, RngStream(0, 0))
        got = apo_payoffs_multi(out, (100.0, 120.0, 70.0, 150.0), multi_market)
        assert got[3] == 150.0


class TestExpectedPayoffMulti:
    def test_all_abstain_constant(self, multi_market):
        mean, se = expected_payoff_multi(multi_market, 30.0, n=2000)
        assert mean == multi_market.delta_lte * multi_market.r_lte
        assert se == 0.0

    def test_seed_sets_agree(self, multi_market):
        a, se_a = expected_payoff_multi(multi_market, 120.0, n=40_000, seed=1)
        b, se_b = expected_payoff_multi(multi_market, 120.0, n=40_000, seed=2)
        assert abs(a - b) < 3 * np.hypot(se_a, se_b)

    def test_matches_replication_average(self, multi_market):
        mean, se = expected_payoff_multi(multi_market, 140.0, n=60_000, seed=3)
        xcfg = MultiExperimentConfig(multi_market, replications=4000, master_seed=11, reserve=140.0)
        result = run_experiment_multi(xcfg)
        draws = np.array([r.auction_lte for r in result.replications])
        pooled = np.hypot(se, draws.std(ddof=1) / np.sqrt(len(draws)))
        assert abs(mean - draws.mean()) < 3 * pooled


class TestOptimizeMulti:
    def test_bounds(self, multi_market):
        lo, hi = feasible_reserve_bounds(multi_market)
        assert lo == pytest.approx(32.5)
        assert hi == 200.0

    def test_optimum_beats_baseline_and_neighbors(self, multi_market):
        opt = optimize_reserve_multi(multi_market, n=40_000)
        assert opt.expected_payoff > multi_market.delta_lte * multi_market.r_lte
        for dc in (-8.0, 8.0):
            mean, _ = expected_payoff_multi(multi_market, opt.c_star + dc, n=40_000)
            assert opt.expected_payoff >= mean - 0.5

    def test_degenerate_capacity_returns_baseline(self, trunc_normal):
        cfg = MultiMarketConfig(2, 2, trunc_normal, 0.3, 0.4, 0.5, 20.0)
        opt = optimize_reserve_multi(cfg, n=2000)
        assert opt.case == 1
        assert opt.expected_payoff == cfg.delta_lte * cfg.r_lte


class TestExperimentMulti:
    def test_shared_winners_identity_exact(self, multi_market):
        xcfg = MultiExperimentConfig(
            multi_market, replications=1500, master_seed=5, reserve=140.0
        )
        result = run_experiment_multi(xcfg)
        assert result.summary.shared_wins > 0
        assert result.summary.max_identity_residual == 0.0

    def test_competition_stays_off_shared_channels(self, multi_market):
        xcfg = MultiExperimentConfig(
            multi_market, replications=400, master_seed=6, reserve=35.0
        )
        result = run_experiment_multi(xcfg)
        for rep in result.replications:
            if rep.mode is Mode.COMPETITION:
                assert rep.winner is None

    def test_deterministic_repeat(self, multi_market):
        xcfg = MultiExperimentConfig(
            multi_market, replications=80, master_seed=7, reserve=120.0
        )
        a = run_experiment_multi(xcfg)
        b = run_experiment_multi(xcfg)
        assert a.summary == b.summary
        assert a.replications == b.replications

    def test_benchmark_rule(self, multi_market):
        types = (100.0, 120.0, 80.0, 90.0)
        lte, apo, welfare, channel = run_benchmark_replication_multi(
            multi_market, types, RngStream(8, 0)
        )
        assert lte == pytest.approx(80.0)
        assert channel in (2, 3)
        assert apo[0] == 30.0 and apo[1] == 36.0
        assert apo[channel] == pytest.approx(0.3 * types[channel])
