from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectrum_auction import (
    Bid,
    BidProfile,
    InvalidProfile,
    Mode,
    RngStream,
    expected_apo_payoff,
    lte_payoff,
    realized_apo_payoffs,
    resolve,
)
from spectrum_auction.auction import AuctionOutcome


def profile(*bids):
    return BidProfile.of(bids)


class FixedPick:
    """A stream stand-in whose picks all return ``index``; ``n`` records
    the size of the last pick (1 when none was made)."""

    def __init__(self, index):
        self.index, self.n = index, 1

    def pick(self, n):
        self.n = n
        return self.index


class TestResolve:
    def test_unique_minimum_second_price(self, market_k4):
        out = resolve(profile(60.0, 70.0, None), 80.0, RngStream(0, 0))
        assert out.mode is Mode.COOPERATION
        assert out.winner == 0
        assert out.channel == 0
        assert out.r_pay == 70.0  # min{80, 70, N}

    def test_reserve_caps_payment(self):
        out = resolve(profile(60.0, None, None), 80.0, RngStream(0, 0))
        assert out.r_pay == 80.0

    def test_all_abstain_competition(self):
        channels = set()
        for i in range(40):
            out = resolve(profile(None, None), 45.0, RngStream(1, i))
            assert out.mode is Mode.COMPETITION
            assert out.winner is None
            assert out.r_pay == 0.0
            channels.add(out.channel)
        assert channels == {0, 1}

    def test_tie_uniform_winner(self):
        winners = set()
        for i in range(200):
            out = resolve(profile(55.0, 55.0, 55.0, 55.0), 55.0, RngStream(2, i))
            assert out.mode is Mode.COOPERATION
            assert out.r_pay == 55.0
            winners.add(out.winner)
        assert winners == {0, 1, 2, 3}

    def test_rejects_bid_above_reserve(self):
        with pytest.raises(InvalidProfile):
            resolve(profile(90.0, 70.0), 80.0, RngStream(0, 0))

    def test_rejects_short_profile(self):
        with pytest.raises(InvalidProfile):
            BidProfile.of([55.0])

    def test_tie_break_consumes_one_draw(self):
        # identical stream state before/after implies the draw count
        rng = RngStream(3, 0)
        resolve(profile(55.0, 55.0), 55.0, rng)
        follow_up = rng.uniform()
        rng2 = RngStream(3, 0)
        rng2.uniform()
        assert follow_up == rng2.uniform()


class TestLtePayoff:
    def test_competition_discount(self, market_k4):
        out = AuctionOutcome(Mode.COMPETITION, None, 2, 0.0)
        assert lte_payoff(out, market_k4) == market_k4.delta_lte * market_k4.r_lte
        assert lte_payoff(out, market_k4) == pytest.approx(38.0, abs=1e-12)

    def test_cooperation_nets_payment(self, market_k4):
        out = AuctionOutcome(Mode.COOPERATION, 1, 1, 55.0)
        assert lte_payoff(out, market_k4) == 40.0

    def test_zero_payment(self, market_uniform_k2):
        out = AuctionOutcome(Mode.COOPERATION, 0, 0, 0.0)
        assert lte_payoff(out, market_uniform_k2) == 300.0


class TestRealizedPayoffs:
    def test_cooperation_winner_paid(self, market_k4):
        out = AuctionOutcome(Mode.COOPERATION, 1, 1, 55.0)
        got = realized_apo_payoffs(out, (64.0, 64.0, 64.0, 64.0), market_k4)
        assert got.tolist() == [64.0, 55.0, 64.0, 64.0]

    def test_competition_discounts_shared_channel(self, market_k4):
        out = AuctionOutcome(Mode.COMPETITION, None, 0, 0.0)
        got = realized_apo_payoffs(out, (64.0, 64.0, 64.0, 64.0), market_k4)
        assert got[0] == pytest.approx(19.2, rel=1e-12)
        assert got[1:].tolist() == [64.0, 64.0, 64.0]

    def test_two_seller_case(self, market_uniform_k2):
        out = AuctionOutcome(Mode.COOPERATION, 0, 0, 70.0)
        got = realized_apo_payoffs(out, (50.0, 120.0), market_uniform_k2)
        assert got.tolist() == [70.0, 120.0]

    def test_conservation_under_cooperation(self, market_k4):
        out = AuctionOutcome(Mode.COOPERATION, 2, 2, 47.25)
        apo = realized_apo_payoffs(out, (60.0, 70.0, 64.0, 90.0), market_k4)
        assert lte_payoff(out, market_k4) + apo[2] == market_k4.r_lte


class TestExpectedPayoff:
    def test_four_way_tie_worked_example(self, market_k4):
        p = profile(55.0, 55.0, 55.0, 55.0)
        types = (64.0, 64.0, 64.0, 64.0)
        got = expected_apo_payoff(0, p, types, 55.0, market_k4)
        assert got == 61.75  # 55/4 + 3/4 * 64

    def test_all_abstain_worked_example(self, market_k4):
        p = profile(None, None, None, None)
        got = expected_apo_payoff(2, p, (64.0,) * 4, 49.4, market_k4)
        assert got == market_k4.externality_share * 64.0
        assert got == pytest.approx(52.8, abs=1e-12)

    def test_loser_keeps_rate(self, market_k4):
        p = profile(60.0, 80.0, None, 70.0)
        assert expected_apo_payoff(1, p, (60.0, 120.0, 90.0, 80.0), 80.0, market_k4) == 120.0

    def test_unique_winner_gets_second_price(self, market_k4):
        p = profile(60.0, 80.0, None, 70.0)
        assert expected_apo_payoff(0, p, (60.0, 120.0, 90.0, 80.0), 80.0, market_k4) == 70.0

    def test_matches_tie_break_average(self, market_k4):
        # average realized payoffs over the resolver's randomization
        p = profile(55.0, 55.0, None, 55.0)
        types = (64.0, 58.0, 90.0, 77.0)
        n = 100_000
        totals = np.zeros(4)
        values = p.values()
        from spectrum_auction.auction import _resolve_values

        for i in range(n):
            out = _resolve_values(values, 55.0, RngStream(11, i))
            totals += realized_apo_payoffs(out, types, market_k4)
        means = totals / n
        for k in range(4):
            expect = expected_apo_payoff(k, p, types, 55.0, market_k4)
            # binomial-ish spread of the winner indicator
            se = 30.0 / np.sqrt(n)
            assert abs(means[k] - expect) < 3 * se

    @pytest.mark.parametrize("k", [-1, 4, 5])
    def test_rejects_a_seller_outside_the_profile(self, market_k4, k):
        """``k = -1`` used to return the last seller's payoff, and
        ``k = 4`` raised a bare ``IndexError``."""
        p = profile(60.0, 80.0, None, 70.0)
        with pytest.raises(InvalidProfile, match="seller index"):
            expected_apo_payoff(k, p, (60.0, 120.0, 90.0, 80.0), 80.0, market_k4)

    @pytest.mark.parametrize("bids", [(None,) * 3, (None,) * 5, (60.0, 80.0, None)])
    def test_rejects_a_profile_that_does_not_fit_the_market(self, market_k4, bids):
        """Three abstaining bids in a four-seller market used to give a
        type of 64 the keep-fraction (3 + 0.3)/4, 52.8, while ``resolve``
        draws the competition channel over three: (2 + 0.3)/3 x 64."""
        p = BidProfile.of(bids)
        with pytest.raises(InvalidProfile, match="does not fit 4 sellers"):
            expected_apo_payoff(0, p, (64.0,) * len(bids), 80.0, market_k4)

    @given(
        bids=st.lists(st.sampled_from([None, 40.0, 55.0, 60.0, 80.0, 300.0]), min_size=2, max_size=5),
        c=st.sampled_from([55.0, 80.0, 100.0]),
        eta=st.floats(min_value=0.01, max_value=0.99),
        types=st.lists(st.floats(min_value=1.0, max_value=200.0), min_size=5, max_size=5),
    )
    @example(bids=[60.0, 300.0], c=100.0, eta=0.3, types=[60.0, 70.0, 80.0, 90.0, 100.0])
    @settings(max_examples=150, deadline=None)
    def test_equals_the_enumerated_tie_break_average(self, trunc_normal, bids, c, eta, types):
        """``expected_apo_payoff`` raises exactly when ``resolve`` does;
        otherwise it is the average of ``realized_apo_payoffs`` over
        every pick the auction can make. Bids (60, 300) at c = 100 used
        to give seller 0 a payoff of 100 for a profile ``resolve``
        refuses."""
        from spectrum_auction import MarketConfig

        cfg = MarketConfig(len(bids), trunc_normal, eta, 0.4, 95.0)
        types = types[: len(bids)]
        p = BidProfile.of(bids)
        probe = FixedPick(0)
        try:
            resolve(p, c, probe)
        except InvalidProfile:
            for k in range(len(bids)):
                with pytest.raises(InvalidProfile):
                    expected_apo_payoff(k, p, types, c, cfg)
            return
        outcomes = [resolve(p, c, FixedPick(i)) for i in range(probe.n)]
        for k in range(len(bids)):
            exact = sum(Fraction(realized_apo_payoffs(o, types, cfg)[k]) for o in outcomes)
            expect = float(exact / len(outcomes))
            assert expected_apo_payoff(k, p, types, c, cfg) == pytest.approx(expect, rel=1e-12)

    @given(
        r_k=st.floats(min_value=1.0, max_value=200.0),
        eta=st.floats(min_value=0.01, max_value=0.99),
        k=st.integers(min_value=2, max_value=7),
    )
    @settings(max_examples=40)
    def test_externality_ordering(self, trunc_normal, r_k, eta, k):
        # a loser with a winner present beats the everyone-abstains case
        from spectrum_auction import MarketConfig

        cfg = MarketConfig(k, trunc_normal, eta, 0.4, 95.0)
        bids = [None] * k
        bids[0] = 40.0
        p = BidProfile.of(bids)
        types = tuple([100.0] + [r_k] * (k - 1))
        loser = expected_apo_payoff(1, p, types, 45.0, cfg)
        all_out = expected_apo_payoff(1, BidProfile.of([None] * k), types, 45.0, cfg)
        assert loser > all_out

    @given(data=st.data())
    @settings(max_examples=40)
    def test_payment_never_exceeds_reserve(self, data):
        k = data.draw(st.integers(min_value=2, max_value=6))
        c = data.draw(st.floats(min_value=1.0, max_value=100.0))
        bids = [
            data.draw(
                st.one_of(st.none(), st.floats(min_value=0.0, max_value=c))
            )
            for _ in range(k)
        ]
        out = resolve(BidProfile.of(bids), c, RngStream(0, 0))
        assert out.r_pay <= c
        numeric = [b for b in bids if b is not None]
        if out.mode is Mode.COOPERATION and len(numeric) >= 2:
            second = sorted(numeric)[1]
            assert out.r_pay == min(c, second) or out.r_pay == min(numeric)
