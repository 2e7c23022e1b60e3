"""The single-buyer auction is the multi-buyer rule with no shared
sellers: one resolution kernel, one benchmark, one seller payoff, one
bid rule per population."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import (
    Mode,
    MultiMarketConfig,
    Origin,
    RngStream,
    TypeDistribution,
    bid_shared,
    solve_strategy,
)
from spectrum_auction.auction import _resolve_values, _second_price, realized_apo_payoffs
from spectrum_auction.multi_lte import (
    _resolve_virtual_values,
    apo_payoffs_multi,
    bid_values_shared,
    run_benchmark_replication_multi,
)
from spectrum_auction.simulation import (
    coexistence_benchmark,
    gain_summary,
    run_benchmark_replication,
    run_blocks,
)

C = 150.0
# Few distinct levels so that ties and all-abstain profiles are common.
bid_levels = st.sampled_from([60.0, 90.0, 120.0, C, math.inf])


@pytest.fixture(scope="module")
def multi_market():
    return MultiMarketConfig(2, 3, TypeDistribution.truncated_normal(125, 50, 50, 200),
                             0.3, 0.4, 0.5, 200.0)


@given(st.lists(bid_levels, min_size=2, max_size=6), st.integers(0, 2**32))
def test_single_buyer_is_the_no_shared_case(values, seed):
    values = np.array(values)
    mode, winner, channel, price = _second_price(values, C, RngStream(seed, 0))
    out = _resolve_values(values, C, RngStream(seed, 0))
    assert (out.mode, out.winner, out.channel, out.r_pay) == (mode, winner, channel, price)
    if mode is Mode.COOPERATION:
        assert values[winner] == values.min() and values[winner] <= price <= C
    else:
        assert winner is None and price == 0.0


@given(st.lists(bid_levels, min_size=4, max_size=6), st.integers(0, 3), st.integers(0, 2**32))
def test_multi_adapter_adds_origin_and_removes_offset(multi_market, values, k_s, seed):
    values = np.array(values)
    k_s = min(k_s, len(values) - 1)
    mode, winner, channel, price = _second_price(values, C, RngStream(seed, 0), k_s)
    out = _resolve_virtual_values(values, k_s, multi_market, C, RngStream(seed, 0))
    assert (out.mode, out.winner, out.channel) == (mode, winner, channel)
    if mode is Mode.COMPETITION:
        assert channel >= k_s and out.winner_origin is None
        assert out.r_pay == out.virtual_price == 0.0
    elif winner < k_s:
        assert out.winner_origin is Origin.SHARED
        assert out.virtual_price == price
        assert out.r_pay == price - multi_market.shared_offset
    else:
        assert out.winner_origin is Origin.ALONE
        assert out.r_pay == out.virtual_price == price


@settings(max_examples=60)
@given(st.floats(30.0, 220.0), st.floats(50.0, 200.0))
def test_scalar_bid_is_the_vector_map(market_k4, c, r):
    strat = solve_strategy(market_k4, c)
    value = float(strat.bid_values(np.array([r]))[0])
    b = strat.bid(r)
    assert (b.rate is None) if math.isinf(value) else (b.rate == value)


@given(st.floats(60.0, 200.0), st.floats(50.0, 200.0))
def test_shared_bid_is_the_vector_map(multi_market, c, r):
    value = float(bid_values_shared(multi_market, c, np.array([r]))[0])
    b = bid_shared(multi_market, c, r)
    assert b.origin is Origin.SHARED
    assert (b.rate is None) if math.isinf(value) else (b.rate == value)


@pytest.mark.parametrize("seed", range(5))
def test_benchmark_single_and_shared(market_k4, multi_market, seed):
    types = np.array([60.0, 80.0, 100.0, 120.0, 140.0])
    single = run_benchmark_replication(market_k4, types[:4], RngStream(seed, 0))
    shared0 = coexistence_benchmark(market_k4, types[:4], RngStream(seed, 0))
    assert single[0] == shared0[0] and single[3] == shared0[3]
    assert np.array_equal(single[1], shared0[1])

    lte, apo, welfare, channel = run_benchmark_replication_multi(multi_market, types, RngStream(seed, 0))
    assert channel >= multi_market.k_s
    expected = types.copy()
    expected[: multi_market.k_s] *= multi_market.eta_apo
    expected[channel] *= multi_market.eta_apo
    assert np.array_equal(apo, expected)
    assert welfare == lte + apo.sum()


def test_multi_seller_payoff_discounts_shared_then_reuses_single(multi_market):
    types = np.array([60.0, 80.0, 100.0, 120.0, 140.0])
    discounted = types.copy()
    discounted[:2] *= multi_market.eta_apo
    for values in ([C, math.inf, 90.0, 120.0, math.inf], [math.inf] * 5, [130.0, C, C, C, C]):
        out = _resolve_virtual_values(np.array(values), 2, multi_market, C, RngStream(3, 0))
        assert np.array_equal(apo_payoffs_multi(out, types, multi_market),
                              realized_apo_payoffs(out, discounted, multi_market))


def _block(args):
    cfg, c_star, start, stop, seed = args
    return [(cfg, c_star, rep, seed) for rep in range(start, stop)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_blocks_keeps_replication_order(workers):
    assert run_blocks(_block, "cfg", 1.5, 7, 9, workers) == [("cfg", 1.5, i, 9) for i in range(7)]


def test_gain_summary_fields():
    class Rep:
        def __init__(self, a, b):
            self.auction_lte = self.auction_apo_total = self.welfare_auction = a
            self.bench_lte = self.bench_apo_total = self.welfare_bench = b

    out = gain_summary([Rep(3.0, 2.0), Rep(2.0, 2.0)])
    assert out["replications"] == 2
    assert out["mean_rho_lte"] == out["mean_rho_apo"] == pytest.approx(0.25)
    assert out["mean_welfare_auction"] == 2.5 and out["mean_welfare_bench"] == 2.0
    assert out["hw_welfare_bench"] == 0.0
    assert out["hw_rho_lte"] == pytest.approx(1.96 * np.std([0.5, 0.0], ddof=1) / math.sqrt(2))
