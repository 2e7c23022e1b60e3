"""One experiment layer for both buyer models: the multi-buyer
experiment is the single-buyer one with ``k_s`` shared sellers. One
config class checks both, one record base carries the common fields,
and one row rule prices every Monte Carlo row."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import (
    AuctionOutcome,
    ExperimentConfig,
    ExperimentResult,
    MarketConfig,
    Mode,
    MultiExperimentConfig,
    MultiMarketConfig,
    RngStream,
    TypeDistribution,
    run_experiment,
    run_experiment_multi,
)
from spectrum_auction.auction import _second_price
from spectrum_auction.multi_lte import MultiAuctionOutcome, MultiReplicationResult, Origin
from spectrum_auction.oracle import second_price_rows
from spectrum_auction.simulation import ReplicationResult

UNIFORM = TypeDistribution.uniform(50, 200)
SHARED_FIELDS = (
    "rep", "types", "bids", "mode", "winner", "r_pay", "auction_lte", "auction_apo_total",
    "bench_lte", "bench_apo_total", "welfare_auction", "welfare_bench",
)


@pytest.fixture(scope="module")
def multi_market():
    return MultiMarketConfig(2, 2, UNIFORM, 0.3, 0.4, 0.5, 200.0)


def field_names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


class TestOneConfig:
    def test_both_names_are_one_class(self):
        assert MultiExperimentConfig is ExperimentConfig

    @pytest.mark.parametrize("reserve", [-5.0, math.nan, math.inf])
    def test_single_buyer_config_rejects_bad_reserve(self, market_k4, reserve):
        with pytest.raises(ValueError):
            ExperimentConfig(market_k4, replications=2, reserve=reserve)

    @pytest.mark.parametrize("reserve", [-5.0, math.nan, math.inf])
    def test_multi_buyer_config_rejects_bad_reserve(self, multi_market, reserve):
        with pytest.raises(ValueError):
            MultiExperimentConfig(multi_market, replications=2, reserve=reserve)

    def test_zero_and_integer_reserves_accepted(self, market_k4, multi_market):
        assert ExperimentConfig(market_k4, reserve=0.0).reserve == 0.0
        assert MultiExperimentConfig(multi_market, reserve=140).reserve == 140

    @pytest.mark.parametrize("replications", [0, -1, 2.5, True])
    def test_replications_must_be_a_positive_integer(self, multi_market, replications):
        with pytest.raises(ValueError):
            MultiExperimentConfig(multi_market, replications=replications)


class TestOneRecord:
    def test_records_share_one_base_with_the_common_fields(self):
        single, multi = ReplicationResult.__mro__[1], MultiReplicationResult.__mro__[1]
        assert single is multi
        assert field_names(single) == SHARED_FIELDS
        assert field_names(ReplicationResult) == SHARED_FIELDS + ("welfare_max",)
        assert field_names(MultiReplicationResult) == SHARED_FIELDS + (
            "winner_origin", "virtual_price", "identity_residual",
        )

    def test_multi_outcome_is_an_auction_outcome(self):
        assert issubclass(MultiAuctionOutcome, AuctionOutcome)
        assert field_names(MultiAuctionOutcome) == field_names(AuctionOutcome) + (
            "winner_origin", "virtual_price",
        )

    def test_both_experiments_return_one_result_type(self, market_k4, multi_market):
        single = run_experiment(ExperimentConfig(market_k4, replications=3, reserve=55.0))
        multi = run_experiment_multi(MultiExperimentConfig(multi_market, replications=3, reserve=140.0))
        assert type(single) is ExperimentResult and type(multi) is ExperimentResult
        assert all(type(r) is MultiReplicationResult for r in multi.replications)


# Few distinct levels so that ties and all-abstain rows are common.
bid_levels = st.sampled_from([60.0, 90.0, 120.0, 150.0, math.inf])


@given(st.lists(st.lists(bid_levels, min_size=4, max_size=4), min_size=1, max_size=8),
       st.integers(0, 2))
def test_row_rule_matches_the_scalar_rule(rows, k_s):
    """Cooperation mask and price of every row equal what the scalar
    auction rule reports for that row, ties and abstentions included."""
    bids = np.array(rows)
    coop, price = second_price_rows(bids, 150.0)
    for i, row in enumerate(bids):
        mode, _, _, p = _second_price(row, 150.0, RngStream(0, i), k_s)
        assert coop[i] == (mode is Mode.COOPERATION)
        assert price[i] == p


@settings(max_examples=40, deadline=None)
@given(st.lists(bid_levels, min_size=2, max_size=6), st.floats(150.0, 300.0),
       st.integers(0, 2**32))
def test_payment_lies_between_winning_bid_and_reserve(values, c, seed):
    values = np.array(values)
    mode, winner, _, price = _second_price(values, c, RngStream(seed, 0))
    if mode is Mode.COOPERATION:
        assert values[winner] <= price <= c


market_params = dict(
    eta=st.floats(0.05, 0.95),
    delta=st.floats(0.05, 0.95),
    r_lte=st.floats(20.0, 400.0),
    reserve=st.floats(0.0, 260.0),
    seed=st.integers(0, 2**32),
)


@settings(max_examples=25, deadline=None)
@given(**market_params)
def test_single_buyer_payoff_identity_holds_on_every_record(eta, delta, r_lte, reserve, seed):
    market = MarketConfig(3, UNIFORM, eta, delta, r_lte)
    result = run_experiment(ExperimentConfig(market, replications=8, master_seed=seed, reserve=reserve))
    for rec in result.replications:
        if rec.mode is Mode.COOPERATION:
            assert rec.auction_lte == r_lte - rec.r_pay
            assert rec.bids[rec.winner] <= rec.r_pay <= reserve
        else:
            assert rec.auction_lte == delta * r_lte and rec.r_pay == 0.0


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.05, 0.95), **market_params)
def test_multi_buyer_payoff_identity_holds_on_every_record(
    theta, eta, delta, r_lte, reserve, seed
):
    market = MultiMarketConfig(2, 2, UNIFORM, eta, delta, theta, r_lte)
    result = run_experiment_multi(
        MultiExperimentConfig(market, replications=8, master_seed=seed, reserve=reserve)
    )
    for rec in result.replications:
        if rec.mode is Mode.COOPERATION:
            assert rec.auction_lte == r_lte - rec.virtual_price
            assert rec.bids[rec.winner] <= rec.virtual_price <= reserve
        else:
            assert rec.auction_lte == delta * r_lte and rec.winner_origin is None


@settings(max_examples=30, deadline=None)
@given(
    eta=st.floats(0.05, 0.95),
    theta=st.floats(0.05, 0.95),
    r_lte=st.floats(20.0, 400.0),
    reserve=st.floats(0.0, 400.0),
    seed=st.integers(0, 2**32),
)
def test_identity_residual_is_rounding_only(eta, theta, r_lte, reserve, seed):
    market = MultiMarketConfig(2, 2, UNIFORM, eta, 0.4, theta, r_lte)
    result = run_experiment_multi(
        MultiExperimentConfig(market, replications=20, master_seed=seed, reserve=reserve)
    )
    assert result.summary.max_identity_residual <= 1e-9 * r_lte
    shared = [r for r in result.replications if r.winner_origin is Origin.SHARED]
    assert result.summary.shared_wins == len(shared)
