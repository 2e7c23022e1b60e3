"""Batched replication draws reproduce sequential ones: an experiment
takes each replication's first K+2 uniforms up front and maps all types
with one inverse-CDF call, and every record must equal the one a
replication drawing from its own stream one call at a time produces.
Also: the equilibrium caches are bounded."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectrum_auction import (
    ExperimentConfig,
    MarketConfig,
    Mode,
    MultiMarketConfig,
    Origin,
    RngStream,
    TypeDistribution,
    run_experiment,
    run_experiment_multi,
)
from spectrum_auction import equilibrium
from spectrum_auction.multi_lte import (
    run_auction_replication_multi,
    run_benchmark_replication_multi,
)
from spectrum_auction.rng import DrawReplay
from spectrum_auction.simulation import (
    run_auction_replication,
    run_benchmark_replication,
    social_welfare_max,
)

SEED = 11
REPS = 60
# A narrow type law puts many types under the mid-regime threshold, so
# pooled bids at c tie often; at c = 48 some replications have no
# bidder, some one and some several. At c = 30 every seller abstains.
NARROW = TypeDistribution.uniform(50, 70)
TN = TypeDistribution.truncated_normal(125, 50, 50, 200)
CASES = [(NARROW, 48.0), (NARROW, 30.0), (TN, 150.0)]
CASE_IDS = ["mid-ties", "low-abstain", "truncated-normal"]


def sequential_fields(auction_fn, benchmark_fn, cfg, c, rep, sellers):
    """One replication the way it drew before batching: the ``sellers``
    types, the auction's pick and the benchmark's pick from one stream
    in turn."""
    rng = RngStream(SEED, rep)
    types = cfg.dist.sample_n(rng, sellers)
    a_lte, a_apo, w_a, types, bids, outcome = auction_fn(cfg, c, rng, types)
    b_lte, b_apo, w_b, _ = benchmark_fn(cfg, types, rng)
    fields = dict(
        rep=rep,
        types=tuple(float(t) for t in types),
        bids=tuple(float(b) for b in bids),
        mode=outcome.mode,
        winner=outcome.winner,
        r_pay=outcome.r_pay,
        auction_lte=a_lte,
        auction_apo_total=float(a_apo.sum()),
        bench_lte=b_lte,
        bench_apo_total=float(b_apo.sum()),
        welfare_auction=w_a,
        welfare_bench=w_b,
    )
    return fields, outcome


def assert_records_match(records, expected):
    assert len(records) == len(expected)
    for record, fields in zip(records, expected):
        for name, value in fields.items():
            assert getattr(record, name) == value, (record.rep, name)


def assert_tail_positions(records, dist, c):
    """On the narrow law both tail positions occur at c = 48: some
    auctions need a pick (the benchmark then reads draw K+1) and some
    need none (it reads draw K). At c = 30 every auction picks."""
    if dist is not NARROW:
        return
    picked = 0
    for r in records:
        finite = [b for b in r.bids if not math.isinf(b)]
        picked += r.mode is Mode.COMPETITION or finite.count(min(finite)) > 1
    assert picked > 0
    assert (picked < len(records)) == (c == 48.0)


@pytest.mark.parametrize("dist, c", CASES, ids=CASE_IDS)
def test_single_buyer_records_match_sequential_draws(dist, c):
    cfg = MarketConfig(4, dist, 0.3, 0.4, 95.0)
    result = run_experiment(ExperimentConfig(cfg, REPS, SEED, reserve=c))
    expected = []
    for rep in range(REPS):
        fields, _ = sequential_fields(
            run_auction_replication, run_benchmark_replication, cfg, c, rep, cfg.k
        )
        fields["welfare_max"] = social_welfare_max(cfg, fields["types"])
        expected.append(fields)
    assert_records_match(result.replications, expected)
    assert_tail_positions(result.replications, dist, c)


@pytest.mark.parametrize("dist, c", CASES, ids=CASE_IDS)
def test_multi_buyer_records_match_sequential_draws(dist, c):
    cfg = MultiMarketConfig(2, 3, dist, 0.3, 0.4, 0.5, 200.0)
    result = run_experiment_multi(ExperimentConfig(cfg, REPS, SEED, reserve=c))
    expected = []
    for rep in range(REPS):
        fields, outcome = sequential_fields(
            run_auction_replication_multi, run_benchmark_replication_multi, cfg, c, rep,
            cfg.k_s + cfg.k_a,
        )
        fields.update(winner_origin=outcome.winner_origin, virtual_price=outcome.virtual_price)
        expected.append(fields)
    assert_records_match(result.replications, expected)
    assert_tail_positions(result.replications, dist, c)
    if dist is TN:
        assert any(r.winner_origin is Origin.SHARED for r in result.replications)


@pytest.mark.parametrize("run, cfg", [
    (run_experiment, MarketConfig(4, TN, 0.3, 0.4, 95.0)),
    (run_experiment_multi, MultiMarketConfig(2, 3, TN, 0.3, 0.4, 0.5, 200.0)),
], ids=["single", "multi"])
def test_one_inverse_cdf_call_per_experiment(monkeypatch, run, cfg):
    calls = []
    inverse_cdf = TypeDistribution.inverse_cdf

    def counted(self, p):
        calls.append(np.shape(p))
        return inverse_cdf(self, p)

    monkeypatch.setattr(TypeDistribution, "inverse_cdf", counted)
    run(ExperimentConfig(cfg, REPS, SEED, reserve=150.0))
    sellers = cfg.k if isinstance(cfg, MarketConfig) else cfg.k_s + cfg.k_a
    assert calls == [(REPS, sellers)]


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(1, 8))
def test_batched_uniforms_equal_sequential_draws(seed, index, k):
    batched = RngStream(seed, index).uniforms(k + 2)
    rng = RngStream(seed, index)
    sequential = np.concatenate([rng.uniforms(k), [rng.uniform(), rng.uniform()]])
    assert np.array_equal(batched, sequential)


@given(st.integers(0, 2**32), st.integers(1, 1000))
def test_replay_pick_is_the_stream_pick(seed, n):
    (u,) = RngStream(seed, 0).uniforms(1)
    assert DrawReplay([u]).pick(n) == RngStream(seed, 0).pick(n)


def test_replay_refuses_a_third_draw():
    replay = DrawReplay(np.array([0.25, 0.75]))
    assert (replay.pick(4), replay.pick(4)) == (1, 3)
    with pytest.raises(RuntimeError, match="exhausted"):
        replay.pick(2)


CACHED = [equilibrium.solve_threshold_standard, equilibrium.solve_threshold_mid,
          equilibrium.solve_strategy]


@pytest.mark.parametrize("cached", CACHED, ids=lambda f: f.__name__)
def test_equilibrium_caches_are_bounded(cached):
    assert cached.cache_info().maxsize == 4096


def test_a_long_reserve_sweep_stays_within_the_cache_bound(market_k4):
    # Low- and high-regime strategies need no threshold solve.
    low = np.linspace(0.0, market_k4.low_regime_cap, 2100)
    high = np.linspace(market_k4.dist.r_max, 2 * market_k4.dist.r_max, 2100)
    for c in np.concatenate([low, high]):
        equilibrium.solve_strategy(market_k4, float(c))
    info = equilibrium.solve_strategy.cache_info()
    assert info.currsize <= 4096 < len(low) + len(high)
