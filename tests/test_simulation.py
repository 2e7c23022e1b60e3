import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import (
    ExperimentConfig,
    MarketConfig,
    Mode,
    RngStream,
    expected_payoff,
    run_experiment,
    social_welfare_max,
)
from spectrum_auction.cli import parse_market
from spectrum_auction.presets import preset
from spectrum_auction.simulation import (
    run_auction_replication,
    run_benchmark_replication,
    run_sweep,
    sweep_cells,
)


class TestWelfareOracle:
    def test_idle_seller_dominates(self, trunc_normal):
        cfg = MarketConfig(2, trunc_normal, 0.3, 0.4, 300.0)
        # option (ii): idle the 100-rate seller, keep 150
        assert social_welfare_max(cfg, (100.0, 150.0)) == 450.0

    def test_degenerate_buyer_leaves_sellers_alone(self, trunc_normal):
        cfg = MarketConfig(2, trunc_normal, 0.3, 0.4, 1e-12)
        assert social_welfare_max(cfg, (100.0, 150.0)) == pytest.approx(250.0, abs=1e-9)

    def test_worked_example(self, market_k4):
        # max{256, 95+192, 38+19.2+192} = 287
        assert social_welfare_max(market_k4, (64.0,) * 4) == 287.0

    @given(
        types=st.lists(
            st.floats(min_value=50, max_value=200), min_size=4, max_size=4
        )
    )
    @settings(max_examples=50)
    def test_dominates_both_schemes(self, market_k4, types):
        w_max = social_welfare_max(market_k4, types)
        _, _, w_a, *_ = run_auction_replication(
            market_k4, 49.4, RngStream(0, 0), types=np.array(types)
        )
        _, _, w_b, _ = run_benchmark_replication(market_k4, types, RngStream(0, 1))
        assert w_max >= w_a - 1e-9
        assert w_max >= w_b - 1e-9


class TestBenchmark:
    def test_rule(self, trunc_normal):
        cfg = MarketConfig(2, trunc_normal, 0.3, 0.4, 300.0)
        lte, apo, welfare, channel = run_benchmark_replication(
            cfg, (100.0, 150.0), RngStream(5, 0)
        )
        assert lte == cfg.delta_lte * cfg.r_lte == pytest.approx(120.0)
        expected = [100.0, 150.0]
        expected[channel] *= 0.3
        assert apo.tolist() == expected
        assert welfare == pytest.approx(lte + sum(expected))

    def test_worked_example_totals(self, market_k4):
        lte, apo, _, _ = run_benchmark_replication(
            market_k4, (64.0,) * 4, RngStream(5, 1)
        )
        assert lte == pytest.approx(38.0, abs=1e-12)
        assert apo.sum() == pytest.approx(3 * 64 + 19.2, rel=1e-12)

    def test_channel_expectation(self, market_k4):
        # mean seller total over the channel draw equals sum of
        # externality-share rates
        types = (60.0, 90.0, 120.0, 150.0)
        totals = [
            run_benchmark_replication(market_k4, types, RngStream(6, i))[1].sum()
            for i in range(4000)
        ]
        expect = market_k4.externality_share * sum(types)
        assert np.mean(totals) == pytest.approx(expect, rel=0.01)


class TestAuctionReplication:
    def test_forced_types_competition(self, market_k4):
        # all four types above the mid-regime threshold: everyone abstains
        lte, apo, welfare, types, bids, outcome = run_auction_replication(
            market_k4, 49.4, RngStream(7, 0), types=np.array([64.0] * 4)
        )
        assert outcome.mode is Mode.COMPETITION
        assert lte == market_k4.delta_lte * market_k4.r_lte
        assert np.all(np.isinf(bids))

    def test_forced_types_cooperation(self, market_k4):
        lte, apo, welfare, types, bids, outcome = run_auction_replication(
            market_k4, 55.0, RngStream(7, 0), types=np.array([64.0] * 4)
        )
        assert outcome.mode is Mode.COOPERATION
        assert lte == 40.0
        assert bids.tolist() == [55.0] * 4
        assert apo[outcome.winner] == 55.0

    def test_mid_regime_all_high_types_abstain(self, market_k4):
        lte, *_ , outcome = run_auction_replication(
            market_k4, 45.0, RngStream(7, 1), types=np.array([190.0, 180.0, 170.0, 160.0])
        )
        assert outcome.mode is Mode.COMPETITION
        assert lte == market_k4.delta_lte * market_k4.r_lte


class TestRunExperiment:
    def test_deterministic_repeat(self, market_k4):
        xcfg = ExperimentConfig(market_k4, replications=60, master_seed=9)
        a = run_experiment(xcfg)
        b = run_experiment(xcfg)
        assert a.summary == b.summary
        assert a.replications == b.replications

    def test_single_replication(self, market_k4):
        xcfg = ExperimentConfig(market_k4, replications=1, master_seed=0)
        result = run_experiment(xcfg)
        assert result.summary.replications == 1
        assert result.summary.hw_rho_lte == 0.0

    def test_welfare_dominance_within_run(self, market_k4):
        xcfg = ExperimentConfig(market_k4, replications=300, master_seed=4)
        result = run_experiment(xcfg)
        for rep in result.replications:
            assert rep.welfare_max >= max(rep.welfare_auction, rep.welfare_bench) - 1e-9

    def test_forced_reserve_skips_optimizer(self, market_k4):
        xcfg = ExperimentConfig(market_k4, replications=10, master_seed=1, reserve=55.0)
        result = run_experiment(xcfg)
        assert result.summary.c_star == 55.0


class TestSweep:
    def test_cells_expand_cartesian(self, market_k4):
        xcfg = ExperimentConfig(
            market_k4,
            replications=5,
            sweep={"r_lte": [95.0, 150.0], "eta_apo": [0.1, 0.3]},
        )
        cells = sweep_cells(xcfg)
        assert len(cells) == 4
        assert {(c.market.r_lte, c.market.eta_apo) for c in cells} == {
            (95.0, 0.1),
            (95.0, 0.3),
            (150.0, 0.1),
            (150.0, 0.3),
        }

    def test_rejects_unknown_keys(self, market_k4):
        with pytest.raises(ValueError):
            ExperimentConfig(market_k4, sweep={"bandwidth": [1]})

    def test_run_sweep_smoke(self, market_k4):
        xcfg = ExperimentConfig(
            market_k4, replications=20, master_seed=2, sweep={"r_lte": [95.0, 120.0]}
        )
        results = run_sweep(xcfg)
        assert [m.r_lte for m, _ in results] == [95.0, 120.0]
        assert all(r.summary.replications == 20 for _, r in results)


def test_the_simulated_buyer_gain_matches_its_closed_form():
    """The benchmark buyer payoff is the constant ``delta * R``, so the
    mean buyer gain has the exact value ``E[payoff(c*)] / (delta R) - 1``.
    On the five fig8 cells at seeds 1 and 2 (5 000 replications each),
    the case-1 cells, where no seller sells, are exactly 0; each other
    cell's z-score, its error over its standard error ``hw / 1.96``,
    is below 3 in size, and at least 7 of the 8 are below 2.5."""
    fig8 = preset("fig8")
    zs = []
    for seed in (1, 2):
        xcfg = ExperimentConfig(parse_market(fig8), replications=5000, master_seed=seed,
                                sweep=fig8["sweep"])
        for cfg, result in run_sweep(xcfg):
            s = result.summary
            exact = expected_payoff(cfg, s.c_star) / (cfg.delta_lte * cfg.r_lte) - 1.0
            if s.c_star == 0.0:
                assert s.mean_rho_lte == exact == 0.0
            else:
                zs.append(abs(s.mean_rho_lte - exact) / (s.hw_rho_lte / 1.96))
    assert len(zs) == 8
    assert max(zs) < 3.0
    assert sum(z < 2.5 for z in zs) >= 7
