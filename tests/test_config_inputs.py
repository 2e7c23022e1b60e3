"""Malformed config values fail where they enter: a sweep block must map
sweep keys to non-empty lists whose every cell builds a valid market,
and every count (steps, replications, seed, seller counts, workers) must
be an integer. The library raises ``ValueError``; the CLI exits 2 with a
one-line JSON error and never with a traceback."""
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectrum_auction import ExperimentConfig, MarketConfig, MultiMarketConfig, TypeDistribution
from spectrum_auction.cli import main
from spectrum_auction.presets import preset
from spectrum_auction.simulation import run_experiment, run_sweep

TN = TypeDistribution.truncated_normal(125, 50, 50, 200)

BAD_SWEEPS = [
    {"bandwidth": [1]},
    {"bandwidth": [1, 2]},
    {"eta_apo": [1.5]},
    {"r_lte": 100},
    {"k": [2.5]},
    {"r_lte": []},
    {"r_lte": [100, "x"]},
    [100, 190],
    [],
    "r_lte",
]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_config_error(code, err):
    assert code == 2
    assert json.loads(err)["error"] == "config"


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def simulate_config(**overrides):
    return {"market": preset("appendixK")["market"], "replications": 2, **overrides}


def multi_config(**overrides):
    return {"multi_market": preset("fig12")["multi_market"], "replications": 2, **overrides}


class TestSweepBlock:
    @pytest.mark.parametrize("sweep", BAD_SWEEPS, ids=repr)
    def test_library_rejects_bad_sweep(self, market_k4, sweep):
        with pytest.raises(ValueError):
            ExperimentConfig(market_k4, sweep=sweep)

    @pytest.mark.parametrize("sweep", BAD_SWEEPS, ids=repr)
    def test_cli_exits_2(self, capsys, tmp_path, sweep):
        path = write_config(tmp_path, simulate_config(sweep=sweep))
        assert_config_error(*run_cli(capsys, "simulate", "--config", path)[::2])

    def test_library_rejects_a_sweep_over_a_multi_market(self):
        """A multi-buyer sweep used to build; ``run_experiment_multi``
        then ran the base market only and ``run_sweep`` raised
        ``AttributeError``."""
        market = MultiMarketConfig(2, 2, TN, 0.3, 0.4, 0.5, 370.0)
        with pytest.raises(ValueError, match="single-buyer market"):
            ExperimentConfig(market, sweep={"r_lte": [100.0, 370.0]})

    def test_run_experiment_refuses_a_sweep(self, market_k4):
        """``run_experiment`` used to ignore the sweep and run the base
        market alone, at its own optimum."""
        xcfg = ExperimentConfig(market_k4, replications=5, master_seed=1,
                                sweep={"r_lte": [190.0, 370.0]})
        with pytest.raises(ValueError, match="run_sweep"):
            run_experiment(xcfg)
        assert len(run_sweep(xcfg)) == 2

    def test_multi_cli_exits_2_on_a_sweep(self, capsys, tmp_path):
        """``multi-lte simulate`` used to ignore the block and run one cell."""
        path = write_config(tmp_path, multi_config(sweep={"r_lte": [100, 370]}))
        assert_config_error(*run_cli(capsys, "multi-lte", "simulate", "--config", path,
                                     "--reserve", "140")[::2])

    def test_valid_sweep_still_expands(self, capsys, tmp_path):
        path = write_config(tmp_path, simulate_config(sweep={"r_lte": [95, 150]}))
        code, out, _ = run_cli(capsys, "simulate", "--config", path)
        assert code == 0
        assert [cell["params"]["r_lte"] for cell in json.loads(out)] == [95, 150]


class TestMarketSellerCounts:
    @pytest.mark.parametrize("k", [2.5, 4.0, True, "4"])
    def test_market_config_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError):
            MarketConfig(k, TN, 0.3, 0.4, 95.0)

    @pytest.mark.parametrize("counts", [(2.5, 2), (2, 2.5), (True, 2), (2, 3.0)])
    def test_multi_market_config_rejects_non_integer_counts(self, counts):
        with pytest.raises(ValueError):
            MultiMarketConfig(*counts, TN, 0.3, 0.4, 0.5, 200.0)

    def test_numpy_integer_counts_accepted(self):
        assert MarketConfig(np.int64(3), TN, 0.3, 0.4, 95.0).k == 3


class TestIntegerInputs:
    @pytest.mark.parametrize("steps", ["x", 2.7, True])
    @pytest.mark.parametrize("multi", [False, True])
    def test_bad_config_steps_exit_2(self, capsys, tmp_path, multi, steps):
        if multi:
            config = {"multi_market": preset("fig11")["multi_market"]}
            command = ["multi-lte", "payoff-curve", "--samples", "1000"]
        else:
            config, command = {"market": preset("fig4")["market"]}, ["payoff-curve"]
        config.update(c_min=60.0, c_max=150.0, steps=steps)
        path = write_config(tmp_path, config)
        assert_config_error(*run_cli(capsys, *command, "--config", path)[::2])

    def test_integral_float_steps_accepted(self, capsys, tmp_path):
        config = {"market": preset("fig4")["market"], "c_min": 60.0, "c_max": 150.0, "steps": 3.0}
        code, out, _ = run_cli(capsys, "payoff-curve", "--config", write_config(tmp_path, config))
        assert code == 0 and len(out.splitlines()) == 4

    @pytest.mark.parametrize("key", ["replications", "seed"])
    @pytest.mark.parametrize("value", [2.5, "2", True, None])
    def test_bad_replications_or_seed_exit_2(self, capsys, tmp_path, key, value):
        path = write_config(tmp_path, simulate_config(**{key: value}))
        assert_config_error(*run_cli(capsys, "simulate", "--config", path)[::2])
        path = write_config(tmp_path, multi_config(**{key: value}), "multi.json")
        assert_config_error(*run_cli(capsys, "multi-lte", "simulate", "--config", path,
                                     "--reserve", "140")[::2])

    @pytest.mark.parametrize("value", [2.7, True, "4"])
    def test_bad_market_k_exit_2(self, capsys, tmp_path, value):
        config = simulate_config()
        config["market"]["k"] = value
        assert_config_error(*run_cli(capsys, "simulate", "--config", write_config(tmp_path, config))[::2])

    @pytest.mark.parametrize("key", ["k_s", "k_a"])
    def test_bad_multi_seller_count_exit_2(self, capsys, tmp_path, key):
        config = multi_config()
        config["multi_market"][key] = 2.5
        path = write_config(tmp_path, config)
        assert_config_error(*run_cli(capsys, "multi-lte", "simulate", "--config", path,
                                     "--reserve", "140")[::2])

    def test_integral_float_replications_accepted(self, capsys, tmp_path):
        path = write_config(tmp_path, simulate_config(replications=3.0))
        out = tmp_path / "reps.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", path, "--output", str(out),
                             "--summary", str(tmp_path / "s.json"))
        assert code == 0 and len(out.read_text().splitlines()) == 4


class TestWorkerCount:
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_workers_flag_below_one_exits_2(self, capsys, tmp_path, value):
        path = write_config(tmp_path, simulate_config())
        assert_config_error(*run_cli(capsys, "simulate", "--config", path, "--workers", value)[::2])
        path = write_config(tmp_path, multi_config(), "multi.json")
        assert_config_error(*run_cli(capsys, "multi-lte", "simulate", "--config", path,
                                     "--reserve", "140", "--workers", value)[::2])


# Values that are never a valid count: bools, fractions, non-finite
# floats, text, lists and objects.
not_a_count = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda x: not (math.isfinite(x) and x.is_integer())
    ),
    st.text(max_size=5),
    st.lists(st.integers(0, 5), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 5), max_size=1),
)
bad_sweeps = st.one_of(
    st.sampled_from(BAD_SWEEPS),
    st.builds(lambda v: {"r_lte": v}, not_a_count.filter(lambda v: not isinstance(v, list))),
    st.builds(lambda v: {"k": [v]}, not_a_count),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    case=st.one_of(
        st.tuples(st.sampled_from(["replications", "seed"]), not_a_count),
        st.tuples(st.just("k"), not_a_count),
        st.tuples(st.just("sweep"), bad_sweeps),
        st.tuples(st.just("steps"), not_a_count),
    )
)
def test_malformed_configs_exit_2_never_1(capsys, tmp_path, case):
    key, value = case
    if key == "steps":
        config = {"market": preset("fig4")["market"], "c_min": 60.0, "c_max": 150.0, "steps": value}
        command = ["payoff-curve"]
    else:
        config = simulate_config()
        if key == "k":
            config["market"]["k"] = value
        else:
            config[key] = value
        command = ["simulate"]
    path = write_config(tmp_path, config)
    assert_config_error(*run_cli(capsys, *command, "--config", path)[::2])
