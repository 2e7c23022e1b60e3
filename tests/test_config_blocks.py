"""One reader for every JSON config block: the ``market``,
``multi_market`` and ``dist`` blocks are read by the fields of the class
each one builds, the engine owns the sample-count and
certification-grid rules the CLI reports, and a flag overrides its
config key in one place."""
import json

import pytest

from spectrum_auction import ExperimentConfig, MarketConfig, MultiMarketConfig, TypeDistribution
from spectrum_auction import multi_lte, oracle
from spectrum_auction.cli import main, parse_market, parse_multi_market
from spectrum_auction.presets import PRESETS, preset
from spectrum_auction.simulation import sweep_cells

TN = TypeDistribution.truncated_normal(125.0, 50.0, 50.0, 200.0)
UNIFORM = {"kind": "uniform", "r_min": 50, "r_max": 200}

# Every bundled preset's market, built directly, and its sweep's cell count.
DIRECT = {
    "fig4": (MarketConfig(2, TN, 0.3, 0.4, 300.0), 1),
    "fig5": (MarketConfig(4, TN, 0.3, 0.4, 95.0), 6),
    "fig6": (MarketConfig(4, TN, 0.3, 0.4, 150.0), 13),
    "fig7": (MarketConfig(4, TN, 0.3, 0.4, 240.0), 18),
    "fig8": (MarketConfig(4, TN, 0.3, 0.4, 370.0), 5),
    "fig9": (MarketConfig(4, TN, 0.3, 0.4, 370.0), 5),
    "fig10": (MarketConfig(4, TN, 0.3, 0.4, 370.0), 1),
    "fig11": (MultiMarketConfig(4, 2, TN, 0.3, 0.4, 0.5, 200.0), 1),
    "fig12": (MultiMarketConfig(2, 2, TN, 0.3, 0.4, 0.5, 370.0), 1),
    "fig13": (MultiMarketConfig(2, 2, TN, 0.3, 0.4, 0.5, 370.0), 1),
    "appendixK": (MarketConfig(4, TN, 0.3, 0.4, 95.0), 1),
}


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config_error(code, err) -> str:
    assert code == 2
    line = json.loads(err)
    assert line["error"] == "config"
    return line["message"]


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_every_preset_is_listed():
    assert set(DIRECT) == set(PRESETS)


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_preset_builds_the_direct_market(name):
    cfg = preset(name)
    market = parse_multi_market(cfg) if "multi_market" in cfg else parse_market(cfg)
    expected, cells = DIRECT[name]
    # repr also tells 95 from 95.0: counts stay ints and rates become floats.
    assert market == expected and repr(market) == repr(expected)
    if "sweep" in cfg:
        assert len(sweep_cells(ExperimentConfig(market, sweep=cfg["sweep"]))) == cells


@pytest.mark.parametrize("dist, message", [
    ([50, 200], "dist must be an object"),
    ("uniform", "dist must be an object"),
    (dict(UNIFORM, median=10), "unknown dist keys: ['median']"),
    ({"r_min": 50, "r_max": 200}, "missing dist keys: ['kind']"),
], ids=["list", "text", "unknown-key", "no-kind"])
@pytest.mark.parametrize("block", ["market", "multi_market"])
def test_cli_dist_block_shape_exits_2(capsys, tmp_path, block, dist, message):
    name, command = ("appendixK", ["optimize"]) if block == "market" else (
        "fig11", ["multi-lte", "optimize", "--samples", "4"])
    config = {block: dict(preset(name)[block], dist=dist)}
    code, _, err = run_cli(capsys, *command, "--config", write_config(tmp_path, config))
    assert config_error(code, err) == message


def test_uniform_dist_block_needs_no_moments():
    market = dict(preset("appendixK")["market"], dist=UNIFORM)
    assert parse_market({"market": market}).dist == TypeDistribution.uniform(50.0, 200.0)


@pytest.mark.parametrize("action", ["optimize", "payoff-curve"])
def test_cli_reports_the_engine_sample_rule(capsys, action):
    args = ["multi-lte", action, "--preset", "fig11", "--samples", "5"]
    code, _, err = run_cli(capsys, *args)
    assert config_error(code, err) == "samples must be an even number >= 4, got 5"
    with pytest.raises(ValueError, match="samples must be an even number >= 4, got 5"):
        multi_lte.require_samples(5)


@pytest.mark.parametrize("flag, value", [("--samples", "1"), ("--type-grid", "0"),
                                         ("--bid-grid", "0")])
def test_cli_reports_the_engine_grid_rule(capsys, flag, value):
    code, _, err = run_cli(capsys, "verify", "--preset", "appendixK", "--c", "55", flag, value)
    message = config_error(code, err)
    with pytest.raises(ValueError) as engine:
        oracle.require_grids(**{"samples": 100, "type_grid": 50, "bid_grid": 101,
                                flag[2:].replace("-", "_"): int(value)})
    assert message == str(engine.value)


def test_flags_override_config_keys(capsys, tmp_path):
    config = {"market": preset("fig4")["market"], "c": 55.0, "c_min": 60.0, "c_max": 150.0,
              "steps": 3}
    path = write_config(tmp_path, config)
    code, out, _ = run_cli(capsys, "payoff-curve", "--config", path, "--steps", "4",
                           "--c-max", "90")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["60", "70", "80", "90"]
    code, out, _ = run_cli(capsys, "equilibrium", "--config", path, "--c", "60")
    assert code == 0 and json.loads(out)["c"] == 60.0
    code, out, _ = run_cli(capsys, "equilibrium", "--config", path)
    assert code == 0 and json.loads(out)["c"] == 55.0


def test_replications_flag_beats_the_config(capsys, tmp_path):
    config = {"multi_market": preset("fig12")["multi_market"], "replications": 2, "seed": 3}
    path = write_config(tmp_path, config)
    code, out, _ = run_cli(capsys, "multi-lte", "simulate", "--config", path, "--reserve", "140",
                           "--replications", "3")
    assert code == 0 and json.loads(out)["replications"] == 3
