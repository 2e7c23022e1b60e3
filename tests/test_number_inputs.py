"""Real-valued config inputs are numbers, not text or bools: a reserve,
a market rate or discount and a type-law bound given as ``true`` or
``"55"`` exits 2 instead of running at ``float(value)``. JSON ints stay
valid wherever a float is read."""
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectrum_auction.cli import main
from spectrum_auction.presets import preset

NOT_NUMBERS = [True, False, "55", "0.3", None, [1.0], {"v": 1.0}]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_config_error(code, err):
    assert code == 2
    assert json.loads(err)["error"] == "config"


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def single_config(**overrides):
    return {"market": preset("appendixK")["market"], "replications": 2, **overrides}


def multi_config():
    return {"multi_market": preset("fig12")["multi_market"], "replications": 2}


@pytest.mark.parametrize("command", ["equilibrium", "verify"])
@pytest.mark.parametrize("c", [True, "55"])
def test_reserve_must_be_a_number(capsys, tmp_path, command, c):
    path = write_config(tmp_path, single_config(c=c))
    assert_config_error(*run_cli(capsys, command, "--config", path)[::2])


@pytest.mark.parametrize("bound, value", [("c_min", True), ("c_min", "100"), ("c_max", "100")])
def test_curve_bounds_must_be_numbers(capsys, tmp_path, bound, value):
    config = {"market": preset("fig4")["market"], "c_min": 60.0, "c_max": 150.0, "steps": 3}
    config[bound] = value
    path = write_config(tmp_path, config)
    assert_config_error(*run_cli(capsys, "payoff-curve", "--config", path)[::2])


@pytest.mark.parametrize("key, value", [("r_lte", True), ("eta_apo", "0.3"), ("delta_lte", "0.4")])
def test_market_floats_must_be_numbers(capsys, tmp_path, key, value):
    config = single_config()
    config["market"][key] = value
    path = write_config(tmp_path, config)
    assert_config_error(*run_cli(capsys, "simulate", "--config", path)[::2])


@pytest.mark.parametrize("key, value", [("theta_lte", "0.5"), ("r_lte", True)])
def test_multi_market_floats_must_be_numbers(capsys, tmp_path, key, value):
    config = multi_config()
    config["multi_market"][key] = value
    path = write_config(tmp_path, config)
    assert_config_error(*run_cli(capsys, "multi-lte", "simulate", "--config", path,
                                 "--reserve", "140")[::2])


TN = {"kind": "truncated_normal", "r_min": 50, "r_max": 200, "mu": 125, "sigma": 50}


@pytest.mark.parametrize("dist", [
    dict(TN, r_max="200"),
    dict(TN, r_min="50"),
    dict(TN, mu="125"),
    dict(TN, sigma=True),
    {"kind": "uniform", "r_min": 0, "r_max": True},
], ids=repr)
def test_type_law_floats_must_be_numbers(capsys, tmp_path, dist):
    config = single_config()
    config["market"]["dist"] = dist
    path = write_config(tmp_path, config)
    assert_config_error(*run_cli(capsys, "simulate", "--config", path)[::2])


def test_json_ints_are_valid_floats(capsys, tmp_path):
    config = single_config(c=55)
    config["market"] = {"k": 4, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 95,
                        "dist": {"kind": "uniform", "r_min": 50, "r_max": 200}}
    path = write_config(tmp_path, config)
    code, out, _ = run_cli(capsys, "equilibrium", "--config", path)
    assert code == 0 and json.loads(out)["c"] == 55.0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    key=st.sampled_from(["eta_apo", "delta_lte", "r_lte", "dist.r_min", "dist.r_max", "c"]),
    value=st.one_of(st.booleans(), st.text(max_size=5), st.sampled_from(NOT_NUMBERS)),
)
def test_non_numbers_exit_2_never_0(capsys, tmp_path, key, value):
    config = single_config(c=55.0)
    if key == "c":
        config["c"] = value
    elif key.startswith("dist."):
        config["market"]["dist"] = dict(config["market"]["dist"], **{key[5:]: value})
    else:
        config["market"][key] = value
    path = write_config(tmp_path, config)
    assert_config_error(*run_cli(capsys, "equilibrium", "--config", path)[::2])
