"""Reserve rates fail where they enter: a negative or non-finite reserve
from a flag or a config exits 2, and a shared seller's equilibrium bid
never exceeds the reserve through rounding."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import MultiMarketConfig, RngStream, TypeDistribution, classify_regime
from spectrum_auction.cli import main
from spectrum_auction.equilibrium import bid_values
from spectrum_auction.multi_lte import (
    _resolve_virtual_values,
    bid_values_shared,
    shared_participation_cutoff,
)
from spectrum_auction.presets import preset


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_config_error(code, err):
    assert code == 2
    assert json.loads(err)["error"] == "config"


@pytest.fixture
def reserve_config(tmp_path):
    def write(c):
        path = tmp_path / "reserve.json"
        path.write_text(json.dumps({"market": preset("appendixK")["market"], "c": c}))
        return str(path)

    return write


@pytest.fixture
def small_multi_config(tmp_path):
    path = tmp_path / "small_multi.json"
    path.write_text(json.dumps({"multi_market": preset("fig12")["multi_market"], "replications": 2}))
    return str(path)


BAD_RESERVES = ["-5", "nan", "inf"]


class TestReserveFlags:
    @pytest.mark.parametrize("command", ["equilibrium", "verify"])
    @pytest.mark.parametrize("value", BAD_RESERVES)
    def test_bad_c_flag_exits_2(self, capsys, command, value):
        code, _, err = run_cli(capsys, command, "--preset", "appendixK", "--c", value)
        assert_config_error(code, err)

    @pytest.mark.parametrize("command", ["equilibrium", "verify"])
    @pytest.mark.parametrize("value", [-3, "abc", [1.0]])
    def test_bad_config_c_exits_2(self, capsys, reserve_config, command, value):
        code, _, err = run_cli(capsys, command, "--config", reserve_config(value))
        assert_config_error(code, err)

    def test_zero_reserve_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "equilibrium", "--preset", "appendixK", "--c", "0")
        assert code == 0
        assert json.loads(out)["regime"] == "low"

    @pytest.mark.parametrize("bounds", [("-5", "100"), ("40", "inf"), ("nan", "100")])
    def test_bad_curve_bounds_exit_2(self, capsys, bounds):
        c_min, c_max = bounds
        code, _, err = run_cli(capsys, "payoff-curve", "--preset", "fig4",
                               "--c-min", c_min, "--c-max", c_max)
        assert_config_error(code, err)

    def test_bad_config_curve_bound_exits_2(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"market": preset("fig4")["market"], "c_min": -1.0,
                                    "c_max": 100.0}))
        code, _, err = run_cli(capsys, "payoff-curve", "--config", str(path))
        assert_config_error(code, err)

    def test_bad_multi_curve_bound_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "multi-lte", "payoff-curve", "--preset", "fig11",
                               "--samples", "4", "--c-min", "-5", "--c-max", "100")
        assert_config_error(code, err)

    @pytest.mark.parametrize("value", BAD_RESERVES)
    def test_bad_multi_reserve_exits_2(self, capsys, small_multi_config, value):
        code, _, err = run_cli(capsys, "multi-lte", "simulate", "--config", small_multi_config,
                               "--reserve", value)
        assert_config_error(code, err)


def test_classify_regime_rejects_nan(market_k4):
    with pytest.raises(ValueError):
        classify_regime(market_k4, math.nan)


@settings(max_examples=300, deadline=None)
@given(
    eta=st.floats(0.01, 0.99),
    theta=st.floats(0.01, 0.99),
    r_lte=st.floats(1.0, 400.0),
    c=st.floats(0.0, 400.0),
    u=st.floats(0.0, 1.0),
)
def test_shared_bids_never_exceed_the_reserve(eta, theta, r_lte, c, u):
    dist = TypeDistribution.uniform(50, 200)
    cfg = MultiMarketConfig(2, 2, dist, eta, 0.4, theta, r_lte)
    cutoff = shared_participation_cutoff(cfg, c)
    at_cutoff = min(max(cutoff, 50.0), 200.0)
    types = np.array([at_cutoff, np.nextafter(at_cutoff, 200.0), 50.0 + 150.0 * u, 200.0])
    bids = bid_values_shared(cfg, c, types)
    finite = bids[np.isfinite(bids)]
    assert (finite <= c).all()
    values = np.concatenate([bids[:2], bid_values(cfg.alone_market, c, np.array([60.0, 70.0]))])
    _resolve_virtual_values(values, 2, cfg, c, RngStream(0, 0))
