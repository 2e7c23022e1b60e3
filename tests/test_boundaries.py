"""Invalid counts, seeds and distributions fail where they enter: the
library raises, and the CLI exits 2 with a one-line JSON error."""
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectrum_auction import (
    BracketingError,
    InvalidDistribution,
    MultiMarketConfig,
    RngStream,
    TypeDistribution,
    expected_payoff_multi,
    optimize_reserve_multi,
)
from spectrum_auction.cli import main
from spectrum_auction.numerics import sign_change_brackets
from spectrum_auction.oracle import best_response_check
from spectrum_auction.presets import preset

TN = {"kind": "truncated_normal", "r_min": 50.0, "r_max": 200.0, "mu": 125.0, "sigma": 50.0}


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_config_error(code, err):
    assert code == 2
    assert json.loads(err)["error"] == "config"


@pytest.fixture
def small_config(tmp_path):
    """appendixK market with a two-replication default count."""
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"market": preset("appendixK")["market"], "replications": 2}))
    return str(path)


@pytest.fixture
def small_multi_config(tmp_path):
    path = tmp_path / "small_multi.json"
    path.write_text(json.dumps({"multi_market": preset("fig12")["multi_market"], "replications": 2}))
    return str(path)


@pytest.fixture(scope="module")
def multi_market():
    return MultiMarketConfig(2, 2, TypeDistribution.truncated_normal(125, 50, 50, 200),
                             0.3, 0.4, 0.5, 200.0)


class TestReplicationsAndSeed:
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_simulate_rejects_replications_below_one(self, capsys, small_config, value):
        assert_config_error(*run_cli(capsys, "simulate", "--config", small_config,
                                     "--replications", value)[::2])

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_multi_simulate_rejects_replications_below_one(self, capsys, small_multi_config, value):
        assert_config_error(*run_cli(capsys, "multi-lte", "simulate", "--config", small_multi_config,
                                     "--reserve", "140", "--replications", value)[::2])

    def test_config_replications_below_one_rejected(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"market": preset("appendixK")["market"], "replications": 0}))
        assert_config_error(*run_cli(capsys, "simulate", "--config", str(path))[::2])

    def test_simulate_rejects_negative_seed(self, capsys, small_config):
        assert_config_error(*run_cli(capsys, "simulate", "--config", small_config,
                                     "--seed", "-1")[::2])

    def test_multi_simulate_rejects_negative_seed(self, capsys, small_multi_config):
        assert_config_error(*run_cli(capsys, "multi-lte", "simulate", "--config", small_multi_config,
                                     "--reserve", "140", "--seed", "-1")[::2])

    def test_verify_rejects_negative_seed(self, capsys):
        assert_config_error(*run_cli(capsys, "verify", "--preset", "appendixK", "--c", "55",
                                     "--samples", "1000", "--seed", "-1")[::2])

    def test_explicit_count_and_seed_still_override_config(self, capsys, small_config, tmp_path):
        out = tmp_path / "reps.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", small_config, "--replications", "3",
                             "--seed", "4", "--output", str(out), "--summary", str(tmp_path / "s.json"))
        assert code == 0
        assert len(out.read_text().splitlines()) == 4


class TestSampleCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 0, -4])
    def test_expected_payoff_multi_needs_even_n_of_four_or_more(self, multi_market, n):
        with pytest.raises(ValueError):
            expected_payoff_multi(multi_market, 140.0, n=n)

    def test_expected_payoff_multi_accepts_four(self, multi_market):
        mean, se = expected_payoff_multi(multi_market, 140.0, n=4)
        assert math.isfinite(mean) and math.isfinite(se)

    def test_optimize_reserve_multi_rejects_odd_n(self, multi_market):
        with pytest.raises(ValueError):
            optimize_reserve_multi(multi_market, n=3)

    @pytest.mark.parametrize("kwargs", [{"samples": 1}, {"samples": 0}, {"type_grid": 0},
                                        {"bid_grid": 0}])
    def test_best_response_check_rejects_degenerate_grids(self, market_k4, kwargs):
        with pytest.raises(ValueError):
            best_response_check(market_k4, 55.0, rng=RngStream(0, 0), **kwargs)

    @pytest.mark.parametrize("action", ["optimize", "payoff-curve"])
    @pytest.mark.parametrize("samples", ["1", "3"])
    def test_multi_cli_rejects_bad_samples(self, capsys, action, samples):
        args = ["multi-lte", action, "--preset", "fig11", "--samples", samples]
        if action == "payoff-curve":
            args += ["--c-min", "100", "--c-max", "150", "--steps", "3"]
        assert_config_error(*run_cli(capsys, *args)[::2])

    @pytest.mark.parametrize("flag,value", [("--samples", "1"), ("--type-grid", "0"),
                                            ("--bid-grid", "0")])
    def test_verify_cli_rejects_degenerate_grids(self, capsys, flag, value):
        assert_config_error(*run_cli(capsys, "verify", "--preset", "appendixK", "--c", "55",
                                     flag, value)[::2])


class TestZeroMassTruncatedNormal:
    def test_rejected_at_construction(self):
        with pytest.raises(InvalidDistribution):
            TypeDistribution.truncated_normal(1000, 5, 50, 200)

    def test_cli_exit_2(self, capsys, tmp_path):
        market = dict(preset("appendixK")["market"], dist=dict(TN, mu=1000.0, sigma=5.0))
        path = tmp_path / "zero_mass.json"
        path.write_text(json.dumps({"market": market}))
        assert_config_error(*run_cli(capsys, "optimize", "--config", str(path))[::2])

    def test_small_positive_mass_accepted(self):
        dist = TypeDistribution.truncated_normal(300, 40, 50, 200)
        assert 0.0 < dist.cdf(150.0) < 1.0


class TestNaNResiduals:
    def test_nan_region_cannot_hide_a_root(self):
        xs = np.arange(5.0)
        with pytest.raises(BracketingError):
            sign_change_brackets(xs, np.array([1.0, np.nan, -1.0, np.nan, 1.0]))

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=40),
        st.data(),
    )
    def test_interior_nan_always_raises(self, ys, data):
        i = data.draw(st.integers(1, len(ys) - 2))
        ys = np.array(ys)
        ys[i] = np.nan
        with pytest.raises(BracketingError):
            sign_change_brackets(np.arange(float(len(ys))), ys)


def _reference_brackets(xs, ys):
    """Point-by-point statement of the bracket rule."""
    zeros = [(float(x), float(x)) for x, y in zip(xs, ys) if y == 0.0]
    crossings = [
        (float(xs[i]), float(xs[i + 1]))
        for i in range(len(ys) - 1)
        if np.sign(ys[i]) * np.sign(ys[i + 1]) < 0.0
    ]
    return zeros + crossings


@given(st.lists(st.sampled_from([-2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0]) | st.floats(-5, 5),
                max_size=40))
def test_brackets_follow_the_point_rule(ys):
    xs = np.arange(float(len(ys)))
    assert sign_change_brackets(xs, np.array(ys)) == _reference_brackets(xs, ys)
