"""Market and type-law values are finite numbers.

An infinite buyer throughput or type bound used to pass construction:
``"r_lte": Infinity`` made ``optimize`` report a null payoff with exit
0, and an infinite ``r_max`` failed deep in the threshold solve with
exit 3. Both now fail when the object is built (CLI exit 2). So does
an int too large for a float, which used to exit 1 with an
``OverflowError``. ``TypeDistribution``, which the CLI builds from a
``dist`` block's keys, reads its values by the CLI's number rule: ints
and floats only, so ``True`` or ``"0"`` no longer become ``1.0`` or
``0.0``."""
import json
import math
import sys

import pytest

from spectrum_auction import ExperimentConfig, MarketConfig, TypeDistribution
from spectrum_auction.cli import _number, main
from spectrum_auction.equilibrium import require_reserve
from spectrum_auction.errors import InvalidConfig, InvalidDistribution
from spectrum_auction.multi_lte import MultiMarketConfig
from spectrum_auction.presets import preset

NON_FINITE = [math.inf, -math.inf, math.nan]
TN = {"kind": "truncated_normal", "r_min": 50, "r_max": 200, "mu": 125, "sigma": 50}
UNIFORM = {"kind": "uniform", "r_min": 50, "r_max": 200}


def run_cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().err


def assert_config_error(code, err):
    assert code == 2
    assert json.loads(err)["error"] == "config"


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


# ---------------------------------------------------------------------------
# Library objects
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r_lte", NON_FINITE)
def test_market_rejects_non_finite_r_lte(uniform_dist, r_lte):
    with pytest.raises(ValueError, match="r_lte"):
        MarketConfig(k=4, dist=uniform_dist, eta_apo=0.3, delta_lte=0.4, r_lte=r_lte)


@pytest.mark.parametrize("r_lte", NON_FINITE)
def test_multi_market_rejects_non_finite_r_lte(uniform_dist, r_lte):
    with pytest.raises(ValueError, match="r_lte"):
        MultiMarketConfig(
            k_s=2, k_a=2, dist=uniform_dist, eta_apo=0.3, delta_lte=0.4,
            theta_lte=0.5, r_lte=r_lte,
        )


@pytest.mark.parametrize("r_min, r_max", [(50.0, math.inf), (-math.inf, 200.0), (50.0, math.nan)])
def test_uniform_rejects_non_finite_bounds(r_min, r_max):
    with pytest.raises(InvalidDistribution, match="finite"):
        TypeDistribution.uniform(r_min, r_max)


@pytest.mark.parametrize("key", ["r_min", "r_max", "mu", "sigma"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_truncated_normal_rejects_non_finite_values(key, value):
    params = {"mu": 125.0, "sigma": 50.0, "r_min": 50.0, "r_max": 200.0, key: value}
    with pytest.raises(InvalidDistribution, match="finite"):
        TypeDistribution.truncated_normal(**params)


def test_finite_values_still_build():
    assert TypeDistribution.uniform(0, 1e300).r_max == 1e300
    assert TypeDistribution.truncated_normal(-1e3, 1e3, 0, 200).mu == -1e3


# ---------------------------------------------------------------------------
# TypeDistribution reads a dist block's numbers strictly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dist", [
    dict(UNIFORM, r_min="0", r_max=True),
    dict(UNIFORM, r_min="50"),
    dict(UNIFORM, r_max=True),
    dict(UNIFORM, r_max=None),
    dict(UNIFORM, r_min=[50]),
    dict(TN, mu="125"),
    dict(TN, sigma=False),
    dict(TN, sigma={"v": 50}),
])
def test_from_config_rejects_non_numbers(dist):
    with pytest.raises(InvalidDistribution, match="must be a number"):
        TypeDistribution(**dist)


def test_from_config_keeps_ints_floats_and_null_moments():
    assert TypeDistribution(**UNIFORM) == TypeDistribution.uniform(50.0, 200.0)
    assert TypeDistribution(**dict(UNIFORM, mu=None, sigma=None)).kind == "uniform"
    tn = TypeDistribution(**dict(TN, mu=125.5))
    assert tn == TypeDistribution.truncated_normal(125.5, 50.0, 50.0, 200.0)
    assert isinstance(tn.r_min, float) and isinstance(tn.sigma, float)


@pytest.mark.parametrize("value", [True, False, "55", None, [1.0], {"v": 1.0}])
def test_cli_and_library_share_the_number_rule(value):
    with pytest.raises(InvalidConfig):
        _number(value, "x")
    with pytest.raises(InvalidDistribution):
        TypeDistribution(**dict(UNIFORM, r_max=value))


# ---------------------------------------------------------------------------
# CLI: each non-finite value is a config error
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["optimize", "simulate"])
def test_cli_infinite_r_lte_exits_2(capsys, tmp_path, command):
    market = dict(preset("appendixK")["market"], r_lte=math.inf)
    path = write_config(tmp_path, {"market": market, "replications": 2})
    assert_config_error(*run_cli(capsys, command, "--config", path))


@pytest.mark.parametrize("command, flags", [
    ("optimize", ("--samples", "4")),
    ("simulate", ("--reserve", "140")),
], ids=["optimize", "simulate"])
def test_cli_infinite_multi_r_lte_exits_2(capsys, tmp_path, command, flags):
    market = dict(preset("fig12")["multi_market"], r_lte=math.inf)
    path = write_config(tmp_path, {"multi_market": market, "replications": 2})
    assert_config_error(*run_cli(capsys, "multi-lte", command, "--config", path, *flags))


@pytest.mark.parametrize("key, value", [
    ("r_max", math.inf), ("r_min", -math.inf), ("r_max", math.nan),
    ("mu", math.inf), ("sigma", math.inf), ("mu", math.nan),
])
def test_cli_non_finite_type_law_exits_2(capsys, tmp_path, key, value):
    market = dict(preset("appendixK")["market"])
    market["dist"] = dict(TN, **{key: value})
    path = write_config(tmp_path, {"market": market, "c": 55.0})
    assert_config_error(*run_cli(capsys, "equilibrium", "--config", path))


# ---------------------------------------------------------------------------
# An integer too large for a float is not finite
# ---------------------------------------------------------------------------

# JSON integers have no size limit; ``float()`` of this one raises
# OverflowError, and it compares below ``math.inf``.
HUGE = 10**400


@pytest.mark.parametrize("r_lte", [HUGE, -HUGE], ids=["huge", "-huge"])
def test_markets_reject_huge_r_lte(uniform_dist, r_lte):
    with pytest.raises(ValueError, match="r_lte"):
        MarketConfig(4, uniform_dist, 0.3, 0.4, r_lte)
    with pytest.raises(ValueError, match="r_lte"):
        MultiMarketConfig(2, 2, uniform_dist, 0.3, 0.4, 0.5, r_lte)


@pytest.mark.parametrize("key", ["r_min", "r_max", "mu", "sigma"])
@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["huge", "-huge"])
def test_type_law_rejects_huge_values(key, value):
    params = {"mu": 125.0, "sigma": 50.0, "r_min": 50.0, "r_max": 200.0, key: value}
    with pytest.raises(InvalidDistribution, match=f"distribution {key} must be finite"):
        TypeDistribution.truncated_normal(**params)


@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["huge", "-huge"])
def test_reserve_rule_rejects_huge_values(market_k4, value):
    with pytest.raises(ValueError, match="c must be finite and >= 0"):
        require_reserve("c", value)
    with pytest.raises(ValueError, match="reserve must be finite and >= 0"):
        ExperimentConfig(market_k4, reserve=value)


def test_counts_above_sys_maxsize_are_refused(uniform_dist):
    """No array can hold such a count: ``k = 10**400`` overflowed in
    ``externality_share`` and 10**30 replications in ``np.empty``."""
    with pytest.raises(ValueError, match="k must be an integer"):
        MarketConfig(HUGE, uniform_dist, 0.3, 0.4, 95.0)
    for k_s, k_a in ((HUGE, 2), (2, HUGE)):
        with pytest.raises(ValueError, match="k_[sa] must be an integer"):
            MultiMarketConfig(k_s, k_a, uniform_dist, 0.3, 0.4, 0.5, 200.0)
    market = MarketConfig(4, uniform_dist, 0.3, 0.4, 95.0)
    with pytest.raises(ValueError, match="replications must be an integer"):
        ExperimentConfig(market, replications=sys.maxsize + 1)
    assert ExperimentConfig(market, replications=sys.maxsize).replications == sys.maxsize


@pytest.mark.parametrize("args", [
    ("simulate", "--preset", "appendixK"),
    ("multi-lte", "simulate", "--preset", "fig12", "--reserve", "140"),
], ids=["simulate", "multi-lte-simulate"])
def test_cli_replications_no_array_can_hold_exit_2(capsys, args):
    """Each used to exit 1 with "Maximum allowed dimension exceeded"."""
    assert_config_error(*run_cli(capsys, *args, "--replications", str(10**30)))


@pytest.mark.parametrize("args", [
    ("payoff-curve", "--preset", "fig4", "--steps"),
    ("verify", "--preset", "appendixK", "--c", "55", "--samples"),
    ("verify", "--preset", "appendixK", "--c", "55", "--type-grid"),
    ("verify", "--preset", "appendixK", "--c", "55", "--bid-grid"),
    ("multi-lte", "optimize", "--preset", "fig11", "--samples"),
    ("multi-lte", "payoff-curve", "--preset", "fig11", "--samples"),
], ids=["payoff-curve-steps", "verify-samples", "verify-type-grid", "verify-bid-grid",
        "multi-lte-optimize-samples", "multi-lte-payoff-curve-samples"])
def test_cli_counts_no_array_can_hold_exit_2(capsys, args):
    """Each used to exit 1 with "Maximum allowed size exceeded" or
    "Maximum allowed dimension exceeded" from numpy. The count is refused
    before anything is allocated; a count up to ``sys.maxsize`` that no
    memory can hold is not checked."""
    assert_config_error(*run_cli(capsys, *args, str(10**30)))


@pytest.mark.parametrize("args", [
    ("simulate", "--preset", "appendixK", "--replications", str(2**56)),
    ("payoff-curve", "--preset", "fig4", "--c-min", "42", "--c-max", "200", "--steps", str(2**58)),
    ("verify", "--preset", "appendixK", "--c", "55", "--samples", str(2**57)),
], ids=["simulate-replications", "payoff-curve-steps", "verify-samples"])
def test_cli_count_too_large_for_memory_exits_2(capsys, args):
    """Each count passes its rule but sizes an array of 2**57 to 2**63
    bytes, which no machine maps. numpy's MemoryError used to end the
    command with a traceback and exit 1."""
    code, err = run_cli(capsys, *args)
    assert code == 2
    assert json.loads(err)["error"] == "memory"


@pytest.mark.parametrize("args", [
    ("simulate", "--preset", "appendixK", "--replications", str(2**60)),
    ("payoff-curve", "--preset", "fig4", "--c-min", "42", "--c-max", "200", "--steps", str(2**60)),
    ("verify", "--preset", "appendixK", "--c", "55", "--samples", str(2**60)),
], ids=["simulate-replications", "payoff-curve-steps", "verify-samples"])
def test_cli_count_above_the_largest_array_exits_2(capsys, args):
    """Each count sizes an array of more than 2**63 bytes, which numpy
    refuses with ``ValueError: array is too big`` rather than
    ``MemoryError``. These used to exit 1 with a traceback."""
    code, err = run_cli(capsys, *args)
    assert code == 2
    assert json.loads(err)["error"] == "memory"


def test_cli_other_value_errors_still_propagate(monkeypatch):
    """Only numpy's too-big refusal is read as a memory error."""
    def refuse(args):
        raise ValueError("something else")

    monkeypatch.setattr("spectrum_auction.cli.cmd_optimize", refuse)
    with pytest.raises(ValueError, match="something else"):
        main(["optimize", "--preset", "appendixK"])


@pytest.mark.parametrize("command, config", [
    ("equilibrium", {"c": 55.0, "market": dict(preset("appendixK")["market"], r_lte=HUGE)}),
    ("optimize", {"market": dict(preset("appendixK")["market"], r_lte=HUGE)}),
    ("equilibrium", {"c": 55.0, "market": dict(preset("appendixK")["market"], eta_apo=-HUGE)}),
    ("optimize", {"market": dict(preset("appendixK")["market"], dist=dict(TN, r_max=HUGE))}),
    ("equilibrium", {"c": HUGE, "market": preset("appendixK")["market"]}),
    ("payoff-curve", {"c_min": 60.0, "c_max": HUGE, "market": preset("fig4")["market"]}),
    ("equilibrium", {"c": 55.0, "market": dict(preset("appendixK")["market"], k=HUGE)}),
], ids=["equilibrium-r_lte", "optimize-r_lte", "equilibrium-eta_apo", "optimize-r_max",
        "equilibrium-c", "payoff-curve-c_max", "equilibrium-k"])
def test_cli_huge_integer_exits_2(capsys, tmp_path, command, config):
    """Each of these used to exit 1 with an OverflowError traceback."""
    assert_config_error(*run_cli(capsys, command, "--config", write_config(tmp_path, config)))


def test_cli_huge_multi_r_lte_exits_2(capsys, tmp_path):
    market = dict(preset("fig12")["multi_market"], r_lte=HUGE)
    path = write_config(tmp_path, {"multi_market": market})
    assert_config_error(*run_cli(capsys, "multi-lte", "optimize", "--config", path,
                                 "--samples", "4"))
