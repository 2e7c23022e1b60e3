"""The direct library constructors read real values by the one number
rule, ``numerics.is_number``: ints and floats, not bools or text.
``TypeDistribution.uniform("50", "200")`` used to build uniform
[50, 200] through ``float()``, ``TypeDistribution("uniform", False,
True)`` a law with bool bounds, and ``MarketConfig(..., r_lte=True)`` a
market with R = True. Each now fails at construction.

``ExperimentConfig`` checks its reserve by the same rule and its master
seed as an unsigned 64-bit integer: ``reserve=True`` used to run and
report ``c_star: True``, ``reserve="5"`` raised ``TypeError``, and a
master seed of -1, 1.5, 2**64 or True built a config that failed only
inside the random streams, or ran."""
import numpy as np
import pytest

from spectrum_auction import ExperimentConfig, MarketConfig, TypeDistribution
from spectrum_auction.equilibrium import SellerMarket
from spectrum_auction.errors import InvalidDistribution
from spectrum_auction.multi_lte import MultiMarketConfig

NOT_NUMBERS = [True, False, "50", "0.3", None, [1.0]]
TN = {"mu": 125.0, "sigma": 50.0, "r_min": 50.0, "r_max": 200.0}
MARKET = {"k": 4, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 95.0}
MULTI = {"k_s": 2, "k_a": 2, "eta_apo": 0.3, "delta_lte": 0.4, "theta_lte": 0.5, "r_lte": 200.0}


def test_uniform_rejects_text_bounds():
    with pytest.raises(InvalidDistribution, match="number"):
        TypeDistribution.uniform("50", "200")


@pytest.mark.parametrize("key", ["r_min", "r_max"])
@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_uniform_rejects_non_numbers(key, value):
    bounds = {"r_min": 50.0, "r_max": 200.0, key: value}
    with pytest.raises(InvalidDistribution, match="number"):
        TypeDistribution.uniform(**bounds)


@pytest.mark.parametrize("key", list(TN))
@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_truncated_normal_rejects_non_numbers(key, value):
    with pytest.raises(InvalidDistribution, match="number"):
        TypeDistribution.truncated_normal(**{**TN, key: value})


def test_direct_construction_rejects_bool_bounds():
    with pytest.raises(InvalidDistribution, match="number"):
        TypeDistribution("uniform", False, True)


@pytest.mark.parametrize("key", ["r_min", "r_max", "mu", "sigma"])
@pytest.mark.parametrize("value", [True, "60"])
def test_direct_construction_rejects_non_numbers(key, value):
    fields = {"kind": "truncated_normal", **TN, key: value}
    with pytest.raises(InvalidDistribution, match="number"):
        TypeDistribution(**fields)


@pytest.mark.parametrize("kind, key", [
    ("uniform", "r_min"), ("uniform", "r_max"),
    ("truncated_normal", "r_min"), ("truncated_normal", "r_max"),
    ("truncated_normal", "mu"), ("truncated_normal", "sigma"),
])
def test_direct_construction_rejects_a_none_value(kind, key):
    """A ``None`` bound used to raise a bare ``TypeError`` from the
    range check."""
    fields = {"kind": kind, **TN, key: None}
    with pytest.raises(InvalidDistribution, match=f"{key} must be a number, got None"):
        TypeDistribution(**fields)


def test_numbers_still_build():
    assert TypeDistribution.uniform(50, 200) == TypeDistribution("uniform", 50.0, 200.0)
    assert TypeDistribution.uniform(50, 200).r_min == 50.0
    assert TypeDistribution("uniform", 50, 200).r_max == 200
    tn = TypeDistribution.truncated_normal(125, 50, 50, 200)
    assert tn.kind == "truncated_normal"
    assert (tn.r_min, tn.r_max, tn.mu, tn.sigma) == (50.0, 200.0, 125.0, 50.0)
    assert all(type(v) is float for v in (tn.r_min, tn.r_max, tn.mu, tn.sigma))
    assert TypeDistribution("uniform", 50.0, 200.0, None, None).mu is None


@pytest.mark.parametrize("key", ["eta_apo", "delta_lte", "r_lte"])
@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_market_rejects_non_numbers(uniform_dist, key, value):
    with pytest.raises(ValueError, match=key):
        MarketConfig(dist=uniform_dist, **{**MARKET, key: value})


@pytest.mark.parametrize("key", ["eta_apo", "delta_lte", "theta_lte", "r_lte"])
@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_multi_market_rejects_non_numbers(uniform_dist, key, value):
    with pytest.raises(ValueError, match=key):
        MultiMarketConfig(dist=uniform_dist, **{**MULTI, key: value})


def test_market_with_bool_rate_is_refused(uniform_dist):
    with pytest.raises(ValueError, match="r_lte must be a number"):
        MarketConfig(4, uniform_dist, 0.3, 0.4, r_lte=True)


def test_markets_accept_ints(uniform_dist):
    assert MarketConfig(dist=uniform_dist, **{**MARKET, "r_lte": 95}).r_lte == 95
    assert MultiMarketConfig(dist=uniform_dist, **{**MULTI, "r_lte": 200}).r_lte == 200


@pytest.mark.parametrize("dist", [None, "uniform", {"kind": "uniform", "r_min": 50, "r_max": 200}])
def test_multi_market_rejects_a_dist_that_is_not_a_law(dist):
    """It used to build, and failed only later in ``alone_market``."""
    with pytest.raises(ValueError) as seller:
        SellerMarket(2, dist, 0.3)
    with pytest.raises(ValueError) as multi:
        MultiMarketConfig(dist=dist, **MULTI)
    assert str(multi.value) == str(seller.value) == f"dist must be a TypeDistribution, got {dist!r}"


@pytest.mark.parametrize("reserve", [True, False, "5", [5.0], np.float32(5.0)])
def test_experiment_config_rejects_a_reserve_that_is_not_a_number(uniform_dist, reserve):
    market = MarketConfig(dist=uniform_dist, **MARKET)
    multi = MultiMarketConfig(dist=uniform_dist, **MULTI)
    for m in (market, multi):
        with pytest.raises(ValueError, match="reserve must be a number"):
            ExperimentConfig(m, reserve=reserve)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, 2**64, True, "1", None, np.int64(-1)])
def test_experiment_config_rejects_a_bad_master_seed(uniform_dist, seed):
    market = MarketConfig(dist=uniform_dist, **MARKET)
    with pytest.raises(ValueError, match="master_seed"):
        ExperimentConfig(market, master_seed=seed)


def test_experiment_config_accepts_seeds_and_reserves_in_range(uniform_dist):
    market = MarketConfig(dist=uniform_dist, **MARKET)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)):
        assert ExperimentConfig(market, master_seed=seed).master_seed == seed
    for reserve in (None, 0, 140, 55.5, np.float64(55.5)):
        assert ExperimentConfig(market, reserve=reserve).reserve == reserve
