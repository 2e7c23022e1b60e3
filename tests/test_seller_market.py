"""The equilibrium is keyed on the seller side of a market.

Markets that differ only in the buyer's throughput ``r_lte`` or its
discount ``delta_lte`` share one ``SellerMarket``, so they share their
threshold solves. ``SellerMarket`` validates its fields as
``MarketConfig`` does."""
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from spectrum_auction import MarketConfig, SellerMarket, TypeDistribution
from spectrum_auction import equilibrium as eq
from spectrum_auction.provider import curve_point

SOLVERS = [eq.solve_threshold_standard, eq.solve_threshold_mid, eq.solve_strategy]


def fresh_market(eta: float) -> MarketConfig:
    """A market no other test has cached: a distinct ``eta``."""
    return MarketConfig(4, TypeDistribution.truncated_normal(125, 50, 50, 200), eta, 0.4, 95.0)


def misses(solver) -> int:
    return solver.cache_info().misses


@pytest.mark.parametrize("entry", ["curve_point", "bid_values", "solve_strategy"])
def test_buyer_side_twins_share_one_threshold_solve(entry):
    a = fresh_market({"curve_point": 0.3171, "bid_values": 0.3172, "solve_strategy": 0.3173}[entry])
    b = replace(a, r_lte=370.0, delta_lte=0.8)
    assert a.sellers == b.sellers and hash(a.sellers) == hash(b.sellers)
    before = misses(eq.solve_threshold_standard)
    for cfg in (a, b):
        if entry == "curve_point":
            curve_point(cfg, 55.0)
        elif entry == "bid_values":
            eq.bid_values(cfg, 55.0, np.array([60.0, 190.0]))
        else:
            eq.solve_strategy(cfg, 55.0)
    assert misses(eq.solve_threshold_standard) - before == 1


def test_sellers_carry_the_seller_side_of_the_market(market_k4):
    sellers = market_k4.sellers
    assert sellers == SellerMarket(4, market_k4.dist, 0.3)
    assert sellers.sellers is sellers
    assert sellers.externality_share == market_k4.externality_share == (3 + 0.3) / 4
    assert sellers.low_regime_cap == market_k4.low_regime_cap == (3 + 0.3) / 4 * 50.0
    clone = pickle.loads(pickle.dumps(market_k4))
    assert clone == market_k4 and clone.sellers == sellers


BAD_FIELDS = [
    ("k", 1), ("k", 2.5), ("k", True), ("k", "4"),
    ("eta_apo", 0.0), ("eta_apo", 1.0), ("eta_apo", math.nan), ("eta_apo", math.inf),
    ("eta_apo", True), ("eta_apo", "0.3"),
    ("dist", None), ("dist", "uniform"), ("dist", {"kind": "uniform", "r_min": 50, "r_max": 200}),
]


def raised(build):
    try:
        build()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize("field,value", BAD_FIELDS)
def test_seller_market_rejects_what_market_config_rejects(uniform_dist, field, value):
    seller = {"k": 4, "dist": uniform_dist, "eta_apo": 0.3, field: value}
    market = {**seller, "delta_lte": 0.4, "r_lte": 95.0}
    want = raised(lambda: MarketConfig(**market))
    assert want is not None
    assert raised(lambda: SellerMarket(**seller)) is want


@pytest.mark.parametrize("c", [49.4, 55.0])
def test_public_solvers_accept_a_market_config(market_k4, c):
    solver = eq.solve_threshold_mid if c < 50.0 else eq.solve_threshold_standard
    assert solver(market_k4, c) == solver(market_k4.sellers, c)
    assert eq.solve_strategy(market_k4, c) == eq.solve_strategy(market_k4.sellers, c)


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda f: f.__name__)
def test_solvers_stay_bounded_lru_caches(solver):
    assert solver.cache_parameters()["maxsize"] == 4096
    assert hasattr(solver, "cache_clear")
