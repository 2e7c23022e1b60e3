"""The multi-provider payoff estimator reads one cached table of three
row values (the lowest shared virtual value, the second-lowest of the
two lowest shared and alone values, the lowest alone type) taken from
each group's sorted types, and the row rule finds the two lowest bids
in one sweep; both must give exactly what the full computation gives.

The references here are coded independently: the row rule against
``np.partition``, the table against ``second_price_rows`` on the four
lowest values, the shared bid rule against its ``np.where`` form, and
the estimator against the unsorted ``(n, k_s + k_a)`` type matrix
mapped through ``bid_values_virtual`` and then the partition rule."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spectrum_auction import MultiMarketConfig, RngStream, TypeDistribution
from spectrum_auction import multi_lte
from spectrum_auction.cli import parse_multi_market
from spectrum_auction.equilibrium import solve_strategy
from spectrum_auction.errors import SpectrumAuctionError
from spectrum_auction.multi_lte import (
    MC_SAMPLES,
    _type_pool,
    bid_values_shared,
    bid_values_virtual,
    expected_payoff_multi,
    shared_participation_cutoff,
)
from spectrum_auction.oracle import second_price_rows
from spectrum_auction.presets import preset

UNIFORM = TypeDistribution.uniform(50, 200)
TRUNC_NORMAL = TypeDistribution.truncated_normal(125, 50, 50, 200)


def partition_rows(bids, c):
    """Reference row rule: sort-based second-lowest bid."""
    coop = np.isfinite(bids.min(axis=1))
    second = np.partition(bids, 1, axis=1)[:, 1]
    return coop, np.where(coop, np.minimum(c, second), 0.0)


def full_pool_types(cfg, n, seed):
    """The whole ``(n, k_s + k_a)`` antithetic type matrix."""
    rng = RngStream(seed, 0)
    u = rng.uniforms(n // 2, cfg.k_s + cfg.k_a)
    return np.asarray(cfg.dist.inverse_cdf(np.concatenate([u, 1.0 - u])), dtype=float)


def sorted_groups(cfg, n, seed):
    """Each row's shared types and alone types, each group sorted."""
    types = full_pool_types(cfg, n, seed)
    return np.sort(types[:, :cfg.k_s], axis=1), np.sort(types[:, cfg.k_s:], axis=1)


def full_pool_payoff(cfg, c, n, seed):
    """Reference estimator over every type of every row."""
    types = full_pool_types(cfg, n, seed)
    coop, price = partition_rows(bid_values_virtual(cfg, c, types), c)
    pay = np.where(coop, cfg.r_lte - price, cfg.delta_lte * cfg.r_lte)
    half = n // 2
    pairs = 0.5 * (pay[:half] + pay[half:])
    return float(pay.mean()), float(pairs.std(ddof=1) / math.sqrt(half))


def bits(x: float) -> str:
    return float(x).hex()


# ---------------------------------------------------------------------------
# (a) The sweep row rule equals the partition rule
# ---------------------------------------------------------------------------

C = 150.0
# Few levels, the reserve and abstention among them, so that ties at the
# minimum, ties at c and all-abstain rows are common.
bid_value = st.one_of(
    st.sampled_from([60.0, 90.0, C, math.inf]),
    st.floats(0.0, C, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    k=st.integers(2, 7),
    n=st.integers(1, 12),
    layout=st.sampled_from(["C", "F", "T"]),
    abstain_row=st.booleans(),
)
def test_row_rule_equals_partition_rule(data, k, n, layout, abstain_row):
    bids = data.draw(hnp.arrays(float, (n, k), elements=bid_value))
    if abstain_row:
        bids[0] = math.inf
    if layout == "F":
        bids = np.asfortranarray(bids)
    elif layout == "T":
        bids = np.ascontiguousarray(bids.T).T
    coop, price = second_price_rows(bids, C)
    ref_coop, ref_price = partition_rows(bids, C)
    assert coop.dtype == bool and price.dtype == float
    assert np.array_equal(coop, ref_coop)
    assert price.tobytes() == ref_price.tobytes()


def test_row_rule_does_not_modify_its_input():
    bids = np.array([[90.0, 60.0, 70.0], [math.inf, 80.0, 50.0]])
    before = bids.copy()
    second_price_rows(bids, C)
    assert np.array_equal(bids, before)


# ---------------------------------------------------------------------------
# (b) The sorted-pool estimator equals the full-pool estimator bit for bit
# ---------------------------------------------------------------------------


def reserve_in(cfg, where, frac):
    """A reserve at relative position ``frac`` of one of five ranges:
    the alone market's four regimes, and the band in which shared
    sellers bid (their offset up to their highest bid)."""
    alone = cfg.alone_market
    low_cap, r_min, r_max = alone.low_regime_cap, cfg.dist.r_min, cfg.dist.r_max
    shared_lo = cfg.shared_offset + cfg.eta_apo * r_min
    shared_hi = cfg.shared_offset + cfg.eta_apo * r_max
    lo, hi = {
        "low": (0.0, low_cap),
        "mid": (low_cap, r_min),
        "standard": (r_min, r_max),
        "high": (r_max, 1.5 * r_max),
        "shared": (shared_lo, shared_hi),
    }[where]
    return lo + frac * (hi - lo)


@settings(max_examples=60, deadline=None)
@given(
    k_s=st.integers(2, 5),
    k_a=st.integers(2, 5),
    dist=st.sampled_from([UNIFORM, TRUNC_NORMAL]),
    eta=st.floats(0.05, 0.95),
    theta=st.floats(0.05, 0.95),
    r_lte=st.floats(60.0, 400.0),
    where=st.sampled_from(["low", "mid", "standard", "high", "shared"]),
    frac=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    n=st.sampled_from([4, 200, 2000]),
    seed=st.integers(0, 2),
)
def test_estimator_equals_full_pool_reference(k_s, k_a, dist, eta, theta, r_lte, where, frac, n, seed):
    cfg = MultiMarketConfig(k_s, k_a, dist, eta, 0.4, theta, r_lte)
    c = reserve_in(cfg, where, frac)
    try:
        expected = full_pool_payoff(cfg, c, n, seed)
    except SpectrumAuctionError as exc:
        with pytest.raises(type(exc)):
            expected_payoff_multi(cfg, c, n=n, seed=seed)
        return
    mean, se = expected_payoff_multi(cfg, c, n=n, seed=seed)
    assert (bits(mean), bits(se)) == tuple(map(bits, expected))


def where_shared_bids(cfg, c, types):
    """Reference shared bids, coded with ``np.where``: the virtual value
    where it is at most ``c``, else abstention (+inf)."""
    v = cfg.eta_apo * np.asarray(types, dtype=float) + cfg.shared_offset
    return np.where(v <= c, v, math.inf)


@settings(max_examples=200, deadline=None)
@given(
    dist=st.sampled_from([UNIFORM, TRUNC_NORMAL]),
    eta=st.floats(0.01, 0.99),
    theta=st.floats(0.01, 0.99),
    r_lte=st.floats(1.0, 400.0),
    c=st.floats(0.0, 400.0),
    u=st.floats(0.0, 1.0),
)
def test_shared_bid_rule_equals_its_where_form(dist, eta, theta, r_lte, c, u):
    """The estimator's reference maps types through
    ``bid_values_virtual``, so the shared rule is checked here on its
    own: at the participation cutoff type and one ulp either side of
    it, inside the support, at NaN, and on 0-d input."""
    cfg = MultiMarketConfig(2, 2, dist, eta, 0.4, theta, r_lte)
    cutoff = shared_participation_cutoff(cfg, c)
    types = np.array([
        cutoff,
        math.nextafter(cutoff, -math.inf),
        math.nextafter(cutoff, math.inf),
        dist.r_min + u * dist.span,
        dist.r_min,
        dist.r_max,
        math.nan,
    ])
    want = where_shared_bids(cfg, c, types)
    assert bid_values_shared(cfg, c, types).tobytes() == want.tobytes()
    for t, w in zip(types, want):
        got = bid_values_shared(cfg, c, np.float64(t))
        assert np.shape(got) == () and bits(got) == bits(w)


def pool_reserve(cfg, shared, alone, i, source):
    """A reserve on one of row ``i``'s own boundaries: a shared
    seller's raw virtual value, an alone type, the row's second-lowest
    raw value, or the alone market's abstention threshold at reserve
    ``A1``, each computed here from the sorted groups, independently of
    the estimator."""
    vs1, vs2 = cfg.eta_apo * shared[i, :2] + cfg.shared_offset
    a1, a2 = alone[i, :2]
    if source == "threshold":
        return solve_strategy(cfg.alone_market.sellers, float(a1)).cutoff
    values = {"vs1": vs1, "vs2": vs2, "a1": a1, "a2": a2}
    values["q"] = sorted(values.values())[1]
    return float(values[source])


@settings(max_examples=120, deadline=None)
@given(
    k_s=st.integers(2, 5),
    k_a=st.integers(2, 5),
    dist=st.sampled_from([UNIFORM, TRUNC_NORMAL]),
    eta=st.floats(0.05, 0.95),
    theta=st.floats(0.05, 0.95),
    r_lte=st.floats(60.0, 400.0),
    source=st.sampled_from(["vs1", "vs2", "a1", "a2", "q", "threshold"]),
    row=st.integers(0, 10**6),
    nudge=st.sampled_from([-1, 0, 0, 1]),
    n=st.sampled_from([4, 200, 2000]),
    seed=st.integers(0, 2),
)
def test_estimator_at_reserves_taken_from_the_pool(
    k_s, k_a, dist, eta, theta, r_lte, source, row, nudge, n, seed
):
    """Reserves exactly at, and one ulp either side of, a pool row's own
    values hit every ``<=`` boundary of the bid maps and the ties at
    ``c``."""
    cfg = MultiMarketConfig(k_s, k_a, dist, eta, 0.4, theta, r_lte)
    shared, alone = sorted_groups(cfg, n, seed)
    try:
        c = pool_reserve(cfg, shared, alone, row % n, source)
    except SpectrumAuctionError:
        return
    if nudge:
        c = math.nextafter(c, nudge * math.inf)
    try:
        expected = full_pool_payoff(cfg, c, n, seed)
    except SpectrumAuctionError as exc:
        with pytest.raises(type(exc)):
            expected_payoff_multi(cfg, c, n=n, seed=seed)
        return
    mean, se = expected_payoff_multi(cfg, c, n=n, seed=seed)
    assert (bits(mean), bits(se)) == tuple(map(bits, expected))


@pytest.mark.parametrize("k_s, k_a", [(2, 2), (4, 2), (2, 5), (5, 3)])
@pytest.mark.parametrize("dist", [UNIFORM, TRUNC_NORMAL], ids=["uniform", "trunc_normal"])
def test_estimator_on_a_reserve_grid(k_s, k_a, dist):
    """Every reserve of a grid across all regimes, as the optimizer's
    guard scan would visit them."""
    cfg = MultiMarketConfig(k_s, k_a, dist, 0.3, 0.4, 0.5, 200.0)
    for c in np.linspace(0.0, 1.2 * dist.r_max, 61):
        got = expected_payoff_multi(cfg, float(c), n=2000, seed=1)
        assert tuple(map(bits, got)) == tuple(map(bits, full_pool_payoff(cfg, float(c), 2000, 1)))


def test_reference_covers_shared_winners_and_full_abstention():
    """The cases the estimator must get right are reachable: at c = 140
    some rows are won by a shared seller, and below every floor every
    seller abstains so the payoff is the competition payoff exactly."""
    cfg = MultiMarketConfig(4, 2, UNIFORM, 0.3, 0.4, 0.5, 200.0)
    c = 140.0
    assert shared_participation_cutoff(cfg, c) > UNIFORM.r_min
    u = RngStream(0, 0).uniforms(1000, 6)
    bids = bid_values_virtual(cfg, c, UNIFORM.inverse_cdf(u))
    assert np.any(np.argmin(bids, axis=1) < cfg.k_s)
    assert np.any(np.argmin(bids, axis=1) >= cfg.k_s)
    mean, se = expected_payoff_multi(cfg, 10.0, n=2000)
    assert (mean, se) == (cfg.delta_lte * cfg.r_lte, 0.0)


# ---------------------------------------------------------------------------
# (c) The cached pool
# ---------------------------------------------------------------------------


def test_pool_is_three_read_only_row_values():
    cfg = MultiMarketConfig(3, 4, TypeDistribution.uniform(40, 210), 0.3, 0.4, 0.5, 200.0)
    table = _type_pool(cfg, 1000, 5)
    assert isinstance(table, tuple) and len(table) == 3
    for a in table:
        assert a.shape == (1000,) and a.dtype == float
        assert a.flags.c_contiguous and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    shared, alone = sorted_groups(cfg, 1000, 5)
    vs = cfg.eta_apo * shared[:, :2] + cfg.shared_offset
    q = second_price_rows(np.concatenate([vs, alone[:, :2]], axis=1), math.inf)[1]
    vs1, got_q, a1 = table
    assert vs1.tobytes() == vs[:, 0].tobytes()
    assert got_q.tobytes() == q.tobytes()
    assert a1.tobytes() == alone[:, 0].tobytes()


def test_pool_draws_once_per_cache_key(monkeypatch):
    calls = []
    original = TypeDistribution.inverse_cdf

    def counting(self, p):
        calls.append(np.shape(p))
        return original(self, p)

    monkeypatch.setattr(TypeDistribution, "inverse_cdf", counting)
    # A type law no other test uses, so the cache starts cold for it.
    cfg = MultiMarketConfig(3, 2, TypeDistribution.uniform(47, 203), 0.3, 0.4, 0.5, 200.0)
    for c in (60.0, 120.0, 180.0):
        expected_payoff_multi(cfg, c, n=400, seed=9)
    assert calls == [(400, 5)]
    expected_payoff_multi(cfg, 120.0, n=400, seed=10)
    expected_payoff_multi(cfg, 120.0, n=402, seed=9)
    assert calls == [(400, 5), (400, 5), (402, 5)]
    assert len(multi_lte._type_pool(cfg, 400, 9)) == 3
    assert calls == [(400, 5), (400, 5), (402, 5)]
    # The key is the whole market: another theta draws its own pool.
    expected_payoff_multi(replace(cfg, theta_lte=0.6), 120.0, n=400, seed=9)
    assert calls == [(400, 5), (400, 5), (402, 5), (400, 5)]


@pytest.mark.parametrize("c", [45.0, 120.0, 190.0, 199.0, 260.0])
def test_a_warm_call_allocates_at_most_four_rows(c):
    """Once the pool's row values are cached, a call allocates a few
    row-length temporaries, not a copy of the pool per reserve."""
    cfg = parse_multi_market(preset("fig12"))
    n = MC_SAMPLES
    expected_payoff_multi(cfg, c, n=n)
    tracemalloc.start()
    try:
        expected_payoff_multi(cfg, c, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * 8
