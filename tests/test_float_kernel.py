"""The per-replication kernel runs on Python floats; every value must
equal the numpy rule's to the bit.

The numpy auction rule below is the one the kernel used to run, kept
as the reference: refuse a numeric bid above the reserve, find the
sellers tied at the lowest bid, pay a unique winner the reserve-capped
second-lowest bid and tied winners the tied bid, and draw a channel
among the unshared sellers when everyone abstains."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import MultiMarketConfig, RngStream, TypeDistribution
from spectrum_auction.auction import Mode, _resolve_values, _second_price
from spectrum_auction.errors import InvalidProfile
from spectrum_auction.multi_lte import _resolve_virtual_values
from spectrum_auction.numerics import row_sum
from spectrum_auction.simulation import social_welfare_max

C = 150.0
# Repeated levels make ties and all-abstain rows common; free floats
# give distinct prices, and a few bids above C must be refused.
bids = st.one_of(
    st.sampled_from([60.0, 90.0, 120.0, C, math.inf, math.inf]),
    st.floats(0.0, C),
    st.floats(C, 2 * C, exclude_min=True),
)


def numpy_second_price(values: np.ndarray, c: float, rng, k_s: int):
    finite = values[np.isfinite(values)]
    if finite.size and finite.max() > c:
        raise InvalidProfile("numeric bids must not exceed the reserve rate")
    m = values.min()
    if math.isinf(m):
        return Mode.COMPETITION, None, k_s + rng.pick(len(values) - k_s), 0.0
    tied = np.nonzero(values == m)[0]
    if len(tied) == 1:
        winner = int(tied[0])
        return Mode.COOPERATION, winner, winner, min(c, float(np.delete(values, winner).min()))
    winner = int(tied[rng.pick(len(tied))])
    return Mode.COOPERATION, winner, winner, float(m)


def outcome_of(rule, *args):
    try:
        return rule(*args)
    except InvalidProfile:
        return "refused"


@pytest.fixture(scope="module")
def market():
    return MultiMarketConfig(2, 3, TypeDistribution.truncated_normal(125, 50, 50, 200),
                             0.3, 0.4, 0.5, 200.0)


@settings(max_examples=400)
@given(st.data(), st.integers(0, 2**32))
def test_float_rule_is_the_numpy_rule(market, data, seed):
    k = data.draw(st.integers(2, 10))
    k_s = data.draw(st.integers(0, k - 2))
    values = np.array(data.draw(st.lists(bids, min_size=k, max_size=k)))
    expected = outcome_of(numpy_second_price, values, C, RngStream(seed, 0), k_s)
    assert outcome_of(_second_price, values.tolist(), C, RngStream(seed, 0), k_s) == expected
    if k_s:
        out = outcome_of(_resolve_virtual_values, values, k_s, market, C, RngStream(seed, 0))
        got = out if out == "refused" else (out.mode, out.winner, out.channel, out.virtual_price)
    else:
        out = outcome_of(_resolve_values, values, C, RngStream(seed, 0))
        got = out if out == "refused" else (out.mode, out.winner, out.channel, out.r_pay)
    assert got == expected


def test_the_property_sees_every_case():
    """Ties, all-abstain rows, unique winners and refusals all occur."""
    rng = np.random.default_rng(0)
    levels = np.array([60.0, 90.0, 120.0, C, math.inf, 200.0])
    seen = set()
    for _ in range(2000):
        values = rng.choice(levels, size=rng.integers(2, 11))
        out = outcome_of(numpy_second_price, values, C, RngStream(0, 0), 0)
        if out == "refused":
            seen.add("refused")
        elif out[0] is Mode.COMPETITION:
            seen.add("abstain")
        else:
            seen.add("tie" if (values == values.min()).sum() > 1 else "unique")
    assert seen == {"refused", "abstain", "tie", "unique"}


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20))
def test_row_sum_is_numpys_sum(xs):
    assert row_sum(xs) == float(np.sum(np.array(xs)))


@given(st.lists(st.floats(0.0, 500.0), min_size=2, max_size=10))
def test_welfare_bound_is_the_numpy_bound(market, types):
    cfg = market.alone_market
    t = np.array(types)
    total = float(t.sum())
    best = total
    for k in range(len(t)):
        others = total - float(t[k])
        best = max(best, cfg.r_lte + others)
        best = max(best, cfg.delta_lte * cfg.r_lte + cfg.eta_apo * float(t[k]) + others)
    assert social_welfare_max(cfg, types) == best
