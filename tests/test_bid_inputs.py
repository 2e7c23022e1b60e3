"""Bids and seller types fail when they are built.

A ``Bid`` or ``VirtualBid`` used to accept a NaN or infinite rate:
``resolve`` on the profile ``[nan, 60, N, N]`` then failed deep in the
auction with "pick needs n >= 1", and ``expected_apo_payoff`` scored the
NaN bidder as a loser. ``bid_shared`` used to accept a type outside the
law's support: on U[50, 200] type 0.0 bid 100.0 and NaN abstained.
Both now raise ``ValueError``, as a negative rate and an off-support
``bid`` type already did. So does an int rate too large for a float:
``Bid(10**400)`` built, and ``BidProfile.of([10**400, 60.0])`` raised a
bare ``OverflowError`` from ``float()``.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import (
    Bid,
    BidProfile,
    MarketConfig,
    MultiMarketConfig,
    Origin,
    TypeDistribution,
    VirtualBid,
    bid,
    bid_alone,
    bid_shared,
)

NON_FINITE = [math.nan, math.inf, -math.inf]
UNIFORM = TypeDistribution.uniform(50, 200)
MARKET = MarketConfig(k=4, dist=UNIFORM, eta_apo=0.3, delta_lte=0.4, r_lte=95.0)
MULTI = MultiMarketConfig(
    k_s=2, k_a=2, dist=UNIFORM, eta_apo=0.3, delta_lte=0.4, theta_lte=0.5, r_lte=200.0,
)
# Standard regime for the single-buyer and the alone markets; the shared
# sellers bid below the cutoff (140 - 100)/0.3.
C = 140.0


@pytest.mark.parametrize("rate", NON_FINITE)
def test_bid_refuses_a_non_finite_rate(rate):
    with pytest.raises(ValueError, match="bid rates must be finite and >= 0"):
        Bid(rate)
    with pytest.raises(ValueError, match="bid rates must be finite and >= 0"):
        Bid.of(rate)


@pytest.mark.parametrize("origin", list(Origin))
@pytest.mark.parametrize("rate", [*NON_FINITE, -1.0])
def test_virtual_bid_refuses_a_non_finite_or_negative_rate(rate, origin):
    with pytest.raises(ValueError, match="bid rates must be finite and >= 0"):
        VirtualBid(rate, origin)


def test_profile_with_a_nan_bid_fails_when_built():
    with pytest.raises(ValueError, match="bid rates must be finite and >= 0"):
        BidProfile.of([math.nan, 60.0, None, None])


@pytest.mark.parametrize("build", [
    Bid,
    Bid.of,
    lambda rate: BidProfile.of([rate, 60.0]),
    lambda rate: VirtualBid(rate, Origin.ALONE),
], ids=["Bid", "Bid.of", "BidProfile.of", "VirtualBid"])
@pytest.mark.parametrize("rate", [10**400, -10**400], ids=["huge", "-huge"])
def test_an_int_rate_too_large_for_a_float_is_refused(build, rate):
    with pytest.raises(ValueError, match="bid rates must be finite and >= 0"):
        build(rate)


@pytest.mark.parametrize("r", [0.0, 49.999, 200.001, *NON_FINITE])
def test_bid_shared_refuses_a_type_outside_the_support(r):
    with pytest.raises(ValueError, match="outside support"):
        bid_shared(MULTI, C, r)


@given(r=st.one_of(st.floats(), st.floats(50.0, 200.0), st.sampled_from([50.0, 200.0])))
@settings(max_examples=200, deadline=None)
def test_bid_maps_refuse_exactly_the_types_off_the_support(r):
    """Every single-seller bid map raises ``ValueError`` exactly when
    ``not r_min <= r <= r_max``: NaN, the infinities and finite values
    off the support included."""
    off = not UNIFORM.r_min <= r <= UNIFORM.r_max
    for bid_map, market in ((bid, MARKET), (bid_shared, MULTI), (bid_alone, MULTI)):
        if off:
            with pytest.raises(ValueError, match="outside support"):
                bid_map(market, C, r)
        else:
            bid_map(market, C, r)
