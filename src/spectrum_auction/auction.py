"""Single-auction resolution: winner selection, payment, payoffs.

The buyer collects one bid per seller. The lowest numeric bid wins and
is paid the second-lowest effective price (the reserve caps it); exact
ties are broken uniformly at random; if everyone abstains the buyer
falls back to coexisting on a uniformly chosen channel.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .equilibrium import ABSTAIN_VALUE, Bid, MarketConfig
from .errors import InvalidProfile
from .numerics import row_sum
from .rng import RngStream


class Mode(Enum):
    COMPETITION = "competition"
    COOPERATION = "cooperation"


@dataclass(frozen=True)
class BidProfile:
    """Ordered bids, one per seller."""

    bids: tuple[Bid, ...]

    def __post_init__(self):
        if len(self.bids) < 2:
            raise InvalidProfile("a profile needs at least two bids")

    @classmethod
    def of(cls, bids: Sequence[Bid | float | None]) -> "BidProfile":
        out = []
        for b in bids:
            if isinstance(b, Bid):
                out.append(b)
            elif b is None:
                out.append(Bid(None))
            else:
                out.append(Bid.of(b))
        return cls(tuple(out))

    def values(self) -> np.ndarray:
        """Bids as floats with abstention encoded as +inf."""
        return np.array(
            [ABSTAIN_VALUE if b.is_abstain else b.rate for b in self.bids],
            dtype=float,
        )


@dataclass(frozen=True)
class AuctionOutcome:
    """Resolved auction: mode, winner (None in competition), the channel
    the buyer occupies or shares, and the allocated rate."""

    mode: Mode
    winner: int | None
    channel: int
    r_pay: float

    @property
    def price(self) -> float:
        """What the buyer gives up when cooperating: the allocated rate."""
        return self.r_pay


def _rank(values: Sequence[float], c: float) -> tuple[list[int] | None, float]:
    """The draw-free part of the auction rule on a bid row (abstention
    as +inf): refuse a numeric bid above the reserve ``c``, then return
    the sellers tied at the lowest bid and the price. A unique lowest
    bidder is paid the reserve-capped second-lowest bid, tied bidders
    the tied bid. When everyone abstains there is no lowest bidder:
    ``(None, 0.0)``. Sorting and comparing round nothing, so on Python
    floats this gives numpy's bits."""
    ranked = sorted(values)
    m = ranked[0]
    if math.isinf(m):
        return None, 0.0
    if ranked[bisect_left(ranked, math.inf) - 1] > c:
        raise InvalidProfile("numeric bids must not exceed the reserve rate")
    tied = [i for i, v in enumerate(values) if v == m]
    if len(tied) == 1:
        return tied, min(c, ranked[1])
    return tied, m


def _second_price(
    values: Sequence[float], c: float, rng: RngStream, k_s: int = 0
) -> tuple[Mode, int | None, int, float]:
    """The auction rule on a bid row (see :func:`_rank`); returns
    ``(mode, winner, channel, price)``.

    The first ``k_s`` sellers share their channel with another buyer,
    so the competition channel is drawn among the rest; ``k_s = 0`` is
    the single-buyer auction. Draw order: a winner tie-break (only when
    several bids share the minimum) or a competition channel pick (only
    when everyone abstains), one draw each.
    """
    tied, price = _rank(values, c)
    if tied is None:
        return Mode.COMPETITION, None, k_s + rng.pick(len(values) - k_s), 0.0
    winner = tied[0] if len(tied) == 1 else tied[rng.pick(len(tied))]
    return Mode.COOPERATION, winner, winner, price


def _resolve_values(values: np.ndarray, c: float, rng: RngStream) -> AuctionOutcome:
    """Single-buyer auction on a numpy bid row: the shared rule, on the
    row's Python floats, with no shared sellers."""
    return AuctionOutcome(*_second_price(values.tolist(), c, rng))


def resolve(profile: BidProfile, c: float, rng: RngStream) -> AuctionOutcome:
    """Resolve one auction under reserve ``c``.

    Unique lowest numeric bid: that seller wins and is allocated
    ``min(c, lowest other bid)`` with abstentions counting as larger
    than anything. Tied lowest: winner uniform among the tied, paid the
    tied bid. All abstain: competition on a uniform channel, no payment.
    """
    return _resolve_values(profile.values(), c, rng)


def lte_payoff(outcome: AuctionOutcome, cfg: MarketConfig) -> float:
    """Buyer's rate: full throughput minus the outcome's price when
    cooperating, discounted throughput under competition."""
    if outcome.mode is Mode.COOPERATION:
        return cfg.r_lte - outcome.price
    return cfg.delta_lte * cfg.r_lte


def settle(outcome: AuctionOutcome, types: list[float], cfg, k_s: int = 0):
    """Both sides of one resolved auction, on Python floats: ``(buyer's
    rate, the sellers' rates, their total, welfare)``.

    The first ``k_s`` sellers share their channel with another buyer:
    they and, under competition, the seller sharing the chosen channel
    keep only the discounted rate. The winner's users get the payment;
    everyone else keeps their standalone rate.
    """
    rates = list(types)
    for i in range(k_s):
        rates[i] *= cfg.eta_apo
    if outcome.mode is Mode.COOPERATION:
        rates[outcome.winner] = outcome.r_pay
    else:
        rates[outcome.channel] *= cfg.eta_apo
    lte = lte_payoff(outcome, cfg)
    total = row_sum(rates)
    return lte, rates, total, lte + total


def realized_apo_payoffs(
    outcome: AuctionOutcome, types: Sequence[float], cfg: MarketConfig, k_s: int = 0
) -> np.ndarray:
    """Per-seller realized rates for one resolved auction, as an array
    (see :func:`settle`)."""
    return np.array(settle(outcome, np.asarray(types, dtype=float).tolist(), cfg, k_s)[1])


def expected_apo_payoff(
    k: int,
    profile: BidProfile,
    types: Sequence[float],
    c: float,
    cfg: MarketConfig,
) -> float:
    """Seller ``k``'s payoff in expectation over the tie-breaking draw.

    Three cases: a strict loser keeps its rate; a tied-minimum bidder
    wins with probability 1/|tied|; when everyone abstains the expected
    keep-fraction is (K-1+eta)/K of its rate. A profile that
    :func:`resolve` refuses is refused here too, and so is one whose
    length is not the market's K.
    """
    values = profile.values()
    if len(types) != len(values):
        raise InvalidProfile("types and bids must have equal length")
    if len(values) != cfg.k:
        raise InvalidProfile(f"a profile of {len(values)} bids does not fit {cfg.k} sellers")
    if not 0 <= k < len(values):
        raise InvalidProfile(f"seller index {k} is outside a profile of {len(values)} bids")
    tied, price = _rank(values.tolist(), c)
    r_k = float(types[k])
    if tied is None:
        return cfg.externality_share * r_k
    if k not in tied:
        return r_k
    n_tied = len(tied)
    return price / n_tied + (n_tied - 1) / n_tied * r_k
