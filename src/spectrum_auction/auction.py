"""Single-auction resolution: winner selection, payment, payoffs.

The buyer collects one bid per seller. The lowest numeric bid wins and
is paid the second-lowest effective price (the reserve caps it); exact
ties are broken uniformly at random; if everyone abstains the buyer
falls back to coexisting on a uniformly chosen channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .equilibrium import ABSTAIN_VALUE, Bid, MarketConfig
from .errors import InvalidProfile
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


def _rank(values: np.ndarray, c: float) -> tuple[np.ndarray | None, float]:
    """The draw-free part of the auction rule on a bid array: refuse a
    numeric bid above the reserve ``c``, then return the sellers tied
    at the lowest bid and the price. A unique lowest bidder is paid the
    reserve-capped second-lowest bid, tied bidders the tied bid. When
    everyone abstains there is no lowest bidder: ``(None, 0.0)``."""
    finite = values[np.isfinite(values)]
    if finite.size and finite.max() > c:
        raise InvalidProfile("numeric bids must not exceed the reserve rate")
    m = values.min()
    if math.isinf(m):
        return None, 0.0
    tied = np.nonzero(values == m)[0]
    if len(tied) == 1:
        return tied, min(c, float(np.delete(values, tied[0]).min()))
    return tied, float(m)


def _second_price(
    values: np.ndarray, c: float, rng: RngStream, k_s: int = 0
) -> tuple[Mode, int | None, int, float]:
    """The auction rule on a bid array; returns ``(mode, winner,
    channel, price)``.

    The first ``k_s`` sellers share their channel with another buyer,
    so the competition channel is drawn among the rest; ``k_s = 0`` is
    the single-buyer auction. Draw order: a winner tie-break (only when
    several bids share the minimum) or a competition channel pick (only
    when everyone abstains), one draw each.
    """
    tied, price = _rank(values, c)
    if tied is None:
        return Mode.COMPETITION, None, k_s + rng.pick(len(values) - k_s), 0.0
    winner = int(tied[0] if len(tied) == 1 else tied[rng.pick(len(tied))])
    return Mode.COOPERATION, winner, winner, price


def second_price_rows(bids: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The auction rule on every row of an ``(n, K)`` bid matrix, K >= 2:
    (cooperation mask, allocated price). The price is the reserve-capped
    second-lowest bid, which is also the tied bid on a tie, and zero
    when every seller abstains. No draw is needed: neither output
    depends on who wins.

    One sweep over the columns keeps each row's lowest bid ``m1`` and
    second-lowest ``m2``: start from the first two columns, then for
    each further column ``x`` set ``m2 = min(m2, max(m1, x))`` and
    ``m1 = min(m1, x)``. Min and max are exact, so the result equals a
    full sort's; nothing is assumed about the bids. The sweep walks
    ``bids.T``, so a transposed ``(K, n)`` array is read row by row."""
    b0, b1, *rest = bids.T
    m1, m2 = np.minimum(b0, b1), np.maximum(b0, b1)
    for x in rest:
        m2 = np.minimum(m2, np.maximum(m1, x))
        m1 = np.minimum(m1, x)
    coop = np.isfinite(m1)
    return coop, np.where(coop, np.minimum(c, m2), 0.0)


def _resolve_values(values: np.ndarray, c: float, rng: RngStream) -> AuctionOutcome:
    """Array-level single-buyer auction: the shared rule with no shared
    sellers."""
    return AuctionOutcome(*_second_price(values, c, rng))


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


def realized_apo_payoffs(
    outcome: AuctionOutcome, types: Sequence[float], cfg: MarketConfig, k_s: int = 0
) -> np.ndarray:
    """Per-seller realized rates for one resolved auction.

    The first ``k_s`` sellers share their channel with another buyer:
    they and, under competition, the seller sharing the chosen channel
    keep only the discounted rate. The winner's users get the payment;
    everyone else keeps their standalone rate.
    """
    payoffs = np.asarray(types, dtype=float).copy()
    if k_s:
        payoffs[:k_s] *= cfg.eta_apo
    if outcome.mode is Mode.COOPERATION:
        payoffs[outcome.winner] = outcome.r_pay
    else:
        payoffs[outcome.channel] *= cfg.eta_apo
    return payoffs


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
    tied, price = _rank(values, c)
    r_k = float(types[k])
    if tied is None:
        return cfg.externality_share * r_k
    if k not in tied:
        return r_k
    n_tied = len(tied)
    return price / n_tied + (n_tied - 1) / n_tied * r_k
