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


@dataclass(frozen=True)
class PayoffVector:
    lte: float
    apo: tuple[float, ...]


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
    finite = values[np.isfinite(values)]
    if finite.size and finite.max() > c:
        raise InvalidProfile("numeric bids must not exceed the reserve rate")
    m = values.min()
    if math.isinf(m):
        return Mode.COMPETITION, None, k_s + rng.pick(len(values) - k_s), 0.0
    tied = np.nonzero(values == m)[0]
    if len(tied) == 1:
        winner = int(tied[0])
        price = min(c, float(np.delete(values, winner).min()))
    else:
        winner = int(tied[rng.pick(len(tied))])
        price = float(m)
    return Mode.COOPERATION, winner, winner, price


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
    """Buyer's rate: full throughput minus the payment when cooperating,
    discounted throughput under competition."""
    if outcome.mode is Mode.COOPERATION:
        return cfg.r_lte - outcome.r_pay
    return cfg.delta_lte * cfg.r_lte


def realized_apo_payoffs(
    outcome: AuctionOutcome, types: Sequence[float], cfg: MarketConfig
) -> np.ndarray:
    """Per-seller realized rates for one resolved auction.

    The winner's users get the payment; under competition the seller
    sharing the chosen channel keeps only the discounted rate; everyone
    else keeps their standalone rate.
    """
    payoffs = np.asarray(types, dtype=float).copy()
    if outcome.mode is Mode.COOPERATION:
        payoffs[outcome.winner] = outcome.r_pay
    else:
        payoffs[outcome.channel] *= cfg.eta_apo
    return payoffs


def payoff_vector(
    outcome: AuctionOutcome, types: Sequence[float], cfg: MarketConfig
) -> PayoffVector:
    """Buyer and per-seller rates for one resolved auction."""
    return PayoffVector(
        lte=lte_payoff(outcome, cfg),
        apo=tuple(float(x) for x in realized_apo_payoffs(outcome, types, cfg)),
    )


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
    keep-fraction is (K-1+eta)/K of its rate.
    """
    values = profile.values()
    if len(types) != len(values):
        raise InvalidProfile("types and bids must have equal length")
    r_k = float(types[k])
    m = values.min()
    if math.isinf(m):
        return cfg.externality_share * r_k
    if values[k] > m:
        return r_k
    tied = np.nonzero(values == m)[0]
    n_tied = len(tied)
    if n_tied == 1:
        others = np.delete(values, k)
        r_pay = min(c, float(others.min()))
    else:
        r_pay = float(m)
    return r_pay / n_tied + (n_tied - 1) / n_tied * r_k
