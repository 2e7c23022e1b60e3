"""Auction variant with several buyers in the system.

One buyer (provider 0) runs the auction. Sellers split into two
populations: ``shared`` sellers already coexist with another buyer on
their channel, ``alone`` sellers occupy a channel by themselves. A
shared seller's raw bid is normalized into a virtual bid by adding the
buyer's interference loss ``(1-theta) * R`` so that bids from the two
populations are comparable; alone sellers' bids pass through
unchanged. Resolution runs on virtual bids; the winner's allocated
rate subtracts the normalization again when the winner is shared.

Competition never touches a shared seller's channel: the fallback
coexistence channel is drawn uniformly among the alone sellers only.
The single-buyer payoff rules settle every outcome, with the virtual
price as provider 0's price and the ``k_s`` shared sellers discounted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .auction import AuctionOutcome, BidProfile, Mode, _second_price, settle
from .distributions import TypeDistribution
from .equilibrium import (
    Bid,
    MarketConfig,
    bid_values,
    bid as single_bid,
    capped_bids,
    require_count,
    require_numbers,
    require_type,
    solve_strategy,
)
from .errors import InfeasibleBid, InvalidProfile
from .provider import OptimalReserve, _search_reserve
from .rng import DrawReplay, RngStream
from .simulation import ExperimentConfig, ExperimentResult, GainSummary, ReplicationRecord
from .simulation import coexistence_benchmark, experiment, gain_summary, replicate

FALLBACK_GRID_POINTS = 400
MC_SAMPLES = 100_000


class Origin(Enum):
    SHARED = "S"
    ALONE = "A"


@dataclass(frozen=True)
class MultiMarketConfig:
    """Two seller populations plus the buyer-on-buyer discount
    ``theta_lte`` applied when provider 0 shares a channel with another
    buyer."""

    k_s: int
    k_a: int
    dist: TypeDistribution
    eta_apo: float
    delta_lte: float
    theta_lte: float
    r_lte: float

    def __post_init__(self):
        require_count("k_s", self.k_s, 2)
        require_count("k_a", self.k_a, 2)
        self.alone_market  # builds it, which checks dist, eta_apo, delta_lte and r_lte
        require_numbers(self, "theta_lte")
        if not 0.0 < self.theta_lte < 1.0:
            raise ValueError("theta_lte must lie in (0, 1)")

    @property
    def shared_offset(self) -> float:
        """(1-theta) * R: the buyer's rate loss on a shared channel,
        added to shared sellers' bids during normalization."""
        return (1.0 - self.theta_lte) * self.r_lte

    @cached_property
    def alone_market(self) -> MarketConfig:
        """Single-buyer market over the alone sellers only; their
        equilibrium is the single-buyer one with k = k_a."""
        return MarketConfig(
            k=self.k_a,
            dist=self.dist,
            eta_apo=self.eta_apo,
            delta_lte=self.delta_lte,
            r_lte=self.r_lte,
        )


@dataclass(frozen=True)
class VirtualBid(Bid):
    """Normalized bid with the population it came from; its rate
    follows the :class:`Bid` rule."""

    origin: Origin


@dataclass(frozen=True)
class MultiAuctionOutcome(AuctionOutcome):
    """An outcome plus the winner's population and the virtual price."""

    winner_origin: Origin | None
    virtual_price: float

    @property
    def price(self) -> float:
        """Provider 0's price, the virtual price, for either winner origin:
        with a shared winner provider 0 gets ``theta*R`` minus the adjusted
        payment ``virtual_price - (1-theta)*R``, which telescopes to
        ``R - virtual_price``."""
        return self.virtual_price


def virtual_bid(raw: Bid, origin: Origin, cfg: MultiMarketConfig, c: float) -> VirtualBid:
    """Normalize a raw bid: a shared bid adds ``(1-theta) R``. The
    normalized value must not exceed ``c``, the cap the auction and
    :func:`bid_values_shared` apply."""
    if raw.is_abstain:
        return VirtualBid(None, origin)
    rate = raw.rate + cfg.shared_offset if origin is Origin.SHARED else raw.rate
    if rate > c:
        raise InfeasibleBid(f"bid {raw.rate} normalizes to {rate}, above the reserve {c}")
    return VirtualBid(rate, origin)


def shared_participation_cutoff(cfg: MultiMarketConfig, c: float) -> float:
    """Type above which a shared seller abstains: the type whose
    discounted rate equals the best payment it could receive."""
    return (c - cfg.shared_offset) / cfg.eta_apo


def bid_shared(cfg: MultiMarketConfig, c: float, r: float) -> VirtualBid:
    """Equilibrium virtual bid of a shared seller (see
    :func:`bid_values_shared`). The type must lie on the support."""
    require_type(cfg.dist, r)
    v = float(bid_values_shared(cfg, c, r))
    return VirtualBid(None if math.isinf(v) else v, Origin.SHARED)


def bid_alone(cfg: MultiMarketConfig, c: float, r: float) -> VirtualBid:
    """Equilibrium virtual bid of an alone seller: the single-buyer
    equilibrium over the k_a alone sellers."""
    b = single_bid(cfg.alone_market, c, r)
    return VirtualBid(b.rate, Origin.ALONE)


def bid_values_shared(cfg: MultiMarketConfig, c: float, types: np.ndarray) -> np.ndarray:
    """Shared sellers' virtual bids: the discounted rate plus the
    normalization offset, under the equilibrium's one bid rule
    (:func:`capped_bids`) with its cutoff at ``c`` in virtual-bid space.
    A value up to ``c`` is bid as it is, and one above ``c`` abstains
    (+inf); comparing values with ``c``, not types with the cutoff
    type, means rounding cannot produce a bid above the reserve."""
    return capped_bids(cfg.eta_apo * np.asarray(types, dtype=float) + cfg.shared_offset, c, c)


def bid_values_virtual(cfg: MultiMarketConfig, c: float, types: np.ndarray) -> np.ndarray:
    """Virtual bids along the last axis of ``types``, whose first
    ``k_s`` entries are shared sellers' types and the rest alone ones'."""
    shared, alone = types[..., :cfg.k_s], types[..., cfg.k_s:]
    return np.concatenate(
        [bid_values_shared(cfg, c, shared), bid_values(cfg.alone_market, c, alone)], axis=-1
    )


def _resolve_virtual_values(
    values: np.ndarray, k_s: int, cfg: MultiMarketConfig, c: float, rng: RngStream
) -> MultiAuctionOutcome:
    """Resolution of a numpy row of virtual bids, on its Python floats;
    the first ``k_s`` columns are shared sellers. A shared winner's
    allocated rate is the virtual price minus the normalization offset."""
    mode, winner, channel, price = _second_price(values.tolist(), c, rng, k_s)
    if mode is Mode.COMPETITION:
        return MultiAuctionOutcome(mode, None, channel, 0.0, None, 0.0)
    if winner < k_s:
        return MultiAuctionOutcome(
            mode, winner, channel, price - cfg.shared_offset, Origin.SHARED, price
        )
    return MultiAuctionOutcome(mode, winner, channel, price, Origin.ALONE, price)


def resolve_multi(
    vbids: list[VirtualBid], cfg: MultiMarketConfig, c: float, rng: RngStream
) -> MultiAuctionOutcome:
    """Resolve one multi-buyer auction from virtual bids (shared sellers
    first, then alone sellers, matching ``vbids`` origins)."""
    values = BidProfile(tuple(vbids)).values()
    k_s = sum(1 for b in vbids if b.origin is Origin.SHARED)
    for i, b in enumerate(vbids):
        expected = Origin.SHARED if i < k_s else Origin.ALONE
        if b.origin is not expected:
            raise InvalidProfile("virtual bids must list shared sellers first")
    return _resolve_virtual_values(values, k_s, cfg, c, rng)


# ---------------------------------------------------------------------------
# Expected payoff and reserve optimization (Monte Carlo; no closed form)
# ---------------------------------------------------------------------------


def require_samples(n: int) -> None:
    """Raise ``ValueError`` unless ``n`` is an even count in
    ``[4, sys.maxsize]``: the antithetic estimator pairs rows and needs
    two pairs for a standard error."""
    require_count("samples", n, 4)
    if n % 2:
        raise ValueError(f"samples must be an even number >= 4, got {n}")


@lru_cache(maxsize=8)
def _type_pool(cfg: MultiMarketConfig, n: int, seed: int):
    """The reserve-independent part of each row's auction over an
    antithetic type pool shared across reserve rates (common random
    numbers keep the Monte Carlo payoff curve smooth in c), as three
    read-only arrays ``(vs1, q, a1)``: the lowest shared seller's raw
    virtual value ``eta*S1 + offset``, the second-lowest raw value ``q``
    among ``eta*S1 + offset``, ``eta*S2 + offset``, ``A1`` and ``A2``,
    and the lowest alone type ``A1``.

    Both bid maps are non-decreasing in type, in float arithmetic too:
    the shared map is ``eta*t + offset`` capped at ``c``, and the alone
    map is constant, a step or the identity in every regime. So a row's
    two lowest virtual bids are bids of its two lowest shared types or
    of its two lowest alone types (``k_s, k_a >= 2``). The pool is drawn
    as the full ``(n, k_s + k_a)`` matrix and each group is sorted once.
    With both pairs sorted, the second-lowest of the four values is
    ``q = min(max(vs1, A1), vs2, A2)``; min and max round nothing.

    With ``g(x) = min(c, x)``, every seller's reserve-capped bid ``b``
    has ``g(b) = g(raw value)`` in every regime: a shared value above
    ``c`` and an alone type that abstains are both above ``c``, and an
    alone type that bids ``c`` is at least ``c``. ``g`` is monotone, so
    a cooperating row's price ``min(c, second-lowest bid)`` is
    ``min(c, q)``, whatever ``c`` is."""
    k_s = cfg.k_s
    rng = RngStream(seed, 0)
    u = rng.uniforms(n // 2, k_s + cfg.k_a)
    types = np.asarray(cfg.dist.inverse_cdf(np.concatenate([u, 1.0 - u], axis=0)), dtype=float)
    shared = np.sort(types[:, :k_s], axis=1)
    alone = np.sort(types[:, k_s:], axis=1)
    vs1, vs2 = (cfg.eta_apo * shared[:, i] + cfg.shared_offset for i in (0, 1))
    q = np.minimum(np.maximum(vs1, alone[:, 0]), np.minimum(vs2, alone[:, 1]))
    a1 = alone[:, 0].copy()
    for a in (vs1, q, a1):
        a.setflags(write=False)
    return vs1, q, a1


def expected_payoff_multi(
    cfg: MultiMarketConfig,
    c: float,
    *,
    n: int = MC_SAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of provider 0's
    expected payoff at reserve ``c``; antithetic pairing over one pooled
    draw set per (n, seed).

    A row's cooperation and price depend only on its two lowest virtual
    bids, which monotone bid maps take from its two lowest types of each
    group (see :func:`_type_pool`). A row cooperates when its lowest
    shared seller bids or its lowest alone type is at most the alone
    strategy's cutoff, and pays ``min(c, q)`` with ``q`` priced once per
    pool. The estimate is bit-identical to one over the full type
    matrix."""
    require_samples(n)
    vs1, q, a1 = _type_pool(cfg, n, seed)
    coop = a1 <= solve_strategy(cfg.alone_market.sellers, c).cutoff
    coop |= vs1 <= c
    pay = np.minimum(c, q)
    np.subtract(cfg.r_lte, pay, out=pay)
    np.copyto(pay, cfg.delta_lte * cfg.r_lte, where=np.logical_not(coop, out=coop))
    half = len(pay) // 2
    pairs = pay[:half] + pay[half:]
    pairs *= 0.5
    return float(pay.mean()), float(pairs.std(ddof=1) / math.sqrt(half))


def feasible_reserve_bounds(cfg: MultiMarketConfig) -> tuple[float, float]:
    """Search interval for the reserve: below the lower bound every
    seller abstains; above the upper bound either the capacity
    constraint binds or every bid function has saturated, so the payoff
    is constant."""
    alone_floor = cfg.alone_market.low_regime_cap
    shared_floor = cfg.shared_offset + cfg.eta_apo * cfg.dist.r_min
    lo = min(alone_floor, shared_floor)
    saturation = max(cfg.dist.r_max, cfg.shared_offset + cfg.eta_apo * cfg.dist.r_max)
    hi = min(cfg.r_lte, saturation)
    return lo, hi


def optimize_reserve_multi(cfg: MultiMarketConfig, *, n: int = MC_SAMPLES) -> OptimalReserve:
    """Reserve optimization on the Monte Carlo payoff curve.

    The guarded search the single-buyer optimizer runs, with the guard
    tolerance widened by the estimates' standard errors; a failed guard
    falls back to a coarser grid.
    A final local grid polish sharpens the golden section bracket
    against residual Monte Carlo jitter.
    """
    require_samples(n)
    lo, hi = feasible_reserve_bounds(cfg)
    baseline = cfg.delta_lte * cfg.r_lte
    if hi <= lo:
        return OptimalReserve(0.0, baseline, 1, (0.0, lo))

    width = 1e-3 * cfg.dist.r_max
    c_star, best_val = _search_reserve(
        lambda c: expected_payoff_multi(cfg, c, n=n),
        lo,
        hi,
        cfg.r_lte,
        fallback_points=FALLBACK_GRID_POINTS,
        width=width,
        refine=lambda c: np.linspace(max(lo, c - 5 * width), min(hi, c + 5 * width), 11),
    )
    if baseline >= best_val:
        return OptimalReserve(0.0, baseline, 1, (0.0, lo))
    case = 2 if cfg.r_lte <= cfg.dist.r_max else 3
    return OptimalReserve(c_star, best_val, case)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


# The experiment config is shared: a multi-buyer experiment is a
# single-buyer one whose market has shared sellers.
MultiExperimentConfig = ExperimentConfig


@dataclass(frozen=True)
class MultiReplicationResult(ReplicationRecord):
    """A replication record whose ``bids`` are virtual bids."""

    winner_origin: Origin | None
    virtual_price: float
    # |theta*R - r_pay - (R - virtual_price)| for shared winners, else 0
    identity_residual: float


@dataclass(frozen=True)
class MultiMetricsSummary(GainSummary):
    shared_wins: int
    max_identity_residual: float


def run_auction_replication_multi(
    cfg: MultiMarketConfig, c_star: float, rng: RngStream, types: np.ndarray
):
    """One auction replication on the given shared then alone ``types``:
    bid, resolve. Returns ``(lte, apo_payoffs, welfare, types,
    virtual_values, outcome)``."""
    types = np.asarray(types, dtype=float)
    vals = bid_values_virtual(cfg, c_star, types)
    outcome = _resolve_virtual_values(vals, cfg.k_s, cfg, c_star, rng)
    lte, apo, _, welfare = settle(outcome, types.tolist(), cfg, cfg.k_s)
    return lte, np.array(apo), welfare, types, vals, outcome


def run_benchmark_replication_multi(cfg: MultiMarketConfig, types, rng: RngStream):
    """Benchmark: provider 0 coexists on a uniformly chosen alone
    seller's channel; shared sellers keep their discounted rates."""
    return coexistence_benchmark(cfg, types, rng, cfg.k_s)


def _run_replication_multi(
    cfg: MultiMarketConfig, c_star: float, rep: int, types, vals, tail
) -> MultiReplicationResult:
    rng = DrawReplay(tail)
    outcome = _resolve_virtual_values(vals, cfg.k_s, cfg, c_star, rng)
    fields = replicate(cfg, rep, types, vals, outcome, rng, cfg.k_s)
    residual = 0.0
    if outcome.winner_origin is Origin.SHARED:
        residual = abs(cfg.theta_lte * cfg.r_lte - outcome.r_pay - fields["auction_lte"])
    return MultiReplicationResult(
        **fields,
        winner_origin=outcome.winner_origin,
        virtual_price=outcome.virtual_price,
        identity_residual=residual,
    )


def _run_block_multi(
    cfg: MultiMarketConfig, c_star: float, types, tails
) -> list[MultiReplicationResult]:
    vals = bid_values_virtual(cfg, c_star, types)
    rows = zip(types.tolist(), vals, tails.tolist())
    return [_run_replication_multi(cfg, c_star, rep, *row) for rep, row in enumerate(rows)]


def summarize_multi(reps, c_star: float) -> MultiMetricsSummary:
    """Aggregate per-replication gains plus the shared-win count and the
    largest payment-identity residual."""
    return MultiMetricsSummary(
        c_star=c_star,
        **gain_summary(reps),
        shared_wins=sum(1 for r in reps if r.winner_origin is Origin.SHARED),
        max_identity_residual=float(max((r.identity_residual for r in reps), default=0.0)),
    )


def run_experiment_multi(xcfg: ExperimentConfig) -> ExperimentResult:
    """Run all multi-buyer replications."""
    k = xcfg.market.k_s + xcfg.market.k_a
    return experiment(xcfg, optimize_reserve_multi, _run_block_multi, summarize_multi, k)
