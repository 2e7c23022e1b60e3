"""Monte Carlo experiment harness: auction scheme vs. random-coexistence
benchmark, relative gains, and a centralized welfare upper bound.

Replication ``i`` owns stream ``(master_seed, i)``. Before any
replication runs, the experiment takes the first K+2 uniforms of every
stream (K sellers) in one numpy pass and maps the first K of each row
to types with one inverse-CDF call over the whole (replications, K)
block. The last two draws of a row are its tail, replayed in order:
the auction's tie-break or competition pick (only when one is needed)
reads draw K, and the benchmark channel pick reads the next unread
one, draw K+1 after an auction pick and draw K otherwise. This is the
order a replication drawing one value at a time from its stream would
consume. Every replication runs in the calling process, in index
order, on Python floats: the block's bids come from one call over its
type matrix, and each row's auction, payoffs and welfare give the
numpy rule's bits.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .auction import AuctionOutcome, Mode, _resolve_values, settle
from .equilibrium import MarketConfig, bid_values, require_count, require_reserve
from .numerics import row_sum
from .provider import optimize_reserve
from .rng import _U64_MAX, DrawReplay, RngStream

SWEEP_KEYS = ("r_lte", "k", "delta_lte", "eta_apo")
# Streams whose first draws are taken in one pass: it bounds the open
# streams and the pass's temporaries at about 2 MB.
STREAM_BATCH = 8192


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment setup for either buyer model: ``market`` is a
    ``MarketConfig`` or a ``MultiMarketConfig``. ``reserve`` forces a
    fixed reserve rate instead of optimizing (useful for studying
    off-optimum play); ``sweep`` maps ``SWEEP_KEYS`` to non-empty lists
    of market values, and every cell must build a valid ``MarketConfig``.
    The master seed is an integer in [0, 2**64 - 1]."""

    market: MarketConfig
    replications: int = 5000
    master_seed: int = 0
    sweep: dict | None = None
    reserve: float | None = None

    def __post_init__(self):
        require_count("replications", self.replications, 1)
        require_count("master_seed", self.master_seed, 0, _U64_MAX)
        if self.reserve is not None:
            require_reserve("reserve", self.reserve)
        if self.sweep is not None:
            sweep_cells(self)


@dataclass(frozen=True)
class ReplicationRecord:
    """Per-replication fields both buyer models report."""

    rep: int
    types: tuple[float, ...]
    bids: tuple[float, ...]  # abstention encoded as +inf
    mode: Mode
    winner: int | None
    r_pay: float
    auction_lte: float
    auction_apo_total: float
    bench_lte: float
    bench_apo_total: float
    welfare_auction: float
    welfare_bench: float


@dataclass(frozen=True)
class ReplicationResult(ReplicationRecord):
    welfare_max: float


@dataclass(frozen=True)
class GainSummary:
    """Summary fields both buyer models report (see :func:`gain_summary`)."""

    replications: int
    c_star: float
    mean_rho_lte: float
    hw_rho_lte: float
    mean_rho_apo: float
    hw_rho_apo: float
    mean_welfare_auction: float
    hw_welfare_auction: float
    mean_welfare_bench: float
    hw_welfare_bench: float


@dataclass(frozen=True)
class MetricsSummary(GainSummary):
    mean_welfare_max: float
    hw_welfare_max: float


@dataclass(frozen=True)
class ExperimentResult:
    summary: GainSummary
    replications: tuple[ReplicationRecord, ...]


def run_auction_replication(cfg: MarketConfig, c_star: float, rng: RngStream, types: np.ndarray):
    """One auction-scheme replication on the K given ``types``: applies
    the equilibrium bids, resolves (a tie-break or competition draws
    from ``rng``), and returns
    ``(lte_payoff, apo_payoffs, welfare, types, bids, outcome)``.
    """
    types = np.asarray(types, dtype=float)
    bids = bid_values(cfg, c_star, types)
    outcome = _resolve_values(bids, c_star, rng)
    lte, apo, _, welfare = settle(outcome, types.tolist(), cfg)
    return lte, np.array(apo), welfare, types, bids, outcome


def coexist(cfg, types: list[float], rng, k_s: int = 0):
    """The random-coexistence benchmark on Python floats: the auction's
    competition outcome on a channel drawn uniformly among the sellers
    after the first ``k_s`` (who share theirs with another buyer),
    settled by the auction's payoff rules. Consumes one draw; returns
    :func:`auction.settle`'s tuple and the channel."""
    channel = k_s + rng.pick(len(types) - k_s)
    return *settle(AuctionOutcome(Mode.COMPETITION, None, channel, 0.0), types, cfg, k_s), channel


def coexistence_benchmark(cfg, types, rng: RngStream, k_s: int = 0):
    """The random-coexistence benchmark (see :func:`coexist`);
    ``k_s = 0`` is the single-buyer one. Returns ``(lte_payoff,
    apo_payoffs, welfare, channel)``."""
    lte, apo, _, welfare, channel = coexist(cfg, np.asarray(types, dtype=float).tolist(), rng, k_s)
    return lte, np.array(apo), welfare, channel


def run_benchmark_replication(cfg: MarketConfig, types, rng: RngStream):
    """One benchmark replication: the buyer coexists on a uniformly
    chosen channel. Returns ``(lte_payoff, apo_payoffs, welfare,
    channel)``."""
    return coexistence_benchmark(cfg, types, rng)


def social_welfare_max(cfg: MarketConfig, types) -> float:
    """Centralized welfare upper bound for one type realization.

    Best of: (i) all channels to the sellers, (ii) idling one seller so
    the buyer transmits interference-free, (iii) the buyer sharing one
    seller's channel.
    """
    types = [float(t) for t in types]
    total = row_sum(types)
    best = total
    for t in types:
        others = total - t
        best = max(best, cfg.r_lte + others)
        best = max(best, cfg.delta_lte * cfg.r_lte + cfg.eta_apo * t + others)
    return best


def replicate(cfg, rep: int, types: list[float], bids, outcome, rng, k_s: int = 0) -> dict:
    """The :class:`ReplicationRecord` fields of replication ``rep`` for
    either buyer model, on Python floats: settle the resolved auction
    ``outcome`` on the pre-drawn ``types`` and run the benchmark, whose
    pick ``rng`` replays after the auction's."""
    a_lte, _, a_total, w_a = settle(outcome, types, cfg, k_s)
    b_lte, _, b_total, w_b, _ = coexist(cfg, types, rng, k_s)
    return dict(
        rep=rep,
        types=tuple(types),
        bids=tuple(bids.tolist()),
        mode=outcome.mode,
        winner=outcome.winner,
        r_pay=outcome.r_pay,
        auction_lte=a_lte,
        auction_apo_total=a_total,
        bench_lte=b_lte,
        bench_apo_total=b_total,
        welfare_auction=w_a,
        welfare_bench=w_b,
    )


def _run_replication(cfg: MarketConfig, c_star: float, rep: int, types, bids, tail):
    rng = DrawReplay(tail)
    fields = replicate(cfg, rep, types, bids, _resolve_values(bids, c_star, rng), rng)
    return ReplicationResult(**fields, welfare_max=social_welfare_max(cfg, types))


def _run_block(cfg: MarketConfig, c_star: float, types, tails) -> list[ReplicationResult]:
    bids = bid_values(cfg, c_star, types)
    rows = zip(types.tolist(), bids, tails.tolist())
    return [_run_replication(cfg, c_star, rep, *row) for rep, row in enumerate(rows)]


def _half_width(values: np.ndarray) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / np.sqrt(n))


def _mean_and_half_width(name: str, values: np.ndarray) -> dict:
    return {f"mean_{name}": float(values.mean()), f"hw_{name}": _half_width(values)}


def gain_summary(reps) -> dict:
    """The :class:`GainSummary` fields but ``c_star``: the replication
    count, the buyer's and the sellers' relative gains over the
    benchmark (ratios formed per replication, then averaged) and both
    welfares, each with its 95% half-width."""
    def column(attr):
        return np.array([getattr(r, attr) for r in reps])

    a_lte, b_lte = column("auction_lte"), column("bench_lte")
    a_apo, b_apo = column("auction_apo_total"), column("bench_apo_total")
    return {
        "replications": len(reps),
        **_mean_and_half_width("rho_lte", (a_lte - b_lte) / b_lte),
        **_mean_and_half_width("rho_apo", (a_apo - b_apo) / b_apo),
        **_mean_and_half_width("welfare_auction", column("welfare_auction")),
        **_mean_and_half_width("welfare_bench", column("welfare_bench")),
    }


def summarize(reps, c_star: float) -> MetricsSummary:
    """Aggregate per-replication gains plus the welfare upper bound."""
    w_m = np.array([r.welfare_max for r in reps])
    return MetricsSummary(
        c_star=c_star, **gain_summary(reps), **_mean_and_half_width("welfare_max", w_m)
    )


def experiment(xcfg: ExperimentConfig, optimize, block_fn, summarize_fn, sellers: int):
    """Either buyer model's experiment: the forced reserve or the
    model's optimum, every replication, then its summary.

    Replication ``rep`` opens its stream ``(master_seed, rep)`` here, and
    :meth:`RngStream.first_uniforms` takes the first ``sellers + 2``
    draws of up to ``STREAM_BATCH`` streams in one numpy pass. The types
    come from one inverse-CDF call over all replications;
    ``block_fn(cfg, c_star, types, tails)`` runs them all in order."""
    cfg = xcfg.market
    c_star = xcfg.reserve if xcfg.reserve is not None else optimize(cfg).c_star
    n, seed = xcfg.replications, xcfg.master_seed
    draws = np.empty((n, sellers + 2))
    for start in range(0, n, STREAM_BATCH):
        stop = min(n, start + STREAM_BATCH)
        streams = [RngStream(seed, rep) for rep in range(start, stop)]
        draws[start:stop] = RngStream.first_uniforms(streams, sellers + 2)
    types = cfg.dist.inverse_cdf(draws[:, :sellers])
    reps = block_fn(cfg, c_star, types, draws[:, sellers:])
    return ExperimentResult(summarize_fn(reps, c_star), tuple(reps))


def run_experiment(xcfg: ExperimentConfig) -> ExperimentResult:
    """Run all replications and aggregate; the optimal reserve is
    computed once up front. A sweep runs through :func:`run_sweep`."""
    if xcfg.sweep is not None:
        raise ValueError("run_experiment runs one market; run a sweep with run_sweep")
    return experiment(xcfg, optimize_reserve, _run_block, summarize, xcfg.market.k)


def sweep_cells(xcfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Expand the cartesian sweep grid into per-cell configs. Raises
    ``ValueError`` unless the sweep maps ``SWEEP_KEYS`` to non-empty
    lists whose every cell builds a valid single-buyer market."""
    sweep = xcfg.sweep
    if sweep is None:
        return [xcfg]
    if not isinstance(xcfg.market, MarketConfig):
        raise ValueError("a sweep needs a single-buyer market")
    if not isinstance(sweep, dict) or not set(sweep) <= set(SWEEP_KEYS):
        raise ValueError(f"sweep must map some of {SWEEP_KEYS} to lists, got {sweep!r}")
    keys = [k for k in SWEEP_KEYS if k in sweep]
    if not all(isinstance(sweep[k], (list, tuple)) and sweep[k] for k in keys):
        raise ValueError(f"every sweep value must be a non-empty list, got {sweep!r}")
    cells = []
    for combo in itertools.product(*(sweep[k] for k in keys)):
        try:
            market = replace(xcfg.market, **dict(zip(keys, combo)))
        except TypeError as exc:
            raise ValueError(f"sweep cell {combo} is not a valid market: {exc}") from exc
        cells.append(replace(xcfg, market=market, sweep=None))
    return cells


def run_sweep(xcfg: ExperimentConfig) -> list[tuple[MarketConfig, ExperimentResult]]:
    """One experiment per sweep cell."""
    return [(cell.market, run_experiment(cell)) for cell in sweep_cells(xcfg)]
