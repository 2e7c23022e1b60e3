"""Monte Carlo experiment harness: auction scheme vs. random-coexistence
benchmark, relative gains, and a centralized welfare upper bound.

Replication ``i`` owns stream ``(master_seed, i)``. Before any
replication runs, the experiment takes the first K+2 uniforms of every
stream (K sellers) and maps the first K of each row to types with one
inverse-CDF call over the whole (replications, K) block. The last two
draws of a row are its tail, replayed in order: the auction's tie-break
or competition pick (only when one is needed) reads draw K, and the
benchmark channel pick reads the next unread one, draw K+1 after an
auction pick and draw K otherwise. This is the order a replication
drawing one value at a time from its stream would consume. Every
replication runs in the calling process, in index order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .auction import AuctionOutcome, Mode, _resolve_values, lte_payoff, realized_apo_payoffs
from .equilibrium import MarketConfig, bid_values, require_count, require_reserve
from .provider import optimize_reserve
from .rng import _U64_MAX, DrawReplay, RngStream

SWEEP_KEYS = ("r_lte", "k", "delta_lte", "eta_apo")


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
    lte = lte_payoff(outcome, cfg)
    apo = realized_apo_payoffs(outcome, types, cfg)
    welfare = lte + float(apo.sum())
    return lte, apo, welfare, types, bids, outcome


def coexistence_benchmark(cfg, types, rng: RngStream, k_s: int = 0):
    """The random-coexistence benchmark: the auction's competition
    outcome, settled by its payoff rules, on a channel drawn uniformly
    among the sellers after the first ``k_s`` (who share theirs with
    another buyer). ``k_s = 0`` is the single-buyer benchmark. Consumes
    one draw; returns ``(lte_payoff, apo_payoffs, welfare, channel)``."""
    outcome = AuctionOutcome(Mode.COMPETITION, None, k_s + rng.pick(len(types) - k_s), 0.0)
    lte = lte_payoff(outcome, cfg)
    apo = realized_apo_payoffs(outcome, types, cfg, k_s)
    return lte, apo, lte + float(apo.sum()), outcome.channel


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
    types = np.asarray(types, dtype=float)
    total = float(types.sum())
    best = total
    for k in range(len(types)):
        others = total - float(types[k])
        best = max(best, cfg.r_lte + others)
        best = max(best, cfg.delta_lte * cfg.r_lte + cfg.eta_apo * float(types[k]) + others)
    return best


def replicate(auction_fn, benchmark_fn, cfg, c_star: float, rep: int, types, tail):
    """The body of replication ``rep`` for either buyer model: run the
    model's auction on the pre-drawn ``types``, run its benchmark on the
    same types, with both picks replayed from the two ``tail`` draws,
    and return ``(fields, outcome)`` with the :class:`ReplicationRecord`
    fields."""
    rng = DrawReplay(tail)
    a_lte, a_apo, w_a, types, bids, outcome = auction_fn(cfg, c_star, rng, types)
    b_lte, b_apo, w_b, _ = benchmark_fn(cfg, types, rng)
    fields = dict(
        rep=rep,
        types=tuple(float(t) for t in types),
        bids=tuple(float(b) for b in bids),
        mode=outcome.mode,
        winner=outcome.winner,
        r_pay=outcome.r_pay,
        auction_lte=a_lte,
        auction_apo_total=float(a_apo.sum()),
        bench_lte=b_lte,
        bench_apo_total=float(b_apo.sum()),
        welfare_auction=w_a,
        welfare_bench=w_b,
    )
    return fields, outcome


def _run_replication(cfg: MarketConfig, c_star: float, rep: int, types, tail) -> ReplicationResult:
    fields, _ = replicate(
        run_auction_replication, run_benchmark_replication, cfg, c_star, rep, types, tail
    )
    return ReplicationResult(**fields, welfare_max=social_welfare_max(cfg, fields["types"]))


def _run_block(cfg: MarketConfig, c_star: float, types, tails) -> list[ReplicationResult]:
    return [
        _run_replication(cfg, c_star, rep, types[rep], tails[rep]) for rep in range(len(types))
    ]


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

    Each replication's first ``sellers + 2`` draws are taken here, and
    its types come from one inverse-CDF call over all replications;
    ``block_fn(cfg, c_star, types, tails)`` runs them all in order."""
    cfg = xcfg.market
    c_star = xcfg.reserve if xcfg.reserve is not None else optimize(cfg).c_star
    n, seed = xcfg.replications, xcfg.master_seed
    draws = np.empty((n, sellers + 2))
    for rep in range(n):
        draws[rep] = RngStream(seed, rep).uniforms(sellers + 2)
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
