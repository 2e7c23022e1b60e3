"""Independent brute-force verifiers.

Three families of checks, none of which shares code paths with what it
verifies: closed-form quadratic thresholds for the two-seller uniform
market, Monte Carlo estimators for every closed-form expectation, and a
statistical best-response certification of a bidding strategy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import UNIFORM
from .equilibrium import (
    MarketConfig,
    RegimeKind,
    bid_values,
    capped_bids,
    classify_regime,
    require_count,
)
from .errors import CertificationFailed, NoRootInInterval
from .rng import RngStream

# A strategy is a vectorized map from a type array to bid values with
# abstention encoded as +inf.
Strategy = Callable[[np.ndarray], np.ndarray]


def _quadratic_roots(a: float, b: float, c0: float) -> list[float]:
    disc = b * b - 4.0 * a * c0
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    return [(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)]


def _require_uniform_k2(cfg: MarketConfig) -> None:
    if cfg.dist.kind != UNIFORM or cfg.k != 2:
        raise ValueError("closed-form thresholds exist only for uniform types and k=2")


def uniform_k2_standard_threshold(cfg: MarketConfig, c: float) -> float:
    """Closed-form standard-regime threshold for two uniform sellers:
    the root of (eta/2) r^2 - ((1+eta)/2) r_max r + r_max c - c^2/2
    inside (c, r_max)."""
    _require_uniform_k2(cfg)
    eta, r_max = cfg.eta_apo, cfg.dist.r_max
    roots = _quadratic_roots(eta / 2.0, -(1.0 + eta) / 2.0 * r_max, r_max * c - c * c / 2.0)
    inside = [r for r in roots if c < r < r_max]
    if len(inside) != 1:
        raise NoRootInInterval(f"expected one root in ({c}, {r_max}), got {inside}")
    return inside[0]


def uniform_k2_mid_threshold(cfg: MarketConfig, c: float) -> float:
    """Closed-form mid-regime threshold for two uniform sellers; the
    admissible interval is [r_min, r_max), closed on the left because
    the residual vanishes exactly at r_min when c sits on the
    low-regime boundary."""
    _require_uniform_k2(cfg)
    eta = cfg.eta_apo
    r_min, r_max = cfg.dist.r_min, cfg.dist.r_max
    roots = _quadratic_roots(
        eta / 2.0,
        -c / 2.0 + r_min / 2.0 - (1.0 + eta) / 2.0 * r_max,
        r_max * c - c * r_min / 2.0,
    )
    tol = 1e-9 * r_max
    inside = [r for r in roots if r_min - tol <= r < r_max]
    if len(inside) != 1:
        raise NoRootInInterval(f"expected one root in [{r_min}, {r_max}), got {inside}")
    return max(inside[0], r_min)


def sample_type_matrix(cfg: MarketConfig, n: int, rng: RngStream, columns: int | None = None) -> np.ndarray:
    """(n, columns) matrix of independent type draws from one stream."""
    cols = cfg.k if columns is None else columns
    return np.asarray(cfg.dist.inverse_cdf(rng.uniforms(n, cols)), dtype=float)


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


def lte_payoffs_for_types(cfg: MarketConfig, c: float, types: np.ndarray) -> np.ndarray:
    """Vectorized buyer payoff per type row under equilibrium bidding."""
    coop, r_pay = second_price_rows(bid_values(cfg, c, types), c)
    return np.where(coop, cfg.r_lte - r_pay, cfg.delta_lte * cfg.r_lte)


def payments_for_types(cfg: MarketConfig, c: float, types: np.ndarray) -> np.ndarray:
    """Vectorized allocated rate per type row (zero when no one sells)."""
    return second_price_rows(bid_values(cfg, c, types), c)[1]


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def mc_expected_payoff(cfg: MarketConfig, c: float, n: int, rng: RngStream) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate (mean, standard error) of the
    buyer's expected payoff at reserve ``c`` from ``n`` type rows, an
    integer of at least 2 (a standard error needs two)."""
    require_count("n", n, 2)
    return _mean_and_se(lte_payoffs_for_types(cfg, c, sample_type_matrix(cfg, n, rng)))


def mc_expected_payment(cfg: MarketConfig, c: float, n: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the expected
    allocated rate at reserve ``c``; ``n`` as for
    :func:`mc_expected_payoff`."""
    require_count("n", n, 2)
    return _mean_and_se(payments_for_types(cfg, c, sample_type_matrix(cfg, n, rng)))


# ---------------------------------------------------------------------------
# Best-response certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificationReport:
    """Certification outcome: the largest estimated deviation gain seen
    and the deviation achieving it."""

    certified: bool
    max_gain: float
    epsilon: float
    worst_type: float
    worst_deviation: float | None
    types_checked: int
    deviations_checked: int
    samples: int


class _OpponentPool:
    """Shared opponent draws with per-sample summary statistics.

    For payoff evaluation only the lowest opposing bid ``m``, its tie
    count ``t`` and the capped win payment ``w = min(c, m)`` matter.
    Sorting by ``m`` once lets every deviation's expected payoff be an
    affine function of own type, computed from prefix sums in O(log n).
    The sort, with abstentions (+inf) last, also splits a deviation's
    per-sample payoffs into three contiguous ranges: ``own_type`` where
    ``m < d``, the tie share where ``m == d`` and ``w`` where ``m > d``.
    """

    def __init__(self, cfg: MarketConfig, c: float, opponent_bids: np.ndarray):
        self.cfg = cfg
        self.c = c
        m = opponent_bids.min(axis=1)
        t = (opponent_bids == m[:, None]).sum(axis=1)
        order = np.argsort(m, kind="stable")
        self.m = m[order]
        self.t = t[order].astype(float)
        self.w = np.minimum(c, self.m)
        self.n = len(self.m)
        # prefix sums over the sorted order; index i holds the sum of
        # the first i entries
        self.csum_w = np.concatenate([[0.0], np.cumsum(self.w)])
        self.csum_inv = np.concatenate([[0.0], np.cumsum(1.0 / (self.t + 1.0))])
        self.csum_frac = np.concatenate([[0.0], np.cumsum(self.t / (self.t + 1.0))])
        self.n_abstain = int(np.isinf(self.m).sum())

    def _tie_range(self, d: float) -> tuple[int, int]:
        """Bounds of the samples whose lowest opposing bid equals ``d``."""
        return (int(np.searchsorted(self.m, d, side="left")),
                int(np.searchsorted(self.m, d, side="right")))

    def affine_payoff(self, d: float | None) -> tuple[float, float]:
        """Coefficients (a, b) with expected payoff a + b * own_type
        for deviation ``d`` (None = abstain)."""
        kappa = self.cfg.externality_share
        n = self.n
        if d is None:
            return 0.0, ((n - self.n_abstain) + kappa * self.n_abstain) / n
        left, right = self._tie_range(d)
        win = (self.csum_w[n] - self.csum_w[right]) / n
        tie_a = d * (self.csum_inv[right] - self.csum_inv[left]) / n
        tie_b = (self.csum_frac[right] - self.csum_frac[left]) / n
        lose_b = left / n
        return win + tie_a, tie_b + lose_b

    def payoff_samples(self, d: float | None, own_type: float) -> np.ndarray:
        """Exact per-sample payoffs of bidding ``d`` with ``own_type``,
        written range by range into one array; the tie value
        ``(m + t*own)/(t + 1)`` is computed on the tie range only."""
        out = np.empty(self.n)
        if d is None:
            split = self.n - self.n_abstain
            out[:split] = own_type
            out[split:] = self.cfg.externality_share * own_type
            return out
        left, right = self._tie_range(d)
        out[:left] = own_type
        t = self.t[left:right]
        np.divide(self.m[left:right] + t * own_type, t + 1.0, out=out[left:right])
        out[right:] = self.w[right:]
        return out


def equilibrium_strategy_map(cfg: MarketConfig, c: float) -> Strategy:
    return lambda types: bid_values(cfg, c, types)


def _mutation(cfg: MarketConfig, c: float, kind: RegimeKind, cutoff: float) -> Strategy:
    """The capped bid rule at reserve ``c`` with its cutoff moved to
    ``cutoff``; defined for reserves in the ``kind`` regime."""
    if classify_regime(cfg, c) is not kind:
        raise ValueError(f"mutation defined for {kind.value}-regime reserves")
    return lambda types: capped_bids(types, c, cutoff)


def mutated_abstain_in_cap_band(cfg: MarketConfig, c: float) -> Strategy:
    """Standard-regime mutation: types that should bid the reserve
    abstain instead (the would-be cap band empties out)."""
    return _mutation(cfg, c, RegimeKind.STANDARD, c)


def mutated_cap_bid_past_threshold(cfg: MarketConfig, c: float) -> Strategy:
    """Standard-regime mutation: types that should abstain bid the
    reserve instead (nobody ever abstains)."""
    return _mutation(cfg, c, RegimeKind.STANDARD, math.inf)


def mutated_mid_always_cap(cfg: MarketConfig, c: float) -> Strategy:
    """Mid-regime mutation: every type bids the reserve, ignoring the
    abstention threshold."""
    return _mutation(cfg, c, RegimeKind.MID, math.inf)


def require_grids(samples: int, type_grid: int, bid_grid: int) -> None:
    """Raise ``ValueError`` unless a certification has ``samples >= 2``
    for a standard error and non-empty type and bid grids, each count at
    most ``sys.maxsize``."""
    require_count("samples", samples, 2)
    require_count("type_grid", type_grid, 1)
    require_count("bid_grid", bid_grid, 1)


def best_response_check(
    cfg: MarketConfig,
    c: float,
    *,
    type_grid: int = 50,
    bid_grid: int = 101,
    samples: int = 100_000,
    rng: RngStream | None = None,
    strategy: Strategy | None = None,
) -> CertificationReport:
    """Certify that a strategy is a mutual best response.

    For each type on a uniform grid, the expected payoff of the
    strategy's own bid is compared against every deviation on a uniform
    bid grid in [0, c] plus abstention, with all opponents bidding the
    strategy and sharing one pool of sampled types (common random
    numbers). Certification requires every estimated gain to stay
    within three pooled standard errors; the first violation raises
    CertificationFailed with the offending (type, deviation, gain).
    The counts must pass :func:`require_grids`.
    """
    require_grids(samples, type_grid, bid_grid)
    if rng is None:
        rng = RngStream(0, 0)
    strat = strategy if strategy is not None else equilibrium_strategy_map(cfg, c)
    opp_types = sample_type_matrix(cfg, samples, rng, columns=cfg.k - 1)
    pool = _OpponentPool(cfg, c, strat(opp_types))

    types = np.linspace(cfg.dist.r_min, cfg.dist.r_max, type_grid)
    deviations: list[float | None] = [float(d) for d in np.linspace(0.0, c, bid_grid)]
    deviations.append(None)
    affine = [pool.affine_payoff(d) for d in deviations]

    max_gain = -math.inf
    worst = (float(types[0]), None)
    epsilon_at_worst = 0.0
    for r in types:
        r = float(r)
        own_values = strat(np.array([r]))
        own = None if math.isinf(float(own_values[0])) else float(own_values[0])
        a_own, b_own = pool.affine_payoff(own)
        base = a_own + b_own * r
        gains = np.array([a + b * r - base for a, b in affine])
        # Exact per-sample re-check for the most promising deviations:
        # the affine path has no error estimate, so take the top few by
        # mean gain plus any with positive mean.
        candidates = set(np.argsort(gains)[-3:].tolist())
        candidates.update(np.nonzero(gains > 0.0)[0].tolist())
        own_samples = pool.payoff_samples(own, r)
        # Payoffs lie in [0, max(r, c)], so a centred difference is below
        # 2**(e + 1) in size. Where n squares of that could overflow, the
        # differences are taken in units of 2**shift; the mean and the
        # root-mean-square commute with that power of two (short of
        # subnormal differences), so the results are scaled back exactly.
        e = math.frexp(max(r, c))[1]
        shift = max(0, e + 1 - (1023 - pool.n.bit_length()) // 2)
        for idx in sorted(candidates):
            d = deviations[idx]
            diff = pool.payoff_samples(d, r)
            diff -= own_samples
            if shift:
                np.ldexp(diff, -shift, out=diff)
            # numpy's mean and std(ddof=1), to the bit, with one mean.
            gain = float(np.add.reduce(diff) / pool.n)
            diff -= gain
            diff *= diff
            eps = 3.0 * (math.sqrt(float(np.add.reduce(diff)) / (pool.n - 1)) / math.sqrt(pool.n))
            gain, eps = math.ldexp(gain, shift), math.ldexp(eps, shift)
            if gain > max_gain:
                max_gain = gain
                worst = (r, d)
                epsilon_at_worst = eps
            if gain > eps:
                raise CertificationFailed(r, d, gain, eps)
    return CertificationReport(
        certified=True,
        max_gain=max_gain,
        epsilon=epsilon_at_worst,
        worst_type=worst[0],
        worst_deviation=worst[1],
        types_checked=type_grid,
        deviations_checked=len(deviations),
        samples=samples,
    )
