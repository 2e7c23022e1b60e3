"""Buyer-side analysis: expected payoff over reserve rates and the
optimal reserve.

The expected payoff under equilibrium bidding has a closed form per
regime; the standard and high regimes need a quadrature of the
expected second-lowest-type payment. The optimum follows a three-case
rule: a capacity threshold ``(k-1+eta)/(k(1-delta)) * r_min`` decides
whether selling is worth anything at all, and above it the curve is
empirically unimodal, so golden section search applies (with a coarse
guard scan and a grid fallback should the scan find a dip).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    MarketConfig,
    RegimeKind,
    ReserveRegime,
    classify_regime,
    solve_threshold_mid,
    solve_threshold_standard,
)
from .errors import NonUnimodalCurve
from .numerics import golden_section_max, has_interior_dip, simpson_with_doubling

QUAD_START_PANELS = 2048
GUARD_POINTS = 200
FALLBACK_GRID_POINTS = 2000


@dataclass(frozen=True)
class PayoffCurvePoint:
    c: float
    expected_payoff: float
    regime: ReserveRegime
    expected_payment: float


@dataclass(frozen=True)
class OptimalReserve:
    """Optimizer output.

    ``case`` follows the three-case optimum rule; in case 1 every
    reserve in ``interval`` is optimal and ``c_star`` is the
    representative 0.
    """

    c_star: float
    expected_payoff: float
    case: int
    interval: tuple[float, float] | None = None


def others_min_cdf(cfg: MarketConfig, r):
    """CDF of the lowest type among k-1 rival sellers."""
    return 1.0 - (1.0 - cfg.dist.cdf(r)) ** (cfg.k - 1)


def others_min_pdf(cfg: MarketConfig, r):
    """Density of the lowest type among k-1 rival sellers."""
    return (cfg.k - 1) * cfg.dist.pdf(r) * (1.0 - cfg.dist.cdf(r)) ** (cfg.k - 2)


def _second_lowest_integral(cfg: MarketConfig, hi: float) -> float:
    """k(k-1) * integral of r f(r) F(r) (1-F(r))^(k-2) from r_min to hi."""
    dist = cfg.dist
    if hi <= dist.r_min:
        return 0.0
    k = cfg.k

    def integrand(r):
        fr = dist.cdf(r)
        return r * dist.pdf(r) * fr * (1.0 - fr) ** (k - 2)

    budget = 1e-8 * cfg.r_lte / (k * (k - 1))
    val = simpson_with_doubling(
        integrand, dist.r_min, min(hi, dist.r_max),
        start_panels=QUAD_START_PANELS, budget=budget,
    )
    return k * (k - 1) * val


def expected_payment(cfg: MarketConfig, c: float) -> float:
    """Expected rate allocated to the winning seller under reserve ``c``
    (zero when no one wins).

    Standard regime: quadrature of the second-lowest-type payment below
    ``c`` plus the reserve-capped mass above it. Mid regime: the reserve
    times the probability anyone sells. High regime: the full
    second-lowest-type expectation.
    """
    dist = cfg.dist
    regime = classify_regime(cfg, c)
    if regime.kind is RegimeKind.LOW:
        return 0.0
    if regime.kind is RegimeKind.MID:
        r_x = solve_threshold_mid(cfg, c)
        sell_prob = 1.0 - (1.0 - dist.cdf(r_x)) ** cfg.k
        return c * sell_prob
    if regime.kind is RegimeKind.HIGH:
        return _second_lowest_integral(cfg, dist.r_max)
    r_t = solve_threshold_standard(cfg, c)
    f_c = dist.cdf(c)
    f_t = dist.cdf(r_t)
    return (
        _second_lowest_integral(cfg, c)
        + cfg.k * c * f_c * (1.0 - f_c) ** (cfg.k - 1)
        + c * ((1.0 - f_c) ** cfg.k - (1.0 - f_t) ** cfg.k)
    )


def expected_payoff(cfg: MarketConfig, c: float) -> float:
    """Buyer's expected payoff under equilibrium bidding at reserve
    ``c``; continuous in ``c`` across regime boundaries."""
    dist = cfg.dist
    r = cfg.r_lte
    regime = classify_regime(cfg, c)
    if regime.kind is RegimeKind.LOW:
        return cfg.delta_lte * r
    if regime.kind is RegimeKind.MID:
        r_x = solve_threshold_mid(cfg, c)
        none_sells = (1.0 - dist.cdf(r_x)) ** cfg.k
        return none_sells * cfg.delta_lte * r + (1.0 - none_sells) * (r - c)
    if regime.kind is RegimeKind.HIGH:
        return r - _second_lowest_integral(cfg, dist.r_max)
    r_t = solve_threshold_standard(cfg, c)
    none_sells = (1.0 - dist.cdf(r_t)) ** cfg.k
    return (
        none_sells * cfg.delta_lte * r
        + (1.0 - none_sells) * r
        - expected_payment(cfg, c)
    )


def curve_point(cfg: MarketConfig, c: float) -> PayoffCurvePoint:
    return PayoffCurvePoint(
        c=c,
        expected_payoff=expected_payoff(cfg, c),
        regime=classify_regime(cfg, c),
        expected_payment=expected_payment(cfg, c),
    )


def payoff_curve(cfg: MarketConfig, c_values) -> list[PayoffCurvePoint]:
    return [curve_point(cfg, float(c)) for c in c_values]


def capacity_threshold(cfg: MarketConfig) -> float:
    """Throughput below which selling can never beat coexistence."""
    return cfg.low_regime_cap / (1.0 - cfg.delta_lte)


def grid_fallback(payoff, lo: float, hi: float, points: int, strict: bool) -> tuple[float, float]:
    """``(c, payoff(c))`` at the best point of a fine grid on [lo, hi]:
    the search used once a guard scan has found a dip, or
    NonUnimodalCurve when ``strict``."""
    if strict:
        raise NonUnimodalCurve("payoff curve failed the unimodality guard scan")
    fine = np.linspace(lo, hi, points)
    values = [payoff(float(c)) for c in fine]
    best = int(np.argmax(values))
    return float(fine[best]), float(values[best])


def optimize_reserve(
    cfg: MarketConfig,
    *,
    guard_points: int = GUARD_POINTS,
    strict_unimodal: bool = False,
) -> OptimalReserve:
    """Optimal reserve rate.

    Case 1 (throughput at or below the capacity threshold): any reserve
    up to the low-regime cap is optimal; returns the representative 0.
    Case 2 (threshold < throughput <= r_max): search (cap, throughput].
    Case 3 (throughput above both): search (cap, r_max]. The search
    runs golden section after a coarse unimodality scan; a failed scan
    raises NonUnimodalCurve when ``strict_unimodal`` and otherwise
    falls back to a fine grid.
    """
    r = cfg.r_lte
    low_cap = cfg.low_regime_cap
    if r <= capacity_threshold(cfg):
        return OptimalReserve(
            c_star=0.0,
            expected_payoff=cfg.delta_lte * r,
            case=1,
            interval=(0.0, low_cap),
        )
    if r <= cfg.dist.r_max:
        case, hi = 2, r
    else:
        case, hi = 3, cfg.dist.r_max

    grid = np.linspace(low_cap, hi, guard_points)
    values = [expected_payoff(cfg, float(c)) for c in grid]
    if has_interior_dip(values, 1e-4 * r):
        c_star, best = grid_fallback(
            lambda c: expected_payoff(cfg, c), low_cap, hi, FALLBACK_GRID_POINTS, strict_unimodal
        )
        return OptimalReserve(c_star, best, case)

    c_star, best = golden_section_max(
        lambda c: expected_payoff(cfg, c),
        low_cap,
        hi,
        width_tol=1e-4 * cfg.dist.r_max,
    )
    # The boundary hi is a candidate the interior search can miss.
    edge = expected_payoff(cfg, hi)
    if edge > best:
        c_star, best = hi, edge
    return OptimalReserve(float(c_star), float(best), case)
