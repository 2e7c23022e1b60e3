"""Buyer-side analysis: expected payoff over reserve rates and the
optimal reserve.

The expected payoff under equilibrium bidding has one closed form for
every regime, with a quadrature of the expected second-lowest-type
payment that is empty when ``c <= r_min``. The reserve moves only the
quadrature's upper limit, so each (type law, k, budget) gets one
cumulative Simpson table, and a reserve reads a prefix integral plus
a two-panel tail from it. The optimum follows a
three-case rule: a capacity threshold ``(k-1+eta)/(k(1-delta)) * r_min``
decides whether selling is worth anything at all, and above it the
curve is empirically unimodal, so golden section search applies (with
a coarse guard scan and a grid fallback should the scan find a dip).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import TRUNCATED_NORMAL, TypeDistribution
from .equilibrium import MarketConfig, RegimeKind, SellerMarket, reserve_grid, solve_strategy
from .numerics import CumulativeSimpson, golden_section_max, has_interior_dip

QUAD_START_PANELS = 2048
GUARD_POINTS = 200
FALLBACK_GRID_POINTS = 2000
# Payment tables kept at once, one per (type law, k, budget). A table
# holds two arrays of at most 2**15 + 1 floats, 512 KB at the panel cap.
TABLE_CACHE_SIZE = 8


@dataclass(frozen=True)
class PayoffCurvePoint:
    c: float
    expected_payoff: float
    regime: RegimeKind
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


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _payment_table(dist: TypeDistribution, k: int, budget: float) -> CumulativeSimpson:
    """Cumulative table of ``r f(r) F(r) (1-F(r))^(k-2)`` over the law's
    numerical support, accurate to ``budget``. The integrand depends only
    on the law and ``k``; the reserve moves only the upper limit, so one
    table serves every reserve of a market.

    A truncated normal's numerical support is the part of its support
    within 40 sigma of ``mu``: beyond it ``exp(-z*z/2)`` underflows
    (``z > 38.6``) and the float integrand is exactly 0. A grid over the
    whole support can step over all the mass: on TN(125, 50) over [50,
    1e6] both starting grids read about 0, so doubling stopped at once.
    The integral dropped is below the budget. With ``M`` the law's mass,
    the integrand is at most ``r phi((r - mu)/sigma) / (sigma M)``, so
    it integrates to at most ``(mu Q(40) + sigma phi(40)) / M`` above
    ``mu + 40 sigma`` and to at most ``mu Q(40) / M`` below ``mu - 40
    sigma`` (where ``0 <= r``). With ``Q(40) < phi(40) / 40`` and
    ``phi(40) < 2e-348``, the sum is below ``2e-348 (|mu| / 20 + sigma)
    / M``. A float cdf value ``0.5 (1 + erf)`` is a multiple of
    ``2**-54``, so an accepted law has ``M >= 2**-54``, and the dropped
    integral is below ``4e-332 (|mu| + sigma)``: under the budget ``1e-8
    r_lte / (k(k-1))`` unless ``r_lte / (k(k-1)) < 4e-324 (|mu| +
    sigma)``. A uniform law, and a normal one whose support lies within
    40 sigma of ``mu`` (every preset's), keeps its whole support."""

    def integrand(r):
        fr = dist.cdf(r)
        return r * dist.pdf(r) * fr * (1.0 - fr) ** (k - 2)

    lo, hi = dist.r_min, dist.r_max
    if dist.kind == TRUNCATED_NORMAL:
        lo, hi = max(lo, dist.mu - 40.0 * dist.sigma), min(hi, dist.mu + 40.0 * dist.sigma)
    return CumulativeSimpson(integrand, lo, hi, start_panels=QUAD_START_PANELS, budget=budget)


def _second_lowest_integral(cfg: MarketConfig, hi: float) -> float:
    """k(k-1) * integral of r f(r) F(r) (1-F(r))^(k-2) from r_min to
    min(hi, r_max); 0 when hi <= r_min. Read from the market's payment
    table, whose budget is ``1e-8 * r_lte / (k(k-1))``; a reserve in the
    low or mid regime builds no table."""
    if hi <= cfg.dist.r_min:
        return 0.0
    k = cfg.k
    budget = 1e-8 * cfg.r_lte / (k * (k - 1))
    return k * (k - 1) * _payment_table(cfg.dist, k, budget).integral(hi)


def curve_point(cfg: MarketConfig, c: float) -> PayoffCurvePoint:
    """Buyer's expected payoff and the expected payment at reserve
    ``c`` under equilibrium bidding.

    In every regime, types up to ``min(c, r_max)`` bid truthfully, types
    up to the strategy's cutoff bid ``c`` and the rest abstain. The
    payment (the rate allocated to the winning seller, zero when no one
    wins) is a quadrature of the second-lowest-type payment below ``c``
    plus ``c`` times the probability that some seller sells while at
    most one type lies below ``c``. The payoff is continuous in ``c``.
    """
    dist = cfg.dist
    r = cfg.r_lte
    strategy = solve_strategy(cfg.sellers, c)
    none_sells = (1.0 - dist.cdf(strategy.cutoff)) ** cfg.k
    f_c = dist.cdf(c)
    # c times the chance that exactly one type lies below c. The term is at
    # most c, but k * c overflows above float max / k; there it is taken in
    # units of 2**m, a scaling that is exact.
    m = 0 if cfg.k * c < math.inf else cfg.k.bit_length()
    one_below = math.ldexp(cfg.k * math.ldexp(c, -m) * f_c * (1.0 - f_c) ** (cfg.k - 1), m)
    payment = (
        _second_lowest_integral(cfg, c)
        + one_below
        + c * ((1.0 - f_c) ** cfg.k - none_sells)
    )
    payoff = none_sells * cfg.delta_lte * r + (1.0 - none_sells) * r - payment
    return PayoffCurvePoint(c, payoff, strategy.regime, payment)


def expected_payment(cfg: MarketConfig, c: float) -> float:
    """Expected rate allocated to the winning seller under reserve ``c``."""
    return curve_point(cfg, c).expected_payment


def expected_payoff(cfg: MarketConfig, c: float) -> float:
    """Buyer's expected payoff under equilibrium bidding at reserve ``c``."""
    return curve_point(cfg, c).expected_payoff


def capacity_threshold(cfg: MarketConfig) -> float:
    """Throughput below which selling can never beat coexistence."""
    return cfg.low_regime_cap / (1.0 - cfg.delta_lte)


def _search_reserve(
    estimate, sellers: SellerMarket, lo: float, hi: float, r_lte: float, *,
    fallback_points: int, width: float, refine,
) -> tuple[float, float]:
    """Guarded maximization of a payoff curve on [lo, hi], shared by the
    single- and multi-buyer optimizers; returns ``(c, value)``.

    ``estimate(c)`` returns ``(value, standard error)``; an exact curve
    reports 0. A scan of GUARD_POINTS reserves tests the curve for an
    interior dip beyond ``1e-4 * r_lte`` plus six median standard
    errors. A dip returns the best point of a ``fallback_points`` grid.
    A unimodal scan runs golden section down to ``width``; each
    candidate of ``refine(c)`` then replaces the optimum when it is
    strictly better.

    ``estimate`` solves its thresholds on ``sellers``; each grid's
    solves scan in blocks (:func:`equilibrium.reserve_grid`).
    """
    guard = np.linspace(lo, hi, GUARD_POINTS)
    with reserve_grid(sellers, guard):
        scan = [estimate(float(c)) for c in guard]
    tol = 1e-4 * r_lte + 6.0 * float(np.median([se for _, se in scan]))
    if has_interior_dip([v for v, _ in scan], tol):
        fine = np.linspace(lo, hi, fallback_points)
        with reserve_grid(sellers, fine):
            values = [estimate(float(c))[0] for c in fine]
        best = int(np.argmax(values))
        return float(fine[best]), float(values[best])
    c_star, best = golden_section_max(lambda c: estimate(c)[0], lo, hi, width_tol=width)
    for c in refine(c_star):
        value = estimate(float(c))[0]
        if value > best:
            c_star, best = float(c), value
    return c_star, best


def optimize_reserve(cfg: MarketConfig) -> OptimalReserve:
    """Optimal reserve rate.

    Case 1 (throughput at or below the capacity threshold): any reserve
    up to the low-regime cap is optimal; returns the representative 0.
    Case 2 (threshold < throughput <= r_max): search (cap, throughput].
    Case 3 (throughput above both): search (cap, r_max]. The search
    runs golden section after a coarse unimodality scan; a failed scan
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

    c_star, best = _search_reserve(
        lambda c: (expected_payoff(cfg, c), 0.0),
        cfg.sellers,
        low_cap,
        hi,
        r,
        fallback_points=FALLBACK_GRID_POINTS,
        width=1e-4 * cfg.dist.r_max,
        # The boundary hi is a candidate the interior search can miss.
        refine=lambda c: (hi,),
    )
    return OptimalReserve(float(c_star), float(best), case)
