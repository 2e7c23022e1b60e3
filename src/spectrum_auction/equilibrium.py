"""Symmetric equilibrium bidding strategies for the single-buyer auction.

Given the reserve rate ``c``, every seller maps its private type to a
bid. The map's shape depends on which of four reserve-rate regimes
``c`` falls in, delimited by ``L = ((k-1+eta)/k) * r_min``, ``r_min``
and ``r_max``:

* low (``c <= L``): every type abstains;
* mid (``L < c < r_min``): types up to a threshold bid the reserve,
  the rest abstain;
* standard (``r_min <= c < r_max``): types up to ``c`` bid truthfully,
  types up to a threshold bid the reserve, the rest abstain;
* high (``c >= r_max``): every type bids truthfully.

The mid/standard thresholds are the unique roots of continuous
residual functions, located by a sign scan plus bisection. If the scan
finds more than one root the engine refuses rather than selecting an
equilibrium arbitrarily.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .distributions import TypeDistribution
from .errors import BracketingError, NonUniqueThreshold
from .numerics import bisect_root, sign_change_brackets

# Grid density of the root-existence scan used both for bracketing and
# for the uniqueness check.
SCAN_POINTS = 10_000

# Entries kept by each equilibrium cache. They are keyed on a float
# reserve, so an unbounded cache grows with every distinct reserve a
# session visits; one reserve optimization touches under a thousand.
CACHE_SIZE = 4096


def require_count(name: str, value, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy
    integers included, bools not) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class MarketConfig:
    """Market primitives: seller count, type law, interference discounts
    and the buyer's standalone throughput (Mbps)."""

    k: int
    dist: TypeDistribution
    eta_apo: float
    delta_lte: float
    r_lte: float

    def __post_init__(self):
        require_count("k", self.k, 2)
        if not 0.0 < self.eta_apo < 1.0:
            raise ValueError("eta_apo must lie in (0, 1)")
        if not 0.0 < self.delta_lte < 1.0:
            raise ValueError("delta_lte must lie in (0, 1)")
        if not self.r_lte > 0.0:
            raise ValueError("r_lte must be positive")

    @property
    def externality_share(self) -> float:
        """(k-1+eta)/k: expected keep-fraction of a seller's rate when
        every seller abstains and the buyer picks a channel at random."""
        return (self.k - 1 + self.eta_apo) / self.k

    @property
    def low_regime_cap(self) -> float:
        """Upper end L of the reserve range in which no seller sells."""
        return self.externality_share * self.dist.r_min


@dataclass(frozen=True)
class Bid:
    """A seller's action: a requested rate in Mbps, or abstention."""

    rate: float | None

    def __post_init__(self):
        if self.rate is not None and self.rate < 0.0:
            raise ValueError("bid rates must be >= 0")

    @property
    def is_abstain(self) -> bool:
        return self.rate is None

    @classmethod
    def of(cls, rate: float) -> "Bid":
        return cls(float(rate))

    def __str__(self) -> str:
        return "N" if self.rate is None else repr(self.rate)


ABSTAIN = Bid(None)

# Internal array encoding of bids: abstention sorts above every numeric
# bid, so it is carried as +inf inside vectorized code. The public API
# always speaks Bid objects.
ABSTAIN_VALUE = math.inf


class RegimeKind(Enum):
    LOW = "low"
    MID = "mid"
    STANDARD = "standard"
    HIGH = "high"


@dataclass(frozen=True)
class ReserveRegime:
    """One of the four reserve-rate regimes with its interval bounds."""

    kind: RegimeKind
    lo: float
    hi: float


@dataclass(frozen=True)
class EquilibriumStrategy:
    """Regime-classified type-to-bid map for a fixed reserve rate.

    ``r_t`` is the abstention threshold in the standard regime,
    ``r_x`` the one in the mid regime; thresholds not applicable to the
    regime are None.
    """

    regime: ReserveRegime
    c: float
    r_t: float | None = None
    r_x: float | None = None

    def bid(self, r: float) -> Bid:
        """Bid of one type; the scalar view of :meth:`bid_values`."""
        v = float(self.bid_values(r))
        return ABSTAIN if math.isinf(v) else Bid.of(v)

    def bid_values(self, types: np.ndarray) -> np.ndarray:
        """Vectorized bid map; abstention encoded as +inf."""
        types = np.asarray(types, dtype=float)
        kind = self.regime.kind
        if kind is RegimeKind.LOW:
            return np.full_like(types, ABSTAIN_VALUE)
        if kind is RegimeKind.MID:
            return np.where(types <= self.r_x, self.c, ABSTAIN_VALUE)
        if kind is RegimeKind.STANDARD:
            return np.where(
                types <= self.c,
                types,
                np.where(types <= self.r_t, self.c, ABSTAIN_VALUE),
            )
        return types.copy()


@dataclass(frozen=True)
class RootScan:
    """Result of the threshold-uniqueness scan: root count and the
    bracketing intervals found on the grid."""

    count: int
    brackets: tuple[tuple[float, float], ...]


def classify_regime(cfg: MarketConfig, c: float) -> ReserveRegime:
    """Regime containing reserve rate ``c``.

    Boundaries follow the interval conventions of the strategy map:
    ``c == L`` is low, ``c == r_min`` standard, ``c == r_max`` high.
    """
    if not c >= 0.0:
        raise ValueError("reserve rate must be >= 0")
    low_cap = cfg.low_regime_cap
    r_min, r_max = cfg.dist.r_min, cfg.dist.r_max
    if c <= low_cap:
        return ReserveRegime(RegimeKind.LOW, 0.0, low_cap)
    if c < r_min:
        return ReserveRegime(RegimeKind.MID, low_cap, r_min)
    if c < r_max:
        return ReserveRegime(RegimeKind.STANDARD, r_min, r_max)
    return ReserveRegime(RegimeKind.HIGH, r_max, math.inf)


def _threshold_residual(cfg: MarketConfig, c: float, r, f_floor: float):
    """Shared residual core.

    ``f_floor`` is the CDF value subtracted inside the binomial term:
    F(c) for the standard regime, 0 for the mid regime.
    """
    k = cfg.k
    fr = cfg.dist.cdf(r)
    r = np.asarray(r, dtype=float)
    surv = 1.0 - fr
    total = surv ** (k - 1) * (c - cfg.externality_share * r)
    mass = fr - f_floor
    for n in range(1, k):
        total = total + (
            math.comb(k - 1, n)
            * mass**n
            * surv ** (k - 1 - n)
            * (c - r)
            / (n + 1)
        )
    return float(total) if np.ndim(total) == 0 else total


def threshold_residual_standard(cfg: MarketConfig, c: float, r):
    """Standard-regime threshold residual.

    Positive at ``r = c``, negative at ``r = r_max``; its unique root in
    between is the type above which sellers abstain. Accepts scalar or
    ndarray ``r``.
    """
    return _threshold_residual(cfg, c, r, float(cfg.dist.cdf(c)))


def threshold_residual_mid(cfg: MarketConfig, c: float, r):
    """Mid-regime threshold residual; root lies in (r_min, r_max)."""
    return _threshold_residual(cfg, c, r, 0.0)


def _scan(cfg: MarketConfig, c: float, lo: float, hi: float, residual, points: int) -> RootScan:
    xs = np.linspace(lo, hi, points)
    ys = residual(cfg, c, xs)
    brackets = sign_change_brackets(xs, ys)
    return RootScan(count=len(brackets), brackets=tuple(brackets))


def uniqueness_scan(cfg: MarketConfig, c: float, points: int = SCAN_POINTS) -> RootScan:
    """Count roots of the regime's threshold equation on a dense grid.

    Callers treat a count other than one as a refusal condition; this
    function only reports.
    """
    regime = classify_regime(cfg, c)
    if regime.kind is RegimeKind.STANDARD:
        return _scan(cfg, c, c, cfg.dist.r_max, threshold_residual_standard, points)
    if regime.kind is RegimeKind.MID:
        return _scan(cfg, c, cfg.dist.r_min, cfg.dist.r_max, threshold_residual_mid, points)
    raise ValueError("threshold equations only apply to the mid and standard regimes")


def _solve_threshold(cfg: MarketConfig, c: float, lo: float, hi: float, residual) -> float:
    r_max = cfg.dist.r_max
    y_lo = residual(cfg, c, lo)
    y_hi = residual(cfg, c, hi)
    if not (y_lo > 0.0 and y_hi < 0.0):
        raise BracketingError(
            f"threshold residual endpoints not (+, -) on [{lo:.6g}, {hi:.6g}]: "
            f"({y_lo:.3g}, {y_hi:.3g})"
        )
    scan = _scan(cfg, c, lo, hi, residual, SCAN_POINTS)
    if scan.count != 1:
        raise NonUniqueThreshold(
            f"threshold equation has {scan.count} roots at c={c:.6g}; refusing"
        )
    b_lo, b_hi = scan.brackets[0]
    if b_lo == b_hi:
        return b_lo
    return bisect_root(
        lambda r: residual(cfg, c, r),
        b_lo,
        b_hi,
        width_tol=1e-12 * r_max,
        residual_tol=1e-9 * r_max,
    )


@lru_cache(maxsize=CACHE_SIZE)
def solve_threshold_standard(cfg: MarketConfig, c: float) -> float:
    """Abstention threshold for a standard-regime reserve rate.

    The root lies in ``(c, r_max)``; raises NonUniqueThreshold when the
    scan finds several roots, BracketingError when the endpoint signs
    are wrong.
    """
    regime = classify_regime(cfg, c)
    if regime.kind is not RegimeKind.STANDARD:
        raise ValueError(f"c={c} is not in the standard regime")
    return _solve_threshold(cfg, c, c, cfg.dist.r_max, threshold_residual_standard)


@lru_cache(maxsize=CACHE_SIZE)
def solve_threshold_mid(cfg: MarketConfig, c: float) -> float:
    """Abstention threshold for a mid-regime reserve rate; root in
    ``(r_min, r_max)``."""
    regime = classify_regime(cfg, c)
    if regime.kind is not RegimeKind.MID:
        raise ValueError(f"c={c} is not in the mid regime")
    return _solve_threshold(
        cfg, c, cfg.dist.r_min, cfg.dist.r_max, threshold_residual_mid
    )


@lru_cache(maxsize=CACHE_SIZE)
def solve_strategy(cfg: MarketConfig, c: float) -> EquilibriumStrategy:
    """Equilibrium strategy at reserve ``c``, thresholds included.

    Memoized on ``(cfg, c)``: the reserve-rate optimizer evaluates the
    same points repeatedly.
    """
    regime = classify_regime(cfg, c)
    if regime.kind is RegimeKind.STANDARD:
        return EquilibriumStrategy(regime, c, r_t=solve_threshold_standard(cfg, c))
    if regime.kind is RegimeKind.MID:
        return EquilibriumStrategy(regime, c, r_x=solve_threshold_mid(cfg, c))
    return EquilibriumStrategy(regime, c)


def bid(cfg: MarketConfig, c: float, r: float) -> Bid:
    """Equilibrium bid of a seller with type ``r`` under reserve ``c``.

    Measure-zero boundary types resolve deterministically: the lowest
    type bids itself, a type exactly at a threshold bids the reserve,
    and the highest type bids truthfully in the high regime.
    """
    if not cfg.dist.r_min <= r <= cfg.dist.r_max:
        raise ValueError(f"type {r} outside support")
    return solve_strategy(cfg, c).bid(r)


def bid_values(cfg: MarketConfig, c: float, types: np.ndarray) -> np.ndarray:
    """Vectorized equilibrium bids (abstention as +inf)."""
    return solve_strategy(cfg, c).bid_values(types)
