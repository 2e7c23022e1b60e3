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

The equilibrium is seller-side: it depends on ``k``, the type law and
``eta`` (a :class:`SellerMarket`), not on the buyer's throughput or its
discount. The threshold and strategy caches are keyed on
``(SellerMarket, c)``, and the engine passes ``cfg.sellers`` to them, so
markets that differ only in ``r_lte`` or ``delta_lte`` share their
solves. The solvers also accept a :class:`MarketConfig`, which is then
its own cache key.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .distributions import TypeDistribution
from .errors import BracketingError, NonUniqueThreshold
from .numerics import bisect_root, is_number, sign_change_brackets

# Grid density of the root-existence scan used both for bracketing and
# for the uniqueness check.
SCAN_POINTS = 10_000

# Entries kept by each equilibrium cache. They are keyed on the seller
# side and a float reserve, so an unbounded cache grows with every
# distinct reserve a session visits; one reserve optimization touches
# under a thousand.
CACHE_SIZE = 4096


def require_count(name: str, value, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy
    integers included, bools not) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_numbers(obj, *names: str) -> None:
    """Raise ``ValueError`` unless each named field of ``obj`` is a
    number by :func:`numerics.is_number` (bools and text are not)."""
    for name in names:
        value = getattr(obj, name)
        if not is_number(value):
            raise ValueError(f"{name} must be a number, got {value!r}")


def require_law(dist) -> None:
    """Raise ``ValueError`` unless ``dist`` is a :class:`TypeDistribution`."""
    if not isinstance(dist, TypeDistribution):
        raise ValueError(f"dist must be a TypeDistribution, got {dist!r}")


def require_type(dist: TypeDistribution, r: float) -> None:
    """Raise ``ValueError`` unless the seller type ``r`` lies on the
    support of ``dist`` (NaN and the infinities do not)."""
    if not dist.r_min <= r <= dist.r_max:
        raise ValueError(f"type {r} outside support")


def require_reserve(name: str, value) -> float:
    """``value`` as a float if it is a reserve rate: a number by
    :func:`numerics.is_number`, finite and >= 0. Raise ``ValueError``
    otherwise."""
    if not is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SellerMarket:
    """The seller side of a market: seller count, type law and the
    sellers' interference discount. The equilibrium bids depend on
    these alone, so the equilibrium caches are keyed on them."""

    k: int
    dist: TypeDistribution
    eta_apo: float

    def __post_init__(self):
        require_count("k", self.k, 2)
        require_law(self.dist)
        require_numbers(self, "eta_apo")
        if not 0.0 < self.eta_apo < 1.0:
            raise ValueError("eta_apo must lie in (0, 1)")

    @property
    def sellers(self) -> "SellerMarket":
        return self

    @cached_property
    def externality_share(self) -> float:
        """(k-1+eta)/k: expected keep-fraction of a seller's rate when
        every seller abstains and the buyer picks a channel at random."""
        return (self.k - 1 + self.eta_apo) / self.k

    @cached_property
    def low_regime_cap(self) -> float:
        """Upper end L of the reserve range in which no seller sells."""
        return self.externality_share * self.dist.r_min


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
        self.sellers  # builds the seller side, which checks k, dist and eta_apo
        require_numbers(self, "delta_lte", "r_lte")
        if not 0.0 < self.delta_lte < 1.0:
            raise ValueError("delta_lte must lie in (0, 1)")
        if not 0.0 < self.r_lte < math.inf:
            raise ValueError("r_lte must be positive and finite")

    @cached_property
    def sellers(self) -> SellerMarket:
        """The seller side, on which the equilibrium depends."""
        return SellerMarket(self.k, self.dist, self.eta_apo)

    @property
    def externality_share(self) -> float:
        return self.sellers.externality_share

    @property
    def low_regime_cap(self) -> float:
        return self.sellers.low_regime_cap


# What the equilibrium functions accept: a market or its seller side.
AnyMarket = MarketConfig | SellerMarket


@dataclass(frozen=True)
class Bid:
    """A seller's action: a requested rate in Mbps, or abstention. A
    rate must be finite and >= 0."""

    rate: float | None

    def __post_init__(self):
        if self.rate is not None and not 0.0 <= self.rate < math.inf:
            raise ValueError(f"bid rates must be finite and >= 0, got {self.rate!r}")

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


def classify_regime(cfg: AnyMarket, c: float) -> ReserveRegime:
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


def _threshold_residual(cfg: AnyMarket, c: float, r, f_floor: float):
    """Shared residual core.

    ``f_floor`` is the CDF value subtracted inside the binomial term:
    F(c) for the standard regime, 0 for the mid regime. A ``float``
    ``r`` (the bisection's) stays a Python float throughout: the
    operations are those of the array path in the same order, and
    ``**`` on Python floats is the libm ``pow`` either way.
    """
    k = cfg.k
    fr = cfg.dist.cdf(r)
    scalar = isinstance(r, float)
    if not scalar:
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
    return float(total) if scalar or np.ndim(total) == 0 else total


def threshold_residual_standard(cfg: AnyMarket, c: float, r):
    """Standard-regime threshold residual.

    Positive at ``r = c``, negative at ``r = r_max``; its unique root in
    between is the type above which sellers abstain. Accepts scalar or
    ndarray ``r``.
    """
    return _threshold_residual(cfg, c, r, float(cfg.dist.cdf(c)))


def threshold_residual_mid(cfg: AnyMarket, c: float, r):
    """Mid-regime threshold residual; root lies in (r_min, r_max)."""
    return _threshold_residual(cfg, c, r, 0.0)


def _solve_threshold(cfg: AnyMarket, c: float, lo: float, f_floor: float) -> float:
    """Root of the threshold residual with floor ``f_floor`` on
    ``[lo, r_max]``: sign check, uniqueness scan, then bisection. The
    caller computes the floor once per solve."""
    r_max = cfg.dist.r_max

    def residual(r):
        return _threshold_residual(cfg, c, r, f_floor)

    y_lo = residual(lo)
    y_hi = residual(r_max)
    if not (y_lo > 0.0 and y_hi < 0.0):
        raise BracketingError(
            f"threshold residual endpoints not (+, -) on [{lo:.6g}, {r_max:.6g}]: "
            f"({y_lo:.3g}, {y_hi:.3g})"
        )
    xs = np.linspace(lo, r_max, SCAN_POINTS)
    brackets = sign_change_brackets(xs, residual(xs))
    if len(brackets) != 1:
        raise NonUniqueThreshold(
            f"threshold equation has {len(brackets)} roots at c={c:.6g}; refusing"
        )
    (b_lo, b_hi), = brackets
    if b_lo == b_hi:
        return b_lo
    return bisect_root(
        residual,
        b_lo,
        b_hi,
        width_tol=1e-12 * r_max,
        residual_tol=1e-9 * r_max,
    )


@lru_cache(maxsize=CACHE_SIZE)
def solve_threshold_standard(cfg: AnyMarket, c: float) -> float:
    """Abstention threshold for a standard-regime reserve rate.

    The root lies in ``(c, r_max)``; raises NonUniqueThreshold when the
    scan finds several roots, BracketingError when the endpoint signs
    are wrong.
    """
    regime = classify_regime(cfg, c)
    if regime.kind is not RegimeKind.STANDARD:
        raise ValueError(f"c={c} is not in the standard regime")
    return _solve_threshold(cfg, c, c, float(cfg.dist.cdf(c)))


@lru_cache(maxsize=CACHE_SIZE)
def solve_threshold_mid(cfg: AnyMarket, c: float) -> float:
    """Abstention threshold for a mid-regime reserve rate; root in
    ``(r_min, r_max)``."""
    regime = classify_regime(cfg, c)
    if regime.kind is not RegimeKind.MID:
        raise ValueError(f"c={c} is not in the mid regime")
    return _solve_threshold(cfg, c, cfg.dist.r_min, 0.0)


@lru_cache(maxsize=CACHE_SIZE)
def solve_strategy(cfg: AnyMarket, c: float) -> EquilibriumStrategy:
    """Equilibrium strategy at reserve ``c``, thresholds included.

    Memoized on ``(cfg, c)``: the reserve-rate optimizer evaluates the
    same points repeatedly. The thresholds are looked up on
    ``cfg.sellers``.
    """
    regime = classify_regime(cfg, c)
    if regime.kind is RegimeKind.STANDARD:
        return EquilibriumStrategy(regime, c, r_t=solve_threshold_standard(cfg.sellers, c))
    if regime.kind is RegimeKind.MID:
        return EquilibriumStrategy(regime, c, r_x=solve_threshold_mid(cfg.sellers, c))
    return EquilibriumStrategy(regime, c)


def bid(cfg: MarketConfig, c: float, r: float) -> Bid:
    """Equilibrium bid of a seller with type ``r`` under reserve ``c``.

    Measure-zero boundary types resolve deterministically: the lowest
    type bids itself, a type exactly at a threshold bids the reserve,
    and the highest type bids truthfully in the high regime.
    """
    require_type(cfg.dist, r)
    return solve_strategy(cfg.sellers, c).bid(r)


def bid_values(cfg: MarketConfig, c: float, types: np.ndarray) -> np.ndarray:
    """Vectorized equilibrium bids (abstention as +inf)."""
    return solve_strategy(cfg.sellers, c).bid_values(types)
