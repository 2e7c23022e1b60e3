"""Symmetric equilibrium bidding strategies for the single-buyer auction.

Given the reserve rate ``c``, every seller bids ``min(type, c)`` up to
an abstention cutoff and abstains above it (:func:`capped_bids`). A
strategy is its regime, ``c`` and that cutoff. The regime is one of
four, delimited by ``L = ((k-1+eta)/k) * r_min``, ``r_min`` and
``r_max``:

* low (``c <= L``): cutoff -inf, every type abstains;
* mid (``L < c < r_min``): the threshold, so types up to it bid the
  reserve;
* standard (``r_min <= c < r_max``): the threshold, which is at least
  ``c``, so types up to ``c`` bid truthfully and types up to the
  threshold bid the reserve;
* high (``c >= r_max``): cutoff +inf, every type bids truthfully.

The mid and standard thresholds are roots of one indifference equation,
:func:`threshold_residual`, on ``[max(c, r_min), r_max]`` with the
floor ``F(max(c, r_min))``: ``F(c)`` in the standard regime and 0 in
the mid one, where no type lies below the reserve. A sign scan plus
bisection locates the root; if the scan finds more than one the engine
refuses rather than selecting an equilibrium arbitrarily.

The equilibrium is seller-side: it depends on ``k``, the type law and
``eta`` (a :class:`SellerMarket`), not on the buyer's throughput or its
discount. The threshold and strategy caches are keyed on
``(SellerMarket, c)``, and the engine passes ``cfg.sellers`` to them, so
markets that differ only in ``r_lte`` or ``delta_lte`` share their
solves. A :class:`MarketConfig` is a :class:`SellerMarket` too; passed
to a solver, it is its own cache key.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .distributions import TypeDistribution
from .errors import BracketingError, NonUniqueThreshold
from .numerics import bisect_root, is_finite, is_number, sign_change_brackets

# Grid density of the root-existence scan used both for bracketing and
# for the uniqueness check.
SCAN_POINTS = 10_000

# Entries kept by each equilibrium cache. They are keyed on the seller
# side and a float reserve, so an unbounded cache grows with every
# distinct reserve a session visits; one reserve optimization touches
# under a thousand.
CACHE_SIZE = 4096


def require_count(name: str, value, low: int, high: int = sys.maxsize) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy
    integers included, bools not) in ``[low, high]``. The default
    ``high`` is the largest size an array or a range can take."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and low <= value <= high):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


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
    if not (value >= 0.0 and is_finite(value)):
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
        """The seller side alone: this market itself."""
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
class MarketConfig(SellerMarket):
    """A market: its seller side plus the buyer's interference discount
    and standalone throughput (Mbps)."""

    delta_lte: float
    r_lte: float

    def __post_init__(self):
        super().__post_init__()
        require_numbers(self, "delta_lte", "r_lte")
        if not 0.0 < self.delta_lte < 1.0:
            raise ValueError("delta_lte must lie in (0, 1)")
        if not (self.r_lte > 0.0 and is_finite(self.r_lte)):
            raise ValueError("r_lte must be positive and finite")

    @cached_property
    def sellers(self) -> SellerMarket:
        """The seller side alone, on which the equilibrium depends."""
        return SellerMarket(self.k, self.dist, self.eta_apo)


@dataclass(frozen=True)
class Bid:
    """A seller's action: a requested rate in Mbps, or abstention. A
    rate must be finite and >= 0."""

    rate: float | None

    def __post_init__(self):
        if self.rate is not None and not (is_finite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"bid rates must be finite and >= 0, got {self.rate!r}")

    @property
    def is_abstain(self) -> bool:
        return self.rate is None

    @classmethod
    def of(cls, rate: float) -> "Bid":
        """A numeric bid with its rate stored as a float; a rate the
        rule refuses is never converted."""
        return cls(float(rate) if is_finite(rate) else rate)

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


def capped_bids(types, c: float, cutoff: float) -> np.ndarray:
    """The equilibrium's one bid rule, as a new array: ``min(type, c)``
    for a type up to ``cutoff``, and abstention (+inf) above it or for
    NaN. Every regime is this rule at its strategy's cutoff."""
    types = np.asarray(types, dtype=float)
    bids = np.minimum(types, c, out=np.empty_like(types))
    np.copyto(bids, ABSTAIN_VALUE, where=~(types <= cutoff))
    return bids


@dataclass(frozen=True, slots=True)
class EquilibriumStrategy:
    """Type-to-bid map for a fixed reserve rate: its regime, the reserve
    ``c`` and ``cutoff``, the largest type that does not abstain (-inf
    in the low regime, the threshold in the mid and standard ones, +inf
    in the high one)."""

    regime: RegimeKind
    c: float
    cutoff: float

    def bid(self, r: float) -> Bid:
        """Bid of one type; the scalar view of :meth:`bid_values`."""
        v = float(self.bid_values(r))
        return ABSTAIN if math.isinf(v) else Bid.of(v)

    def bid_values(self, types: np.ndarray) -> np.ndarray:
        """Vectorized bid map, :func:`capped_bids` at this strategy's
        cutoff; abstention encoded as +inf."""
        return capped_bids(types, self.c, self.cutoff)


def classify_regime(cfg: SellerMarket, c: float) -> RegimeKind:
    """Regime containing reserve rate ``c``.

    Boundaries follow the interval conventions of the strategy map:
    ``c == L`` is low, ``c == r_min`` standard, ``c == r_max`` high.
    """
    if not c >= 0.0:
        raise ValueError("reserve rate must be >= 0")
    if c <= cfg.low_regime_cap:
        return RegimeKind.LOW
    if c < cfg.dist.r_min:
        return RegimeKind.MID
    if c < cfg.dist.r_max:
        return RegimeKind.STANDARD
    return RegimeKind.HIGH


def _threshold_residual(cfg: SellerMarket, c: float, r, f_floor: float):
    """The residual of :func:`threshold_residual` with its floor
    ``f_floor`` given.

    A ``float`` ``r`` (the bisection's) stays a Python float throughout,
    and an array ``r`` (the uniqueness scan's) is computed in six reused
    buffers. Both paths run the same IEEE operations in the same order,
    ``((comb * mass**n) * surv**(k-1-n)) * (c-r) / (n+1)`` per term, but
    not the same ``**``: Python floats call the libm ``pow``, while
    ``np.power`` may run a SIMD pow (numpy 2.4 does on AVX-512) that is
    1 ulp off ``pow`` for some bases, even at exponent 2 or 3. So the two
    paths can differ in the last bits; the scan and the bisection share
    the residual's sign away from the root, not its bits.
    Any other scalar ``r`` is taken as a float.
    """
    k = cfg.k
    if isinstance(r, float) or np.ndim(r) == 0:
        r = float(r)
        fr = cfg.dist.cdf(r)
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
        return float(total)
    r = np.asarray(r, dtype=float)
    # cdf returns a new array, so fr is ours to overwrite with the mass
    # once the survival is taken.
    fr = cfg.dist.cdf(r)
    surv = np.subtract(1.0, fr)
    mass = np.subtract(fr, f_floor, out=fr)
    gap = np.subtract(c, r)
    total = np.multiply(cfg.externality_share, r)
    np.subtract(c, total, out=total)
    term = np.power(surv, k - 1)
    total *= term
    power = np.empty_like(total)
    for n in range(1, k):
        np.power(mass, n, out=term)
        term *= math.comb(k - 1, n)
        term *= np.power(surv, k - 1 - n, out=power)
        term *= gap
        term /= n + 1
        total += term
    return total


def threshold_residual(cfg: SellerMarket, c: float, r):
    """Indifference residual of the threshold type ``r`` at reserve
    ``c``, for the mid and standard regimes alike.

    Its floor is ``F(max(c, r_min))``: ``F(c)`` in the standard regime
    and 0 in the mid one. Positive at ``r = max(c, r_min)`` and negative
    at ``r = r_max`` in both; the unique root in between is the type
    above which sellers abstain. Accepts scalar or ndarray ``r``.
    """
    return _threshold_residual(cfg, c, r, float(cfg.dist.cdf(max(c, cfg.dist.r_min))))


def _solve_threshold(cfg: SellerMarket, c: float) -> float:
    """Root of :func:`threshold_residual` on ``[max(c, r_min), r_max]``:
    sign check, uniqueness scan, then bisection. The floor is computed
    once per solve. Raises NonUniqueThreshold when the scan finds
    several roots, BracketingError when the endpoint signs are wrong."""
    lo, r_max = max(c, cfg.dist.r_min), cfg.dist.r_max
    f_floor = float(cfg.dist.cdf(lo))

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
def solve_threshold_standard(cfg: SellerMarket, c: float) -> float:
    """Abstention threshold for a standard-regime reserve rate; the
    root lies in ``[c, r_max)``."""
    if classify_regime(cfg, c) is not RegimeKind.STANDARD:
        raise ValueError(f"c={c} is not in the standard regime")
    return _solve_threshold(cfg, c)


@lru_cache(maxsize=CACHE_SIZE)
def solve_threshold_mid(cfg: SellerMarket, c: float) -> float:
    """Abstention threshold for a mid-regime reserve rate; the root lies
    in ``(r_min, r_max)``."""
    if classify_regime(cfg, c) is not RegimeKind.MID:
        raise ValueError(f"c={c} is not in the mid regime")
    return _solve_threshold(cfg, c)


@lru_cache(maxsize=CACHE_SIZE)
def solve_strategy(cfg: SellerMarket, c: float) -> EquilibriumStrategy:
    """Equilibrium strategy at reserve ``c``.

    Memoized on ``(cfg, c)``: the reserve-rate optimizer evaluates the
    same points repeatedly. The thresholds are looked up on
    ``cfg.sellers``.
    """
    regime = classify_regime(cfg, c)
    if regime is RegimeKind.STANDARD:
        cutoff = solve_threshold_standard(cfg.sellers, c)
    elif regime is RegimeKind.MID:
        cutoff = solve_threshold_mid(cfg.sellers, c)
    else:
        cutoff = -math.inf if regime is RegimeKind.LOW else math.inf
    return EquilibriumStrategy(regime, c, cutoff)


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
