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
the mid one, where no type lies below the reserve. A sign scan of
``SCAN_POINTS`` grid points plus bisection locates the root; if the
scan finds more than one the engine refuses rather than selecting an
equilibrium arbitrarily. The scan is certified by cells: a bound on the
residual over each cell of the grid vouches for its sign, and the
residual is evaluated exactly only at the cell ends and in the cells
the bound cannot close, about 300 of the 10 000 points, for the same
brackets as evaluating all of them. The grid itself is never built:
its points are made where needed, with ``np.linspace``'s bits.

A scan is some 100 numpy calls on arrays of about 100 points, so the
optimizers' grids scan in blocks of reserves, one array pass each
(:func:`reserve_grid`); a solve alone is a block of one. The bisections
stay scalar, one reserve at a time: the array and the scalar residuals
can differ in the last bits, so batching them would move the roots.

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
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .distributions import UNIFORM, TypeDistribution
from .errors import BracketingError, NonUniqueThreshold
from .numerics import bisect_root, is_finite, is_number, sign_change_brackets

# Grid density of the root-existence scan used both for bracketing and
# for the uniqueness check. The scan returns the brackets of all of its
# points but evaluates the residual exactly only at the ends of its cells
# and inside the cells its bound cannot close (:func:`_scan_block`).
SCAN_POINTS = 10_000
# Grid steps per cell of the certified scan.
SCAN_CELL = 100
# Reserves of a grid whose cell scans one array pass takes together
# (:func:`reserve_grid`). A block's (32, 101) float arrays stay far below
# glibc's 128 KiB mmap threshold, which unblocked 200-row arrays cross.
SCAN_BLOCK = 32

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

    A scalar ``r`` (the bisection's) is taken as a Python float and an
    array ``r`` (the uniqueness scan's) as a float array; one expression
    serves both, ``((comb * mass**n) * surv**(k-1-n)) * (c-r) / (n+1)``
    per term, so both run the same IEEE operations in the same order,
    but not the same ``**``: Python floats call the libm ``pow``, while
    ``np.power`` may run a SIMD pow (numpy 2.4 does on AVX-512) that is
    1 ulp off ``pow`` for some bases, even at exponent 2 or 3. So the two
    can differ in the last bits; the scan and the bisection share the
    residual's sign away from the root, not its bits.
    """
    k = cfg.k
    r = float(r) if isinstance(r, float) or np.ndim(r) == 0 else np.asarray(r, dtype=float)
    fr = cfg.dist.cdf(r)
    surv = 1.0 - fr
    mass = fr - f_floor
    gap = c - r
    total = (c - cfg.externality_share * r) * surv ** (k - 1)
    for n in range(1, k):
        total = total + math.comb(k - 1, n) * mass**n * surv ** (k - 1 - n) * gap / (n + 1)
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


def _cell_bounds(cfg: SellerMarket, c, ends: np.ndarray, f_floor):
    """``(low, high)``, arrays with one entry per cell between consecutive
    scan points along the last axis of ``ends``: the array residual at
    every scan grid point of the cell, times ``k``, lies in
    ``[low, high]``. An entry may be NaN or infinite, where the bound
    overflows. ``c`` and ``f_floor`` are floats, or columns with one
    row per row of ``ends``.

    The bound. With ``s = 1 - F(r)``, ``S0 = 1 - f_floor`` and
    ``Q(s) = sum(S0**j * s**(k-1-j) for j < k)``, the mass is
    ``F(r) - f_floor = S0 - s``, and ``C(k-1, n)/(n+1) = C(k, n+1)/k``
    sums the residual's terms to
    ``k R(r) = (1 - eta) r s**(k-1) + (c - r) Q(s)``. On the scan
    ``r >= c``, so the first term grows with ``r`` and ``s`` and the
    second falls with both. On a cell ``[a, b]`` with ``s`` in
    ``[s_lo, s_hi]``, ``k R`` lies in
    ``[(1-eta) a s_lo**(k-1) + (c-b) Q(s_hi), (1-eta) b s_hi**(k-1) + (c-a) Q(s_lo)]``.
    Two margins make it hold for the residual that the array path
    computes at every grid point of the cell (``u = 2**-53``):

    * The cdf margin ``d``: ``s_hi = 1 - F(a) + d`` and
      ``s_lo = max(1 - F(b) - d, 0)``, from the float cdf at the ends.
      The float cdf is monotone but for ``_erf``: the steps before it
      and ``((z + 1) * 0.5 - phi_lo) / mass`` after it are correctly
      rounded monotone maps. With erf's absolute error at most ``E``,
      ``F(x) - F(y) <= (E + 4.2u) / mass + 2u`` for ``x < y``, and
      ``1 - F`` rounds by ``u`` more. Cephes documents peak relative
      errors of 3.7e-16 for erf below 1 and 5.7e-14 for erfc, which is
      below 0.16 past 1, so ``E < 1e-14`` and ``d = 2**-45 / mass``
      covers the wobble with a factor above 2. The uniform law's float
      cdf is monotone; it takes the same ``d`` with ``mass = 1``.
    * The rounding margin ``rho M + tau (c + b)``. Each of the array
      residual's k terms carries two pows (numpy's SIMD pow is within
      1 ulp; counted as 4 units each), the rounding of its mass and
      survival raised to ``n`` and ``k-1-n`` (``k - 1`` units) and six
      more roundings; its running sum adds ``k - 1`` units of the
      terms' magnitudes, which add up to at most ``M / k`` with
      ``M = k s_hi**(k-1) (c + b) + (b - c) max(Q(s_hi), k s_hi**(k-1))``
      (a mass below 0 by the cdf's wobble makes ``|mass| + s <= s``,
      hence the max). The bound's own evaluation is within
      ``(3k + 10) u M``. Twice the first-order total of
      ``(5k + 22) u M`` is within ``rho = (16k + 64) u``. A result
      below the normal range is off by up to ``4 * 2**-1074`` instead,
      which later factors scale by at most ``C(k-1, n) <= 2**(k-1)``
      and ``c + b``, over at most 8 steps in each of k terms; for
      ``k R`` that is ``tau = 32 k**2 2**(k - 1075)``.
    """
    k, eta, dist = cfg.k, cfg.eta_apo, cfg.dist
    surv = np.subtract(1.0, dist.cdf(ends))
    d = 2.0**-45 / (1.0 if dist.kind == UNIFORM else dist._mass)
    s = np.empty((2, *surv.shape[:-1], surv.shape[-1] - 1))
    np.maximum(np.subtract(surv[..., 1:], d, out=s[0]), 0.0, out=s[0])
    np.add(surv[..., :-1], d, out=s[1])
    p = np.power(s, k - 1)
    # S0**j by libm pow on Python floats, as for a float floor: numpy's
    # SIMD pow may be 1 ulp off it.
    s0 = [1.0 - f for f in np.ravel(f_floor).tolist()]
    q = np.ones_like(s)
    for j in range(1, k):
        q *= s
        q += np.reshape([v**j for v in s0], np.shape(f_floor))
    a, b = ends[..., :-1], ends[..., 1:]
    with np.errstate(all="ignore"):
        lower = (1.0 - eta) * a * p[0] + (c - b) * q[1]
        upper = (1.0 - eta) * b * p[1] + (c - a) * q[0]
        mag = k * p[1] * (c + b) + (b - c) * np.maximum(q[1], k * p[1])
        margin = (16 * k + 64) * 2.0**-53 * mag + math.ldexp(32.0 * k * k, k - 1075) * (c + b)
        return lower - margin, upper + margin


def _scan_points(lo, r_max: float, idx):
    """``np.linspace(lo, r_max, SCAN_POINTS)[idx]``, bit for bit, without
    building the grid: ``idx * step + lo`` (``idx / div * delta + lo``
    where the step underflows to 0, as numpy does), and ``r_max`` at the
    last index. ``lo`` and the float indices ``idx`` broadcast."""
    div = SCAN_POINTS - 1
    delta = np.subtract(r_max, lo)
    step = delta / div
    xs = np.where(step == 0.0, idx / div * delta, idx * step)
    xs += lo
    return np.where(idx == div, r_max, xs)


# Scan grid indices of the cell ends.
_CELL_ENDS = np.append(np.arange(0.0, SCAN_POINTS - 1, SCAN_CELL), SCAN_POINTS - 1)
_CELL_ENDS.setflags(write=False)


def _scan_block(cfg: SellerMarket, cs: list[float]) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """The certified cell scan of the mid and standard reserves ``cs`` in
    one array pass: for each reserve, the maximal runs of open cells of
    its scan grid as ascending ``(points, residuals)`` pairs.

    With ``c`` and the floor as columns, the cell ends of every reserve
    are one ``(len(cs), 101)`` residual call and one :func:`_cell_bounds`
    call. A cell is closed when its bound interval excludes 0 and the
    exact residuals at both its ends have the interval's sign; a NaN
    bound or residual closes nothing. A closed cell holds no zero or sign
    change, and neighbouring closed cells share an end and so a sign, so
    each bracket of the full scan lies in a run of open cells. The runs
    of every reserve are one more residual call. A grid point's array
    residual depends neither on the array around it nor on the other
    rows, so these are the full scan's bits.
    """
    dist, div = cfg.dist, SCAN_POINTS - 1
    c = np.array(cs)[:, None]
    lo = np.maximum(c, dist.r_min)
    f_floor = dist.cdf(lo)
    ends = _scan_points(lo, dist.r_max, _CELL_ENDS)
    y = _threshold_residual(cfg, c, ends, f_floor)
    low, high = _cell_bounds(cfg, c, ends, f_floor)
    positive, negative = y > 0.0, y < 0.0
    closed = (low > 0.0) & positive[:, :-1] & positive[:, 1:]
    closed |= (high < 0.0) & negative[:, :-1] & negative[:, 1:]
    runs = []  # [row, first grid index, last grid index]
    for row, j in zip(*(a.tolist() for a in np.nonzero(~closed))):
        if runs and runs[-1][0] == row and runs[-1][2] == j * SCAN_CELL:
            runs[-1][2] = min((j + 1) * SCAN_CELL, div)
        else:
            runs.append([row, j * SCAN_CELL, min((j + 1) * SCAN_CELL, div)])
    out = [[] for _ in cs]
    if not runs:
        return out
    sizes = [i1 + 1 - i0 for _, i0, i1 in runs]
    idx = np.concatenate([np.arange(i0, i1 + 1.0) for _, i0, i1 in runs])
    rows = np.repeat([row for row, _, _ in runs], sizes)
    xs = _scan_points(lo[rows, 0], dist.r_max, idx)
    ys = _threshold_residual(cfg, c[rows, 0], xs, f_floor[rows, 0])
    start = 0
    for (row, _, _), size in zip(runs, sizes):
        out[row].append((xs[start:start + size], ys[start:start + size]))
        start += size
    return out


class _ReserveGrid:
    """The reserves of a grid whose threshold solves on ``sellers`` scan
    in blocks, and the open runs of the block reserves not yet solved."""

    def __init__(self, sellers: SellerMarket, reserves):
        self.sellers = sellers
        self.reserves = [float(c) for c in reserves]
        self.index = {c: i for i, c in enumerate(self.reserves)}
        self.scanned: dict[float, list] = {}

    def runs(self, cfg: SellerMarket, c: float):
        """The open runs of reserve ``c``: from the block that scanned it,
        or from a new block of ``c`` and the next ``SCAN_BLOCK - 1`` mid and
        standard reserves of the grid not yet scanned."""
        if cfg != self.sellers or c not in self.index:
            return _scan_block(cfg, [c])[0]
        if c in self.scanned:
            return self.scanned.pop(c)
        later = (x for x in self.reserves[self.index[c] + 1:] if x not in self.scanned
                 and classify_regime(cfg, x) in (RegimeKind.MID, RegimeKind.STANDARD))
        block = [c, *islice(later, SCAN_BLOCK - 1)]
        try:
            # A block that would warn, or raise, scans c alone: its row
            # then warns or raises as its own solve does.
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                scanned = _scan_block(cfg, block)
        except FloatingPointError:
            return _scan_block(cfg, [c])[0]
        self.scanned.update(zip(block[1:], scanned[1:]))
        return scanned[0]


_reserve_grid: ContextVar[_ReserveGrid | None] = ContextVar("reserve_grid", default=None)


@contextmanager
def reserve_grid(sellers: SellerMarket, reserves):
    """Scope in which the threshold solves of a grid of ``reserves`` on
    ``sellers`` scan in blocks. A solve of a grid reserve that misses the
    caches scans its cells together with those of the next
    ``SCAN_BLOCK - 1`` mid and standard reserves of the grid
    (:func:`_scan_block`); their solves take their brackets from that
    block. Each solve still checks its own endpoint signs, counts its
    own brackets and bisects on its own, so every root and every refusal
    is the one a solve outside the scope gives."""
    token = _reserve_grid.set(_ReserveGrid(sellers, reserves))
    try:
        yield
    finally:
        _reserve_grid.reset(token)


def _scan_brackets(cfg: SellerMarket, c: float) -> list[tuple[float, float]]:
    """``sign_change_brackets`` of the residual on reserve ``c``'s whole
    scan grid, from the open runs of its cell scan: zeros, then sign
    changes, each ascending. Inside :func:`reserve_grid` the scan is a
    block's; elsewhere it is a block of one."""
    grid = _reserve_grid.get()
    runs = _scan_block(cfg, [c])[0] if grid is None else grid.runs(cfg, c)
    zeros, crossings = [], []
    for xs, ys in runs:
        for bracket in sign_change_brackets(xs, ys):
            (zeros if bracket[0] == bracket[1] else crossings).append(bracket)
    return zeros + crossings


def _solve_threshold(cfg: SellerMarket, c: float) -> float:
    """Root of :func:`threshold_residual` on ``[max(c, r_min), r_max]``:
    sign check, uniqueness scan (:func:`_scan_brackets`), then
    bisection. The floor is computed once per solve. Raises
    NonUniqueThreshold when the scan finds several roots,
    BracketingError when the endpoint signs are wrong."""
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
    brackets = _scan_brackets(cfg, c)
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
