"""Small numerical building blocks: bracketing, bisection, golden
section search, composite Simpson quadrature with a cumulative table
over it, a unimodality scan, and ``np.sum``'s row sum on floats."""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import BracketingError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def is_number(value) -> bool:
    """True for an int or a float; bools, text and every other value
    are not numbers. The one rule for reading real values from configs."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """True for a finite number; an int too large for a float is not
    finite (``math.isfinite`` raises ``OverflowError`` on it)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def row_sum(xs: Sequence[float]) -> float:
    """``np.sum`` of a row of floats, bit for bit. Below eight elements
    numpy adds left to right from 0.0, which this loop repeats on Python
    floats; from eight on its pairwise sum unrolls, so numpy runs it."""
    if len(xs) >= 8:
        return float(np.sum(xs))
    total = 0.0
    for x in xs:
        total += x
    return total


def sign_change_brackets(xs: np.ndarray, ys: np.ndarray) -> list[tuple[float, float]]:
    """Bracketing intervals for roots of a sampled continuous function.

    Returns one ``(lo, hi)`` pair per sign change between consecutive
    grid points; an exact zero at a grid point yields a degenerate
    ``(x, x)`` bracket. A NaN residual could hide a root, so any NaN
    raises BracketingError.
    """
    if np.isnan(ys).any():
        raise BracketingError("NaN residual on the root scan grid")
    signs = np.sign(ys)
    zeros = np.nonzero(signs == 0.0)[0]
    # adjacent points only: a crossing next to an exact grid zero is
    # already accounted for by the degenerate bracket
    crossings = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    return [(float(xs[i]), float(xs[i])) for i in zeros] + [
        (float(xs[i]), float(xs[i + 1])) for i in crossings
    ]


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    width_tol: float,
    residual_tol: float | None = None,
    max_iter: int = 200,
) -> float:
    """Bisection on a bracketing interval with f(lo) and f(hi) of
    opposite signs. Stops when the bracket is narrower than
    ``width_tol`` and, if given, the midpoint residual is below
    ``residual_tol``."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < width_tol and (residual_tol is None or abs(fm) < residual_tol):
            break
    return 0.5 * (lo + hi)


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, *, width_tol: float
) -> tuple[float, float]:
    """Maximize a unimodal function on [lo, hi].

    Returns ``(x, f(x))`` for the best point seen once the bracket is
    narrower than ``width_tol``.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > width_tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    if fc > fd:
        return c, fc
    return d, fd


def composite_simpson(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int
) -> float:
    """Composite Simpson rule with ``panels`` even subintervals.

    ``f`` must accept an ndarray of nodes.
    """
    if b <= a:
        return 0.0
    if panels % 2:
        panels += 1
    xs = np.linspace(a, b, panels + 1)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / panels
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def simpson_with_doubling(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    start_panels: int = 2048,
    budget: float = 1e-12,
    max_panels: int = 2**16,
) -> float:
    """Simpson quadrature with a panel-doubling error estimate.

    Doubles the panel count until the Richardson estimate
    ``|S_2n - S_n| / 15`` falls below ``budget``.
    """
    panels = start_panels
    coarse = composite_simpson(f, a, b, panels)
    while True:
        panels *= 2
        fine = composite_simpson(f, a, b, panels)
        if abs(fine - coarse) / 15.0 <= budget or panels >= max_panels:
            return fine
        coarse = fine


class CumulativeSimpson:
    """Composite Simpson integrals of ``f`` from ``a`` to every point of
    ``[a, b]``, read from one panel grid.

    The grid's panels double from ``start_panels``, through
    :func:`simpson_with_doubling`, until the Richardson estimate over the
    whole of ``[a, b]`` (with ``a < b``) meets ``budget`` or the count
    reaches that function's cap of 2**16. The table keeps the final
    grid's prefix integrals at its even nodes and is never refined
    afterwards, so an integral is a pure function of the table's
    arguments and its limit. ``f`` takes an ndarray of nodes to build
    the table and a float for the tails.
    """

    def __init__(self, f: Callable, a: float, b: float, *, start_panels: int, budget: float):
        final = []

        def sampled(xs):
            ys = np.asarray(f(xs), dtype=float)
            final[:] = xs, ys
            return ys

        simpson_with_doubling(sampled, a, b, start_panels=start_panels, budget=budget)
        xs, ys = final
        h = (b - a) / (len(xs) - 1)
        pairs = h / 3.0 * (ys[:-2:2] + 4.0 * ys[1::2] + ys[2::2])
        self.f, self.a, self.b = f, a, b
        self.nodes = xs[::2].copy()
        self.prefix = np.concatenate(([0.0], np.cumsum(pairs)))

    def integral(self, hi: float) -> float:
        """Integral from ``a`` to ``min(hi, b)``; 0 when ``hi <= a``.

        The prefix integral up to the last even node at or below the
        limit, plus a two-panel Simpson tail from that node to it.
        """
        if hi <= self.a:
            return 0.0
        hi = min(hi, self.b)
        j = int(np.searchsorted(self.nodes, hi, side="right")) - 1
        x = float(self.nodes[j])
        value = float(self.prefix[j])
        if x == hi:
            return value
        f = self.f
        return value + (hi - x) / 6.0 * (f(x) + 4.0 * f(0.5 * (x + hi)) + f(hi))


def has_interior_dip(values: Sequence[float], tol: float) -> bool:
    """True if the sequence falls by more than ``tol`` below a running
    peak and later rises by more than ``tol`` above the dip bottom,
    i.e. it has an interior local minimum beyond tolerance."""
    peak = values[0]
    dip_bottom: float | None = None
    for v in values[1:]:
        if dip_bottom is not None and v - dip_bottom > tol:
            return True
        if v > peak:
            peak = v
        elif peak - v > tol:
            dip_bottom = v if dip_bottom is None else min(dip_bottom, v)
    return False
