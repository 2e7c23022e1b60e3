"""The scalar paths of ``TypeDistribution.cdf`` and of the threshold
residual give the same bits as the array paths they replace.

A ``float`` argument runs the array path's IEEE operations in the same
order on Python floats. ``parent_residual`` below is the residual the
engine ran before: it sends a scalar through a 0-d array, as the solvers
did, and is kept as the reference for the residual and the solves. Its
``parent_standard`` and ``parent_mid`` forms are the two per-regime
residuals that the one ``threshold_residual`` replaced. ``buffered_residual``
is the array residual as the engine computed it before, in six reused
buffers, and is kept as the reference for the array residual's bits."""
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from spectrum_auction import MarketConfig, TypeDistribution
from spectrum_auction import equilibrium as eq
from spectrum_auction.cli import parse_market
from spectrum_auction.errors import (BracketingError, InvalidDistribution, NonUniqueThreshold,
                                     SpectrumAuctionError)
from spectrum_auction.numerics import bisect_root, sign_change_brackets
from spectrum_auction.presets import preset

LAWS = {
    "uniform[50,200]": TypeDistribution.uniform(50.0, 200.0),
    "uniform[0,100]": TypeDistribution.uniform(0.0, 100.0),
    "TN(125,50)": TypeDistribution.truncated_normal(125.0, 50.0, 50.0, 200.0),
    "TN(100,20)": TypeDistribution.truncated_normal(100.0, 20.0, 50.0, 200.0),
    "TN(10,30) on [0,100]": TypeDistribution.truncated_normal(10.0, 30.0, 0.0, 100.0),
}
SOLVE_LAWS = ["uniform[50,200]", "TN(125,50)", "TN(100,20)"]


def bits(x) -> bytes:
    return struct.pack("<d", x)


def parent_residual(cfg, c, r, f_floor):
    k = cfg.k
    fr = cfg.dist.cdf(np.asarray(r, dtype=float))
    r = np.asarray(r, dtype=float)
    surv = 1.0 - fr
    total = surv ** (k - 1) * (c - (k - 1 + cfg.eta_apo) / k * r)
    mass = fr - f_floor
    for n in range(1, k):
        total = total + (
            math.comb(k - 1, n) * mass**n * surv ** (k - 1 - n) * (c - r) / (n + 1)
        )
    return float(total) if np.ndim(total) == 0 else total


def buffered_residual(cfg, c, r, f_floor):
    """The array residual as the engine ran it before: the same
    operations computed in six reused buffers."""
    k = cfg.k
    r = np.asarray(r, dtype=float)
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


def parent_standard(cfg, c, r):
    return parent_residual(cfg, c, r, float(cfg.dist.cdf(np.asarray(c, dtype=float))))


def parent_mid(cfg, c, r):
    return parent_residual(cfg, c, r, 0.0)


def points(dist):
    """Support ends, points just inside and outside them, signed zeros
    and infinities."""
    lo, hi = dist.r_min, dist.r_max
    return [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
            math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf),
            lo - 1.0, hi + 1.0, 0.0, -0.0, -math.inf, math.inf]


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(LAWS)),
    x=st.one_of(st.floats(-500.0, 500.0), st.floats(allow_nan=False)),
    edge=st.integers(-1, 11),
    as_numpy=st.booleans(),
)
def test_scalar_cdf_is_the_array_cdf(name, x, edge, as_numpy):
    dist = LAWS[name]
    if edge >= 0:
        x = points(dist)[edge]
    arg = np.float64(x) if as_numpy else x
    got = dist.cdf(arg)
    assert type(got) is float
    assert bits(got) == bits(dist.cdf(np.array([x]))[0])


@pytest.mark.parametrize("name", sorted(LAWS))
def test_scalar_cdf_is_the_array_cdf_on_random_points(name):
    # Hypothesis favours short floats, on which reordered divisions
    # often agree; random ones tell them apart.
    dist = LAWS[name]
    xs = np.random.default_rng(0).uniform(dist.r_min - 10.0, dist.r_max + 10.0, 5000)
    want = dist.cdf(xs)
    assert [bits(dist.cdf(x)) for x in xs.tolist()] == [bits(w) for w in want]


@pytest.mark.parametrize("name", sorted(LAWS))
@pytest.mark.parametrize("k", range(2, 8))
def test_scalar_residuals_are_the_parent_residuals(name, k):
    dist = LAWS[name]
    rng = np.random.default_rng(k)
    for eta in (0.05, 0.3, 0.9):
        cfg = MarketConfig(k, dist, eta, 0.4, 300.0)
        low_cap = cfg.low_regime_cap
        for f in (0.0, 0.2, 0.7):
            c_std = dist.r_min + f * dist.span
            c_mid = low_cap + (f + 0.1) * (dist.r_min - low_cap)
            for c, old, lo in ((c_std, parent_standard, c_std), (c_mid, parent_mid, dist.r_min)):
                rs = [lo, dist.r_max, *rng.uniform(lo, dist.r_max, 40).tolist()]
                for r in rs:
                    got = eq.threshold_residual(cfg.sellers, c, r)
                    assert type(got) is float
                    assert bits(got) == bits(old(cfg, c, r))


@pytest.mark.parametrize("name", sorted(LAWS))
@pytest.mark.parametrize("k", range(2, 10))
def test_array_residuals_are_the_buffered_residuals(name, k):
    """The one residual expression gives the six-buffer array body's bits
    on a solve's whole scan grid and on its cell ends: an array ``**``
    that is not ``np.power`` (``np.square`` at 2, say) would show here."""
    dist = LAWS[name]
    sellers = eq.SellerMarket(k, dist, 0.3)
    reserves = [dist.r_min + 0.3 * dist.span]
    if dist.r_min > 0.0:
        reserves.append(0.5 * (sellers.low_regime_cap + dist.r_min))
    for c in reserves:
        lo = max(c, dist.r_min)
        f_floor = float(dist.cdf(lo))
        xs = np.linspace(lo, dist.r_max, eq.SCAN_POINTS)
        ends = np.append(xs[:-1:eq.SCAN_CELL], xs[-1])
        for grid in (xs, ends):
            got = eq._threshold_residual(sellers, c, grid, f_floor)
            assert got.tobytes() == buffered_residual(sellers, c, grid, f_floor).tobytes()


def solve_outcome(solver, sellers, c):
    try:
        return bits(solver(sellers, c))
    except SpectrumAuctionError as exc:
        return type(exc)


def solve_grid():
    for name in SOLVE_LAWS:
        dist = LAWS[name]
        for k in (2, 3, 5, 7):
            for eta in (0.1, 0.5, 0.9):
                low_cap = (k - 1 + eta) / k * dist.r_min
                for f in (0.01, 0.3, 0.8):
                    yield name, k, eta, "standard", dist.r_min + f * dist.span
                    yield name, k, eta, "mid", low_cap + f * (dist.r_min - low_cap)


def test_threshold_solves_are_the_parent_solves(monkeypatch):
    solvers = {"standard": eq.solve_threshold_standard, "mid": eq.solve_threshold_mid}
    cases = [(eq.SellerMarket(k, LAWS[name], eta), kind, c)
             for name, k, eta, kind, c in solve_grid()]

    def run():
        for solver in solvers.values():
            solver.cache_clear()
        out = [solve_outcome(solvers[kind], sellers, c) for sellers, kind, c in cases]
        for solver in solvers.values():
            solver.cache_clear()
        return out

    got = run()
    monkeypatch.setattr(eq, "_threshold_residual", parent_residual)
    want = run()
    assert sum(isinstance(g, bytes) for g in got) > len(cases) // 2
    assert got == want


# ---------------------------------------------------------------------------
# A solve computes its floor F(max(c, r_min)) once, not in every residual
# ---------------------------------------------------------------------------


def parent_solve(sellers, c, lo, residual):
    """The solve as the engine ran it before: every evaluation goes
    through a per-regime residual, which computes its floor anew."""
    r_max = sellers.dist.r_max

    def f(r):
        return residual(sellers, c, r)

    if not (f(lo) > 0.0 and f(r_max) < 0.0):
        raise BracketingError("endpoint signs")
    xs = np.linspace(lo, r_max, eq.SCAN_POINTS)
    brackets = sign_change_brackets(xs, f(xs))
    if len(brackets) != 1:
        raise NonUniqueThreshold("root count")
    b_lo, b_hi = brackets[0]
    if b_lo == b_hi:
        return b_lo
    return bisect_root(f, b_lo, b_hi, width_tol=1e-12 * r_max, residual_tol=1e-9 * r_max)


def parent_outcome(sellers, c, lo, residual):
    try:
        return bits(parent_solve(sellers, c, lo, residual))
    except SpectrumAuctionError as exc:
        return type(exc)


@pytest.mark.parametrize("name", ["fig4", "fig8", "appendixK"])
def test_threshold_bits_unchanged_on_preset_reserve_grids(name):
    sellers = parse_market(preset(name)).sellers
    dist = sellers.dist
    standard = np.linspace(dist.r_min, dist.r_max, 41)[:-1].tolist()
    mid = np.linspace(sellers.low_regime_cap, dist.r_min, 12)[1:-1].tolist()
    for solver in (eq.solve_threshold_standard, eq.solve_threshold_mid):
        solver.cache_clear()
    got = [solve_outcome(eq.solve_threshold_standard, sellers, c) for c in standard]
    got += [solve_outcome(eq.solve_threshold_mid, sellers, c) for c in mid]
    want = [parent_outcome(sellers, c, c, parent_standard) for c in standard]
    want += [parent_outcome(sellers, c, dist.r_min, parent_mid) for c in mid]
    assert sum(isinstance(w, bytes) for w in want) == len(want)
    assert got == want


@pytest.mark.parametrize("kind, c", [("standard", 120.0), ("standard", 57.5), ("mid", 49.0)])
def test_a_solve_makes_one_scalar_cdf_call_for_the_floor(monkeypatch, kind, c):
    """Every scalar residual takes F(r); the floor F(max(c, r_min)) is
    taken once per solve on top of them, in both regimes."""
    sellers = eq.SellerMarket(4, LAWS["TN(125,50)"], 0.3)
    solver = {"standard": eq.solve_threshold_standard, "mid": eq.solve_threshold_mid}[kind]
    cdf_args, residual_args = [], []
    cdf, residual = TypeDistribution.cdf, eq._threshold_residual

    def counting_cdf(self, r):
        if isinstance(r, float):
            cdf_args.append(r)
        return cdf(self, r)

    def counting_residual(cfg, c, r, f_floor):
        if isinstance(r, float):
            residual_args.append(r)
        return residual(cfg, c, r, f_floor)

    monkeypatch.setattr(TypeDistribution, "cdf", counting_cdf)
    monkeypatch.setattr(eq, "_threshold_residual", counting_residual)
    solver.cache_clear()
    solver(sellers, c)
    solver.cache_clear()
    assert len(residual_args) > 10
    assert len(cdf_args) == len(residual_args) + 1
    assert cdf_args[0] == max(c, sellers.dist.r_min)


# ---------------------------------------------------------------------------
# The mid and standard regimes are one solve, and the strategy's cutoff is it
# ---------------------------------------------------------------------------

MERGED_LAWS = {
    **{name: LAWS[name] for name in SOLVE_LAWS},
    "TN(0.5,0.4) on [0.1,1.37]": TypeDistribution.truncated_normal(0.5, 0.4, 0.1, 1.37),
}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(MERGED_LAWS)),
    k=st.integers(2, 7),
    eta=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
    standard=st.booleans(),
    frac=st.floats(0.0, 1.0, exclude_max=True),
)
def test_the_cutoff_is_the_regime_solvers_root(name, k, eta, standard, frac):
    """F is exactly 0 at r_min, so the mid regime's floor is the one
    equation's F(max(c, r_min)); the strategy's cutoff is its regime's
    root, and a standard root is never below c."""
    dist = MERGED_LAWS[name]
    assert bits(dist.cdf(dist.r_min)) == bits(0.0)
    sellers = eq.SellerMarket(k, dist, eta)
    if standard:
        kind, solver = eq.RegimeKind.STANDARD, eq.solve_threshold_standard
        c = dist.r_min + frac * dist.span
    else:
        kind, solver = eq.RegimeKind.MID, eq.solve_threshold_mid
        c = sellers.low_regime_cap + frac * (dist.r_min - sellers.low_regime_cap)
    assume(eq.classify_regime(sellers, c) is kind)
    try:
        root = solver(sellers, c)
    except SpectrumAuctionError as exc:
        with pytest.raises(type(exc)):
            eq.solve_strategy(sellers, c)
        return
    strategy = eq.solve_strategy(sellers, c)
    assert (strategy.regime, strategy.c) == (kind, c)
    assert bits(strategy.cutoff) == bits(root)
    if standard:
        assert root >= c


# ---------------------------------------------------------------------------
# The certified cell scan returns the full scan's brackets
# ---------------------------------------------------------------------------

CELL = eq.SCAN_CELL
SUPPORTS = [(50.0, 200.0), (0.0, 100.0), (0.1, 1.37)]


def outcome(run):
    """A root's bits, a bracket list, or the type of the error raised."""
    try:
        value = run()
    except (SpectrumAuctionError, ArithmeticError, ValueError) as exc:
        return type(exc)
    return bits(value) if isinstance(value, float) else value


@st.composite
def scan_markets(draw):
    """A seller market and a mid or standard reserve: k from 2 to 9, a
    uniform or truncated-normal law (mu up to 8 sigma outside the support,
    sigma from 1e-2 to 10 spans), eta near 0 or near 1."""
    k = draw(st.integers(2, 9))
    r_min, r_max = draw(st.sampled_from(SUPPORTS))
    span = r_max - r_min
    if draw(st.booleans()):
        dist = TypeDistribution.uniform(r_min, r_max)
    else:
        sigma = span * 10.0 ** draw(st.floats(-2.0, 1.0))
        side = draw(st.sampled_from(["below", "inside", "above"]))
        if side == "inside":
            mu = r_min + span * draw(st.floats(0.0, 1.0))
        else:
            z = draw(st.floats(1.0, 8.0))
            mu = r_min - z * sigma if side == "below" else r_max + z * sigma
        try:
            dist = TypeDistribution.truncated_normal(mu, sigma, r_min, r_max)
        except InvalidDistribution:
            assume(False)
    eta = draw(st.one_of(st.floats(1e-6, 0.05), st.floats(0.95, 1.0 - 1e-6)))
    sellers = eq.SellerMarket(k, dist, eta)
    frac = draw(st.floats(0.0, 1.0, exclude_max=True))
    if draw(st.booleans()):
        c = r_min + frac * span
    else:
        c = sellers.low_regime_cap + frac * (r_min - sellers.low_regime_cap)
    assume(eq.classify_regime(sellers, c) in (eq.RegimeKind.MID, eq.RegimeKind.STANDARD))
    return sellers, c


@seed(26)
@settings(max_examples=400, deadline=None, database=None)
@given(market=scan_markets())
def test_the_cell_scan_is_the_full_scan(market):
    """Same root bits or the same refusal as the 10 000-point scan, the
    same brackets, and a sound bound: ``k`` times the array residual at
    every grid point of a cell lies in the cell's interval, so every cell
    the scan closes keeps the sign it claims."""
    sellers, c = market
    lo = max(c, sellers.dist.r_min)
    want = outcome(lambda: parent_solve(sellers, c, lo, eq.threshold_residual))
    assert outcome(lambda: eq._solve_threshold(sellers, c)) == want

    f_floor = float(sellers.dist.cdf(lo))
    xs = np.linspace(lo, sellers.dist.r_max, eq.SCAN_POINTS)
    ends = np.append(np.arange(0, eq.SCAN_POINTS - 1, CELL), eq.SCAN_POINTS - 1)
    with np.errstate(all="ignore"):
        ys = eq._threshold_residual(sellers, c, xs, f_floor)
        low, high = eq._cell_bounds(sellers, c, xs[ends], f_floor)
        got = outcome(lambda: eq._scan_brackets(sellers, c, xs, f_floor))
    assert got == outcome(lambda: sign_change_brackets(xs, ys))
    y_ends = ys[ends]
    for j in range(ends.size - 1):
        cell = sellers.k * ys[j * CELL:(j + 1) * CELL + 1]
        assert not ((cell < low[j]).any() or (cell > high[j]).any())
        if low[j] > 0.0 and (y_ends[j:j + 2] > 0.0).all():
            assert (cell > 0.0).all()
        if high[j] < 0.0 and (y_ends[j:j + 2] < 0.0).all():
            assert (cell < 0.0).all()


@pytest.mark.parametrize("name", sorted(LAWS))
@pytest.mark.parametrize("k", range(2, 10))
def test_a_slice_of_the_grid_has_the_full_grids_bits(name, k):
    """The open cells and the cell ends are scanned apart from the rest of
    the grid: their residuals must not depend on the array around them
    (numpy's SIMD pow on a short tail, ``_erf``'s loop at 32 points or
    fewer)."""
    dist = LAWS[name]
    sellers = eq.SellerMarket(k, dist, 0.3)
    reserves = [dist.r_min + 0.3 * dist.span]
    if dist.r_min > 0.0:
        reserves.append(0.5 * (sellers.low_regime_cap + dist.r_min))
    for c in reserves:
        lo = max(c, dist.r_min)
        f_floor = float(dist.cdf(lo))
        xs = np.linspace(lo, dist.r_max, eq.SCAN_POINTS)
        full = eq._threshold_residual(sellers, c, xs, f_floor)
        for n in (1, 32, 33, 101, 201):
            for start in (0, 1, 4321, eq.SCAN_POINTS - n):
                part = eq._threshold_residual(sellers, c, xs[start:start + n], f_floor)
                assert part.tobytes() == full[start:start + n].tobytes()
        ends = np.append(np.arange(0, eq.SCAN_POINTS - 1, CELL), eq.SCAN_POINTS - 1)
        coarse = eq._threshold_residual(sellers, c, xs[ends], f_floor)
        assert coarse.tobytes() == full[ends].tobytes()


def test_a_coarse_residual_against_the_bound_opens_its_cells(monkeypatch):
    """A residual that the bound cannot see, negated at one cell end far
    from the root: the scan opens both cells at that end and refuses, as
    the full scan does."""
    sellers, c = eq.SellerMarket(4, LAWS["TN(125,50)"], 0.3), 120.0
    lo, r_max = c, sellers.dist.r_max
    xs = np.linspace(lo, r_max, eq.SCAN_POINTS)
    j = 10 if eq._solve_threshold(sellers, c) > 0.5 * (lo + r_max) else 90
    target = xs[j * CELL]
    residual, scanned = eq._threshold_residual, []

    def flipped(cfg, c, r, f_floor):
        out = residual(cfg, c, r, f_floor)
        if isinstance(out, np.ndarray):
            scanned.append(r.copy())
            out = np.where(r == target, -out, out)
        return out

    monkeypatch.setattr(eq, "_threshold_residual", flipped)
    with pytest.raises(NonUniqueThreshold):
        eq._solve_threshold(sellers, c)
    assert scanned[0].size == eq.SCAN_POINTS // CELL + 1
    assert np.isin(xs[(j - 1) * CELL:(j + 1) * CELL + 1], np.concatenate(scanned[1:])).all()
    with pytest.raises(NonUniqueThreshold):
        parent_solve(sellers, c, lo, eq.threshold_residual)
