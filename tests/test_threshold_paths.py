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
import warnings

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
def scan_sellers(draw):
    """A seller market: k from 2 to 9, a uniform or truncated-normal law
    (mu up to 8 sigma outside the support, sigma from 1e-2 to 10 spans),
    eta near 0 or near 1."""
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
    return eq.SellerMarket(k, dist, eta)


@st.composite
def scan_markets(draw):
    """A seller market of :func:`scan_sellers` and a mid or standard
    reserve."""
    sellers = draw(scan_sellers())
    r_min, span = sellers.dist.r_min, sellers.dist.span
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
        got = outcome(lambda: eq._scan_brackets(sellers, c))
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


# ---------------------------------------------------------------------------
# A grid's solves scan in blocks of reserves, for the same roots and refusals
# ---------------------------------------------------------------------------


def clear_solve_caches():
    for cache in (eq.solve_threshold_standard, eq.solve_threshold_mid, eq.solve_strategy):
        cache.cache_clear()


def mixed_reserves(sellers, size, rng):
    """``size`` reserves, each drawn from one of the four regimes."""
    dist, cap = sellers.dist, sellers.low_regime_cap
    regimes = [(0.0, cap), (cap, dist.r_min), (dist.r_min, dist.r_max),
               (dist.r_max, dist.r_max + dist.span)]
    return [float(rng.uniform(*regimes[i])) for i in rng.integers(0, 4, size).tolist()]


@seed(28)
@settings(max_examples=100, deadline=None, database=None)
@given(sellers=scan_sellers(), size=st.sampled_from([1, 2, 31, 32, 33, 200]),
       mix=st.integers(0, 2**32 - 1))
def test_block_solves_are_the_parent_and_lone_solves(sellers, size, mix):
    """Each reserve of a grid solved inside ``reserve_grid`` has the root
    bits or the refusal of ``parent_solve`` and of its own solve outside
    the grid, whatever regimes its neighbours lie in and whichever of
    them refuse."""
    reserves = mixed_reserves(sellers, size, np.random.default_rng(mix))

    def cutoff(c):
        return outcome(lambda: eq.solve_strategy(sellers, c).cutoff)

    clear_solve_caches()
    with eq.reserve_grid(sellers, reserves):
        got = [cutoff(c) for c in reserves]
    clear_solve_caches()
    alone = [cutoff(c) for c in reserves]
    clear_solve_caches()
    assert got == alone
    for c, g in zip(reserves, got):
        if eq.classify_regime(sellers, c) in (eq.RegimeKind.MID, eq.RegimeKind.STANDARD):
            lo = max(c, sellers.dist.r_min)
            assert g == outcome(lambda: parent_solve(sellers, c, lo, eq.threshold_residual))


@pytest.mark.parametrize("name", sorted(LAWS))
@pytest.mark.parametrize("k", range(2, 10))
def test_block_residual_rows_are_the_1d_residuals(name, k):
    """A ``(B, m)`` block with ``c`` and the floor as columns, and the
    gathered 1-D call with them as vectors, have each row's own bits: the
    residual, the floor and the cell bounds."""
    dist = LAWS[name]
    sellers = eq.SellerMarket(k, dist, 0.3)
    rng = np.random.default_rng(k)
    cs = rng.uniform(dist.r_min, dist.r_max, 12).tolist()
    if dist.r_min > 0.0:
        cs += rng.uniform(sellers.low_regime_cap, dist.r_min, 5).tolist()
    c = np.array(cs)[:, None]
    lo = np.maximum(c, dist.r_min)
    f_floor = dist.cdf(lo)
    ends = eq._scan_points(lo, dist.r_max, eq._CELL_ENDS)
    spread = lo + rng.random((len(cs), 257)) * (dist.r_max - lo)
    low, high = eq._cell_bounds(sellers, c, ends, f_floor)
    for grid in (ends, spread):
        block = eq._threshold_residual(sellers, c, grid, f_floor)
        m = grid.shape[1]
        gathered = eq._threshold_residual(sellers, np.repeat(cs, m), grid.ravel(),
                                          np.repeat(f_floor, m))
        assert gathered.tobytes() == block.tobytes()
        for i, ci in enumerate(cs):
            f = float(dist.cdf(max(ci, dist.r_min)))
            assert bits(f) == bits(f_floor[i, 0])
            row = eq._threshold_residual(sellers, ci, grid[i], f)
            assert block[i].tobytes() == row.tobytes()
    for i, ci in enumerate(cs):
        row_low, row_high = eq._cell_bounds(sellers, ci, ends[i], float(f_floor[i, 0]))
        assert (low[i].tobytes(), high[i].tobytes()) == (row_low.tobytes(), row_high.tobytes())


@pytest.mark.parametrize("lo, r_max", [
    (50.0, 200.0), (57.3, 200.0), (0.0, 100.0), (0.1, 1.37), (0.37, 1.37),
    (math.nextafter(200.0, 0.0), 200.0), (199.9, 1e297),
    (0.0, 1e-320),  # the step underflows to 0
    (0.0, 3e-320),
])
def test_scan_points_are_linspace_bits(lo, r_max):
    """Every grid point, built alone or in a column of reserves, has
    ``np.linspace``'s bits."""
    idx = np.arange(float(eq.SCAN_POINTS))
    want = np.linspace(lo, r_max, eq.SCAN_POINTS)
    assert eq._scan_points(lo, r_max, idx).tobytes() == want.tobytes()
    los = np.array([[lo], [0.5 * (lo + r_max)], [lo]])
    rows = eq._scan_points(los, r_max, idx)
    for row, row_lo in zip(rows, los[:, 0].tolist()):
        assert row.tobytes() == np.linspace(row_lo, r_max, eq.SCAN_POINTS).tobytes()
    assert eq._scan_points(lo, r_max, eq._CELL_ENDS).tobytes() == want[
        eq._CELL_ENDS.astype(int)].tobytes()


def fig8_market(r_lte):
    return MarketConfig(4, LAWS["TN(125,50)"], 0.3, 0.4, r_lte)


@pytest.mark.parametrize("j", [32, 40])
def test_a_grid_refuses_at_the_first_refusing_reserve(monkeypatch, j):
    """Guard-grid reserve j has three roots and reserve j+1 a NaN scan,
    in one block (j = 40) or across two (j = 32): the optimizer raises the
    three-root refusal of reserve j's own solve, and the caches hold the
    reserves before j alone."""
    from spectrum_auction.provider import GUARD_POINTS, optimize_reserve

    cfg = fig8_market(280.0)
    sellers = cfg.sellers
    guard = np.linspace(cfg.low_regime_cap, cfg.dist.r_max, GUARD_POINTS).tolist()
    three, nan = guard[j], guard[j + 1]
    lo, r_max = max(three, cfg.dist.r_min), cfg.dist.r_max
    roots = [lo + f * (r_max - lo) for f in (0.2137, 0.5173, 0.8311)]
    residual = eq._threshold_residual

    def patched(cfg, c, r, f_floor):
        out = residual(cfg, c, r, f_floor)
        cubic = -(np.subtract(r, roots[0]) * (r - roots[1]) * (r - roots[2]))
        out = np.where(np.equal(c, three), cubic, out)
        if np.ndim(r):  # the scan's residual, not the endpoint checks'
            out = np.where(np.equal(c, nan), math.nan, out)
        return float(out) if np.ndim(out) == 0 else out

    monkeypatch.setattr(eq, "_threshold_residual", patched)
    clear_solve_caches()
    with pytest.raises(NonUniqueThreshold) as refusal:
        optimize_reserve(cfg)
    assert eq._reserve_grid.get() is None
    assert str(refusal.value) == f"threshold equation has 3 roots at c={three:.6g}; refusing"
    assert eq.solve_strategy.cache_info().currsize == j
    thresholds = (eq.solve_threshold_mid, eq.solve_threshold_standard)
    assert sum(f.cache_info().currsize for f in thresholds) == j - 1
    before = eq.solve_strategy.cache_info().hits
    for c in guard[:j]:
        eq.solve_strategy(sellers, c)
    assert eq.solve_strategy.cache_info().hits == before + j
    clear_solve_caches()
    with pytest.raises(NonUniqueThreshold) as alone:
        eq._solve_threshold(sellers, three)
    assert str(alone.value) == str(refusal.value)
    with pytest.raises(BracketingError, match="NaN residual on the root scan grid"):
        eq._solve_threshold(sellers, nan)


def test_a_block_that_would_warn_solves_each_reserve_as_its_own_solve(monkeypatch):
    """One reserve's scan overflows, so a block holding it would warn (or
    raise, with warnings as errors). With warnings as errors every
    reserve of the grid gives its own solve's outcome: the overflowing
    one raises its RuntimeWarning and the others their roots."""
    sellers = fig8_market(280.0).sellers
    grid = np.linspace(sellers.low_regime_cap, 199.0, 80).tolist()
    bad = grid[20]
    residual = eq._threshold_residual

    def overflowing(cfg, c, r, f_floor):
        out = residual(cfg, c, r, f_floor)
        if np.ndim(r):
            hit = np.broadcast_to(np.equal(c, bad), out.shape)
            if hit.any():
                out = out.copy()
                out[hit] = out[hit] * 1e308 * 1e308
        return out

    def outcomes():
        out = []
        for c in grid:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    out.append(bits(eq.solve_strategy(sellers, c).cutoff))
                except RuntimeWarning as exc:
                    out.append(str(exc))
        return out

    monkeypatch.setattr(eq, "_threshold_residual", overflowing)
    clear_solve_caches()
    with eq.reserve_grid(sellers, grid):
        got = outcomes()
    clear_solve_caches()
    assert got == outcomes()
    assert [i for i, g in enumerate(got) if isinstance(g, str)] == [20]
    assert "overflow" in got[20]
    clear_solve_caches()


def test_a_guard_grid_scans_its_misses_in_blocks(monkeypatch):
    """On fresh caches fig8's guard grid scans its 198 mid and standard
    reserves in blocks of ``SCAN_BLOCK``, every scanned reserve is solved,
    and golden section's reserves scan alone. A market with the same
    grid (r_lte 370 after 280) finds every grid solve cached and scans
    golden section's reserves alone."""
    from spectrum_auction.provider import optimize_reserve

    scan_block, solve = eq._scan_block, eq._solve_threshold
    blocks, solved = [], []
    monkeypatch.setattr(eq, "_scan_block", lambda cfg, cs: blocks.append(len(cs))
                        or scan_block(cfg, cs))
    monkeypatch.setattr(eq, "_solve_threshold", lambda cfg, c: solved.append(c)
                        or solve(cfg, c))
    clear_solve_caches()
    optimize_reserve(fig8_market(280.0))
    assert blocks[:7] == [eq.SCAN_BLOCK] * 6 + [198 - 6 * eq.SCAN_BLOCK]
    assert set(blocks[7:]) == {1}
    assert sum(blocks) == len(solved)
    blocks.clear(), solved.clear()
    optimize_reserve(fig8_market(370.0))
    assert blocks == [1] * len(solved)
    clear_solve_caches()
