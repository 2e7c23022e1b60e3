"""The scalar paths of ``TypeDistribution.cdf`` and of the threshold
residuals give the same bits as the array paths they replace.

A ``float`` argument runs the array path's IEEE operations in the same
order on Python floats. ``parent_residual`` below is the residual the
engine ran before: it sends a scalar through a 0-d array, as the solvers
did, and is kept as the reference for the residuals and the solves."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import MarketConfig, TypeDistribution
from spectrum_auction import equilibrium as eq
from spectrum_auction.cli import parse_market
from spectrum_auction.errors import BracketingError, NonUniqueThreshold, SpectrumAuctionError
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
            for c, new, old, lo in (
                (c_std, eq.threshold_residual_standard, parent_standard, c_std),
                (c_mid, eq.threshold_residual_mid, parent_mid, dist.r_min),
            ):
                rs = [lo, dist.r_max, *rng.uniform(lo, dist.r_max, 40).tolist()]
                for r in rs:
                    got = new(cfg.sellers, c, r)
                    assert type(got) is float
                    assert bits(got) == bits(old(cfg, c, r))


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
# A solve computes the standard regime's F(c) once, not in every residual
# ---------------------------------------------------------------------------


def parent_solve(sellers, c, lo, residual):
    """The solve as the engine ran it before: every evaluation goes
    through the public residual, which computes F(c) anew."""
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
    want = [parent_outcome(sellers, c, c, eq.threshold_residual_standard) for c in standard]
    want += [parent_outcome(sellers, c, dist.r_min, eq.threshold_residual_mid) for c in mid]
    assert sum(isinstance(w, bytes) for w in want) == len(want)
    assert got == want


@pytest.mark.parametrize("kind, c", [("standard", 120.0), ("standard", 57.5), ("mid", 49.0)])
def test_a_solve_makes_one_scalar_cdf_call_for_the_floor(monkeypatch, kind, c):
    """Every scalar residual takes F(r); the standard regime's F(c) is
    taken once per solve on top of them, and the mid regime has none."""
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
    floors = 1 if kind == "standard" else 0
    assert len(cdf_args) == len(residual_args) + floors
    if floors:
        assert cdf_args[0] == c
