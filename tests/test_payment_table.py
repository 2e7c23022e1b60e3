"""The cumulative payment table against the adaptive quadrature it
replaced, and a market's payoff as a pure function of the market and
the reserve."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import MarketConfig, RngStream, TypeDistribution
from spectrum_auction import equilibrium as eq
from spectrum_auction import provider
from spectrum_auction.numerics import CumulativeSimpson, simpson_with_doubling
from spectrum_auction.oracle import payments_for_types, sample_type_matrix
from spectrum_auction.provider import QUAD_START_PANELS, curve_point


def integrand(dist, k):
    """The second-lowest-type payment density over k(k-1), written apart
    from the engine's."""

    def g(r):
        fr = dist.cdf(r)
        return r * dist.pdf(r) * fr * (1.0 - fr) ** (k - 2)

    return g


def adaptive(dist, k, budget, hi):
    """The per-point quadrature the table replaced."""
    if hi <= dist.r_min:
        return 0.0
    return simpson_with_doubling(integrand(dist, k), dist.r_min, min(hi, dist.r_max),
                                 start_panels=QUAD_START_PANELS, budget=budget)


@st.composite
def laws(draw):
    r_min = draw(st.floats(0.0, 150.0))
    span = draw(st.floats(5.0, 300.0))
    if draw(st.booleans()):
        return TypeDistribution.uniform(r_min, r_min + span)
    mu = draw(st.floats(r_min - 0.5 * span, r_min + 1.5 * span))
    sigma = draw(st.floats(0.2 * span, 2.0 * span))
    return TypeDistribution.truncated_normal(mu, sigma, r_min, r_min + span)


@settings(max_examples=40, deadline=None)
@given(dist=laws(), k=st.integers(2, 7), r_lte=st.floats(1.0, 1000.0), data=st.data())
def test_table_matches_the_adaptive_quadrature_within_the_budget(dist, k, r_lte, data):
    """Reserves anywhere in [0, 1.2 r_max], and the support ends and an
    even node of the table with one ulp either side of each. At the node
    itself the table reads its prefix integral with no tail."""
    cfg = MarketConfig(k, dist, 0.3, 0.4, r_lte)
    budget = 1e-8 * r_lte / (k * (k - 1))
    table = provider._payment_table(dist, k, budget)
    j = data.draw(st.integers(1, len(table.nodes) - 2))
    node = float(table.nodes[j])
    assert table.integral(node) == table.prefix[j]
    cs = data.draw(st.lists(st.floats(0.0, 1.2 * dist.r_max), min_size=3, max_size=3))
    for x in (dist.r_min, dist.r_max, node):
        cs += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    for c in cs:
        got = provider._second_lowest_integral(cfg, c) / (k * (k - 1))
        assert abs(got - adaptive(dist, k, budget, c)) <= budget, c


def test_table_integral_is_exact_at_the_ends_of_the_support():
    table = CumulativeSimpson(lambda x: 3.0 * x * x, 0.0, 2.0, start_panels=8, budget=1e-12)
    assert table.integral(0.0) == table.integral(-1.0) == 0.0
    assert table.integral(2.0) == table.integral(5.0) == pytest.approx(8.0, rel=1e-14)
    assert table.integral(1.3) == pytest.approx(1.3**3, rel=1e-14)


@pytest.mark.parametrize("k", [2, 4, 7])
def test_every_even_node_reads_its_prefix_integral(k):
    dist = TypeDistribution.truncated_normal(125.0, 50.0, 50.0, 200.0)
    table = provider._payment_table(dist, k, 1e-8 * 370.0 / (k * (k - 1)))
    nodes, prefix = table.nodes.tolist(), table.prefix.tolist()
    assert [table.integral(x) for x in nodes] == prefix
    below = [table.integral(math.nextafter(x, -math.inf)) for x in nodes[1:]]
    assert below == pytest.approx(prefix[1:], rel=1e-12, abs=1e-15)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def clear_caches():
    provider._payment_table.cache_clear()
    for cache in (eq.solve_threshold_standard, eq.solve_threshold_mid, eq.solve_strategy):
        cache.cache_clear()


@pytest.mark.parametrize("dist", [TypeDistribution.truncated_normal(125.0, 50.0, 50.0, 200.0),
                                  TypeDistribution.uniform(50.0, 200.0)])
def test_a_payoff_does_not_depend_on_the_markets_evaluated_before_it(dist):
    market = MarketConfig(4, dist, 0.3, 0.4, 370.0)
    reserves = np.linspace(0.0, 220.0, 23).tolist()

    def points():
        out = []
        for c in reserves:
            p = curve_point(market, c)
            out.append((bits(p.expected_payoff), bits(p.expected_payment)))
        return out

    clear_caches()
    fresh = points()
    clear_caches()
    for r_lte in (30.0, 100.0, 190.0, 280.0, 371.0):
        for c in reserves:
            curve_point(MarketConfig(4, dist, 0.3, 0.4, r_lte), c)
    assert points() == fresh


@pytest.mark.parametrize("r_max, rows", [(1e6, 200_000), (1e297, 10_000)])
def test_a_wide_law_pays_what_the_monte_carlo_oracle_pays(r_max, rows):
    """TN(125, 50) over a support far wider than the law: the table spans
    the law's numerical support, so its grid cannot step over the mass.
    Over the whole of [50, 1e6] the table read 43.54 at c = 300 against
    the oracle's 116.74. Standard-regime reserves, as criterion 3 checks
    them, within 4 standard errors of one pool per law.

    Both sides use ``solve_strategy``'s cutoff, so a row checks the
    table's quadrature against the sampled payment of that strategy, not
    the strategy itself. On [50, 1e297] the threshold solve returns a
    cutoff near 3.7e284 where it should be about 71-165 (a defect of the
    threshold solve, still open), so no type abstains there: that row
    checks only the quadrature over a support as wide as a float
    allows. The 1e6 row checks a sound equilibrium."""
    dist = TypeDistribution.truncated_normal(125.0, 50.0, 50.0, r_max)
    cfg = MarketConfig(4, dist, 0.3, 0.4, 370.0)
    pool = sample_type_matrix(cfg, rows, RngStream(7, 0))
    for c in (60.0, 100.0, 150.0, 190.0, 300.0):
        assert eq.solve_strategy(cfg.sellers, c).regime is eq.RegimeKind.STANDARD
        pay = payments_for_types(cfg, c, pool)
        se = float(pay.std(ddof=1)) / math.sqrt(rows)
        assert abs(float(pay.mean()) - provider.expected_payment(cfg, c)) <= 4 * se + 1e-9, c
