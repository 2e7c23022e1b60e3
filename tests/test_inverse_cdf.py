"""The truncated-normal inverse CDF equals plain bisection on ``cdf`` to
the bit.

The fast path jumps close to the answer with ``ndtri``, replays most
bisection steps without evaluating the cdf (as many as the support's
exact depth at once, as a grid cell), checks the bracket it reached
against the cdf, and sends every element that fails the check through
the plain bisection. ``plain_bisection`` below is the loop the
engine ran before, kept as the reference."""
import json
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spectrum_auction import InvalidDistribution, RngStream, TypeDistribution
from spectrum_auction.cli import main, parse_market
from spectrum_auction.distributions import _ERF_CHUNK
from spectrum_auction.oracle import sample_type_matrix
from spectrum_auction.presets import preset

EDGE_PROBABILITIES = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
FAR_TAIL_LAWS = [(300.0, 20.0, 50.0, 200.0), (-100.0, 15.0, 0.0, 60.0)]


def bisection_steps(span):
    """Steps until the bracket is at most 1e-12 wide: ``ceil(log2(span /
    1e-12))``, or, where that ratio overflows, the number of halvings
    (exact in floats) that bring ``span`` to 1e-12 or below."""
    ratio = span / 1e-12
    if math.isfinite(ratio):
        return int(math.ceil(math.log2(ratio)))
    steps = 0
    while span > 1e-12:
        span /= 2.0
        steps += 1
    return steps


def plain_bisection(dist, p):
    p = np.asarray(p, dtype=float)
    lo = np.full_like(p, dist.r_min, dtype=float)
    hi = np.full_like(p, dist.r_max, dtype=float)
    for _ in range(bisection_steps(dist.r_max - dist.r_min)):
        mid = 0.5 * (lo + hi)
        below = dist.cdf(mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    mismatched = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert mismatched.size == 0, (
        f"{mismatched.size} of {want.size} differ, first at {mismatched[:5]}: "
        f"{got.ravel()[mismatched[:5]].tolist()} vs {want.ravel()[mismatched[:5]].tolist()}"
    )


def normal_on(draw, r_min, r_max, sigma):
    # Up to 8 sigma outside the support: far tails where the float cdf
    # is a staircase and most elements take the fallback. Further out
    # the float mass is zero and the law is refused.
    mu = draw(st.floats(r_min - 8.0 * sigma, r_max + 8.0 * sigma))
    try:
        return TypeDistribution.truncated_normal(mu, sigma, r_min, r_max)
    except InvalidDistribution:
        assume(False)


@st.composite
def truncated_normals(draw, top=500.0):
    r_min = draw(st.floats(0.0, top))
    r_max = r_min + draw(st.floats(1e-3, top))
    return normal_on(draw, r_min, r_max, draw(st.floats(0.05, 0.6 * top)))


@st.composite
def dyadic_truncated_normals(draw):
    """Laws on ``[A * 2**e, B * 2**e]``, whose first bisection levels
    are exact: ``B`` of 1 to 53 bits puts the exact depth anywhere from
    52 down to 0."""
    e = draw(st.integers(-30, 10))
    b = draw(st.integers(1, 2 ** draw(st.integers(1, 53)) - 1))
    a = draw(st.integers(0, b - 1))
    r_min, r_max = math.ldexp(a, e), math.ldexp(b, e)
    return normal_on(draw, r_min, r_max, (r_max - r_min) * draw(st.floats(0.01, 10.0)))


probabilities = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(EDGE_PROBABILITIES),
    st.floats(0.0, 1e-6),
    st.floats(1.0 - 1e-6, 1.0),
)


@hypothesis.seed(101)  # the test's own 'seed' argument is the rng's
@given(dist=truncated_normals(), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(64,), (16, 3), (1,), (0,)]), extra=st.lists(probabilities, max_size=6))
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_arrays_match_plain_bisection(dist, seed, shape, extra):
    p = np.random.default_rng(seed).random(shape)
    if extra and p.size:
        flat = p.reshape(-1)
        flat[: len(extra)] = extra[: flat.size]
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))


@hypothesis.seed(102)  # the test's own 'seed' argument is the rng's
@given(dist=dyadic_truncated_normals(), seed=st.integers(0, 2**32 - 1),
       extra=st.lists(probabilities, max_size=6))
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_dyadic_supports_match_plain_bisection(dist, seed, extra):
    p = np.random.default_rng(seed).random(256)
    p[: len(extra)] = extra
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))


@hypothesis.seed(103)  # the test's own 'seed' argument is the rng's
@given(dist=truncated_normals(top=1e9), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_wide_supports_match_plain_bisection(dist, seed):
    p = np.random.default_rng(seed).random(2000)
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))


@pytest.mark.parametrize("law", [(0.0, 1e6, 0.0, 1e6), (5e6, 2e6, 0.0, 1e7)])
def test_wide_support_laws_match_plain_bisection(law):
    """Supports where a bracket a few ulps of ``r_max`` wide would pass
    the cdf check off bisection's path."""
    dist = TypeDistribution.truncated_normal(*law)
    p = RngStream(0, 0).uniforms(20_000)
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))


def test_a_support_much_narrower_than_sigma_matches_plain_bisection():
    """TN(555220, 504628) on [0, 1] has a mass of about 4.3e-7, so its
    float cdf wobbles by about 1e-10, more than the replayed bracket of
    2**-32: a replayed step decided ``mid < x`` where ``cdf(mid) < p``
    was false, and element 548 missed plain bisection's bits."""
    dist = TypeDistribution.truncated_normal(555220.0, 504628.0, 0.0, 1.0)
    p = np.random.default_rng(58).random(2000)
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))


# Supports whose span over 1e-12 overflows a float (above about 1.8e296).
OVERFLOWING_LAWS = [(125.0, 50.0, 50.0, 1e297), (125.0, 50.0, 0.0, 1e297)]


@pytest.mark.parametrize("law", OVERFLOWING_LAWS)
def test_overflowing_span_ratio_matches_plain_bisection(law):
    dist = TypeDistribution.truncated_normal(*law)
    assert dist._bisection_steps == bisection_steps(dist.span) == 1027
    p = RngStream(0, 0).uniforms(2000)
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))


@given(r_min=st.floats(0.0, 1e6), r_max=st.floats(1e-300, 1.8e296))
@settings(max_examples=300, deadline=None)
def test_finite_span_ratios_keep_their_step_count(r_min, r_max):
    assume(r_max > r_min)
    dist = TypeDistribution.uniform(r_min, r_max)
    ratio = dist.span / 1e-12
    assume(math.isfinite(ratio))
    assert dist._bisection_steps == int(math.ceil(math.log2(ratio)))


def test_cli_simulate_on_an_overflowing_span_ratio(tmp_path, capsys):
    mu, sigma, r_min, r_max = OVERFLOWING_LAWS[0]
    dist = {"kind": "truncated_normal", "mu": mu, "sigma": sigma, "r_min": r_min, "r_max": r_max}
    market = {"k": 4, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 95.0, "dist": dist}
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"market": market}))
    assert main(["simulate", "--config", str(config), "--replications", "200"]) == 0
    assert json.loads(capsys.readouterr().out)


def exact_tree_depth(r_min, r_max, cap):
    """Depth, up to ``cap``, to which every midpoint ``0.5 * (lo + hi)``
    of the bisection tree on ``[r_min, r_max]`` is exact."""
    nodes = np.array([r_min, r_max])
    with np.errstate(all="ignore"):
        for depth in range(1, cap + 1):
            a, b = nodes[:-1], nodes[1:]
            s = a + b
            # TwoSum: the rounding error of a + b, exactly
            b_part = s - a
            err = (a - (s - b_part)) + (b - b_part)
            mid = 0.5 * s
            if not (np.isfinite(s).all() and (err == 0.0).all() and (2.0 * mid == s).all()):
                return depth - 1
            nodes = np.insert(nodes, np.arange(1, nodes.size), mid)
    return cap


@pytest.mark.parametrize("support, depth", [((50.0, 200.0), 46), ((0.0, 60.0), 49), ((0.1, 1.37), 0)])
def test_exact_depth(support, depth):
    assert TypeDistribution.uniform(*support)._exact_depth == depth
    assert TypeDistribution.truncated_normal(125.0, 50.0, *support)._exact_depth == depth


@given(e=st.integers(-1100, 970), bits=st.integers(30, 53), data=st.data())
@settings(max_examples=100, deadline=None)
def test_exact_depth_never_exceeds_the_midpoint_tree(e, bits, data):
    b = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    a = data.draw(st.one_of(st.just(0), st.integers(0, b - 1)))
    r_min, r_max = math.ldexp(a, e), math.ldexp(b, e)
    assume(r_min < r_max)
    depth = TypeDistribution.uniform(r_min, r_max)._exact_depth
    assert 0 <= depth <= 52
    assert min(depth, 18) <= exact_tree_depth(r_min, r_max, 18)


@given(r_min=st.floats(0.0, 1e300), r_max=st.floats(1e-300, 1.7e308))
@settings(max_examples=100, deadline=None)
def test_exact_depth_of_any_float_support(r_min, r_max):
    assume(r_min < r_max)
    depth = TypeDistribution.uniform(r_min, r_max)._exact_depth
    assert min(depth, 18) <= exact_tree_depth(r_min, r_max, 18)


def assert_grid_brackets_match_bisection(dist, rng):
    """``_grid_brackets`` equals ``depth`` replayed bisection steps at
    depths up to ``_exact_depth``, for ``x`` uniform on the support, on
    depth-``depth`` nodes and their ``nextafter`` neighbours, at the
    ends and outside the support."""
    top = dist._exact_depth
    r_min, r_max, span = dist.r_min, dist.r_max, dist.span
    for depth in sorted(d for d in {0, 1, 2, 7, top // 2, top - 1, top} if 0 <= d <= top):
        h = span / 2.0**depth
        nodes = r_min + rng.integers(0, 2**depth, 200, endpoint=True) * h
        with np.errstate(over="ignore"):
            x = np.concatenate([
                rng.uniform(r_min, r_max, 2000),
                nodes, np.nextafter(nodes, -math.inf), np.nextafter(nodes, math.inf),
                [r_min, r_max, r_min - span, r_max + span, 0.0, 1e300],
            ])
        lo, hi = dist._grid_brackets(x, depth)
        want_lo, want_hi = np.full_like(x, r_min), np.full_like(x, r_max)
        dist._bisect(want_lo, want_hi, x, depth, x)
        assert_same_bits(lo, want_lo)
        assert_same_bits(hi, want_hi)


@pytest.mark.parametrize("support", [(50.0, 200.0), (0.0, 60.0), (0.25, 1.0), (3 * 2.0**-30, 7 * 2.0**-20)])
def test_grid_brackets_equal_replayed_bisection(support):
    dist = TypeDistribution.uniform(*support)
    assert_grid_brackets_match_bisection(dist, np.random.default_rng(dist._exact_depth))


@given(e=st.integers(-1100, 970), bits=st.integers(1, 53), data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_grid_brackets_equal_replayed_bisection_on_dyadic_supports(e, bits, data, seed):
    """As above on ``[A * 2**e, B * 2**e]`` with ``B`` of 1 to 53 bits:
    the float index ``ceil((x - r_min) / h) - 1`` is exact without a
    correction, subnormal cells included."""
    b = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    a = data.draw(st.one_of(st.just(0), st.integers(0, b - 1)))
    r_min, r_max = math.ldexp(a, e), math.ldexp(b, e)
    assume(r_min < r_max)
    assert_grid_brackets_match_bisection(TypeDistribution.uniform(r_min, r_max),
                                         np.random.default_rng(seed))


@given(dist=truncated_normals(), p=probabilities)
@settings(max_examples=100, deadline=None)
def test_scalars_match_plain_bisection(dist, p):
    want = float(plain_bisection(dist, p))
    got = dist.inverse_cdf(p)
    assert isinstance(got, float)
    assert_same_bits(got, want)
    assert_same_bits(dist.inverse_cdf(np.asarray(p)), want)


@pytest.mark.parametrize("law", [(125.0, 50.0, 50.0, 200.0), *FAR_TAIL_LAWS])
def test_edge_probabilities(law):
    dist = TypeDistribution.truncated_normal(*law)
    p = np.array(EDGE_PROBABILITIES)
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))
    for q in EDGE_PROBABILITIES:
        assert_same_bits(dist.inverse_cdf(q), plain_bisection(dist, q))


def spy_on_restarts(monkeypatch):
    """Record the probabilities of every plain-bisection fallback."""
    restarted = []
    bisect = TypeDistribution._bisect

    def spy(self, lo, hi, p, steps, x=None):
        if steps == self._bisection_steps:
            restarted.append(p.copy())
        return bisect(self, lo, hi, p, steps, x)

    monkeypatch.setattr(TypeDistribution, "_bisect", spy)
    return restarted


@pytest.mark.parametrize("law", FAR_TAIL_LAWS)
def test_far_tail_takes_the_fallback_and_matches(law, monkeypatch):
    dist = TypeDistribution.truncated_normal(*law)
    restarted = spy_on_restarts(monkeypatch)
    p = RngStream(5, 0).uniforms(20_000)
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))
    assert sum(q.size for q in restarted) > 10_000


@pytest.mark.parametrize("shape", [
    (_ERF_CHUNK - 1,), (_ERF_CHUNK,), (_ERF_CHUNK + 1,), (2 * _ERF_CHUNK + 3,),
    (_ERF_CHUNK // 3 + 5, 3),
])
def test_block_boundaries_match_plain_bisection(shape):
    dist = TypeDistribution.truncated_normal(125.0, 50.0, 50.0, 200.0)
    p = np.random.default_rng(sum(shape)).random(shape)
    p.reshape(-1)[-4:] = EDGE_PROBABILITIES
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))
    # a strided view of the same probabilities gives the same rates
    assert_same_bits(dist.inverse_cdf(p.T), plain_bisection(dist, p).T)


def test_fallback_runs_in_the_blocks_that_need_it(monkeypatch):
    """A far-tail law whose fallback elements sit only in the second and
    the last of four blocks: each of those blocks restarts its own
    failed elements, the other two restart none."""
    dist = TypeDistribution.truncated_normal(*FAR_TAIL_LAWS[0])
    restarted = spy_on_restarts(monkeypatch)
    candidates = np.linspace(0.0, 1.0, 4001)
    dist.inverse_cdf(candidates)
    failing = np.concatenate(restarted)
    passing = np.setdiff1d(candidates, failing)
    assert failing.size > 100 and passing.size > 100 and 0.0 in failing
    n = 3 * _ERF_CHUNK + 5
    p = np.resize(passing, n)
    second, last = slice(_ERF_CHUNK + 7, _ERF_CHUNK + 7 + 50), slice(n - 5, n)
    p[second], p[last] = failing[:50], failing[-5:]
    restarted.clear()
    assert_same_bits(dist.inverse_cdf(p), plain_bisection(dist, p))
    assert len(restarted) == 2
    assert_same_bits(restarted[0], p[second])
    assert_same_bits(restarted[1], p[last])


def test_criterion_3_pool_matches_plain_bisection():
    """All 4M draws of the acceptance criterion-3 pool."""
    cfg = parse_market(preset("appendixK"))
    pool = sample_type_matrix(cfg, 1_000_000, RngStream(314, 0))
    p = RngStream(314, 0).uniforms(1_000_000, cfg.k)
    assert pool.shape == (1_000_000, 4)
    assert_same_bits(pool, plain_bisection(cfg.dist, p))
