"""The numpy normal law returns scipy's bits.

``distributions._erf`` ports Cephes ``ndtr.c`` erf (what
``scipy.special.erf`` runs) and must equal it bit for bit, on its array
path, its scalar path and in place. ``distributions._ndtri`` (AS241 and
one Newton step) only aims the inverse-CDF jump, so it is held to a few ulp of
``scipy.special.ndtri`` and to failing the jump check no more often.
scipy is a test-only dependency: the comparisons skip without it."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import RngStream
from spectrum_auction import distributions as dist_mod
from spectrum_auction.cli import parse_market
from spectrum_auction.presets import preset

SQRT_MAXLOG = math.sqrt(7.09782712893383996843E2)  # Cephes MAXLOG: exp underflows past -MAXLOG
EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
         8.0, -8.0, np.nextafter(8.0, 0.0), np.nextafter(-8.0, 0.0),
         SQRT_MAXLOG, -SQRT_MAXLOG, np.nextafter(SQRT_MAXLOG, 0.0), np.nextafter(SQRT_MAXLOG, 30.0),
         np.nextafter(-SQRT_MAXLOG, 0.0), np.nextafter(-SQRT_MAXLOG, -30.0),
         math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300]


@pytest.fixture(scope="module")
def special():
    return pytest.importorskip("scipy.special")


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bad = np.flatnonzero(bits(got) != bits(want))
    assert bad.size == 0, f"{bad.size} of {want.size} differ, first at x = {bad[:5]}"


def probe_points():
    rng = np.random.default_rng(17)
    return np.concatenate([
        np.linspace(-27.0, 27.0, 1_000_001),
        rng.standard_normal(200_000),
        rng.uniform(-6.0, 6.0, 200_000),
        np.array(EDGES),
    ])


def test_erf_is_scipy_erf(special):
    x = probe_points()
    assert_same_bits(dist_mod._erf(x), special.erf(x))


def test_erf_keeps_the_sign_of_zero(special):
    got = dist_mod._erf(np.array([0.0, -0.0]))
    assert np.signbit(got).tolist() == [False, True]
    assert np.signbit(dist_mod._erf_float(-0.0))
    assert_same_bits(got, special.erf(np.array([0.0, -0.0])))


@given(x=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_erf_is_scipy_erf_on_any_finite_float(special, x):
    want = special.erf(np.array([x]))
    # Long enough for the array path; short inputs take the scalar one.
    assert_same_bits(dist_mod._erf(np.full(dist_mod._ERF_LOOP_MAX + 1, x))[0], want[0])
    assert_same_bits(dist_mod._erf(np.array([x])), want)
    assert_same_bits(dist_mod._erf_float(x), want[0])


def test_scalar_array_and_in_place_paths_agree():
    x = probe_points()[::19]
    array = dist_mod._erf(x)
    in_place = x.copy()
    assert dist_mod._erf(in_place, out=in_place) is in_place
    assert_same_bits(in_place, array)
    assert_same_bits([dist_mod._erf_float(v) for v in x.tolist()], array)
    # Shapes and a 0-d input come back as given.
    assert_same_bits(dist_mod._erf(x[:12].reshape(3, 4)), array[:12].reshape(3, 4))
    assert_same_bits(dist_mod._erf(np.float64(x[5])), array[5])


def test_exp_helper_is_libm_exp():
    """numpy's float64 exp is not libm's on every machine; the complex
    path must be, or erf leaves scipy's bits."""
    a = np.linspace(1.0, 27.0, 200_001)
    z = -(a * a)
    assert_same_bits(dist_mod._libm_exp(z), [math.exp(v) for v in z.tolist()])


def test_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = np.array(EDGES + [-30.0, 30.0, 1e308, -1e308])
        dist_mod._erf(x)
        dist_mod._erf(x, out=x.copy())
        for v in x.tolist():
            dist_mod._erf_float(v)
        dist_mod._ndtri(np.array([0.0, 1.0, -0.5, 1.5, math.nan, -math.inf, math.inf, 5e-324, 0.5]))


def test_ndtri_is_within_8_ulp_of_scipy(special):
    p = np.random.default_rng(3).random(100_000)
    ulp = np.abs(bits(dist_mod._ndtri(p)) - bits(special.ndtri(p)))
    assert ulp.max() <= 8


def test_ndtri_ends_and_outside():
    got = dist_mod._ndtri(np.array([0.0, 1.0, -1e-300, 1.0 + 2.0**-52, -1.0, 2.0,
                                    math.nan, -math.inf, math.inf]))
    assert got[0] == -math.inf and got[1] == math.inf
    assert np.isnan(got[2:]).all()
    assert dist_mod._ndtri(np.array([0.5]))[0] == 0.0


def test_ndtri_aims_the_jump_as_well_as_scipy(special, monkeypatch):
    """Elements whose jump fails the cdf check fall back to plain
    bisection; on the first 400 000 draws of the criterion-3 pool
    ``_ndtri`` sends no more of them there than scipy's ndtri does."""
    cfg = parse_market(preset("appendixK"))
    law = cfg.dist
    p = RngStream(314, 0).uniforms(100_000, cfg.k).reshape(-1)
    replayed = law._bisection_steps - dist_mod._CDF_STEPS

    def fallbacks():
        return int(np.count_nonzero(~law._replayed_brackets(p, replayed)[2]))

    ours = fallbacks()
    monkeypatch.setattr(dist_mod, "_ndtri", special.ndtri)
    assert ours <= fallbacks()
