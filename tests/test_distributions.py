import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrum_auction import InvalidDistribution, RngStream, TypeDistribution
from spectrum_auction.cli import main, parse_market
from spectrum_auction.errors import InvalidConfig
from spectrum_auction.numerics import composite_simpson


def erf_truncnorm_pdf(r, mu, sigma, lo, hi):
    """Independent erf-based density oracle."""
    phi = math.exp(-0.5 * ((r - mu) / sigma) ** 2) / math.sqrt(2 * math.pi)
    z = 0.5 * (1 + math.erf((hi - mu) / (sigma * math.sqrt(2)))) - 0.5 * (
        1 + math.erf((lo - mu) / (sigma * math.sqrt(2)))
    )
    return phi / (sigma * z)


def erf_truncnorm_cdf(r, mu, sigma, lo, hi):
    def std(x):
        return 0.5 * (1 + math.erf((x - mu) / (sigma * math.sqrt(2))))

    return (std(r) - std(lo)) / (std(hi) - std(lo))


class TestConstruction:
    def test_rejects_bad_bounds(self):
        with pytest.raises(InvalidDistribution):
            TypeDistribution.uniform(200, 50)
        with pytest.raises(InvalidDistribution):
            TypeDistribution.uniform(-1, 50)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidDistribution):
            TypeDistribution.truncated_normal(125, 0.0, 50, 200)

    def test_rejects_missing_params(self):
        with pytest.raises(InvalidDistribution):
            TypeDistribution("truncated_normal", 50, 200)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidDistribution):
            TypeDistribution("lognormal", 50, 200)

    @pytest.mark.parametrize("moments", [{"mu": 3.0}, {"sigma": 7.0}, {"mu": 3.0, "sigma": 7.0}])
    def test_uniform_refuses_moments(self, moments):
        """A uniform law has no mean or spread parameter; a number given
        for one used to be ignored, and keyed its own caches."""
        with pytest.raises(InvalidDistribution, match="uniform law takes no mu or sigma"):
            TypeDistribution("uniform", 50, 200, **moments)

    def test_cli_refuses_moments_on_a_uniform_law(self, tmp_path, capsys):
        dist = {"kind": "uniform", "r_min": 50, "r_max": 200, "mu": 125, "sigma": 50}
        market = {"k": 4, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 95.0, "dist": dist}
        config = tmp_path / "uniform.json"
        config.write_text(json.dumps({"market": market, "c": 55.0}))
        assert main(["equilibrium", "--config", str(config)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "message": "a uniform law takes no mu or sigma, got 125.0, 50.0"}

    def test_config_rejects_unknown_keys(self):
        dist = {"kind": "uniform", "r_min": 50, "r_max": 200, "median": 10}
        market = {"k": 4, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 95.0, "dist": dist}
        with pytest.raises(InvalidConfig, match=r"unknown dist keys: \['median'\]"):
            parse_market({"market": market})


class TestPdfCdf:
    def test_uniform_density_at_midpoint(self, uniform_dist):
        assert uniform_dist.pdf(125.0) == pytest.approx(1 / 150, rel=1e-12)

    def test_uniform_outside_support(self, uniform_dist):
        assert uniform_dist.pdf(210.0) == 0.0
        assert uniform_dist.pdf(49.9) == 0.0

    def test_truncnorm_density_against_erf_oracle(self, trunc_normal):
        # phi(0) / (sigma * (Phi(1.5) - Phi(-1.5)))
        expected = erf_truncnorm_pdf(125.0, 125, 50, 50, 200)
        assert trunc_normal.pdf(125.0) == pytest.approx(expected, rel=1e-12)
        assert trunc_normal.pdf(125.0) == pytest.approx(0.0092093470, abs=1e-9)
        for r in (50.0, 77.0, 150.0, 200.0):
            assert trunc_normal.pdf(r) == pytest.approx(
                erf_truncnorm_pdf(r, 125, 50, 50, 200), rel=1e-12
            )

    def test_cdf_midpoints(self, trunc_normal, uniform_dist):
        assert uniform_dist.cdf(125.0) == pytest.approx(0.5, abs=1e-15)
        assert trunc_normal.cdf(125.0) == pytest.approx(0.5, abs=1e-12)

    def test_cdf_support_edges(self, trunc_normal, uniform_dist):
        for dist in (trunc_normal, uniform_dist):
            assert dist.cdf(50.0) == 0.0
            assert dist.cdf(200.0) == 1.0
            assert dist.cdf(0.0) == 0.0
            assert dist.cdf(1e6) == 1.0

    def test_cdf_against_erf_oracle(self, trunc_normal):
        for r in (60.0, 100.0, 140.0, 190.0):
            assert trunc_normal.cdf(r) == pytest.approx(
                erf_truncnorm_cdf(r, 125, 50, 50, 200), rel=1e-12
            )

    def test_pdf_positive_on_support(self, trunc_normal, uniform_dist):
        grid = np.linspace(50, 200, 501)
        for dist in (trunc_normal, uniform_dist):
            assert np.all(dist.pdf(grid) > 0)

    def test_pdf_integrates_to_one(self, trunc_normal, uniform_dist):
        for dist in (trunc_normal, uniform_dist):
            total = composite_simpson(dist.pdf, dist.r_min, dist.r_max, 4096)
            assert total == pytest.approx(1.0, abs=1e-6)

    @given(
        r1=st.floats(min_value=50, max_value=200),
        r2=st.floats(min_value=50, max_value=200),
    )
    def test_cdf_monotone(self, trunc_normal, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        assert trunc_normal.cdf(lo) <= trunc_normal.cdf(hi)


class TestInverseCdf:
    def test_round_trip_on_probability_grid(self, trunc_normal, uniform_dist):
        ps = np.arange(0.01, 1.0, 0.01)
        for dist in (trunc_normal, uniform_dist):
            back = dist.cdf(dist.inverse_cdf(ps))
            assert np.max(np.abs(back - ps)) < 1e-9

    def test_rejects_bad_probability(self, trunc_normal):
        with pytest.raises(ValueError):
            trunc_normal.inverse_cdf(1.5)

    @pytest.mark.parametrize("p", [math.nan, np.float64(math.nan), np.array([0.2, math.nan, 0.7])])
    def test_rejects_nan_probability(self, trunc_normal, uniform_dist, p):
        for dist in (trunc_normal, uniform_dist):
            with pytest.raises(ValueError, match="must lie in"):
                dist.inverse_cdf(p)

    @given(p=st.floats(min_value=0, max_value=1))
    @settings(max_examples=50)
    def test_values_in_support(self, trunc_normal, p):
        r = trunc_normal.inverse_cdf(p)
        assert 50.0 <= r <= 200.0


class TestSampling:
    def test_support_membership(self, uniform_dist):
        rng = RngStream(42, 0)
        draws = uniform_dist.inverse_cdf(rng.uniforms(1000))
        assert np.all((draws >= 50) & (draws <= 200))

    def test_determinism_same_stream(self, trunc_normal):
        a = trunc_normal.inverse_cdf(RngStream(7, 3).uniforms(100))
        b = trunc_normal.inverse_cdf(RngStream(7, 3).uniforms(100))
        assert np.array_equal(a, b)

    def test_streams_differ(self, trunc_normal):
        a = trunc_normal.inverse_cdf(RngStream(7, 0).uniforms(50))
        b = trunc_normal.inverse_cdf(RngStream(7, 1).uniforms(50))
        assert not np.array_equal(a, b)

    def test_scalar_vector_draw_parity(self, trunc_normal):
        vec = trunc_normal.inverse_cdf(RngStream(3, 0).uniforms(5))
        rng = RngStream(3, 0)
        scalars = [trunc_normal.inverse_cdf(rng.uniform()) for _ in range(5)]
        assert np.allclose(vec, scalars, rtol=0, atol=0)

    def test_ks_statistic_against_cdf_oracle(self, trunc_normal):
        n = 100_000
        draws = np.sort(trunc_normal.inverse_cdf(RngStream(123, 0).uniforms(n)))
        cdf_vals = np.array(
            [erf_truncnorm_cdf(r, 125, 50, 50, 200) for r in draws[:: n // 1000]]
        )
        ecdf_lo = np.arange(0, n, n // 1000) / n
        ks = np.max(np.abs(cdf_vals - ecdf_lo))
        assert ks < 0.01


class TestVeryWideSupport:
    """TN(125, 50) over [50, 1e297]: standardized types reach 2e295, far
    beyond the 1.3e154 at which ``z * z`` overflows."""

    LAW = {"kind": "truncated_normal", "mu": 125.0, "sigma": 50.0, "r_min": 50.0, "r_max": 1e297}

    def test_pdf_in_the_far_tail_is_zero_without_a_warning(self):
        dist = TypeDistribution(**self.LAW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dist.pdf(np.array([125.0, 1e156, 1e200, 1e297]))
        assert out[0] > 0.0 and (out[1:] == 0.0).all()

    def test_optimize_runs_without_a_warning(self, tmp_path, capsys):
        market = {"k": 4, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 95.0, "dist": self.LAW}
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"market": market}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["optimize", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)
