"""The guarded reserve search both optimizers share, the closed-form
payoff's cached payment table, and the CLI's refusal exit code."""
import dataclasses
import json

import numpy as np
import pytest

from spectrum_auction import CertificationFailed, SellerMarket, TypeDistribution
from spectrum_auction import numerics, provider
from spectrum_auction.cli import main, parse_market
from spectrum_auction.presets import preset
from spectrum_auction.provider import _search_reserve, curve_point


def two_peaks(c):
    """Exact curve with an interior dip: peaks near 2 and 8."""
    return float(np.exp(-((c - 2.0) ** 2)) + 2.0 * np.exp(-((c - 8.0) ** 2)))


# The test curves solve no thresholds; the search takes a seller market all the same.
SELLERS = SellerMarket(4, TypeDistribution.uniform(50.0, 200.0), 0.3)


def search(estimate, refine=lambda c: ()):
    return _search_reserve(estimate, SELLERS, 0.0, 10.0, 10.0, fallback_points=501,
                           width=1e-6, refine=refine)


class TestSearchReserve:
    def test_dip_falls_back_to_the_best_grid_point(self):
        refined = []
        c, value = search(lambda c: (two_peaks(c), 0.0), refine=lambda c: refined.append(c) or ())
        fine = np.linspace(0.0, 10.0, 501)
        best = int(np.argmax([two_peaks(float(x)) for x in fine]))
        assert (c, value) == (float(fine[best]), two_peaks(float(fine[best])))
        assert refined == []

    def test_standard_errors_widen_the_guard_tolerance(self):
        # six median standard errors swallow the dip: golden section runs
        refined = []
        search(lambda c: (two_peaks(c), 1.0), refine=lambda c: refined.append(c) or ())
        assert len(refined) == 1

    def test_strictly_better_refinement_replaces_the_optimum(self):
        c, value = search(lambda c: (c, 0.0), refine=lambda c: (10.0, c))
        assert (c, value) == (10.0, 10.0)


@pytest.fixture(scope="module")
def appendix_market():
    return parse_market(preset("appendixK"))


def count_tables(monkeypatch):
    """Count the panel-doubling quadratures, which only a payment table
    build runs."""
    calls = []
    quad = numerics.simpson_with_doubling
    monkeypatch.setattr(numerics, "simpson_with_doubling",
                        lambda *a, **kw: calls.append(1) or quad(*a, **kw))
    return calls


def test_standard_regime_point_runs_no_quadrature_once_its_table_exists(appendix_market,
                                                                      monkeypatch):
    curve_point(appendix_market, 110.0)
    calls = count_tables(monkeypatch)
    passes = []
    monkeypatch.setattr(numerics, "composite_simpson", lambda *a: passes.append(1))
    assert curve_point(appendix_market, 120.0).regime.value == "standard"
    assert (calls, passes) == ([], [])


def test_a_table_is_built_once_per_law_k_and_budget(appendix_market, monkeypatch):
    provider._payment_table.cache_clear()
    calls = count_tables(monkeypatch)
    assert curve_point(appendix_market, 45.0).regime.value == "mid"
    assert calls == []
    other_delta = dataclasses.replace(appendix_market, delta_lte=0.2)
    for c in (60.0, 120.0, 190.0, 250.0):
        curve_point(appendix_market, c)
        curve_point(other_delta, c)
    assert len(calls) == 1
    curve_point(dataclasses.replace(appendix_market, r_lte=2.0 * appendix_market.r_lte), 120.0)
    curve_point(dataclasses.replace(appendix_market, k=appendix_market.k + 1), 120.0)
    curve_point(dataclasses.replace(appendix_market, dist=TypeDistribution.uniform(50, 200)),
                120.0)
    curve_point(appendix_market, 130.0)
    assert len(calls) == 4


class TestRefusalExitCodes:
    def run(self, capsys, *args):
        code = main(list(args))
        return code, json.loads(capsys.readouterr().err)

    def test_certification_failed_maps_to_3(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise CertificationFailed(60.0, None, 0.5, 0.01)

        monkeypatch.setattr("spectrum_auction.oracle.best_response_check", refuse)
        code, err = self.run(capsys, "verify", "--preset", "appendixK", "--c", "55")
        assert (code, err["error"]) == (3, "CertificationFailed")
