"""Numerical engine for a second-price reverse auction in which an LTE
provider buys channel-access rights from Wi-Fi access-point owners,
paying in served data rate.

The namespace is lazy (PEP 562): ``import spectrum_auction`` loads no
submodule and no numpy. A public name imports the submodule that
defines it on first use, so ``from spectrum_auction import bid`` loads
the equilibrium layer and what it needs, no more. This lets the CLI,
``spectrum_auction.cli``, set numpy's OpenBLAS thread count before
numpy loads (see its docstring); importing the package changes no
setting.
"""
import importlib

# Public name -> the submodule that defines it; a submodule's own name
# maps to itself.
_MODULE_OF = {
    name: module
    for module, names in {
        "auction": "AuctionOutcome BidProfile Mode expected_apo_payoff lte_payoff "
                   "realized_apo_payoffs resolve",
        "distributions": "TypeDistribution",
        "equilibrium": "ABSTAIN Bid EquilibriumStrategy MarketConfig RegimeKind SellerMarket "
                       "bid bid_values classify_regime solve_strategy solve_threshold_mid "
                       "solve_threshold_standard",
        "errors": "BracketingError CertificationFailed InfeasibleBid InvalidConfig "
                  "InvalidDistribution InvalidProfile NonUniqueThreshold NoRootInInterval "
                  "SpectrumAuctionError",
        "multi_lte": "MultiExperimentConfig MultiMarketConfig Origin VirtualBid bid_alone "
                     "bid_shared expected_payoff_multi optimize_reserve_multi resolve_multi "
                     "run_experiment_multi virtual_bid",
        "numerics": "",
        "provider": "OptimalReserve PayoffCurvePoint expected_payment expected_payoff "
                    "optimize_reserve",
        "rng": "RngStream",
        "simulation": "ExperimentConfig ExperimentResult MetricsSummary ReplicationResult "
                      "run_experiment run_sweep social_welfare_max",
    }.items()
    for name in (module, *names.split())
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
