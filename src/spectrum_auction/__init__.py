"""Numerical engine for a second-price reverse auction in which an LTE
provider buys channel-access rights from Wi-Fi access-point owners,
paying in served data rate."""

from .auction import (
    AuctionOutcome,
    BidProfile,
    Mode,
    expected_apo_payoff,
    lte_payoff,
    realized_apo_payoffs,
    resolve,
)
from .distributions import TypeDistribution
from .equilibrium import (
    ABSTAIN,
    Bid,
    EquilibriumStrategy,
    MarketConfig,
    RegimeKind,
    SellerMarket,
    bid,
    bid_values,
    classify_regime,
    solve_strategy,
    solve_threshold_mid,
    solve_threshold_standard,
)
from .errors import (
    BracketingError,
    CertificationFailed,
    InfeasibleBid,
    InvalidConfig,
    InvalidDistribution,
    InvalidProfile,
    NonUniqueThreshold,
    NoRootInInterval,
    SpectrumAuctionError,
)
from .multi_lte import (
    MultiExperimentConfig,
    MultiMarketConfig,
    Origin,
    VirtualBid,
    bid_alone,
    bid_shared,
    expected_payoff_multi,
    optimize_reserve_multi,
    resolve_multi,
    run_experiment_multi,
    virtual_bid,
)
from .provider import (
    OptimalReserve,
    PayoffCurvePoint,
    expected_payment,
    expected_payoff,
    optimize_reserve,
)
from .rng import RngStream
from .simulation import (
    ExperimentConfig,
    ExperimentResult,
    MetricsSummary,
    ReplicationResult,
    run_experiment,
    run_sweep,
    social_welfare_max,
)

__all__ = [name for name in dir() if not name.startswith("_")]
