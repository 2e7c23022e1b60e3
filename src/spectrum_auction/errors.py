"""Exception types shared across the package."""


class SpectrumAuctionError(Exception):
    """Base class for all package errors."""


class InvalidDistribution(SpectrumAuctionError):
    """Distribution parameters violate the construction invariants."""


class InvalidConfig(SpectrumAuctionError):
    """A run configuration failed schema validation."""


class InvalidProfile(SpectrumAuctionError):
    """A bid profile is inconsistent with the session reserve rate."""


class InfeasibleBid(SpectrumAuctionError):
    """A raw bid lies outside the feasible set for its bidder population."""


class BracketingError(SpectrumAuctionError):
    """Residual endpoint signs do not bracket a root."""


class NoRootInInterval(SpectrumAuctionError):
    """A closed-form root fell outside its admissible interval."""


class NonUniqueThreshold(SpectrumAuctionError):
    """The threshold equation has more than one root; the engine refuses
    to pick among multiple candidate equilibria."""


class CertificationFailed(SpectrumAuctionError):
    """A strategy failed best-response certification.

    Carries the offending (bidder_type, deviation, gain) triple.
    """

    def __init__(self, bidder_type, deviation, gain, epsilon):
        self.bidder_type = bidder_type
        self.deviation = deviation
        self.gain = gain
        self.epsilon = epsilon
        dev = "abstain" if deviation is None else f"{deviation:.6g}"
        super().__init__(
            f"type {bidder_type:.6g} gains {gain:.6g} (> {epsilon:.6g}) "
            f"by deviating to {dev}"
        )
