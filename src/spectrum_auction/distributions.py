"""Bidder type distributions on a bounded rate support.

The common prior on a bidder's standalone throughput (Mbps) is either
uniform or a normal law truncated to ``[r_min, r_max]``. Evaluation is
erf based; sampling goes through the inverse CDF so that a fixed
uniform draw always maps to the same rate (rejection sampling would
break stream reproducibility).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidDistribution
from .numerics import is_number
from .rng import RngStream

UNIFORM = "uniform"
TRUNCATED_NORMAL = "truncated_normal"

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Absolute tolerance (in rate units) of the bisection inverse CDF.
_INV_CDF_TOL = 1e-12


def _std_cdf(z):
    return 0.5 * (1.0 + special.erf(z / _SQRT2))


def _std_pdf(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class TypeDistribution:
    """Type law on ``[r_min, r_max]`` with strictly positive density.

    ``mu`` and ``sigma`` are the pre-truncation mean and standard
    deviation; both are ignored for the uniform kind.
    """

    kind: str
    r_min: float
    r_max: float
    mu: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in (UNIFORM, TRUNCATED_NORMAL):
            raise InvalidDistribution(f"unknown kind {self.kind!r}")
        values = (self.r_min, self.r_max, self.mu, self.sigma)
        if not all(v is None or math.isfinite(v) for v in values):
            raise InvalidDistribution(
                f"r_min, r_max, mu and sigma must be finite, got {values}"
            )
        if not (0.0 <= self.r_min < self.r_max):
            raise InvalidDistribution(
                f"need 0 <= r_min < r_max, got [{self.r_min}, {self.r_max}]"
            )
        if self.kind == TRUNCATED_NORMAL:
            if self.mu is None or self.sigma is None:
                raise InvalidDistribution("truncated normal needs mu and sigma")
            if not self.sigma > 0.0:
                raise InvalidDistribution("sigma must be positive")
            if not self._trunc_mass() > 0.0:
                raise InvalidDistribution(
                    f"normal({self.mu}, {self.sigma}) has no mass on "
                    f"[{self.r_min}, {self.r_max}]"
                )

    @classmethod
    def uniform(cls, r_min: float, r_max: float) -> "TypeDistribution":
        return cls(UNIFORM, float(r_min), float(r_max))

    @classmethod
    def truncated_normal(
        cls, mu: float, sigma: float, r_min: float, r_max: float
    ) -> "TypeDistribution":
        return cls(TRUNCATED_NORMAL, float(r_min), float(r_max), float(mu), float(sigma))

    @property
    def span(self) -> float:
        return self.r_max - self.r_min

    def _trunc_mass(self) -> float:
        lo = (self.r_min - self.mu) / self.sigma
        hi = (self.r_max - self.mu) / self.sigma
        return float(_std_cdf(hi) - _std_cdf(lo))

    def pdf(self, r):
        """Density at ``r`` (1/Mbps); zero outside the support.

        Accepts a scalar or ndarray and returns the same shape.
        """
        r_arr = np.asarray(r, dtype=float)
        if self.kind == UNIFORM:
            inside = (r_arr >= self.r_min) & (r_arr <= self.r_max)
            out = np.where(inside, 1.0 / self.span, 0.0)
        else:
            z = (r_arr - self.mu) / self.sigma
            inside = (r_arr >= self.r_min) & (r_arr <= self.r_max)
            out = np.where(
                inside, _std_pdf(z) / (self.sigma * self._trunc_mass()), 0.0
            )
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def cdf(self, r):
        """Cumulative probability at ``r``; clamps to 0 below the support
        and 1 above it. Accepts a scalar or ndarray."""
        r_arr = np.asarray(r, dtype=float)
        if self.kind == UNIFORM:
            out = np.clip((r_arr - self.r_min) / self.span, 0.0, 1.0)
        else:
            lo = _std_cdf((self.r_min - self.mu) / self.sigma)
            z = (r_arr - self.mu) / self.sigma
            out = np.clip((_std_cdf(z) - lo) / self._trunc_mass(), 0.0, 1.0)
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def inverse_cdf(self, p):
        """Rate at cumulative probability ``p``.

        For the truncated normal the inverse is computed by bisection on
        :meth:`cdf` to 1e-12 in rate units, which is deterministic
        across platforms. Accepts a scalar or ndarray.
        """
        p_arr = np.asarray(p, dtype=float)
        if np.any((p_arr < 0.0) | (p_arr > 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.kind == UNIFORM:
            out = self.r_min + p_arr * self.span
        else:
            lo = np.full_like(p_arr, self.r_min, dtype=float)
            hi = np.full_like(p_arr, self.r_max, dtype=float)
            steps = int(math.ceil(math.log2(self.span / _INV_CDF_TOL)))
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                below = self.cdf(mid) < p_arr
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            out = 0.5 * (lo + hi)
        return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out

    def sample(self, rng: RngStream) -> float:
        """One draw; consumes exactly one uniform from ``rng``."""
        return float(self.inverse_cdf(rng.uniform()))

    def sample_n(self, rng: RngStream, n: int) -> np.ndarray:
        """``n`` draws; consumes ``n`` uniforms in sequence order."""
        return np.asarray(self.inverse_cdf(rng.uniforms(n)), dtype=float)

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "r_min": self.r_min, "r_max": self.r_max}
        if self.kind == TRUNCATED_NORMAL:
            cfg["mu"] = self.mu
            cfg["sigma"] = self.sigma
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "TypeDistribution":
        """Build from a JSON fragment; unknown keys are rejected. Bounds
        are numbers (ints or floats, not bools or text); ``mu`` and
        ``sigma`` are numbers or null."""
        if not isinstance(cfg, dict):
            raise InvalidDistribution("distribution config must be an object")
        allowed = {"kind", "r_min", "r_max", "mu", "sigma"}
        unknown = set(cfg) - allowed
        if unknown:
            raise InvalidDistribution(f"unknown distribution keys: {sorted(unknown)}")
        for key in ("kind", "r_min", "r_max"):
            if key not in cfg:
                raise InvalidDistribution(f"missing distribution key {key!r}")
        values = {}
        for key in ("r_min", "r_max", "mu", "sigma"):
            v = cfg.get(key)
            if v is None and key in ("mu", "sigma"):
                values[key] = None
            elif is_number(v):
                values[key] = float(v)
            else:
                raise InvalidDistribution(f"distribution {key} must be a number, got {v!r}")
        return cls(kind=cfg["kind"], **values)
