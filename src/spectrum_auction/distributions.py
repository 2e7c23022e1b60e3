"""Bidder type distributions on a bounded rate support.

The common prior on a bidder's standalone throughput (Mbps) is either
uniform or a normal law truncated to ``[r_min, r_max]``. Evaluation is
erf based; sampling goes through the inverse CDF so that a fixed
uniform draw always maps to the same rate (rejection sampling would
break stream reproducibility).

``scipy.special`` is imported on the first truncated-normal use, not
with the module: the uniform law never needs it, and the import costs
about 0.3 s per process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDistribution
from .numerics import is_number
from .rng import RngStream

UNIFORM = "uniform"
TRUNCATED_NORMAL = "truncated_normal"

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Absolute tolerance (in rate units) of the bisection inverse CDF.
_INV_CDF_TOL = 1e-12
# Bisection steps the truncated-normal inverse CDF runs on the real cdf
# after replaying the others from the ndtri jump.
_CDF_STEPS = 8

_special = None  # scipy.special once _scipy_special() has imported it


def _scipy_special():
    global _special
    if _special is None:
        from scipy import special

        _special = special
    return _special


def _std_cdf(z):
    return 0.5 * (1.0 + _scipy_special().erf(z / _SQRT2))


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
        """The one place the law's values are checked: each is a finite
        number by :func:`numerics.is_number` (bools and text are not),
        stored as a float; ``mu`` and ``sigma`` may be ``None`` for the
        uniform kind."""
        if self.kind not in (UNIFORM, TRUNCATED_NORMAL):
            raise InvalidDistribution(f"unknown kind {self.kind!r}")
        for name in ("r_min", "r_max", "mu", "sigma"):
            v = getattr(self, name)
            if v is None and self.kind == UNIFORM and name in ("mu", "sigma"):
                continue
            if not is_number(v):
                raise InvalidDistribution(f"distribution {name} must be a number, got {v!r}")
            if not math.isfinite(v):
                raise InvalidDistribution(f"distribution {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not (0.0 <= self.r_min < self.r_max):
            raise InvalidDistribution(
                f"need 0 <= r_min < r_max, got [{self.r_min}, {self.r_max}]"
            )
        if self.kind == TRUNCATED_NORMAL:
            if not self.sigma > 0.0:
                raise InvalidDistribution("sigma must be positive")
            if not self._mass > 0.0:
                raise InvalidDistribution(
                    f"normal({self.mu}, {self.sigma}) has no mass on "
                    f"[{self.r_min}, {self.r_max}]"
                )

    @classmethod
    def uniform(cls, r_min: float, r_max: float) -> "TypeDistribution":
        return cls(UNIFORM, r_min, r_max)

    @classmethod
    def truncated_normal(
        cls, mu: float, sigma: float, r_min: float, r_max: float
    ) -> "TypeDistribution":
        return cls(TRUNCATED_NORMAL, r_min, r_max, mu, sigma)

    @property
    def span(self) -> float:
        return self.r_max - self.r_min

    # Truncated-normal constants, computed once per law (the frozen
    # dataclass keeps them in the instance dict).
    @cached_property
    def _phi_lo(self) -> float:
        """Standard normal cdf at the standardized lower bound."""
        return float(_std_cdf((self.r_min - self.mu) / self.sigma))

    @cached_property
    def _mass(self) -> float:
        """Normal probability of ``[r_min, r_max]``."""
        hi = (self.r_max - self.mu) / self.sigma
        return float(_std_cdf(hi) - self._phi_lo)

    @cached_property
    def _bisection_steps(self) -> int:
        return int(math.ceil(math.log2(self.span / _INV_CDF_TOL)))

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
            out = np.where(inside, _std_pdf(z) / (self.sigma * self._mass), 0.0)
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def cdf(self, r):
        """Cumulative probability at ``r``; clamps to 0 below the support
        and 1 above it. Accepts a scalar or ndarray.

        A ``float`` (``np.float64`` included) takes a scalar path that
        runs the array path's IEEE operations in the same order on
        Python floats, so it returns the same bits as a one-element
        array, as a Python float, at a fifth of the cost.
        """
        if isinstance(r, float):
            r = float(r)
            if self.kind == UNIFORM:
                z = (r - self.r_min) / self.span
            else:
                z = float(_scipy_special().erf((r - self.mu) / self.sigma / _SQRT2))
                z = ((z + 1.0) * 0.5 - self._phi_lo) / self._mass
            return min(max(z, 0.0), 1.0)
        r_arr = np.asarray(r, dtype=float)
        if self.kind == UNIFORM:
            out = np.clip((r_arr - self.r_min) / self.span, 0.0, 1.0)
        else:
            out = self._normal_cdf(r_arr)
        return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out

    def _normal_cdf(self, r, out=None):
        """Truncated-normal cdf of ``r``; in place into ``out`` when it
        is given, which saves the temporaries on large arrays."""
        z = np.subtract(r, self.mu, out=out)
        z /= self.sigma
        z /= _SQRT2
        z = _scipy_special().erf(z, out=out)
        z += 1.0
        z *= 0.5
        z -= self._phi_lo
        z /= self._mass
        return np.clip(z, 0.0, 1.0, out=out)

    def inverse_cdf(self, p):
        """Rate at cumulative probability ``p``.

        For the truncated normal the inverse is the midpoint of the
        bracket that bisection on :meth:`cdf` reaches from
        ``[r_min, r_max]``; its steps make it exact to 1e-12 in rate
        units and deterministic across platforms. Accepts a scalar or
        ndarray.

        Most of the steps are replayed without evaluating the cdf. Each
        element first jumps to ``x = mu + sigma * ndtri(Phi(lower) + p *
        mass)``, close to the answer, and all but the last eight steps
        decide ``mid < x`` in place of ``cdf(mid) < p``. Every replayed
        midpoint ended at or below the bracket's ``lo`` or at or above
        its ``hi``. So if ``cdf(lo) < p`` and not ``cdf(hi) < p``, the
        monotone cdf gives each replayed midpoint the decision that
        bisection makes, and the bracket is the one bisection reaches.
        The support ends need no exemption: ``cdf`` is exactly 0 at
        ``r_min`` and 1 at ``r_max``. The last eight steps evaluate the
        cdf. An element that fails the check (a cdf too flat in float to
        separate ``x`` from its neighbours, as in a far tail, or
        ``p = 0``) runs the plain bisection on its own, so the result is
        the same to the bit.
        """
        p_arr = np.asarray(p, dtype=float)
        if np.any((p_arr < 0.0) | (p_arr > 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.kind == UNIFORM:
            out = self.r_min + p_arr * self.span
        else:
            out = self._normal_inverse(p_arr.reshape(-1)).reshape(p_arr.shape)
        return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out

    def _normal_inverse(self, p: np.ndarray) -> np.ndarray:
        steps = self._bisection_steps
        replayed = max(steps - _CDF_STEPS, 0)
        lo, hi, checked = self._replayed_brackets(p, replayed)
        out = self._bisect(lo, hi, p, steps - replayed)
        failed = ~checked
        if failed.any():
            p_failed = p[failed]
            lo = np.full_like(p_failed, self.r_min)
            hi = np.full_like(p_failed, self.r_max)
            out[failed] = self._bisect(lo, hi, p_failed, steps)
        return out

    def _replayed_brackets(self, p: np.ndarray, steps: int):
        """Brackets after ``steps`` bisection steps replayed from the
        ndtri jump, and whether the cdf confirms each one."""
        x = p * self._mass
        x += self._phi_lo
        _scipy_special().ndtri(x, out=x)
        x *= self.sigma
        x += self.mu
        np.copyto(x, self.r_min, where=~np.isfinite(x))
        lo = np.full_like(p, self.r_min)
        hi = np.full_like(p, self.r_max)
        self._bisect(lo, hi, p, steps, x)
        checked = self._normal_cdf(lo, x) < p
        checked &= ~(self._normal_cdf(hi, x) < p)
        return lo, hi, checked

    def _bisect(self, lo, hi, p, steps, x=None) -> np.ndarray:
        """Run ``steps`` bisection steps on the brackets ``[lo, hi]`` in
        place, and return their midpoints. ``lo`` moves up to the
        midpoint where ``cdf(mid) < p``, or where ``mid < x`` when ``x``
        is given (no cdf evaluation), and ``hi`` moves down to it
        elsewhere."""
        mid = np.empty_like(p)
        cdf = np.empty_like(p) if x is None else None
        below = np.empty(p.shape, dtype=bool)
        # The moves add ``below * (mid - lo)`` to the bit patterns: exact
        # in integers, and without the branch a masked copy mispredicts
        # on random masks (2.5x faster).
        lo_bits, hi_bits, mid_bits = (a.view(np.int64) for a in (lo, hi, mid))
        move = np.empty(p.shape, dtype=np.int64)
        for _ in range(steps):
            np.add(lo, hi, out=mid)
            mid *= 0.5
            if x is None:
                np.less(self._normal_cdf(mid, cdf), p, out=below)
            else:
                np.less(mid, x, out=below)
            np.subtract(mid_bits, lo_bits, out=move)
            move *= below
            lo_bits += move
            np.subtract(hi_bits, mid_bits, out=move)
            move *= below
            np.add(mid_bits, move, out=hi_bits)
        np.add(lo, hi, out=mid)
        mid *= 0.5
        return mid

    def sample(self, rng: RngStream) -> float:
        """One draw; consumes exactly one uniform from ``rng``."""
        return float(self.inverse_cdf(rng.uniform()))

    def sample_n(self, rng: RngStream, n: int) -> np.ndarray:
        """``n`` draws; consumes ``n`` uniforms in sequence order."""
        return np.asarray(self.inverse_cdf(rng.uniforms(n)), dtype=float)

    @classmethod
    def from_config(cls, cfg: dict) -> "TypeDistribution":
        """Build from a JSON fragment; unknown keys are rejected and the
        values are checked by the constructor."""
        if not isinstance(cfg, dict):
            raise InvalidDistribution("distribution config must be an object")
        allowed = {"kind", "r_min", "r_max", "mu", "sigma"}
        unknown = set(cfg) - allowed
        if unknown:
            raise InvalidDistribution(f"unknown distribution keys: {sorted(unknown)}")
        for key in ("kind", "r_min", "r_max"):
            if key not in cfg:
                raise InvalidDistribution(f"missing distribution key {key!r}")
        return cls(**cfg)
