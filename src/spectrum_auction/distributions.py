"""Bidder type distributions on a bounded rate support.

The common prior on a bidder's standalone throughput (Mbps) is either
uniform or a normal law truncated to ``[r_min, r_max]``. Evaluation is
erf based; sampling goes through the inverse CDF so that a fixed
uniform draw always maps to the same rate (rejection sampling would
break stream reproducibility).

The standard normal law is computed here with numpy alone. ``_erf`` is
a port of Cephes ``ndtr.c`` erf/erfc (Moshier), the code behind
``scipy.special.erf``, with its coefficients and Horner order, so it
returns scipy's bits. ``_ndtri`` is Wichura's AS241 (Applied Statistics
37, 1988), vectorized from the stdlib's
``statistics._normal_dist_inv_cdf`` and polished by one Newton step; it
only aims the inverse-CDF jump, whose result the cdf check makes exact
whatever the jump.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidDistribution
from .numerics import is_finite, is_number

UNIFORM = "uniform"
TRUNCATED_NORMAL = "truncated_normal"

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Absolute tolerance (in rate units) of the bisection inverse CDF.
_INV_CDF_TOL = 1e-12
# Bisection steps the truncated-normal inverse CDF runs on the real cdf
# after replaying the others from the ndtri jump.
_CDF_STEPS = 8
# The replayed bracket the cdf checks spans at least 2**_CHECK_ULP_BITS
# ulps of r_max: a bracket only a few ulps wide does not pin bisection's
# path, because the float cdf need not be monotone at that scale.
_CHECK_ULP_BITS = 8

# Cephes ndtr.c coefficients, highest degree first. erf(x) is
# x*T(x*x)/U(x*x) for |x| <= 1, else 1 - exp(-x*x)*P(|x|)/Q(|x|) with
# the sign of x. Cephes's monic U and Q (p1evl) carry their leading 1.0
# here. Cephes switches to other coefficients (R/S) for |x| >= 8 and
# returns +-1 once exp(-x*x) underflows, but there erfc(|x|) < 1e-28 is
# far below half an ulp of 1, so erf is +-1 either way: clamping |x| to
# 8 gives the same bits without the branches.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_CLAMP = 8.0
# Elements per pass of the array erf: its buffers stay this small.
_ERF_CHUNK = 16384
# Up to this many elements, a loop of _erf_float beats the array path's
# fixed cost of some 25 numpy calls (0-d and one-element cdf calls).
_ERF_LOOP_MAX = 32

# AS241 coefficients, highest degree first: the central region
# |p - 0.5| <= 0.425, then the tails with r = sqrt(-log(min(p, 1 - p)))
# at or below 5 and above it.
_AS241_A = ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
             4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
             1.3314166789178437745e+2, 3.3871328727963666080e+0),
            (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
             2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
             4.2313330701600911252e+1, 1.0))
_AS241_B = ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
             1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
             4.6303378461565452959e+0, 1.4234371107496835773e+0),
            (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
             1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
             2.0531916266377588219e+0, 1.0))
_AS241_C = ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
             2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
             5.4637849111641143699e+0, 6.6579046435011037772e+0),
            (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
             7.8686913114561329059e-4, 1.4875361290850614852e-2, 1.3692988092273580531e-1,
             5.9983220655588793769e-1, 1.0))


def _horner(x, coefs, out=None):
    """Cephes ``polevl`` of ``x`` (``p1evl`` for a leading 1.0): the
    same operations in the same order, in place into ``out``."""
    if coefs[0] == 1.0:
        out = np.add(x, coefs[1], out)
    else:
        out = np.multiply(x, coefs[0], out)
        np.add(out, coefs[1], out)
    for c in coefs[2:]:
        np.multiply(out, x, out)
        np.add(out, c, out)
    return out


def _libm_exp(x):
    """``exp(x)`` with the C library's bits.

    numpy's float64 ``exp`` is its own SIMD kernel, an ulp away from
    libm's ``exp`` on a few percent of inputs, which moves erf off
    Cephes's bits. Its complex ``exp`` calls libm ``cexp``, whose real
    part for a zero imaginary part is libm ``exp(x) * cos(0)``: exactly
    libm's ``exp``, at a fifth of the cost of a ``math.exp`` loop.
    """
    z = x.astype(np.complex128)
    np.exp(z, out=z)
    return z.real


def _erf_tail(x):
    """erf of an array whose elements all have ``|x| > 1``: Cephes's
    ``1 - erfc(|x|)`` with the sign of ``x``."""
    a = np.abs(x)
    np.minimum(a, _ERF_CLAMP, out=a)
    z = np.multiply(a, a)
    y = np.multiply(_libm_exp(np.negative(z, z)), _horner(a, _ERFC_P))
    np.divide(y, _horner(a, _ERFC_Q, z), y)
    np.subtract(1.0, y, y)
    return np.copysign(y, x, y)


def _erf(x, out=None):
    """Error function of a float array, with ``scipy.special.erf``'s bits.

    Works through ``x`` in chunks of at most ``_ERF_CHUNK`` elements with
    reused buffers; ``out`` may be ``x`` itself. Every element first
    takes ``x*T(z)/U(z)`` (odd in ``x``, so ``-0.0`` keeps its sign);
    the ones with ``|x| > 1`` (``z > 1``) are then replaced by
    :func:`_erf_tail`. Inputs of at most ``_ERF_LOOP_MAX`` elements go
    through :func:`_erf_float`, which gives the same bits.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty_like(x)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    n = flat_x.size
    if n <= _ERF_LOOP_MAX:
        flat_out[:] = [_erf_float(v) for v in flat_x.tolist()]
        return out
    # Three buffers, not one block: a 3-row block of 10 000-point scans
    # would cross glibc's 128 KiB mmap threshold and be mapped afresh.
    z, num, den = (np.empty(min(n, _ERF_CHUNK)) for _ in range(3))
    with np.errstate(all="ignore"):
        for lo in range(0, n, _ERF_CHUNK):
            xs, os = flat_x[lo:lo + _ERF_CHUNK], flat_out[lo:lo + _ERF_CHUNK]
            m = xs.size
            zs = np.multiply(xs, xs, z[:m])
            tail = np.flatnonzero(zs > 1.0)
            x_tail = xs[tail]
            np.multiply(xs, _horner(zs, _ERF_T, num[:m]), num[:m])
            np.divide(num[:m], _horner(zs, _ERF_U, den[:m]), os)
            if tail.size:
                os[tail] = _erf_tail(x_tail)
    return out


def _erf_float(x: float) -> float:
    """:func:`_erf` on a Python float: the same operations, with
    ``math.exp`` as the libm exp. Each Horner loop starts from 0.0,
    whose first step gives the leading coefficient exactly."""
    z = x * x
    if not z > 1.0:
        t = u = 0.0
        for c in _ERF_T:
            t = t * z + c
        for c in _ERF_U:
            u = u * z + c
        return x * t / u
    a = min(abs(x), _ERF_CLAMP)
    p = q = 0.0
    for c in _ERFC_P:
        p = p * a + c
    for c in _ERFC_Q:
        q = q * a + c
    return math.copysign(1.0 - math.exp(-(a * a)) * p / q, x)


def _ndtri(p):
    """Standard normal quantile of a 1-D float array: -inf at 0, +inf
    at 1, nan outside [0, 1] and for nan. Its one caller passes a block
    of at most ``_ERF_CHUNK`` elements.

    AS241, then one Newton step where ``|p - 0.5| <= 0.425``, on the
    residual ``0.5 * erf(x / sqrt 2) - (p - 0.5)``, which is accurate
    there. AS241 alone is a few ulp off, and its jumps failed the
    inverse-CDF check 17% more often than scipy's ndtri on criterion 3's
    pool (299 against 255 of 4M); with the step, 249.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(all="ignore"):
        q = p - 0.5
        central = np.abs(q) <= 0.425
        mid, tail = np.flatnonzero(central), np.flatnonzero(~central)
        x = np.empty_like(p)
        qc = q[mid]
        r = 0.180625 - qc * qc
        xc = _horner(r, _AS241_A[0])
        xc *= qc
        xc /= _horner(r, _AS241_A[1])
        step = _erf(xc / _SQRT2)
        step *= 0.5
        step -= qc
        step /= _std_pdf(xc)
        x[mid] = xc - step
        p_tail, q_tail = p[tail], q[tail]
        r = np.sqrt(-np.log(np.where(q_tail <= 0.0, p_tail, 1.0 - p_tail)))
        far = r > 5.0
        r = np.where(far, r - 5.0, r - 1.6)
        xt = np.empty_like(r)
        for pick, (num, den) in ((~far, _AS241_B), (far, _AS241_C)):
            rs = r[pick]
            xt[pick] = _horner(rs, num) / _horner(rs, den)
        np.negative(xt, out=xt, where=q_tail < 0.0)
        xt[p_tail == 0.0] = -math.inf
        xt[p_tail == 1.0] = math.inf
        x[tail] = xt
    return x


def _dyadic(v: float) -> tuple[int, int]:
    """``(m, e)`` with ``v == m * 2**e`` and ``m`` odd, or ``m == 0``."""
    n, d = v.as_integer_ratio()
    zeros = (n & -n).bit_length() - 1 if n else 0
    return n >> zeros, zeros + 1 - d.bit_length()


def _std_cdf(z: float) -> float:
    return 0.5 * (1.0 + _erf_float(z / _SQRT2))


def _std_pdf(z):
    # z * z overflows beyond about 1.3e154, where exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class TypeDistribution:
    """Type law on ``[r_min, r_max]`` with strictly positive density.

    ``mu`` and ``sigma`` are the pre-truncation mean and standard
    deviation; the uniform kind takes neither (both stay ``None``).
    """

    kind: str
    r_min: float
    r_max: float
    mu: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        """The one place the law's values are checked: each is a finite
        number by :func:`numerics.is_number` (bools and text are not),
        stored as a float; ``mu`` and ``sigma`` must be ``None`` for the
        uniform kind."""
        if self.kind not in (UNIFORM, TRUNCATED_NORMAL):
            raise InvalidDistribution(f"unknown kind {self.kind!r}")
        for name in ("r_min", "r_max", "mu", "sigma"):
            v = getattr(self, name)
            if v is None and self.kind == UNIFORM and name in ("mu", "sigma"):
                continue
            if not is_number(v):
                raise InvalidDistribution(f"distribution {name} must be a number, got {v!r}")
            if not is_finite(v):
                raise InvalidDistribution(f"distribution {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not (0.0 <= self.r_min < self.r_max):
            raise InvalidDistribution(
                f"need 0 <= r_min < r_max, got [{self.r_min}, {self.r_max}]"
            )
        if self.kind == UNIFORM and (self.mu, self.sigma) != (None, None):
            raise InvalidDistribution(
                f"a uniform law takes no mu or sigma, got {self.mu}, {self.sigma}"
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
        return _std_cdf((self.r_min - self.mu) / self.sigma)

    @cached_property
    def _mass(self) -> float:
        """Normal probability of ``[r_min, r_max]``."""
        hi = (self.r_max - self.mu) / self.sigma
        return _std_cdf(hi) - self._phi_lo

    @cached_property
    def _bisection_steps(self) -> int:
        """Steps that shrink the support below ``_INV_CDF_TOL``. Where
        ``span / _INV_CDF_TOL`` overflows (spans above about 1.8e296),
        the logarithms are taken apart."""
        ratio = self.span / _INV_CDF_TOL
        if math.isinf(ratio):
            return int(math.ceil(math.log2(self.span) - math.log2(_INV_CDF_TOL)))
        return int(math.ceil(math.log2(ratio)))

    @cached_property
    def _replayed_steps(self) -> int:
        """Bisection steps the inverse CDF replays from the ndtri jump:
        all but the last ``_CDF_STEPS``, and none past the depth where a
        bracket spans ``2**_CHECK_ULP_BITS`` ulps of ``r_max`` (the larger
        end, as ``r_min >= 0``) or ``2**-42 * sigma``.

        The second cap keeps the replay off ``_erf``'s error. The float
        cdf is ``_erf`` of ``(r - mu) / sigma / sqrt(2)``, both behind
        monotone roundings. Cephes gives erf within 3.7e-16 relative for
        ``|x| <= 1`` and ``1 - erfc`` past it, with erfc within 5.7e-14
        relative and falling by a factor above ``1 + 2.6 dx`` over
        ``dx``; so the float cdf keeps its order between rates more than
        about ``2**-43.7 * sigma`` apart (the argument's rounding
        included). A replayed midpoint lies a bracket or more beyond the
        checked end. The cap binds where sigma is large against the
        span: TN(555220, 504628) on [0, 1], whose float cdf wobbles by
        about 1e-10, replays 23 of its 40 steps."""
        ulps = self.span / (2.0**_CHECK_ULP_BITS * math.ulp(self.r_max))
        widths = min(ulps, self.span / self.sigma * 2.0**42)
        return max(min(self._bisection_steps - _CDF_STEPS, math.floor(math.log2(widths))), 0)

    @cached_property
    def _exact_depth(self) -> int:
        """Depth to which every bisection midpoint from ``[r_min, r_max]``
        is exact.

        With ``r_min = A * 2**e`` and ``r_max = B * 2**e`` (integers, not
        both even), a depth-``d`` node is ``(A * 2**d + j * (B - A)) *
        2**(e - d)``, an integer at most ``B * 2**d`` times a power of
        two; below ``2**53`` it is a float, and so is the sum of two
        depth-``(d - 1)`` nodes. Hence ``53 - B.bit_length()``, capped so
        that ``2**(e - d)`` stays a float (``e - d >= -1074``), and 0 when
        that is negative or when ``2 * r_max`` overflows.
        """
        (a, ea), (b, eb) = _dyadic(self.r_min), _dyadic(self.r_max)
        e = min(ea, eb) if a else eb
        depth = min(53 - (b << (eb - e)).bit_length(), e + 1074)
        return depth if depth > 0 and math.isfinite(2.0 * self.r_max) else 0

    def pdf(self, r):
        """Density at ``r`` (1/Mbps); zero outside the support.

        Accepts a scalar or ndarray and returns the same shape. A
        ``float`` (``np.float64`` included) takes a scalar path: the same
        formula on Python floats, without the small-array round trip.
        """
        if isinstance(r, float):
            r = float(r)
            if not self.r_min <= r <= self.r_max:
                return 0.0
            if self.kind == UNIFORM:
                return 1.0 / self.span
            z = (r - self.mu) / self.sigma
            return _INV_SQRT_2PI * math.exp(-0.5 * z * z) / (self.sigma * self._mass)
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
                z = _erf_float((r - self.mu) / self.sigma / _SQRT2)
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
        z = _erf(z, out=out)
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
        mass)``, close to the answer, and the replayed steps decide
        ``mid < x`` in place of ``cdf(mid) < p``. Every replayed
        midpoint ended at or below the bracket's ``lo`` or at or above
        its ``hi``. So if ``cdf(lo) < p`` and not ``cdf(hi) < p``, the
        monotone cdf gives each replayed midpoint the decision that
        bisection makes, and the bracket is the one bisection reaches.
        The support ends need no exemption: ``cdf`` is exactly 0 at
        ``r_min`` and 1 at ``r_max``. The float cdf is monotone only
        above the scale of a few ulps, so the replay stops where a
        bracket still spans ``2**_CHECK_ULP_BITS`` ulps of ``r_max``
        and leaves at least ``_CDF_STEPS`` (eight) steps, which evaluate
        the cdf. ``[50, 200]`` replays 40 of its 48 steps (the ulp cap
        is 44); ``[0, 1e6]`` replays 44 of 60. An element that fails the
        check (a cdf too flat in float to separate ``x`` from its
        neighbours, as in a far tail, or ``p = 0``) runs the plain
        bisection on its own, so the result is the same to the bit.

        The replay takes its first ``_exact_depth`` steps in one go: to
        that depth every midpoint is exact, so the bracket is the grid
        cell of ``x`` (see :meth:`_grid_brackets`). ``[50, 200]`` is
        exact to depth 46, so none of its 40 replayed steps runs as a
        loop; a support with an end such as 0.1 has depth 0 and loops
        through them all.

        The flattened ``p`` runs through that whole pipeline (jump,
        replay, check, cdf steps, fallback) one block of ``_ERF_CHUNK``
        elements at a time, so each of its hundreds of array passes works
        on cache-resident buffers. Every step is elementwise, so the
        blocks do not change a bit.
        """
        p_arr = np.asarray(p, dtype=float)
        if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):  # NaN fails too
            raise ValueError("probabilities must lie in [0, 1]")
        if self.kind == UNIFORM:
            out = self.r_min + p_arr * self.span
        else:
            flat = p_arr.reshape(-1)
            out = np.empty_like(flat)
            for lo in range(0, flat.size, _ERF_CHUNK):
                out[lo:lo + _ERF_CHUNK] = self._normal_inverse(flat[lo:lo + _ERF_CHUNK])
            out = out.reshape(p_arr.shape)
        return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out

    def _normal_inverse(self, p: np.ndarray) -> np.ndarray:
        steps = self._bisection_steps
        replayed = self._replayed_steps
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
        ndtri jump, and whether the cdf confirms each one. The first
        ``min(steps, _exact_depth)`` steps are taken at once by
        :meth:`_grid_brackets`."""
        x = p * self._mass
        x += self._phi_lo
        x = _ndtri(x)
        x *= self.sigma
        x += self.mu
        np.copyto(x, self.r_min, where=~np.isfinite(x))
        depth = min(steps, self._exact_depth)
        lo, hi = self._grid_brackets(x, depth)
        if steps > depth:  # none left on [50, 200]: skip the buffers
            self._bisect(lo, hi, p, steps - depth, x)
        checked = self._normal_cdf(lo, x) < p
        checked &= ~(self._normal_cdf(hi, x) < p)
        return lo, hi, checked

    def _grid_brackets(self, x: np.ndarray, depth: int):
        """The brackets that ``depth`` bisection steps deciding ``mid <
        x`` reach from ``[r_min, r_max]``, for ``depth <= _exact_depth``.

        There every midpoint is exact, so the depth-``depth`` nodes are
        ``r_min + j * h`` with ``h = span / 2**depth``, in order, and the
        steps end in the cell ``[r_min + j * h, r_min + (j + 1) * h]``
        with the largest ``j`` whose node lies below ``x``: ``ceil(q) -
        1`` for ``q = (x - r_min) / h``, clipped to ``[0, 2**depth - 1]``.
        The float quotient gives that ``j`` exactly. With ``r_min = A *
        2**e`` and ``r_max = B * 2**e`` as in :meth:`_exact_depth`, ``B <
        2**(53 - depth)``. Take ``x`` in ``[r_min, r_max]`` with last-bit
        weight ``u``, so ``x < 2**53 * u``:

        * ``x - r_min`` is exact: a multiple of ``u`` below ``x`` when
          ``u <= 2**e``, else a multiple of ``2**e`` below ``2**(53 + e)``;
        * a quotient that rounds onto an integer ``j`` is ``j`` itself.
          Rounding onto ``j`` needs ``|q - j| <= 2**-53 * j``, with
          equality only for ``q > j`` at a power of two. A nonzero ``x -
          r_min - j * h`` is a multiple of ``2**(e - depth)``, more than
          ``2**-53 * span``, or of ``u < 2**(e - depth)``, more than
          ``2**-53 * j * h`` unless ``q < j`` and ``j * h = 2**53 * u``.
          So ``ceil`` sees the exact quotient;
        * outside the support the rounded difference keeps its side, and
          the clip gives the end cell.
        """
        if depth == 0:
            return np.full_like(x, self.r_min), np.full_like(x, self.r_max)
        h = self.span / 2.0**depth
        j = np.subtract(x, self.r_min)
        with np.errstate(over="ignore"):  # x far above r_max: clipped
            j /= h
        np.ceil(j, out=j)
        j -= 1.0
        np.clip(j, 0.0, 2.0**depth - 1.0, out=j)
        lo = np.multiply(j, h, out=j)
        lo += self.r_min
        return lo, np.add(lo, h)

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
