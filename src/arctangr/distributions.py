"""Concrete distributions: Gaussian, Rayleigh, their scale mixture, and the
arctan Gaussian-Rayleigh (AGR) distribution.

A Gaussian ``N(omega, eta^2)`` whose standard deviation ``eta`` is itself
Rayleigh-distributed with scale ``psi`` mixes, by the law of total
probability, into a Laplace kernel:

    h(x) = exp(-|x - omega| / psi) / (2 psi)

AGR is a location-scale family: ``X = omega + psi Z``.  Pushing the
standard Laplace kernel through the arctan transform gives ``Z`` the CDF
and density (both branches of the density meet at ``8/(5 pi)``)

    G(z) = (4/pi) arctan(1 - e^{-z}/2),    g(z) = (2/pi) e^{-z} / (1 + (1 - e^{-z}/2)^2)   z >= 0
    G(z) = (4/pi) arctan(e^{z}/2),         g(z) = (8/pi) e^{z} / (4 + e^{2z})              z <  0

``G(0) = (4/pi) arctan(1/2)`` (exported as ``P_STAR``) is the probability
level at which the quantile function switches branches.

Each formula is one private kernel of ``z``; the public ``agr_*`` and
``mixture_kernel_*`` functions check input and map a kernel affinely
(densities divide by ``psi``).  Raw moments expand ``E[(omega + psi Z)^r]``
binomially over ``E[Z^k]``, summed exactly from the density's series.

All operations are pure; the sampler takes an explicit seed, so callers own
all randomness (see :func:`agr_sample` for the stream-splitting convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import adaptive_quad
from ._util import as_float_array, match_input
from .arctanx import FOUR_OVER_PI, BaseDistribution
from .errors import DomainError

#: CDF value at the location parameter, (4/pi) * arctan(1/2) ~= 0.5903345.
#: Quantile lookups below this level land below the location, at or above it
#: they land at or above the location.
P_STAR = FOUR_OVER_PI * math.atan(0.5)

# tail probability above the location, and its -log, used by risk integrals
Q_STAR = 1.0 - P_STAR
S_STAR = -math.log(Q_STAR)

_PI_OVER_4 = math.pi / 4.0


@dataclass(frozen=True)
class GaussianParams:
    """Mean and standard deviation of a Gaussian."""

    omega: float
    eta: float

    def __post_init__(self):
        if not np.isfinite(self.omega):
            raise DomainError(f"omega must be finite, got {self.omega}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise DomainError(f"eta must be a positive finite scale, got {self.eta}")


@dataclass(frozen=True)
class RayleighParams:
    """Scale of a Rayleigh distribution (support x >= 0)."""

    psi: float

    def __post_init__(self):
        if not (np.isfinite(self.psi) and self.psi > 0):
            raise DomainError(f"psi must be a positive finite scale, got {self.psi}")


@dataclass(frozen=True)
class ArctanGRParams:
    """Location and scale of the arctan Gaussian-Rayleigh distribution.

    ``omega`` and ``psi`` are in data units; ``psi`` is also the scale of the
    underlying Laplace mixture kernel.
    """

    omega: float
    psi: float

    def __post_init__(self):
        if not np.isfinite(self.omega):
            raise DomainError(f"omega must be finite, got {self.omega}")
        if not (np.isfinite(self.psi) and self.psi > 0):
            raise DomainError(f"psi must be a positive finite scale, got {self.psi}")


# ---------------------------------------------------------------------------
# Gaussian and Rayleigh closed forms
# ---------------------------------------------------------------------------

def gaussian_pdf(params: GaussianParams, x):
    arr = as_float_array(x)
    z = (arr - params.omega) / params.eta
    return match_input(x, np.exp(-0.5 * z * z) / (params.eta * math.sqrt(2 * math.pi)))


def gaussian_cdf(params: GaussianParams, x):
    from scipy.special import ndtr

    arr = as_float_array(x)
    return match_input(x, ndtr((arr - params.omega) / params.eta))


def gaussian_quantile(params: GaussianParams, p):
    from scipy.special import ndtri

    arr = _checked_prob(p)
    return match_input(p, params.omega + params.eta * ndtri(arr))


def gaussian_logpdf(params: GaussianParams, x):
    arr = as_float_array(x)
    z = (arr - params.omega) / params.eta
    out = -0.5 * z * z - math.log(params.eta) - 0.5 * math.log(2 * math.pi)
    return match_input(x, out)


def rayleigh_pdf(params: RayleighParams, x):
    arr = as_float_array(x)
    z = np.maximum(arr, 0.0) / params.psi
    out = np.where(arr > 0, z / params.psi * np.exp(-0.5 * z * z), 0.0)
    return match_input(x, out)


def rayleigh_cdf(params: RayleighParams, x):
    arr = as_float_array(x)
    z = np.maximum(arr, 0.0) / params.psi
    return match_input(x, -np.expm1(-0.5 * z * z))


def rayleigh_quantile(params: RayleighParams, p):
    arr = _checked_prob(p)
    return match_input(p, params.psi * np.sqrt(-2.0 * np.log1p(-arr)))


def rayleigh_logpdf(params: RayleighParams, x):
    """Log density; ``-inf`` off the support (x <= 0)."""
    arr = as_float_array(x)
    pos = arr > 0
    z = np.where(pos, arr, 1.0) / params.psi
    out = np.where(pos, np.log(z / params.psi) - 0.5 * z * z, -np.inf)
    return match_input(x, out)


def _checked_prob(p, name="p"):
    arr = as_float_array(p, name=name)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise DomainError(f"{name} must lie strictly inside (0, 1)")
    return arr


# ---------------------------------------------------------------------------
# Standard-variable kernels of Z = (X - omega) / psi
# ---------------------------------------------------------------------------

def _standardize(params: ArctanGRParams, x, require_finite=False):
    return (as_float_array(x, require_finite=require_finite) - params.omega) / params.psi


def _half_exp(z):
    """``e^{-|z|} / 2``: the standard Laplace density, and its tail on either side."""
    return 0.5 * np.exp(-np.abs(z))


def _laplace_cdf(z):
    """Standard Laplace CDF: ``1 - e^{-z}/2`` for z >= 0, ``e^{z}/2`` below."""
    t = _half_exp(z)
    return np.where(z >= 0.0, 1.0 - t, t)


def _z_sf(z):
    """Standard AGR survival; above 0 it is ``arctan(t/(2-t)) = pi/4 - arctan(1-t)``,
    which stays accurate where ``1 - cdf`` cancels (survival below ~1e-16)."""
    t = _half_exp(z)
    upper = FOUR_OVER_PI * np.arctan(t / (2.0 - t))
    return np.where(z >= 0.0, upper, 1.0 - FOUR_OVER_PI * np.arctan(t))


def _z_pdf(z):
    """Standard AGR density: the arctan transform ``(4/pi) h / (1 + H^2)`` of Laplace."""
    cap = _laplace_cdf(z)
    return FOUR_OVER_PI * _half_exp(z) / (1.0 + cap * cap)


def _z_log_shape(z):
    """``log g(z) - log(2/pi)``, the standard AGR log-density less its constant,
    written so neither branch under- or overflows far from 0."""
    up = np.maximum(z, 0.0)
    un = np.minimum(z, 0.0)
    upper = -up - np.log1p((1.0 - 0.5 * np.exp(-up)) ** 2)
    lower = un - np.log(4.0 + np.exp(2.0 * un)) + math.log(4.0)
    return np.where(z >= 0.0, upper, lower)


def _z_tail_quantile(q):
    """Standard quantile at tail probability ``q = 1 - p <= 1 - P_STAR``: equal to
    ``-log(2*(1 - tan(pi*(1-q)/4)))`` without its cancellation as ``q -> 0``."""
    t = np.tan(_PI_OVER_4 * q)
    return -np.log(4.0 * t / (1.0 + t))


def _z_quantile(p):
    """Standard AGR quantile; the branches split at ``P_STAR``, where both give 0."""
    # 1 - p is exact for p >= 1/2, so the tail form loses nothing here
    return np.where(p < P_STAR, np.log(2.0 * np.tan(_PI_OVER_4 * p)), _z_tail_quantile(1.0 - p))


def _z_moment_parts(k):
    """``E[Z^k]`` of the standard AGR as its (z < 0, z >= 0) parts.

    With ``e = e^{-|z|}`` the density is ``(2/pi) e sum_j (-1/4)^j e^{2j}``
    below 0 and ``(1/pi) e sum_j c_j e^j`` above, where ``c_0 = 1``,
    ``c_1 = 1/2`` and ``c_j = c_{j-1}/2 - c_{j-2}/8``; termwise,
    ``int_0^inf z^k e^{-n z} dz = k! / n^{k+1}``.  The terms shrink like
    ``4^{-j}`` and ``2^{-3j/2}``, so 60 of them exhaust double precision.
    """
    j = np.arange(60.0)
    c = [1.0, 0.5]
    while len(c) < j.size:
        c.append(c[-1] / 2.0 - c[-2] / 8.0)
    lower = 2.0 / math.pi * (-1) ** k * np.sum((-0.25) ** j * (2.0 * j + 1.0) ** -(k + 1.0))
    upper = np.sum(np.array(c) * (j + 1.0) ** -(k + 1.0)) / math.pi
    return math.factorial(k) * float(lower), math.factorial(k) * float(upper)


# ---------------------------------------------------------------------------
# Gaussian-Rayleigh scale mixture (Laplace kernel)
# ---------------------------------------------------------------------------

def mixture_kernel_pdf(params: ArctanGRParams, x):
    """Closed form of the Gaussian-Rayleigh scale mixture density.

    ``exp(-|x - omega| / psi) / (2 psi)`` -- a Laplace density with location
    ``omega`` and scale ``psi``.
    """
    return match_input(x, _half_exp(_standardize(params, x)) / params.psi)


def mixture_kernel_cdf(params: ArctanGRParams, x):
    return match_input(x, _laplace_cdf(_standardize(params, x)))


def mixture_kernel_logpdf(params: ArctanGRParams, x):
    return match_input(x, -np.abs(_standardize(params, x)) - math.log(2.0 * params.psi))


def mixture_kernel_quantile(params: ArctanGRParams, p):
    arr = _checked_prob(p)
    z = np.where(arr < 0.5, np.log(2.0 * arr), -np.log(2.0 * (1.0 - arr)))
    return match_input(p, params.omega + params.psi * z)


def mixture_kernel_pdf_by_integration(params: ArctanGRParams, x):
    """Evaluate the scale-mixture density by direct numeric integration.

    Integrates the conditional Gaussian density against the Rayleigh weight
    over all scales, i.e. the definition of the mixture, without using the
    closed form.  Exists purely as a verification oracle for
    :func:`mixture_kernel_pdf`; the integration variable is rescaled by
    ``psi`` and the range is split at the integrand's saddle so adaptive
    quadrature cannot miss the mass.
    """
    arr = as_float_array(x, require_finite=True)
    if arr.ndim > 0:
        out = np.array([mixture_kernel_pdf_by_integration(params, float(v)) for v in arr])
        return out

    d = (float(arr) - params.omega) / params.psi
    dd = d * d

    def integrand(s):
        return math.exp(-dd / (2.0 * s * s) - 0.5 * s * s) if s > 0 else 0.0

    split = max(1.0, math.sqrt(abs(d)))
    total = 0.0
    for a, b in ((0.0, split), (split, np.inf)):
        value, _ = adaptive_quad(
            integrand, a, b, epsabs=1e-14, epsrel=1e-11, label="mixture kernel density"
        )
        total += value
    return match_input(x, total / (params.psi * math.sqrt(2.0 * math.pi)))


# ---------------------------------------------------------------------------
# BaseDistribution adapters for the generic arctan transform
# ---------------------------------------------------------------------------

def gaussian_base(params: GaussianParams) -> BaseDistribution:
    return BaseDistribution(
        cdf=lambda x: gaussian_cdf(params, x),
        pdf=lambda x: gaussian_pdf(params, x),
        support=(-np.inf, np.inf),
        param_count=2,
    )


def rayleigh_base(params: RayleighParams) -> BaseDistribution:
    return BaseDistribution(
        cdf=lambda x: rayleigh_cdf(params, x),
        pdf=lambda x: rayleigh_pdf(params, x),
        support=(0.0, np.inf),
        param_count=1,
    )


def mixture_kernel_base(params: ArctanGRParams) -> BaseDistribution:
    return BaseDistribution(
        cdf=lambda x: mixture_kernel_cdf(params, x),
        pdf=lambda x: mixture_kernel_pdf(params, x),
        support=(-np.inf, np.inf),
        param_count=2,
    )


# ---------------------------------------------------------------------------
# Arctan Gaussian-Rayleigh distribution
# ---------------------------------------------------------------------------

def agr_cdf(params: ArctanGRParams, x):
    """CDF of the AGR distribution; accepts +-inf and returns the limits."""
    return match_input(x, FOUR_OVER_PI * np.arctan(_laplace_cdf(_standardize(params, x))))


def agr_survival(params: ArctanGRParams, x):
    """Survival function ``1 - G(x)``, accurate deep into the upper tail."""
    return match_input(x, _z_sf(_standardize(params, x)))


def agr_pdf(params: ArctanGRParams, x):
    """Density of the AGR distribution (the derivative of :func:`agr_cdf`)."""
    return match_input(x, _z_pdf(_standardize(params, x)) / params.psi)


def agr_logpdf(params: ArctanGRParams, x):
    """Log density, written to avoid under/overflow far from the location."""
    z = _standardize(params, x, require_finite=True)
    return match_input(x, math.log(2.0 / (math.pi * params.psi)) + _z_log_shape(z))


def agr_cum_hazard(params: ArctanGRParams, x):
    """Cumulative hazard ``-log(survival)``; nondecreasing, 0 at -inf, inf only at +inf.

    Above the location the survival is ``(4/pi) arctan(y)`` with
    ``y = t/(2-t)``, ``t = e^{-z}/2``; taking the log of ``y`` analytically,
    ``-log(survival) = z + log(2(2-t)) - log(4/pi) - log(arctan(y)/y)``
    stays finite where the survival itself underflows.
    """
    z = _standardize(params, x)
    t = _half_exp(z)
    y = t / (2.0 - t)
    # arctan(y)/y = 1 - y^2/3 + ...; at y < 1e-8 it is 1 in double precision
    small = y < 1e-8
    safe_y = np.where(small, 1.0, y)
    ratio = np.where(small, 1.0, np.arctan(safe_y) / safe_y)
    upper = z + np.log(2.0 * (2.0 - t)) - math.log(FOUR_OVER_PI) - np.log(ratio)
    below = np.minimum(z, 0.0)
    return match_input(x, np.where(z >= 0.0, upper, -np.log(_z_sf(below))))


def agr_hazard(params: ArctanGRParams, x):
    """Hazard rate ``pdf / survival``; finite for all finite x.

    Above the location both pdf and survival decay like ``e^{-u}``; the
    shared factor is cancelled analytically so the hazard stays finite
    (tending to ``1/psi``) even where both underflow to zero.
    """
    z = _standardize(params, x)
    t = _half_exp(z)
    # t / arctan(t/(2-t)) -> 2 - t as t -> 0; switch before the ratio degrades
    small = t < 1e-8
    safe_t = np.where(small, 0.5, t)
    ratio = np.where(small, 2.0 - t, safe_t / np.arctan(safe_t / (2.0 - safe_t)))
    upper = ratio / (1.0 + (1.0 - t) ** 2)
    below = np.minimum(z, 0.0)
    return match_input(x, np.where(z >= 0.0, upper, _z_pdf(below) / _z_sf(below)) / params.psi)


def agr_quantile(params: ArctanGRParams, p):
    """Quantile function (inverse CDF) of the AGR distribution.

    Splits at ``P_STAR = G(omega)``: below it the result lies below the
    location, at or above it the upper-branch closed form applies.  Both
    branch formulas agree (value ``omega``) at the split.
    """
    return match_input(p, params.omega + params.psi * _z_quantile(_checked_prob(p)))


def agr_sample(params: ArctanGRParams, n, seed):
    """Draw ``n`` i.i.d. values by inverse-transform sampling.

    Randomness comes from numpy's seeded PCG64 generator
    (``np.random.default_rng(seed)``), so identical seeds reproduce the
    identical sequence on any platform.  For parallel Monte Carlo, split
    streams with ``np.random.SeedSequence(seed).spawn(k)`` and hand each
    child to its own generator; see :func:`arctangr.risk.mc_oracle`.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    rng = np.random.default_rng(seed)
    # random() lands in [0, 1); nudge an exact 0 into the domain of the quantile
    p = np.maximum(rng.random(int(n)), np.finfo(float).tiny)
    return agr_quantile(params, p)


def agr_moment(params: ArctanGRParams, r):
    """r-th raw moment ``E[X^r] = sum_k C(r,k) omega^(r-k) psi^k E[Z^k]``.

    Summed in increasing ``k`` from the exact ``k = 0`` term ``omega^r``.
    Raises :class:`DomainError` when the sum leaves the double range, which
    for the standard variable happens from ``r = 171`` on.
    """
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise DomainError(f"moment order r must be a positive integer, got {r!r}")
    omega, psi, r = params.omega, params.psi, int(r)
    try:
        total = omega**r
        for k in range(1, r + 1):
            total += math.comb(r, k) * omega ** (r - k) * psi**k * sum(_z_moment_parts(k))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"moment of order r={r} overflows double precision "
            f"at omega={omega!r}, psi={psi!r}"
        )
    return total


def agr_skewness(params: ArctanGRParams) -> float:
    """Quartile-based (Bowley) skewness; free of both location and scale."""
    q1, q2, q3 = _z_quantile(np.array([0.25, 0.5, 0.75]))
    return float((q1 + q3 - 2.0 * q2) / (q3 - q1))


def agr_kurtosis(params: ArctanGRParams) -> float:
    """Octile-based (Moors) kurtosis; free of both location and scale."""
    e1, q1, e3, e5, q3, e7 = _z_quantile(np.array([0.125, 0.25, 0.375, 0.625, 0.75, 0.875]))
    return float((e7 + e3 - e5 - e1) / (q3 - q1))
