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
(densities divide by ``psi``), evaluated in cache-sized blocks, on every
CPU for a large input, by :func:`arctangr._arrays.blockwise`; one number
is checked with ``math`` and passed to the kernel as an ``np.float64``,
with the bits of a 0-d array.
Where a formula has two sides, a kernel picks each element's side by
blending bits (:func:`_select`), on every array, not by a branch per
element.  This module holds array kernels only: the float functions of
``Z`` (the raw moments, and Bowley's skewness and Moors' kurtosis) live in
:mod:`arctangr.tail`, beside the density's series, and are re-exported here.

All operations are pure; the sampler takes an explicit seed, so callers own
all randomness (see :func:`agr_sample` for the stream-splitting convention).
"""

from __future__ import annotations

import math

import numpy as np

from ._arrays import SCALARS, as_float_array, blockwise, float_array, generator, match_input
from ._util import is_integer
from .arctanx import BaseDistribution
from .errors import DomainError
from .tail import (
    _PI_OVER_4,
    FOUR_OVER_PI,
    P_STAR,
    ArctanGRParams,
    GaussianParams,
    RayleighParams,
)
from .tail import agr_kurtosis, agr_moment, agr_skewness  # noqa: F401 (re-exported)

_TINY = float(np.finfo(float).tiny)
_HALF_MAX = 2.0 ** 1023
_SIGN_BIT = np.int64(-(2**63))


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
    out = _select(arr > 0, z / params.psi * np.exp(-0.5 * z * z), 0.0)
    return match_input(x, out)


def rayleigh_cdf(params: RayleighParams, x):
    arr = as_float_array(x)
    z = np.maximum(arr, 0.0) / params.psi
    return match_input(x, -np.expm1(-0.5 * z * z))


def rayleigh_quantile(params: RayleighParams, p):
    arr = _checked_prob(p)
    return match_input(p, params.psi * np.sqrt(-2.0 * np.log1p(-arr)))


def rayleigh_logpdf(params: RayleighParams, x):
    """Log density ``log(z/psi) - z^2/2``, ``z = x/psi``; ``-inf`` off the support
    (x <= 0).  Where ``z/psi`` underflows (a point far below ``psi``), or
    reaches 2^1023 (which a subnormal ``psi`` can bring about; ``z`` is capped
    there, so it never overflows), the log is taken as ``log x - 2 log psi``,
    so it stays finite; elsewhere it keeps its bits."""
    arr = as_float_array(x)
    psi = params.psi
    pos = _lanes(arr > 0)
    safe = _select(pos, arr, 1.0)
    z = safe / psi
    ratio = np.minimum(z, float(psi) * _HALF_MAX) / psi
    far = _lanes((ratio < _TINY) | (ratio >= _HALF_MAX))
    log_ratio = np.log(_select(far, 1.0, ratio))
    if np.any(far):
        log_ratio = _select(far, np.log(safe) - 2.0 * math.log(psi), log_ratio)
    out = _select(pos, log_ratio - 0.5 * z * z, -np.inf)
    return match_input(x, out)


def _checked_prob(p):
    if type(p) in SCALARS:
        try:
            v = float(p)
        except OverflowError as exc:  # an int beyond the doubles
            raise DomainError(f"p must hold real numbers: {exc}") from None
        if not 0.0 < v < 1.0:
            if math.isnan(v):
                raise DomainError("p must not contain NaN")
            raise DomainError("p must lie strictly inside (0, 1)")
        return np.float64(v)
    arr = float_array(p, "p")
    # min and max are NaN if any element is, so one range check also fails on
    # NaN; only then is there a NaN scan, to name the fault
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        as_float_array(arr, name="p")
        raise DomainError("p must lie strictly inside (0, 1)")
    return arr


# ---------------------------------------------------------------------------
# Standard-variable kernels of Z = (X - omega) / psi
# ---------------------------------------------------------------------------

def _on_z(params: ArctanGRParams, x, kernel, require_finite=False, per_psi=False):
    """``kernel((x - omega) / psi)`` elementwise over ``x``, divided in place by
    ``psi`` if ``per_psi`` (a density or a rate in ``x``); a float for a scalar."""
    arr = as_float_array(x, require_finite=require_finite)

    def fn(v):
        z = v - params.omega
        z /= params.psi
        r = kernel(z)
        if per_psi:
            r /= params.psi
        return r

    return match_input(x, blockwise(fn, arr))


def _on_p(params: ArctanGRParams, p, kernel):
    """``omega + psi * kernel(p)`` elementwise over checked probabilities ``p``."""
    arr = _checked_prob(p)
    return match_input(p, blockwise(lambda q: _from_z(params, kernel(q)), arr))


def _from_z(params: ArctanGRParams, z):
    """``omega + psi * z``, scaled and shifted in place in ``z``."""
    z *= params.psi
    z += params.omega
    return z


# The kernels below do not branch per element.  Where a formula has two sides
# (z >= 0 or not, p below P_STAR or not), :func:`_select` picks each element's
# side by bit masks: ``np.where`` on a mask of random signs mispredicts a
# branch per element, which costs more than an ``exp``.  The quantiles select
# the argument of each transcendental first, so an element passes through its
# own side's ``tan`` and ``log`` only.  Each element still meets its own side's
# ufuncs in the same order as under ``np.where``, so every result keeps its
# bits.  On arrays the kernels work in place on temporaries they allocate
# themselves, never on a caller's array; a scalar or 0-d input runs the same
# steps on numpy scalars.


def _is_array(mask):
    """Whether ``mask`` is an array of at least one dimension; a bool scalar is
    not (nor a 0-d array), and is told apart ~10x faster than by ``np.ndim``."""
    return isinstance(mask, np.ndarray) and mask.ndim > 0


def _inplace(ufunc, *args):
    """``ufunc(*args)``, written over the last argument when it is an array (a
    kernel's own temporary); a scalar gets a new scalar."""
    x = args[-1]
    return ufunc(*args, out=x) if _is_array(x) else ufunc(*args)


def _lanes(mask):
    """A bool array ``mask`` as the int64 lanes :func:`_select` blends with: all
    bits set (-1) where it holds, none (0) where not.  Lanes, and a scalar
    mask, stay as they are."""
    if not _is_array(mask) or mask.dtype == np.int64:
        return mask
    k = mask.astype(np.int64)
    return np.negative(k, out=k)


def _select(mask, a, b, out=None):
    """``np.where(mask, a, b)``, bit for bit, without a branch per element.

    For an array ``mask`` (bool, or already as :func:`_lanes`) the float bits
    are blended as int64, at any length: ``((a ^ b) & k) ^ b`` is ``a`` where
    ``k`` is -1 and ``b`` where it is 0.  ``out`` may be ``a``'s buffer (never
    ``b``'s); the result is returned either way.  A scalar mask picks ``a`` or
    ``b`` as a numpy scalar, a copy that is safe to work on (``np.where``
    would give a 0-d array, whose arithmetic costs ten times more)."""
    if not _is_array(mask):
        return np.float64(a if mask else b)
    mask = _lanes(mask)
    bits = np.asarray(b, dtype=float).view(np.int64)
    r = np.bitwise_xor(np.asarray(a, dtype=float).view(np.int64), bits,
                       out=None if out is None else out.view(np.int64))
    r &= mask
    r ^= bits
    return r.view(float)


def _negate(mask, x):
    """``_select(mask, -x, x)``, in place in an array ``x``: ``-x`` is ``x`` with
    its sign bit flipped, so the mask's lanes, cut to the sign bit, are xored
    into ``x``'s bits (two passes where a select takes four)."""
    mask = _lanes(mask)
    if not _is_array(mask):
        return _select(mask, -x, x)
    bits = x.view(np.int64)
    bits ^= np.bitwise_and(mask, _SIGN_BIT)
    return x


def _half_exp(z):
    """``e^{-|z|} / 2``: the standard Laplace density, and its tail on either side."""
    return 0.5 * np.exp(-np.abs(z))


def _z_uw(z):
    """``(u, w)``: ``u = e^{-|z|}`` and the standard Laplace CDF ``w = H(z)``, which
    is ``1 - u/2`` for z >= 0 and ``u/2`` below.  ``w`` is continuous at 0 with
    ``w' = u/2`` on both sides; the AGR log-shape (:func:`_z_log_shape`) and
    its derivatives (the fit's score pass) are written in these two."""
    u = _inplace(np.exp, _inplace(np.negative, np.abs(z)))
    h = u * 0.5
    w = 1.0 - h
    return u, _select(z >= 0.0, w, h, out=w)


def _laplace_cdf(z):
    """Standard Laplace CDF: ``1 - e^{-z}/2`` for z >= 0, ``e^{z}/2`` below."""
    return _z_uw(z)[1]


def _laplace_quantile(p):
    """Standard Laplace quantile, the inverse of :func:`_laplace_cdf`:
    ``log(2p)`` below 1/2 and ``-log(2(1 - p))`` from there, one ``log`` each."""
    upper = _lanes(p >= 0.5)
    a = 1.0 - p
    a = _select(upper, a, p, out=a)
    a *= 2.0
    return _negate(upper, _inplace(np.log, a))


def _z_cdf(z):
    """Standard AGR CDF: the arctan transform ``(4/pi) arctan(H)`` of Laplace."""
    w = _inplace(np.arctan, _laplace_cdf(z))
    w *= FOUR_OVER_PI
    return w


def _z_sf(z):
    """Standard AGR survival; above 0 it is ``arctan(t/(2-t)) = pi/4 - arctan(1-t)``,
    which stays accurate where ``1 - cdf`` cancels (survival below ~1e-16)."""
    upper = _lanes(z >= 0.0)
    t = _half_exp(z)
    y = _inplace(np.divide, t, 2.0 - t)
    y = _inplace(np.arctan, _select(upper, y, t, out=y))
    del t
    y *= FOUR_OVER_PI
    return _select(upper, y, 1.0 - y, out=y)


def _z_pdf(z):
    """Standard AGR density: the arctan transform ``(4/pi) h / (1 + H^2)`` of Laplace."""
    u, w = _z_uw(z)
    u *= 0.5
    u *= FOUR_OVER_PI
    w *= w
    w += 1.0
    u /= w
    return u


def _z_cum_hazard(z):
    """Standard AGR cumulative hazard ``-log(survival)``; see :func:`agr_cum_hazard`.
    Below 0 it is ``-log1p(-cdf)``, on the lower tail's accurate CDF.  As in
    :func:`_z_hazard`, the side below 0 comes first and each temporary is
    dropped once read."""
    below = np.minimum(z, 0.0)
    lower = _inplace(np.negative, _inplace(np.log1p, _inplace(np.negative, _z_cdf(below))))
    del below
    t = _half_exp(z)
    y = _inplace(np.divide, t, 2.0 - t)
    # arctan(y)/y = 1 - y^2/3 + ...; at y < 1e-8 it is 1 in double precision
    small = _lanes(y < 1e-8)
    safe_y = _select(small, 1.0, y)
    del y
    ratio = np.arctan(safe_y)
    ratio /= safe_y
    del safe_y
    ratio = _select(small, 1.0, ratio)
    del small
    upper = _inplace(np.log, 2.0 * (2.0 - t))
    del t
    upper += z
    upper -= math.log(FOUR_OVER_PI)
    upper -= _inplace(np.log, ratio)
    return _select(z >= 0.0, upper, lower, out=upper)


def _z_hazard(z):
    """Standard AGR hazard ``g / (1 - G)``; see :func:`agr_hazard`.  The side
    below 0 comes first, each temporary is dropped once read and the
    quotients are written over their divisors, so a block holds about 6
    blocks' worth at once, its input included (see
    :data:`arctangr._arrays.CHUNK`)."""
    below = np.minimum(z, 0.0)
    lower = _z_pdf(below)
    lower /= _z_sf(below)
    del below
    t = _half_exp(z)
    # t / arctan(t/(2-t)) -> 2 - t as t -> 0; switch before the ratio degrades
    small = _lanes(t < 1e-8)
    safe_t = _select(small, 0.5, t)
    ratio = _inplace(np.arctan, _inplace(np.divide, safe_t, 2.0 - safe_t))
    ratio = _inplace(np.divide, safe_t, ratio)
    del safe_t
    near = 2.0 - t
    upper = _select(small, near, ratio, out=near)
    del small, ratio
    upper /= 1.0 + (1.0 - t) ** 2
    del t
    return _select(z >= 0.0, upper, lower, out=upper)


def _z_log_shape(z):
    """``L(z) = log g(z) - log(2/pi) = -|z| - log1p(w^2)``, the standard AGR
    log-density less its constant, with ``w = H(z)`` from :func:`_z_uw`; one
    ``exp`` and one ``log1p``, and neither under- nor overflows far from 0."""
    _, w = _z_uw(z)
    w *= w
    shape = _inplace(np.negative, np.abs(z))
    shape -= _inplace(np.log1p, w)
    return shape


def _z_tail_quantile(q):
    """Standard quantile at tail probability ``q = 1 - p <= 1 - P_STAR``: equal to
    ``-log(2*(1 - tan(pi*(1-q)/4)))`` without its cancellation as ``q -> 0``.
    An array ``q`` is a temporary handed over: the result is written over it."""
    q *= _PI_OVER_4
    t = _inplace(np.tan, q)
    d = 1.0 + t
    t *= 4.0
    t /= d
    return _inplace(np.negative, _inplace(np.log, t))


def _z_quantile(p):
    """Standard AGR quantile; the branches split at ``P_STAR``, where both give 0.

    Below it ``log(2 tan(pi p/4))``, from it :func:`_z_tail_quantile` at
    ``1 - p``; per element one ``tan`` and one ``log``, on the selected
    argument each time."""
    upper = _lanes(p >= P_STAR)
    # 1 - p is exact for p >= 1/2, so the tail form loses nothing here
    a = 1.0 - p
    a = _select(upper, a, p, out=a)
    a *= _PI_OVER_4
    t = _inplace(np.tan, a)
    tail = t * 4.0
    tail /= 1.0 + t
    t *= 2.0
    return _negate(upper, _inplace(np.log, _select(upper, tail, t, out=tail)))


# ---------------------------------------------------------------------------
# Gaussian-Rayleigh scale mixture (Laplace kernel)
# ---------------------------------------------------------------------------

def mixture_kernel_pdf(params: ArctanGRParams, x):
    """Closed form of the Gaussian-Rayleigh scale mixture density.

    ``exp(-|x - omega| / psi) / (2 psi)`` -- a Laplace density with location
    ``omega`` and scale ``psi``.
    """
    return _on_z(params, x, _half_exp, per_psi=True)


def mixture_kernel_cdf(params: ArctanGRParams, x):
    return _on_z(params, x, _laplace_cdf)


def mixture_kernel_logpdf(params: ArctanGRParams, x):
    """Log density ``-|z| - log(2 psi)``; where ``2 psi`` overflows (psi above
    ~9e307) the constant is taken as ``log 2 + log psi``, so it is finite at
    every scale and unchanged, bit for bit, below."""
    psi = params.psi
    log_c = math.log(2.0 * psi) if 2.0 * psi < math.inf else math.log(2.0) + math.log(psi)
    return _on_z(params, x, lambda z: -np.abs(z) - log_c)


def mixture_kernel_quantile(params: ArctanGRParams, p):
    return _on_p(params, p, _laplace_quantile)


# ---------------------------------------------------------------------------
# BaseDistribution adapters for the generic arctan transform
# ---------------------------------------------------------------------------

def gaussian_base(params: GaussianParams) -> BaseDistribution:
    return BaseDistribution(
        cdf=lambda x: gaussian_cdf(params, x),
        pdf=lambda x: gaussian_pdf(params, x),
        support=(-np.inf, np.inf),
    )


def rayleigh_base(params: RayleighParams) -> BaseDistribution:
    return BaseDistribution(
        cdf=lambda x: rayleigh_cdf(params, x),
        pdf=lambda x: rayleigh_pdf(params, x),
        support=(0.0, np.inf),
    )


def mixture_kernel_base(params: ArctanGRParams) -> BaseDistribution:
    return BaseDistribution(
        cdf=lambda x: mixture_kernel_cdf(params, x),
        pdf=lambda x: mixture_kernel_pdf(params, x),
        support=(-np.inf, np.inf),
    )


# ---------------------------------------------------------------------------
# Arctan Gaussian-Rayleigh distribution
# ---------------------------------------------------------------------------

def agr_cdf(params: ArctanGRParams, x):
    """CDF of the AGR distribution; accepts +-inf and returns the limits."""
    return _on_z(params, x, _z_cdf)


def agr_survival(params: ArctanGRParams, x):
    """Survival function ``1 - G(x)``, accurate deep into the upper tail."""
    return _on_z(params, x, _z_sf)


def agr_pdf(params: ArctanGRParams, x):
    """Density of the AGR distribution (the derivative of :func:`agr_cdf`)."""
    return _on_z(params, x, _z_pdf, per_psi=True)


def agr_logpdf(params: ArctanGRParams, x):
    """Log density, written to avoid under/overflow far from the location and,
    as ``log(2/pi) - log(psi)``, at every scale (``pi * psi`` can overflow)."""
    log_c = math.log(2.0 / math.pi) - math.log(params.psi)
    return _on_z(params, x, lambda z: log_c + _z_log_shape(z), require_finite=True)


def agr_cum_hazard(params: ArctanGRParams, x):
    """Cumulative hazard ``-log(survival)``; nondecreasing, 0 at -inf, inf only at +inf.

    Above the location the survival is ``(4/pi) arctan(y)`` with
    ``y = t/(2-t)``, ``t = e^{-z}/2``; taking the log of ``y`` analytically,
    ``-log(survival) = z + log(2(2-t)) - log(4/pi) - log(arctan(y)/y)``
    stays finite where the survival itself underflows.
    """
    return _on_z(params, x, _z_cum_hazard)


def agr_hazard(params: ArctanGRParams, x):
    """Hazard rate ``pdf / survival``; finite for all finite x.

    Above the location both pdf and survival decay like ``e^{-u}``; the
    shared factor is cancelled analytically so the hazard stays finite
    (tending to ``1/psi``) even where both underflow to zero.
    """
    return _on_z(params, x, _z_hazard, per_psi=True)


def agr_quantile(params: ArctanGRParams, p):
    """Quantile function (inverse CDF) of the AGR distribution.

    Splits at ``P_STAR = G(omega)``: below it the result lies below the
    location, at or above it the upper-branch closed form applies.  Both
    branch formulas agree (value ``omega``) at the split.
    """
    return _on_p(params, p, _z_quantile)


def agr_sample(params: ArctanGRParams, n, seed):
    """Draw ``n`` i.i.d. values by inverse-transform sampling.

    Randomness comes from numpy's seeded PCG64 generator
    (``np.random.default_rng(seed)``), so identical seeds reproduce the
    identical sequence on any platform.  The ``n`` uniforms are drawn at
    once into the output, which :func:`arctangr._arrays.blockwise` maps in
    place, so the draws are exactly
    ``agr_quantile(params, max(rng.random(n), tiny))``, on any number of
    CPUs, and no second array of ``n`` is made.
    ``seed`` may also be a ``np.random.SeedSequence``: independent streams
    are the children of one, as the CLI gives each level's
    :func:`arctangr.risk.mc_oracle` its own.
    """
    if not (is_integer(n) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    u = generator(seed).random(int(n))
    # random() lands in [0, 1); an exact 0 is nudged into the quantile's domain
    return blockwise(lambda p: _from_z(params, _z_quantile(np.maximum(p, _TINY))), u, out=u)
