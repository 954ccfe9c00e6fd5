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

Each formula is one private kernel of ``z``.  The Gaussian, Laplace
(``mixture_kernel_*``) and AGR functions share one standardization: each
maps a kernel affinely by :func:`_on_z` or :func:`_on_p`, which form
``z = (x - omega) / scale`` by :func:`_z` (the one place a location is
subtracted, which keeps ``z`` finite where ``x - omega`` overflows) and
``x = omega + scale * z`` by :func:`_from_z` (densities divide by the
scale; halved where ``scale * z`` can overflow).  Rayleigh, a scale family
on ``x > 0`` whose support test and log fallback read ``x`` itself, has
kernels of ``x`` instead, and its quantile is :func:`_on_p`'s at location 0.
Every function takes its input by one checked walk,
:func:`arctangr._arrays.elementwise` (or :func:`_on_p`'s, for
probabilities): the input is checked once and evaluated in cache-sized
blocks, on every CPU for a large input (see :func:`arctangr._arrays.walk`),
each kernel writing its last ufunc straight into its block of the output;
one number is checked with ``math`` and passed to the kernel as an
``np.float64``, with the bits of a 0-d array.
Where a formula has two sides, a kernel picks each element's side without a
branch per element, by exact arithmetic on a side of 1.0 or 0.0
(:func:`_above`; :func:`_pick` between two finite values).  This module
holds array kernels only: the float functions of ``Z`` (the raw moments,
and Bowley's skewness and Moors' kurtosis) live in :mod:`arctangr.tail`,
beside the density's series, and are re-exported here.

All operations are pure; the sampler takes an explicit seed, so callers own
all randomness (see :func:`agr_sample` for the stream-splitting convention).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import _arrays
from ._arrays import as_float_array, blockwise, float_array, generator, is_number, match_input
from ._util import HALF_MAX, TINY, WIDE_LOCATION, is_integer
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

_WIDE_SCALE = 2.0 ** 1014
_SIGN_BIT = np.int64(-(2**63))
_LEAST = math.ulp(0.0)  # 5e-324, the least positive double
_MAX = float(np.finfo(float).max)


# ---------------------------------------------------------------------------
# Gaussian and Rayleigh closed forms
# ---------------------------------------------------------------------------

def gaussian_pdf(params: GaussianParams, x):
    return _on_z(params.omega, params.eta, x, _normal_pdf(params.eta))


def _normal_pdf(eta):
    """The Gaussian density as a kernel of ``z``: ``e^{-z^2/2} / (eta sqrt(2 pi))``."""
    c = eta * math.sqrt(2 * math.pi)
    return lambda z, out=None: _last(np.divide, np.exp(-0.5 * z * z), c, out)


def gaussian_cdf(params: GaussianParams, x):
    return _on_z(params.omega, params.eta, x, _ndtr)


def _ndtr(z, out=None):
    """The standard normal CDF, written over an array ``z`` (a temporary)."""
    from scipy.special import ndtr

    return _inplace(ndtr, z, out=out)


def gaussian_quantile(params: GaussianParams, p):
    from scipy.special import ndtri

    return _on_p(params.omega, params.eta, p, ndtri)


def gaussian_logpdf(params: GaussianParams, x):
    log_eta, half_log_2pi = math.log(params.eta), 0.5 * math.log(2 * math.pi)
    return _on_z(params.omega, params.eta, x,
                 lambda z, out=None: _last(np.subtract, -0.5 * z * z - log_eta, half_log_2pi, out))


def rayleigh_pdf(params: RayleighParams, x):
    """Density ``(z/psi) e^{-z^2/2}``, ``z = max(x, 0)/psi``, which is +0 at
    every ``x <= 0``, -0 included.  Where ``z/psi`` overflows (a ``psi``
    below ~2e-307) the density may still be a double, and is taken as
    ``(z e^{-z^2/2})/psi``, formed only in the blocks that hold such a point
    and picked by :func:`_pick` against ``z/psi`` capped at the largest
    double; elsewhere it keeps its bits.  An overflow warning means that the
    density itself overflows.  Where ``z`` overflows too (at x = inf, or at
    a subnormal ``psi``) that is ``inf * 0``, taken as the density's limit,
    0."""
    psi = params.psi

    def kernel(v, out=None):
        z = np.maximum(v, 0.0) / psi
        e = _inplace(np.exp, -0.5 * z * z)
        with np.errstate(over="ignore"):  # the fallback warns if the density overflows
            q = z / psi
        if q.max(initial=0.0) < math.inf:
            return _last(np.multiply, q, e, out)
        over = _above(q, math.inf)
        with np.errstate(invalid="ignore"):  # inf * 0 where z overflows
            z *= e
        z /= psi
        r = _pick(over, z, _inplace(np.minimum, _MAX, q) * e)
        return np.fmax(r, 0.0, out=_dest(r, out))

    return _arrays.elementwise(kernel, x)


def rayleigh_cdf(params: RayleighParams, x):
    def kernel(v, out=None):
        z = np.maximum(v, 0.0) / params.psi
        return _inplace(np.negative, _inplace(np.expm1, -0.5 * z * z), out=out)

    return _arrays.elementwise(kernel, x)


def rayleigh_quantile(params: RayleighParams, p):
    """``psi sqrt(-2 log(1 - p))``: :func:`_on_p` at location 0, whose
    ``psi z + 0`` is ``psi z`` for every ``z >= +0``."""
    return _on_p(0.0, params.psi, p, lambda q: _inplace(np.sqrt, -2.0 * _inplace(np.log1p, -q)))


def rayleigh_logpdf(params: RayleighParams, x):
    """Log density ``log(z/psi) - z^2/2``, ``z = x/psi``; ``-inf`` off the support
    (x <= 0) and at x = inf.  Where ``z/psi`` underflows (a point far below
    ``psi``), or reaches 2^1023 (which a subnormal ``psi`` can bring about;
    ``z`` is capped there, so it never overflows), the log is taken as
    ``log x - 2 log psi``, so it stays finite; elsewhere it keeps its bits.
    In a block that holds a far point, both logs are taken on every element,
    each on an argument clamped into the doubles, so that it is finite where
    it is dropped (and the fallback at x = inf, where the sum is then -inf,
    not ``inf - inf``), and :func:`_pick` chooses."""
    psi = params.psi

    def kernel(v, out=None):
        on = _above(v, _LEAST)  # x > 0
        # x on the support and 1 off it: the least double is lost in 1 + 5e-324
        z = (np.maximum(v, _LEAST) + (1.0 - on)) / psi
        ratio = np.minimum(z, psi * HALF_MAX) / psi
        if TINY <= ratio.min(initial=TINY) and ratio.max(initial=TINY) < HALF_MAX:
            log_ratio = _inplace(np.log, ratio)
        else:
            near = _above(ratio, TINY)  # ratio in [TINY, HALF_MAX)
            near -= _above(ratio, HALF_MAX)
            # log x on the support, where it may be kept; finite off it
            far = _inplace(np.log, np.clip(v, _LEAST, _MAX))
            far -= 2.0 * math.log(psi)
            ratio = np.clip(ratio, TINY, HALF_MAX, out=_dest(ratio))
            log_ratio = _pick(near, _inplace(np.log, ratio), far)
            del near, far
        log_ratio -= 0.5 * z * z
        # -inf off the support: the least with +inf on it and with -inf off it
        return np.minimum(log_ratio, (on - 0.5) * np.inf, out=_dest(log_ratio, out))

    return _arrays.elementwise(kernel, x)


def _checked_prob(p):
    if is_number(p):
        v = as_float_array(p, "p")
        if 0.0 < v < 1.0:
            return v
    else:
        arr = float_array(p, "p")
        # min and max are NaN if any element is, so one range check also fails
        # on NaN; only then is there a NaN scan, to name the fault
        if not arr.size or (arr.min() > 0.0 and arr.max() < 1.0):
            return arr
        as_float_array(arr, name="p")
    raise DomainError("p must lie strictly inside (0, 1)")


# ---------------------------------------------------------------------------
# Standard-variable kernels of Z = (X - omega) / psi
# ---------------------------------------------------------------------------

def _z(omega, scale, v):
    """``(v - omega) / scale``, a new temporary: the one standardization of
    every location-scale kernel.  Below ``|omega| = 2^970`` no finite ``v``
    makes ``v - omega`` overflow (``|v| + |omega|`` stays below
    ``2^1024 - 2^970``, where rounding reaches inf).  From there on it can
    while ``z`` is finite (``v = 1.7e308``, ``omega = -1.7e308`` and
    ``scale = 1e300`` give ``z = 3.4e8``), so ``z`` is formed as
    ``((v/2 - omega/2) / scale) * 2``: there ``v - omega`` is 0 or at least
    2^917 in magnitude, so halving and doubling it, and its quotient, are
    exact, and the halved form has the direct one's bits wherever that one
    does not overflow.  The test is one comparison per call."""
    if abs(omega) >= WIDE_LOCATION:
        return (v * 0.5 - omega * 0.5) / scale * 2.0
    z = v - omega
    z /= scale
    return z


def _on_z(omega, scale, x, kernel, require_finite=False, per_scale=False):
    """``kernel(_z(omega, scale, x))`` elementwise over checked ``x``, divided
    by ``scale`` if ``per_scale`` (a density or a rate in ``x``); a float for
    a scalar.  Every Gaussian, Laplace and AGR function of ``x`` is one call
    of it.  :func:`arctangr._arrays.elementwise` hands each block its block
    of the output as ``out``, where the last ufunc writes: the kernel's, or
    the division by ``scale``."""

    def fn(v, out=None):
        z = _z(omega, scale, v)
        if not per_scale:
            return kernel(z, out=out)
        return _last(np.divide, kernel(z), scale, out)

    return _arrays.elementwise(fn, x, require_finite)


def _on_p(omega, scale, p, kernel):
    """``_from_z(omega, scale, kernel(p))`` elementwise over checked
    probabilities ``p``: every quantile.  On a bulk input ``_from_z`` writes
    each block into its block of the output."""
    arr = _checked_prob(p)
    return match_input(p, blockwise(lambda q, out=None: _from_z(omega, scale, kernel(q), out),
                                    arr))


def _from_z(omega, scale, z, out=None):
    """``omega + scale * z``, scaled and shifted in place in ``z`` (or into
    ``out``).  Every quantile kernel gives ``|z| < 2^10`` (745 at most), so
    ``scale * z`` can overflow only from ``scale = 2^1014`` on, where the
    sum may still be finite (``omega = -1.7e308``, ``scale = 1.7e308``,
    ``z = 1.5`` give 8.5e307).  There, and while ``omega/2`` is exact
    (``|omega| >= 2^-1021``), it is formed as ``(omega/2 + (scale/2) z) * 2``:
    ``scale * z`` is 0 or at least 2^-60 in magnitude, so every halving and
    the doubling are exact, and the halved form has the direct one's bits
    wherever that one does not overflow.  A tinier ``omega`` cannot bring
    an overflowing product back to the doubles, so the direct form serves;
    it also keeps ``omega`` itself, a subnormal one too, where ``z = 0``.
    The test is one comparison per call."""
    if scale >= _WIDE_SCALE and abs(omega) >= 2.0 * TINY:
        z *= scale * 0.5
        z += omega * 0.5
        return _last(np.multiply, z, 2.0, out)
    z *= scale
    return _last(np.add, z, omega, out)


# The kernels below do not branch per element: ``np.where`` on a mask of
# random signs mispredicts a branch per element, which costs more than an
# ``exp``.  Where a formula has two sides (z >= 0 or not, p below P_STAR or
# not), every kernel reads the side as a float ``c``, 1.0 or 0.0, and picks
# by steps that are exact on either value (``|c - h|`` is ``1 - h`` or ``h``,
# ``t * (2 + 2c)`` is ``4t`` or ``2t``, a product by ``1 - 2c`` flips a sign
# or keeps it, and ``c a + (1 - c) b`` is ``a`` or ``b`` for finite ``a``
# and ``b``, :func:`_pick`), a float pass each, where a blend of int64 bits
# takes three integer passes and its mask three more.  A side whose formula
# is not finite on the other side is formed there on a clamped argument
# (``max(z, 0)``, ``max(t, 1e-8)``).  The quantiles select the argument of
# each transcendental first, so an element passes through its own side's
# ``tan`` and ``log`` only.  Each element's result has the bits of its own
# side's ufuncs under ``np.where``.
# On arrays the kernels work in place on temporaries they allocate
# themselves, never on a caller's array; a scalar or 0-d input runs the same
# steps on numpy scalars.  A kernel with an ``out`` writes its last ufunc
# there (a walk's output block), else over its own temporary.


def _is_array(mask):
    """Whether ``mask`` is an array of at least one dimension; a bool scalar is
    not (nor a 0-d array), and is told apart ~10x faster than by ``np.ndim``."""
    return isinstance(mask, np.ndarray) and mask.ndim > 0


def _dest(temp, out=None):
    """Where a kernel writes its result: ``out`` if given, else over its own
    temporary ``temp`` if that is an array; ``None`` (a new scalar) for a
    scalar."""
    if out is not None:
        return out
    return temp if _is_array(temp) else None


def _inplace(ufunc, *args, out=None):
    """``ufunc(*args)``, written into ``out`` if given, else over the last
    argument when it is an array (a kernel's own temporary); a scalar gets a
    new scalar."""
    return ufunc(*args, out=_dest(args[-1], out))


#: The in-place operator of each ufunc that :func:`_last` runs.
_IN_PLACE = {np.add: operator.iadd, np.subtract: operator.isub, np.multiply: operator.imul,
             np.divide: operator.itruediv}


def _last(ufunc, a, b, out=None):
    """A kernel's last step ``ufunc(a, b)``: into ``out`` if given, else as
    ``a op= b``, over ``a`` (a kernel's own temporary) or on a numpy scalar,
    whose operator is numpy's scalar arithmetic, not a ufunc call."""
    return _IN_PLACE[ufunc](a, b) if out is None else ufunc(a, b, out=out)


def _above(x, level=0.0):
    """``x >= level`` as 1.0, and 0.0 below (-0 counts as 0): the side a
    two-sided kernel reads, to choose by exact arithmetic."""
    return np.asarray(x >= level, dtype=float)


def _pick(c, a, b, out=None):
    """``a`` where :func:`_above`'s side ``c`` is 1.0 and ``b`` where it is
    0.0, as ``c a + (1 - c) b``, written over ``c``, ``a`` and ``b`` (a
    kernel's own temporaries) and into ``out`` if given.  It is exact where
    ``a`` and ``b`` are finite and neither is -0: each product is the value
    or a zero, and a zero added to a value that is not -0 keeps its bits.
    (An infinite side may be kept, but one dropped would give NaN.)"""
    a *= c
    b *= _inplace(np.subtract, 1.0, c)
    return _last(np.add, a, b, out)


def _minus_abs(z):
    """``-|z|``, a new temporary: ``z`` with its sign bit set, one pass where
    ``abs`` and ``negative`` take two."""
    if not _is_array(z):
        return -abs(z)
    return np.bitwise_or(z.view(np.int64), _SIGN_BIT).view(float)


def _half_exp(z):
    """``e^{-|z|} / 2``: the standard Laplace density, and its tail on either side."""
    h = _inplace(np.exp, _minus_abs(z))
    h *= 0.5
    return h


def _complement(c, x, out):
    """``1 - x`` where ``c`` is 1 and ``x`` where it is 0, for ``x`` in
    [0, 1], bit for bit: ``|c - x|``, whose ``abs`` keeps ``1 - x`` and
    turns ``0 - x`` back into ``x``.  Written into ``out``, which may be
    ``x``'s buffer (``None``: a new array).  With :func:`_above`'s ``c`` and
    ``x = e^{-|z|}/2`` it is the standard Laplace CDF ``w = H(z)``."""
    return _inplace(np.abs, np.subtract(c, x, out=out))


def _laplace_cdf(z, out=None):
    """Standard Laplace CDF: ``1 - e^{-z}/2`` for z >= 0, ``e^{z}/2`` below."""
    h = _half_exp(z)
    return _complement(_above(z), h, out=_dest(h, out))


def _laplace_quantile(p):
    """Standard Laplace quantile, the inverse of :func:`_laplace_cdf`:
    ``log(2p)`` below 1/2 and ``-log(2(1 - p))`` from there, one ``log`` each.
    ``1 - p`` is exact from 1/2 on and at least 1/2 below, so the argument
    is ``min(p, 1 - p)``."""
    a = _inplace(np.minimum, p, 1.0 - p)
    a *= 2.0
    y = _inplace(np.log, a)
    # negated from 1/2 on: a product by 1 - 2c = -1 flips the sign bit alone
    y *= 1.0 - 2.0 * _above(p, 0.5)
    return y


def _z_cdf(z, out=None):
    """Standard AGR CDF: the arctan transform ``(4/pi) arctan(H)`` of Laplace."""
    h = _half_exp(z)
    w = _inplace(np.arctan, _complement(_above(z), h, out=_dest(h)), out=out)
    w *= FOUR_OVER_PI
    return w


def _z_sf(z, out=None):
    """Standard AGR survival; above 0 it is ``arctan(t/(2-t)) = pi/4 - arctan(1-t)``,
    which stays accurate where ``1 - cdf`` cancels (survival below ~1e-16).
    Each side is chosen by exact arithmetic on :func:`_above`'s ``c``: the
    divisor ``max(c (2 - t), 1)`` is ``2 - t`` (at least 3/2) from 0 on and
    1 below, and ``|(1 - c) - y|`` is ``y`` from 0 on and ``1 - y`` below."""
    c = _above(z)
    t = _half_exp(z)
    d = 2.0 - t
    d *= c
    d = _inplace(np.maximum, 1.0, d)
    t /= d
    y = _inplace(np.arctan, t)
    y *= FOUR_OVER_PI
    return _complement(_inplace(np.subtract, 1.0, c), y, out=_dest(y, out))


def _z_pdf(z, out=None):
    """Standard AGR density: the arctan transform ``(4/pi) h / (1 + H^2)`` of Laplace."""
    h = _half_exp(z)
    g = h * FOUR_OVER_PI
    w = _complement(_above(z), h, out=_dest(h))
    w *= w
    w += 1.0
    return _last(np.divide, g, w, out)


def _z_cum_hazard(z, out=None):
    """Standard AGR cumulative hazard ``-log(survival)``; see :func:`agr_cum_hazard`.
    Below 0 it is ``-log1p(-cdf)``, on the lower tail's accurate CDF.  As in
    :func:`_z_hazard`, the side below 0 comes first and each temporary is
    dropped once read."""
    below = np.minimum(z, 0.0)
    lower = _inplace(np.negative, _inplace(np.log1p, _inplace(np.negative, _z_cdf(below))))
    del below
    t = _half_exp(z)
    y = _inplace(np.divide, t, 2.0 - t)
    # arctan(y)/y = 1 - y^2/3 + ...; at y <= 1e-8 it is 1 in double precision,
    # as it is at y = 1e-8, where y is clamped (t/(2-t) may underflow to 0)
    y = _inplace(np.maximum, 1e-8, y)
    ratio = np.arctan(y)
    ratio /= y
    del y
    upper = _inplace(np.log, 2.0 * (2.0 - t))
    del t
    # on max(z, 0), so that the upper side is finite below 0, where it is dropped
    upper += np.maximum(z, 0.0)
    upper -= math.log(FOUR_OVER_PI)
    upper -= _inplace(np.log, ratio)
    return _pick(_above(z), upper, lower, out)


def _z_hazard(z):
    """Standard AGR hazard ``g / (1 - G)``; see :func:`agr_hazard`.  The side
    below 0 comes first, each temporary is dropped once read and the
    quotients are written over their divisors, so a block holds at most 6
    blocks' worth at once, its input included (see
    :data:`arctangr._arrays.CHUNK`), as :func:`_z_cum_hazard` does."""
    below = np.minimum(z, 0.0)
    lower = _z_pdf(below)
    lower /= _z_sf(below)
    del below
    t = _half_exp(z)
    # t / arctan(t/(2-t)) -> 2 - t as t -> 0; switch before the ratio degrades,
    # at t = 1e-8, where t is clamped
    s = np.maximum(t, 1e-8)
    ratio = _inplace(np.divide, s, _inplace(np.arctan, _inplace(np.divide, s, 2.0 - s)))
    del s
    upper = _pick(_above(t, 1e-8), ratio, 2.0 - t)
    upper /= 1.0 + (1.0 - t) ** 2
    del t
    return _pick(_above(z), upper, lower)


def _z_log_shape(z):
    """``L(z) = log g(z) - log(2/pi) = -|z| - log1p(w^2)``, the standard AGR
    log-density less its constant, with ``w = H(z)`` the standard Laplace
    CDF (:func:`_laplace_cdf`);
    one ``exp`` and one ``log1p``, and neither under- nor overflows far from
    0."""
    shape = _minus_abs(z)
    h = np.exp(shape)
    h *= 0.5
    w = _complement(_above(z), h, out=_dest(h))
    w *= w
    shape -= _inplace(np.log1p, w)
    return shape


def _z_tail_quantile(q, d=None):
    """Standard quantile at tail probability ``q = 1 - p <= 1 - P_STAR``: equal to
    ``-log(2*(1 - tan(pi*(1-q)/4)))`` without its cancellation as ``q -> 0``.
    An array ``q`` is a temporary handed over: the result is written over it,
    and its one temporary over ``d`` if given (an array of ``q``'s shape)."""
    q *= _PI_OVER_4
    t = _inplace(np.tan, q)
    d = np.add(1.0, t, out=d)
    t *= 4.0
    t /= d
    return _inplace(np.negative, _inplace(np.log, t))


def _z_quantile(p):
    """Standard AGR quantile; the branches split at ``P_STAR``, where both give 0.

    Below it ``log(2 tan(pi p/4))``, from it :func:`_z_tail_quantile` at
    ``1 - p``; per element one ``tan`` and one ``log``, on the selected
    argument each time."""
    # c is 1 from P_STAR on and 0 below; every step that reads it is exact
    c = _above(p, P_STAR)
    # 1 - p is exact for p >= 1/2, so the tail form loses nothing here
    a = _complement(c, p, out=None)
    a *= _PI_OVER_4
    t = _inplace(np.tan, a)
    # 4t / (1 + t) from P_STAR on and 2t / 1 = 2t below, by scalings by 2, 4
    # and 1 and sums with 0, all exact
    g = c * 2.0
    g += 2.0
    y = t * g
    t *= c
    t += 1.0
    y /= t
    y = _inplace(np.log, y)
    # negated from P_STAR on: a product by -1 flips the sign bit alone
    y *= _inplace(np.subtract, 3.0, g)
    return y


# ---------------------------------------------------------------------------
# Gaussian-Rayleigh scale mixture (Laplace kernel)
# ---------------------------------------------------------------------------

def mixture_kernel_pdf(params: ArctanGRParams, x):
    """Closed form of the Gaussian-Rayleigh scale mixture density.

    ``exp(-|x - omega| / psi) / (2 psi)`` -- a Laplace density with location
    ``omega`` and scale ``psi``.
    """
    return _on_z(params.omega, params.psi, x, _half_exp, per_scale=True)


def mixture_kernel_cdf(params: ArctanGRParams, x):
    return _on_z(params.omega, params.psi, x, _laplace_cdf)


def mixture_kernel_logpdf(params: ArctanGRParams, x):
    """Log density ``-|z| - log(2 psi)``; where ``2 psi`` overflows (psi above
    ~9e307) the constant is taken as ``log 2 + log psi``, so it is finite at
    every scale and unchanged, bit for bit, below."""
    psi = params.psi
    log_c = math.log(2.0 * psi) if 2.0 * psi < math.inf else math.log(2.0) + math.log(psi)
    return _on_z(params.omega, psi, x,
                 lambda z, out=None: _last(np.subtract, _minus_abs(z), log_c, out))


def mixture_kernel_quantile(params: ArctanGRParams, p):
    return _on_p(params.omega, params.psi, p, _laplace_quantile)


# ---------------------------------------------------------------------------
# BaseDistribution adapters for the generic arctan transform
# ---------------------------------------------------------------------------

def gaussian_base(params: GaussianParams) -> BaseDistribution:
    """The Gaussian as a base of the arctan transform.  Its ``cdf`` and ``pdf``
    are :func:`gaussian_cdf`'s and :func:`gaussian_pdf`'s kernels on
    :func:`_z`, without their check and their blocks: the transform gives
    them blocks it has checked, and a NaN maps to NaN (``BaseDistribution``
    takes finite floats).  On a 2-vCPU VM the check took ``arctan_cdf`` on
    1e6 points from 7.0 to 7.7 ms, and the check with the blocks took
    ``arctan_pdf`` from 17.0 to 20.0 ms (medians)."""
    pdf = _normal_pdf(params.eta)
    return BaseDistribution(
        cdf=lambda x: _ndtr(_z(params.omega, params.eta, x)),
        pdf=lambda x: pdf(_z(params.omega, params.eta, x)),
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
    return _on_z(params.omega, params.psi, x, _z_cdf)


def agr_survival(params: ArctanGRParams, x):
    """Survival function ``1 - G(x)``, accurate deep into the upper tail."""
    return _on_z(params.omega, params.psi, x, _z_sf)


def agr_pdf(params: ArctanGRParams, x):
    """Density of the AGR distribution (the derivative of :func:`agr_cdf`)."""
    return _on_z(params.omega, params.psi, x, _z_pdf, per_scale=True)


def agr_logpdf(params: ArctanGRParams, x):
    """Log density, written to avoid under/overflow far from the location and,
    as ``log(2/pi) - log(psi)``, at every scale (``pi * psi`` can overflow)."""
    log_c = math.log(2.0 / math.pi) - math.log(params.psi)
    return _on_z(params.omega, params.psi, x,
                 lambda z, out=None: _last(np.add, _z_log_shape(z), log_c, out),
                 require_finite=True)


def agr_cum_hazard(params: ArctanGRParams, x):
    """Cumulative hazard ``-log(survival)``; nondecreasing, 0 at -inf, inf only at +inf.

    Above the location the survival is ``(4/pi) arctan(y)`` with
    ``y = t/(2-t)``, ``t = e^{-z}/2``; taking the log of ``y`` analytically,
    ``-log(survival) = z + log(2(2-t)) - log(4/pi) - log(arctan(y)/y)``
    stays finite where the survival itself underflows.
    """
    return _on_z(params.omega, params.psi, x, _z_cum_hazard)


def agr_hazard(params: ArctanGRParams, x):
    """Hazard rate ``pdf / survival``; finite for all finite x.

    Above the location both pdf and survival decay like ``e^{-u}``; the
    shared factor is cancelled analytically so the hazard stays finite
    (tending to ``1/psi``) even where both underflow to zero.
    """
    return _on_z(params.omega, params.psi, x, _z_hazard, per_scale=True)


def agr_quantile(params: ArctanGRParams, p):
    """Quantile function (inverse CDF) of the AGR distribution.

    Splits at ``P_STAR = G(omega)``: below it the result lies below the
    location, at or above it the upper-branch closed form applies.  Both
    branch formulas agree (value ``omega``) at the split.
    """
    return _on_p(params.omega, params.psi, p, _z_quantile)


def agr_sample(params: ArctanGRParams, n, seed):
    """Draw ``n`` i.i.d. values by inverse-transform sampling.

    Randomness comes from numpy's seeded PCG64 generator
    (``np.random.default_rng(seed)``), so identical seeds reproduce the
    identical sequence on any platform.  The draws are exactly
    ``agr_quantile(params, max(rng.random(n), tiny))``, on any number of
    CPUs: :func:`arctangr._arrays.blockwise` draws each block's uniforms into
    the output and maps them in place, each run of blocks from its own
    stretch of the stream (:func:`arctangr._arrays.walk`), and no second
    array of ``n`` is made.  ``seed`` may also be a
    ``np.random.SeedSequence``: independent streams are the children of one,
    as the CLI gives each level's :func:`arctangr.risk.mc_oracle` its own.
    A ``Generator`` (or a bit generator) given as ``seed`` is drawn from, and
    ends where ``rng.random(n)`` leaves it.
    """
    if not (is_integer(n) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    rng = generator(seed)
    u = np.empty(int(n))
    # random() lands in [0, 1); an exact 0 is nudged into the quantile's domain
    omega, psi = params.omega, params.psi

    def fn(p, out):
        return _from_z(omega, psi, _z_quantile(_inplace(np.maximum, TINY, p)), out)

    return blockwise(fn, u, out=u, rng=rng)


#: Tail draws per block of :func:`_tail_sums`, drawn and mapped in a 256 KiB
#: buffer that each of its runs of blocks (:func:`arctangr._arrays.walk`)
#: reuses.  For 1e7 draws on one thread of a 2-vCPU Xeon VM, 16 and 32 Ki
#: ran fastest of 8 to 64 Ki (64 Ki 5-20% slower).
_DRAW_BLOCK = 1 << 15

#: The blocks of draws :func:`_tail_sums` makes between two folds of their sums.
_ROUND = 128

#: The fewest blocks of a round that :func:`_tail_sums` draws in two runs.
#: On a 2-vCPU Xeon VM, in one process, alternating 60 pairs at level 0.9,
#: two runs took a median 1.02-1.15 times one run's time over 2-3 blocks,
#: and 0.83, 0.79 and 0.80 times over 4, 6 and 8; after the second CPU had
#: idled 3 ms, 1.07-1.09 over 2-3, 0.98 over 4 (faster in 32 of 60 pairs),
#: 0.90 over 6 (44 of 60), 0.86 over 8 (53 of 60) and 0.77-0.81 over 10-16.
_SPLIT_BLOCKS = 8


def _tail_sums(unit: ArctanGRParams, alpha, threshold, k, rng):
    """``(m, s1, s2, s3, s4)`` over ``k`` draws from ``unit``'s tail beyond
    level ``alpha``, for :func:`arctangr.risk.mc_oracle`: ``m`` draws lie
    above ``threshold``, and ``s_r`` sums the ``r``-th powers of their excess.

    Each draw maps a tail probability ``q = (1 - alpha) (1 - U)``, ``U`` one
    double of ``rng`` on [0, 1), to ``x``: by :func:`_z_tail_quantile` at
    ``q`` from ``alpha >= P_STAR`` on, by the general quantile at ``1 - q``
    below it.  The draws go in blocks of ``_DRAW_BLOCK``, each into its
    run's buffer, and each block's five sums into a row of its own.

    The blocks are drawn in rounds of ``_ROUND``, each round by one
    :func:`arctangr._arrays.walk`: in two runs on two CPUs or more from
    ``_SPLIT_BLOCKS`` blocks on, else in one on the caller.  After each
    round its rows are added to the totals in block order, so every sum has
    the bits of one serial loop, and ``rng`` ends where that leaves it.
    Memory is fixed: the buffers of ``min(cpus(), 2)`` runs are made before
    the first round, whatever the split (a run's: two blocks of doubles and
    a block of bools, ~0.53 MiB; below ``P_STAR`` the general quantile's
    temporaries besides), and the call holds ``_ROUND`` rows of sums."""
    tail, upper = 1.0 - alpha, alpha >= P_STAR  # 1 - alpha is exact, as alpha >= 1/2
    block = _DRAW_BLOCK
    blocks = -(-k // block)
    runs = min(_arrays.cpus(), 2)
    size = min(block, k)
    # per run: its draws, a scratch block and a mask
    buffers = [(np.empty(size), np.empty(size), np.empty(size, dtype=bool)) for _ in range(runs)]
    sums = np.empty((min(blocks, _ROUND), 5))

    def work(r, i, j, draw):
        buf, scratch, mask = buffers[r]
        q = buf[:j - i]
        draw.random(out=q)
        # 1 - U is exact and lies in (0, 1], so q > 0 and its quantile is finite
        np.subtract(1.0, q, out=q)
        q *= tail
        if upper:
            z = _z_tail_quantile(q, scratch[:q.size])
        else:
            z = _z_quantile(np.subtract(1.0, q, out=q))
        x = _from_z(unit.omega, unit.psi, z)
        hit = np.greater(x, threshold, out=mask[:q.size])
        y = x if hit.all() else x[hit]
        y -= threshold
        y2 = np.multiply(y, y, out=scratch[:y.size])
        s1, s2 = y.sum(), y2.sum()
        y *= y2
        y2 *= y2
        sums[i // block] = y.size, s1, s2, y.sum(), y2.sum()

    m = 0
    s1 = s2 = s3 = s4 = 0.0
    for first in range(0, blocks, _ROUND):
        count = min(_ROUND, blocks - first)
        _arrays.walk(min(count * block, k - first * block), block,
                     runs if count >= _SPLIT_BLOCKS else 1, work, rng)
        for c, b1, b2, b3, b4 in sums[:count]:
            m += int(c)
            s1 += b1
            s2 += b2
            s3 += b3
            s4 += b4
    return m, s1, s2, s3, s4
