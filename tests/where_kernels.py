"""Test oracle: the standard AGR and Laplace kernels, and the Rayleigh
functions, in their ``np.where`` forms (the Rayleigh CDF and quantile, which
have one form each, as plain whole-array expressions).

Each function evaluates both branches in full and picks per element with
``np.where``.  The branch-free kernels of :mod:`arctangr.distributions` must
equal these bit for bit on every input, scalar, 0-d or array.
"""

import math

import numpy as np

from arctangr.arctanx import FOUR_OVER_PI
from arctangr.distributions import _PI_OVER_4, P_STAR

TINY = float(np.finfo(float).tiny)
#: The cap of ``z/psi`` in the Rayleigh log-density.
RAYLEIGH_CAP = 2.0 ** 1023


def half_exp(z):
    return 0.5 * np.exp(-np.abs(z))


def z_uw(z):
    u = np.exp(-np.abs(z))
    h = 0.5 * u
    return u, np.where(z >= 0.0, 1.0 - h, h)


def laplace_cdf(z):
    return z_uw(z)[1]


def laplace_quantile(p):
    return np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))


def z_cdf(z):
    return FOUR_OVER_PI * np.arctan(laplace_cdf(z))


def z_sf(z):
    t = half_exp(z)
    upper = FOUR_OVER_PI * np.arctan(t / (2.0 - t))
    return np.where(z >= 0.0, upper, 1.0 - FOUR_OVER_PI * np.arctan(t))


def z_pdf(z):
    u, w = z_uw(z)
    return FOUR_OVER_PI * (0.5 * u) / (1.0 + w * w)


def z_cum_hazard(z):
    t = half_exp(z)
    y = t / (2.0 - t)
    small = y < 1e-8
    safe_y = np.where(small, 1.0, y)
    ratio = np.where(small, 1.0, np.arctan(safe_y) / safe_y)
    upper = z + np.log(2.0 * (2.0 - t)) - math.log(FOUR_OVER_PI) - np.log(ratio)
    below = np.minimum(z, 0.0)
    return np.where(z >= 0.0, upper, -np.log1p(-z_cdf(below)))


def z_hazard(z):
    t = half_exp(z)
    small = t < 1e-8
    safe_t = np.where(small, 0.5, t)
    ratio = np.where(small, 2.0 - t, safe_t / np.arctan(safe_t / (2.0 - safe_t)))
    upper = ratio / (1.0 + (1.0 - t) ** 2)
    below = np.minimum(z, 0.0)
    return np.where(z >= 0.0, upper, z_pdf(below) / z_sf(below))


def z_log_shape(z):
    _, w = z_uw(z)
    return -np.abs(z) - np.log1p(w * w)


def z_tail_quantile(q):
    t = np.tan(_PI_OVER_4 * q)
    return -np.log(4.0 * t / (1.0 + t))


def z_quantile(p):
    return np.where(p < P_STAR, np.log(2.0 * np.tan(_PI_OVER_4 * p)), z_tail_quantile(1.0 - p))


def rayleigh_pdf(psi, x):
    """``(z e^{-z^2/2})/psi`` where ``z/psi`` overflows; where ``z`` does too
    (or x = inf) that is ``inf * 0``, and the density's limit there is 0."""
    z = np.maximum(x, 0.0) / psi
    e = np.exp(-0.5 * z * z)
    r = np.where(np.isinf(z / psi), z * e / psi, z / psi * e)
    return np.where(x > 0, np.where(np.isnan(r), 0.0, r), 0.0)


def rayleigh_cdf(psi, x):
    z = np.maximum(x, 0.0) / psi
    return -np.expm1(-0.5 * z * z)


def rayleigh_quantile(psi, p):
    return psi * np.sqrt(-2.0 * np.log1p(-p))


def rayleigh_logpdf(psi, x):
    """``log x - 2 log psi`` where ``z/psi`` leaves ``[tiny, 2^1023)``; at
    x = inf, where the formula is ``inf - inf``, the limit -inf."""
    pos = x > 0
    safe = np.where(pos, x, 1.0)
    z = safe / psi
    ratio = np.minimum(z, psi * RAYLEIGH_CAP) / psi
    far = (ratio < TINY) | (ratio >= RAYLEIGH_CAP)
    v = np.where(far, np.log(safe) - 2.0 * math.log(psi), np.log(ratio)) - 0.5 * z * z
    return np.where(pos & ~np.isnan(v), v, -np.inf)
