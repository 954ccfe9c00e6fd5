"""The AGR parameters and the standard variable's tail, in Python floats.

AGR is a location-scale family, ``X = omega + psi Z``.  This module holds
what the per-level risk measures read, with no numpy: the parameters
(:class:`ArctanGRParams`), the level ``P_STAR = G(0)`` at which the quantile
switches branches, the density's series coefficients, and per confidence
level ``a`` the standard quantile ``z_a`` and the tail moments

    m(a) = E[Z | Z > z_a],    v(a) = E[(Z - m(a))^2 | Z > z_a].

Each level costs one ``math.tan``, one ``math.log`` and a 60-term series, so
a handful of levels costs well under a millisecond, and a command that
reports them never imports numpy.  Every sum is numpy's pairwise sum
(:func:`arctangr._util.pairwise_sum`), so ``m`` and ``v`` are what numpy's
arrays gave, wherever ``math`` and numpy agree on ``exp``, ``expm1``,
``tan`` and ``log`` (elsewhere within a few ulps).  :mod:`arctangr.distributions`
builds its numpy arrays from the coefficient tuples kept here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._util import pairwise_sum
from .errors import DomainError

FOUR_OVER_PI = 4.0 / math.pi

#: CDF value at the location parameter, (4/pi) * arctan(1/2) ~= 0.5903345.
#: Quantile lookups below this level land below the location, at or above it
#: they land at or above the location.
P_STAR = FOUR_OVER_PI * math.atan(0.5)

_PI_OVER_4 = math.pi / 4.0


@dataclass(frozen=True)
class ArctanGRParams:
    """Location and scale of the arctan Gaussian-Rayleigh distribution.

    ``omega`` and ``psi`` are in data units; ``psi`` is also the scale of the
    underlying Laplace mixture kernel.
    """

    omega: float
    psi: float

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise DomainError(f"omega must be finite, got {self.omega}")
        if not (math.isfinite(self.psi) and self.psi > 0):
            raise DomainError(f"psi must be a positive finite scale, got {self.psi}")


# pi g(z) = sum_j C_j e^{-n_j |z|} on either side of 0, the standard density
# as a series in e^{-|z|}: below 0, C_j = 2 (-1/4)^j and n_j = 2j + 1; above,
# n_j = j + 1 and C_j = c_j, where c_0 = 1, c_1 = 1/2, c_j = c_{j-1}/2 - c_{j-2}/8,
# which is 2^{-floor(3j/2)} times +1, +1, +1, 0, -1, -1, -1, 0 repeated.  The
# terms shrink like 4^{-j} and 2^{-3j/2}, so 60 of them exhaust double precision.
_TERMS = range(60)
_LOWER_C = tuple(2.0 * (-0.25) ** j for j in _TERMS)
_LOWER_N = tuple(2.0 * j + 1.0 for j in _TERMS)
_UPPER_C = tuple((1.0, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0, 0.0)[j % 8] * 0.5 ** (3 * j // 2)
                 for j in _TERMS)
_UPPER_N = tuple(j + 1.0 for j in _TERMS)

# the per-term constants of the tail series: -n, C/n, 1/n and n^-2 above 0,
# and C/n^k, k = 1, 2, 3, the weights of the three lower-branch sums
_UPPER_NEG_N = tuple(-n for n in _UPPER_N)
_UPPER_W = tuple(c / n for c, n in zip(_UPPER_C, _UPPER_N))
_UPPER_INV = tuple(1.0 / n for n in _UPPER_N)
_UPPER_INV2 = tuple(n ** -2.0 for n in _UPPER_N)
_LOWER_W = tuple(tuple(c / n**k for c, n in zip(_LOWER_C, _LOWER_N)) for k in (1, 2, 3))


def _z_level(alpha: float) -> float:
    """The standard quantile ``z_a`` at a level ``alpha`` in (1/2, 1), one
    ``tan`` and one ``log``: ``log(2 tan(pi a/4))`` below ``P_STAR``, and from it
    ``-log(4t/(1 + t))`` with ``t = tan(pi (1 - a)/4)``, which keeps its
    accuracy as ``a -> 1`` (``1 - a`` is exact for ``a >= 1/2``)."""
    if alpha >= P_STAR:
        t = math.tan((1.0 - alpha) * _PI_OVER_4)
        return -math.log(t * 4.0 / (1.0 + t))
    return math.log(math.tan(alpha * _PI_OVER_4) * 2.0)


def _level_moments(z: float):
    """``(m, v)`` beyond the standard quantile ``z``.

    ``m = z + P_1/P_0`` with ``P_k = pi int_z^inf (s - z)^k g ds``; ``v`` is
    summed about ``m``.  Above ``lo = max(z, 0)``, with ``u = 1/n + lo - z``, the
    term ``C e^{-n s}`` adds ``C e^{-n lo} / n`` times ``1``, ``u`` and ``u^2 + 1/n^2``;
    on ``[z, 0)`` the term ``C e^{n s}``, with ``x = n (lo - z)`` and ``e = 1 - e^{-x}``,
    adds ``C e/n``, ``C (x - e)/n^2`` and ``C (x^2 - 2x + 2e)/n^3``.  At ``z >= 0``
    those lower sums are exactly +0.0, so they are summed only where ``z < 0``.
    """
    lo = z if z >= 0.0 else 0.0
    d = lo - z
    w = [math.exp(k * lo) * c for k, c in zip(_UPPER_NEG_N, _UPPER_W)]
    u = [d + q for q in _UPPER_INV]
    s0 = s1 = s2 = 0.0
    if z < 0.0:
        x = [n * -z for n in _LOWER_N]
        e = [-math.expm1(-t) for t in x]
        w1, w2, w3 = _LOWER_W
        s0 = pairwise_sum([a * b for a, b in zip(w1, e)])
        s1 = pairwise_sum([a * (t - b) for a, t, b in zip(w2, x, e)])
        s2 = pairwise_sum([a * (t * (t - 2.0) + 2.0 * b) for a, t, b in zip(w3, x, e)])
    p0 = pairwise_sum(w) + s0
    r = (pairwise_sum([a * b for a, b in zip(w, u)]) + s1) / p0
    p2 = pairwise_sum([a * ((b - r) * (b - r) + q) for a, b, q in zip(w, u, _UPPER_INV2)])
    return z + r, (p2 + s2 - r * (2.0 * s1 - r * s0)) / p0


def _tail_moments(levels):
    """``(z, m, v)``, one tuple of floats each, over the checked ``levels``."""
    zs = tuple(map(_z_level, levels))
    ms, vs = [], []
    for z in zs:
        m, v = _level_moments(z)
        ms.append(m)
        vs.append(v)
    return zs, tuple(ms), tuple(vs)


#: Longer grids of levels are summed on every call, not kept, so the cache of
#: :func:`_standard_tail` holds at most 64 x 256 levels (~100 bytes each).
_CACHED_LEVELS = 256


@functools.lru_cache(maxsize=64)
def _standard_tail(levels: tuple):
    """:func:`_tail_moments` over the checked ``levels``, kept for the 64 most
    recently used grids; :func:`arctangr.risk._risk_lists` asks it only for
    grids of at most ``_CACHED_LEVELS`` levels.  The result depends on the
    levels alone, never on ``(omega, psi)``, so every parameter set and every
    measure share it; its tuples are immutable, so no caller can change what
    a later one reads."""
    return _tail_moments(levels)
