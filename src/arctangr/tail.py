"""The model parameters and every float function of the standard AGR variable.

AGR is a location-scale family, ``X = omega + psi Z``.  This module holds,
in Python floats: the parameters of every model (:class:`ArctanGRParams`,
and the baselines' :class:`GaussianParams` and :class:`RayleighParams`), the
level ``P_STAR = G(0)`` at which the quantile switches branches, the
density's series in ``e^{-|z|}``, the raw moments summed from it
(:func:`agr_moment`), Bowley's skewness and Moors' kurtosis, and per
confidence level ``a`` the standard quantile ``z_a`` and the tail moments

    m(a) = E[Z | Z > z_a],    v(a) = E[(Z - m(a))^2 | Z > z_a].

Each sum keeps the fewest terms whose proven remainder is below
``REMAINDER_BOUND`` (2^-60) of it: at most 41 above 0 and 31 below, so a
level costs one ``math.tan``, one ``math.log`` and at most 72 terms, and a
command that reports levels never imports numpy.  Every sum is correctly
rounded (``math.fsum``).  Against a 25-digit quadrature at 301 levels from
0.5 + 1 ulp to 1 - 1e-13, ``P_STAR`` and its neighbours among them, ``m`` is
within 1.5e-16 (relative to ``1 + |m|``) and ``v`` within 3.5e-16; against
the former fixed 60-term series in numpy arrays, within 6 and 7 ulps over
120,000 uniform levels.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, repeat
from operator import mul

from ._util import FrozenRecord, bowley_moors, is_integer
from .errors import DomainError

FOUR_OVER_PI = 4.0 / math.pi

#: CDF value at the location parameter, (4/pi) * arctan(1/2) ~= 0.5903345.
#: Quantile lookups below this level land below the location, at or above it
#: they land at or above the location.
P_STAR = FOUR_OVER_PI * math.atan(0.5)

_PI_OVER_4 = math.pi / 4.0


class ArctanGRParams(FrozenRecord):
    """Location and scale of the arctan Gaussian-Rayleigh distribution.

    ``omega`` and ``psi`` are in data units; ``psi`` is also the scale of the
    underlying Laplace mixture kernel.  Each parameter is kept as a Python
    float, as are those of the other models.
    """

    _fields = ("omega", "psi")

    def __init__(self, omega: float, psi: float):
        if not math.isfinite(omega):
            raise DomainError(f"omega must be finite, got {omega}")
        if not (math.isfinite(psi) and psi > 0):
            raise DomainError(f"psi must be a positive finite scale, got {psi}")
        self.__dict__.update(omega=float(omega), psi=float(psi))


class GaussianParams(FrozenRecord):
    """Mean and standard deviation of a Gaussian."""

    _fields = ("omega", "eta")

    def __init__(self, omega: float, eta: float):
        if not math.isfinite(omega):
            raise DomainError(f"omega must be finite, got {omega}")
        if not (math.isfinite(eta) and eta > 0):
            raise DomainError(f"eta must be a positive finite scale, got {eta}")
        self.__dict__.update(omega=float(omega), eta=float(eta))


class RayleighParams(FrozenRecord):
    """Scale of a Rayleigh distribution (support x >= 0)."""

    _fields = ("psi",)

    def __init__(self, psi: float):
        if not (math.isfinite(psi) and psi > 0):
            raise DomainError(f"psi must be a positive finite scale, got {psi}")
        self.__dict__.update(psi=float(psi))


# The standard density as a series in e^{-|s|}: above 0, with q = (1 + i)/4,
# pi g(s) = sum_{n>=1} 4 Im(q^n) e^{-n s}; below 0, pi g(s) = 4 d/ds arctan(e^s/2)
# = sum_{j>=0} 2 (-1/4)^j e^{n s}, n = 2j + 1.  Each sum over it (a level's P_k,
# or E[Z^k] on either side of 0) weights the terms by positive factors f(n)
# that do not grow with n.  Above lo >= 0, with W = q e^{-lo} and rho = |W| <=
# 2^{-3/2}, the terms past the first N add up to at most 4 rho^{N+1} f(1) /
# ((N+1)(1 - rho)), and the sum is at least (4 Im W - sum_{n>=2} 4 |Im W^n|/n)
# f(1) >= 1.98 rho f(1): the rest is below 2 rho^N of the sum.  Below 0 the terms
# alternate and shrink: those from the J-th on add up to at most 2 4^{-J} f(1),
# and the sum is at least 2 f(1) - f(3)/2 >= (3/2) f(1), so the rest is below
# (4/3) 4^{-J} of it.

#: Each sum over the series keeps the fewest terms whose proven remainder is
#: below this times the sum (2 rho^N above 0, (4/3) 4^{-J} below).
REMAINDER_BOUND = 2.0 ** -60

#: The terms ``(n, 2 (-1/4)^j)``, ``n = 2j + 1``, that every sum below 0 keeps:
#: the first J, the fewest with (4/3) 4^{-J} <= REMAINDER_BOUND (31).
_LOWER_TERMS = tuple((2 * j + 1, 2.0 * (-0.25) ** j)
                     for j in range(math.ceil(math.log(4.0 / (3.0 * REMAINDER_BOUND), 4.0))))


def _upper_terms(lo: float):
    """``4 Im(W^n)``, ``W = q e^{-lo}``: the coefficients ``C e^{-n lo}`` of the
    terms above ``lo >= 0`` for ``n = 1..N``, with ``N`` the first count past
    ``log(2/B) / (log 2^{3/2} + lo)``, so that ``2 |W|^N < B = REMAINDER_BOUND``:
    41 terms at ``lo = 0``, one from ``lo ~ 41.3``.  ``W = a (1 + i)``, so one
    part of each product is exactly 0 or equal to the other in size: ``W^n`` is
    ``a^n (1 + i)^n`` rounded once per step."""
    count = int(math.log(2.0 / REMAINDER_BOUND) / (1.5 * math.log(2.0) + lo)) + 1
    ratio = complex(0.25, 0.25) * math.exp(-lo)
    return [4.0 * p.imag for p in accumulate(repeat(ratio, count), mul)]


def _z_level(alpha: float) -> float:
    """The standard quantile ``z_a`` at a level ``alpha`` in (0, 1), one
    ``tan`` and one ``log``: ``log(2 tan(pi a/4))`` below ``P_STAR``, and from it
    ``-log(4t/(1 + t))`` with ``t = tan(pi (1 - a)/4)``, which keeps its
    accuracy as ``a -> 1`` (``1 - a`` is exact for ``a >= 1/2``)."""
    if alpha >= P_STAR:
        t = math.tan((1.0 - alpha) * _PI_OVER_4)
        return -math.log(t * 4.0 / (1.0 + t))
    return math.log(math.tan(alpha * _PI_OVER_4) * 2.0)


def _lower_sums(d: float):
    """The parts of ``P_0``, ``P_1`` and ``P_2`` below 0 at ``z = -d``: on ``[z, 0)``
    the term ``C e^{n s}``, with ``x = n d`` and ``e = 1 - e^{-x}``, adds ``C e/n``,
    ``C (x - e)/n^2`` and ``C (x^2 - 2x + 2e)/n^3``; all are +0.0 at ``d = 0``."""
    x = [n * d for n, _ in _LOWER_TERMS]
    e = [-math.expm1(-t) for t in x]
    return (math.fsum([c * b / n for (n, c), b in zip(_LOWER_TERMS, e)]),
            math.fsum([c * (t - b) / n**2 for (n, c), t, b in zip(_LOWER_TERMS, x, e)]),
            math.fsum([c * (t * (t - 2.0) + 2.0 * b) / n**3
                       for (n, c), t, b in zip(_LOWER_TERMS, x, e)]))


#: The weights ``C/n`` of the terms above ``lo = 0`` and their sum, the same at
#: every level below ``P_STAR`` (``z < 0``), so built once.
_UPPER_AT_0 = tuple(c / n for n, c in enumerate(_upper_terms(0.0), 1))
_UPPER_SUM_AT_0 = math.fsum(_UPPER_AT_0)


def _level_moments(z: float):
    """``(m, v)`` beyond the standard quantile ``z``.

    ``m = z + P_1/P_0`` with ``P_k = pi int_z^inf (s - z)^k g ds``; ``v`` is
    summed about ``m``.  Above ``lo = max(z, 0)``, with ``u = 1/n + lo - z``, the
    term ``C e^{-n s}`` adds ``C e^{-n lo} / n`` times ``1``, ``u`` and ``u^2 + 1/n^2``
    (the weights ``C e^{-n lo} / n`` and their sum are kept for ``z < 0``);
    below 0 :func:`_lower_sums` adds its parts, which are exactly +0.0 at
    ``z >= 0`` and so are summed only where ``z < 0``.
    """
    if z < 0.0:
        d, w, p0 = -z, _UPPER_AT_0, _UPPER_SUM_AT_0
        s0, s1, s2 = _lower_sums(d)
    else:
        d, w = 0.0, [c / n for n, c in enumerate(_upper_terms(z), 1)]
        p0 = math.fsum(w)
        s0 = s1 = s2 = 0.0
    p0 += s0
    ns = range(1, len(w) + 1)
    u = [d + 1.0 / n for n in ns]
    r = (math.fsum([a * b for a, b in zip(w, u)]) + s1) / p0
    p2 = math.fsum([a * ((b - r) * (b - r) + 1.0 / (n * n)) for a, b, n in zip(w, u, ns)])
    return z + r, (p2 + s2 - r * (2.0 * s1 - r * s0)) / p0


def _tail_moments(levels):
    """``(z, m, v)``, one tuple of floats each, over the checked ``levels``."""
    zs = tuple(map(_z_level, levels))
    # flat, so that each (m, v) pair is freed before the next level's is made
    mv = [x for z in zs for x in _level_moments(z)]
    return zs, tuple(mv[0::2]), tuple(mv[1::2])


#: Longer grids of levels are summed on every call, not kept, so the cache of
#: :func:`_standard_tail` holds at most 64 x 256 levels (~100 bytes each).
_CACHED_LEVELS = 256


@functools.lru_cache(maxsize=64)
def _standard_tail(levels: tuple):
    """:func:`_tail_moments` over the checked ``levels``, kept for the 64 most
    recently used grids of at most ``_CACHED_LEVELS`` levels (see
    :func:`arctangr.risk._risk_lists`) and shared by every ``(omega, psi)`` and
    measure; its tuples are immutable, so no caller changes what a later reads."""
    return _tail_moments(levels)


@functools.cache
def _z_moment(k):
    """``E[Z^k]`` of the standard AGR, the series cut as at ``z = 0``, termwise
    with ``int_0^inf z^k e^{-n z} dz = k! / n^{k+1}`` (below 0 times ``(-1)^k``).
    The terms of both sides make one correctly rounded sum: at an odd order
    the part below 0 is about twice ``E[Z^k]``, so adding the two parts' own
    sums would double their rounding.  Kept per order; from ``k = 171`` on
    ``k!`` leaves the double range and raises ``OverflowError`` first, so at
    most 170 are kept."""
    s = -(k + 1.0)
    terms = [(-1) ** k * c * n ** s for n, c in _LOWER_TERMS]
    terms += [c * n ** s for n, c in enumerate(_upper_terms(0.0), 1)]
    return math.factorial(k) * (math.fsum(terms) / math.pi)


#: The highest order whose ``E[Z^k]`` is a finite double (``171!`` is not).
_MAX_ORDER = 170


@functools.cache
def _binomial_row(r):
    """``(C(r, k), r - k, k, E[Z^k])`` for ``k = 1..r``, ``r <= _MAX_ORDER``:
    the exact weight, the two powers and the standard moment of each of
    :func:`agr_moment`'s terms, kept per order (at most 170 rows)."""
    return tuple((math.comb(r, k), r - k, k, _z_moment(k)) for k in range(1, r + 1))


def agr_moment(params: ArctanGRParams, r):
    """r-th raw moment ``E[X^r] = sum_k C(r,k) omega^(r-k) psi^k E[Z^k]``.

    Summed in increasing ``k`` from the exact ``k = 0`` term ``omega^r``.
    Raises :class:`DomainError` when the sum leaves the double range, which
    for the standard variable happens from ``r = 171`` on.
    """
    if not (is_integer(r) and r >= 1):
        raise DomainError(f"moment order r must be a positive integer, got {r!r}")
    omega, psi, r = params.omega, params.psi, int(r)
    try:
        if r > _MAX_ORDER:  # its E[Z^171] term would overflow
            raise OverflowError
        total = omega**r
        for c, j, k, z_k in _binomial_row(r):
            total += c * omega**j * psi**k * z_k
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"moment of order r={r} overflows double precision "
            f"at omega={omega!r}, psi={psi!r}"
        )
    return total


@functools.cache
def _shape_measures():
    """Bowley's skewness and Moors' kurtosis of ``Z``, from its seven octiles
    ``_z_level(k/8)``: constants of the family, computed on first use."""
    return bowley_moors([_z_level(k / 8) for k in range(1, 8)])


def agr_skewness(params: ArctanGRParams) -> float:
    """Quartile-based (Bowley) skewness; free of both location and scale."""
    return _shape_measures()[0]


def agr_kurtosis(params: ArctanGRParams) -> float:
    """Octile-based (Moors) kurtosis; free of both location and scale."""
    return _shape_measures()[1]
