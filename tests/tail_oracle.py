"""Test oracle: the tail series, the risk rows, the risk report's checks and
the raw moments in their array forms.

``tail_moments`` is the tail series as a numpy evaluation of fixed 60-term
coefficient arrays (levels x 60), the form the library used before the
series moved to Python floats and was cut off per level
(:mod:`arctangr.tail`); the float series must stay within a few ulps of it.
``risk_columns`` maps the production standard tail ``(z, m, v)`` with numpy
under ``errstate`` and scans each column for a value that is not finite;
``check_report`` walks the rows once per check; ``agr_moment`` sums with
``math.comb`` and ``sum`` per term.  The float path of :mod:`arctangr.risk`
and :func:`arctangr.tail.agr_moment` must equal these bit for bit,
and raise the same message wherever these raise.
"""

import math

import numpy as np

from arctangr.distributions import _z_quantile
from arctangr.errors import DomainError
from arctangr.risk import RiskRow, _check_alpha
from arctangr.tail import _tail_moments, _z_moment

# pi g(z) = sum_j C_j e^{-n_j |z|} on either side of 0: below 0, C_j = 2 (-1/4)^j
# and n_j = 2j + 1; above, n_j = j + 1 and C_j = c_j, where c_0 = 1, c_1 = 1/2,
# c_j = c_{j-1}/2 - c_{j-2}/8, which is 2^{-floor(3j/2)} times +1, +1, +1, 0, -1,
# -1, -1, 0 repeated.  60 terms of each exhaust double precision at every level.
_TERMS = np.arange(60)
_LOWER_C = 2.0 * (-0.25) ** _TERMS
_LOWER_N = 2.0 * _TERMS + 1.0
_UPPER_C = np.array([1.0, 1.0, 1.0, 0.0, -1.0, -1.0, -1.0, 0.0])[_TERMS % 8]
_UPPER_C *= 0.5 ** (3 * _TERMS // 2)
_UPPER_N = _TERMS + 1.0

# C / n^k, k = 1, 2, 3: the weights of the three lower-branch sums
_LOWER_W = [_LOWER_C / _LOWER_N**k for k in (1, 2, 3)]


def tail_moments(alphas):
    """``(z, m, v)`` arrays per level: ``z_a``, ``E[Z | Z > z_a]`` and
    ``E[(Z - m)^2 | Z > z_a]``, by the series of :func:`arctangr.tail._level_moments`
    on arrays, with its lower-branch sums taken only where ``z_a < 0``."""
    z = _z_quantile(np.atleast_1d(np.asarray(alphas, dtype=float)))
    lo = np.maximum(z, 0.0)[:, None]
    w = np.exp(-_UPPER_N * lo) * (_UPPER_C / _UPPER_N)
    u = lo - z[:, None] + 1.0 / _UPPER_N
    s0, s1, s2 = lower = np.zeros((3, z.size))
    below = np.flatnonzero(z < 0.0)
    if below.size:
        x = _LOWER_N * -z[below, None]
        e = -np.expm1(-x)
        for s, weight, t in zip(lower, _LOWER_W, (e, x - e, x * (x - 2.0) + 2.0 * e)):
            s[below] = (weight * t).sum(axis=1)
    p0 = w.sum(axis=1) + s0
    r = ((w * u).sum(axis=1) + s1) / p0
    c = u - r[:, None]
    p2 = (w * (c * c + _UPPER_N**-2.0)).sum(axis=1) + s2 - r * (2.0 * s1 - r * s0)
    return z, z + r, p2 / p0


def risk_columns(params, levels, names=("VaR", "TVaR", "TV")):
    """The named measures, one array over the checked ``levels`` each, mapped
    from the production ``(z, m, v)``; :class:`DomainError` names the measure
    and the first level at which it is not a finite double."""
    z, m, v = map(np.array, _tail_moments(levels))
    with np.errstate(over="ignore"):
        cols = {"VaR": params.omega + params.psi * z, "TVaR": params.omega + params.psi * m,
                "TV": params.psi * params.psi * v}
    for name in names:
        bad = np.flatnonzero(~np.isfinite(cols[name]))
        if bad.size:
            raise DomainError(f"{name} at alpha={levels[bad[0]]!r} is not a finite double")
    return [cols[name] for name in names]


def risk_rows(params, alphas):
    """The rows of ``risk_curve(params, alphas)``, sorted by level."""
    levels = sorted(_check_alpha(a) for a in np.atleast_1d(np.asarray(alphas, dtype=float)))
    if not levels:
        raise DomainError("alphas must be nonempty")
    return tuple(map(RiskRow, levels, *(col.tolist() for col in risk_columns(params, levels))))


def tvar(params, alpha):
    return float(risk_columns(params, [_check_alpha(alpha)], ["TVaR"])[0][0])


def tv(params, alpha):
    return float(risk_columns(params, [_check_alpha(alpha)], ["TV"])[0][0])


def check_report(rows, mc_check=()):
    """The checks of ``RiskReport(rows, ..., mc_check=mc_check)``, one pass each."""
    if not rows:
        raise DomainError("a risk report needs at least one row")
    slack = 1e-9
    for row in rows:
        scale = 1.0 + abs(row.var)
        if row.tvar < row.var - slack * scale:
            raise DomainError(f"tvar < var at alpha={row.alpha}")
        if row.tv < 0.0:
            raise DomainError(f"negative tail variance at alpha={row.alpha}")
    if mc_check and len(mc_check) != len(rows):
        raise DomainError("mc_check needs one Monte Carlo result per row")
    alphas = [row.alpha for row in rows]
    if sorted(alphas) != alphas:
        raise DomainError("risk report rows must be sorted by alpha")
    for col in ("var", "tvar"):
        vals = [getattr(row, col) for row in rows]
        for lo, hi in zip(vals, vals[1:]):
            if hi < lo - slack * (1.0 + abs(lo)):
                raise DomainError(f"{col} must be nondecreasing in alpha")


def agr_moment(params, r):
    """``E[X^r] = sum_k C(r,k) omega^(r-k) psi^k E[Z^k]``, from ``k = 0`` up."""
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise DomainError(f"moment order r must be a positive integer, got {r!r}")
    omega, psi, r = params.omega, params.psi, int(r)
    try:
        total = omega**r
        for k in range(1, r + 1):
            total += math.comb(r, k) * omega ** (r - k) * psi**k * _z_moment(k)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"moment of order r={r} overflows double precision "
            f"at omega={omega!r}, psi={psi!r}"
        )
    return total
