"""Test oracle: the risk rows, the risk report's checks and the raw moments in
their array forms.

``risk_columns`` maps the standard tail's arrays with numpy under
``errstate`` and scans each column for a value that is not finite;
``check_report`` walks the rows once per check; ``agr_moment`` sums with
``math.comb`` and ``sum`` per term.  The float path of :mod:`arctangr.risk`
and :func:`arctangr.distributions.agr_moment` must equal these bit for bit,
and raise the same message wherever these raise.
"""

import math

import numpy as np

from arctangr.distributions import _z_moment_parts
from arctangr.errors import DomainError
from arctangr.risk import RiskRow, _check_alpha, _tail_moments


def risk_columns(params, levels, names=("VaR", "TVaR", "TV")):
    """The named measures, one array over the checked ``levels`` each;
    :class:`DomainError` names the measure and the first level at which it
    is not a finite double."""
    z, m, v = _tail_moments(levels)
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
            total += math.comb(r, k) * omega ** (r - k) * psi**k * sum(_z_moment_parts(k))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(
            f"moment of order r={r} overflows double precision "
            f"at omega={omega!r}, psi={psi!r}"
        )
    return total
