"""Actuarial tail-risk measures for the arctan Gaussian-Rayleigh model.

AGR is a location-scale family, ``X = omega + psi Z``, so each risk measure
is an affine image of one computed on the standard variable ``Z``:

    VaR(a)  = omega + psi z_a           z_a  = standard a-quantile
    TVaR(a) = omega + psi m(a)          m(a) = E[Z | Z > z_a]
    TV(a)   = psi^2 v(a)                v(a) = E[(Z - m(a))^2 | Z > z_a]

``v`` is integrated centred rather than as ``E[Z^2] - m^2`` (or worse, in
``x``), so it cannot cancel, whatever the ratio ``omega / psi``.  Both tail
integrals run in probability space: the x-space integrals have an infinite
upper limit, but substituting the quantile turns them into integrals of
``z(p)`` over ``(a, 1)``, and the further substitution ``p = 1 - e^{-s}``
maps the logarithmic endpoint singularity at ``p -> 1`` onto a tame
exponential tail.  A seeded Monte Carlo oracle and order-statistic
empirical estimators round out the module.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._quadrature import adaptive_quad
from .dataset import LossDataset
from .distributions import (
    S_STAR,
    ArctanGRParams,
    _z_quantile,
    _z_tail_quantile,
    agr_quantile,
)
from .errors import DataError, DomainError

#: Relative tolerance requested from the tail-moment quadrature.
QUAD_RELATIVE_TOL = 1e-10
_QUAD_ABSOLUTE_FLOOR = 1e-14


def _check_alpha(alpha) -> float:
    a = float(alpha)
    if math.isnan(a) or not 0.5 < a < 1.0:
        raise DomainError(f"confidence level must lie in (1/2, 1), got {alpha!r}")
    return a


def var(params: ArctanGRParams, alpha) -> float:
    """Value at risk: the alpha-quantile of the loss distribution.

    For ``alpha >= P_STAR`` this is the closed form
    ``omega - psi*log(2 - 2*tan(pi*alpha/4))``; for ``alpha`` in
    ``(1/2, P_STAR)`` that formula would sit on the wrong CDF branch, so the
    general quantile is used throughout (they coincide where both apply).
    """
    a = _check_alpha(alpha)
    return float(agr_quantile(params, a))


def _tail_average(alpha: float, fn) -> float:
    """Average of ``fn(z(p))`` over ``p in (alpha, 1)``, ``z`` the standard quantile.

    Evaluated after ``p = 1 - e^{-s}``; the piece below the quantile branch
    point (present only when ``alpha < P_STAR``) is integrated separately.
    """

    def integrand(s):
        q = math.exp(-s)
        if q == 0.0:
            return 0.0  # z grows only like s, so fn(z) * q has underflowed
        z = _z_tail_quantile(q) if s >= S_STAR else _z_quantile(1.0 - q)
        return float(fn(z)) * q

    s0 = -math.log1p(-alpha)
    pieces = [(s0, S_STAR), (S_STAR, np.inf)] if s0 < S_STAR else [(s0, np.inf)]
    total = 0.0
    for a, b in pieces:
        value, _ = adaptive_quad(
            integrand,
            a,
            b,
            epsabs=_QUAD_ABSOLUTE_FLOOR,
            epsrel=QUAD_RELATIVE_TOL,
            label="standard tail moment",
        )
        total += value
    return total / (1.0 - alpha)


def _tail_mean(alpha: float) -> float:
    """``m(alpha) = E[Z | Z > z_alpha]`` of the standard variable."""
    return _tail_average(alpha, lambda z: z)


def _tail_variance(alpha: float, mean: float) -> float:
    """``v(alpha) = E[(Z - mean)^2 | Z > z_alpha]``, nonnegative by construction."""
    return _tail_average(alpha, lambda z: (z - mean) ** 2)


def tvar(params: ArctanGRParams, alpha) -> float:
    """Tail value at risk: mean loss beyond the VaR threshold."""
    return params.omega + params.psi * _tail_mean(_check_alpha(alpha))


def tv(params: ArctanGRParams, alpha) -> float:
    """Tail variance: variance of the loss beyond the VaR threshold."""
    a = _check_alpha(alpha)
    return params.psi**2 * _tail_variance(a, _tail_mean(a))


class RiskRow(NamedTuple):
    alpha: float
    var: float
    tvar: float
    tv: float


class MCOracleResult(NamedTuple):
    tvar: float
    tv: float
    tvar_se: float
    tv_se: float
    exceedances: int
    n: int


@dataclass(frozen=True)
class RiskReport:
    """Rows of (alpha, var, tvar, tv) plus provenance metadata.

    ``source`` tags whether the rows came from model parameters or from
    empirical estimators; ``method`` records the quadrature tolerance or
    sample counts that produced them.
    """

    rows: tuple[RiskRow, ...]
    source: str
    method: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.rows:
            raise DomainError("a risk report needs at least one row")
        slack = 1e-9
        for row in self.rows:
            scale = 1.0 + abs(row.var)
            if row.tvar < row.var - slack * scale:
                raise DomainError(f"tvar < var at alpha={row.alpha}")
            if row.tv < 0.0:
                raise DomainError(f"negative tail variance at alpha={row.alpha}")
        alphas = [row.alpha for row in self.rows]
        if sorted(alphas) != alphas:
            raise DomainError("risk report rows must be sorted by alpha")
        for col in ("var", "tvar"):
            vals = [getattr(row, col) for row in self.rows]
            for lo, hi in zip(vals, vals[1:]):
                if hi < lo - slack * (1.0 + abs(lo)):
                    raise DomainError(f"{col} must be nondecreasing in alpha")

    def to_csv(self, digits: int = 6) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["alpha", "var", "tvar", "tv"])
        for row in self.rows:
            writer.writerow([f"{v:.{digits}g}" for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "source": self.source,
            "method": self.method,
            "rows": [row._asdict() for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_text(self, digits: int = 6) -> str:
        header = f"{'alpha':>10} {'var':>14} {'tvar':>14} {'tv':>14}"
        lines = [f"risk report ({self.source})", header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.alpha:>10.{digits}g} {row.var:>14.{digits}g} "
                f"{row.tvar:>14.{digits}g} {row.tv:>14.{digits}g}"
            )
        return "\n".join(lines) + "\n"


def risk_curve(params: ArctanGRParams, alphas) -> RiskReport:
    """Risk measures across confidence levels, one sorted row per level."""
    levels = sorted(_check_alpha(a) for a in np.atleast_1d(np.asarray(alphas, dtype=float)))
    if not levels:
        raise DomainError("alphas must be nonempty")
    rows = []
    for a in levels:
        m = _tail_mean(a)
        rows.append(RiskRow(
            a, var(params, a), params.omega + params.psi * m, params.psi**2 * _tail_variance(a, m)
        ))
    return RiskReport(
        rows=tuple(rows),
        source=f"model(omega={params.omega!r}, psi={params.psi!r})",
        method={"quadrature_epsrel": QUAD_RELATIVE_TOL},
    )


def empirical_risk(data: LossDataset, alpha) -> RiskRow:
    """Order-statistic risk estimates from a loss sample.

    VaR is the linear-interpolation quantile at rank ``h = (n-1)*alpha + 1``
    (numpy's default); TVaR is the mean of observations strictly exceeding
    it and TV their population variance, which needs at least two
    exceedances.  Unlike the model-based measures, any ``alpha`` in (0, 1)
    is accepted.
    """
    a = float(alpha)
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    values = data.values
    if values.size < 2:
        raise DataError("empirical risk needs at least 2 observations")
    threshold = float(np.quantile(values, a))
    exceed = values[values > threshold]
    if exceed.size < 2:
        raise DataError(
            f"empirical TVaR/TV need at least 2 observations above the VaR "
            f"threshold; got {exceed.size} at alpha={a}"
        )
    return RiskRow(a, threshold, float(exceed.mean()), float(exceed.var(ddof=0)))


def empirical_risk_curve(data: LossDataset, alphas) -> RiskReport:
    """Empirical analogue of :func:`risk_curve`."""
    levels = sorted(float(a) for a in np.atleast_1d(np.asarray(alphas, dtype=float)))
    rows = tuple(empirical_risk(data, a) for a in levels)
    return RiskReport(
        rows=rows,
        source=f"empirical:{data.name}",
        method={"quantile_rank": "h = (n-1)*alpha + 1, linear interpolation"},
    )


def mc_oracle(params: ArctanGRParams, alpha, n, seed, chunk=1 << 20) -> MCOracleResult:
    """Monte Carlo estimate of TVaR/TV with standard errors.

    Draws ``n`` inverse-transform samples in fixed-size chunks, one spawned
    child of ``SeedSequence(seed)`` per chunk, and accumulates tail moments
    in a fixed order -- so results are reproducible and chunks could run in
    parallel without changing the reduction.  Exceedance statistics are
    taken relative to the exact VaR threshold; sums are accumulated on
    threshold-shifted values to limit cancellation in the higher moments.
    """
    a = _check_alpha(alpha)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    threshold = var(params, a)

    n = int(n)
    n_chunks = (n + chunk - 1) // chunk
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(n_chunks)
    m = 0
    s1 = s2 = s3 = s4 = 0.0
    for i, child in enumerate(children):
        k = min(chunk, n - i * chunk)
        rng = np.random.Generator(np.random.PCG64(child))
        p = np.maximum(rng.random(k), np.finfo(float).tiny)
        x = agr_quantile(params, p)
        y = x[x > threshold] - threshold
        m += y.size
        s1 += y.sum()
        y2 = y * y
        s2 += y2.sum()
        s3 += (y2 * y).sum()
        s4 += (y2 * y2).sum()

    if m < 2:
        raise DomainError(
            f"only {m} of {n} samples exceeded the VaR threshold; "
            "increase n or lower alpha"
        )
    mean = s1 / m
    m2 = s2 / m - mean**2
    m4 = s4 / m - 4.0 * mean * s3 / m + 6.0 * mean**2 * s2 / m - 3.0 * mean**4
    tvar_est = threshold + mean
    tv_est = m2
    tvar_se = math.sqrt(max(m2, 0.0) / m)
    tv_se = math.sqrt(max(m4 - m2 * m2, 0.0) / m)
    return MCOracleResult(tvar_est, tv_est, tvar_se, tv_se, m, n)
