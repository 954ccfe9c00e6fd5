"""Actuarial tail-risk measures for the arctan Gaussian-Rayleigh model.

AGR is a location-scale family, ``X = omega + psi Z``, so each risk measure
is an affine image of one computed on the standard variable ``Z``:

    VaR(a)  = omega + psi z_a           z_a  = standard a-quantile
    TVaR(a) = omega + psi m(a)          m(a) = E[Z | Z > z_a]
    TV(a)   = psi^2 v(a)                v(a) = E[(Z - m(a))^2 | Z > z_a]

``m`` and ``v`` are closed-form sums over the density's series in
``e^{-|z|}``, taken about ``z_a`` and ``m``, each cut where its proven remainder
is below 2^-60 of it (the JSON ``method`` names this bound): from 0.5 + 1e-7
to 1 - 1e-13 they are within 2.3e-16 (``m``, relative to ``1 + |m|``) and
5.7e-16 (``v``, relative) of a 25-digit reference.  ``z``, ``m`` and ``v``
depend on the levels alone: :mod:`arctangr.tail` sums them in Python floats,
level by level, and keeps each grid's tuples (the 64 most recently used grids
of at most 256 levels) for every later call and every ``(omega, psi)``.  The
affine map, its finiteness checks, the report's checks and the empirical
estimators run on Python floats too, so a risk command that fits nothing
never imports numpy.  A warm curve costs about its floats: each mapped column
is tested with one ``math.isfinite`` of its sum (finite only if every term
is), and its rows are made by ``tuple.__new__``, as ``RiskRow._make`` makes
them, with no Python frame per level.  A seeded Monte Carlo oracle, the one
bulk computation here, imports numpy when it is called.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import namedtuple

from ._util import FrozenRecord, dump_csv, dump_json, is_integer, mean_var, unit_exponent
from .dataset import LossDataset, _linear_quantile
from .errors import DataError, DomainError
from .tail import _CACHED_LEVELS, P_STAR, REMAINDER_BOUND, ArctanGRParams, _standard_tail, _tail_moments


def _level(alpha) -> float:
    """``float(alpha)``; what reads as no double (text that is no number, an
    integer too large for one, ``None``, a complex, a sequence) raises
    :class:`DomainError`."""
    try:
        return float(alpha)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"confidence level must be a number: {exc}") from None


def _check_alpha(alpha) -> float:
    a = _level(alpha)
    if math.isnan(a) or not 0.5 < a < 1.0:
        raise DomainError(f"confidence level must lie in (1/2, 1), got {a!r}")
    return a


def var(params: ArctanGRParams, alpha) -> float:
    """Value at risk: the alpha-quantile of the loss distribution.

    For ``alpha >= P_STAR`` this is the closed form
    ``omega - psi*log(2 - 2*tan(pi*alpha/4))``; for ``alpha`` in
    ``(1/2, P_STAR)`` that formula would sit on the wrong CDF branch, so the
    general quantile is used throughout (they coincide where both apply).
    ``z_a`` comes from :func:`_standard_tail`, as TVaR's and TV's moments do,
    and a VaR that is not a finite double raises :class:`DomainError`, as the
    other measures do.
    """
    a = _check_alpha(alpha)
    return _risk_lists(params, [a], ["VaR"])[0][0]


def _risk_lists(params: ArctanGRParams, levels, names=("VaR", "TVaR", "TV")):
    """The named measures over the checked ``levels``, one list of floats each,
    mapped from :func:`arctangr.tail._standard_tail` as ``omega + psi z``,
    ``omega + psi m`` and ``(psi psi) v``: the arithmetic, and so the bits, of
    numpy on the arrays, without its per-call cost.  Grids longer than
    ``_CACHED_LEVELS`` take the same loop over a fresh ``_tail_moments``.  :class:`DomainError`
    names the first measure (in ``names`` order) and the first level at which
    it is not a finite double.  A column is scanned for that level only where
    its sum is not finite: a finite sum has only finite terms, and a sum of
    finite terms that overflows finds none, so one sum per column stands in
    for a test per level."""
    if len(levels) <= _CACHED_LEVELS:
        z, m, v = _standard_tail(tuple(levels))
    else:
        z, m, v = _tail_moments(levels)
    omega, psi = params.omega, params.psi
    cols = []
    for name in names:
        if name == "TV":
            psi2 = psi * psi
            col = [psi2 * s for s in v]
        else:
            col = [omega + psi * s for s in (z if name == "VaR" else m)]
        if not math.isfinite(sum(col)):
            for level, value in zip(levels, col):
                if not math.isfinite(value):
                    raise DomainError(f"{name} at alpha={level!r} is not a finite double")
        cols.append(col)
    return cols


def tvar(params: ArctanGRParams, alpha) -> float:
    """Tail value at risk: mean loss beyond the VaR threshold."""
    a = _check_alpha(alpha)
    return _risk_lists(params, [a], ["TVaR"])[0][0]


def tv(params: ArctanGRParams, alpha) -> float:
    """Tail variance: variance of the loss beyond the VaR threshold."""
    a = _check_alpha(alpha)
    return _risk_lists(params, [a], ["TV"])[0][0]


RiskRow = namedtuple("RiskRow", "alpha var tvar tv")


#: A ``RiskRow`` from one ``(alpha, var, tvar, tv)`` tuple, as ``RiskRow._make``
#: builds it; mapped over a curve's rows it runs no Python frame per row, where
#: ``RiskRow(...)`` runs its Python-level ``__new__`` once per row.
_new_row = functools.partial(tuple.__new__, RiskRow)


MCOracleResult = namedtuple("MCOracleResult", "tvar tv tvar_se tv_se exceedances n")


#: How :func:`mc_oracle` draws, as a report's JSON ``method`` names it.
_MC_METHOD = "binomial exceedance count, then inverse-transform draws from the tail"


class RiskReport(FrozenRecord):
    """Rows of (alpha, var, tvar, tv) plus provenance metadata.

    ``source`` tags whether the rows came from model parameters or from
    empirical estimators; ``method`` (a fresh dict by default) records the
    series or the quantile convention that produced them.  ``mc_check``
    optionally holds one :func:`mc_oracle` result per row; the JSON and text
    layouts render it, and the JSON ``method`` then also names its design
    under ``"mc_check"``.  The CSV layout has no columns for it.

    The constructor checks the rows in one pass.  The checks, in order of
    precedence: each row's ``tvar >= var`` (to a slack of 1e-9 (1 + |var|))
    and ``tv >= 0``, one ``mc_check`` result per row, rows sorted by alpha,
    and then ``var`` and ``tvar`` nondecreasing in alpha (to the same slack).
    """

    _fields = ("rows", "source", "method", "mc_check")

    def __init__(self, rows: tuple, source: str, method: dict | None = None,
                 mc_check: tuple = ()):
        if not rows:
            raise DomainError("a risk report needs at least one row")
        slack = 1e-9
        descent = var_falls = tvar_falls = False
        # the previous row (none for the first).  A floor ``b - slack (1 + |b|)``
        # is never above ``b``, and NaN or -inf wherever ``b`` is not finite, so
        # ``a < b`` is tested first and the floor is taken only where it holds
        alpha0 = v0 = t0 = -math.inf
        for alpha, v, t, w in rows:
            if t < v and t < v - slack * (1.0 + abs(v)):
                raise DomainError(f"tvar < var at alpha={alpha}")
            if w < 0.0:
                raise DomainError(f"negative tail variance at alpha={alpha}")
            if alpha < alpha0:
                descent = True
            if v < v0 and v < v0 - slack * (1.0 + abs(v0)):
                var_falls = True
            if t < t0 and t < t0 - slack * (1.0 + abs(t0)):
                tvar_falls = True
            alpha0, v0, t0 = alpha, v, t
        if mc_check and len(mc_check) != len(rows):
            raise DomainError("mc_check needs one Monte Carlo result per row")
        # without a descent the rows are one sorted run; with one, sorted()
        # decides, as it would with a NaN level
        if descent:
            alphas = [row.alpha for row in rows]
            if sorted(alphas) != alphas:
                raise DomainError("risk report rows must be sorted by alpha")
        for col, falls in (("var", var_falls), ("tvar", tvar_falls)):
            if falls:
                raise DomainError(f"{col} must be nondecreasing in alpha")
        self.__dict__.update(rows=rows, source=source,
                             method={} if method is None else method, mc_check=mc_check)

    def to_csv(self) -> str:
        return dump_csv(["alpha", "var", "tvar", "tv"],
                        [[f"{v:.6g}" for v in row] for row in self.rows])

    def to_json(self) -> str:
        payload = {
            "source": self.source,
            "method": self.method,
            "rows": [row._asdict() for row in self.rows],
        }
        if self.mc_check:
            payload["method"] = {**self.method, "mc_check": _MC_METHOD}
            payload["mc_check"] = [c._asdict() for c in self.mc_check]
        return dump_json(payload)

    def to_text(self) -> str:
        header = f"{'alpha':>10} {'var':>14} {'tvar':>14} {'tv':>14}"
        lines = [f"risk report ({self.source})", header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.alpha:>10.6g} {row.var:>14.6g} {row.tvar:>14.6g} {row.tv:>14.6g}"
            )
        if self.mc_check:
            lines.append(f"monte carlo cross-check (n={self.mc_check[0].n}):")
            for row, c in zip(self.rows, self.mc_check):
                lines.append(
                    f"alpha={row.alpha:.6g}: tvar_mc={c.tvar:.6g} (se {c.tvar_se:.2g}), "
                    f"tv_mc={c.tv:.6g} (se {c.tv_se:.2g}), exceedances={c.exceedances}"
                )
        return "\n".join(lines) + "\n"


def _as_floats(alphas) -> list:
    """``alphas``, one level (a number, text as :func:`var` reads it, or
    anything else that cannot be iterated, such as a 0-d array) or a flat
    sequence of numbers, as a list of floats.  A level that reads as no
    double, and a nested sequence, raise :class:`DomainError`, as in
    :func:`_level`."""
    if isinstance(alphas, (int, float, str, bytes, bytearray)):
        return [_level(alphas)]
    try:
        levels = iter(alphas)
    except TypeError:
        return [_level(alphas)]
    try:
        return list(map(float, levels))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"confidence level must be a number: {exc}") from None


def risk_curve(params: ArctanGRParams, alphas) -> RiskReport:
    """Risk measures across confidence levels, one sorted row per level."""
    values = _as_floats(alphas)
    levels = sorted(values)
    # a NaN makes the sum NaN; otherwise the sorted ends bound every level
    if math.isnan(sum(values)) or levels and not (0.5 < levels[0] and levels[-1] < 1.0):
        levels = sorted(map(_check_alpha, values))  # raises on the first bad level
    if not levels:
        raise DomainError("alphas must be nonempty")
    rows = tuple(map(_new_row, zip(levels, *_risk_lists(params, levels))))
    return RiskReport(
        rows=rows,
        source=f"model(omega={params.omega!r}, psi={params.psi!r})",
        method={"rule": "density series, termwise, cut off per level",
                "relative_remainder": REMAINDER_BOUND},
    )


def empirical_risk(data: LossDataset, alpha) -> RiskRow:
    """Order-statistic risk estimates from a loss sample.

    VaR is the linear-interpolation quantile at rank ``h = (n-1)*alpha + 1``
    (numpy's default); TVaR is the mean of observations strictly exceeding
    it and TV their population variance, which needs at least two
    exceedances.  All three run on the sample's floats: VaR with the bits of
    ``np.quantile``, TVaR and TV by :func:`arctangr._util.mean_var`'s correctly
    rounded sums, at the exceedances' unit scale (see
    :func:`arctangr._util.unit_exponent`).
    Unlike the model-based measures, any ``alpha`` in (0, 1) is accepted.
    """
    a = _level(alpha)
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if data.n < 2:
        raise DataError("empirical risk needs at least 2 observations")
    xs = data.sorted_values
    threshold = _linear_quantile(xs, a)
    exceed = xs[bisect_right(xs, threshold):]
    if len(exceed) < 2:
        raise DataError(
            f"empirical TVaR/TV need at least 2 observations above the VaR "
            f"threshold; got {len(exceed)} at alpha={a}"
        )
    e = unit_exponent(exceed[0], exceed[-1])
    mean, var = mean_var(exceed, e)
    try:
        tv = math.ldexp(var, 2 * e)
    except OverflowError:
        # TV scales like the square, so it may overflow where the mean does not
        raise DataError(f"empirical TV at alpha={a} is not a finite double") from None
    return RiskRow(a, threshold, math.ldexp(mean, e), tv)


def empirical_risk_curve(data: LossDataset, alphas) -> RiskReport:
    """Empirical analogue of :func:`risk_curve`."""
    levels = sorted(_as_floats(alphas))
    rows = tuple(empirical_risk(data, a) for a in levels)
    return RiskReport(
        rows=rows,
        source=f"empirical:{data.name}",
        method={"quantile_rank": "h = (n-1)*alpha + 1, linear interpolation"},
    )


#: Tail draws per block, drawn and mapped in one reused 256 KiB buffer.  For
#: 1e7 draws on a 2-vCPU Xeon VM, 16 and 32 Ki ran fastest of 8 to 64 Ki
#: (64 Ki 5-20% slower).
_DRAW_BLOCK = 1 << 15


def mc_oracle(params: ArctanGRParams, alpha, n, seed) -> MCOracleResult:
    """Monte Carlo estimate of TVaR/TV with standard errors, from ``n`` draws.

    Of ``n`` iid draws the number above VaR is Binomial(n, 1 - alpha), and
    given that number they are iid from the tail.  So one generator,
    ``np.random.default_rng(seed)`` (``seed`` an int or a ``SeedSequence``),
    draws that count ``k``, then ``k`` tail probabilities ``q = (1 - alpha) U``,
    ``U`` uniform on (0, 1], ``_DRAW_BLOCK`` at a time into one reused buffer.
    Each block is mapped in place to ``x``: by :func:`_z_tail_quantile` at ``q``
    from ``alpha >= P_STAR`` on, by the general quantile at ``1 - q`` below
    it.  ``x > VaR`` decides each draw, so one that rounds onto the threshold
    does not count, and each block adds its four sums of ``x - VaR`` (shifted
    to limit cancellation in the higher moments).  Time scales with
    ``(1 - alpha) n`` and memory is fixed; the same seed gives the same
    result.  ``n`` is at most ``2**63 - 1``, the largest count the binomial
    draw takes.

    The passes run on ``omega``, ``psi`` and the threshold times ``2^-s``,
    ``2^s`` the power of two just above ``psi`` (``s = 0`` for ``psi < 1``),
    and the results are mapped back by ``2^s`` (TVaR and its SE) and ``2^2s``
    (TV and its SE).  Power-of-two scaling is exact, so every number keeps
    its bits wherever no value leaves the normal double range, and the
    squares and fourth powers of the exceedances stay finite wherever TV is.
    A result that is not a finite double raises :class:`DomainError`.
    """
    import numpy as np

    from ._arrays import generator
    from .distributions import _from_z, _z_quantile, _z_tail_quantile

    a = _check_alpha(alpha)
    if not (is_integer(n) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    if n > 2**63 - 1:
        raise DomainError(f"n must be at most 2**63 - 1, got {n}")
    s = max(0, math.frexp(params.psi)[1])
    unit = ArctanGRParams(math.ldexp(params.omega, -s), math.ldexp(params.psi, -s))
    threshold = math.ldexp(var(params, a), -s)
    tail = 1.0 - a  # exact, as a >= 1/2
    if a >= P_STAR:
        to_z = _z_tail_quantile
    else:
        def to_z(q):
            return _z_quantile(np.subtract(1.0, q, out=q))

    rng = generator(seed)
    k = int(rng.binomial(n, tail))
    draws = np.empty(min(k, _DRAW_BLOCK))
    m = 0
    s1 = s2 = s3 = s4 = 0.0
    for j in range(0, k, _DRAW_BLOCK):
        q = draws[:min(_DRAW_BLOCK, k - j)]
        rng.random(out=q)
        # 1 - U is exact and lies in (0, 1], so q > 0 and its quantile is finite
        np.subtract(1.0, q, out=q)
        q *= tail
        x = _from_z(unit, to_z(q))
        hit = x > threshold
        y = x if hit.all() else x[hit]
        y -= threshold
        m += y.size
        s1 += y.sum()
        y2 = y * y
        s2 += y2.sum()
        y *= y2
        s3 += y.sum()
        y2 *= y2
        s4 += y2.sum()

    if m < 2:
        raise DomainError(
            f"only {m} of {n} samples exceeded the VaR threshold; "
            "increase n or lower alpha"
        )
    mean = s1 / m
    m2 = s2 / m - mean**2
    m4 = s4 / m - 4.0 * mean * s3 / m + 6.0 * mean**2 * s2 / m - 3.0 * mean**4
    tvar_se = math.sqrt(max(m2, 0.0) / m)
    tv_se = math.sqrt(max(m4 - m2 * m2, 0.0) / m)
    try:
        return MCOracleResult(math.ldexp(threshold + mean, s), math.ldexp(m2, 2 * s),
                              math.ldexp(tvar_se, s), math.ldexp(tv_se, 2 * s), m, n)
    except OverflowError:
        raise DomainError(
            f"the Monte Carlo TVaR/TV at alpha={a} is not a finite double") from None
