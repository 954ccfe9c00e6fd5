"""Maximum-likelihood fitting and information-criterion model comparison.

The arctan Gaussian-Rayleigh log-likelihood is piecewise smooth in the
location (a kink at every data point, inherited from ``|x - omega|``) and
smooth in the scale, and its score is closed-form.  It is maximized from
that score: a bracketed Newton iteration on ``log psi`` for each omega, and
in omega one bracketed search on the one-sided slopes of the profile, from
the sample's ``P_STAR`` quantile (where the model puts omega) toward an open
end just beyond the data, narrowed over the order statistics and then inside
a gap between two data points (samples with few distinct values are also
swept point by point).  Every score pass of a fit writes one preallocated
workspace in place.  The fit stops on a checkable rule (see
:func:`fit_agr`).  No scipy is
imported.  The baseline Gaussian, Rayleigh, and Laplace fits are
closed-form MLEs.  Every fit runs on its sample at unit scale, ``x``
times ``2^-e`` (:func:`arctangr._util.unit_exponent`; ``e = 0`` for
``max|x|`` in ``[2^-449, 2^448)``), where no sum overflows and no nonzero
squared deviation leaves the normal doubles; each parameter, a location
or a scale, maps back by ``2^e``, and the log-likelihood by
``- n e log 2``.  The four models are registered once, in :data:`MODELS`.
Model ranking uses AIC, BIC, CAIC, and HQIC (lower is better; higher
log-likelihood is better).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._util import dump_csv, dump_json, unit_exponent
from .dataset import LossDataset, _linear_quantile
from .distributions import (
    P_STAR,
    ArctanGRParams,
    GaussianParams,
    RayleighParams,
    _z_log_shape,
    agr_logpdf,
    agr_pdf,
    gaussian_logpdf,
    gaussian_pdf,
    mixture_kernel_logpdf,
    mixture_kernel_pdf,
    rayleigh_logpdf,
    rayleigh_pdf,
)
from .errors import DataError, DomainError

CRITERIA = ("aic", "bic", "caic", "hqic")

#: Columns of a fit's CSV row, shared by ``fit`` and ``compare``.
_CSV_HEADER = ("model", "par", "r", "loglik", *CRITERIA)


class Criteria(NamedTuple):
    aic: float
    bic: float
    caic: float
    hqic: float


def information_criteria(loglik, n, r) -> Criteria:
    """AIC/BIC/CAIC/HQIC from a log-likelihood, sample size, and param count.

        AIC  = -2l + 2r
        BIC  = -2l + r ln(n)
        CAIC = -2l + 2nr / (n - r - 1)
        HQIC = -2l + 2r ln(ln(n))

    Requires ``n >= 3`` (so ``ln ln n`` is positive) and ``n > r + 1`` (so
    CAIC's denominator is positive).
    """
    loglik = float(loglik)
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise DomainError(f"sample size n must be an integer >= 3, got {n!r}")
    if not (isinstance(r, (int, np.integer)) and r >= 0):
        raise DomainError(f"parameter count r must be a nonnegative integer, got {r!r}")
    if n <= r + 1:
        raise DomainError(f"CAIC undefined: need n > r + 1, got n={n}, r={r}")
    neg2l = -2.0 * loglik
    return Criteria(
        aic=neg2l + 2.0 * r,
        bic=neg2l + r * math.log(n),
        caic=neg2l + 2.0 * n * r / (n - r - 1),
        hqic=neg2l + 2.0 * r * math.log(math.log(n)),
    )


@dataclass(frozen=True)
class FitResult:
    """One fitted model: parameters, log-likelihood, criteria, diagnostics.

    The diagnostics describe an iterative fit (AGR; the closed forms keep the
    defaults): ``iterations`` counts its omega steps, ``nfev`` its score
    passes, ``converged`` says whether its stopping rule holds, and ``stop``
    holds the numbers that rule reads, which ``as_dict`` includes when set.
    """

    model_name: str
    params: object
    loglik: float
    n: int
    r: int
    aic: float
    bic: float
    caic: float
    hqic: float
    iterations: int = 0
    converged: bool = True
    nfev: int = 0
    stop: dict | None = None

    def params_dict(self) -> dict:
        return dict(vars(self.params))

    def as_dict(self) -> dict:
        return {
            "model": self.model_name,
            "params": self.params_dict(),
            "r": self.r,
            "n": self.n,
            "loglik": self.loglik,
            "aic": self.aic,
            "bic": self.bic,
            "caic": self.caic,
            "hqic": self.hqic,
            "iterations": self.iterations,
            "converged": self.converged,
            "nfev": self.nfev,
            **({"stop": self.stop} if self.stop is not None else {}),
        }

    def _par(self) -> str:
        return "; ".join(f"{k}={v:.6g}" for k, v in self.params_dict().items())

    def _csv_row(self) -> list:
        return [self.model_name, self._par(), self.r] + [
            f"{getattr(self, c):.6g}" for c in ("loglik", *CRITERIA)
        ]

    def to_json(self) -> str:
        return dump_json(self.as_dict())

    def to_csv(self) -> str:
        return dump_csv(_CSV_HEADER, [self._csv_row()])

    def to_text(self) -> str:
        return (
            f"model: {self.model_name}\nparams: {self._par()}\n"
            f"n: {self.n}    r: {self.r}\n"
            f"loglik: {self.loglik:.6g}\n"
            f"aic: {self.aic:.6g}    bic: {self.bic:.6g}\n"
            f"caic: {self.caic:.6g}    hqic: {self.hqic:.6g}\n"
            f"converged: {self.converged} "
            f"(iterations={self.iterations}, nfev={self.nfev})\n"
        )


def _values(data) -> LossDataset:
    """``data`` as a :class:`LossDataset`, which checks a sample once (1-d,
    nonempty, finite) and sorts it once; any other input is coerced to one
    named ``"sample"``, so it raises the dataset's :class:`DataError`."""
    if isinstance(data, LossDataset):
        return data
    return LossDataset(values=data, source="array", name="sample")


def agr_loglik(params: ArctanGRParams, data) -> float:
    """Sum of AGR log-densities over the sample."""
    return float(np.sum(agr_logpdf(params, _values(data).array)))


def _unit_sample(data):
    """``(e, y, ys)``: the exponent of the sample's unit scale
    (:func:`unit_exponent`, from its sorted ends), and the sample and its
    sorted copy times ``2^-e``: the dataset's own arrays where ``e = 0``."""
    xs = data.sorted_array
    e = unit_exponent(xs.item(0), xs.item(-1))
    if not e:
        return 0, data.array, xs
    unit = math.ldexp(1.0, -e)
    return e, data.array * unit, xs * unit


def _build_result(model_name, params, logpdf, y, e, r, **diag) -> FitResult:
    """The fit's result from ``params`` fitted to ``y``, the sample times
    ``2^-e``: every parameter, a location or a scale, maps back by ``2^e``,
    and the log-likelihood ``sum(logpdf(params, y))`` by ``- n e log 2``; a
    scale that maps back to 0 raises :class:`DataError`."""
    n = int(y.size)
    ll = float(np.sum(logpdf(params, y))) - n * e * math.log(2.0)
    if not math.isfinite(ll):
        raise DataError(f"{model_name} fit: the log-likelihood is not a finite double")
    try:
        params = type(params)(**{k: math.ldexp(v, e) for k, v in vars(params).items()})
    except DomainError:  # only a scale can fail its check: it rounded to 0
        raise DataError(f"{model_name} fit: the fitted scale rounds below the smallest "
                        "positive double") from None
    return FitResult(model_name=model_name, params=params, loglik=ll, n=n, r=r,
                     **information_criteria(ll, n, r)._asdict(), **diag)


def _check_size(x, r, model):
    """CAIC needs ``n > r + 1``, so a fit of ``r`` parameters to fewer than
    ``r + 2`` observations raises :class:`DomainError` before it is made."""
    if x.size <= r + 1:
        raise DomainError(f"{model} fit needs at least {r + 2} observations, got {x.size}")


def fit_gaussian(data) -> FitResult:
    """Closed-form Gaussian MLE: sample mean and population SD, at the
    sample's unit scale."""
    data = _values(data)
    _check_size(data.array, 2, "Gaussian")
    e, y, _ = _unit_sample(data)
    sd = float(y.std(ddof=0))
    if sd <= 0.0:
        raise DataError("Gaussian fit is degenerate: sample has zero variance")
    params = GaussianParams(omega=float(y.mean()), eta=sd)
    return _build_result("gaussian", params, gaussian_logpdf, y, e, r=2)


def fit_rayleigh(data) -> FitResult:
    """Closed-form Rayleigh MLE: ``psi = sqrt(sum(x^2) / (2n))``, at the
    sample's unit scale.  The log-likelihood is taken on ``x`` itself, where
    :func:`rayleigh_logpdf` is finite at every scale: at unit scale its
    ``log x`` could round away."""
    data = _values(data)
    x = data.array
    if np.any(x <= 0.0):
        raise DataError("Rayleigh fit requires strictly positive data")
    _check_size(x, 1, "Rayleigh")
    e, y, _ = _unit_sample(data)
    psi = math.ldexp(float(np.sqrt(np.sum(y * y) / (2.0 * y.size))), e)
    return _build_result("rayleigh", RayleighParams(psi=psi), rayleigh_logpdf, x, 0, r=1)


def _median_and_spread(y, ys, model):
    """Median of the unit sample ``y`` (read from ``ys``, the same values
    sorted) and mean absolute deviation from it, which must be positive for
    the ``model`` fit to have a scale."""
    med = _linear_quantile(ys, 0.5)
    scale = float(np.mean(np.abs(y - med)))
    if scale <= 0.0:
        raise DataError(f"{model} fit is degenerate: zero absolute deviation")
    return med, scale


def fit_laplace(data) -> FitResult:
    """Closed-form Laplace MLE: median and mean absolute deviation from it,
    at the sample's unit scale.

    This is the MLE of the Gaussian-Rayleigh mixture kernel, so the result
    reuses :class:`ArctanGRParams`.
    """
    data = _values(data)
    e, y, ys = _unit_sample(data)
    med, scale = _median_and_spread(y, ys, "Laplace")
    _check_size(y, 2, "Laplace")
    params = ArctanGRParams(omega=med, psi=scale)
    return _build_result("laplace", params, mixture_kernel_logpdf, y, e, r=2)


#: Score passes per psi solve; score passes and omega steps per fit.
_PSI_PASSES = 60
_MAX_PASSES = 2000
_MAX_STEPS = 400
#: The psi-score is at rounding level within this many ulps of its terms' sum.
_PSI_ROUNDING = 64.0
#: Samples with at most this many distinct values are swept point by point.
_SWEEP_N = 32
_EPS = float(np.finfo(float).eps)


class _Point(NamedTuple):
    """The profile ``l(omega, psi-hat(omega))`` at one ``omega``: ``t = log psi-hat``,
    the psi-score ``dl/dt`` there and its rounding level, and, per side of
    ``omega`` (left, right), the slope ``dl/domega`` and two candidate omega
    steps: a Newton step on the profile's curvature between data points
    (``nan`` where that is not concave), and a scoring step on its
    outer-product curvature, which counts the kinks.  A data point at
    ``omega`` is a kink: the slope drops by ``2/psi`` across it."""

    omega: float
    t: float
    psi_score: float
    psi_tol: float
    slope: tuple
    newton: tuple
    scoring: tuple


class _Pass:
    """One score pass at ``psi`` on the workspace of an :class:`_AgrSearch` that
    :meth:`_AgrSearch.at` has pointed at omega.

    With ``s = +-1`` the side of omega (points at omega count on the right),
    ``u = e^{-|z|}``, ``w = H(z)``, ``q = 1 + w^2``, ``r = w u / q`` and
    ``G = u^2 / q``, the log-shape's derivatives are ``L' = -s - r`` and
    ``L'' = r^2 + s r - G/2``; as ``s z = |z|``, every sum below is a sum of
    ``r``, ``z r`` and ``z G`` against ``1``, ``z`` and ``|z|``.  The pass
    writes ``z``, ``u``, ``w``, ``q``, ``r = w (u/q)``, ``G = u (u/q)``,
    ``z r`` and ``z G`` into the workspace and takes the two sums that the
    psi step reads; every other sum is read from the workspace on first
    use, so a pass is valid until the next one.  Sums named ``l1``/``l2``
    are of ``L'``/``L''``, with their ``z`` factors as a prefix; the others
    are named by their factors, with ``a = |z|`` and ``s``: ``a_zr`` is
    ``sum |z| z r``.
    """

    def __init__(self, ws, psi):
        z, u, w, q, r, g, zr, zg = ws.z, ws.u, ws.w, ws.q, ws.r, ws.g, ws.zr, ws.zg
        self.ws = ws
        self.psi = psi
        np.divide(ws.d, psi, out=z)
        np.divide(ws.a, -psi, out=u)
        np.exp(u, out=u)
        np.multiply(u, 0.5, out=w)
        right = w[ws.below:]
        np.subtract(1.0, right, out=right)
        np.multiply(w, w, out=q)
        q += 1.0
        np.divide(u, q, out=g)
        np.multiply(w, g, out=r)
        g *= u
        np.multiply(z, r, out=zr)
        np.multiply(z, g, out=zg)
        # pairwise sums where rounding matters (the score and the slopes);
        # np.dot for the curvatures, which only shape steps
        self.zr_zr = float(np.dot(zr, zr))
        self.a_zr = float(np.dot(ws.a, zr)) / psi
        self.zl1 = -ws.a_sum / psi - float(zr.sum())
        self.z2l2 = self.zr_zr + self.a_zr - 0.5 * float(np.dot(zg, z))

    @functools.cached_property
    def row_sums(self):
        """``(sum G, sum z G, sum z, sum r)``: one reduction over four rows of
        the workspace, each row's sum pairwise as ``ndarray.sum`` takes it."""
        return self.ws.summed.sum(axis=1).tolist()

    @functools.cached_property
    def r_sum(self):
        return self.row_sums[3]

    @functools.cached_property
    def sr_sum(self):
        return self.r_sum - 2.0 * float(self.ws.r[:self.ws.below].sum())

    @functools.cached_property
    def r_r(self):
        return float(np.dot(self.ws.r, self.ws.r))

    @functools.cached_property
    def a_r(self):
        return float(np.dot(self.ws.a, self.ws.r)) / self.psi

    @functools.cached_property
    def zr_r(self):
        return float(np.dot(self.ws.zr, self.ws.r))

    @functools.cached_property
    def l1(self):
        return 2.0 * self.ws.below - self.ws.n - self.r_sum

    @functools.cached_property
    def zl2(self):
        return self.zr_r + self.a_r - 0.5 * self.row_sums[1]

    @functools.cached_property
    def l2(self):
        return self.r_r + self.sr_sum - 0.5 * self.row_sums[0]

    @functools.cached_property
    def l11(self):
        return self.ws.n + 2.0 * self.sr_sum + self.r_r

    @functools.cached_property
    def zl11(self):
        return self.row_sums[2] + 2.0 * self.a_r + self.zr_r

    @functools.cached_property
    def z2l11(self):
        return float(np.dot(self.ws.z, self.ws.z)) + 2.0 * self.a_zr + self.zr_zr


class _AgrSearch:
    """The score-driven AGR fit on a sorted sample ``xs``; see :func:`fit_agr`.

    Its score passes (:class:`_Pass`) all write one workspace of ``n``-arrays,
    allocated here.  ``xs`` is at unit scale, so no sum of it overflows."""

    def __init__(self, xs):
        self.xs = xs
        self.n = n = xs.size
        self.passes = 0
        self.steps = 0
        ws = np.empty((10, n))
        self.d, self.a, self.u, self.w, self.q, self.zr, self.g, self.zg, self.z, self.r = ws
        self.summed = ws[6:]  # G, z G, z, r: the rows summed together

    def at(self, omega):
        """Point the workspace at ``omega``: ``below`` points lie left of it and
        ``m`` at it, ``d = x - omega``, and ``a = |d|``, with its sum."""
        xs = self.xs
        self.below = int(xs.searchsorted(omega, "left"))
        self.m = int(xs.searchsorted(omega, "right")) - self.below
        np.subtract(xs, omega, out=self.d)
        np.abs(self.d, out=self.a)
        self.a_sum = float(self.a.sum())

    def score_pass(self, psi):
        """A :class:`_Pass` at ``psi``; it overwrites the last one's workspace."""
        self.passes += 1
        return _Pass(self, psi)

    def slope_tol(self, omega, psi):
        """Rounding level of a slope at ``(omega, psi)``: the rounding of its ``n``
        terms, each below 2 in size, and what one double step of omega changes."""
        return self.n * (16.0 * _EPS + math.ulp(omega) / psi) / psi

    def point(self, omega, t, tight=False):
        """Solve ``psi-hat(omega)`` by a bracketed Newton iteration on ``t = log psi``
        from the guess ``t`` and return the :class:`_Point`.

        The psi-score is solved to rounding level unless ``tight`` is false and
        the profile clearly rises on one side of ``omega``: then it stops once
        the psi error moves the slopes by under a tenth of that rise.  Each
        pass computes only the sums its step and this test read; the rest are
        taken once, from the last pass.
        """
        n = self.n
        self.at(omega)
        m = self.m
        lo, hi = -math.inf, math.inf
        for _ in range(_PSI_PASSES):
            psi = math.exp(t)
            s = self.score_pass(psi)
            score, ltt = -n - s.zl1, s.zl1 + s.z2l2
            # every z L'(z) is <= 0, so n - zl1 is the sum of the terms' sizes;
            # and t itself moves the score by ltt per unit, in steps of ulp(t)
            tol = _PSI_ROUNDING * _EPS * (n - s.zl1) + abs(ltt) * math.ulp(t)
            if abs(score) <= tol:
                break
            if not tight and ltt < 0.0:
                rise = max(-(s.l1 + 2.0 * m), s.l1) / psi - self.slope_tol(omega, psi)
                # the shift is never negative, so no rise below 0 can end the solve
                if rise >= 0.0:
                    shift = (abs(s.l1 + s.zl2) + 2.0 * m) * abs(score / ltt) / psi
                    if shift <= 0.1 * rise:
                        break
            if score > 0.0:
                lo = t
            else:
                hi = t
            step = -score / ltt if ltt < 0.0 else math.copysign(1.0, score)
            nxt = t + max(-1.0, min(1.0, step))
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi) if math.isfinite(lo + hi) else t + math.copysign(1.0, score)
            if nxt == t:
                break
            t = nxt
        # per observation, the scores in omega and t are -L'/psi and -1 - z L';
        # sums carry psi as a factor, so no power of psi under- or overflows
        tt = n + 2.0 * s.zl1 + s.z2l11
        slope, newton, scoring = [], [], []
        # the points at omega count with L'(0+) = -1.4 and L''(0+) = 0.16 on the
        # left, and with L'(0-) = 0.6 and L''(0-) = -0.64 on the right
        for g1, g2, g11 in ((s.l1, s.l2, s.l11), (s.l1 + 2.0 * m, s.l2 - 0.8 * m, s.l11 - 1.6 * m)):
            lwt, wt = g1 + s.zl2, g1 + s.zl11
            curv = g2 - (lwt * lwt / ltt if ltt < 0.0 else 0.0)
            info = g11 - wt * wt / tt
            slope.append(-g1 / psi)
            newton.append(psi * (g1 / curv) if curv < 0.0 else math.nan)
            scoring.append(psi * (-g1 / info) if info > 0.0 else math.copysign(math.inf, -g1))
        return _Point(omega, t, score, tol, *map(tuple, (slope, newton, scoring)))

    def step_to(self, p, omega):
        """One omega step: :meth:`point` at ``omega``, from ``p``'s ``log psi``."""
        self.steps += 1
        return self.point(omega, p.t)

    def rises(self, p):
        """Whether the profile rises to the right of ``p`` (else, unless ``p``
        is a local maximum, it rises to the left)."""
        return p.slope[1] > self.slope_tol(p.omega, math.exp(p.t))

    def is_max(self, p):
        """``slope_right <= 0 <= slope_left`` to the slopes' rounding level."""
        tol = self.slope_tol(p.omega, math.exp(p.t))
        return p.slope[1] <= tol and p.slope[0] >= -tol

    def open_end(self, side):
        """A bracket end one double beyond the data on ``side`` (1 right, 0 left),
        where every ``L'`` has one sign: infinite slopes, no psi solve (``t`` is
        ``nan``), and never stepped from or returned."""
        slope = -math.inf if side else math.inf
        omega = np.nextafter(self.xs[-1 if side else 0], slope)
        return _Point(float(omega), math.nan, math.nan, math.nan, (slope, slope), (), ())

    def budget_left(self):
        return self.steps < _MAX_STEPS and self.passes < _MAX_PASSES

    def sweep(self, values, p):
        """Every local maximum that the one-sided slopes at the distinct data
        ``values`` reveal: the values where the rule holds, and the maximum of
        each gap whose ends rise into it.  The first step starts from ``p``."""
        pts = []
        for v in values:
            p = self.step_to(p, float(v))
            pts.append(p)
        found = [p for p in pts if self.is_max(p)]
        for a, b in zip(pts, pts[1:]):
            if self.rises(a) and b.slope[0] < -self.slope_tol(b.omega, math.exp(b.t)):
                found.append(self.narrow(a, b))
        return found

    def loglik(self, p):
        """The log-likelihood at ``p`` less its constant ``n log(2/pi)``."""
        return float(_z_log_shape((self.xs - p.omega) / math.exp(p.t)).sum()) - self.n * p.t

    def narrow(self, a, b):
        """Shrink ``[a, b]``, where the profile rises to the right of ``a`` and to
        the left of ``b``, to a local maximum.  Either end may be an
        :meth:`open_end`.  From the end ``p`` of smaller slope, take a scoring
        step, no further than the data, while data points lie inside: one that
        falls short of the data point nearest ``p`` becomes a Newton step
        inside that gap (or that point), any other goes to the data point
        nearest it.  Once none is left, take Newton steps inside the gap.  A
        step outside the bracket falls back to the secant of the two slopes.
        Once both ends are closed, the bracket halves (in data points, then in
        width) at least every second step."""
        xs = self.xs
        sizes = []
        while self.budget_left():
            lo = int(xs.searchsorted(a.omega, "right"))
            hi = int(xs.searchsorted(b.omega, "left"))
            inside = hi > lo
            sa, sb = a.slope[1], b.slope[0]
            p, side = (a, 1) if sa <= -sb else (b, 0)
            guess = min(max(p.omega + (p.scoring if inside else p.newton)[side], xs[0]), xs[-1])
            if not a.omega < guess < b.omega:
                guess = a.omega + (b.omega - a.omega) * (sa / (sa - sb))
            if sizes and sizes[-1][0] != inside:
                sizes = []
            if math.isfinite(a.t + b.t):  # both ends closed
                sizes.append((inside, hi - lo if inside else b.omega - a.omega))
            halve = len(sizes) > 2 and sizes[-1][1] > sizes[-3][1] / 2
            if inside:
                nxt = float(xs[lo if side else hi - 1])  # the data point ahead of p
                if halve:
                    omega = float(xs[(lo + hi) // 2])
                elif (guess < nxt) if side else (guess > nxt):  # up to nxt the profile is smooth
                    omega = p.omega + p.newton[side]
                    if not min(p.omega, nxt) < omega < max(p.omega, nxt):
                        omega = nxt
                else:
                    j = min(max(int(np.searchsorted(xs, guess)), lo), hi - 1)
                    if j > lo and guess - xs[j - 1] < xs[j] - guess:
                        j -= 1
                    omega = float(xs[j])
            else:
                omega = guess
                if halve or not a.omega < omega < b.omega:  # the secant can round onto an end
                    omega = a.omega + 0.5 * (b.omega - a.omega)
                if not a.omega < omega < b.omega:  # a and b are adjacent doubles
                    break
            new = self.step_to(p, omega)
            if self.is_max(new):
                return new
            if self.rises(new):
                a = new
            else:
                b = new
        return a if a.slope[1] <= -b.slope[0] else b


def fit_agr(data) -> FitResult:
    """Fit the arctan Gaussian-Rayleigh model by its analytic score.

    The log-likelihood is ``n log(2/(pi psi)) + sum L(z_i)`` with
    ``z_i = (x_i - omega)/psi`` and ``L(z) = -|z| - log1p(w^2)``, whose
    derivatives are closed forms (see :class:`_Pass`).
    For a fixed omega, ``psi-hat`` solves the psi-score
    ``dl/dlog psi = -n - sum z L'(z)`` by a bracketed Newton iteration on
    ``log psi``.  The profile ``l(omega, psi-hat(omega))`` is smooth between
    data points and has a concave kink at each, its slope
    ``-sum L'(z)/psi`` dropping by ``2/psi`` per point; beyond the data it
    falls away on both sides.  One bracketed search, from the sample's
    ``P_STAR`` quantile (omega is the model's ``P_STAR`` quantile, as
    ``G(0) = P_STAR``) to an open end just beyond the data on its rising
    side, narrows by scoring and Newton steps on the profile, one-sided at
    kinks, over the order statistics and then inside a gap between two data
    points.

    ``converged`` means the stopping rule holds at the returned point: the
    psi-score is at rounding level and ``slope_right <= 0 <= slope_left``,
    both slopes to their rounding level.  ``stop`` records those three
    numbers and the two tolerances (``psi_tol``, ``slope_tol``), so that
    ``converged`` is ``|psi_score| <= psi_tol`` and ``omega_slope_right <=
    slope_tol`` and ``omega_slope_left >= -slope_tol``, from ``stop`` alone;
    ``iterations`` counts the omega steps and ``nfev`` the score passes.  The
    likelihood is not concave, so this certifies a local maximum: the one the
    search from that quantile reaches.  Samples with at
    most 32 distinct values (small or coarsely rounded ones), where several
    local maxima are common, are also swept: every value where the rule
    holds and the maximum of every gap whose ends rise into it compete with
    that one, and the highest is returned.  CAIC needs ``n > r + 1``, so
    fewer than 4 observations raise :class:`DomainError` before the search.

    The search, its starting scale and the log-likelihood run on the sample
    at unit scale (see :func:`_unit_sample`); omega and psi map back by
    ``2^e``, the slopes in ``stop`` by ``2^-e``.  So two samples with one
    unit sample, ``x`` and ``2^k x`` both beyond the same edge of the band,
    have fits exactly ``2^k`` apart.
    """
    data = _values(data)
    e, y, xs = _unit_sample(data)
    _, scale = _median_and_spread(y, xs, "AGR")
    _check_size(y, 2, "AGR")
    search = _AgrSearch(xs)
    best = search.point(_linear_quantile(xs, P_STAR), math.log(scale))
    if not search.is_max(best):
        ends = (best, search.open_end(1)) if search.rises(best) else (search.open_end(0), best)
        best = search.narrow(*ends)
    new = xs[1:] != xs[:-1]
    if np.count_nonzero(new) < _SWEEP_N:  # at most _SWEEP_N distinct values
        values = xs[np.r_[True, new]]
        best = max([best, *search.sweep(values, best)], key=search.loglik)
    if abs(best.psi_score) > best.psi_tol:
        best = search.point(best.omega, best.t, tight=True)
    psi = math.exp(best.t)
    # the slopes are per unit of omega, so they map back by 2^-e
    per_x = 2.0 ** -e
    return _build_result(
        "agr",
        ArctanGRParams(omega=float(best.omega), psi=psi),
        agr_logpdf,
        y,
        e,
        r=2,
        iterations=search.steps,
        nfev=search.passes,
        converged=search.is_max(best) and abs(best.psi_score) <= best.psi_tol,
        stop={"psi_score": best.psi_score, "psi_tol": best.psi_tol,
              "omega_slope_left": best.slope[0] * per_x, "omega_slope_right": best.slope[1] * per_x,
              "slope_tol": search.slope_tol(best.omega, psi) * per_x},
    )


class Model(NamedTuple):
    """A candidate model: display label, MLE fitter, and density ``pdf(params, x)``."""

    label: str
    fit: Callable[..., FitResult]
    pdf: Callable


#: The candidate models, in comparison order.
MODELS = {
    "agr": Model("Arctan-GR", fit_agr, agr_pdf),
    "gaussian": Model("Gaussian", fit_gaussian, gaussian_pdf),
    "rayleigh": Model("Rayleigh", fit_rayleigh, rayleigh_pdf),
    "laplace": Model("Laplace", fit_laplace, mixture_kernel_pdf),
}


@dataclass(frozen=True)
class ComparisonTable:
    """Fit results for every candidate model plus the winner per criterion."""

    rows: tuple[FitResult, ...]
    best_by: dict

    def to_csv(self) -> str:
        return dump_csv(_CSV_HEADER, [row._csv_row() for row in self.rows])

    def to_json(self) -> str:
        return dump_json({"rows": [row.as_dict() for row in self.rows], "best_by": self.best_by})

    def to_text(self) -> str:
        headers = ["Model", "Par.", "r", "LL", "AIC", "BIC", "CAIC", "HQIC"]
        cells = []
        for row in self.rows:
            par = ", ".join(f"{k}={v:.4g}" for k, v in row.params_dict().items())
            cells.append(
                [MODELS[row.model_name].label, par, str(row.r)]
                + [f"{getattr(row, c):.6g}" for c in ("loglik", *CRITERIA)]
            )
        widths = [
            max(len(headers[i]), *(len(c[i]) for c in cells)) for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for c in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip())
        best = ", ".join(f"{k}: {v}" for k, v in self.best_by.items())
        lines.append("")
        lines.append(f"best by criterion -- {best}")
        return "\n".join(lines) + "\n"


def compare_models(data) -> ComparisonTable:
    """Fit every model in :data:`MODELS` and rank them per criterion."""
    data = _values(data)
    results = tuple(model.fit(data) for model in MODELS.values())
    best_by = {"loglik": max(results, key=lambda r: r.loglik).model_name}
    for criterion in CRITERIA:
        best_by[criterion] = min(results, key=lambda r: getattr(r, criterion)).model_name
    return ComparisonTable(rows=results, best_by=best_by)
