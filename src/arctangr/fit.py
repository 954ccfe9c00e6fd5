"""Maximum-likelihood fitting and information-criterion model comparison.

The arctan Gaussian-Rayleigh log-likelihood is piecewise smooth in the
location (a kink at every data point, inherited from ``|x - omega|``) and
smooth in the scale, and its score is closed-form.  It is maximized from
that score: a bracketed Newton iteration on ``log psi`` for each omega, and
in omega one bracketed search on the one-sided slopes of the profile, from
the sample's ``P_STAR`` quantile (where the model puts omega) toward an open
end just beyond the data, narrowed over the order statistics and then inside
a gap between two data points (samples with few distinct values are also
swept point by point).  The fit stops on a checkable rule (see
:func:`fit_agr`).  No scipy is imported.  The baseline Gaussian, Rayleigh,
and Laplace fits are closed-form MLEs.  Every fit of a sample of at most
:data:`FLOAT_FIT_MAX` points runs on Python floats, with no numpy: a score
pass is one loop per side of omega (:meth:`_AgrSearch.sums`), and each
model's log-density is one float per point; larger samples run the same
fits on numpy arrays (:mod:`arctangr._fit_arrays`), whose score pass writes
one preallocated workspace in place.  Each path takes only a pass's raw
sums, and :class:`_ScorePass` defines its derivatives once.  Each fit reads
one copy of its sample, the sorted one (:func:`_path`), so no result depends
on the order of the rows.  Every fit runs on its sample at unit scale, ``x``
times ``2^-e`` (:func:`arctangr._util.unit_exponent`; ``e = 0`` for
``max|x|`` in ``[2^-449, 2^448)``), where no sum overflows and no nonzero
squared deviation leaves the normal doubles; each parameter, a location
or a scale, maps back by ``2^e``, and the log-likelihood by
``- n e log 2``.  The four models are registered once, in :data:`MODELS`.
Model ranking uses AIC, BIC, CAIC, and HQIC (lower is better; higher
log-likelihood is better).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections import namedtuple
from types import SimpleNamespace

from ._util import FrozenRecord, dump_csv, dump_json, is_integer, mean_var, unit_exponent
from .dataset import LossDataset, _linear_quantile
from .errors import DataError, DomainError, SupportError
from .tail import FOUR_OVER_PI, P_STAR, ArctanGRParams, GaussianParams, RayleighParams

CRITERIA = ("aic", "bic", "caic", "hqic")

#: Columns of a fit's CSV row, shared by ``fit`` and ``compare``.
_CSV_HEADER = ("model", "par", "r", "loglik", *CRITERIA)


Criteria = namedtuple("Criteria", CRITERIA)


def information_criteria(loglik, n, r) -> Criteria:
    """AIC/BIC/CAIC/HQIC from a log-likelihood, sample size, and param count.

        AIC  = -2l + 2r
        BIC  = -2l + r ln(n)
        CAIC = -2l + 2nr / (n - r - 1)
        HQIC = -2l + 2r ln(ln(n))

    Requires ``n >= 3`` (so ``ln ln n`` is positive) and ``n > r + 1`` (so
    CAIC's denominator is positive).
    """
    try:
        loglik = float(loglik)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"log-likelihood must be a number: {exc}") from None
    if not (is_integer(n) and n >= 3):
        raise DomainError(f"sample size n must be an integer >= 3, got {n!r}")
    if not (is_integer(r) and r >= 0):
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


class FitResult(FrozenRecord):
    """One fitted model: parameters, log-likelihood, criteria, diagnostics.

    The diagnostics describe an iterative fit (AGR; the closed forms keep the
    defaults): ``iterations`` counts its omega steps, ``nfev`` its score
    passes, ``converged`` says whether its stopping rule holds, and ``stop``
    holds the numbers that rule reads, which ``as_dict`` includes when set.
    """

    _fields = ("model_name", "params", "loglik", "n", "r", "aic", "bic", "caic", "hqic",
               "iterations", "converged", "nfev", "stop")

    def __init__(self, model_name: str, params, loglik: float, n: int, r: int, aic: float,
                 bic: float, caic: float, hqic: float, iterations: int = 0,
                 converged: bool = True, nfev: int = 0, stop: dict | None = None):
        self.__dict__.update(model_name=model_name, params=params, loglik=loglik, n=n, r=r,
                             aic=aic, bic=bic, caic=caic, hqic=hqic, iterations=iterations,
                             converged=converged, nfev=nfev, stop=stop)

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


#: Samples of at most this many points are fitted on Python floats, and
#: larger ones on numpy arrays (:mod:`arctangr._fit_arrays`).  Measured on a
#: 2-vCPU x86-64 VM (a pass that takes every sum, best of 7 repeats): a float
#: score pass costs ~0.5-0.7 us per point (~30-50 us at n = 58, ~0.25-0.4 ms
#: at n = 500) and a numpy pass ~30-45 us at n = 1025 and ~60 us at n = 3000,
#: while a one-shot CLI process that never imports numpy saves ~100 ms.  At
#: 1024 points a fit of ~10 passes takes ~5-7 ms on floats, a twentieth of
#: that saving; above it the float passes cost more, and a process that has
#: numpy loaded already loses more (~15x per pass here).
FLOAT_FIT_MAX = 1024


def _path(data):
    """``(path, xs)``: the arithmetic of the fits of ``data`` and the sorted
    sample, the one copy that every fit reads: :data:`_FLOATS` on the
    dataset's sorted tuple of floats for at most ``FLOAT_FIT_MAX`` points, and
    :mod:`arctangr._fit_arrays` on its sorted ndarray above."""
    if data.n <= FLOAT_FIT_MAX:
        return _FLOATS, data.sorted_values
    from . import _fit_arrays

    return _fit_arrays, data.sorted_array


def agr_loglik(params: ArctanGRParams, data) -> float:
    """Sum of AGR log-densities over the sample, as the fits take it."""
    path, xs = _path(_values(data))
    return path.loglik("agr", params, xs)


def _unit_sample(path, xs):
    """``(e, ys)``: the exponent of the sample's unit scale
    (:func:`unit_exponent`, from the ends of the sorted sample ``xs``), and
    ``xs`` times ``2^-e``: ``xs`` itself where ``e = 0``."""
    e = unit_exponent(xs[0], xs[-1])
    if not e:
        return 0, xs
    return e, path.scaled(xs, math.ldexp(1.0, -e))


def _build_result(model_name, params, path, ys, e, r, **diag) -> FitResult:
    """The fit's result from ``params`` fitted to ``ys``, the sorted sample
    times ``2^-e``: every parameter, a location or a scale, maps back by
    ``2^e``, and the log-likelihood, the model's log-density summed over
    ``ys`` on ``path``, by ``- n e log 2``; a scale that maps back to 0 raises
    :class:`DataError`."""
    n = len(ys)
    ll = path.loglik(model_name, params, ys) - n * e * math.log(2.0)
    if not math.isfinite(ll):
        raise DataError(f"{model_name} fit: the log-likelihood is not a finite double")
    try:
        params = type(params)(**{k: math.ldexp(v, e) for k, v in vars(params).items()})
    except DomainError:  # only a scale can fail its check: it rounded to 0
        raise DataError(f"{model_name} fit: the fitted scale rounds below the smallest "
                        "positive double") from None
    return FitResult(model_name=model_name, params=params, loglik=ll, n=n, r=r,
                     **information_criteria(ll, n, r)._asdict(), **diag)


def _check_size(n, r, model):
    """CAIC needs ``n > r + 1``, so a fit of ``r`` parameters to fewer than
    ``r + 2`` observations raises :class:`DomainError` before it is made."""
    if n <= r + 1:
        raise DomainError(f"{model} fit needs at least {r + 2} observations, got {n}")


def fit_gaussian(data) -> FitResult:
    """Closed-form Gaussian MLE: sample mean and population SD, at the
    sample's unit scale."""
    data = _values(data)
    _check_size(data.n, 2, "Gaussian")
    path, xs = _path(data)
    e, ys = _unit_sample(path, xs)
    mean, var = path.mean_var(ys)
    sd = math.sqrt(var)
    if sd <= 0.0:
        raise DataError("Gaussian fit is degenerate: sample has zero variance")
    return _build_result("gaussian", GaussianParams(omega=mean, eta=sd), path, ys, e, r=2)


def fit_rayleigh(data) -> FitResult:
    """Closed-form Rayleigh MLE: ``psi = sqrt(sum(x^2) / (2n))``, at the
    sample's unit scale.  The log-likelihood is taken on the sample itself,
    where the Rayleigh log-density is finite at every scale: at unit scale its
    ``log x`` could round away."""
    data = _values(data)
    path, xs = _path(data)
    if xs[0] <= 0.0:
        raise SupportError("Rayleigh fit requires strictly positive data")
    _check_size(data.n, 1, "Rayleigh")
    e, ys = _unit_sample(path, xs)
    psi = math.ldexp(math.sqrt(path.square_sum(ys) / (2.0 * len(ys))), e)
    return _build_result("rayleigh", RayleighParams(psi=psi), path, xs, 0, r=1)


def _median_and_spread(path, ys, model):
    """Median of the sorted unit sample ``ys`` and mean absolute deviation
    from it, which must be positive for the ``model`` fit to have a scale."""
    med = _linear_quantile(ys, 0.5)
    scale = path.abs_dev_sum(ys, med) / len(ys)
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
    path, xs = _path(data)
    e, ys = _unit_sample(path, xs)
    med, scale = _median_and_spread(path, ys, "Laplace")
    _check_size(data.n, 2, "Laplace")
    return _build_result("laplace", ArctanGRParams(omega=med, psi=scale), path, ys, e, r=2)


#: Score passes per psi solve; score passes and omega steps per fit.
_PSI_PASSES = 60
_MAX_PASSES = 2000
_MAX_STEPS = 400
#: The psi-score is at rounding level within this many ulps of its terms' sum.
_PSI_ROUNDING = 64.0
#: Samples with at most this many distinct values are swept point by point.
_SWEEP_N = 32
_EPS = sys.float_info.epsilon
#: Points per block of a float score pass's sums (see :meth:`_AgrSearch.sums`).
_BLOCK = 16


#: The profile ``l(omega, psi-hat(omega))`` at one ``omega``: ``t = log psi-hat``,
#: the psi-score ``dl/dt`` there and its rounding level, and, per side of
#: ``omega`` (left, right), the slope ``dl/domega`` and two candidate omega
#: steps: a Newton step on the profile's curvature between data points
#: (``nan`` where that is not concave), and a scoring step on its
#: outer-product curvature, which counts the kinks.  A data point at
#: ``omega`` is a kink: the slope drops by ``2/psi`` across it.
_Point = namedtuple("_Point", "omega t psi_score psi_tol slope newton scoring")


class _ScorePass:
    """One score pass at ``psi`` of an :class:`_AgrSearch` that
    :meth:`_AgrSearch.at` has pointed at omega: the profile's eight
    derivative sums, defined here once from the thirteen raw sums that the
    search's :meth:`~_AgrSearch.sums` takes, in floats or on arrays.

    With ``s = +-1`` the side of omega (points at omega count on the right),
    ``u = e^{-|z|}``, ``w = H(z)``, ``q = 1 + w^2``, ``r = w u / q`` and
    ``G = u^2 / q``, the log-shape's derivatives are ``L' = -s - r`` and
    ``L'' = r^2 + s r - G/2``; as ``s z = |z|``, every sum below is a sum of
    ``r``, ``z r`` and ``z G`` against ``1``, ``z`` and ``|z|``.  Sums named
    ``l1``/``l2`` are of ``L'``/``L''``, with their ``z`` factors as a
    prefix; the raw sums are named by their factors, with ``a = |z|`` and
    ``s``: ``a_zr`` is ``sum |z| z r`` and ``sr_sum`` is ``sum s r``.
    """

    def __init__(self, search, psi, r_sum, sr_sum, zr_sum, a_r, a_zr, zr_zr, z_zg, g, zg,
                 r_r, zr_r, z_z, z_sum):
        n = search.n
        self.zl1 = -search.a_sum / psi - zr_sum
        self.z2l2 = zr_zr + a_zr - 0.5 * z_zg
        self.l1 = 2.0 * search.below - n - r_sum
        self.zl2 = zr_r + a_r - 0.5 * zg
        self.l2 = r_r + sr_sum - 0.5 * g
        self.l11 = n + 2.0 * sr_sum + r_r
        self.zl11 = z_sum + 2.0 * a_r + zr_r
        self.z2l11 = z_z + 2.0 * a_zr + zr_zr


class _AgrSearch:
    """The score-driven AGR fit on a sorted sample ``xs``; see :func:`fit_agr`.

    ``xs`` is at unit scale, so no sum of it overflows.  This is the float
    search, on a sequence of floats, whose score pass is one loop per side of
    omega (:meth:`sums`); ``arctangr._fit_arrays.ArraySearch`` runs it on a
    sorted ndarray, with the numpy pass on one workspace."""

    def __init__(self, xs):
        self.xs = xs
        self.n = len(xs)
        self.passes = 0
        self.steps = 0

    def at(self, omega):
        """Point the search at ``omega``: ``below`` points lie left of it and ``m``
        at it; ``sides`` holds ``d = x - omega`` left of it and from it on, and
        ``d_sum`` and ``a_sum`` are the sums of ``d`` and ``|d|``."""
        xs = self.xs
        self.below = below = bisect_left(xs, omega)
        self.m = bisect_right(xs, omega, below) - below
        d = [x - omega for x in xs]
        self.sides = d[:below], d[below:]
        self.d_sum = math.fsum(d)
        self.a_sum = math.fsum(map(abs, d))

    def sums(self, psi):
        """The raw sums of a :class:`_ScorePass` at ``psi``, from one loop per
        side of omega.  Each sum is taken in order over blocks of ``_BLOCK``
        points and the blocks' sums are added by ``math.fsum``: like numpy's
        pairwise sum, it is within ``_BLOCK`` eps of the sum of its terms'
        sizes."""
        exp = math.exp
        blocks = []
        for s, ds in zip((-1.0, 1.0), self.sides):
            w0, h = (0.0, 0.5) if s < 0.0 else (1.0, -0.5)  # w = u/2 left, 1 - u/2 right
            for i in range(0, len(ds), _BLOCK):
                r_s = zr_s = zr_zr = z_zr = z_zg = g = zg = r_r = zr_r = z_z = 0.0
                for d in ds[i:i + _BLOCK]:
                    z = d / psi
                    u = exp(-s * z)
                    w = w0 + h * u
                    gq = u / (w * w + 1.0)
                    r = w * gq
                    big_g = gq * u
                    zr = z * r
                    zg_i = z * big_g
                    r_s += r
                    zr_s += zr
                    zr_zr += zr * zr
                    z_zr += z * zr
                    z_zg += z * zg_i
                    g += big_g
                    zg += zg_i
                    r_r += r * r
                    zr_r += zr * r
                    z_z += z * z
                # s times a sum over one side adds up to a sum weighted by |z|/z
                blocks.append((r_s, s * r_s, zr_s, s * zr_s, s * z_zr,
                               zr_zr, z_zg, g, zg, r_r, zr_r, z_z))
        return (*map(math.fsum, zip(*blocks)), self.d_sum / psi)

    def score_pass(self, psi):
        """The :class:`_ScorePass` at ``psi``."""
        self.passes += 1
        return _ScorePass(self, psi, *self.sums(psi))

    def few_values(self):
        """The sample's distinct values in order where there are at most
        ``_SWEEP_N`` of them, else none."""
        values = set(self.xs)
        return sorted(values) if len(values) <= _SWEEP_N else []

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
        pass is a :class:`_ScorePass` with all eight sums; those of the last
        one give the slopes and the omega steps.
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
        omega = math.nextafter(self.xs[-1 if side else 0], slope)
        return _Point(omega, math.nan, math.nan, math.nan, (slope, slope), (), ())

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
            lo = bisect_right(xs, a.omega)
            hi = bisect_left(xs, b.omega)
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
                    j = min(max(bisect_left(xs, guess), lo), hi - 1)
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
    derivatives are closed forms (see :class:`_ScorePass`).
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
    numbers and the two tolerances (``psi_tol``, ``slope_tol``), the slopes
    and their tolerance times ``psi/n``, which leaves them without dimension
    and O(1) at any scale, so that ``converged`` is ``|psi_score| <=
    psi_tol`` and ``omega_slope_right <= slope_tol`` and ``omega_slope_left
    >= -slope_tol``, from ``stop`` alone;
    ``iterations`` counts the omega steps and ``nfev`` the score passes.  The
    likelihood is not concave, so this certifies a local maximum: the one the
    search from that quantile reaches.  Samples with at
    most 32 distinct values (small or coarsely rounded ones), where several
    local maxima are common, are also swept: every value where the rule
    holds and the maximum of every gap whose ends rise into it compete with
    that one, and the one whose log-likelihood, as the result reports it, is
    highest is returned.  CAIC needs ``n > r + 1``, so
    fewer than 4 observations raise :class:`DomainError` before the search.

    The search, its starting scale and the log-likelihood run on the sample
    at unit scale (see :func:`_unit_sample`); omega and psi map back by
    ``2^e``, and ``stop`` is the same at every scale.  So two samples with
    one unit sample, ``x`` and ``2^k x`` both beyond the same edge of the
    band, have fits exactly ``2^k`` apart.  Samples of more than
    ``FLOAT_FIT_MAX`` points run the same search with the numpy pass.
    """
    data = _values(data)
    path, xs = _path(data)
    e, ys = _unit_sample(path, xs)
    _, scale = _median_and_spread(path, ys, "AGR")
    _check_size(data.n, 2, "AGR")
    search = path.search(ys)
    best = search.point(_linear_quantile(ys, P_STAR), math.log(scale))
    if not search.is_max(best):
        ends = (best, search.open_end(1)) if search.rises(best) else (search.open_end(0), best)
        best = search.narrow(*ends)
    values = search.few_values()
    if values:
        best = max([best, *search.sweep(values, best)],
                   key=lambda p: path.loglik("agr", ArctanGRParams(p.omega, math.exp(p.t)), ys))
    if abs(best.psi_score) > best.psi_tol:
        best = search.point(best.omega, best.t, tight=True)
    psi = math.exp(best.t)
    per = psi / search.n  # a slope times psi/n has no dimension
    return _build_result(
        "agr",
        ArctanGRParams(omega=float(best.omega), psi=psi),
        path,
        ys,
        e,
        r=2,
        iterations=search.steps,
        nfev=search.passes,
        converged=search.is_max(best) and abs(best.psi_score) <= best.psi_tol,
        stop={"psi_score": best.psi_score, "psi_tol": best.psi_tol,
              "omega_slope_left": best.slope[0] * per, "omega_slope_right": best.slope[1] * per,
              "slope_tol": search.slope_tol(best.omega, psi) * per},
    )


def _uw(z):
    """``(u, w)`` at one float ``z``: ``u = e^{-|z|}`` and the standard Laplace
    CDF ``w = H(z)``, in the steps of :func:`arctangr.distributions._z_uw`."""
    u = math.exp(-abs(z))
    h = u * 0.5
    return u, (1.0 - h if z >= 0.0 else h)


def _log_shape(z):
    """``L(z) = -|z| - log1p(w^2)``, the standard AGR log-density less
    ``log(2/pi)``, at one float ``z``."""
    w = _uw(z)[1]
    return -abs(z) - math.log1p(w * w)


# The models' densities and log-densities over a sequence of floats ``xs``, one
# float per point, each in the steps of its array kernel in
# :mod:`arctangr.distributions`; only ``exp``, ``log`` and ``log1p`` are
# ``math``'s, not numpy's, and may differ from them in the last bit.

def _agr_pdf(p, xs):
    return [u * 0.5 * FOUR_OVER_PI / (w * w + 1.0) / p.psi
            for u, w in (_uw((x - p.omega) / p.psi) for x in xs)]


def _agr_logpdf(p, xs):
    c = math.log(2.0 / math.pi) - math.log(p.psi)
    return [c + _log_shape((x - p.omega) / p.psi) for x in xs]


def _gaussian_pdf(p, xs):
    c = p.eta * math.sqrt(2 * math.pi)
    return [math.exp(-0.5 * z * z) / c for z in ((x - p.omega) / p.eta for x in xs)]


def _gaussian_logpdf(p, xs):
    c, h = math.log(p.eta), 0.5 * math.log(2 * math.pi)
    return [-0.5 * z * z - c - h for z in ((x - p.omega) / p.eta for x in xs)]


def _rayleigh_pdf(p, xs):
    return [z / p.psi * math.exp(-0.5 * z * z) if x > 0.0 else 0.0
            for x, z in ((x, x / p.psi) for x in xs)]


#: The smallest normal double, and the cap of ``z/psi`` in the Rayleigh log-density.
_TINY = sys.float_info.min
_HALF_MAX = 2.0 ** 1023


def _rayleigh_logpdf(p, xs):
    """``log(z/psi) - z^2/2``, ``-inf`` off the support; where ``z/psi`` leaves
    ``[_TINY, _HALF_MAX)``, as ``log x - 2 log psi`` (see
    :func:`arctangr.distributions.rayleigh_logpdf`)."""
    psi = p.psi

    def one(x):
        if not x > 0.0:
            return -math.inf
        z = x / psi
        ratio = min(z, psi * _HALF_MAX) / psi
        log_ratio = math.log(ratio) if _TINY <= ratio < _HALF_MAX else (
            math.log(x) - 2.0 * math.log(psi))
        return log_ratio - 0.5 * z * z

    return list(map(one, xs))


def _laplace_pdf(p, xs):
    return [0.5 * math.exp(-abs((x - p.omega) / p.psi)) / p.psi for x in xs]


def _laplace_logpdf(p, xs):
    psi = p.psi
    c = math.log(2.0 * psi) if 2.0 * psi < math.inf else math.log(2.0) + math.log(psi)
    return [-abs((x - p.omega) / psi) - c for x in xs]


#: A candidate model: display label, MLE fitter, and density and
#: log-density ``pdf(params, xs)``/``logpdf(params, xs)``: a list of floats,
#: one per float in ``xs``.
Model = namedtuple("Model", "label fit pdf logpdf")


#: The candidate models, in comparison order.
MODELS = {
    "agr": Model("Arctan-GR", fit_agr, _agr_pdf, _agr_logpdf),
    "gaussian": Model("Gaussian", fit_gaussian, _gaussian_pdf, _gaussian_logpdf),
    "rayleigh": Model("Rayleigh", fit_rayleigh, _rayleigh_pdf, _rayleigh_logpdf),
    "laplace": Model("Laplace", fit_laplace, _laplace_pdf, _laplace_logpdf),
}


def _float_loglik(name, params, y):
    """The model's float log-densities over ``y``, correctly rounded in sum.
    No log-density exceeds ~745, so a sum that leaves the doubles is one
    below ``-DBL_MAX``: ``-inf``, where ``math.fsum`` raises."""
    try:
        return math.fsum(MODELS[name].logpdf(params, y))
    except OverflowError:
        return -math.inf


#: The fits' arithmetic on at most ``FLOAT_FIT_MAX`` Python floats (see
#: :func:`_path`): correctly rounded sums (``math.fsum``), and log-likelihoods
#: summed from :data:`MODELS`' float log-densities.  :mod:`arctangr._fit_arrays`
#: has the same functions on ndarrays.
_FLOATS = SimpleNamespace(
    scaled=lambda x, unit: [v * unit for v in x],
    mean_var=lambda y: mean_var(y, 0),
    square_sum=lambda y: math.fsum([v * v for v in y]),
    abs_dev_sum=lambda y, c: math.fsum([abs(v - c) for v in y]),
    loglik=_float_loglik,
    search=lambda xs: _AgrSearch(xs),
)


class ComparisonTable(FrozenRecord):
    """Fit results for every candidate model that applies to the data, plus
    the winner per criterion.  ``skipped_models`` maps each model whose
    support excludes the data to the reason; the table lists them, and the
    JSON has the key only where one was skipped."""

    _fields = ("rows", "best_by", "skipped_models")

    def __init__(self, rows: tuple, best_by: dict, skipped_models: dict | None = None):
        self.__dict__.update(rows=rows, best_by=best_by,
                             skipped_models={} if skipped_models is None else skipped_models)

    def to_csv(self) -> str:
        return dump_csv(_CSV_HEADER, [row._csv_row() for row in self.rows])

    def to_json(self) -> str:
        payload = {"rows": [row.as_dict() for row in self.rows], "best_by": self.best_by}
        if self.skipped_models:
            payload["skipped_models"] = self.skipped_models
        return dump_json(payload)

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
        for name, reason in self.skipped_models.items():
            lines.append(f"skipped {name}: {reason}")
        return "\n".join(lines) + "\n"


def compare_models(data) -> ComparisonTable:
    """Fit every model in :data:`MODELS` and rank them per criterion.  A
    model whose support excludes the data (Rayleigh's, ``x > 0``, on a
    sample with a value ``<= 0``) is skipped, with its :class:`SupportError`
    as the reason; every other error ends the comparison."""
    data = _values(data)
    results, skipped = [], {}
    for name, model in MODELS.items():
        try:
            results.append(model.fit(data))
        except SupportError as exc:
            skipped[name] = str(exc)
    best_by = {"loglik": max(results, key=lambda r: r.loglik).model_name}
    for criterion in CRITERIA:
        best_by[criterion] = min(results, key=lambda r: getattr(r, criterion)).model_name
    return ComparisonTable(rows=tuple(results), best_by=best_by, skipped_models=skipped)


# A process that has imported numpy already (a library session, not a one-shot
# CLI command) loads the numpy path with this module: deferred, its import and
# compile (~10 ms without a bytecode cache) would land inside the process's
# first fit above FLOAT_FIT_MAX points.  Only a process without numpy, which
# saves ~100 ms by never importing it, defers it.
if "numpy" in sys.modules:
    from . import _fit_arrays  # noqa: E402, F401
