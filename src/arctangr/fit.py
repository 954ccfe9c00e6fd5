"""Maximum-likelihood fitting and information-criterion model comparison.

The arctan Gaussian-Rayleigh log-likelihood is piecewise smooth in the
location (a kink at every data point, inherited from ``|x - omega|``), so
it is maximized derivative-free: one numpy Nelder-Mead search from the
median and mean absolute deviation, a polish to a tight simplex
tolerance, and a golden-section profile over ``log psi`` that finishes
psi when omega has settled on a kink.  No scipy is imported.  The
baseline Gaussian, Rayleigh, and Laplace fits are closed-form MLEs.  The
four models are registered once, in :data:`MODELS`.  Model ranking uses
AIC, BIC, CAIC, and HQIC (lower is better; higher log-likelihood is
better).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._util import dump_csv, dump_json
from .dataset import LossDataset, _linear_quantile
from .distributions import (
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
from .errors import DataError, DomainError, FitConvergenceError

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
    """One fitted model: parameters, log-likelihood, criteria, diagnostics."""

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

    def params_dict(self) -> dict:
        return {
            name: getattr(self.params, name)
            for name in self.params.__dataclass_fields__
        }

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


def _values(data) -> np.ndarray:
    if isinstance(data, LossDataset):
        return data.values
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError("expected a nonempty 1-d sample")
    if not np.isfinite(arr).all():
        raise DataError("sample contains NaN or infinite values")
    return arr


def agr_loglik(params: ArctanGRParams, data) -> float:
    """Sum of AGR log-densities over the sample."""
    return float(np.sum(agr_logpdf(params, _values(data))))


def _build_result(model_name, params, logpdf, x, r, **diag) -> FitResult:
    ll = float(np.sum(logpdf(params, x)))
    crit = information_criteria(ll, int(x.size), r)
    return FitResult(
        model_name=model_name,
        params=params,
        loglik=ll,
        n=int(x.size),
        r=r,
        aic=crit.aic,
        bic=crit.bic,
        caic=crit.caic,
        hqic=crit.hqic,
        **diag,
    )


def fit_gaussian(data) -> FitResult:
    """Closed-form Gaussian MLE: sample mean and population SD."""
    x = _values(data)
    with np.errstate(over="ignore"):
        sd = float(x.std(ddof=0))
    if sd <= 0.0:
        raise DataError("Gaussian fit is degenerate: sample has zero variance")
    if sd == math.inf:
        raise DataError(
            "Gaussian fit is impossible: the sum of squared deviations overflows the "
            "double range"
        )
    params = GaussianParams(omega=float(x.mean()), eta=sd)
    return _build_result("gaussian", params, gaussian_logpdf, x, r=2)


def fit_rayleigh(data) -> FitResult:
    """Closed-form Rayleigh MLE: ``psi = sqrt(sum(x^2) / (2n))``."""
    x = _values(data)
    if np.any(x <= 0.0):
        raise DataError("Rayleigh fit requires strictly positive data")
    with np.errstate(over="ignore"):
        psi = float(np.sqrt(np.sum(x * x) / (2.0 * x.size)))
    if psi == math.inf:
        raise DataError(
            "Rayleigh fit is impossible: the sum of squares overflows the double range"
        )
    params = RayleighParams(psi=psi)
    return _build_result("rayleigh", params, rayleigh_logpdf, x, r=1)


def _median_and_spread(x, model):
    """Median of ``x`` and mean absolute deviation from it, which must be a
    positive finite number for the ``model`` fit to have a scale."""
    med = float(_linear_quantile(np.sort(x), 0.5))
    with np.errstate(over="ignore"):
        scale = float(np.mean(np.abs(x - med)))
    if scale <= 0.0:
        raise DataError(f"{model} fit is degenerate: zero absolute deviation")
    if scale == math.inf:
        raise DataError(
            f"{model} fit is impossible: the mean absolute deviation overflows "
            "the double range"
        )
    return med, scale


def fit_laplace(data) -> FitResult:
    """Closed-form Laplace MLE: median and mean absolute deviation from it.

    This is the MLE of the Gaussian-Rayleigh mixture kernel, so the result
    reuses :class:`ArctanGRParams`.
    """
    x = _values(data)
    med, scale = _median_and_spread(x, "Laplace")
    params = ArctanGRParams(omega=med, psi=scale)
    return _build_result("laplace", params, mixture_kernel_logpdf, x, r=2)


def _nelder_mead(f, x0, xatol, fatol, maxiter, maxfev):
    """Minimize ``f`` from ``x0`` by Nelder-Mead with scipy's default setup.

    Reflection 1, expansion 2, contraction 1/2 and shrink 1/2; the initial
    simplex moves each coordinate of ``x0`` by 5% (to 0.00025 where it is
    0).  Stops on convergence -- every vertex within ``xatol`` (a scalar or
    one value per coordinate) of the best in each coordinate and within
    ``fatol`` of it in value -- or once ``maxiter`` iterations or ``maxfev``
    evaluations are spent.  Returns ``(x, f(x), iterations, evaluations,
    converged)``.
    """
    dim = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (dim + 1, 1))
    for k in range(dim):
        sim[k + 1, k] = 1.05 * sim[0, k] if sim[0, k] != 0.0 else 0.00025
    fsim = np.array([f(v) for v in sim])
    nit, nfev = 1, dim + 1
    while True:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        converged = bool(np.all(np.abs(sim[1:] - sim[0]) <= xatol)
                         and np.max(np.abs(fsim[1:] - fsim[0])) <= fatol)
        if converged or nit >= maxiter or nfev >= maxfev:
            return sim[0], float(fsim[0]), nit, nfev, converged
        nit += 1
        xbar = sim[:-1].sum(axis=0) / dim
        xr = 2.0 * xbar - sim[-1]
        fr = f(xr)
        nfev += 1
        if fr < fsim[0]:
            xe = 3.0 * xbar - 2.0 * sim[-1]
            fe = f(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fe) if fe < fr else (xr, fr)
            continue
        if fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
            continue
        if fr < fsim[-1]:  # contract outside, towards the reflected point
            xc = 1.5 * xbar - 0.5 * sim[-1]
            fc = f(xc)
            accept = fc <= fr
        else:  # contract inside, towards the worst vertex
            xc = 0.5 * xbar + 0.5 * sim[-1]
            fc = f(xc)
            accept = fc < fsim[-1]
        nfev += 1
        if accept:
            sim[-1], fsim[-1] = xc, fc
        else:  # shrink towards the best vertex
            sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
            fsim[1:] = [f(v) for v in sim[1:]]
            nfev += dim


def _golden_section(g, a, b, tol):
    """Golden-section search for a minimum of ``g`` on ``[a, b]``, down to a
    bracket narrower than ``tol``.  Returns ``(t, g(t), evaluations)``."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    gc, gd = g(c), g(d)
    nfev = 2
    while b - a > tol:
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - r * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + r * (b - a)
            gd = g(d)
        nfev += 1
    return (c, gc, nfev) if gc <= gd else (d, gd, nfev)


def fit_agr(data) -> FitResult:
    """Fit the arctan Gaussian-Rayleigh model by Nelder-Mead and a psi profile.

    One Nelder-Mead search starts at (median, mean absolute deviation from
    the median) and a second one polishes its result with simplex tolerance
    ``1e-10 * scale``; both tolerances are floored at 4 ulps of each
    coordinate, below which no simplex can close (the double spacing at a
    large ``|omega|`` exceeds ``1e-10 * scale``).  The likelihood has a kink
    in omega at every data point; when omega settles on one, the simplex can
    collapse before psi is optimal, so a golden-section search over
    ``log psi`` within +-0.7 of the polished value, omega held, finishes the
    fit.  ``converged`` means the polish stopped on its tolerances;
    ``iterations`` counts the simplex iterations of both searches and
    ``nfev`` every log-likelihood evaluation.
    """
    x = _values(data)
    n = int(x.size)
    if n < 3:
        raise DomainError(f"AGR fit needs at least 3 observations, got {n}")
    med, scale = _median_and_spread(x, "AGR")

    def negloglik(theta):
        omega, psi = theta
        if not (np.isfinite(omega) and np.isfinite(psi)) or psi <= 0.0:
            return np.inf
        ll = float(np.sum(_z_log_shape((x - omega) / psi)))
        return -(ll + n * math.log(2.0 / (math.pi * psi)))

    def xatol(rel, x0):
        # a simplex cannot close to less than a few ulps of each coordinate
        return np.maximum(rel * scale, 4.0 * np.spacing(np.abs(x0)))

    start, fun, nit1, nfev1, _ = _nelder_mead(
        negloglik, [med, scale], xatol=xatol(1e-6, [med, scale]), fatol=1e-7 * n,
        maxiter=2000, maxfev=4000,
    )
    (omega, psi), fun, nit2, nfev2, converged = _nelder_mead(
        negloglik, start, xatol=xatol(1e-10, start), fatol=1e-8 * (1.0 + abs(fun)),
        maxiter=20000, maxfev=40000,
    )
    if not math.isfinite(fun):
        raise FitConvergenceError(
            "Nelder-Mead found no finite log-likelihood",
            diagnostics=[(float(omega), float(psi), fun)],
        )
    log_psi = math.log(psi)
    t, gfun, nfev3 = _golden_section(
        lambda t: negloglik((omega, math.exp(t))), log_psi - 0.7, log_psi + 0.7, 1e-10
    )
    if gfun < fun:
        psi = math.exp(t)

    return _build_result(
        "agr",
        ArctanGRParams(omega=float(omega), psi=float(psi)),
        agr_logpdf,
        x,
        r=2,
        iterations=nit1 + nit2,
        nfev=nfev1 + nfev2 + nfev3,
        converged=converged,
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
    x = _values(data)
    results = tuple(model.fit(x) for model in MODELS.values())
    best_by = {"loglik": max(results, key=lambda r: r.loglik).model_name}
    for criterion in CRITERIA:
        best_by[criterion] = min(results, key=lambda r: getattr(r, criterion)).model_name
    return ComparisonTable(rows=results, best_by=best_by)
