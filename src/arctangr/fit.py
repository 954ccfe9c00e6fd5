"""Maximum-likelihood fitting and information-criterion model comparison.

The arctan Gaussian-Rayleigh log-likelihood is piecewise smooth in the
location (a kink at every data point, inherited from ``|x - omega|``), so
it is maximized with a derivative-free Nelder-Mead search multi-started
over the data deciles crossed with three scale guesses, then polished to a
tight simplex tolerance.  The baseline Gaussian, Rayleigh, and Laplace fits
are closed-form MLEs.  Model ranking uses AIC, BIC, CAIC, and HQIC (lower
is better; higher log-likelihood is better).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import LossDataset
from .distributions import (
    ArctanGRParams,
    GaussianParams,
    RayleighParams,
    _z_log_shape,
    agr_logpdf,
    gaussian_logpdf,
    mixture_kernel_logpdf,
    rayleigh_logpdf,
)
from .errors import DataError, DomainError, FitConvergenceError

MODEL_LABELS = {
    "agr": "Arctan-GR",
    "gaussian": "Gaussian",
    "rayleigh": "Rayleigh",
    "laplace": "Laplace",
}

CRITERIA = ("aic", "bic", "caic", "hqic")


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
    restarts: int = 0

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
            "restarts": self.restarts,
        }


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
    sd = float(x.std(ddof=0))
    if sd <= 0.0:
        raise DataError("Gaussian fit is degenerate: sample has zero variance")
    params = GaussianParams(omega=float(x.mean()), eta=sd)
    return _build_result("gaussian", params, gaussian_logpdf, x, r=2)


def fit_rayleigh(data) -> FitResult:
    """Closed-form Rayleigh MLE: ``psi = sqrt(sum(x^2) / (2n))``."""
    x = _values(data)
    if np.any(x <= 0.0):
        raise DataError("Rayleigh fit requires strictly positive data")
    params = RayleighParams(psi=float(np.sqrt(np.sum(x * x) / (2.0 * x.size))))
    return _build_result("rayleigh", params, rayleigh_logpdf, x, r=1)


def fit_laplace(data) -> FitResult:
    """Closed-form Laplace MLE: median and mean absolute deviation from it.

    This is the MLE of the Gaussian-Rayleigh mixture kernel, so the result
    reuses :class:`ArctanGRParams`.
    """
    x = _values(data)
    med = float(np.median(x))
    scale = float(np.mean(np.abs(x - med)))
    if scale <= 0.0:
        raise DataError("Laplace fit is degenerate: zero absolute deviation")
    params = ArctanGRParams(omega=med, psi=scale)
    return _build_result("laplace", params, mixture_kernel_logpdf, x, r=2)


def fit_agr(data) -> FitResult:
    """Fit the arctan Gaussian-Rayleigh model by multi-start Nelder-Mead.

    Starting points are the nine data deciles crossed with scale guesses
    {0.5, 1, 2} x (mean absolute deviation from the median); the best
    restart is polished with simplex tolerance ``1e-10 * scale``.  The
    ``converged`` flag requires the polish to terminate on its tolerances
    and its log-likelihood to be no worse than every restart's.
    """
    from scipy.optimize import minimize

    x = _values(data)
    n = int(x.size)
    if n < 3:
        raise DomainError(f"AGR fit needs at least 3 observations, got {n}")
    med = float(np.median(x))
    scale = float(np.mean(np.abs(x - med)))
    if scale <= 0.0:
        raise DataError("AGR fit is degenerate: zero absolute deviation")

    def negloglik(theta):
        omega, psi = theta
        if not (np.isfinite(omega) and np.isfinite(psi)) or psi <= 0.0:
            return np.inf
        ll = float(np.sum(_z_log_shape((x - omega) / psi)))
        return -(ll + n * math.log(2.0 / (math.pi * psi)))

    omegas = np.quantile(x, np.linspace(0.1, 0.9, 9))
    psis = [0.5 * scale, scale, 2.0 * scale]
    restarts = []
    iterations = 0
    for omega0 in omegas:
        for psi0 in psis:
            res = minimize(
                negloglik,
                np.array([omega0, psi0]),
                method="Nelder-Mead",
                options={
                    "xatol": 1e-6 * scale,
                    "fatol": 1e-7 * n,
                    "maxiter": 2000,
                    "maxfev": 4000,
                },
            )
            iterations += res.nit
            restarts.append(res)

    finite = [r for r in restarts if np.isfinite(r.fun)]
    if not finite:
        raise FitConvergenceError(
            "every Nelder-Mead restart failed to produce a finite log-likelihood",
            diagnostics=[(r.message, r.x.tolist(), float(r.fun)) for r in restarts],
        )
    best = min(finite, key=lambda r: float(r.fun))  # stable min: earliest restart wins ties

    polish = minimize(
        negloglik,
        best.x,
        method="Nelder-Mead",
        options={
            "xatol": 1e-10 * scale,
            "fatol": 1e-8 * (1.0 + abs(float(best.fun))),
            "maxiter": 20000,
            "maxfev": 40000,
        },
    )
    iterations += polish.nit
    final = polish if polish.fun <= best.fun else best

    params = ArctanGRParams(omega=float(final.x[0]), psi=float(final.x[1]))
    best_ll = -float(final.fun)
    tol = 1e-9 * (1.0 + abs(best_ll))
    converged = bool(polish.success) and all(
        best_ll >= -float(r.fun) - tol for r in finite
    )
    return _build_result(
        "agr",
        params,
        agr_logpdf,
        x,
        r=2,
        iterations=int(iterations),
        converged=converged,
        restarts=len(restarts),
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Fit results for every candidate model plus the winner per criterion."""

    rows: tuple[FitResult, ...]
    best_by: dict

    def to_csv(self, digits: int = 6) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "par", "r", "loglik", "aic", "bic", "caic", "hqic"])
        for row in self.rows:
            par = "; ".join(f"{k}={v:.{digits}g}" for k, v in row.params_dict().items())
            writer.writerow(
                [row.model_name, par, row.r]
                + [f"{getattr(row, c):.{digits}g}" for c in ("loglik", *CRITERIA)]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "rows": [row.as_dict() for row in self.rows],
            "best_by": self.best_by,
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_text(self, digits: int = 6) -> str:
        headers = ["Model", "Par.", "r", "LL", "AIC", "BIC", "CAIC", "HQIC"]
        cells = []
        for row in self.rows:
            par = ", ".join(f"{k}={v:.4g}" for k, v in row.params_dict().items())
            cells.append(
                [
                    MODEL_LABELS.get(row.model_name, row.model_name),
                    par,
                    str(row.r),
                ]
                + [f"{getattr(row, c):.{digits}g}" for c in ("loglik", *CRITERIA)]
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
    """Fit AGR plus the three baselines and rank them per criterion."""
    x = _values(data)
    results = (fit_agr(x), fit_gaussian(x), fit_rayleigh(x), fit_laplace(x))
    best_by = {"loglik": max(results, key=lambda r: r.loglik).model_name}
    for criterion in CRITERIA:
        best_by[criterion] = min(results, key=lambda r: getattr(r, criterion)).model_name
    return ComparisonTable(rows=results, best_by=best_by)
