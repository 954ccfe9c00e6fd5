"""Heavy-tailed arctan Gaussian-Rayleigh loss modelling.

A Gaussian whose scale is Rayleigh-distributed mixes into a Laplace kernel;
pushing that kernel through the bounded arctan transform produces a
two-parameter heavy-tailed distribution with closed-form CDF and quantile.
The package provides the distribution and its properties, actuarial tail
risk measures (VaR, TVaR, tail variance), maximum-likelihood fitting with
information-criterion model comparison, and a small CLI.

The names below load on first use (PEP 562): ``import arctangr`` imports
no submodule, and ``arctangr.fit_agr`` imports :mod:`arctangr.fit` once and
keeps the function as a plain attribute of the package.  So one CLI command
compiles and runs only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

#: Each exported name, by the submodule that defines it.
_EXPORTS = {
    "arctanx": ("BaseDistribution", "arctan_cdf", "arctan_pdf"),
    "dataset": (
        "EMBEDDED_INSURANCE",
        "INSURANCE_VALUES",
        "LossDataset",
        "SummaryStats",
        "describe",
        "ingest",
    ),
    "distributions": (
        "agr_cdf",
        "agr_cum_hazard",
        "agr_hazard",
        "agr_logpdf",
        "agr_pdf",
        "agr_quantile",
        "agr_sample",
        "agr_survival",
        "gaussian_base",
        "gaussian_cdf",
        "gaussian_logpdf",
        "gaussian_pdf",
        "gaussian_quantile",
        "mixture_kernel_base",
        "mixture_kernel_cdf",
        "mixture_kernel_logpdf",
        "mixture_kernel_pdf",
        "mixture_kernel_quantile",
        "rayleigh_base",
        "rayleigh_cdf",
        "rayleigh_logpdf",
        "rayleigh_pdf",
        "rayleigh_quantile",
    ),
    "errors": ("DataError", "DomainError", "FitConvergenceError"),
    "fit": (
        "ComparisonTable",
        "FitResult",
        "agr_loglik",
        "compare_models",
        "fit_agr",
        "fit_gaussian",
        "fit_laplace",
        "fit_rayleigh",
        "information_criteria",
    ),
    "plotdata": ("PlotBundle", "plot_bundle"),
    "risk": (
        "MCOracleResult",
        "RiskReport",
        "RiskRow",
        "empirical_risk",
        "empirical_risk_curve",
        "mc_oracle",
        "risk_curve",
        "tv",
        "tvar",
        "var",
    ),
    "tail": ("P_STAR", "ArctanGRParams", "GaussianParams", "RayleighParams", "agr_kurtosis",
             "agr_moment", "agr_skewness"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    # an exported name, or a submodule that eager imports used to bind
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
