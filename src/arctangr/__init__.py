"""Heavy-tailed arctan Gaussian-Rayleigh loss modelling.

A Gaussian whose scale is Rayleigh-distributed mixes into a Laplace kernel;
pushing that kernel through the bounded arctan transform produces a
two-parameter heavy-tailed distribution with closed-form CDF and quantile.
The package provides the distribution and its properties, actuarial tail
risk measures (VaR, TVaR, tail variance), maximum-likelihood fitting with
information-criterion model comparison, and a small CLI.
"""

from .arctanx import BaseDistribution, arctan_cdf, arctan_pdf
from .dataset import (
    EMBEDDED_INSURANCE,
    INSURANCE_VALUES,
    LossDataset,
    SummaryStats,
    describe,
    ingest,
)
from .distributions import (
    P_STAR,
    ArctanGRParams,
    GaussianParams,
    RayleighParams,
    agr_cdf,
    agr_cum_hazard,
    agr_hazard,
    agr_kurtosis,
    agr_logpdf,
    agr_moment,
    agr_pdf,
    agr_quantile,
    agr_sample,
    agr_skewness,
    agr_survival,
    gaussian_base,
    gaussian_cdf,
    gaussian_logpdf,
    gaussian_pdf,
    gaussian_quantile,
    mixture_kernel_base,
    mixture_kernel_cdf,
    mixture_kernel_logpdf,
    mixture_kernel_pdf,
    mixture_kernel_quantile,
    rayleigh_base,
    rayleigh_cdf,
    rayleigh_logpdf,
    rayleigh_pdf,
    rayleigh_quantile,
)
from .errors import DataError, DomainError, FitConvergenceError
from .fit import (
    ComparisonTable,
    FitResult,
    agr_loglik,
    compare_models,
    fit_agr,
    fit_gaussian,
    fit_laplace,
    fit_rayleigh,
    information_criteria,
)
from .plotdata import PlotBundle, plot_bundle
from .risk import (
    MCOracleResult,
    RiskReport,
    RiskRow,
    empirical_risk,
    empirical_risk_curve,
    mc_oracle,
    risk_curve,
    tv,
    tvar,
    var,
)

__version__ = "0.1.0"
