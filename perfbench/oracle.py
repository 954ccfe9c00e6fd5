"""Reference values the benchmark checks the program against.

Nothing here imports ``arctangr``.  The AGR closed forms are written on the
standardized variable ``z = (x - omega) / psi`` and mapped affinely; tail
references come from ``mpmath`` quadrature at (omega=0, psi=1); fit
references come from the benchmark's own log-likelihood and optimizer.
``scipy`` and ``mpmath`` are imported inside the functions that need them,
so generating inputs costs nothing but numpy.

Every tolerance the benchmark applies is defined in this module.
"""

from __future__ import annotations

import math

import numpy as np

# --- tolerances --------------------------------------------------------------
#: Elementwise kernels on 1e6 points.  ``cdf`` absolute, the others relative
#: to the value (``logpdf``: to ``1 + |value|``; ``quantile``: to the
#: location-scale magnitude ``|omega| + psi * (1 + |z|)``).
TOL_CDF = 1e-14
TOL_PDF = 1e-12
TOL_LOGPDF = 1e-12
TOL_QUANTILE = 1e-12
#: VaR / TVaR relative to ``|omega| + psi * (1 + |standard value|)``; TV
#: relative to the reference TV itself (TV does not depend on omega, so a
#: shift may not cost it digits).  The program asks quadrature for 1e-10.
TOL_VAR = 1e-12
TOL_TVAR = 1e-9
TOL_TV = 1e-7
RISK_TOLS = {"var": TOL_VAR, "tvar": TOL_TVAR, "tv": TOL_TV}
#: Raw moments relative to ``sum_{k>=1} C(r,k) |omega|^(r-k) psi^k |E[Z^k]|``.
TOL_MOMENT = 1e-8
#: Monte Carlo estimates: within this many of their own standard errors of
#: the reference; exceedance count within this many binomial SDs.
MC_SIGMAS = 5.0
MC_COUNT_SIGMAS = 6.0
#: A fitted log-likelihood may trail the reference by at most this share of
#: ``1 + |reference|``, and must beat every perturbed neighbour by at least
#: ``-FIT_PERTURB_SLACK * (1 + |loglik|)``.  The reported log-likelihood must
#: equal our own evaluation at the reported parameters to ``FIT_LOGLIK_EVAL``.
FIT_GAP = 1e-7
FIT_PERTURB_SLACK = 1e-9
FIT_PERTURB_STEPS = (1e-4, 1e-2)
FIT_LOGLIK_EVAL = 1e-9
#: Numbers parsed from CLI tables and CSV, which print 6 significant digits.
TOL_PRINTED = 1e-5
#: Information criteria recomputed from a full-precision log-likelihood.
TOL_CRITERIA = 1e-10

P_STAR = 4.0 / math.pi * math.atan(0.5)


# --- AGR closed forms on the standardized variable ----------------------------
def z_cdf(z):
    z = np.asarray(z, dtype=float)
    return np.where(z >= 0, 4 / np.pi * np.arctan(1 - 0.5 * np.exp(-np.abs(z))),
                    4 / np.pi * np.arctan(0.5 * np.exp(-np.abs(z))))


def z_pdf(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    upper = 2 / np.pi * e / (1 + (1 - 0.5 * e) ** 2)
    lower = 8 / np.pi * e / (4 + e * e)
    return np.where(z >= 0, upper, lower)


def z_logpdf(z):
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    e = np.exp(-a)
    upper = math.log(2 / math.pi) - a - np.log1p((1 - 0.5 * e) ** 2)
    lower = math.log(8 / math.pi) - a - np.log(4 + e * e)
    return np.where(z >= 0, upper, lower)


def z_quantile(p):
    """Standard AGR quantile; the upper branch goes through ``q = 1 - p``."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    t_up = np.tan(np.pi / 4 * np.where(p >= P_STAR, q, 0.5))
    upper = -np.log(4 * t_up / (1 + t_up))
    lower = np.log(2 * np.tan(np.pi / 4 * np.where(p < P_STAR, p, 0.5)))
    return np.where(p >= P_STAR, upper, lower)


def agr_loglik(x, omega, psi) -> float:
    return float(np.sum(z_logpdf((np.asarray(x) - omega) / psi))) - x.size * math.log(psi)


def _scale(omega, psi, z):
    return abs(omega) + psi * (1.0 + np.abs(z))


def max_excess(got, ref, scale) -> float:
    """Largest ``|got - ref| / scale``; inf when shapes differ or got is NaN."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return math.inf
    err = np.abs(got - ref) / scale
    return float(np.max(np.where(np.isnan(err), np.inf, err), initial=0.0))


def kernel_errors(kind, omega, psi, x, got) -> float:
    """Error of one elementwise kernel output, in units of its tolerance."""
    z = (np.asarray(x) - omega) / psi
    if kind == "cdf":
        return max_excess(got, z_cdf(z), 1.0) / TOL_CDF
    if kind == "pdf":
        ref = z_pdf(z) / psi
        return max_excess(got, ref, np.abs(ref)) / TOL_PDF
    if kind == "logpdf":
        ref = z_logpdf(z) - math.log(psi)
        return max_excess(got, ref, 1.0 + np.abs(ref)) / TOL_LOGPDF
    if kind == "quantile":  # x holds probabilities here
        zq = z_quantile(x)
        return max_excess(got, omega + psi * zq, _scale(omega, psi, zq)) / TOL_QUANTILE
    raise ValueError(kind)


def gaussian_arctan_cdf(mu, sigma, x):
    """``(4/pi) arctan(Phi((x - mu)/sigma))``, the Gaussian-base transform."""
    from scipy.special import ndtr

    return 4 / np.pi * np.arctan(ndtr((np.asarray(x) - mu) / sigma))


# --- tail references -----------------------------------------------------------
class TailReference:
    """mpmath values of VaR, TVaR and TV of the standard AGR, cached per level.

    ``standard(alpha)`` returns ``(z, m, v)``: the alpha-quantile of ``Z``,
    ``E[Z | Z > z]`` and ``Var[Z | Z > z]`` (integrated centred, so without
    cancellation).  Any (omega, psi) maps affinely: VaR = omega + psi z,
    TVaR = omega + psi m, TV = psi^2 v.
    """

    DPS = 30

    def __init__(self):
        self._levels: dict[float, tuple[float, float, float]] = {}
        self._moments: list[float] | None = None

    def standard(self, alpha: float) -> tuple[float, float, float]:
        alpha = float(alpha)
        if alpha not in self._levels:
            self._levels[alpha] = self._compute(alpha)
        return self._levels[alpha]

    def _compute(self, alpha):
        import mpmath as mp

        with mp.workdps(self.DPS):
            p_star = 4 / mp.pi * mp.atan(mp.mpf(1) / 2)

            def quantile(p):
                if p < p_star:
                    return mp.log(2 * mp.tan(mp.pi * p / 4))
                t = mp.tan(mp.pi * (1 - p) / 4)
                return -mp.log(4 * t / (1 + t))

            a = mp.mpf(alpha)
            pieces = [a, p_star, 1] if a < p_star else [a, 1]
            m = mp.quad(quantile, pieces) / (1 - a)
            v = mp.quad(lambda p: (quantile(p) - m) ** 2, pieces) / (1 - a)
            return float(quantile(a)), float(m), float(v)

    def standard_moments(self) -> list[float]:
        """``[E[Z^0], ..., E[Z^4]]`` of the standard AGR."""
        if self._moments is None:
            import mpmath as mp

            with mp.workdps(self.DPS):
                def pdf(z):
                    e = mp.e ** (-abs(z))
                    if z >= 0:
                        return 2 / mp.pi * e / (1 + (1 - e / 2) ** 2)
                    return 8 / mp.pi * e / (4 + e * e)

                self._moments = [
                    float(mp.quad(lambda z: z**k * pdf(z), [-mp.inf, 0, mp.inf]))
                    for k in range(5)
                ]
        return self._moments

    def risk_errors(self, omega, psi, rows) -> dict:
        """Worst relative error per measure over rows of ``(alpha, var, tvar,
        tv)``, on the scales :data:`RISK_TOLS` applies to; NaN reads as inf."""
        worst = {"var": 0.0, "tvar": 0.0, "tv": 0.0}
        for alpha, var, tvar, tv in rows:
            z, m, v = self.standard(alpha)
            errs = {
                "var": abs(var - (omega + psi * z)) / _scale(omega, psi, z),
                "tvar": abs(tvar - (omega + psi * m)) / _scale(omega, psi, m),
                "tv": abs(tv - psi * psi * v) / (psi * psi * v),
            }
            for k, e in errs.items():
                worst[k] = max(worst[k], e if e == e else math.inf)
        return worst

    def moment_error(self, omega, psi, r, got) -> float:
        """Error of ``E[X^r]``, in units of its tolerance.

        The reference is ``sum_k C(r,k) omega^(r-k) psi^k E[Z^k]``; the error
        is measured against the terms with k >= 1, the part that depends on
        the distribution, so that the check is shift-equivariant (the
        ``omega^r`` term alone would hide a wrong distribution at large
        omega/psi)."""
        ez = self.standard_moments()
        terms = [math.comb(r, k) * omega ** (r - k) * psi**k * ez[k] for k in range(r + 1)]
        scale = sum(abs(t) for t in terms[1:])
        return abs(got - sum(terms)) / (scale * TOL_MOMENT)


# --- descriptive statistics and empirical risk ----------------------------------
def describe(x) -> dict:
    x = np.asarray(x, dtype=float)
    e1, q1, e3, med, e5, q3, e7 = np.quantile(x, [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875])
    iqr = q3 - q1
    return {
        "n": x.size, "mean": x.mean(), "median": med, "sd": x.std(), "min": x.min(),
        "max": x.max(), "q1": q1, "q3": q3,
        "bowley_skewness": (q1 + q3 - 2 * med) / iqr if iqr > 0 else 0.0,
        "moors_kurtosis": (e7 - e5 + e3 - e1) / iqr if iqr > 0 else 0.0,
    }


def empirical_risk(x, alpha):
    """Order-statistic VaR (numpy's linear quantile), and mean and population
    variance of the observations strictly above it."""
    x = np.asarray(x, dtype=float)
    threshold = float(np.quantile(x, alpha))
    tail = x[x > threshold]
    return alpha, threshold, float(tail.mean()), float(tail.var())


def close(got, ref, rtol, atol=1e-300) -> bool:
    return abs(got - ref) <= rtol * abs(ref) + atol


# --- model fits ------------------------------------------------------------------
def baseline_logliks(x) -> dict:
    """Closed-form maximized log-likelihoods of the three baseline models."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = {
        "gaussian": -0.5 * n * (math.log(2 * math.pi * x.var()) + 1),
        "laplace": -n * (math.log(2 * np.mean(np.abs(x - np.median(x)))) + 1),
    }
    if np.all(x > 0):
        s2 = np.sum(x * x) / (2 * n)
        out["rayleigh"] = float(np.sum(np.log(x)) - n * math.log(s2) - n)
    return out


def criteria(loglik, n, r) -> dict:
    return {
        "aic": -2 * loglik + 2 * r,
        "bic": -2 * loglik + r * math.log(n),
        "caic": -2 * loglik + 2 * n * r / (n - r - 1),
        "hqic": -2 * loglik + 2 * r * math.log(math.log(n)),
    }


#: AGR log-likelihood maximum on ``embedded:insurance``, from
#: :func:`reference_fit` (the tests recompute it).
INSURANCE_AGR_LOGLIK = 129.61917465827582


def reference_fit(x) -> tuple[float, float, float]:
    """Maximize the AGR log-likelihood independently of the program.

    A 37 x 25 grid over data quantiles x scale multiples, then Nelder-Mead
    from the best few grid points.  Returns ``(loglik, omega, psi)``.
    """
    from scipy.optimize import minimize

    x = np.asarray(x, dtype=float)
    med = float(np.median(x))
    scale = float(np.mean(np.abs(x - med)))
    grid = [
        (agr_loglik(x, w, s), w, s)
        for w in np.quantile(x, np.linspace(0.05, 0.95, 37))
        for s in scale * np.geomspace(0.2, 5.0, 25)
    ]
    best = max(grid)

    def nll(theta):
        w, s = theta
        return math.inf if not s > 0 else -agr_loglik(x, w, s)

    for ll, w, s in sorted(grid, reverse=True)[:3]:
        res = minimize(nll, [w, s], method="Nelder-Mead",
                       options={"xatol": 1e-12 * scale, "fatol": 1e-12, "maxiter": 4000})
        if -res.fun > best[0]:
            best = (-float(res.fun), float(res.x[0]), float(res.x[1]))
    return best


def fit_problems(x, omega, psi, loglik, reference_loglik) -> list[str]:
    """Reasons a reported AGR fit is wrong; empty when it passes."""
    problems = []
    own = agr_loglik(x, omega, psi)
    if not close(loglik, own, FIT_LOGLIK_EVAL, FIT_LOGLIK_EVAL):
        problems.append(f"reported loglik {loglik!r} != {own!r} at its own parameters")
    if own < reference_loglik - FIT_GAP * (1 + abs(reference_loglik)):
        problems.append(f"loglik {own!r} trails the reference {reference_loglik!r}")
    slack = FIT_PERTURB_SLACK * (1 + abs(own))
    for step in FIT_PERTURB_STEPS:
        for dw, ds in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
            w, s = omega + dw * step * psi, psi * (1 + ds * step)
            if agr_loglik(x, w, s) > own + slack:
                problems.append(f"perturbation ({dw:+d},{ds:+d})*{step:g} beats the fit")
    return problems
