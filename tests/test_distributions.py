"""AGR distribution: frozen closed-form values, consistency invariants,
sampling, and quadrature-vs-Monte-Carlo moment checks.

Expected constants were evaluated independently at 40-digit precision
(mpmath) from the closed forms and frozen here.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from arctangr import (
    P_STAR,
    ArctanGRParams,
    DomainError,
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
    gaussian_cdf,
    gaussian_logpdf,
    gaussian_pdf,
    gaussian_quantile,
    mixture_kernel_cdf,
    mixture_kernel_pdf,
    mixture_kernel_pdf_by_integration,
    mixture_kernel_quantile,
    rayleigh_cdf,
    rayleigh_logpdf,
    rayleigh_pdf,
    rayleigh_quantile,
)
from arctangr.distributions import _z_log_shape, _z_moment_parts

# frozen 40-digit oracle values, omega=0, psi=1
PDF_AT_LOC = 0.50929581789406508       # 8 / (5 pi)
PDF_AT_MINUS_1 = 0.2265347886510187    # 8 e^{-1} / (pi (4 + e^{-2}))
Q_HALF = -0.18822640645959771          # ln(2 tan(pi/8))
SKEW_01 = -0.10157992621899001
KURT_01 = 1.5609601209829296
MEAN_01 = -0.25811047274264265
M2_01 = 1.9412848158717482
HAZ_AT_LOC = 1.2431991010865355        # (8/(5 pi)) / (1 - P_STAR)
CUMHAZ_AT_LOC = 0.89241423417040799    # -ln(1 - P_STAR)

# 5x5 parameter grid used by several invariants
GRID = [
    ArctanGRParams(omega, psi)
    for omega in (-100.0, -1.0, 0.0, 0.02, 37.0)
    for psi in (1e-3, 0.1, 1.0, 10.0, 1e3)
]


class TestParams:
    def test_positive_scale_enforced(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                ArctanGRParams(omega=0.0, psi=bad)
            with pytest.raises(DomainError):
                RayleighParams(psi=bad)
            with pytest.raises(DomainError):
                GaussianParams(omega=0.0, eta=bad)
        with pytest.raises(DomainError):
            ArctanGRParams(omega=np.nan, psi=1.0)

    def test_p_star_bracket(self):
        assert 0.59 < P_STAR < 0.60
        assert agr_cdf(ArctanGRParams(3.0, 0.2), 3.0) == pytest.approx(P_STAR, abs=1e-15)


class TestMixtureKernel:
    def test_peak_and_symmetry(self, unit_params):
        assert mixture_kernel_pdf(unit_params, 0.0) == 0.5
        for t in (0.3, 1.0, 4.7):
            assert mixture_kernel_pdf(unit_params, t) == mixture_kernel_pdf(unit_params, -t)

    def test_closed_form_values(self, unit_params):
        assert mixture_kernel_pdf(unit_params, 1.0) == pytest.approx(
            0.18393972058572117, abs=1e-16
        )

    def test_integration_oracle_matches_closed_form(self, unit_params):
        assert mixture_kernel_pdf_by_integration(unit_params, 0.0) == pytest.approx(0.5, abs=1e-8)
        assert mixture_kernel_pdf_by_integration(unit_params, 2.0) == pytest.approx(
            0.067667641618306351, abs=1e-8
        )
        p = ArctanGRParams(3.0, 0.5)
        assert mixture_kernel_pdf_by_integration(p, 3.5) == pytest.approx(
            0.36787944117144233, abs=1e-8
        )

    def test_integration_oracle_on_grid(self):
        for params, xs in [
            (ArctanGRParams(0.0, 1.0), np.linspace(-6, 6, 25)),
            (ArctanGRParams(3.0, 0.5), np.linspace(0, 6, 25)),
        ]:
            direct = mixture_kernel_pdf(params, xs)
            integrated = mixture_kernel_pdf_by_integration(params, xs)
            np.testing.assert_allclose(integrated, direct, rtol=0, atol=1e-8)

    def test_cdf_quantile_round_trip(self):
        params = ArctanGRParams(-2.0, 0.7)
        p = np.linspace(0.01, 0.99, 33)
        np.testing.assert_allclose(
            mixture_kernel_cdf(params, mixture_kernel_quantile(params, p)), p, atol=1e-14
        )


class TestCdf:
    def test_value_at_location_and_limits(self, unit_params):
        assert agr_cdf(unit_params, 0.0) == pytest.approx(P_STAR, abs=1e-16)
        assert agr_cdf(unit_params, -np.inf) == 0.0
        assert agr_cdf(unit_params, np.inf) == 1.0

    def test_published_var_row_inverts(self, table_params):
        # CDF at the alpha=0.609 VaR from the published risk grid
        assert agr_cdf(table_params, 0.020187) == pytest.approx(0.609, abs=5e-4)

    def test_monotone(self, unit_params):
        grid = np.linspace(-30, 30, 1001)
        assert np.all(np.diff(agr_cdf(unit_params, grid)) >= 0)

    def test_nan_rejected(self, unit_params):
        with pytest.raises(DomainError):
            agr_cdf(unit_params, np.array([0.0, np.nan]))


class TestPdf:
    def test_branch_values_at_location(self):
        # both analytic branches reduce to 8/(5 pi psi) at the location
        for params in GRID:
            expected = 8.0 / (5.0 * math.pi * params.psi)
            assert agr_pdf(params, params.omega) == pytest.approx(expected, rel=1e-13)

    def test_continuity_across_location(self, unit_params):
        left = agr_pdf(unit_params, np.nextafter(0.0, -1.0))
        right = agr_pdf(unit_params, np.nextafter(0.0, 1.0))
        assert left == pytest.approx(right, rel=1e-12)

    def test_frozen_value_below_location(self, unit_params):
        assert agr_pdf(unit_params, -1.0) == pytest.approx(PDF_AT_MINUS_1, rel=1e-14)

    def test_vanishes_at_infinity(self, unit_params):
        assert agr_pdf(unit_params, np.inf) == 0.0
        assert agr_pdf(unit_params, -np.inf) == 0.0

    @pytest.mark.parametrize("params", GRID)
    def test_normalizes_on_parameter_grid(self, params):
        lo = params.omega - 60.0 * params.psi
        hi = params.omega + 60.0 * params.psi
        total, _ = quad(lambda v: agr_pdf(params, v), lo, hi, points=[params.omega],
                        limit=200, epsabs=1e-13, epsrel=1e-12)
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "params", [ArctanGRParams(0.0, 1.0), ArctanGRParams(0.02, 0.005),
                   ArctanGRParams(100.0, 1e-3), ArctanGRParams(-3.0, 2.0)]
    )
    def test_cdf_derivative_matches_pdf(self, params):
        omega, psi = params.omega, params.psi
        probs = np.linspace(5e-4, 1 - 5e-4, 1000)
        x = agr_quantile(params, probs)
        keep = np.abs(x - omega) > 1e-6 * psi  # exclusion window around the kink
        x = x[keep]
        h = np.clip(0.25 * np.abs(x - omega), 1e-9 * psi, 1e-5 * psi)
        xp, xm = x + h, x - h
        num = (agr_cdf(params, xp) - agr_cdf(params, xm)) / (xp - xm)
        g = agr_pdf(params, x)
        assert (np.abs(num - g) / g).max() < 1e-6

    def test_logpdf_consistent_with_pdf(self, unit_params):
        x = np.linspace(-40, 40, 401)
        np.testing.assert_allclose(
            agr_logpdf(unit_params, x), np.log(agr_pdf(unit_params, x)), atol=1e-12
        )

    def test_shared_log_density_kernel(self, table_params):
        # the fit's objective sums this kernel; mapped affinely it is the log-density
        omega, psi = table_params.omega, table_params.psi
        z = np.linspace(-40, 40, 401)
        x = omega + psi * z
        mapped = _z_log_shape(z) + math.log(2.0 / (math.pi * psi))
        np.testing.assert_allclose(mapped, agr_logpdf(table_params, x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(mapped, np.log(agr_pdf(table_params, x)), rtol=0, atol=1e-12)


class TestQuantile:
    def test_branch_point_returns_location(self):
        for params in (ArctanGRParams(0.0, 1.0), ArctanGRParams(0.02, 0.005)):
            q = agr_quantile(params, P_STAR)
            assert q == pytest.approx(params.omega, abs=1e-14 * params.psi)

    def test_frozen_median(self, unit_params):
        assert agr_quantile(unit_params, 0.5) == pytest.approx(Q_HALF, abs=1e-15)

    def test_published_var_values(self, table_params):
        assert agr_quantile(table_params, 0.990) == pytest.approx(0.037341, abs=1e-5)
        assert agr_quantile(table_params, 0.609) == pytest.approx(0.020187, abs=2e-6)

    def test_round_trip_tight(self):
        probs = np.unique(np.concatenate([
            np.logspace(-6, np.log10(0.49), 40),
            1.0 - np.logspace(-6, np.log10(0.49), 40),
            [0.5, P_STAR, np.nextafter(P_STAR, 0.0)],
        ]))
        for params in (ArctanGRParams(0.0, 1.0), ArctanGRParams(0.02, 0.005),
                       ArctanGRParams(-7.0, 12.0)):
            back = agr_cdf(params, agr_quantile(params, probs))
            assert np.abs(back - probs).max() < 1e-10

    def test_domain_errors(self, unit_params):
        for bad in (0.0, 1.0, -0.2, 1.3, np.nan):
            with pytest.raises(DomainError):
                agr_quantile(unit_params, bad)

    def test_strictly_increasing(self, unit_params):
        p = np.linspace(1e-4, 1 - 1e-4, 500)
        assert np.all(np.diff(agr_quantile(unit_params, p)) > 0)


class TestShapeMeasures:
    def test_frozen_values(self, unit_params):
        assert agr_skewness(unit_params) == pytest.approx(SKEW_01, abs=1e-13)
        assert agr_kurtosis(unit_params) == pytest.approx(KURT_01, abs=1e-13)

    def test_location_scale_invariance(self):
        a = ArctanGRParams(0.0, 1.0)
        b = ArctanGRParams(7.0, 3.0)
        assert agr_skewness(a) == pytest.approx(agr_skewness(b), rel=1e-10)
        assert agr_kurtosis(a) == pytest.approx(agr_kurtosis(b), rel=1e-10)

    def test_kurtosis_positive_and_iqr_positive_on_grid(self):
        for params in GRID:
            q1, q3 = agr_quantile(params, 0.25), agr_quantile(params, 0.75)
            assert q3 - q1 > 0
            assert agr_kurtosis(params) > 0


class TestSurvivalHazard:
    def test_survival_at_location_and_limits(self, unit_params):
        assert agr_survival(unit_params, 0.0) == pytest.approx(1 - P_STAR, abs=1e-15)
        assert agr_survival(unit_params, np.inf) == 0.0
        assert agr_survival(unit_params, -np.inf) == 1.0

    def test_survival_published_row(self, table_params):
        assert agr_survival(table_params, 0.037341) == pytest.approx(0.010, abs=5e-4)

    def test_survival_accurate_deep_in_tail(self, unit_params):
        # exact tail equivalent: (4/pi) arctan(z/(2-z)), z = e^{-40}/2
        z = 0.5 * math.exp(-40.0)
        expected = (4 / math.pi) * math.atan(z / (2 - z))
        assert agr_survival(unit_params, 40.0) == pytest.approx(expected, rel=1e-13)
        assert 0.0 < agr_survival(unit_params, 700.0) < 1e-300

    def test_cum_hazard(self, unit_params):
        assert agr_cum_hazard(unit_params, 0.0) == pytest.approx(CUMHAZ_AT_LOC, abs=1e-13)
        grid = np.linspace(-25, 25, 501)
        ch = agr_cum_hazard(unit_params, grid)
        assert np.all(np.diff(ch) >= 0)
        assert agr_cum_hazard(unit_params, -np.inf) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_cum_hazard_finite_where_survival_underflows(self, unit_params):
        # the direct form -log(survival), where the survival is still normal
        t = 0.5 * math.exp(-700.0)
        direct = -math.log((4 / math.pi) * math.atan(t / (2 - t)))
        assert agr_cum_hazard(unit_params, 700.0) == pytest.approx(direct, rel=1e-13)
        # beyond it the survival is (4/pi) e^{-z}/4 to double precision
        for z in (800.0, 1e4):
            want = z + math.log(math.pi)
            assert agr_cum_hazard(unit_params, z) == pytest.approx(want, rel=1e-15)
        assert agr_cum_hazard(unit_params, np.inf) == np.inf

    def test_hazard_values_and_tail_limit(self, unit_params):
        assert agr_hazard(unit_params, 0.0) == pytest.approx(HAZ_AT_LOC, abs=1e-13)
        assert agr_hazard(unit_params, -np.inf) == 0.0
        for params in (ArctanGRParams(0.0, 1.0), ArctanGRParams(0.02, 0.005)):
            x = params.omega + 40.0 * params.psi
            assert agr_hazard(params, x) == pytest.approx(1.0 / params.psi, rel=0.05)

    def test_hazard_finite_even_when_tail_underflows(self, unit_params):
        h = agr_hazard(unit_params, 800.0)  # pdf and survival both underflow here
        assert np.isfinite(h)
        assert h == pytest.approx(1.0, rel=1e-12)

    def test_hazard_consistent_with_ratio(self, unit_params):
        x = np.linspace(-20, 20, 201)
        ratio = agr_pdf(unit_params, x) / agr_survival(unit_params, x)
        np.testing.assert_allclose(agr_hazard(unit_params, x), ratio, rtol=1e-12)


class TestSampling:
    def test_preconditions(self, unit_params):
        for bad in (0, -3, 2.5):
            with pytest.raises(DomainError):
                agr_sample(unit_params, bad, seed=1)

    def test_deterministic_under_seed(self, unit_params):
        a = agr_sample(unit_params, 1000, seed=99)
        b = agr_sample(unit_params, 1000, seed=99)
        c = agr_sample(unit_params, 1000, seed=100)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_kolmogorov_distance(self, unit_params):
        draws = agr_sample(unit_params, 10**6, seed=2024)
        stat = kstest(draws, lambda v: agr_cdf(unit_params, v)).statistic
        assert stat < 0.002

    def test_sample_median_matches_quantile(self, unit_params):
        draws = agr_sample(unit_params, 10**6, seed=7)
        assert np.median(draws) == pytest.approx(Q_HALF, abs=0.01)


class TestMoments:
    def test_preconditions(self, unit_params):
        for bad in (0, -1, 1.5):
            with pytest.raises(DomainError):
                agr_moment(unit_params, bad)

    def test_frozen_first_two_moments(self, unit_params):
        assert agr_moment(unit_params, 1) == pytest.approx(MEAN_01, abs=1e-10)
        assert agr_moment(unit_params, 2) == pytest.approx(M2_01, rel=1e-10)

    @pytest.mark.parametrize("k", range(9))
    def test_standard_moment_series_matches_quadrature(self, unit_params, k):
        lower, upper = _z_moment_parts(k)
        for got, (lo, hi) in ((lower, (-np.inf, 0.0)), (upper, (0.0, np.inf))):
            want, _ = quad(lambda z: z**k * agr_pdf(unit_params, z), lo, hi,
                           epsabs=0, epsrel=1e-13, limit=200)
            assert got == pytest.approx(want, rel=1e-12)
        if k == 0:
            assert lower + upper == pytest.approx(1.0, abs=1e-15)
            assert lower == pytest.approx(P_STAR, abs=1e-15)

    def test_largest_representable_order(self, unit_params):
        # E[Z^r] = r! (sum_j c_j (j+1)^-(r+1) / pi + (2/pi) sum_j (-1/4)^j (2j+1)^-(r+1))
        # for even r; every term past j = 0 is below 2^-171 of the first
        assert agr_moment(unit_params, 170) == pytest.approx(
            math.factorial(170) * 3 / math.pi, rel=1e-14
        )

    @pytest.mark.parametrize("params,r", [(ArctanGRParams(0.0, 1.0), 171),
                                          (ArctanGRParams(10.0, 1.0), 400)])
    def test_overflow_is_a_domain_error(self, params, r):
        with pytest.raises(DomainError, match=f"r={r}"):
            agr_moment(params, r)

    def test_concentrates_at_location_for_tiny_scale(self):
        assert agr_moment(ArctanGRParams(5.0, 1e-3), 1) == pytest.approx(5.0, abs=0.01)

    def test_monte_carlo_oracle_agreement(self, unit_params):
        draws = agr_sample(unit_params, 10**7, seed=314)
        for r in (1, 2):
            mc = (draws**r).mean()
            se = (draws**r).std(ddof=1) / math.sqrt(draws.size)
            assert abs(agr_moment(unit_params, r) - mc) < 3.0 * se


class TestHeavierTailsThanGaussian:
    def test_survival_ratio_grows_without_bound(self, unit_params):
        from scipy.special import log_ndtr

        # Gaussian matched to the AGR's median and interquartile range; the
        # Gaussian tail underflows long before the AGR's, so compare in logs
        med = agr_quantile(unit_params, 0.5)
        iqr = agr_quantile(unit_params, 0.75) - agr_quantile(unit_params, 0.25)
        gauss = GaussianParams(omega=med, eta=iqr / (2.0 * 1.3489795003921634))
        log_ratios = []
        for k in (5.0, 10.0, 20.0):
            x = unit_params.omega + k * unit_params.psi
            log_gs = log_ndtr(-(x - gauss.omega) / gauss.eta)
            log_ratios.append(math.log(agr_survival(unit_params, x)) - log_gs)
        assert log_ratios[0] > 0.0  # already heavier at 5 scales out
        assert log_ratios[0] < log_ratios[1] < log_ratios[2]
        assert log_ratios[2] > 115  # ratio beyond 1e50


class TestGaussianRayleighClosedForms:
    def test_gaussian_round_trip_and_logpdf(self):
        params = GaussianParams(omega=1.5, eta=0.4)
        p = np.linspace(0.01, 0.99, 21)
        np.testing.assert_allclose(
            gaussian_cdf(params, gaussian_quantile(params, p)), p, atol=1e-12
        )
        x = np.linspace(-1, 4, 51)
        np.testing.assert_allclose(
            gaussian_logpdf(params, x), np.log(gaussian_pdf(params, x)), atol=1e-12
        )

    def test_rayleigh_round_trip_support_and_logpdf(self):
        params = RayleighParams(psi=2.5)
        p = np.linspace(0.01, 0.99, 21)
        np.testing.assert_allclose(
            rayleigh_cdf(params, rayleigh_quantile(params, p)), p, atol=1e-12
        )
        assert rayleigh_pdf(params, -1.0) == 0.0
        assert rayleigh_cdf(params, -1.0) == 0.0
        assert rayleigh_logpdf(params, -1.0) == -np.inf
        x = np.linspace(0.1, 12, 41)
        np.testing.assert_allclose(
            rayleigh_logpdf(params, x), np.log(rayleigh_pdf(params, x)), atol=1e-12
        )

    def test_rayleigh_density_normalizes(self):
        params = RayleighParams(psi=2.5)
        total, _ = quad(lambda x: rayleigh_pdf(params, x), 0, 50, epsabs=1e-12, epsrel=1e-12)
        assert abs(total - 1.0) < 1e-9
