"""AGR distribution: frozen closed-form values, consistency invariants,
sampling, and quadrature-vs-Monte-Carlo moment checks.

Expected constants were evaluated independently at 40-digit precision
(mpmath) from the closed forms and frozen here.
"""

import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from arctangr import (
    P_STAR,
    ArctanGRParams,
    BaseDistribution,
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
    arctan_cdf,
    arctan_pdf,
    gaussian_base,
    gaussian_cdf,
    gaussian_logpdf,
    gaussian_pdf,
    gaussian_quantile,
    mixture_kernel_cdf,
    mixture_kernel_logpdf,
    mixture_kernel_pdf,
    mixture_kernel_quantile,
    rayleigh_cdf,
    rayleigh_logpdf,
    rayleigh_pdf,
    rayleigh_quantile,
)
from arctangr import _arrays
from arctangr._arrays import BLOCK, CHUNK
from arctangr._util import bowley_moors
from arctangr.arctanx import FOUR_OVER_PI
from arctangr.distributions import (
    _from_z,
    _half_exp,
    _laplace_cdf,
    _laplace_quantile,
    _z,
    _z_cdf,
    _z_cum_hazard,
    _z_hazard,
    _z_log_shape,
    _z_pdf,
    _z_quantile,
    _z_sf,
)
from arctangr.tail import _z_moment
from mixture_oracle import mixture_kernel_pdf_by_integration
from score_oracle import z_shape_derivs
from where_kernels import z_uw

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

    @pytest.mark.parametrize("psi", [1e308, np.finfo(float).max, 5e-324])
    def test_logpdf_finite_at_extreme_scales(self, psi):
        # 2 * psi overflows above ~9e307
        expected = -math.log(2.0) - math.log(psi)
        got = mixture_kernel_logpdf(ArctanGRParams(0.0, psi), 0.0)
        assert got == pytest.approx(expected, rel=1e-15)

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

    @pytest.mark.parametrize("psi", [1e308, np.finfo(float).max, 5e-324])
    def test_logpdf_finite_at_extreme_scales(self, psi):
        # pi * psi overflows above ~5.7e307 and 2 / (pi * psi) below ~2e-308
        expected = math.log(2.0 / math.pi) - math.log(psi) - math.log(1.25)
        got = agr_logpdf(ArctanGRParams(0.0, psi), 0.0)
        assert got == pytest.approx(expected, rel=1e-15)


def _mp_log_shape(z, side):
    """``L(z) = log g(z) - log(2/pi)`` on the ``side`` (+1 or -1) of 0, in mpmath
    at the caller's working precision: that side's analytic formula, so its
    derivatives at 0 are the one-sided ones."""
    z = mpmath.mpf(z)
    w = 1 - mpmath.exp(-z) / 2 if side > 0 else mpmath.exp(z) / 2
    return -side * z - mpmath.log(1 + w * w)


_SHAPE_Z = np.concatenate([np.linspace(-30.0, 30.0, 601), [-1e-300, 1e-300, 0.34, -700.0, 700.0]])


class TestLogShape:
    """The standard log-shape ``L`` and its closed-form derivatives, all read
    from one ``(u, w)``, against a 40-digit mpmath reference."""

    def test_log_shape(self):
        got = _z_log_shape(_SHAPE_Z)
        with mpmath.workdps(40):
            want = np.array([float(_mp_log_shape(z, 1 if z >= 0 else -1)) for z in _SHAPE_Z])
        # measured 2.2e-16 relative; |L| >= log(5/4) everywhere
        assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-16

    def test_derivatives(self):
        z = np.concatenate([_SHAPE_Z, [0.0, 0.0]])
        side = np.where(z > 0.0, 1.0, -1.0)
        side[-1] = 1.0  # the last two are L(0-) and L(0+)
        l1, l2 = z_shape_derivs(*z_uw(z), side)
        with mpmath.workdps(40):
            for k, got in ((1, l1), (2, l2)):
                want = [float(mpmath.diff(lambda t: _mp_log_shape(t, s), zi, k))
                        for zi, s in zip(z, side)]
                # measured 2.2e-16 (L') and 1.7e-16 (L''), absolute: |L'| <= 2
                np.testing.assert_allclose(got, want, rtol=0, atol=4e-16)

    def test_one_sided_limits_at_zero(self):
        l1, l2 = z_shape_derivs(*z_uw(np.zeros(2)), np.array([-1.0, 1.0]))
        assert l1 == pytest.approx([0.6, -1.4], abs=1e-16)
        assert l2 == pytest.approx([-0.64, 0.16], abs=1e-16)


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

    def test_the_sample_measures_on_the_model_octiles(self):
        # the one Bowley/Moors definition, shared with describe
        octiles = _z_quantile(np.arange(1, 8) / 8).tolist()
        for params in GRID:
            assert (agr_skewness(params), agr_kurtosis(params)) == bowley_moors(octiles)

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

    def test_cum_hazard_against_mpmath(self, unit_params):
        # below the location -log1p(-F) on the lower tail's CDF, which -log(sf)
        # missed by 3e-10 relative at z = -20 and rounded to -0.0 from z ~ -37
        z = np.concatenate([-np.logspace(-300, math.log10(745.0), 400),
                            [-5e-324, -20.0, -37.0, -700.0, -745.2],
                            np.linspace(0.0, 700.0, 201), [5e-324, 17.7275, 18.4207, 36.7]])

        def exact(v):
            v = mpmath.mpf(v)
            if v < 0:
                return -mpmath.log1p(-4 / mpmath.pi * mpmath.atan(mpmath.exp(v) / 2))
            t = mpmath.exp(-v) / 2
            return -mpmath.log(4 / mpmath.pi * mpmath.atan(t / (2 - t)))

        with mpmath.workdps(40):
            want = np.array([float(exact(v)) for v in z])
        got = agr_cum_hazard(unit_params, z)
        assert not np.signbit(got).any()
        # measured 2 ulp below the location and 1 above; where the value is
        # subnormal (z < -708) it is exact
        np.testing.assert_array_less(np.abs(got - want), 3.0 * np.spacing(want) + 5e-324)
        assert got[z == -37.0][0] == pytest.approx(5.4323068e-17, rel=1e-7)

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

    @pytest.mark.parametrize("n", [BLOCK + 1, 3 * BLOCK + 5])
    def test_blocks_consume_one_stream(self, table_params, n):
        # drawn BLOCK uniforms at a time, yet exactly the single-call draws
        p = np.maximum(np.random.default_rng(11).random(n), np.finfo(float).tiny)
        want = agr_quantile(table_params, p)
        assert_same_bits(agr_sample(table_params, n, seed=11), want)


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
        want = sum(quad(lambda z: z**k * agr_pdf(unit_params, z), lo, hi,
                        epsabs=0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)))
        assert _z_moment(k) == pytest.approx(want, rel=1e-12)
        if k == 0:
            assert _z_moment(0) == pytest.approx(1.0, abs=1e-15)

    def test_moment_against_mpmath(self):
        # E[Z^k], k! / n^{k+1} termwise, against the series on each side of 0
        # in 40-digit mpmath (the terms left out are below 2^-140 of each
        # side's sum): within 2 ulps at every order (measured: 1.42; the two
        # sides' float sums added in floats reached 3.07, at k = 21)
        with mpmath.workdps(40):
            q = mpmath.mpc(1, 1) / 4
            upper = [(mpmath.mpf(n), 4 * (q**n).imag) for n in range(1, 95)]
            lower = [(mpmath.mpf(2 * j + 1), 2 * mpmath.mpf(-0.25) ** j) for j in range(72)]
            lower_mass = mpmath.fsum(c / n for n, c in lower) / mpmath.pi
            assert lower_mass == pytest.approx(P_STAR, abs=1e-16)
            for k in range(171):
                parts = [mpmath.fsum(c * n ** -(k + 1) for n, c in terms)
                         for terms in (lower, upper)]
                want = mpmath.factorial(k) / mpmath.pi * ((-1) ** k * parts[0] + parts[1])
                assert abs(_z_moment(k) - want) <= 2 * math.ulp(float(want)), k

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

    def test_rayleigh_limits_where_z_over_psi_overflows(self):
        # z/psi is inf at x = inf, and at a subnormal psi, while e^{-z^2/2}
        # underflows: the density's limit there is 0, and its log -inf, as
        # the CDF is 1; the formula's inf * 0 (inf - inf) must not surface as NaN
        with np.errstate(over="ignore"):  # z = x/psi overflows at psi = 5e-324
            for psi, x in ((1.0, np.inf), (5e-324, 1.0), (1e-10, np.inf)):
                params = RayleighParams(psi)
                assert rayleigh_pdf(params, x) == 0.0
                assert rayleigh_logpdf(params, x) == -np.inf
                assert rayleigh_cdf(params, x) == 1.0
                arr = np.array([x, 1.0, -1.0, x])
                want = np.array([0.0, rayleigh_pdf(params, 1.0), 0.0, 0.0])
                np.testing.assert_array_equal(rayleigh_pdf(params, arr), want)
                log_want = np.array([-np.inf, rayleigh_logpdf(params, 1.0), -np.inf, -np.inf])
                np.testing.assert_array_equal(rayleigh_logpdf(params, arr), log_want)

    def test_rayleigh_density_where_only_z_over_psi_overflows(self):
        # below psi ~ 2e-307, z/psi overflows while (z/psi) e^{-z^2/2} is a
        # double: the array kernel and its float twin (which the plot bundle
        # draws) take (z e^{-z^2/2})/psi there, with no overflow warning,
        # and stay 0 where the density underflows (x = inf, psi = 5e-324)
        from arctangr.fit import MODELS

        twin = MODELS["rayleigh"].pdf
        for psi, x in ((1e-310, 1e-309), (1e-310, 3e-309), (2.2250738585072014e-308, 1e-307),
                       (5e-324, 5e-323)):
            params = RayleighParams(psi)
            got = rayleigh_pdf(params, x)  # RuntimeWarning is an error here
            assert math.isfinite(got) and got == pytest.approx(
                math.exp(rayleigh_logpdf(params, x)), rel=1e-13)
            assert twin(params, [x]) == [got]
            np.testing.assert_array_equal(rayleigh_pdf(params, np.array([x, 2 * x])),
                                          [got, rayleigh_pdf(params, 2 * x)])
        assert rayleigh_pdf(RayleighParams(1e-310), 1e-309) == pytest.approx(
            1.9287498479630117e+289, rel=1e-13)
        with np.errstate(over="ignore"):  # z = x/psi overflows at psi = 5e-324
            for psi, x in ((1.0, math.inf), (5e-324, 1.0), (1e-310, math.inf)):
                assert rayleigh_pdf(RayleighParams(psi), x) == 0.0
                assert twin(RayleighParams(psi), [x]) == [0.0]

    def test_rayleigh_density_normalizes(self):
        params = RayleighParams(psi=2.5)
        total, _ = quad(lambda x: rayleigh_pdf(params, x), 0, 50, epsabs=1e-12, epsrel=1e-12)
        assert abs(total - 1.0) < 1e-9


def assert_same_bits(got, want):
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


GAUSS = GaussianParams(0.3, 2.0)


# each blocked public function beside its kernel expression in one numpy call
BLOCKED_X = {
    "agr_cdf": (agr_cdf, lambda x, o, s: _z_cdf((x - o) / s)),
    "agr_survival": (agr_survival, lambda x, o, s: _z_sf((x - o) / s)),
    "agr_pdf": (agr_pdf, lambda x, o, s: _z_pdf((x - o) / s) / s),
    "agr_logpdf": (agr_logpdf,
                   lambda x, o, s: math.log(2.0 / math.pi) - math.log(s)
                   + _z_log_shape((x - o) / s)),
    "agr_cum_hazard": (agr_cum_hazard, lambda x, o, s: _z_cum_hazard((x - o) / s)),
    "agr_hazard": (agr_hazard, lambda x, o, s: _z_hazard((x - o) / s) / s),
    "mixture_kernel_pdf": (mixture_kernel_pdf, lambda x, o, s: _half_exp((x - o) / s) / s),
    "mixture_kernel_cdf": (mixture_kernel_cdf, lambda x, o, s: _laplace_cdf((x - o) / s)),
    "mixture_kernel_logpdf": (mixture_kernel_logpdf,
                              lambda x, o, s: -np.abs((x - o) / s) - math.log(2.0 * s)),
}
BLOCKED_P = {
    "agr_quantile": (agr_quantile, lambda p, o, s: o + s * _z_quantile(p)),
    "mixture_kernel_quantile": (mixture_kernel_quantile,
                                lambda p, o, s: o + s * _laplace_quantile(p)),
}
# the generic transform, on a Gaussian base: (fn, reference, accepts +-inf)
BLOCKED_BASE = {
    "arctan_cdf": (arctan_cdf,
                   lambda x: FOUR_OVER_PI * np.arctan(gaussian_cdf(GAUSS, x)), True),
    "arctan_pdf": (arctan_pdf,
                   lambda x: FOUR_OVER_PI * gaussian_pdf(GAUSS, x)
                   / (1.0 + gaussian_cdf(GAUSS, x) ** 2), False),
}
# around the block boundaries, a 2-d array and a strided view
LAYOUTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, (3, BLOCK), "view"]


def _flat_size(layout):
    return 3 * (3 * BLOCK + 7) if layout == "view" else int(np.prod(layout))


def _laid_out(flat, layout):
    return flat[::3] if layout == "view" else flat.reshape(layout)


def _mp_wide_logs(omega, scale, x):
    """``{function: value}`` in 40-digit mpmath for the log-scale functions
    that stay finite where ``x - omega`` leaves the doubles."""
    with mpmath.workdps(40):
        psi = mpmath.mpf(scale)
        z = (mpmath.mpf(x) - mpmath.mpf(omega)) / psi
        if z >= 0:
            w = 1 - mpmath.exp(-z) / 2
            t = mpmath.exp(-z) / 2
            cum = -mpmath.log(4 / mpmath.pi * mpmath.atan(t / (2 - t)))
        else:
            w = mpmath.exp(z) / 2
            cum = -mpmath.log1p(-4 / mpmath.pi * mpmath.atan(w))
        return {
            agr_logpdf: mpmath.log(2 / mpmath.pi) - mpmath.log(psi) - abs(z)
            - mpmath.log1p(w * w),
            agr_cum_hazard: cum,
            mixture_kernel_logpdf: -abs(z) - mpmath.log(2 * psi),
            gaussian_logpdf: -z * z / 2 - mpmath.log(psi) - mpmath.log(2 * mpmath.pi) / 2,
        }


#: A location and a point so far apart that ``x - omega`` overflows, while
#: ``z = (x - omega) / 1e300`` is 3.4e8; and the same mirrored.
WIDE = [(-1.7e308, 1.7e308), (1.7e308, -1.7e308)]


class TestStandardization:
    """``_z`` forms ``(x - omega) / scale`` for every location-scale kernel
    (Gaussian, Laplace, AGR): finite wherever ``z`` is, also where
    ``x - omega`` overflows, and with the direct form's bits elsewhere."""

    @pytest.mark.parametrize("omega,x", WIDE)
    def test_wide_location_against_mpmath(self, omega, x):
        want = _mp_wide_logs(omega, 1e300, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, value in want.items():
                params = (GaussianParams if fn is gaussian_logpdf else ArctanGRParams)(omega, 1e300)
                got = fn(params, x)
                assert math.isfinite(got) and got == pytest.approx(float(value), rel=1e-14), fn
                # an array mixes the far point with near ones, whose bits stay
                arr = fn(params, np.array([x, omega, omega + 1e300]))
                assert arr[0] == got
                assert arr[1:].tolist() == [fn(params, omega), fn(params, omega + 1e300)]

    @pytest.mark.parametrize("omega,x", WIDE)
    def test_wide_location_cdf_side(self, omega, x):
        params = ArctanGRParams(omega, 1e300)
        above = x > omega
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert agr_cdf(params, x) == (1.0 if above else 0.0)
            assert agr_survival(params, x) == (0.0 if above else 1.0)
            assert gaussian_cdf(GaussianParams(omega, 1e300), x) == (1.0 if above else 0.0)
            assert agr_hazard(params, x) == pytest.approx(1e-300 if above else 0.0, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(omega=st.floats(2.0**970, np.finfo(float).max), sign=st.sampled_from([-1.0, 1.0]),
           scale=st.floats(5e-324, np.finfo(float).max),
           v=st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
    def test_halved_form_keeps_the_direct_bits(self, omega, sign, scale, v):
        # from |omega| = 2^970 on z is formed as ((v/2 - omega/2) / scale) * 2;
        # wherever v - omega does not overflow it has (v - omega) / scale's bits
        omega *= sign
        v = np.array(v + [omega, math.nextafter(omega, 0.0), np.finfo(float).max, -0.0])
        with np.errstate(over="ignore"):
            d = v - omega
            direct = d / scale
            got = _z(omega, scale, v)
        kept = np.isfinite(d) | np.isinf(v)
        assert got[kept].tobytes() == direct[kept].tobytes()
        if scale >= 2.0:  # |v - omega| <= 2 * MAX, so z is finite at every finite v
            assert np.isfinite(got[np.isfinite(v)]).all()

    def test_wide_scale_quantiles_are_finite(self):
        # scale * z overflows where omega + scale * z is a double: the quantiles
        # give it, with no warning, and it inverts the CDF
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for quantile, cdf, kind in ((agr_quantile, agr_cdf, ArctanGRParams),
                                        (mixture_kernel_quantile, mixture_kernel_cdf,
                                         ArctanGRParams),
                                        (gaussian_quantile, gaussian_cdf, GaussianParams)):
                params = kind(-1.7e308, 1.7e308)
                levels = [0.924866801204832, 0.9, 0.6]
                got = quantile(params, np.array(levels))
                for level, x in zip(levels, got):
                    assert math.isfinite(x) and quantile(params, level) == x
                    assert cdf(params, x) == pytest.approx(level, rel=1e-13), quantile
        assert agr_quantile(ArctanGRParams(-1.7e308, 1.7e308), 0.924866801204832) == (
            pytest.approx(8.5e307, rel=1e-13))
        # the sampler maps its draws by the same rule
        params = ArctanGRParams(-1.7e308, 1.7e308)
        u = np.maximum(np.random.default_rng(2).random(1000), np.finfo(float).tiny)
        with np.errstate(over="ignore"):  # draws beyond the doubles do overflow
            x = agr_sample(params, 1000, seed=2)
            assert x.tobytes() == agr_quantile(params, u).tobytes()
        assert np.isfinite(x[(u >= P_STAR) & (u < 0.92)]).all()

    @settings(max_examples=300, deadline=None)
    @given(omega=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0**-1022,
                                            -(2.0**-1021), 1.7e308, -1.7e308])),
           scale=st.floats(2.0**1014, np.finfo(float).max),
           p=st.lists(st.floats(5e-324, math.nextafter(1.0, 0.0)), min_size=1, max_size=8))
    def test_halved_from_z_keeps_the_direct_bits(self, omega, scale, p):
        # from scale = 2^1014 on omega + scale * z is formed in halves, with the
        # direct form's bits wherever that one does not overflow (z = +-0 too)
        z = np.append(_z_quantile(np.array(p + [P_STAR])), [0.0, -0.0])
        with np.errstate(over="ignore"):
            direct = z * scale + omega
            got = _from_z(omega, scale, z.copy())
        kept = np.isfinite(direct)
        assert got[kept].tobytes() == direct[kept].tobytes()
        assert (got[~kept] == direct[~kept]).sum() <= (~kept).sum()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_no_finite_point_overflows_below_the_bound(self, sign):
        # |x - omega| < 2^1024 - 2^970 for every finite x: the direct form serves
        omega = sign * math.nextafter(2.0**970, 0.0)
        edge = np.array([np.finfo(float).max, -np.finfo(float).max])
        with np.errstate(over="raise"):
            assert np.isfinite(_z(omega, 2.0, edge)).all()


class TestBlockwise:
    """Bulk inputs are evaluated BLOCK elements at a time; every bit must equal
    the kernel expression evaluated on the whole array at once."""

    @settings(max_examples=25, deadline=None)
    @given(
        layout=st.sampled_from(LAYOUTS),
        omega=st.floats(-1e6, 1e6),
        psi=st.floats(1e-3, 1e3),
        infinite=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_one_call(self, layout, omega, psi, infinite, seed):
        rng = np.random.default_rng(seed)
        n = _flat_size(layout)
        # z spread to +-800, with exact zeros on the branch point
        z = rng.uniform(-800.0, 800.0, n) * rng.choice([1e-3, 1.0, 1.0], n)
        z[rng.random(n) < 0.01] = 0.0
        p = np.maximum(rng.random(n), np.finfo(float).tiny)
        p[rng.random(n) < 0.01] = P_STAR
        # +-inf where the strided view keeps them too
        at = rng.integers(n, size=2) // 3 * 3

        def both(flat):
            with_inf = flat.copy()
            if infinite:
                with_inf[at] = [np.inf, -np.inf]
            return _laid_out(flat, layout), _laid_out(with_inf, layout)

        params = ArctanGRParams(omega, psi)
        x, x_inf = both(omega + psi * z)
        for name, (fn, kernel) in BLOCKED_X.items():
            arg = x if name == "agr_logpdf" else x_inf
            assert_same_bits(fn(params, arg), kernel(arg, omega, psi))

        p = _laid_out(p, layout)
        for fn, kernel in BLOCKED_P.values():
            assert_same_bits(fn(params, p), kernel(p, omega, psi))

        base = gaussian_base(GAUSS)
        g, g_inf = both(0.3 + 0.02 * z)
        for fn, kernel, accepts_inf in BLOCKED_BASE.values():
            arg = g_inf if accepts_inf else g
            assert_same_bits(fn(base, arg), kernel(arg))

    def test_scalars_stay_float(self, table_params):
        for fn, _ in BLOCKED_X.values():
            assert type(fn(table_params, 0.03)) is float
        for fn, _ in BLOCKED_P.values():
            assert type(fn(table_params, 0.9)) is float
        for fn, _, _ in BLOCKED_BASE.values():
            assert type(fn(gaussian_base(GAUSS), 0.5)) is float

    def test_errors_unchanged(self, table_params):
        x = np.linspace(-1.0, 1.0, 3 * BLOCK + 7)
        nan_last = x.copy()
        nan_last[-1] = np.nan
        for fn, _ in BLOCKED_X.values():
            with pytest.raises(DomainError) as err:
                fn(table_params, nan_last)
            assert str(err.value) == "x must not contain NaN"
        for fn, _, _ in BLOCKED_BASE.values():
            with pytest.raises(DomainError) as err:
                fn(gaussian_base(GAUSS), nan_last)
            assert str(err.value) == "x must not contain NaN"
        inf_last = x.copy()
        inf_last[-1] = np.inf
        for fn in (agr_logpdf, lambda _, v: arctan_pdf(gaussian_base(GAUSS), v)):
            with pytest.raises(DomainError) as err:
                fn(table_params, inf_last)
            assert str(err.value) == "x must be finite"
        for bad in (0.0, 1.0, 1.5, -0.1):
            p = np.full(3 * BLOCK + 7, 0.5)
            p[-1] = bad
            for fn, _ in BLOCKED_P.values():
                with pytest.raises(DomainError) as err:
                    fn(table_params, p)
                assert str(err.value) == "p must lie strictly inside (0, 1)"


class TestMemoryBudget:
    """No bulk kernel may hold more than half an output's worth of
    temporaries: the blocks keep them at most BLOCK elements each on one
    CPU, and a sixteenth of a thread's run on several."""

    N = 10**6

    @pytest.mark.parametrize("name", [
        "agr_cdf", "agr_pdf", "agr_logpdf", "agr_quantile", "agr_sample", "agr_hazard",
        "agr_cum_hazard", "mixture_kernel_quantile", "arctan_cdf", "rayleigh_pdf",
        "rayleigh_cdf", "rayleigh_logpdf", "rayleigh_quantile",
    ])
    def test_peak_traced_allocation(self, table_params, name):
        rng = np.random.default_rng(5)
        x = agr_quantile(table_params, rng.random(self.N))
        p = rng.random(self.N)
        g = 0.3 + 2.0 * rng.standard_normal(self.N)
        r = rng.rayleigh(2.0, self.N)
        base, ray = gaussian_base(GAUSS), RayleighParams(2.0)
        call = {
            "agr_cdf": lambda: agr_cdf(table_params, x),
            "agr_pdf": lambda: agr_pdf(table_params, x),
            "agr_logpdf": lambda: agr_logpdf(table_params, x),
            "agr_quantile": lambda: agr_quantile(table_params, p),
            "agr_sample": lambda: agr_sample(table_params, self.N, seed=5),
            "agr_hazard": lambda: agr_hazard(table_params, x),
            "agr_cum_hazard": lambda: agr_cum_hazard(table_params, x),
            "mixture_kernel_quantile": lambda: mixture_kernel_quantile(table_params, p),
            "arctan_cdf": lambda: arctan_cdf(base, g),
            "rayleigh_pdf": lambda: rayleigh_pdf(ray, r),
            "rayleigh_cdf": lambda: rayleigh_cdf(ray, r),
            "rayleigh_logpdf": lambda: rayleigh_logpdf(ray, r),
            "rayleigh_quantile": lambda: rayleigh_quantile(ray, p),
        }[name]
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == 8 * self.N
        assert peak <= 1.5 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"


class TestMemoryBudgetOnEightCpus(TestMemoryBudget):
    """The same budget with eight CPUs: each thread holds its own block's
    temporaries, and a thread takes at least CHUNK elements, so at 1e6
    points three threads share the input, not eight."""

    @pytest.fixture(autouse=True)
    def eight_cpus(self, set_cpus):
        set_cpus(8)


class TestMemoryBudgetOnFewAndManyCpus(TestMemoryBudget):
    """The same budget on 2, 3, 4 and 64 CPUs: a thread's blocks are a
    sixteenth of its run, so the fewest runs (two) hold the longest."""

    @pytest.fixture(autouse=True, params=[2, 3, 4, 64])
    def cpu_count(self, set_cpus, request):
        set_cpus(request.param)


# around the block and the chunk boundaries: below 2 CHUNK one chunk, from
# there one per CPU, most walked in blocks of a length that is no multiple
# of BLOCK nor of 8, the last one cut short
CHUNK_LENGTHS = [BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK + 7, 3 * BLOCK + 5,
                 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 7, 2 * CHUNK + 16 * 8 + 3,
                 3 * CHUNK + 5, 10**6]


def per_block(fn, arg):
    """``fn`` on each BLOCK-long slice of a 1-d ``arg`` in turn, on this thread."""
    out = np.empty(arg.size)
    for i in range(0, arg.size, BLOCK):
        out[i:i + BLOCK] = fn(arg[i:i + BLOCK])
    return out


class TestChunks:
    """A bulk input is split into one run of blocks per CPU, each of at
    least CHUNK elements and of 16 blocks; every bit equals the BLOCK-long
    blocks evaluated in turn on one thread, on this machine's CPUs and on
    2, 3, 4 and 8."""

    @pytest.mark.parametrize("cpus", [None, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", CHUNK_LENGTHS)
    def test_bit_identical_to_serial_blocks(self, set_cpus, table_params, cpus, n):
        if cpus:
            set_cpus(cpus)
        rng = np.random.default_rng(n)
        p = np.maximum(rng.random(n), np.finfo(float).tiny)
        x = table_params.omega + table_params.psi * _z_quantile(p)
        g = 0.3 + 2.0 * rng.standard_normal(n)
        base = gaussian_base(GAUSS)
        cases = [(partial(fn, table_params), x) for fn, _ in BLOCKED_X.values()]
        cases += [(partial(fn, table_params), p) for fn, _ in BLOCKED_P.values()]
        cases += [(partial(fn, base), g) for fn, _, _ in BLOCKED_BASE.values()]
        for fn, arg in cases:
            assert_same_bits(fn(arg), per_block(fn, arg))
        stream = np.maximum(np.random.default_rng(n).random(n), np.finfo(float).tiny)
        assert_same_bits(agr_sample(table_params, n, seed=n),
                         per_block(partial(agr_quantile, table_params), stream))

    def test_no_thread_outlives_a_bulk_call(self, set_cpus, table_params):
        set_cpus(2)
        before = threading.active_count()
        agr_cdf(table_params, np.linspace(-1.0, 1.0, 2 * CHUNK))
        assert threading.active_count() == before

    def test_an_error_in_another_chunk_reaches_the_caller(self, set_cpus):
        set_cpus(2)
        caller, raised_on = threading.current_thread(), []

        def cdf(v):
            if v[0] >= 1.0:  # chunk 1 holds the upper half
                raised_on.append(threading.current_thread())
                raise ZeroDivisionError("in chunk 1")
            return np.full(v.shape, 0.5)

        x = np.linspace(0.0, 2.0, 2 * CHUNK)
        with pytest.raises(ZeroDivisionError, match="in chunk 1"):
            arctan_cdf(BaseDistribution(cdf, cdf), x)
        assert raised_on and caller not in raised_on

    def test_every_chunk_keeps_the_callers_errstate(self, set_cpus):
        set_cpus(2)
        caller, seen_on = threading.current_thread(), []

        def cdf(v):
            if v[0] < 1.0:
                return np.full(v.shape, 0.5)
            seen_on.append(threading.current_thread())
            return np.log(v * 0.0)  # divides by zero in chunk 1

        x = np.linspace(0.0, 2.0, 2 * CHUNK)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            arctan_cdf(BaseDistribution(cdf, cdf), x)
        assert seen_on and caller not in seen_on

    # a base CDF that itself evaluates a bulk input, on the caller and in a
    # chunk thread; run in a new process, which a hang cannot outlive
    NESTED = textwrap.dedent("""
        import numpy as np
        from arctangr import BaseDistribution, GaussianParams, _arrays, arctan_cdf, gaussian_base

        _arrays.cpus = lambda: 2
        inner = gaussian_base(GaussianParams(0.3, 2.0))
        wide = np.linspace(-1.0, 1.0, 2 * _arrays.CHUNK)
        want = arctan_cdf(inner, wide)

        def cdf(v):
            assert np.array_equal(arctan_cdf(inner, wide), want)
            return inner.cdf(v)

        got = arctan_cdf(BaseDistribution(cdf, inner.pdf), wide)
        print(np.array_equal(got, want))
    """)

    def test_a_bulk_input_inside_a_chunk_is_evaluated(self, src_env):
        proc = subprocess.run([sys.executable, "-c", self.NESTED], capture_output=True,
                              text=True, env=src_env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_a_forked_child_evaluates_in_bulk(self, set_cpus, table_params):
        set_cpus(2)
        x = np.linspace(-1.0, 1.0, 2 * CHUNK)
        want = agr_cdf(table_params, x)  # a bulk call has split into two chunks
        with warnings.catch_warnings():
            # Python 3.12 on warns that a process with threads forks: the case here
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(agr_cdf(table_params, x), want) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's bulk call did not return within 60 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0


class TestBlockLength:
    """Each thread takes the interpreter lock back after every ufunc of every
    block, so the number of blocks is the number of those round trips: the
    runs share 16 blocks a CPU (at most 4 BLOCK long), one thread's input
    is walked in BLOCK-long ones."""

    @staticmethod
    def lengths(n):
        """The lengths of the slices ``blockwise`` hands its ``fn`` over ``n``
        elements, once the output is checked against ``fn``'s, bit for bit.
        ``fn`` writes each block into the output block it is given."""
        x = np.linspace(-1.0, 1.0, n)
        seen = []

        def fn(v, out=None):
            seen.append(v.size)  # list.append is atomic under the lock
            return np.multiply(v, 3.0, out=out)

        got = _arrays.blockwise(fn, x)
        assert_same_bits(got, x * 3.0)
        return seen

    def test_two_cpus_walk_16_blocks_each(self, set_cpus):
        set_cpus(2)
        seen = self.lengths(10**6)
        assert len(seen) <= 2 * 16 + 2
        assert sum(seen) == 10**6

    def test_one_cpu_walks_block_long_slices(self, set_cpus):
        set_cpus(1)
        seen = self.lengths(10**6)
        full, rest = divmod(10**6, BLOCK)
        assert seen == [BLOCK] * full + [rest]

    def test_a_long_chunk_takes_blocks_of_at_most_4_block(self, set_cpus):
        set_cpus(2)
        n = 2 * 16 * 4 * BLOCK + 7  # just past 32 blocks of 4 BLOCK
        seen = self.lengths(n)
        assert max(seen) == 4 * BLOCK
        assert len(seen) == 2 * 16 + 1 and sum(seen) == n
