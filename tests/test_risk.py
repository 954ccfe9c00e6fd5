"""Risk measures: frozen values, coherence/equivariance, MC agreement,
empirical estimators, and report serialization."""

import gc
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.integrate import quad

from arctangr import (
    P_STAR,
    ArctanGRParams,
    DataError,
    DomainError,
    GaussianParams,
    LossDataset,
    RayleighParams,
    RiskReport,
    RiskRow,
    agr_moment,
    agr_pdf,
    agr_quantile,
    agr_survival,
    empirical_risk,
    empirical_risk_curve,
    mc_oracle,
    risk_curve,
    tv,
    tvar,
    var,
)
from arctangr import distributions, risk, tail
from arctangr.cli import DEFAULT_RISK_ALPHAS
from arctangr.cli import main as cli_main
from arctangr.distributions import _z_quantile, _z_tail_quantile
from arctangr.plotdata import RISK_ALPHAS
from arctangr.risk import _DRAW_BLOCK
from arctangr.tail import (
    _CACHED_LEVELS,
    _binomial_row,
    _standard_tail,
    _tail_moments,
    _z_level,
    _z_moment,
)
from tail_oracle import tail_moments as array_tail_moments

# frozen oracle values for omega=0.02, psi=0.005 (40-digit evaluation)
VAR_609 = 0.02018810940062634
VAR_990 = 0.037341215990346635
TVAR_609 = 0.024627778260  # mpmath tail integral
TV_609 = 2.2013413027e-05


class TestVar:
    def test_frozen_and_published_values(self, table_params):
        assert var(table_params, 0.609) == pytest.approx(VAR_609, abs=1e-15)
        assert var(table_params, 0.990) == pytest.approx(VAR_990, abs=1e-15)
        # published grid endpoints round-trip within their print precision
        assert var(table_params, 0.609) == pytest.approx(0.020187, abs=2e-6)
        assert var(table_params, 0.990) == pytest.approx(0.037341, abs=1e-6)

    def test_published_row_alpha_is_rounded_display(self, table_params):
        # the reference row printed as alpha=0.936 was generated at index 6
        # of linspace(0.609, 0.990, 8); at the exact printed alpha the value
        # differs by 3.3e-5
        generating = 0.609 + 6 * (0.990 - 0.609) / 7
        assert var(table_params, generating) == pytest.approx(0.028229, abs=2e-6)
        assert var(table_params, 0.936) == pytest.approx(0.02826191463541208, abs=1e-15)

    def test_equals_quantile_on_both_branches(self, table_params):
        for alpha in (0.55, 0.58, P_STAR, 0.7, 0.95, 0.999):
            assert var(table_params, alpha) == agr_quantile(table_params, alpha)

    def test_branch_meeting_point(self, table_params):
        assert var(table_params, P_STAR) == pytest.approx(
            table_params.omega, abs=1e-14 * table_params.psi
        )

    @pytest.mark.parametrize("alpha", [math.nextafter(P_STAR, 0.0), P_STAR,
                                       math.nextafter(P_STAR, 1.0), 0.5 + 1e-7, 1.0 - 1e-13])
    @pytest.mark.parametrize("omega, psi", [(0.02, 0.005), (0.0, 1.0), (-3e8, 1e-3), (1e8, 1.0)])
    def test_reads_the_cached_standard_quantile(self, alpha, omega, psi):
        # omega + psi z_a with z_a from _standard_tail: the bits of the float
        # quantile, computed once per grid
        params = ArctanGRParams(omega, psi)
        _standard_tail.cache_clear()
        want = omega + psi * _z_level(alpha)
        assert var(params, alpha).hex() == want.hex()
        assert var(params, alpha).hex() == want.hex()
        assert _standard_tail.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_overflow_names_var(self):
        with pytest.raises(DomainError, match=r"^VaR at alpha=0\.99 is not a finite double$"):
            var(ArctanGRParams(1e308, 1e308), 0.99)

    def test_domain(self, table_params):
        for bad in (0.5, 1.0, 0.2, 1.5, float("nan")):
            with pytest.raises(DomainError):
                var(table_params, bad)
        with pytest.raises(DomainError):
            tvar(table_params, 0.5)
        with pytest.raises(DomainError):
            tv(table_params, 1.0)


class TestTailMeasures:
    def test_frozen_values(self, table_params):
        assert tvar(table_params, 0.609) == pytest.approx(TVAR_609, abs=1e-9)
        assert tv(table_params, 0.609) == pytest.approx(TV_609, abs=1e-12)

    def test_tvar_exceeds_var_and_monotone(self, table_params):
        alphas = np.linspace(0.52, 0.995, 50)
        vars_ = [var(table_params, a) for a in alphas]
        tvars = [tvar(table_params, a) for a in alphas]
        assert all(t > v for v, t in zip(vars_, tvars))
        assert all(b > a for a, b in zip(vars_, vars_[1:]))
        assert all(b > a for a, b in zip(tvars, tvars[1:]))

    def test_tv_nonnegative_on_grid(self):
        for params in (ArctanGRParams(0.0, 1.0), ArctanGRParams(-4.0, 0.3),
                       ArctanGRParams(1e3, 10.0)):
            for alpha in (0.51, 0.58, P_STAR, 0.8, 0.99):
                assert tv(params, alpha) >= 0.0

    def test_translation_equivariance_exact(self):
        base = ArctanGRParams(0.0, 0.25)
        for c in (3.0, -11.5, 0.625):
            shifted = ArctanGRParams(c, 0.25)
            for alpha in (0.55, 0.8, 0.99):
                assert var(shifted, alpha) == var(base, alpha) + c
                assert tvar(shifted, alpha) == pytest.approx(tvar(base, alpha) + c, abs=1e-12)

    def test_scale_equivariance_exact_for_pow2_factors(self):
        base = ArctanGRParams(0.0, 0.25)
        for k in (0.5, 2.0, 4.0):
            scaled = ArctanGRParams(0.0, k * 0.25)
            for alpha in (0.55, 0.8, 0.99):
                assert var(scaled, alpha) == k * var(base, alpha)

    def test_x_space_integral_agrees(self, table_params):
        # independent oracle: integrate x * pdf in x-space above the threshold
        from scipy.integrate import quad

        from arctangr import agr_pdf

        alpha = 0.827
        threshold = var(table_params, alpha)
        hi = table_params.omega + 60 * table_params.psi
        val, _ = quad(lambda x: x * agr_pdf(table_params, x), threshold, hi,
                      epsabs=1e-14, epsrel=1e-11, limit=200)
        assert tvar(table_params, alpha) == pytest.approx(val / (1 - alpha), rel=1e-9)

    def test_large_location_to_scale_ratio(self):
        # computed in x, TV cancelled (E[X^2] - E[X]^2) and so did the raw
        # moments' distribution-dependent part; on z both are exact
        unit = ArctanGRParams(0.0, 1.0)
        assert tv(ArctanGRParams(1e8, 1.0), 0.99) == tv(unit, 0.99)
        psi = 0.37
        far = ArctanGRParams(1e6 * psi, psi)
        for alpha in (0.55, 0.9, 0.999):
            assert tv(far, alpha) == pytest.approx(psi**2 * tv(unit, alpha), rel=1e-12)
        pieces = ((-np.inf, 0.0), (0.0, np.inf))
        ez = [sum(quad(lambda z: z**k * agr_pdf(unit, z), lo, hi, epsabs=0, epsrel=1e-13)[0]
                  for lo, hi in pieces) for k in range(5)]
        for r in (1, 2, 3, 4):
            terms = [math.comb(r, k) * far.omega ** (r - k) * psi**k * ez[k] for k in range(r + 1)]
            spread = sum(abs(t) for t in terms[1:])  # the distribution-dependent part
            assert abs(agr_moment(far, r) - sum(terms)) <= 1e-8 * spread


# standard (omega=0, psi=1) values the equivariance property compares against
_ALPHAS = (0.51, 0.58, P_STAR, 0.75, 0.9, 0.99, 0.9999)
_UNIT = ArctanGRParams(0.0, 1.0)
_STANDARD = {a: (var(_UNIT, a), tvar(_UNIT, a), tv(_UNIT, a)) for a in _ALPHAS}


@settings(max_examples=60, deadline=None)
@given(
    ratio=st.floats(-1e12, 1e12),
    psi=st.floats(1e-3, 1e3),
    alpha=st.sampled_from(_ALPHAS),
)
def test_shift_and_scale_equivariance(ratio, psi, alpha):
    params = ArctanGRParams(ratio * psi, psi)
    omega = params.omega
    z, m, v = _STANDARD[alpha]
    assert tv(params, alpha) / psi**2 == pytest.approx(v, rel=1e-12)
    for got, std in ((var(params, alpha), z), (tvar(params, alpha), m)):
        assert abs(got - (omega + psi * std)) <= 1e-12 * (abs(omega) + psi * (1 + abs(std)))


def _adaptive_tail_moments(alpha):
    """``(m, v)`` by adaptive quadrature in ``s``, ``p = 1 - e^{-s}``, split at
    ``S_STAR``, where the quantile switches branches."""
    S_STAR = -math.log(1.0 - P_STAR)
    s0 = -math.log1p(-alpha)
    pieces = [(s0, S_STAR), (S_STAR, np.inf)] if s0 < S_STAR else [(s0, np.inf)]

    def average(fn):
        def integrand(s):
            q = math.exp(-s)
            if q == 0.0:
                return 0.0
            z = _z_tail_quantile(q) if s >= S_STAR else _z_quantile(1.0 - q)
            return fn(float(z)) * q

        return sum(quad(integrand, a, b, epsabs=1e-14, epsrel=1e-10, limit=200)[0]
                   for a, b in pieces) / (1.0 - alpha)

    m = average(lambda z: z)
    return m, average(lambda z: (z - m) ** 2)


class TestFixedRule:
    LEVELS = sorted({*np.linspace(0.5 + 1e-9, 0.9999, 40).tolist(), 0.5 + 1e-9,
                     P_STAR - 1e-6, P_STAR, P_STAR + 1e-6, 0.609, 0.9999})

    def test_matches_adaptive_quadrature(self):
        assert len(self.LEVELS) >= 40
        _, ms, vs = _tail_moments(self.LEVELS)
        for alpha, m, v in zip(self.LEVELS, ms, vs):
            want_m, want_v = _adaptive_tail_moments(alpha)
            assert abs(m - want_m) <= 1e-13 * (1.0 + abs(want_m)), alpha
            assert abs(v - want_v) <= 1e-12 * want_v, alpha

    def test_curve_rows_equal_single_levels(self, table_params):
        report = risk_curve(table_params, self.LEVELS)
        for row in report.rows:
            assert row.var == var(table_params, row.alpha)
            assert row.tvar == tvar(table_params, row.alpha)
            assert row.tv == tv(table_params, row.alpha)


def _mp_tail_moments(z_a):
    """``(m, v)`` beyond the double ``z_a``: 25-digit mpmath quadrature in ``z``
    of the closed-form density, split at 0 or at ``z_a + 1`` and ``z_a + 10``."""
    with mpmath.workdps(25):
        za = mpmath.mpf(z_a)

        def shape(z):  # the density times pi/2; the constant cancels
            e = mpmath.exp(-abs(z))
            return e / (1 + (1 - e / 2) ** 2) if z >= 0 else 4 * e / (4 + e * e)

        pts = [za, 0, mpmath.inf] if za < 0 else [za, za + 1, za + 10, mpmath.inf]
        p0, p1, p2 = (mpmath.quad(lambda z: (z - za) ** k * shape(z), pts) for k in range(3))
        r = p1 / p0
        return za + r, p2 / p0 - r * r


def _backward_ulps(z, alpha):
    """``|G(z) - alpha|`` in ulps of ``alpha``, ``G`` the standard CDF at 40 digits."""
    with mpmath.workdps(40):
        e = mpmath.exp(-abs(mpmath.mpf(z)))
        g = 4 / mpmath.pi * mpmath.atan(1 - e / 2 if z >= 0 else e / 2)
        return float(abs(g - alpha)) / math.ulp(alpha)


class TestSeriesAgainstMpmath:
    LEVELS = sorted({*np.linspace(0.5 + 1e-7, 0.9999, 30).tolist(),
                     *(1.0 - 10.0 ** -np.arange(5, 14)).tolist(),
                     P_STAR - 1e-9, P_STAR, P_STAR + 1e-9})
    #: ``z_a`` has a root at ``P_STAR``, so its error is stated backward:
    #: ``|G(z_a) - alpha|`` in ulps of ``alpha``.  Over ~4,000 levels from
    #: 0.5 + 1 ulp to 1 - 1 ulp, the float ``z_a`` and numpy's array quantile
    #: both reached 1.11 ulp.
    Z_BACKWARD_ULPS = 2.0
    #: The float series against numpy's array form of it (``tail_oracle``):
    #: over 120,000 uniform levels, 51,886 ``m`` and 76,094 ``v`` differed, by
    #: at most 6 and 7 ulps, where ``math`` and numpy round ``exp``/``tan``/``log``
    #: apart and numpy sums in its pairwise order.
    ARRAY_ULPS = 8.0

    def test_m_and_v_to_a_few_ulps(self):
        assert len(self.LEVELS) >= 40 and self.LEVELS[-1] == 1.0 - 1e-13
        zs, ms, vs = _tail_moments(self.LEVELS)
        for alpha, z, m, v in zip(self.LEVELS, zs, ms, vs):
            want_m, want_v = _mp_tail_moments(z)
            assert abs(m - want_m) <= 4e-16 * (1 + abs(want_m)), alpha
            assert abs(v - want_v) <= 1e-15 * want_v, alpha

    @pytest.mark.parametrize("levels", [
        LEVELS,
        [math.nextafter(0.5, 1.0), math.nextafter(P_STAR, 0.0), math.nextafter(P_STAR, 1.0),
         math.nextafter(1.0, 0.0)],
        (1.0 - 10.0 ** -np.random.default_rng(25).uniform(1.0, 15.0, 200)).tolist(),
        np.random.default_rng(26).uniform(0.5, 1.0, 300).tolist(),
    ])
    def test_z_against_the_array_quantile(self, levels):
        zs = _tail_moments(levels)[0]
        for alpha, z, want in zip(levels, zs, _z_quantile(np.array(levels)).tolist()):
            assert _backward_ulps(z, alpha) <= self.Z_BACKWARD_ULPS, alpha
            assert _backward_ulps(want, alpha) <= self.Z_BACKWARD_ULPS, alpha

    def test_m_and_v_against_the_array_series(self):
        levels = sorted({*self.LEVELS, *RISK_ALPHAS, *DEFAULT_RISK_ALPHAS,
                         *(0.5 + 0.5 * np.random.default_rng(27).random(2000)).tolist()})
        for alpha, m, v, want_m, want_v in zip(levels, *_tail_moments(levels)[1:],
                                               *array_tail_moments(levels)[1:]):
            assert abs(m - want_m) <= self.ARRAY_ULPS * math.ulp(want_m), alpha
            assert abs(v - want_v) <= self.ARRAY_ULPS * math.ulp(want_v), alpha

    def test_curve_var_equals_scalar_var(self, table_params):
        levels = np.linspace(0.5, 1.0 - 1e-12, 2003)[1:-1]
        report = risk_curve(table_params, levels)
        assert [row.var for row in report.rows] == [var(table_params, a) for a in levels]


def _mp_shape(s):
    """``pi g(s)``, the closed-form standard density times pi, in mpmath."""
    e = mpmath.exp(-abs(s))
    return 2 * e / (1 + (1 - e / 2) ** 2) if s >= 0 else 8 * e / (4 + e * e)


class TestRemainderBound:
    """The terms that each sum leaves out add up to at most ``REMAINDER_BOUND``
    of the sum: the exact remainder is a 40-digit quadrature of the density
    less the kept terms, also in 40 digits."""

    B = tail.REMAINDER_BOUND

    def test_the_bound_is_the_reported_one(self, table_params):
        assert self.B == 2.0**-60
        assert risk_curve(table_params, [0.9]).method["relative_remainder"] == self.B

    @pytest.mark.parametrize("lo", [0.0, 0.25, 1.0, 2.5, 5.0, 10.0, 20.0, 30.0, 40.0,
                                    41.3, 45.0])
    def test_count_is_the_first_below_the_bound(self, lo):
        n = len(tail._upper_terms(lo))
        with mpmath.workdps(40):
            rho = mpmath.exp(-mpmath.mpf(lo)) / mpmath.sqrt(8)
            assert 2 * rho**n < self.B
            assert n == 1 or 2 * rho ** (n - 1) >= self.B * (1 - mpmath.mpf(2) ** -40)
        assert len(tail._LOWER_TERMS) == 31
        assert 4 / 3 * 4.0**-31 <= self.B < 4 / 3 * 4.0**-30

    @staticmethod
    def _factors(n, d):
        """The factors of the term ``n`` in ``P_0``, ``P_1`` and ``P_2`` above ``lo``
        at ``z = lo - d``: ``1``, ``u`` and ``u^2 + 1/n^2``, ``u = d + 1/n``."""
        u = d + mpmath.mpf(1) / n
        return 1, u, u * u + mpmath.mpf(1) / (n * n)

    @pytest.mark.parametrize("lo, d", [
        (0.0, 0.0), (0.0, 1e-9), (0.0, 0.1), (0.0, 0.19), (0.5, 0.0), (2.0, 0.0),
        (8.0, 0.0), (20.0, 0.0), (40.0, 0.0), (41.3, 0.0), (50.0, 0.0)])
    def test_upper_sums(self, lo, d):
        ns = range(1, len(tail._upper_terms(lo)) + 1)
        with mpmath.workdps(40):
            lo_, d_ = mpmath.mpf(lo), mpmath.mpf(d)
            z = lo_ - d_
            w = mpmath.mpc(0.25, 0.25) * mpmath.exp(-lo_)
            kept = [4 * mpmath.im(w**n) / n for n in ns]
            for k in range(3):
                exact = mpmath.quad(lambda s: (s - z) ** k * _mp_shape(s),
                                    [lo_, lo_ + 1, lo_ + 10, mpmath.inf])
                head = sum(c * self._factors(n, d_)[k] for n, c in zip(ns, kept))
                assert abs(exact - head) <= self.B * exact, (lo, d, k)

    @pytest.mark.parametrize("d", [1e-9, 1e-3, 0.05, 0.1, 0.19,
                                   -_z_level(math.nextafter(0.5, 1.0))])
    def test_lower_sums(self, d):
        # the largest d, at alpha -> 1/2, is 0.18823
        with mpmath.workdps(40):
            d_ = mpmath.mpf(d)
            sums = [0, 0, 0]
            for n, c in tail._LOWER_TERMS:
                x = n * d_
                e = -mpmath.expm1(-x)
                for k, t in enumerate((e / n, (x - e) / n**2, (x * (x - 2) + 2 * e) / n**3)):
                    sums[k] += c * t
            for k in range(3):
                exact = mpmath.quad(lambda s: (s + d_) ** k * _mp_shape(s), [-d_, 0])
                assert abs(exact - sums[k]) <= self.B * exact, (d, k)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 8])
    def test_raw_moment_parts(self, k):
        with mpmath.workdps(40):
            # |E[Z^k]|'s part on each side of 0: the lower part's sign is (-1)^k
            for terms, (a, b) in ((tail._LOWER_TERMS, (-mpmath.inf, 0)),
                                  (enumerate(tail._upper_terms(0.0), 1), (0, mpmath.inf))):
                exact = mpmath.quad(lambda s: abs(s) ** k * _mp_shape(s), [a, b])
                head = sum(c * mpmath.mpf(n) ** -(k + 1) for n, c in terms) * mpmath.factorial(k)
                assert abs(exact - head) <= self.B * exact, (k, a)


def _tail_moments_both_branches(alphas):
    """The float tail-moment series with its lower-branch sums taken at every
    level, the oracle for :func:`_tail_moments`, which takes them only at
    ``z_a < 0``: at ``z_a >= 0`` they are sums of +0.0 terms."""
    zs, ms, vs = [], [], []
    for z in map(_z_level, alphas):
        lo = z if z >= 0.0 else 0.0
        d = lo - z
        cs = tail._upper_terms(lo)
        ns = range(1, len(cs) + 1)
        w = [c / n for c, n in zip(cs, ns)]
        u = [d + 1.0 / n for n in ns]
        s0, s1, s2 = tail._lower_sums(d)
        p0 = math.fsum(w) + s0
        r = (math.fsum([a * b for a, b in zip(w, u)]) + s1) / p0
        c = [b - r for b in u]
        p2 = math.fsum([a * (t * t + 1.0 / (n * n)) for a, t, n in zip(w, c, ns)])
        zs.append(z)
        ms.append(z + r)
        vs.append((p2 + s2 - r * (2.0 * s1 - r * s0)) / p0)
    return tuple(zs), tuple(ms), tuple(vs)


class TestLowerBranchSkip:
    @pytest.mark.parametrize("levels", [
        RISK_ALPHAS,
        DEFAULT_RISK_ALPHAS,
        0.5 + 0.5 * np.random.default_rng(2001).random(2001),
        [0.5 + 1e-7, 0.5903345],
        [P_STAR - 1e-9, P_STAR, P_STAR + 1e-9],
        [P_STAR + 1e-9, 0.9, 1.0 - 1e-13],
    ])
    def test_bit_identical_to_both_branches(self, levels):
        levels = list(levels)
        for got, want in zip(_tail_moments(levels), _tail_moments_both_branches(levels)):
            assert np.array(got).tobytes() == np.array(want).tobytes()


def _measures(params, levels, r):
    return (risk_curve(params, levels).rows, tvar(params, levels[0]), tv(params, levels[-1]),
            agr_moment(params, r))


class TestStandardCaches:
    """The parameter-free layers are computed once and kept: the standard tail
    per grid of levels (:func:`_standard_tail`) and ``E[Z^k]`` per order."""

    @settings(max_examples=60, deadline=None)
    @given(
        ratio=st.floats(-1e8, 1e8),
        psi=st.floats(1e-6, 1e6),
        levels=st.lists(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=50),
        r=st.integers(1, 12),
    )
    def test_bit_identical_to_uncached(self, ratio, psi, levels, r):
        params = ArctanGRParams(ratio * psi, psi)
        warm = [repr(_measures(params, levels, r)) for _ in range(2)]
        with mock.patch.object(risk, "_standard_tail", _tail_moments), \
                mock.patch.object(tail, "_binomial_row", _binomial_row.__wrapped__), \
                mock.patch.object(tail, "_z_moment", _z_moment.__wrapped__):
            cold = repr(_measures(params, levels, r))
        assert warm == [cold, cold]

    def test_arrays_are_read_only(self):
        for col in _standard_tail((0.6, 0.9)):
            assert type(col) is tuple and all(type(v) is float for v in col)
            with pytest.raises(TypeError, match="does not support item assignment"):
                col[0] = 0.0

    def test_one_tail_series_per_grid(self):
        _standard_tail.cache_clear()
        with mock.patch.object(tail, "_tail_moments", wraps=_tail_moments) as series:
            for i in range(21):
                risk_curve(ArctanGRParams(0.5 * i - 5.0, 2.0**i), RISK_ALPHAS)
        assert series.call_count == 1

    def test_one_moment_series_per_order(self):
        # each order's row holds its E[Z^k], so the series is read once per
        # row built, and the row once per call
        _z_moment.cache_clear()
        _binomial_row.cache_clear()
        for i in range(21):
            params = ArctanGRParams(10.0**i - 1.0, 1e-3 * 2.0**i)
            for r in (1, 2, 3, 4):
                agr_moment(params, r)
        assert _z_moment.cache_info().misses == 4
        info = _binomial_row.cache_info()
        assert (info.misses, info.hits) == (4, 21 * 4 - 4)

    def test_overflow_raises_on_a_cache_hit(self):
        _standard_tail.cache_clear()
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^VaR at alpha=0\.99 is not a finite double"):
                risk_curve(ArctanGRParams(1e308, 1e308), [0.99])
        assert _standard_tail.cache_info().hits == 1

    def test_long_grids_are_not_kept(self):
        # a kept grid would hold its three tuples until 64 newer grids pushed
        # it out: ~600 kB for these 4,000 levels (traced, the float series
        # costs ~0.6 ms a level, so 1e5 levels would take a minute)
        _standard_tail.cache_clear()
        levels = np.linspace(0.5, 1.0, 4_002)[1:-1]
        tracemalloc.start()
        try:
            report = risk_curve(ArctanGRParams(0.0, 1.0), levels)
            assert len(report.rows) == levels.size
            del report
            # a full collection empties CPython's free lists, whose freed
            # tuples and floats tracemalloc would count as kept
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 100_000
        assert _standard_tail.cache_info().currsize == 0

    def test_kept_and_unkept_grids_agree(self):
        levels = sorted(np.random.default_rng(3).uniform(0.5, 1.0, _CACHED_LEVELS + 1))
        params = ArctanGRParams(0.3, 2.0)
        _standard_tail.cache_clear()
        unkept = risk_curve(params, levels).rows
        assert _standard_tail.cache_info().currsize == 0
        kept = risk_curve(params, levels[:-1]).rows + risk_curve(params, levels[-1:]).rows
        assert _standard_tail.cache_info().currsize == 2
        assert repr(unkept) == repr(kept)

    @pytest.mark.parametrize("bad", [math.nan, 0.5, 1.0])
    def test_invalid_levels_rejected_on_every_call(self, table_params, bad):
        _standard_tail.cache_clear()
        for _ in range(2):
            for measure in (tvar, tv):
                with pytest.raises(DomainError, match="confidence level"):
                    measure(table_params, bad)
            with pytest.raises(DomainError, match="confidence level"):
                risk_curve(table_params, [0.9, bad])
        assert _standard_tail.cache_info().currsize == 0


class TestNonFiniteMeasures:
    def test_overflow_names_measure_and_level(self):
        huge = ArctanGRParams(1e308, 1e308)
        with pytest.raises(DomainError, match=r"^VaR at alpha=0\.99 is not a finite double"):
            risk_curve(huge, [0.6, 0.99])
        with pytest.raises(DomainError, match=r"^VaR at alpha=0\.99 is not a finite double$"):
            var(huge, 0.99)
        with pytest.raises(DomainError, match=r"^VaR at alpha=0\.99 is not a finite double$"):
            mc_oracle(huge, 0.99, 1000, seed=1)
        with pytest.raises(DomainError, match=r"^TVaR at alpha=0\.6 is not a finite double"):
            tvar(huge, 0.6)
        wide = ArctanGRParams(0.0, 1e200)
        with pytest.raises(DomainError, match=r"^TV at alpha=0\.9 is not a finite double"):
            tv(wide, 0.9)
        with pytest.raises(DomainError, match=r"^TV at alpha=0\.9 "):
            risk_curve(wide, [0.9])
        # only the measure asked for has to be representable
        assert tvar(wide, 0.9) == 1e200 * tvar(_UNIT, 0.9)

    def test_nan_level_message_is_plain(self, table_params):
        with pytest.raises(DomainError, match=r"got nan$"):
            risk_curve(table_params, [np.float64("nan")])


class TestMcOracle:
    def test_deterministic(self, table_params):
        a = mc_oracle(table_params, 0.8, 10**5, seed=5)
        b = mc_oracle(table_params, 0.8, 10**5, seed=5)
        assert a == b
        assert a != mc_oracle(table_params, 0.8, 10**5, seed=6)

    def test_scale_whose_tv_is_finite(self):
        # tv here is 1.5e307; the per-draw squares and fourth powers overflow
        # unscaled.  The fit of 1e154, -1e154, 3, 4, 5 gives this psi (risk
        # --mc-samples).  The passes run at a power-of-two scale, so the result
        # is that of the parameters over 2^512, mapped back exactly
        params = ArctanGRParams(5.0, 4.07865e153)
        assert math.isfinite(tv(params, 0.75))
        res = mc_oracle(params, 0.75, 2000, seed=0)
        assert math.isfinite(res.tv)
        small = mc_oracle(ArctanGRParams(math.ldexp(5.0, -512), math.ldexp(params.psi, -512)),
                          0.75, 2000, seed=0)
        assert res == (math.ldexp(small.tvar, 512), math.ldexp(small.tv, 1024),
                       math.ldexp(small.tvar_se, 512), math.ldexp(small.tv_se, 1024),
                       small.exceedances, small.n)

    def test_results_beyond_the_double_range(self):
        # TV scales like psi^2: at psi = 1e300 it is no finite double
        with pytest.raises(DomainError, match="Monte Carlo TVaR/TV at alpha=0.9 is not"):
            mc_oracle(ArctanGRParams(0.0, 1e300), 0.9, 2000, seed=0)

    def test_exceedance_fraction_binomial(self, table_params):
        n = 10**6
        for alpha in (0.609, 0.9):
            res = mc_oracle(table_params, alpha, n, seed=11)
            se = math.sqrt(alpha * (1 - alpha) / n)
            assert abs(res.exceedances / n - (1 - alpha)) < 3 * se

    @pytest.mark.parametrize("params,alpha", [
        (ArctanGRParams(0.02, 0.005), 0.609),
        (ArctanGRParams(0.0, 1.0), 0.9),
    ])
    def test_brackets_quadrature(self, params, alpha):
        res = mc_oracle(params, alpha, 10**6, seed=21)
        assert abs(res.tvar - tvar(params, alpha)) < 3 * res.tvar_se
        assert abs(res.tv - tv(params, alpha)) < 3 * res.tv_se

    def test_rejects_nonpositive_n(self, table_params):
        for n in (0, -1, 2.0):
            with pytest.raises(DomainError, match="n must be a positive integer"):
                mc_oracle(table_params, 0.8, n, seed=3)

    def test_n_is_bounded_by_the_binomial_draw(self, table_params):
        # rng.binomial takes an int64 count; one more is refused, not overflowed
        with pytest.raises(DomainError, match=r"^n must be at most 2\*\*63 - 1, got 9223372036854775808$"):
            mc_oracle(table_params, 0.9, 2**63, seed=0)
        # the largest n at the largest level: ~1000 exceedances
        res = mc_oracle(table_params, 1.0 - 2.0**-53, np.int64(2**63 - 1), seed=0)
        assert res.n == 2**63 - 1 and 900 < res.exceedances < 1150


_MC_LEVELS = [0.5 + 1e-12, 0.55, P_STAR - 1e-12, math.nextafter(P_STAR, 0.0), P_STAR,
              math.nextafter(P_STAR, 1.0), P_STAR + 1e-12, 0.9, 0.99, 1.0 - 1e-9]


def _mapped_draws(params, alpha, n, seed):
    """``mc_oracle``'s result and every value it mapped to ``x``, in order."""
    seen = []
    from_z = distributions._from_z

    def recording(unit, z):
        x = from_z(unit, z)
        seen.append(x.copy())
        return x

    # mc_oracle imports _from_z from distributions when it is called
    with mock.patch.object(distributions, "_from_z", recording):
        res = mc_oracle(params, alpha, n, seed)
    return res, np.concatenate(seen) if seen else np.empty(0)


class TestMcExceedances:
    """``mc_oracle`` draws the exceedance count, Binomial(n, 1 - alpha), and
    then only that many values from the tail beyond VaR; a different stream
    from mapping every draw, so its law is checked, not its bits."""

    @pytest.mark.parametrize("alpha", [0.6, 0.9, 0.99])
    def test_count_is_the_generators_binomial_draw(self, table_params, alpha):
        for seed in range(20):
            res, x = _mapped_draws(table_params, alpha, 10**5, seed)
            k = np.random.default_rng(seed).binomial(10**5, 1.0 - alpha)
            assert x.size == k
            assert res.exceedances == np.count_nonzero(x > var(table_params, alpha))
            assert k - res.exceedances <= 1

    @pytest.mark.parametrize("alpha", [0.609, 0.95])
    def test_counts_over_seeds_are_binomial(self, table_params, alpha):
        n, p = 20_000, 1.0 - alpha
        counts = np.array([mc_oracle(table_params, alpha, n, seed).exceedances
                           for seed in range(400)])
        mean, sd = n * p, math.sqrt(n * p * alpha)
        assert abs(counts.mean() - mean) < 4.0 * sd / math.sqrt(counts.size)
        # the sample variance of 400 counts is within ~0.07 of 1 relative
        assert 0.75 < counts.var(ddof=1) / sd**2 < 1.3

    @pytest.mark.parametrize("params,alpha", [
        (ArctanGRParams(0.02, 0.005), 0.55),
        (ArctanGRParams(0.0, 0.75), P_STAR),
        (ArctanGRParams(-3.0, 0.5), 0.9),
        (ArctanGRParams(0.02, 0.005), 1.0 - 1e-9),
    ])
    def test_draws_follow_the_tail_law(self, params, alpha):
        # S(x) / (1 - alpha), the tail's survival, is uniform on (0, 1) over
        # the exceedances; psi < 1, so the values are mapped at scale 1
        _, x = _mapped_draws(params, alpha, round(40_000 / (1.0 - alpha)), 8)
        u = agr_survival(params, x) / (1.0 - alpha)
        assert 39_000 < u.size < 41_000 and np.all(u <= 1.0 + 1e-6)
        assert scipy_stats.kstest(u, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("alpha", [0.6, 0.95])
    def test_standard_errors_are_calibrated(self, table_params, alpha):
        z_tvar, z_tv = [], []
        for seed in range(250):
            res = mc_oracle(table_params, alpha, 50_000, seed)
            z_tvar.append((res.tvar - tvar(table_params, alpha)) / res.tvar_se)
            z_tv.append((res.tv - tv(table_params, alpha)) / res.tv_se)
        for z in (np.array(z_tvar), np.array(z_tv)):
            # the mean of 250 z-scores has SE 0.063; the SE of TV is itself
            # estimated from a fourth moment, so its SD is allowed more room
            assert abs(z.mean()) < 0.25
            assert 0.8 < z.std() < 1.25

    def test_same_seed_same_result(self, table_params):
        a = mc_oracle(table_params, 0.95, 10**5, seed=7)
        assert mc_oracle(table_params, 0.95, 10**5, seed=7) == a
        assert mc_oracle(table_params, 0.95, 10**5, np.random.SeedSequence(7)) == a
        child = np.random.SeedSequence(7).spawn(2)[1]
        b = mc_oracle(table_params, 0.95, 10**5, child)
        assert b != a
        assert mc_oracle(table_params, 0.95, 10**5, np.random.SeedSequence(7).spawn(2)[1]) == b
        assert mc_oracle(table_params, 0.95, 10**5, child) == b

    @pytest.mark.parametrize("alpha", _MC_LEVELS)
    def test_levels_around_p_star(self, alpha):
        # below P_STAR the draws take the general quantile at 1 - q, from it
        # the tail quantile at q; both sides agree with the series
        params = ArctanGRParams(-3.0, 0.5)
        res, x = _mapped_draws(params, alpha, round(50_000 / (1.0 - alpha)), 5)
        assert np.all(np.isfinite(x))
        assert res.exceedances == np.count_nonzero(x > var(params, alpha))
        assert abs(res.tvar - tvar(params, alpha)) < 4.0 * res.tvar_se
        assert abs(res.tv - tv(params, alpha)) < 4.0 * res.tv_se

    def test_far_tail_at_huge_n(self, table_params):
        alpha = 1.0 - 1e-13
        res = mc_oracle(table_params, alpha, 10**16, seed=5)
        assert res.n == 10**16 and 800 < res.exceedances < 1200
        assert abs(res.tvar - tvar(table_params, alpha)) < 3.0 * res.tvar_se
        assert abs(res.tv - tv(table_params, alpha)) < 3.0 * res.tv_se

    def test_memory_does_not_grow_with_n(self, table_params):
        def peak(n):
            tracemalloc.start()
            try:
                mc_oracle(table_params, 0.9, n, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mc_oracle(table_params, 0.9, 1000, seed=1)  # fills the tail caches first
        small = peak(10**6)  # ~1e5 exceedances: already several full blocks
        assert small >= _DRAW_BLOCK * 8
        assert peak(10**8) <= 1.1 * small

    def test_too_few_exceedances_message(self):
        with pytest.raises(DomainError, match=r"^only [01] of 1000 samples exceeded the VaR "
                                              r"threshold; increase n or lower alpha$"):
            mc_oracle(ArctanGRParams(0.02, 0.005), 0.99999, 1000, 17)

    def test_cli_json_rows_and_method(self, capsys):
        alphas = (0.9, 0.99)
        assert cli_main(["risk", "--omega", "0.02", "--psi", "0.005", "--alphas", "0.9,0.99",
                         "--mc-samples", "200000", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        seeds = np.random.SeedSequence(0).spawn(len(alphas))
        params = ArctanGRParams(0.02, 0.005)
        assert payload["mc_check"] == [mc_oracle(params, a, 200_000, s)._asdict()
                                       for a, s in zip(alphas, seeds)]
        assert payload["method"] == {
            "rule": "density series, termwise, cut off per level", "relative_remainder": 2.0**-60,
            "mc_check": "binomial exceedance count, then inverse-transform draws from the tail"}

    def test_cli_table_lines(self, capsys):
        alphas = (0.9, 0.99)
        assert cli_main(["risk", "--omega", "0.02", "--psi", "0.005", "--alphas", "0.9,0.99",
                         "--mc-samples", "200000"]) == 0
        out = capsys.readouterr().out
        seeds = np.random.SeedSequence(0).spawn(len(alphas))
        params = ArctanGRParams(0.02, 0.005)
        lines = ["monte carlo cross-check (n=200000):"]
        for a, s in zip(alphas, seeds):
            c = mc_oracle(params, a, 200_000, s)
            lines.append(
                f"alpha={a:.6g}: tvar_mc={c.tvar:.6g} (se {c.tvar_se:.2g}), "
                f"tv_mc={c.tv:.6g} (se {c.tv_se:.2g}), exceedances={c.exceedances}"
            )
        assert out.endswith("\n".join(lines) + "\n")


class TestRiskCurve:
    def test_rows_sorted_and_single(self, table_params):
        report = risk_curve(table_params, [0.9, 0.6, 0.75])
        assert [round(r.alpha, 6) for r in report.rows] == [0.6, 0.75, 0.9]
        single = risk_curve(table_params, 0.8)
        assert len(single.rows) == 1

    @pytest.mark.parametrize("level", ["0.9", b"0.9", " 0.9 "])
    def test_text_level_is_one_level(self, table_params, insurance, level):
        # a str was once read as a sequence of characters: "0.9" raised a bare
        # ValueError on ".", and "9" read as the level 9.0
        assert risk_curve(table_params, level) == risk_curve(table_params, [0.9])
        assert empirical_risk_curve(insurance, level) == empirical_risk_curve(insurance, [0.9])
        with pytest.raises(DomainError, match="got 9.0"):
            risk_curve(table_params, "9")

    @pytest.mark.parametrize("level", [np.array(0.9), np.float64(0.9), np.float32(0.75)],
                             ids=["0-d array", "np.float64", "np.float32"])
    def test_a_number_that_cannot_be_iterated_is_one_level(self, table_params, insurance,
                                                           level):
        assert risk_curve(table_params, level) == risk_curve(table_params, [float(level)])
        assert (empirical_risk_curve(insurance, level)
                == empirical_risk_curve(insurance, [float(level)]))

    @pytest.mark.parametrize("level", ["abc", b"0.9x", None, 0.9 + 0j])
    @pytest.mark.parametrize("fn", [var, tvar, tv, risk_curve, empirical_risk,
                                    empirical_risk_curve])
    def test_text_that_is_no_number_is_a_domain_error(self, table_params, insurance, fn, level):
        # float() of such text raised a bare ValueError, not the bad-argument
        # error, and of None or a complex a bare TypeError
        first = insurance if fn in (empirical_risk, empirical_risk_curve) else table_params
        with pytest.raises(DomainError, match="confidence level must be a number"):
            fn(first, level)

    @pytest.mark.parametrize("fn", [var, tvar, tv, risk_curve, empirical_risk,
                                    empirical_risk_curve])
    def test_integer_beyond_a_double_is_a_domain_error(self, table_params, insurance, fn):
        # float(10**400) raised a bare OverflowError
        first = insurance if fn in (empirical_risk, empirical_risk_curve) else table_params
        with pytest.raises(DomainError, match="confidence level must be a number"):
            fn(first, 10**400)

    @pytest.mark.parametrize("fn", [var, tvar, tv, empirical_risk])
    def test_a_sequence_is_no_single_level(self, table_params, insurance, fn):
        # float([0.9]) raised a bare TypeError
        first = insurance if fn is empirical_risk else table_params
        with pytest.raises(DomainError, match="confidence level must be a number"):
            fn(first, [0.9])

    @pytest.mark.parametrize("levels", [
        [10**400], [["abc"]], [[10**400]], [[0.9], ["abc"]], [[0.9, 0.95]],
        np.array([[0.9], [0.95]]), [None], [0.9 + 0j]])
    @pytest.mark.parametrize("fn", [risk_curve, empirical_risk_curve])
    def test_nested_level_that_is_no_double_is_a_domain_error(self, table_params, insurance,
                                                              fn, levels):
        # a nested sequence was read by numpy, which raised a bare ValueError,
        # OverflowError or TypeError
        first = insurance if fn is empirical_risk_curve else table_params
        with pytest.raises(DomainError, match="confidence level must be a number"):
            fn(first, levels)

    def test_invariants_validated(self):
        with pytest.raises(DomainError):
            RiskReport(rows=(RiskRow(0.8, 1.0, 0.5, 0.1),), source="model")
        with pytest.raises(DomainError):
            RiskReport(rows=(RiskRow(0.8, 1.0, 2.0, -0.1),), source="model")
        with pytest.raises(DomainError):
            RiskReport(
                rows=(RiskRow(0.9, 1.0, 2.0, 0.1), RiskRow(0.8, 1.0, 2.0, 0.1)),
                source="model",
            )
        with pytest.raises(DomainError):
            RiskReport(rows=(), source="model")

    def test_csv_layout(self, table_params):
        report = risk_curve(table_params, [0.75, 0.9])
        lines = report.to_csv().splitlines()
        assert lines[0] == "alpha,var,tvar,tv"
        assert len(lines) == 3
        assert lines[1].startswith("0.75,")

    def test_json_full_precision(self, table_params):
        report = risk_curve(table_params, [0.75])
        payload = json.loads(report.to_json())
        assert payload["rows"][0]["var"] == var(table_params, 0.75)
        assert payload["method"] == {"rule": "density series, termwise, cut off per level",
                                     "relative_remainder": 2.0**-60}

    def test_mc_check_renders_in_json_and_text_only(self, table_params):
        report = risk_curve(table_params, [0.75, 0.9])
        checks = tuple(mc_oracle(table_params, r.alpha, 5000, seed=i)
                       for i, r in enumerate(report.rows))
        checked = RiskReport(report.rows, report.source, report.method, mc_check=checks)
        payload = json.loads(checked.to_json())
        assert payload["mc_check"] == [c._asdict() for c in checks]
        assert "mc_check" not in json.loads(report.to_json())
        text = checked.to_text()
        assert text.startswith(report.to_text())
        assert "monte carlo cross-check (n=5000):" in text
        assert checked.to_csv() == report.to_csv()
        with pytest.raises(DomainError, match="one Monte Carlo result per row"):
            RiskReport(report.rows, report.source, mc_check=checks[:1])

    def test_numpy_scalar_params_are_kept_as_floats(self):
        # the source once read model(omega=np.float64(0.02), psi=np.float64(0.005))
        params = ArctanGRParams(np.float64(0.02), np.float64(0.005))
        report = risk_curve(params, [0.9])
        source = "model(omega=0.02, psi=0.005)"
        assert report.source == source
        assert json.loads(report.to_json())["source"] == source
        assert report.to_text().startswith(f"risk report ({source})\n")
        assert report == risk_curve(ArctanGRParams(0.02, 0.005), [0.9])
        for p in (params, GaussianParams(np.float32(1.5), np.int64(2)),
                  RayleighParams(np.float16(0.5)), ArctanGRParams(1, 2)):
            assert all(type(v) is float for v in vars(p).values()), p

    def test_text_has_one_line_per_row(self, table_params):
        report = risk_curve(table_params, [0.75, 0.9, 0.95])
        body = [l for l in report.to_text().splitlines() if l and not l.startswith(("risk", "-", " alpha", "     alpha"))]
        assert len(body) == 3


class TestEmpirical:
    def test_hand_computed_example(self):
        data = LossDataset(values=np.array([1.0, 2.0, 3.0, 4.0]), source="inline", name="tiny")
        row = empirical_risk(data, 0.5)
        assert row.var == 2.5
        assert row.tvar == 3.5
        assert row.tv == 0.25

    def test_constant_dataset_errors(self):
        data = LossDataset(values=np.full(6, 3.0), source="inline", name="const")
        with pytest.raises(DataError, match="2"):
            empirical_risk(data, 0.5)

    def test_single_exceedance_errors_naming_required_count(self):
        data = LossDataset(values=np.array([1.0, 1.0, 1.0, 5.0]), source="inline", name="x")
        with pytest.raises(DataError, match="at least 2"):
            empirical_risk(data, 0.9)

    def test_too_small_dataset(self):
        data = LossDataset(values=np.array([1.0]), source="inline", name="one")
        with pytest.raises(DataError):
            empirical_risk(data, 0.5)

    def test_insurance_at_95(self, insurance):
        row = empirical_risk(insurance, 0.95)
        assert row.var == pytest.approx(0.1336, abs=1e-12)
        assert row.tvar == pytest.approx(0.17633333333333334, abs=1e-12)
        assert row.tv == pytest.approx(0.001224222222222222, abs=1e-15)

    def test_quantile_convention_matches_numpy_linear(self, insurance):
        for alpha in (0.6, 0.75, 0.9):
            row = empirical_risk(insurance, alpha)
            assert row.var == float(np.quantile(insurance.values, alpha))

    def test_squares_overflow_tv_finite(self):
        # the exceedances are 99 zeros and 1e155: their squares overflow, while
        # the mean 1e153 and TV 9.9e307 are finite; exact sums as the oracle
        values = [-1.0] * 100 + [0.0] * 99 + [1e155]
        data = LossDataset(values=np.array(values), source="inline", name="w")
        row = empirical_risk(data, 0.3)
        exceed = [Fraction(v) for v in values[100:]]
        mean = sum(exceed) / len(exceed)
        tv = sum((v - mean) ** 2 for v in exceed) / len(exceed)
        assert row.var == -1.0
        assert row.tvar == pytest.approx(float(mean), rel=1e-15)
        assert row.tv == pytest.approx(float(tv), rel=1e-15)

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0, 4.0, 1e200],
                                        [-1e308, 0.0, 1.0, 2.0, 1e308]])
    def test_tv_beyond_the_double_range(self, values):
        data = LossDataset(values=np.array(values), source="inline", name="w")
        with pytest.raises(DataError, match=r"^empirical TV at alpha=0\.5 is not a finite double$"):
            empirical_risk(data, 0.5)

    def test_curve(self, insurance):
        report = empirical_risk_curve(insurance, [0.9, 0.75])
        assert report.source == "empirical:insurance"
        assert [r.alpha for r in report.rows] == [0.75, 0.9]
        assert "quantile_rank" in report.method
