"""Fitting: information criteria, closed-form MLEs against frozen values,
the score-driven AGR fit against a 27-start Nelder-Mead search and its
stopping rule, and the comparison table."""

import decimal
import json
import math
import statistics
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import arctangr.dataset as dataset_module
import arctangr.fit as fit_module
from arctangr import (
    ArctanGRParams,
    DataError,
    DomainError,
    LossDataset,
    agr_logpdf,
    agr_loglik,
    agr_quantile,
    agr_sample,
    compare_models,
    describe,
    fit_agr,
    fit_gaussian,
    fit_laplace,
    fit_rayleigh,
    information_criteria,
    plot_bundle,
)
from arctangr._fit_arrays import ArraySearch
from arctangr._util import unit_exponent
from arctangr.distributions import _z_log_shape
from arctangr.fit import MODELS
from score_oracle import pass_terms
from sum_oracle import exact_mean_var, exact_sum

# frozen values computed from the embedded insurance sample's closed forms
GAUSS_OMEGA = 0.070672413793103461
GAUSS_ETA = 0.032362381274557192
GAUSS_LL = 116.68556402045182
LAPLACE_OMEGA = 0.0635
LAPLACE_PSI = 0.019327586206896556
LAPLACE_LL = 130.67833178199416
RAYLEIGH_PSI = 0.054963232224385455
RAYLEIGH_LL = 120.37739415763846
LOGPDF_AT_LOC = -0.67472625660366459  # ln(8/(5 pi))


def mp_loglik(model, params, x):
    """The log-likelihood of a location-scale ``model`` at ``params`` over ``x``,
    in 40-digit mpmath, as a float."""
    with mpmath.workdps(40):
        omega = mpmath.mpf(params.omega)
        scale = mpmath.mpf(params.eta if model == "gaussian" else params.psi)
        total = 0
        for z in ((mpmath.mpf(v) - omega) / scale for v in x):
            if model == "gaussian":
                total += -z * z / 2 - mpmath.log(2 * mpmath.pi) / 2
            elif model == "laplace":
                total += -abs(z) - mpmath.log(2)
            else:
                w = 1 - mpmath.exp(-z) / 2 if z >= 0 else mpmath.exp(z) / 2
                total += mpmath.log(2 / mpmath.pi) - abs(z) - mpmath.log(1 + w * w)
        return float(total - len(x) * mpmath.log(scale))


class TestInformationCriteria:
    def test_exact_formulas(self):
        ll, n, r = -12.5, 20, 3
        crit = information_criteria(ll, n, r)
        assert crit.aic == -2 * ll + 2 * r
        assert crit.bic == -2 * ll + r * math.log(n)
        assert crit.caic == -2 * ll + 2 * n * r / (n - r - 1)
        assert crit.hqic == -2 * ll + 2 * r * math.log(math.log(n))

    def test_published_gaussian_row(self):
        crit = information_criteria(116.6856, 58, 2)
        assert crit.aic == pytest.approx(-229.3712, abs=1e-4)
        assert crit.caic == pytest.approx(-229.1530, abs=1e-4)
        assert crit.hqic == pytest.approx(-227.7660, abs=1e-4)
        assert crit.bic == pytest.approx(-225.2504, abs=1e-4)

    def test_published_rayleigh_row(self):
        assert information_criteria(-54.5752, 58, 1).aic == pytest.approx(111.1504, abs=1e-4)

    def test_zero_parameters(self):
        crit = information_criteria(0.0, 10, 0)
        assert crit == (0.0, 0.0, 0.0, 0.0)

    def test_caic_undefined(self):
        with pytest.raises(DomainError, match="CAIC"):
            information_criteria(1.0, 4, 3)
        with pytest.raises(DomainError):
            information_criteria(1.0, 2, 0)

    def test_strictly_decreasing_in_loglik(self):
        lls = np.linspace(-30, 30, 13)
        for name in ("aic", "bic", "caic", "hqic"):
            vals = [getattr(information_criteria(ll, 50, 2), name) for ll in lls]
            assert all(b < a for a, b in zip(vals, vals[1:]))


class TestAgrLoglik:
    def test_single_point_at_location(self):
        assert agr_loglik(ArctanGRParams(2.0, 1.0), [2.0]) == pytest.approx(
            LOGPDF_AT_LOC, abs=1e-13
        )

    def test_translation_invariance_exact_for_dyadics(self):
        data = np.array([1.5, 2.25, 2.0, 4.0])
        base = ArctanGRParams(2.0, 0.5)
        shifted = ArctanGRParams(2.0 + 8.0, 0.5)
        assert agr_loglik(base, data) == agr_loglik(shifted, data + 8.0)

    def test_translation_invariance_approx(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0.0, 1.0, 50)
        c = 0.337
        a = agr_loglik(ArctanGRParams(0.1, 0.8), data)
        b = agr_loglik(ArctanGRParams(0.1 + c, 0.8), data + c)
        assert a == pytest.approx(b, abs=1e-10)

    def test_asymmetry_between_branches(self):
        params = ArctanGRParams(0.0, 1.0)
        d = 0.7
        above = agr_loglik(params, [d])
        below = agr_loglik(params, [-d])
        assert above != pytest.approx(below, abs=1e-6)
        # pair sum equals direct pdf evaluation
        both = agr_loglik(params, [-d, d])
        assert both == pytest.approx(
            float(agr_logpdf(params, -d) + agr_logpdf(params, d)), abs=1e-12
        )

    @pytest.mark.parametrize("data", [[1.0, 1.0], [1.0, 1.0, 2.0, 3.0]])
    def test_sum_below_the_doubles_is_minus_inf(self, data):
        # each log-density at 1.0 is -1.79e308 (at 2.0 and 3.0, -inf): their
        # sum is below -DBL_MAX, where math.fsum raises OverflowError
        assert agr_loglik(ArctanGRParams(0.0, 5.6e-309), data) == -math.inf


class TestClosedFormFits:
    def test_gaussian_insurance_row(self, insurance):
        res = fit_gaussian(insurance)
        assert res.params.omega == pytest.approx(GAUSS_OMEGA, abs=1e-15)
        assert res.params.eta == pytest.approx(GAUSS_ETA, abs=1e-15)
        assert res.loglik == pytest.approx(GAUSS_LL, abs=1e-9)
        assert res.aic == pytest.approx(-229.3711, abs=1e-3)
        assert res.bic == pytest.approx(-225.2502, abs=1e-3)
        assert res.caic == pytest.approx(-229.1529, abs=1e-3)
        assert res.hqic == pytest.approx(-227.7660, abs=1e-3)

    def test_laplace_insurance(self, insurance):
        res = fit_laplace(insurance)
        assert res.params.omega == pytest.approx(LAPLACE_OMEGA, abs=1e-15)
        assert res.params.psi == pytest.approx(LAPLACE_PSI, abs=1e-15)
        assert res.loglik == pytest.approx(LAPLACE_LL, abs=1e-9)

    def test_rayleigh_insurance(self, insurance):
        res = fit_rayleigh(insurance)
        assert res.params.psi == pytest.approx(RAYLEIGH_PSI, abs=1e-15)
        assert res.loglik == pytest.approx(RAYLEIGH_LL, abs=1e-9)

    def test_rayleigh_rejects_nonpositive(self):
        with pytest.raises(DataError):
            fit_rayleigh(np.array([1.0, -0.5, 2.0]))
        with pytest.raises(DataError):
            fit_rayleigh(np.array([1.0, 0.0, 2.0]))

    def test_degenerate_guards(self):
        flat = np.ones(4)
        with pytest.raises(DataError):
            fit_gaussian(flat)
        with pytest.raises(DataError):
            fit_laplace(flat)
        with pytest.raises(DataError):
            fit_agr(flat)

    @pytest.mark.parametrize("fit, model, r", [
        (fit_gaussian, "Gaussian", 2), (fit_laplace, "Laplace", 2), (fit_rayleigh, "Rayleigh", 1)])
    def test_too_few_points_fail_before_the_fit(self, fit, model, r, monkeypatch):
        # CAIC needs n > r + 1: the fit checks first, as fit_agr does, so the
        # criteria are never reached
        def no_criteria(*args):
            raise AssertionError("the fit ran")

        x = np.array([1.0, 2.0, 4.0, 8.0])
        with monkeypatch.context() as patch:
            patch.setattr(fit_module, "information_criteria", no_criteria)
            # one point has no spread (DataError); fit_gaussian([1, 2, 4]) is here
            for n in range(2, r + 2):
                with pytest.raises(DomainError, match=(
                        f"^{model} fit needs at least {r + 2} observations, got {n}$")):
                    fit(x[:n])
        assert fit(x[:r + 2]).n == r + 2

    def test_loglik_recomputes_from_logpdf(self, insurance):
        from arctangr import gaussian_logpdf, mixture_kernel_logpdf, rayleigh_logpdf

        pairs = [
            (fit_gaussian(insurance), gaussian_logpdf),
            (fit_rayleigh(insurance), rayleigh_logpdf),
            (fit_laplace(insurance), mixture_kernel_logpdf),
        ]
        for res, logpdf in pairs:
            again = float(np.sum(logpdf(res.params, insurance.values)))
            assert res.loglik == pytest.approx(again, abs=1e-9)


class TestFitAgr:
    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            fit_agr(np.array([1.0, 2.0]))

    def test_three_points_fail_before_the_search(self, monkeypatch):
        # CAIC needs n > r + 1 = 3, so no search is run for three points
        def no_search(xs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(fit_module, "_AgrSearch", no_search)
        with pytest.raises(DomainError, match="AGR fit needs at least 4 observations, got 3"):
            fit_agr(np.array([1e-300, 2e-300, 3e-300]))

    def test_insurance_fit(self, insurance):
        res = fit_agr(insurance)
        assert res.converged
        # the search starts at the sample's P_STAR quantile, 0.066, which is
        # omega-hat: no omega step, and four psi passes there
        assert res.params.omega == 0.066
        assert (res.iterations, res.nfev) == (0, 4)
        assert res.loglik == pytest.approx(129.6191746582758, abs=1e-6)
        assert res.loglik == pytest.approx(agr_loglik(res.params, insurance), abs=1e-9)

    def test_sandwich_bound(self, insurance):
        agr = fit_agr(insurance)
        lap = fit_laplace(insurance)
        n = insurance.n
        assert lap.loglik + n * math.log(2 / math.pi) <= agr.loglik
        assert agr.loglik <= lap.loglik + n * math.log(4 / math.pi)

    def test_beats_random_perturbations(self, insurance):
        res = fit_agr(insurance)
        rng = np.random.default_rng(8)
        for _ in range(100):
            factors = 1.0 + rng.uniform(-0.1, 0.1, size=2)
            perturbed = ArctanGRParams(res.params.omega * factors[0],
                                       res.params.psi * factors[1])
            assert agr_loglik(perturbed, insurance) <= res.loglik + 1e-9

    def test_synthetic_recovery(self):
        true = ArctanGRParams(0.02, 0.005)
        sample = agr_sample(true, 10**4, seed=42)
        res = fit_agr(sample)
        assert abs(res.params.omega - true.omega) / true.omega < 0.05
        assert abs(res.params.psi - true.psi) / true.psi < 0.05

    def test_deterministic(self, insurance):
        a, b = fit_agr(insurance), fit_agr(insurance)
        assert a.params == b.params
        assert a.loglik == b.loglik


def multistart_loglik(x) -> float:
    """Oracle: the AGR log-likelihood maximum found by 27 scipy Nelder-Mead
    searches (the nine data deciles crossed with {0.5, 1, 2} x the mean
    absolute deviation from the median) and a tight polish of the best."""
    from scipy.optimize import minimize

    x = np.asarray(x, dtype=float)
    n = x.size
    med = float(np.median(x))
    scale = float(np.mean(np.abs(x - med)))

    def negloglik(theta):
        omega, psi = theta
        if not (np.isfinite(omega) and np.isfinite(psi)) or psi <= 0.0:
            return np.inf
        ll = float(np.sum(_z_log_shape((x - omega) / psi)))
        return -(ll + n * math.log(2.0 / (math.pi * psi)))

    starts = [
        minimize(negloglik, [omega0, psi0], method="Nelder-Mead",
                 options={"xatol": 1e-6 * scale, "fatol": 1e-7 * n,
                          "maxiter": 2000, "maxfev": 4000})
        for omega0 in np.quantile(x, np.linspace(0.1, 0.9, 9))
        for psi0 in (0.5 * scale, scale, 2.0 * scale)
    ]
    best = min(starts, key=lambda r: float(r.fun))
    polish = minimize(negloglik, best.x, method="Nelder-Mead",
                      options={"xatol": 1e-10 * scale,
                               "fatol": 1e-8 * (1.0 + abs(float(best.fun))),
                               "maxiter": 20000, "maxfev": 40000})
    final = polish if polish.fun <= best.fun else best
    return agr_loglik(ArctanGRParams(*final.x), x)


def assert_matches_multistart(x):
    ll = fit_agr(x).loglik
    oracle = multistart_loglik(x)
    assert ll >= oracle - 1e-9 * (1.0 + abs(oracle)), (ll, oracle)


def _family_sample(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(3.0, 2.0, n)
    if kind == "two_normals":
        return np.where(rng.random(n) < 0.3, rng.normal(-4.0, 0.5, n), rng.normal(2.0, 1.5, n))
    if kind == "cauchy":
        return 400.0 * rng.standard_cauchy(n)
    if kind == "lognormal":
        return rng.lognormal(0.0, 1.0, n)
    if kind == "cubed_exponential":
        return rng.exponential(1.0, n) ** 3
    if kind == "rounded":
        return np.round(rng.normal(0.0, 1.0, n), 1)
    return 10.0 + rng.pareto(1.5, n)  # shifted Pareto


FAMILY = st.builds(
    _family_sample,
    st.sampled_from(["normal", "two_normals", "cauchy", "lognormal",
                     "cubed_exponential", "rounded", "pareto"]),
    st.integers(5, 1000),
    st.integers(0, 2**32 - 1),
)


class TestAgainstMultistart:
    """The single-start fit reaches the 27-start search's log-likelihood."""

    def test_insurance(self, insurance):
        assert_matches_multistart(insurance.values)

    def test_fixed_datasets(self):
        rng = np.random.default_rng(2024)
        for x in (
            agr_sample(ArctanGRParams(0.02, 0.005), 10**4, seed=3),
            np.concatenate([rng.normal(0.0, 1.0, 1500), rng.normal(5.0, 1.0, 1500)]),
            rng.standard_cauchy(400),
            rng.lognormal(0.0, 1.0, 500),
        ):
            assert_matches_multistart(x)

    @settings(max_examples=20, deadline=None)
    @given(x=FAMILY)
    # omega-hat on a data point: a simplex search collapsed there before psi
    # was optimal
    @example(x=np.array([0.01539682, 1.03853065, 1.58575026, 2.31852605, 3.22760277]))
    @example(x=np.array([-2.0, -1.9, -0.9, -0.3, 0.3]))
    # the maximum lies inside a wide gap between data points: bisecting the
    # slope over [min, max] finds a lower local maximum (-19.202 against -19.114)
    @example(x=_family_sample("two_normals", 7, 2))
    # the maximum lies in the wide gap right of the median: an unbracketed
    # ascent stepped over it onto a local maximum at a data point (-19.928
    # against -19.861)
    @example(x=_family_sample("two_normals", 7, 2799830971))
    def test_family(self, x):
        assume(np.mean(np.abs(x - np.median(x))) > 0.0)
        assert_matches_multistart(x)


def score_at(x, omega, psi):
    """Independent of the fit's kernel: the psi-score ``-n - sum z L'(z)``, the
    sum of its terms' sizes, and the one-sided omega slopes ``-sum L'(z)/psi``,
    from the two branch formulas of ``L'``; a point at omega takes
    ``L'(0+) = -1.4`` on the left and ``L'(0-) = 0.6`` on the right."""
    z = (np.asarray(x, dtype=float) - omega) / psi
    e = np.exp(-np.abs(z))
    above = 1.0 - 0.5 * e
    lp = np.where(z > 0.0, -1.0 - e * above / (1.0 + above**2),
                  1.0 - 0.5 * e**2 / (1.0 + 0.25 * e**2))
    zero = z == 0.0
    lp[zero] = -1.4
    right = lp.copy()
    right[zero] = 0.6
    zlp = z * lp
    return -z.size - zlp.sum(), z.size + np.abs(zlp).sum(), -lp.sum() / psi, -right.sum() / psi


class TestStoppingRule:
    """``converged`` certifies a local maximum: the psi-score at rounding level
    and ``slope_right <= 0 <= slope_left``, each slope to its rounding level
    ``n (16 eps + ulp(omega)/psi) / psi`` (n terms below 2 in size, and one
    double step of omega).  Fits are deterministic, so the pass count is a
    repeatable measure of the search's work."""

    @settings(max_examples=30, deadline=None)
    @given(x=FAMILY)
    @example(x=_family_sample("two_normals", 7, 2))
    @example(x=np.array([0.01539682, 1.03853065, 1.58575026, 2.31852605, 3.22760277]))
    def test_returned_point_satisfies_the_rule(self, x):
        assume(np.mean(np.abs(x - np.median(x))) > 0.0)
        res = fit_agr(x)
        omega, psi = res.params.omega, res.params.psi
        score, size, left, right = score_at(x, omega, psi)
        eps = np.finfo(float).eps
        tol = x.size * (16.0 * eps + math.ulp(omega) / psi) / psi
        # 64 ulps of the score's terms' sizes, and one step of log psi, which
        # moves the score by |d score / d log psi| <= 4n
        psi_tol = 64.0 * eps * size + 4.0 * x.size * math.ulp(math.log(psi))
        assert res.converged
        # stop reports the slopes and their tolerance times psi/n
        stop, per = res.stop, psi / x.size
        assert stop["omega_slope_right"] <= tol * per and stop["omega_slope_left"] >= -tol * per
        assert abs(stop["psi_score"]) <= psi_tol
        # and the tolerances it reports are the rule's
        assert stop["slope_tol"] == tol * per
        assert abs(stop["psi_score"]) <= stop["psi_tol"] <= psi_tol
        # the reported numbers are the scores at the returned point
        assert abs(score - stop["psi_score"]) <= psi_tol
        assert abs(left * per - stop["omega_slope_left"]) <= tol * per
        assert abs(right * per - stop["omega_slope_right"]) <= tol * per
        # and the point is a local maximum of the log-likelihood itself
        ll = res.loglik
        for w, s in ((omega + 1e-6 * psi, psi), (omega - 1e-6 * psi, psi),
                     (omega, psi * (1 + 1e-6)), (omega, psi * (1 - 1e-6))):
            assert agr_loglik(ArctanGRParams(w, s), x) <= ll + 1e-9 * (1.0 + abs(ll))

    @pytest.mark.parametrize("kind", ["agr", "lognormal", "two_normals"])
    def test_score_passes_stay_few(self, kind):
        # a derivative-free search spends hundreds of evaluations on such
        # samples; the score-driven one needs 10-14 passes on these three
        n, rng = 3000, np.random.default_rng(12)
        x = {
            "agr": agr_sample(ArctanGRParams(1.0, 0.03), n, seed=12),
            "lognormal": rng.lognormal(0.0, 0.5, n),
            "two_normals": np.where(rng.random(n) < 0.7, rng.normal(0.0, 1.0, n),
                                    rng.normal(4.0, 0.5, n)),
        }[kind]
        res = fit_agr(x)
        assert res.converged
        assert res.nfev <= 150

    def test_stop_in_json(self, insurance):
        res = fit_agr(insurance)
        payload = json.loads(res.to_json())
        assert payload["stop"] == res.stop
        assert set(res.stop) == {"psi_score", "psi_tol", "omega_slope_left",
                                 "omega_slope_right", "slope_tol"}
        assert "stop" not in json.loads(fit_laplace(insurance).to_json())

    def test_converged_recomputes_from_the_json(self, insurance):
        # stop carries the tolerances, so the rule can be checked from the
        # JSON alone; a small pass budget leaves some of these fits unconverged.
        # Its slopes and tolerance, times psi/n, are O(1) at any scale: at
        # subnormal data they were infinite, which to_json, strict, rejects
        seen = set()
        for budget in (1, 3, 5, fit_module._MAX_PASSES):
            for x in [insurance.values, [1e-320, 2e-320, 3e-320, 4e-320],
                      *(_family_sample(kind, 300, seed)
                        for kind in ("lognormal", "two_normals") for seed in range(3))]:
                with mock.patch.object(fit_module, "_MAX_PASSES", budget):
                    payload = json.loads(fit_agr(x).to_json())
                stop = payload["stop"]
                rule = (abs(stop["psi_score"]) <= stop["psi_tol"]
                        and stop["omega_slope_right"] <= stop["slope_tol"]
                        and stop["omega_slope_left"] >= -stop["slope_tol"])
                assert rule == payload["converged"]
                seen.add(rule)
        assert seen == {True, False}

    def test_benchmark_shaped_fits_take_no_more_passes(self):
        # the benchmark's fit_models samples, seeds 1-20 (180 fits of 3,000
        # points): starting at the P_STAR quantile, not the median, took the
        # total from 1,947 score passes to 1,648
        total = 0
        for seed in range(1, 21):
            for x in _benchmark_shaped(seed):
                res = fit_agr(x)
                assert res.converged
                total += res.nfev
        assert total <= 1947


def _benchmark_shaped(seed, n=3000):
    """The shapes of ``perfbench/inputs.py``'s ``fit_samples``, three of each:
    AGR (from the quantile of uniforms), lognormal and a two-normal mixture,
    each with its own drawn parameters."""
    g = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 3])))
    out = []
    for _ in range(3):
        omega = float(g.uniform(0.5, 2.0))
        psi = omega * float(g.uniform(0.02, 0.05))
        out.append(agr_quantile(ArctanGRParams(omega, psi),
                                np.maximum(g.random(n), np.finfo(float).tiny)))
        out.append(g.lognormal(g.uniform(-1, 1), g.uniform(0.3, 0.8), n))
        weight, mu2, sd2 = g.uniform(0.6, 0.8), g.uniform(3, 5), g.uniform(0.3, 0.7)
        first = g.random(n) < weight
        out.append(np.where(first, g.standard_normal(n), mu2 + sd2 * g.standard_normal(n)))
    return out


#: Each sum of a score pass, with the power of z in its terms.
_PASS_SUMS = {"l1": 0, "zl1": 1, "l2": 0, "zl2": 1, "z2l2": 2, "l11": 0, "zl11": 1, "z2l11": 2}


class TestScorePass:
    """The sums of both score passes, the float loop and the numpy pass on its
    in-place workspace, against the same sums of the elementwise ``L'``/``L''``
    arrays (``score_oracle``), on sorted samples with omega tied to a sample
    point or anywhere."""

    @pytest.mark.parametrize("search_of", [lambda xs: fit_module._AgrSearch(xs.tolist()),
                                           ArraySearch], ids=["floats", "numpy"])
    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.one_of(st.sampled_from([-3.0, -0.0, 0.0, 0.0, 2.5, 2.5, 7.0]),
                              st.floats(-1e6, 1e6)), min_size=1, max_size=60),
        at=st.one_of(st.integers(0, 59), st.floats(-2e6, 2e6)),
        psi=st.floats(-9.0, 6.0).map(lambda e: 10.0**e),
        tile=st.sampled_from([1, 1, 50]),
    )
    @example(xs=[-3.0, -0.0, 0.0, 0.0, 2.5], at=1, psi=0.7, tile=1)  # ties at omega, -0.0
    @example(xs=[-1e6, -1.0, 0.0, 1.0, 1e6], at=2, psi=1.0, tile=1)  # |z| > 745 both sides
    @example(xs=[1.0, 2.0, 3.0], at=-5.0, psi=1.5, tile=1)  # no point left of omega
    @example(xs=[1.0, 2.0, 3.0], at=5.0, psi=1.5, tile=50)  # none right of it
    @example(xs=[2.5, 2.5, 2.5], at=0, psi=1e-3, tile=1)  # every point at omega
    # |x| near the top of the range: |x - omega| is summed in units of 2^k
    @example(xs=[-1e307, 0.0, 1e307, 1e307], at=1, psi=1e300, tile=1)
    def test_sums_match_the_elementwise_oracle(self, search_of, xs, at, psi, tile):
        xs = np.sort(np.tile(np.array(xs), tile))
        omega = float(xs[at % xs.size]) if isinstance(at, int) else at
        search = search_of(xs)
        search.at(omega)
        got = search.score_pass(psi)
        z, terms = pass_terms(xs, omega, psi)
        eps = np.finfo(float).eps
        for name, power in _PASS_SUMS.items():
            # the reference sum correctly rounded (fsum) from the oracle's
            # terms, each within a few ulps of at most (1 + |z|)^power; the
            # pass was measured within 6.6 eps times the sum of those bounds
            want = math.fsum(terms[name])
            tol = 16.0 * eps * float(np.sum((1.0 + np.abs(z)) ** power))
            assert abs(getattr(got, name) - want) <= tol, (name, getattr(got, name), want)


@pytest.mark.parametrize("search_of", [lambda xs: fit_module._AgrSearch(xs.tolist()),
                                       ArraySearch], ids=["floats", "numpy"])
def test_a_score_pass_is_a_value(search_of):
    # a pass still held when the next one runs keeps its own sums: the numpy
    # pass, which shares one workspace, once read most of them lazily from it
    xs = np.sort(agr_sample(ArctanGRParams(1.0, 0.03), 300, seed=34))
    omega = float(xs[120])
    search = search_of(xs)
    search.at(omega)
    held = search.score_pass(0.03)
    search.score_pass(0.5)
    fresh = search_of(xs)
    fresh.at(omega)
    want = fresh.score_pass(0.03)
    for name in _PASS_SUMS:
        assert getattr(held, name) == getattr(want, name), name


class TestExtremeData:
    @pytest.mark.parametrize("x", [
        1e9 + np.random.default_rng(2).normal(0.0, 1.0, 300),
        1e6 + 1e-6 * np.random.default_rng(0).normal(0.0, 1.0, 300),
        1e6 + 1e-6 * np.random.default_rng(7).normal(0.0, 1.0, 300),
        1e15 + 100.0 * np.random.default_rng(6).standard_cauchy(300),
    ], ids=["1e9+N(0,1)", "1e6+1e-6*N(0,1)", "1e6+1e-6*N(0,1),rng7", "1e15+100*Cauchy"])
    def test_large_location_converges(self, x):
        # the double spacing at omega-hat is far above 1e-10 psi-hat here: a
        # simplex search with a relative tolerance needed an ulp floor on the
        # first two and spent 44,054 evaluations on each of the last two
        # without converging
        res = fit_agr(x)
        assert res.converged
        assert res.nfev < 5000
        oracle = multistart_loglik(x)
        assert res.loglik >= oracle - 1e-9 * (1.0 + abs(res.loglik))

    def test_large_offset_fits_like_the_shifted_sample(self):
        # data on a 1/64 grid at 1e14: the slope tolerance's n ulp(omega)/psi^2
        # term (3.6 here) once accepted the rising point 1e14 - 0.09375, with
        # l = -310.49990; the search from the P* quantile reaches the fit of
        # the same data shifted exactly to 0, mapped back
        y = 1e14 + agr_sample(ArctanGRParams(0.0, 1.0), 198, 788757209)
        u = y - 1e14  # exact: y and 1e14 are within a factor of 2
        assert np.array_equal(u + 1e14, y)
        res, shifted = fit_agr(y), fit_agr(u)
        assert res.converged
        assert res.params.omega == 1e14 - 0.078125 == 1e14 + shifted.params.omega
        assert res.params.psi == shifted.params.psi
        assert res.loglik == shifted.loglik == pytest.approx(-310.46398, abs=1e-5)

    @pytest.mark.parametrize("x", [[0.0, 1.0, 2.0, np.finfo(float).max],
                                   [-np.finfo(float).max, 0.0, 1.0, 2.0]])
    def test_largest_double_in_the_sample_converges(self, x):
        # the slope tolerance reads one ulp of omega, which np.spacing
        # overflowed at the largest double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_agr(np.array(x))
        assert res.converged and math.isfinite(res.loglik)

    @pytest.mark.parametrize("x", [
        [-1.7e308, 0.0, 1.7e308, 1.0, 2.0], [-1e308, 0.0, 1.0, 2.0, 1e308],
        [-1.7e308, -1.7e308, 1.7e308, 1.7e308], [1.79e308, -1.79e308, 3.0, -1.79e308, 5.0, 1.79e308],
    ])
    def test_laplace_spread_whose_sum_overflows(self, x):
        # the mean absolute deviation about the median is at most half the
        # range, a finite double; the exact rational one, correctly rounded, is
        # the oracle (math.fsum of the exact |x - med| agrees)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_laplace(np.array(x))
        med = float(statistics.median(Fraction(v) for v in x))
        mad = sum(abs(Fraction(v) - Fraction(med)) for v in x) / len(x)
        assert res.params.omega == med
        assert res.params.psi == float(mad) == pytest.approx(
            math.fsum(float(abs(Fraction(v) - Fraction(med))) / len(x) for v in x), rel=1e-15)

    @pytest.mark.parametrize("x", [
        [-1.7e308, 0.0, 1.7e308, 1.0, 2.0], [-1e308, 0.0, 1.0, 2.0, 1e308],
        [1.79e308, -1.79e308, 3.0, -1.79e308, 5.0, 1.79e308],
        # x - omega overflows at the fitted omega too
        [-1.7e308, -1.7e308, 1.7e308, 1.7e308],
    ])
    def test_agr_on_a_sample_whose_range_overflows(self, x):
        # the search runs on the sample times 2^-e, which x and x/2 share: their
        # parameters differ by exactly 2, and are the unit fit's times 2^e; stop,
        # without dimension, is the unit fit's.  The oracle of the
        # log-likelihood is mpmath's at the returned parameters
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_agr(np.array(x))
        half = fit_agr(np.array(x) / 2.0)
        e = unit_exponent(min(x), max(x))
        unit = fit_agr(np.ldexp(x, -e))
        assert res.converged and unit.converged
        assert (res.params.omega, res.params.psi) == (2.0 * half.params.omega, 2.0 * half.params.psi)
        assert (res.params.omega, res.params.psi) == (
            math.ldexp(unit.params.omega, e), math.ldexp(unit.params.psi, e))
        assert res.stop == unit.stop
        assert res.loglik == pytest.approx(mp_loglik("agr", res.params, x), rel=1e-15)

    @pytest.mark.parametrize("fit", [fit_agr, fit_laplace])
    @pytest.mark.parametrize("x", [[-1e308, 0.0, 1e308], [-1e308, 1e308, 1e308]])
    def test_three_huge_points_stop_at_the_size_check(self, fit, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="needs at least 4 observations, got 3"):
                fit(np.array(x))

    @pytest.mark.parametrize("x", [[1e154, -1e154] * 2, [-1e308, 0.0, 1e308, 0.0],
                                   [1e200, 2e200, 3e200, 4e200], [1.7e308, 1e-300, 5.0, 9e307]])
    def test_gaussian_whose_squares_overflow(self, x):
        # the MLE is within max|x|; the exact rational mean and population SD
        # (statistics' own sums), correctly rounded, are the oracle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_gaussian(np.array(x))
        assert res.params.omega == pytest.approx(float(statistics.mean(x)), rel=4e-16, abs=0.0)
        assert res.params.eta == pytest.approx(statistics.pstdev(x), rel=4e-16)
        assert math.isfinite(res.loglik)

    @pytest.mark.parametrize("x", [
        [1e200] * 3, [1e200, 2e200, 3e200], [1.79e308, 1e300, 1e307],
        [1.79e308, 1.0, 1e-300],
    ])
    def test_rayleigh_whose_squares_overflow(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_rayleigh(np.array(x))
        with decimal.localcontext(decimal.Context(prec=40)):
            want = (sum(decimal.Decimal(v) ** 2 for v in x) / (2 * len(x))).sqrt()
        assert res.params.psi == pytest.approx(float(want), rel=4e-16)
        assert math.isfinite(res.loglik)

    @pytest.mark.parametrize("x", [[1.79e308, 1.0, 1e-300], [1e150, 1e-300, 1.0],
                                   [1e-320, 2e-320, 3e-320, 4e-320]])
    def test_rayleigh_point_far_below_psi(self, x):
        # x / psi^2 underflows at 1e-300, and overflows where psi is subnormal:
        # there rayleigh_logpdf takes its log as log x - 2 log psi; the oracle
        # is the log-likelihood in mpmath at the fitted psi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_rayleigh(np.array(x))
        with mpmath.workdps(40):
            psi = mpmath.mpf(res.params.psi)
            want = sum(mpmath.log(v / psi**2) - v**2 / (2 * psi**2) for v in map(mpmath.mpf, x))
        assert res.loglik == pytest.approx(float(want), rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(x=st.lists(st.floats(-1e150, 1e150), min_size=4, max_size=40))
    def test_finite_squares_are_correctly_rounded_sums(self, x):
        # the closed-form fits on the sample at its unit scale (x itself
        # inside the band, e = 0; below it, the squared deviations at x's own
        # scale would lose bits as subnormals), each sum (of the values, the
        # squared deviations, the absolute deviations from the median and the
        # squares) the exact sum of its float terms rounded once
        assume(np.std(x) > 0.0)
        g = fit_gaussian(np.array(x)).params
        e = unit_exponent(min(x), max(x))
        mean, var = exact_mean_var(x, e)
        assert (g.omega, g.eta) == (math.ldexp(mean, e), math.ldexp(math.sqrt(var), e))
        lap = fit_laplace(np.array(x)).params
        med = math.ldexp(lap.omega, -e)
        mad = exact_sum([abs(math.ldexp(v, -e) - med) for v in x]) / len(x)
        assert lap.psi == math.ldexp(mad, e)
        pos = [abs(v) + 1.0 for v in x]
        r = fit_rayleigh(np.array(pos)).params
        assert r.psi == math.sqrt(exact_sum([v * v for v in pos]) / (2.0 * len(pos)))

    @pytest.mark.parametrize("fit", [fit_gaussian, fit_laplace], ids=["gaussian", "laplace"])
    @pytest.mark.parametrize("x", [
        [-1.7e308, 1e308, 1.7e308, 1.7e308, 2.0], [-1.7e308, 1.7e308, 1.7e308, 1.7e308],
        [1.7976931348623157e308] * 6 + [-1.7976931348623157e308] * 2 + [0.0],
    ])
    def test_loglik_where_x_minus_omega_overflows(self, fit, x):
        # the MLE is finite, but x - omega overflows at the first point: the
        # log-likelihood, taken at unit scale, matches mpmath's at the
        # returned parameters
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(np.array(x))
        assert math.isfinite(res.loglik)
        assert res.loglik == pytest.approx(mp_loglik(res.model_name, res.params, x), rel=1e-15)


class TestScaleEquivariance:
    """Every sum of a sample, in a fit and in ``describe``, is taken at the
    sample's unit scale, so the fits and statistics of ``2^k x`` are those of
    ``x`` mapped by ``2^k``, across both edges of the band and out to the ends
    of the double range.  ``x`` is the insurance sample: positive, so that
    Rayleigh fits it, with ``max|x| = 0.222`` in ``[2^-3, 2^-2)``, so that the
    band's edges lie at ``k = -446`` and ``k = 450``.  From ``k = -1016`` on no
    value of ``2^k x`` is subnormal, and ``2^1025 x`` is below the largest
    double."""

    KS = [-1016, -1000, -700, -447, -446, -445, -100, -1, 1, 100, 449, 450, 451, 800, 1025]

    @pytest.mark.parametrize("k", KS)
    def test_statistics_and_logliks(self, insurance, k):
        x = insurance.array
        y = np.ldexp(x, k)
        got = describe(LossDataset(values=y, source="inline", name="y")).as_dict()
        for key, value in describe(insurance).as_dict().items():
            if key in ("n", "bowley_skewness", "moors_kurtosis"):
                assert got[key] == value, key
            else:
                assert got[key] == math.ldexp(value, k), key
        for name, model in MODELS.items():
            base, res = model.fit(x), model.fit(y)
            if name != "agr":
                assert res.params_dict() == {
                    key: math.ldexp(v, k) for key, v in base.params_dict().items()}, name
            # l(2^k x) = l(x) - n k log 2 to 4 ulps of the size of its two
            # terms (measured: at most 1.94)
            with mpmath.workdps(40):
                want = mpmath.mpf(base.loglik) - x.size * k * mpmath.log(2)
                size = abs(base.loglik) + x.size * abs(k) * math.log(2.0)
                assert abs(res.loglik - want) <= 4 * math.ulp(size), name

    def test_agr_where_the_unit_sample_is_shared(self, insurance):
        # above the band every 2^k x has the unit sample 2^450 x, and below it
        # 2^-446 x: the same search, so parameters exactly 2^k apart
        for ks in ([450, 451, 800, 1025], [-446, -447, -700, -1016]):
            fits = [fit_agr(np.ldexp(insurance.array, k)) for k in ks]
            for k, res in zip(ks, fits):
                assert res.converged
                assert res.params_dict() == {
                    key: math.ldexp(v, k - ks[0]) for key, v in fits[0].params_dict().items()}


    @pytest.mark.parametrize("fit", [fit_agr, fit_laplace, compare_models])
    def test_scale_below_the_smallest_double(self, insurance, fit):
        # 2^-1070 x is 0 to 4 times 2^-1074, and its AGR and Laplace scales,
        # mapped back, round to 0; compare fits AGR first
        name = "laplace" if fit is fit_laplace else "agr"
        with pytest.raises(DataError, match=rf"^{name} fit: the fitted scale rounds below "
                                            r"the smallest positive double$"):
            fit(np.ldexp(insurance.array, -1070))


class TestCompareModels:
    def test_insurance_table(self, insurance):
        table = compare_models(insurance)
        assert [r.model_name for r in table.rows] == ["agr", "gaussian", "rayleigh", "laplace"]
        assert set(table.best_by) == {"loglik", "aic", "bic", "caic", "hqic"}
        # the honest fits rank Laplace first on this sample
        assert table.best_by["loglik"] == "laplace"
        assert table.best_by["aic"] == "laplace"

    def test_gaussian_synthetic_wins_everything(self):
        rng = np.random.default_rng(77)
        sample = rng.normal(10.0, 1.0, 10**4)
        table = compare_models(sample)
        assert all(winner == "gaussian" for winner in table.best_by.values())

    def test_empty_errors(self):
        with pytest.raises(DataError):
            compare_models([])

    def test_csv_and_text_layout(self, insurance):
        table = compare_models(insurance)
        lines = table.to_csv().splitlines()
        assert lines[0] == "model,par,r,loglik,aic,bic,caic,hqic"
        assert len(lines) == 5
        text = table.to_text()
        assert text.splitlines()[0].split()[:2] == ["Model", "Par."]
        assert "best by criterion" in text

    def test_json_round_trip(self, insurance):
        table = compare_models(insurance)
        payload = json.loads(table.to_json())
        assert len(payload["rows"]) == 4
        named = {row["model"]: row for row in payload["rows"]}
        assert named["gaussian"]["loglik"] == pytest.approx(GAUSS_LL, abs=1e-9)
        assert named["gaussian"]["params"]["eta"] == pytest.approx(GAUSS_ETA, abs=1e-15)


class TestSampleType:
    """Every fit reads a :class:`LossDataset`: an array is coerced to one, and
    checked and sorted by it."""

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_array_fits_as_its_dataset(self, name, seed):
        x = agr_sample(ArctanGRParams(10.0, 0.5), 200, seed)
        fit = MODELS[name].fit
        assert fit(x).as_dict() == fit(LossDataset(values=x, source="array", name="s")).as_dict()

    def test_compare_array_as_its_dataset(self, insurance):
        table = compare_models(np.array(insurance.values))
        assert table.to_json() == compare_models(insurance).to_json()

    @pytest.mark.parametrize("bad, match", [
        ([], "nonempty 1-d"), (np.ones((2, 3)), "nonempty 1-d"), (2.0, "nonempty 1-d"),
        ([1.0, np.nan, 2.0], "NaN or infinite"), ([1.0, np.inf], "NaN or infinite")])
    def test_array_errors_are_the_datasets(self, bad, match):
        for model in MODELS.values():
            with pytest.raises(DataError, match=f"^dataset 'sample' .*{match}"):
                model.fit(bad)

    @pytest.mark.parametrize("n", [58, fit_module.FLOAT_FIT_MAX + 1])
    def test_sorted_once(self, n, monkeypatch):
        # compare_models sorts its sample once for the AGR, Laplace and Rayleigh
        # fits: as floats (LossDataset.sorted_values) up to FLOAT_FIT_MAX
        # points, and by np.sort above
        data = LossDataset(values=agr_sample(ArctanGRParams(10.0, 0.5), n, 3).tolist(),
                           source="inline", name="i")
        sorts = []
        real_sort, real_sorted = np.sort, sorted
        monkeypatch.setattr(np, "sort", lambda *a, **k: sorts.append("np") or real_sort(*a, **k))
        monkeypatch.setattr(dataset_module, "sorted", raising=False,
                            value=lambda *a, **k: sorts.append("floats") or real_sorted(*a, **k))
        compare_models(data)
        assert sorts == ["floats" if n <= fit_module.FLOAT_FIT_MAX else "np"]


class TestModelRegistry:
    """``MODELS`` is the one list of candidate models."""

    def test_cli_model_choices(self):
        from arctangr.cli import build_parser

        fit_parser = build_parser()._subparsers._group_actions[0].choices["fit"]
        (model,) = [a for a in fit_parser._actions if a.dest == "model"]
        assert list(model.choices) == sorted(MODELS)

    def test_compare_rows_in_registry_order(self, insurance):
        assert [r.model_name for r in compare_models(insurance).rows] == list(MODELS)

    def test_plot_bundle_covers_registry(self, insurance):
        rng = np.random.default_rng(5)
        centered = LossDataset(values=rng.normal(0.0, 1.0, 400), source="inline", name="c")
        for data, want_skipped in ((insurance, set()), (centered, {"rayleigh"})):
            bundle = plot_bundle(data)
            curves, skipped = set(bundle.density["curves"]), set(bundle.skipped_models)
            assert skipped == want_skipped
            assert curves == set(MODELS) - skipped
