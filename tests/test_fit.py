"""Fitting: information criteria, closed-form MLEs against frozen values,
the Nelder-Mead AGR fit against the 27-start search it replaced, and the
comparison table."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arctangr import (
    ArctanGRParams,
    DataError,
    DomainError,
    agr_logpdf,
    agr_loglik,
    agr_sample,
    compare_models,
    fit_agr,
    fit_gaussian,
    fit_laplace,
    fit_rayleigh,
    information_criteria,
)
from arctangr.distributions import _z_log_shape
from arctangr.fit import _golden_section, _nelder_mead

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

    def test_insurance_fit(self, insurance):
        res = fit_agr(insurance)
        assert res.converged
        assert res.nfev > res.iterations > 0
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


class TestNelderMead:
    def test_matches_scipy_step_for_step(self):
        from scipy.optimize import minimize

        def rosen(v):
            return (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2

        for x0 in ([-1.2, 1.0], [0.0, 2.0], [3.0, -0.5]):
            ref = minimize(rosen, x0, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12,
                                    "maxiter": 5000, "maxfev": 10000})
            x, fun, nit, nfev, converged = _nelder_mead(rosen, x0, 1e-10, 1e-12, 5000, 10000)
            assert x.tolist() == ref.x.tolist()
            assert fun == ref.fun
            assert (nit, nfev, converged) == (ref.nit, ref.nfev, ref.success)

    def test_budget_exhausted_is_not_converged(self):
        _, _, nit, _, converged = _nelder_mead(
            lambda v: (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2,
            [-1.2, 1.0], 1e-10, 1e-12, 10, 10000,
        )
        assert (nit, converged) == (10, False)

    def test_golden_section(self):
        t, fun, nfev = _golden_section(lambda t: abs(t - 0.3) + 1.0, -1.0, 1.0, 1e-10)
        assert t == pytest.approx(0.3, abs=1e-10)
        assert fun == 1.0 + abs(t - 0.3)
        assert nfev == 2 + math.ceil(math.log(2.0 / 1e-10) / math.log((1 + 5 ** 0.5) / 2))


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
    @given(x=st.builds(
        _family_sample,
        st.sampled_from(["normal", "two_normals", "cauchy", "lognormal",
                         "cubed_exponential", "rounded", "pareto"]),
        st.integers(5, 1000),
        st.integers(0, 2**32 - 1),
    ))
    # omega-hat on a data point: without the psi profile the simplex
    # collapses there before psi is optimal
    @example(x=np.array([0.01539682, 1.03853065, 1.58575026, 2.31852605, 3.22760277]))
    @example(x=np.array([-2.0, -1.9, -0.9, -0.3, 0.3]))
    def test_family(self, x):
        assume(np.mean(np.abs(x - np.median(x))) > 0.0)
        assert_matches_multistart(x)


class TestExtremeData:
    @pytest.mark.parametrize("x", [
        1e9 + np.random.default_rng(2).normal(0.0, 1.0, 300),
        1e6 + 1e-6 * np.random.default_rng(0).normal(0.0, 1.0, 300),
    ], ids=["1e9+N(0,1)", "1e6+1e-6*N(0,1)"])
    def test_large_location_converges(self, x):
        # 1e-10*scale is below the double spacing at omega-hat, so without the
        # ulp floor the polish spends its 40,000 evaluations and fails
        res = fit_agr(x)
        assert res.converged
        assert res.nfev < 5000
        oracle = multistart_loglik(x)
        assert res.loglik >= oracle - 1e-9 * (1.0 + abs(res.loglik))

    @pytest.mark.parametrize("fit", [fit_agr, fit_laplace])
    @pytest.mark.parametrize("x", [[-1e308, 0.0, 1e308], [-1e308, 1e308, 1e308]])
    def test_overflowing_spread_is_a_data_error(self, fit, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="mean absolute deviation overflows"):
                fit(np.array(x))


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
