"""Risk measures: frozen values, coherence/equivariance, MC agreement,
empirical estimators, and report serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from arctangr import (
    P_STAR,
    ArctanGRParams,
    DataError,
    DomainError,
    LossDataset,
    RiskReport,
    RiskRow,
    agr_moment,
    agr_pdf,
    agr_quantile,
    empirical_risk,
    empirical_risk_curve,
    mc_oracle,
    risk_curve,
    tv,
    tvar,
    var,
)
from arctangr.cli import main as cli_main
from arctangr.distributions import S_STAR, _z_quantile, _z_tail_quantile
from arctangr.risk import MCOracleResult, _check_alpha, _tail_moments

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
    """``(m, v)`` by adaptive quadrature in ``s``, ``p = 1 - e^{-s}``, split at S_STAR."""
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
        ms, vs = _tail_moments(self.LEVELS)
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


class TestMcOracle:
    def test_deterministic(self, table_params):
        a = mc_oracle(table_params, 0.8, 10**5, seed=5)
        b = mc_oracle(table_params, 0.8, 10**5, seed=5)
        assert a == b
        assert a != mc_oracle(table_params, 0.8, 10**5, seed=6)

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

    def test_chunking_invariant(self, table_params):
        # identical stream split regardless of n's divisibility by the chunk
        small = mc_oracle(table_params, 0.8, 1000, seed=3, chunk=64)
        assert small.n == 1000
        with pytest.raises(DomainError):
            mc_oracle(table_params, 0.8, 0, seed=3)


def _mc_full_reference(params, alpha, n, seed, chunk=1 << 20) -> MCOracleResult:
    """Oracle for ``mc_oracle``: its former loop, which maps every draw
    through the quantile rather than only those that can exceed VaR."""
    a = _check_alpha(alpha)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    threshold = var(params, a)

    n = int(n)
    n_chunks = (n + chunk - 1) // chunk
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(n_chunks)
    m = 0
    s1 = s2 = s3 = s4 = 0.0
    for i, child in enumerate(children):
        k = min(chunk, n - i * chunk)
        rng = np.random.Generator(np.random.PCG64(child))
        p = np.maximum(rng.random(k), np.finfo(float).tiny)
        x = agr_quantile(params, p)
        y = x[x > threshold] - threshold
        m += y.size
        s1 += y.sum()
        y2 = y * y
        s2 += y2.sum()
        s3 += (y2 * y).sum()
        s4 += (y2 * y2).sum()

    if m < 2:
        raise DomainError(
            f"only {m} of {n} samples exceeded the VaR threshold; "
            "increase n or lower alpha"
        )
    mean = s1 / m
    m2 = s2 / m - mean**2
    m4 = s4 / m - 4.0 * mean * s3 / m + 6.0 * mean**2 * s2 / m - 3.0 * mean**4
    tvar_est = threshold + mean
    tv_est = m2
    tvar_se = math.sqrt(max(m2, 0.0) / m)
    tv_se = math.sqrt(max(m4 - m2 * m2, 0.0) / m)
    return MCOracleResult(tvar_est, tv_est, tvar_se, tv_se, m, n)


def _result_or_message(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        return f"DomainError: {exc}"


def assert_mc_matches_full_reference(params, alpha, n, seed, chunk):
    got = _result_or_message(mc_oracle, params, alpha, n, seed, chunk=chunk)
    ref = _result_or_message(_mc_full_reference, params, alpha, n, seed, chunk=chunk)
    assert got == ref


class TestMcTailOnly:
    """``mc_oracle`` maps only the draws above ``min(alpha - 1e-9, 7/8)``
    through the quantile; every field must equal the full evaluation's
    exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
        ratio=st.floats(-1e12, 1e12),
        psi=st.floats(1e-3, 1e3),
        chunk=st.sampled_from([64, 4096, 1 << 20]),
        blocks=st.integers(0, 2),
        frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_full_evaluation(self, alpha, ratio, psi, chunk, blocks, frac, seed):
        if chunk == 1 << 20:
            blocks = min(blocks, 1)
        # a last chunk of 1 .. chunk-1 draws, so n is never a multiple of chunk
        n = blocks * chunk + 1 + int(frac * (chunk - 2))
        assert_mc_matches_full_reference(ArctanGRParams(ratio * psi, psi), alpha, n, seed, chunk)

    @pytest.mark.parametrize("params,alpha,n,chunk", [
        (ArctanGRParams(0.02, 0.005), 0.5 + 1e-12, 200_001, 4096),
        (ArctanGRParams(0.0, 1.0), P_STAR - 1e-12, 200_001, 1 << 20),
        (ArctanGRParams(-3.0, 2.0), P_STAR, 200_001, 64),
        (ArctanGRParams(1e12, 1.0), P_STAR + 1e-12, 200_001, 4096),
        (ArctanGRParams(0.5, 0.3), 0.875, 200_001, 4096),
        (ArctanGRParams(0.5, 0.3), 0.875 + 1e-9, 200_001, 4096),
        (ArctanGRParams(0.02, 0.005), 0.99999, 10**6 + 7, 1 << 20),
        (ArctanGRParams(0.0, 1e-3), 0.9, 3 * 10**6 + 1, 1 << 20),
    ])
    def test_explicit_levels(self, params, alpha, n, chunk):
        assert_mc_matches_full_reference(params, alpha, n, 17, chunk)

    def test_too_few_exceedances_message(self):
        args = (ArctanGRParams(0.02, 0.005), 0.99999, 1000, 17)
        with pytest.raises(DomainError, match=r"only [01] of 1000 samples exceeded") as got:
            mc_oracle(*args, chunk=64)
        with pytest.raises(DomainError) as ref:
            _mc_full_reference(*args, chunk=64)
        assert str(got.value) == str(ref.value)

    def test_cli_json_rows(self, capsys):
        alphas = (0.9, 0.99)
        assert cli_main(["risk", "--omega", "0.02", "--psi", "0.005", "--alphas", "0.9,0.99",
                         "--mc-samples", "200000", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["mc_check"]
        seeds = np.random.SeedSequence(0).spawn(len(alphas))
        params = ArctanGRParams(0.02, 0.005)
        assert rows == [_mc_full_reference(params, a, 200_000, s)._asdict()
                        for a, s in zip(alphas, seeds)]

    def test_cli_table_lines(self, capsys):
        alphas = (0.9, 0.99)
        assert cli_main(["risk", "--omega", "0.02", "--psi", "0.005", "--alphas", "0.9,0.99",
                         "--mc-samples", "200000"]) == 0
        out = capsys.readouterr().out
        seeds = np.random.SeedSequence(0).spawn(len(alphas))
        params = ArctanGRParams(0.02, 0.005)
        lines = ["monte carlo cross-check (n=200000):"]
        for a, s in zip(alphas, seeds):
            c = _mc_full_reference(params, a, 200_000, s)
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
        assert payload["method"] == {
            "rule": "gauss-laguerre+gauss-legendre, p = 1 - e^-s",
            "laguerre_nodes": 36,
            "legendre_nodes": 16,
        }

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

    def test_curve(self, insurance):
        report = empirical_risk_curve(insurance, [0.9, 0.75])
        assert report.source == "empirical:insurance"
        assert [r.alpha for r in report.rows] == [0.75, 0.9]
        assert "quantile_rank" in report.method
