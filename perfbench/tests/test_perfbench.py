"""Tests of the benchmark's own code: generators, oracles, failure counting.

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import arctangr as A
import harness
import inputs
import oracle
from harness import Op, Outcomes, Tracer, run_op
from workloads import CliOneshot, Context, check_fit, check_risk_rows, exit_checked, \
    is_extreme_ratio_defect

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tail_ref():
    return oracle.TailReference()


def _equal(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__"):
        return all(_equal(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return a == b


# --- generators ---------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda s: inputs.kernel_inputs(s, n=1000),
    inputs.tail_ladder,
    lambda s: inputs.fit_samples(s, n=300),
    inputs.cli_inputs,
])
def test_generators_are_deterministic_per_seed(make):
    assert _equal(make(11), make(11))
    assert not _equal(make(11), make(12))


def test_generated_samples_suit_their_ops():
    for seed in range(5):
        assert np.all(inputs.cli_inputs(seed).sample > 0)        # compare needs x > 0
        assert all(np.all(x > 0) for x in inputs.fit_samples(seed)["lognormal"])
        for ratio, omega, psi in inputs.tail_ladder(seed):
            assert omega / psi == pytest.approx(ratio, rel=1e-12) and 1e-3 <= psi <= 1e3


def test_insurance_copy_matches_program():
    assert inputs.INSURANCE == A.INSURANCE_VALUES


# --- oracles --------------------------------------------------------------------
def test_numpy_closed_forms_match_mpmath():
    z = np.concatenate([np.linspace(-30, 30, 61), [-1e-9, 0.0, 1e-9]])
    p = np.concatenate([np.linspace(0.001, 0.999, 50), [oracle.P_STAR, 1 - 1e-12, 1e-12]])
    with mp.workdps(40):
        def cdf(v):
            e = mp.e ** (-abs(mp.mpf(v)))
            return 4 / mp.pi * mp.atan(1 - e / 2 if v >= 0 else e / 2)

        def pdf(v):
            return mp.diff(cdf, mp.mpf(v), direction=1 if v >= 0 else -1)

        for v, got in zip(z, oracle.z_cdf(z)):
            assert abs(got - float(cdf(v))) <= oracle.TOL_CDF
        for v, got, lgot in zip(z, oracle.z_pdf(z), oracle.z_logpdf(z)):
            want = pdf(v)
            assert abs(got - float(want)) <= oracle.TOL_PDF * float(want)
            assert abs(lgot - float(mp.log(want))) <= oracle.TOL_LOGPDF * (1 + abs(lgot))
        for q, got in zip(p, oracle.z_quantile(p)):
            assert abs(float(cdf(got)) - q) <= 1e-14 * max(q, 1e-300) + 1e-15


def test_kernel_oracle_agrees_with_program():
    inp = inputs.kernel_inputs(3, n=20_000)
    params = A.ArctanGRParams(inp.omega, inp.psi)
    for kind, fn, arg in (("cdf", A.agr_cdf, inp.x), ("pdf", A.agr_pdf, inp.x),
                          ("logpdf", A.agr_logpdf, inp.x), ("quantile", A.agr_quantile, inp.p)):
        assert oracle.kernel_errors(kind, inp.omega, inp.psi, arg, fn(params, arg)) <= 1.0, kind
    base = A.gaussian_base(A.GaussianParams(inp.gauss_mu, inp.gauss_sigma))
    want = oracle.gaussian_arctan_cdf(inp.gauss_mu, inp.gauss_sigma, inp.gauss_x)
    assert oracle.max_excess(A.arctan_cdf(base, inp.gauss_x), want, 1.0) <= oracle.TOL_CDF


@pytest.mark.parametrize("ratio", [0.0, 4.0, 1e3, -1e3])
def test_tail_oracle_agrees_with_program_up_to_1e3(tail_ref, ratio):
    psi = 0.37
    params = A.ArctanGRParams(ratio * psi, psi)
    report = A.risk_curve(params, inputs.CURVE45)
    assert check_risk_rows(tail_ref, ratio * psi, psi, inputs.CURVE45, report.rows) is None
    for r in (1, 2, 3, 4):
        assert tail_ref.moment_error(ratio * psi, psi, r, A.agr_moment(params, r)) <= 1.0


def test_extreme_ratio_defects_are_caught_and_classified(tail_ref):
    psi = 2.5
    wrong = A.risk_curve(A.ArctanGRParams(1e6 * psi, psi), inputs.CURVE6)
    reason = check_risk_rows(tail_ref, 1e6 * psi, psi, inputs.CURVE6, wrong.rows)
    assert reason is not None and reason.startswith("tv ")
    assert is_extreme_ratio_defect(1e6)(None, reason)
    assert not is_extreme_ratio_defect(4.0)(None, reason)
    assert not is_extreme_ratio_defect(1e6)(None, "var rel error 1 > 1e-12")
    with pytest.raises(A.QuadratureError) as info:
        A.risk_curve(A.ArctanGRParams(1e8 * psi, psi), inputs.CURVE6)
    assert is_extreme_ratio_defect(1e8)(info.value, str(info.value))
    assert not is_extreme_ratio_defect(1e8)(ValueError("x"), "x")
    moment_error = tail_ref.moment_error(1e6 * psi, psi, 2, A.agr_moment(
        A.ArctanGRParams(1e6 * psi, psi), 2))
    assert moment_error > 1.0
    assert is_extreme_ratio_defect(1e6)(None, f"moment r=2 error {moment_error:.3g} > 1")


def test_insurance_reference_loglik_and_fit_check():
    x = np.array(inputs.INSURANCE)
    ll, omega, psi = oracle.reference_fit(x)
    assert ll == pytest.approx(oracle.INSURANCE_AGR_LOGLIK, rel=1e-12)
    row = A.fit_agr(x).as_dict()
    assert check_fit(row, x, oracle.INSURANCE_AGR_LOGLIK) is None
    worse = dict(row, params={"omega": omega * 1.05, "psi": psi})
    worse["loglik"] = oracle.agr_loglik(x, omega * 1.05, psi)
    worse.update(oracle.criteria(worse["loglik"], x.size, 2))
    assert check_fit(worse, x, oracle.INSURANCE_AGR_LOGLIK) is not None


def test_mc_oracle_agrees_with_reference(tail_ref):
    params = A.ArctanGRParams(0.02, 0.005)
    res = A.mc_oracle(params, 0.95, 400_000, 5)
    z, m, v = tail_ref.standard(0.95)
    assert abs(res.tvar - (0.02 + 0.005 * m)) <= oracle.MC_SIGMAS * res.tvar_se
    assert abs(res.tv - 0.005**2 * v) <= oracle.MC_SIGMAS * res.tv_se


# --- failure counting --------------------------------------------------------------
def _op(call, check=lambda out: None, known=None, kind="k"):
    return Op(kind, kind, "layer", call, check, known)


def _settle(ops):
    out = Outcomes(ops)
    tr = Tracer()
    for i, op in enumerate(ops):
        out.add(i, *run_op(op, tr, i))
    out.check()
    return [r.status for r in out.records]


def test_exceptions_wrong_results_and_known_defects_are_counted():
    def boom():
        raise RuntimeError("boom")

    statuses = _settle([
        _op(lambda: 1.0),
        _op(boom),
        _op(lambda: 2.0, check=lambda out: "off by 1"),
        _op(lambda: 3.0, check=lambda out: "tv rel error", known=lambda e, r: r.startswith("tv")),
        _op(lambda: 4.0, check=lambda out: 1 / 0),    # an output the check cannot read
    ])
    assert statuses == ["ok", "failed", "failed", "known", "failed"]


def test_nonzero_exit_fails_the_op(tmp_path):
    ctx = Context(seed=0, root=BENCH.parent, workdir=tmp_path, tracer=Tracer())
    cli = CliOneshot(ctx)
    op = _op(lambda: cli.run_command(["risk", "--omega", "1"], None),
             check=exit_checked(lambda res: None))
    assert _settle([op]) == ["failed"]


def test_repeated_identical_outputs_are_checked_once():
    calls = []
    ops = [_op(lambda: np.arange(5.0), check=lambda out: calls.append(1))]
    out = Outcomes(ops)
    tr = Tracer()
    for k in range(4):
        out.add(0, *run_op(ops[0], tr, k))
    out.check()
    assert len(calls) == 1 and [r.status for r in out.records] == ["ok"] * 4


def test_end_to_end_metrics_count_every_failure():
    recs = [harness.OpRecord("k", "k", 0.01 * (i + 1), False, "ok") for i in range(30)]
    recs[3].status, recs[4].status = "failed", "known"
    metrics, facts = harness.end_to_end(recs, [1.0] * 30, 1.0, 50.0)
    assert facts["failed"] == 2 and metrics["success_ratio"][0] == pytest.approx(28 / 30)
    assert metrics["latency_tail_ms"][0] == pytest.approx(200.0)   # 10 samples above it
    assert facts["tail_percentile"] == pytest.approx(200 / 3)
    faster_machine, _ = harness.end_to_end(recs, [2.0] * 30, 1.0, 50.0)   # references took half
    assert faster_machine["latency_p50_ms"][0] == pytest.approx(2 * metrics["latency_p50_ms"][0])
    assert faster_machine["throughput_ops_s"][0] == pytest.approx(
        metrics["throughput_ops_s"][0] / 2)


def test_rotations_fix_the_work_per_run():
    assert harness.rotations(7, 15, 1.0) == 15
    assert harness.rotations(8, 15, 10.0) == 4       # held by the 30-op floor
    assert harness.rotations(126, 15, 1.9) == 8


def test_local_scales_follow_the_reference_around_each_op():
    refs = [1.0] * 10 + [2.0] * 10
    scales = harness.local_scales(refs, 1.0, window=5)
    assert scales[:8] == [1.0] * 8 and scales[12:] == [0.5] * 8


def test_tail_with_few_samples_is_the_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.enabled = True
    with tr.span("parent"):
        tr.add("child", 0.0, 0.0)
        with tr.span("child"):
            sum(range(10_000))
    agg = tr.self_times()
    parent, child = agg["parent"], agg["child"]
    assert parent["self_s"] == pytest.approx(parent["total_s"] - child["total_s"])
    assert child["count"] == 2


def test_overhead_compares_traced_with_untraced_time():
    recs = [harness.OpRecord("k", "k", 1.0, False), harness.OpRecord("k", "k", 1.1, True)]
    assert harness.overhead_pct(recs) == pytest.approx(10.0)


# --- the command -----------------------------------------------------------------
def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tail_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert "no program" in proc.stderr
