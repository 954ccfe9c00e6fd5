"""The four workloads: their inputs, their op rotation and each op's check.

``setup()`` is everything a workload does before its first timed op: the
import of ``arctangr`` (in-process workloads), input generation and a
warm-up that makes scipy's lazy loaders and the ``.pyc`` cache land in
set-up.  The oracles are evaluated lazily, when the outputs are checked
after the timed loop, so neither set-up nor op time includes them.

On a shared machine the speed one process gets drifts by tens of percent
within minutes (the same CLI command took 0.90 to 1.31 s within 15 s), and
differently for interpreter-, memory- and start-up-bound work.  So after
every op each workload times a small *reference*: benchmark-side work
shaped like its ops, with no program code in it.  Each op time is reported
multiplied by ``REFERENCE_S`` / (median of the nine references timed nearest
to it), i.e. as wall time at the speed the machine had when ``REFERENCE_S``
was measured; the raw times are kept in the run record.  Set-up time is
reported raw.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle
from harness import Op, Tracer
from oracle import RISK_TOLS, TailReference


@dataclass
class Context:
    seed: int
    root: Path             # checkout root; the program is root/src
    workdir: Path          # scratch files of this run
    tracer: Tracer
    tail_ref: TailReference = field(default_factory=TailReference)
    _fit_refs: dict = field(default_factory=dict)

    def fit_reference(self, name: str, x) -> float:
        """Reference AGR log-likelihood of a dataset, computed once per run."""
        if name == "insurance":
            return oracle.INSURANCE_AGR_LOGLIK
        if name not in self._fit_refs:
            self._fit_refs[name] = oracle.reference_fit(x)[0]
        return self._fit_refs[name]

    def env(self) -> dict:
        """Environment for program subprocesses: ``src`` first on the path."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


def _problems(items) -> str | None:
    items = [i for i in items if i]
    return "; ".join(items) if items else None


def _within(name, err, tol) -> str | None:
    return None if err <= tol else f"{name} error {err:.3g} > {tol:g}"


# --- shared checks --------------------------------------------------------------
def check_risk_rows(ref: TailReference, omega, psi, alphas, rows) -> str | None:
    """``rows`` of ``(alpha, var, tvar, tv)`` against the affine mpmath
    reference; a reason that starts with ``"tv "`` means only TV is off."""
    rows = [tuple(map(float, r)) for r in rows]
    if [r[0] for r in rows] != sorted(float(a) for a in alphas):
        return "levels differ from the requested grid"
    errs = ref.risk_errors(omega, psi, rows)
    bad = [k for k in ("var", "tvar", "tv") if not errs[k] <= RISK_TOLS[k]]
    return _problems(f"{k} rel error {errs[k]:.3g} > {RISK_TOLS[k]:g}" for k in bad)


def check_fit(row: dict, x, ref_ll: float) -> str | None:
    """A fitted AGR row (``FitResult.as_dict()`` or the CLI's JSON)."""
    if row.get("model") != "agr" or row.get("n") != x.size or row.get("r") != 2:
        return f"unexpected fit header {row.get('model')!r} n={row.get('n')} r={row.get('r')}"
    omega, psi = row["params"]["omega"], row["params"]["psi"]
    crit = oracle.criteria(row["loglik"], x.size, 2)
    return _problems(
        oracle.fit_problems(x, omega, psi, row["loglik"], ref_ll)
        + [f"{k} {row[k]!r} != {v!r}" for k, v in crit.items()
           if not oracle.close(row[k], v, oracle.TOL_CRITERIA)]
    )


def check_compare(rows: list[dict], best_by: dict, x, ref_ll) -> str | None:
    by_model = {r["model"]: r for r in rows}
    if sorted(by_model) != ["agr", "gaussian", "laplace", "rayleigh"]:
        return f"models {sorted(by_model)}"
    problems = [check_fit(by_model["agr"], x, ref_ll)]
    for name, ll in oracle.baseline_logliks(x).items():
        if not oracle.close(by_model[name]["loglik"], ll, oracle.TOL_CRITERIA):
            problems.append(f"{name} loglik {by_model[name]['loglik']!r} != {ll!r}")
    want = {"loglik": max(rows, key=lambda r: r["loglik"])["model"]}
    for c in ("aic", "bic", "caic", "hqic"):
        want[c] = min(rows, key=lambda r: r[c])["model"]
    if best_by != want:
        problems.append(f"best_by {best_by} != {want}")
    return _problems(problems)


def check_bundle(bundle: dict, x, ref_ll, ref: TailReference) -> str | None:
    """A plot bundle (``PlotBundle`` fields, or ``plotdata --format json``)."""
    counts, edges = np.histogram(x, bins="fd")
    hist = bundle["histogram"]
    problems = []
    if hist["counts"] != counts.tolist() or not np.allclose(hist["bin_edges"], edges,
                                                            rtol=1e-12, atol=0):
        problems.append("histogram differs from numpy's Freedman-Diaconis histogram")
    risk = bundle["risk"]
    omega, psi = risk["params"]["omega"], risk["params"]["psi"]
    problems += oracle.fit_problems(x, omega, psi, oracle.agr_loglik(x, omega, psi), ref_ll)
    rows = list(zip(risk["alpha"], risk["var"], risk["tvar"], risk["tv"]))
    problems.append(check_risk_rows(ref, omega, psi, inputs.CURVE45, rows))
    grid = np.asarray(bundle["density"]["x"])
    want = oracle.z_pdf((grid - omega) / psi) / psi
    err = oracle.max_excess(bundle["density"]["curves"]["agr"], want, np.abs(want) + 1e-300)
    problems.append(_within("agr density", err, oracle.TOL_PDF))
    return _problems(problems)


class Workload:
    """One rotation of ops over seeded inputs; see the module docstring."""

    name: str
    #: Nominal seconds per rotation at the parent commit (2-vCPU Xeon); with
    #: ``--seconds`` it fixes the number of rotations, i.e. the work, per run.
    ROTATION_S: float
    #: Seconds of :meth:`reference` on the reference machine (the 2-vCPU Xeon
    #: VM at a quiet moment).
    REFERENCE_S: float

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> list[Op]:
        raise NotImplementedError

    def reference(self) -> float:
        """Seconds of a small piece of benchmark-side work shaped like this
        workload's ops, timed after every op; see the module docstring."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- kernels_mc ---------------------------------------------------------------------
class KernelsMC(Workload):
    """Bulk elementwise kernels on 1e6 points and a 1e7-draw Monte Carlo."""

    name = "kernels_mc"
    ROTATION_S = 1.0
    REFERENCE_S = 0.002

    def reference(self) -> float:
        """The oracle's own log-density over 1e5 points."""
        z = np.linspace(-20.0, 20.0, 100_000)
        start = time.perf_counter()
        oracle.z_logpdf(z)
        return time.perf_counter() - start

    def setup(self) -> list[Op]:
        import arctangr as A

        inp = inputs.kernel_inputs(self.ctx.seed)
        params = A.ArctanGRParams(inp.omega, inp.psi)
        base = A.gaussian_base(A.GaussianParams(inp.gauss_mu, inp.gauss_sigma))
        n = inp.x.size
        for fn, arg in ((A.agr_cdf, inp.x), (A.agr_pdf, inp.x), (A.agr_logpdf, inp.x),
                        (A.agr_quantile, inp.p)):
            fn(params, arg[:1000])
        A.agr_sample(params, 1000, seed=0)
        A.arctan_cdf(base, inp.gauss_x[:1000])
        A.mc_oracle(params, inp.mc_alpha, 10_000, 0)

        def kernel(kind, arg):
            return lambda out: _within(kind, oracle.kernel_errors(kind, inp.omega, inp.psi, arg, out), 1.0)

        def sample_check(out):
            u = np.maximum(np.random.default_rng(inp.sample_seed).random(n), np.finfo(float).tiny)
            return kernel("quantile", u)(out)

        def arctan_check(out):
            want = oracle.gaussian_arctan_cdf(inp.gauss_mu, inp.gauss_sigma, inp.gauss_x)
            return _within("arctan cdf", oracle.max_excess(out, want, 1.0), oracle.TOL_CDF)

        def mc_check(out):
            z, m, v = self.ctx.tail_ref.standard(inp.mc_alpha)
            tvar, tv = inp.omega + inp.psi * m, inp.psi**2 * v
            p_tail = 1.0 - inp.mc_alpha
            count_sd = math.sqrt(inputs.MC_DRAWS * p_tail * inp.mc_alpha)
            return _problems([
                None if out.n == inputs.MC_DRAWS else f"n={out.n}",
                None if abs(out.tvar - tvar) <= oracle.MC_SIGMAS * out.tvar_se
                else f"tvar {out.tvar!r} vs {tvar!r} (se {out.tvar_se:.3g})",
                None if abs(out.tv - tv) <= oracle.MC_SIGMAS * out.tv_se
                else f"tv {out.tv!r} vs {tv!r} (se {out.tv_se:.3g})",
                None if abs(out.exceedances - inputs.MC_DRAWS * p_tail)
                <= oracle.MC_COUNT_SIGMAS * count_sd + 1 else f"exceedances {out.exceedances}",
            ])

        return [
            Op("cdf", "agr_cdf 1e6", "distributions.agr_cdf",
               lambda: A.agr_cdf(params, inp.x), kernel("cdf", inp.x)),
            Op("pdf", "agr_pdf 1e6", "distributions.agr_pdf",
               lambda: A.agr_pdf(params, inp.x), kernel("pdf", inp.x)),
            Op("logpdf", "agr_logpdf 1e6", "distributions.agr_logpdf",
               lambda: A.agr_logpdf(params, inp.x), kernel("logpdf", inp.x)),
            Op("quantile", "agr_quantile 1e6", "distributions.agr_quantile",
               lambda: A.agr_quantile(params, inp.p), kernel("quantile", inp.p)),
            Op("sample", "agr_sample 1e6", "distributions.agr_sample",
               lambda: A.agr_sample(params, n, seed=inp.sample_seed), sample_check),
            Op("arctan_cdf", "arctan_cdf gaussian 1e6", "arctanx.arctan_cdf",
               lambda: A.arctan_cdf(base, inp.gauss_x), arctan_check),
            Op("mc_oracle", "mc_oracle 1e7", "risk.mc_oracle",
               lambda: A.mc_oracle(params, inp.mc_alpha, inputs.MC_DRAWS, inp.mc_seed),
               mc_check),
        ]

# --- tail_grid -------------------------------------------------------------------------
def is_extreme_ratio_defect(ratio):
    """The documented defect: at |omega/psi| >= 1e6 the program integrates
    in x rather than in the standardized z, so TV (computed as
    E[X^2] - E[X]^2) cancels -- off at 1e6, ``QuadratureError`` from ``tv``
    at 1e8 -- and so do the distribution-dependent parts of the raw
    moments.  VaR and TVaR must still be right."""

    def known(exc, reason):
        if abs(ratio) < 1e6:
            return False
        if exc is None:
            return reason.startswith(("tv ", "moment "))
        frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
        return type(exc).__name__ == "QuadratureError" and "tv" in frames

    return known


class TailGrid(Workload):
    """Scalar tail moments over a ladder of omega/psi ratios."""

    name = "tail_grid"
    ROTATION_S = 1.9
    REFERENCE_S = 0.0004

    def reference(self) -> float:
        """Adaptive quadrature of a standard tail integrand written with
        numpy scalars, as the program's tail moments are."""
        from scipy.integrate import quad

        def integrand(s):
            q = math.exp(-s)
            if q == 0.0:
                return 0.0
            t = np.tan(np.pi / 4 * q)
            return float(-np.log(4.0 * t / (1.0 + t))) * q

        start = time.perf_counter()
        quad(integrand, 1.0, np.inf)
        quad(integrand, 3.0, np.inf)
        return time.perf_counter() - start

    def setup(self) -> list[Op]:
        import arctangr as A

        A.risk_curve(A.ArctanGRParams(0.0, 1.0), [0.9])
        A.agr_moment(A.ArctanGRParams(0.0, 1.0), 1)
        ref = self.ctx.tail_ref
        ops = []
        for ratio, omega, psi in inputs.tail_ladder(self.ctx.seed):
            params = A.ArctanGRParams(omega, psi)
            tag = f"omega/psi={ratio:g} psi={psi:.3g}"
            for kind, grid in (("curve45", inputs.CURVE45), ("curve6", inputs.CURVE6)):
                ops.append(Op(
                    kind, f"risk_curve {len(grid)} levels {tag}", "risk.risk_curve",
                    lambda p=params, g=grid: A.risk_curve(p, g),
                    lambda out, o=omega, s=psi, g=grid: check_risk_rows(ref, o, s, g, out.rows),
                    is_extreme_ratio_defect(ratio),
                ))
            for r in (1, 2, 3, 4):
                ops.append(Op(
                    f"moment{r}", f"agr_moment r={r} {tag}", "distributions.agr_moment",
                    lambda p=params, r=r: A.agr_moment(p, r),
                    lambda out, o=omega, s=psi, r=r: _within(
                        f"moment r={r}", ref.moment_error(o, s, r, out), 1.0),
                    is_extreme_ratio_defect(ratio),
                ))
        return ops

# --- fit_models -------------------------------------------------------------------------
class FitModels(Workload):
    """AGR fits, model comparisons and plot bundles: insurance plus three
    seeded samples of each shape, read back through ``ingest``."""

    name = "fit_models"
    ROTATION_S = 5.0
    REFERENCE_S = 0.0075

    def reference(self) -> float:
        """40 Nelder-Mead iterations on the oracle's AGR log-likelihood."""
        from scipy.optimize import minimize

        x = oracle.z_quantile(np.linspace(0.0005, 0.9995, inputs.FIT_SAMPLE))
        start = time.perf_counter()
        minimize(lambda t: -oracle.agr_loglik(x, t[0], abs(t[1])), [0.3, 2.0],
                 method="Nelder-Mead", options={"maxiter": 40, "xatol": 0.0, "fatol": 0.0})
        return time.perf_counter() - start

    def setup(self) -> list[Op]:
        import arctangr as A

        values = {"insurance": np.array(inputs.INSURANCE)}
        for shape, samples in inputs.fit_samples(self.ctx.seed).items():
            values.update({f"{shape}{i}": x for i, x in enumerate(samples, 1)})
        data = {"insurance": A.ingest("embedded:insurance")}
        for name, x in values.items():
            if name != "insurance":
                data[name] = A.ingest(inputs.write_csv(self.ctx.workdir / f"{name}.csv", x))
        A.plot_bundle(data["insurance"])
        ctx = self.ctx

        def fit_op(name):
            x = values[name]
            return Op(f"fit_{name}", f"fit_agr {name} n={x.size}", "fit.fit_agr",
                      lambda: A.fit_agr(data[name]),
                      lambda out: check_fit(out.as_dict(), x, ctx.fit_reference(name, x)))

        def compare_op(name):
            x = values[name]
            return Op(f"compare_{name}", f"compare_models {name}", "fit.compare_models",
                      lambda: A.compare_models(data[name]),
                      lambda out: check_compare([r.as_dict() for r in out.rows], out.best_by,
                                                x, ctx.fit_reference(name, x)))

        ins = values["insurance"]
        bundle = Op("plot_insurance", "plot_bundle insurance", "plotdata.plot_bundle",
                    lambda: A.plot_bundle(data["insurance"]),
                    lambda out: check_bundle(vars(out), ins,
                                             ctx.fit_reference("insurance", ins), ctx.tail_ref))
        samples = [name for name in values if name != "insurance"]
        return ([fit_op("insurance"), compare_op("insurance"), bundle]
                + [fit_op(name) for name in samples] + [compare_op("lognormal1")])

# --- cli_oneshot -------------------------------------------------------------------------
@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    out_file: str | None


def exit_checked(check):
    """A nonzero exit fails the op before its output is looked at."""

    def checked(res: CliResult):
        if res.returncode != 0:
            return f"exit {res.returncode}: {res.stderr.strip()[-300:]}"
        return check(res)

    return checked


def _parse_table_rows(text: str) -> list[tuple[float, ...]]:
    """Numeric rows under the dashed rule of a risk report table."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if set(line.strip()) == {"-"}) + 1
    return [tuple(float(v) for v in line.split()) for line in lines[start:] if line.strip()]


class CliOneshot(Workload):
    """One ``python -m arctangr`` process per op, README commands in rotation."""

    name = "cli_oneshot"
    ROTATION_S = 10.0
    REFERENCE_S = 0.24
    DRIVER = Path(__file__).resolve().parent / "cli_driver.py"

    def reference(self) -> float:
        """A fresh interpreter importing numpy."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.ctx.root,
                       env=self.ctx.env(), check=True, capture_output=True, timeout=60)
        return time.perf_counter() - start

    def commands(self):
        """``(kind, argv, check)`` for the eight commands of one rotation: the
        README's six, with ``describe`` on both datasets and ``risk
        --omega/--psi`` in table and CSV form.  Five of the eight skip the
        fit, so the median op lies inside the fast group, not between two."""
        ctx, work = self.ctx, self.ctx.workdir
        inp = inputs.cli_inputs(ctx.seed)
        sample_csv = inputs.write_csv(work / "cli_sample.csv", inp.sample)
        sample = inp.sample
        ins = np.array(inputs.INSURANCE)
        compare_out = work / "compare.csv"

        def describe(x):
            def check(res):
                got = {}
                for line in res.stdout.splitlines():
                    key, value = line.split(":")
                    got[key.strip()] = float(value)
                return _problems(f"{k} {got.get(k)!r} vs {v!r}"
                                 for k, v in oracle.describe(x).items()
                                 if got.get(k) is None or not oracle.close(
                                     got[k], float(v), oracle.TOL_PRINTED, 1e-12))
            return check

        def fit(res):
            return check_fit(json.loads(res.stdout), sample, ctx.fit_reference("cli_sample", sample))

        def compare(res):
            rows = list(csv.DictReader(io.StringIO(res.out_file or "")))
            lls = oracle.baseline_logliks(ins)
            lls["agr"] = ctx.fit_reference("insurance", ins)
            problems = [] if len(rows) == 4 else [f"{len(rows)} rows"]
            for row in rows:
                ll = lls[row["model"]]
                want = {"loglik": ll, **oracle.criteria(ll, ins.size, int(row["r"]))}
                problems += [f"{row['model']} {k} {row[k]} vs {v!r}" for k, v in want.items()
                             if not oracle.close(float(row[k]), v, oracle.TOL_PRINTED)]
            return _problems(problems)

        def model_risk(alphas, parse):
            def check(res):
                got = np.array(parse(res.stdout))
                want = np.array([(a, inp.omega + inp.psi * z, inp.omega + inp.psi * m,
                                  inp.psi**2 * v)
                                 for a in alphas for z, m, v in [ctx.tail_ref.standard(a)]])
                return _within("printed risk", oracle.max_excess(got, want, np.abs(want)),
                               oracle.TOL_PRINTED)
            return check

        def csv_rows(text):
            return [tuple(map(float, row)) for row in list(csv.reader(io.StringIO(text)))[1:]]

        def risk_empirical(res):
            got = np.array(_parse_table_rows(res.stdout))
            want = np.array([oracle.empirical_risk(sample, a) for a in inputs.EMPIRICAL_ALPHAS])
            return _within("printed empirical risk", oracle.max_excess(got, want, np.abs(want)),
                           oracle.TOL_PRINTED)

        def plotdata(res):
            return check_bundle(json.loads(res.stdout), ins,
                                ctx.fit_reference("insurance", ins), ctx.tail_ref)

        params = ["--omega", repr(inp.omega), "--psi", repr(inp.psi)]
        readme_alphas = ",".join(map(str, inputs.README_ALPHAS))
        empirical_alphas = ",".join(map(str, inputs.EMPIRICAL_ALPHAS))
        return [
            ("describe", ["describe", "--data", str(sample_csv)], describe(sample)),
            ("describe_insurance", ["describe", "--data", "embedded:insurance"], describe(ins)),
            ("fit", ["fit", "--data", str(sample_csv), "--format", "json"], fit),
            ("compare", ["compare", "--data", "embedded:insurance", "--format", "csv",
                         "--out", str(compare_out)], compare),
            ("risk_params", ["risk", *params], model_risk(inputs.CURVE6, _parse_table_rows)),
            ("risk_params_csv", ["risk", *params, "--alphas", readme_alphas, "--format", "csv"],
             model_risk(inputs.README_ALPHAS, csv_rows)),
            ("risk_empirical", ["risk", "--data", str(sample_csv), "--empirical",
                                "--alphas", empirical_alphas], risk_empirical),
            ("plotdata", ["plotdata", "--data", "embedded:insurance", "--format", "json"],
             plotdata),
        ]

    def run_command(self, argv, out_file: Path | None) -> CliResult:
        """One CLI process; traced, through :mod:`cli_driver` with a span file."""
        tracer = self.ctx.tracer
        if out_file is not None and out_file.exists():
            out_file.unlink()
        spans_file = self.ctx.workdir / "cli_spans.json"
        if tracer.enabled:
            spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(self.DRIVER), "--spans", str(spans_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "arctangr", *argv]
        proc = subprocess.run(cmd, cwd=self.ctx.root, env=self.ctx.env(), capture_output=True,
                              text=True, timeout=120)
        if tracer.enabled and spans_file.exists():  # absent only if the process crashed
            record = json.loads(spans_file.read_text(encoding="utf-8"))
            for name, start, end in record["spans"]:
                tracer.add(name, start, end)
        out_text = out_file.read_text(encoding="utf-8") if out_file and out_file.exists() else None
        return CliResult(proc.returncode, proc.stdout, proc.stderr, out_text)

    def setup(self) -> list[Op]:
        ops = self.ops()
        warm = ops[0].call()
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up CLI run failed: {warm.stderr}")
        return ops

    def ops(self) -> list[Op]:
        ops = []
        for kind, argv, check in self.commands():
            out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            ops.append(Op(kind, "arctangr " + " ".join(argv), "interpreter",
                          lambda argv=argv, f=out_file: self.run_command(argv, f),
                          exit_checked(check)))
        return ops

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest CLI process so far."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CliOneshot, KernelsMC, TailGrid, FitModels)}
