"""Per-layer metrics for the traced run (``--trace 1``).

Every traced run, whatever its workload, ends with this probe, so each
per-layer metric is present in every traced result.  Each measured call
into an ``arctangr`` module runs inside a span named after the module and
function (``distributions.agr_cdf``, ``fit.fit_agr``, ...); the metrics are
read back from those spans.  CLI commands run through
:mod:`cli_driver`, whose ``import`` and ``cli.main`` spans are children of
the benchmark's ``interpreter`` span, so the interpreter's own start-up and
exit time is the self time of that span.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys

import numpy as np

import inputs
from harness import Outcomes, Tracer, run_op
from oracle import RISK_TOLS
from workloads import CliOneshot, Context

#: Op ids of probe spans start here, clear of the timed loop's ids.
PROBE_OP_BASE = 1_000_000
#: The CLI commands timed by the probe, one per README command.
CLI_KINDS = ("describe", "fit", "compare", "risk_params", "risk_empirical", "plotdata")


def _spans(tr: Tracer, name: str, fn, reps: int, per: int = 1):
    """Call ``fn`` ``reps`` times, each in a span; return the last result and
    the median span in ms, divided by ``per`` (calls inside one span)."""
    first = len(tr.spans)
    for _ in range(reps):
        with tr.span(name):
            out = fn()
    durations = [end - start for _, start, end, _, _ in tr.spans[first:]]
    return out, statistics.median(durations) * 1e3 / per


def probe(ctx: Context) -> dict[str, tuple[float, str]]:
    """Measure every layer once; returns ``name -> (value, unit)``."""
    tr = ctx.tracer
    tr.enabled = True
    try:
        metrics = {}
        first = len(tr.spans)
        metrics.update(_import_layer(ctx))
        metrics.update(_cli_layer(ctx))
        metrics["interpreter.startup_exit_ms"] = (
            statistics.median(_interpreter_self_ms(tr, first)), "ms")
        import arctangr as A

        metrics.update(_kernel_layers(ctx, A))
        metrics.update(_risk_layer(ctx, A))
        metrics.update(_fit_layers(ctx, A))
        return metrics
    finally:
        tr.enabled = False


def _interpreter_self_ms(tr: Tracer, first: int) -> list[float]:
    """Self time of each ``interpreter`` span from index ``first`` on: the
    process's wall time minus its ``import`` and ``cli.main`` spans."""
    child = {}
    for name, start, end, parent, _ in tr.spans[first:]:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + end - start
    return [(end - start - child.get(first + i, 0.0)) * 1e3
            for i, (name, start, end, _, _) in enumerate(tr.spans[first:])
            if name == "interpreter"]


def _import_layer(ctx, reps=3):
    tr = ctx.tracer
    record_file = ctx.workdir / "import.json"
    import_s = []
    for _ in range(reps):
        with tr.span("interpreter"):
            subprocess.run([sys.executable, str(CliOneshot.DRIVER), "--import-only",
                            str(record_file)], cwd=ctx.root, env=ctx.env(), check=True,
                           timeout=120)
            record = json.loads(record_file.read_text(encoding="utf-8"))
            for name, start, end in record["spans"]:
                tr.add(name, start, end)
                import_s.append(end - start)
    return {
        "import.wall_ms": (statistics.median(import_s) * 1e3, "ms"),
        "import.modules": (record["modules"], "count"),
        "import.scipy_modules": (record["scipy_modules"], "count"),
    }


def _cli_layer(ctx):
    """Each README command of the ``cli_oneshot`` rotation once, checked.

    A command whose process crashed before ``cli.main`` returned has no
    ``cli.main`` span; its whole process time is reported instead."""
    tr = ctx.tracer
    ops = [op for op in CliOneshot(ctx).ops() if op.kind in CLI_KINDS]
    outcomes = Outcomes(ops)
    exits = 0
    for i, op in enumerate(ops):
        rec, res, exc = run_op(op, tr, PROBE_OP_BASE + i)
        outcomes.add(i, rec, res, exc)
        exits += exc is not None or res.returncode != 0
    outcomes.check()
    out = {}
    for i, op in enumerate(ops):
        spans = {s[0]: s[2] - s[1] for s in tr.spans if s[4] == PROBE_OP_BASE + i}
        main_s = spans.get("cli.main", spans["interpreter"])
        out[f"cli.{op.kind}_ms"] = (main_s * 1e3, "ms")
    out["cli.nonzero_exits"] = (exits, "count")
    return out


def _kernel_layers(ctx, A):
    tr = ctx.tracer
    inp = inputs.kernel_inputs(ctx.seed)
    params = A.ArctanGRParams(inp.omega, inp.psi)
    base = A.gaussian_base(A.GaussianParams(inp.gauss_mu, inp.gauss_sigma))
    n = inp.x.size
    calls = {
        "distributions.agr_cdf": lambda: A.agr_cdf(params, inp.x),
        "distributions.agr_pdf": lambda: A.agr_pdf(params, inp.x),
        "distributions.agr_logpdf": lambda: A.agr_logpdf(params, inp.x),
        "distributions.agr_quantile": lambda: A.agr_quantile(params, inp.p),
        "distributions.agr_sample": lambda: A.agr_sample(params, n, seed=inp.sample_seed),
        "arctanx.arctan_cdf": lambda: A.arctan_cdf(base, inp.gauss_x),
    }
    out = {}
    for name, fn in calls.items():
        _, ms = _spans(tr, name, fn, 3)
        out[name.replace("agr_", "") + "_ns_per_pt"] = (ms * 1e6 / n, "ns")

    scalars = [float(p) for p in inp.p[:2000]]
    _, ms = _spans(tr, "distributions.agr_quantile[scalar]",
                   lambda: [A.agr_quantile(params, p) for p in scalars], 3, len(scalars))
    out["distributions.quantile_scalar_us"] = (ms * 1e3, "us")
    _, ms = _spans(tr, "distributions.agr_moment[r=1..4]",
                   lambda: [A.agr_moment(params, r) for r in (1, 2, 3, 4)], 3, 4)
    out["distributions.moment_ms"] = (ms, "ms")

    res, ms = _spans(tr, "risk.mc_oracle",
                     lambda: A.mc_oracle(params, inp.mc_alpha, inputs.MC_DRAWS, inp.mc_seed), 1)
    out["risk.mc_draws_per_s"] = (inputs.MC_DRAWS / (ms * 1e-3), "1/s")
    out["risk.mc_exceedances"] = (res.exceedances, "count")
    return out


def _risk_layer(ctx, A):
    tr = ctx.tracer
    params = A.ArctanGRParams(0.02, 0.005)
    loops = {"var": 2000, "tvar": 200, "tv": 100}
    out = {}
    for name, count in loops.items():
        fn = getattr(A, name)
        _, ms = _spans(tr, f"risk.{name}[x{count}]",
                       lambda fn=fn, c=count: [fn(params, 0.99) for _ in range(c)], 3, count)
        out[f"risk.{name}_us"] = (ms * 1e3, "us")
    for grid, reps in ((inputs.CURVE45, 3), (inputs.CURVE6, 5)):
        _, ms = _spans(tr, f"risk.risk_curve[{len(grid)}]",
                       lambda g=grid: A.risk_curve(params, g), reps)
        out[f"risk.curve{len(grid)}_ms"] = (ms, "ms")

    # every level of the tail ladder, one measure at a time
    worst, failed = 0.0, 0
    for _, omega, psi in inputs.tail_ladder(ctx.seed):
        p = A.ArctanGRParams(omega, psi)
        for alpha in inputs.CURVE45:
            try:
                with tr.span("risk.var+tvar+tv"):
                    row = (alpha, A.var(p, alpha), A.tvar(p, alpha), A.tv(p, alpha))
            except Exception:  # a level that raises is a failed level
                failed += 1
                continue
            errs = ctx.tail_ref.risk_errors(omega, psi, [row])
            failed += any(not errs[k] <= RISK_TOLS[k] for k in errs)
            worst = max([worst, *(e for e in errs.values() if math.isfinite(e))])
    out["risk.max_rel_err"] = (worst, "ratio")
    out["risk.failed_levels"] = (failed, "count")
    return out


def _fit_layers(ctx, A):
    tr = ctx.tracer
    samples = {"insurance": np.array(inputs.INSURANCE),
               **{shape: xs[0] for shape, xs in inputs.fit_samples(ctx.seed, per_shape=1).items()}}
    out = {}
    for name, x in samples.items():
        res, ms = _spans(tr, f"fit.fit_agr[{name}]", lambda x=x: A.fit_agr(x), 1)
        out[f"fit.agr_ms.{name}"] = (ms, "ms")
        out[f"fit.agr_iterations.{name}"] = (res.iterations, "count")
        # the first sample of each shape is the fit_models workload's "<shape>1"
        ref = ctx.fit_reference(name if name == "insurance" else name + "1", x)
        out[f"fit.agr_loglik_gap.{name}"] = (ref - res.loglik, "nat")

    ins = samples["insurance"]
    baselines = (A.fit_gaussian, A.fit_rayleigh, A.fit_laplace)
    _, ms = _spans(tr, "fit.baselines[x300]",
                   lambda: [f(ins) for f in baselines for _ in range(100)], 3, 300)
    out["fit.baselines_us"] = (ms * 1e3, "us")
    _, ms = _spans(tr, "fit.compare_models", lambda: A.compare_models(ins), 2)
    out["fit.compare_ms"] = (ms, "ms")

    csv_path = inputs.write_csv(ctx.workdir / "probe_agr.csv", samples["agr"])
    data, ms = _spans(tr, "dataset.ingest", lambda: A.ingest(str(csv_path)), 5)
    out["dataset.ingest_ms"] = (ms, "ms")
    _, ms = _spans(tr, "dataset.describe", lambda: A.describe(data), 5)
    out["dataset.describe_ms"] = (ms, "ms")

    ins_data = A.ingest("embedded:insurance")
    bundle, ms = _spans(tr, "plotdata.plot_bundle", lambda: A.plot_bundle(ins_data), 2)
    out["plotdata.bundle_ms"] = (ms, "ms")
    _, ms = _spans(tr, "plotdata.PlotBundle.to_json", bundle.to_json, 5)
    out["plotdata.to_json_ms"] = (ms, "ms")
    return out
