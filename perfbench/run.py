"""arctangr benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, from spans recorded around
calls into each ``arctangr`` module (see README.md).  Workloads:
``cli_oneshot``, ``kernels_mc``, ``tail_grid``, ``fit_models``, or ``all``
to run each in turn.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Set-up is measured this many times per run (this process plus fresh
#: processes that stop before the first op); the median is reported.
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_times(args, first: float) -> list[float]:
    """This process's set-up time plus that of fresh set-up-only processes."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "arctangr" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'arctangr'}; run from a checkout",
              file=sys.stderr)
        return 2

    import harness

    harness.pin_threads()
    sys.path[:0] = [str(ROOT / "src")]
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workloads, harness, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process; the last line sums
    their results, with metrics named ``<workload>.<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def run(args, workloads, harness, workdir: Path) -> int:
    tracer = harness.Tracer()
    ctx = workloads.Context(seed=args.seed, root=ROOT, workdir=workdir, tracer=tracer)
    workload = workloads.WORKLOADS[args.workload](ctx)
    ops = workload.setup()
    setup_s = time.perf_counter() - START
    _check_program_source()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    count = harness.rotations(len(ops), args.seconds, workload.ROTATION_S)
    if args.trace:
        count = max(1, count // 2)
    outcomes = harness.run_loop(ops, count, tracer, bool(args.trace), workload.reference)
    peak_rss_mb = workload.peak_rss_mb()
    outcomes.check()
    records = outcomes.records
    env = harness.environment()

    if args.trace:
        import layers

        untraced = [r for r in records if not r.traced]
        metrics = layers.probe(ctx)
        metrics["trace.overhead_pct"] = (harness.overhead_pct(records), "%")
        facts = {"ops": len(untraced), "traced_ops": len(records) - len(untraced)}
    else:
        times = setup_times(args, setup_s)
        scales = harness.local_scales(outcomes.references, workload.REFERENCE_S)
        metrics, facts = harness.end_to_end(records, scales, statistics.median(times),
                                            peak_rss_mb)
        facts["setup_runs_s"] = times
    facts["rotations"] = count

    results = BENCH / ".work" / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(results / f"{stem}.spans.jsonl")
    failures = [r for r in records if r.status != "ok"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "facts": facts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "p50_ms_by_kind": {
            kind: statistics.median(r.seconds for r in records if r.kind == kind) * 1e3
            for kind in dict.fromkeys(r.kind for r in records)},
        "self_time_s": tracer.self_times() if args.trace else None,
        "failures": [{"op": r.label, "status": r.status, "reason": r.reason} for r in failures],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    report(args, record, failures, tracer)
    wrong = [r for r in failures if r.status == "failed"]
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": record["metrics"],
    }, allow_nan=False))
    return 0


def _check_program_source():
    """An in-process program must come from this checkout, not from an
    installed copy (CLI processes get ``src`` first on ``PYTHONPATH``)."""
    module = sys.modules.get("arctangr")
    if module is None:
        return
    origin = Path(module.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"arctangr imported from {origin}, not {ROOT / 'src'}")


def report(args, record, failures, tracer):
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(record['facts'])}")
    for name, m in record["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    by_kind = {}
    for r in failures:
        by_kind.setdefault((r.status, r.label), r.reason)
    for (status, label), reason in sorted(by_kind.items()):
        print(f"# {status} op: {label}: {reason}")
    if args.trace:
        print("# self time by span (s): name count total self")
        for name, agg in sorted(tracer.self_times().items()):
            print(f"#   {name} {agg['count']} {agg['total_s']:.4f} {agg['self_s']:.4f}")


if __name__ == "__main__":
    sys.exit(main())
