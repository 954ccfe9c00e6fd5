"""Closed-loop timing, spans, statistics and the environment record.

One client runs the workload's fixed rotation of ops back to back (a closed
loop: the next op starts when the previous one returns).  Every op is timed
by wall clock; its output is checked against the oracle after the loop.
A run is a fixed number of whole rotations, set by ``--seconds`` and the
workload's nominal rotation time at the parent commit, and at least
:data:`MIN_OPS` ops.  So every run of a workload, on any commit and however
busy the machine, does the same work, and the tail percentile, which has
:data:`TAIL_BEYOND` samples beyond it, is the same percentile.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

MIN_OPS = 30
TAIL_BEYOND = 10


# --- spans ---------------------------------------------------------------------
class Tracer:
    """Spans kept in memory: ``[name, start, end, parent_index, op_id]``.

    Disabled, :meth:`span` returns a shared no-op context, so the untraced
    loop runs the same code with nothing recorded.  Times are
    ``time.perf_counter()`` seconds, which on Linux is the system-wide
    monotonic clock and so comparable with times taken in child processes.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished child of the open span (e.g. one timed elsewhere)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, start, end, parent, self.op_id])

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds (total minus the time
        covered by direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with path.open("w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([name, time.perf_counter(), None, parent, tracer.op_id])

    def __enter__(self):
        self.tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer._stack.pop()
        self.tracer.spans[self.index][2] = time.perf_counter()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


# --- ops -------------------------------------------------------------------------
@dataclass
class Op:
    """One call into the program and the check of its output.

    ``check`` returns ``None`` for a correct output, else the reason.
    ``known_defect(exc, reason)`` says whether a failure is one of the
    documented defects of the program (see README); such failures still
    count as failed ops but do not make the run incorrect.
    """

    kind: str
    label: str
    layer: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: Callable[[BaseException | None, str | None], bool] | None = None


@dataclass
class OpRecord:
    kind: str
    label: str
    seconds: float
    traced: bool
    status: str = "pending"   # then "ok", "known" (documented defect) or "failed"
    reason: str | None = None


def run_op(op: Op, tracer: Tracer, op_id: int):
    """Time one op; return its record, its output and what it raised."""
    tracer.op_id = op_id
    exc = out = None
    start = time.perf_counter()
    with tracer.span("op." + op.kind):
        try:
            with tracer.span(op.layer):
                out = op.call()
        except Exception as e:  # an op that raises is a failed op, not a crash
            exc = e
    seconds = time.perf_counter() - start
    tracer.op_id = None
    return OpRecord(op.kind, op.label, seconds, tracer.enabled), out, exc


def _identical(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(a == b)


class Outcomes:
    """Outputs kept for checking after the loop: one copy per distinct output
    of each op (repeated calls with the same input normally return equal
    outputs), plus the records that produced it."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.records: list[OpRecord] = []
        self.outputs: list[list] = [[] for _ in ops]
        self.references: list[float] = []   # seconds of the reference work

    def add(self, i: int, rec: OpRecord, out, exc) -> None:
        k = len(self.records)
        self.records.append(rec)
        if exc is not None:
            self._settle(self.ops[i], [k], exc, f"{type(exc).__name__}: {exc}")
            return
        for entry in self.outputs[i]:
            if _identical(entry[0], out):
                entry[1].append(k)
                return
        self.outputs[i].append([out, [k]])

    def check(self) -> None:
        """Run each op's check once per distinct output; settle every record."""
        for op, entries in zip(self.ops, self.outputs):
            for out, ks in entries:
                try:
                    reason = op.check(out)
                except Exception:  # unparsable output is a wrong output
                    reason = "check raised: " + traceback.format_exc(limit=3)
                self._settle(op, ks, None, reason)

    def _settle(self, op, ks, exc, reason):
        if reason is None:
            status = "ok"
        elif op.known_defect is not None and op.known_defect(exc, reason):
            status = "known"
        else:
            status = "failed"
        for k in ks:
            self.records[k].status, self.records[k].reason = status, reason


def rotations(n_ops: int, seconds: float, rotation_s: float) -> int:
    """Whole rotations per run: enough for ``seconds`` at the nominal
    rotation time, and for at least ``MIN_OPS`` ops."""
    return max(math.ceil(MIN_OPS / n_ops), round(seconds / rotation_s))


def run_loop(ops: list[Op], count: int, tracer: Tracer, traced: bool,
             reference: Callable[[], float]) -> Outcomes:
    """``count`` rotations of ``ops``; with ``traced``, ``count`` untraced and
    ``count`` traced rotations, alternating, so both halves have the same
    op mix.  A ``reference`` is timed after every op.  Outputs are checked
    later, by :meth:`Outcomes.check`, so that no oracle work runs before the
    peak memory of the loop is read.
    """
    outcomes = Outcomes(ops)
    for rotation in range(2 * count if traced else count):
        tracer.enabled = traced and rotation % 2 == 1
        for i, op in enumerate(ops):
            outcomes.add(i, *run_op(op, tracer, len(outcomes.records)))
            outcomes.references.append(reference())
        tracer.enabled = False
    return outcomes


# --- statistics -------------------------------------------------------------------
def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with ``TAIL_BEYOND`` samples above it, and
    its percentile.  With too few samples, the maximum (percentile 100)."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n


def local_scales(references: list[float], reference_s: float, window: int = 9) -> list[float]:
    """Per op, ``reference_s`` over the median of the references timed
    within ``window // 2`` ops of it: the reference machine's speed over the
    speed this machine had around that op."""
    half = window // 2
    return [reference_s / statistics.median(references[max(0, i - half):i + half + 1])
            for i in range(len(references))]


def end_to_end(records: list[OpRecord], scales: list[float], setup_s: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """The six end-to-end metrics (``name -> (value, unit)``) and the facts
    that qualify them.  Op times are multiplied by their ``scales`` (see
    :func:`local_scales`)."""
    raw = [r.seconds for r in records]
    lat = [t * k for t, k in zip(raw, scales)]
    failed = sum(r.status != "ok" for r in records)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "success_ratio": (1.0 - failed / len(lat), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    facts = {
        "ops": len(lat),
        "failed": failed,
        "failed_ratio": failed / len(lat),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": min(TAIL_BEYOND, len(lat) - 1),
        "time_scale": statistics.median(scales),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_latency_tail_ms": tail(raw)[0] * 1e3,
        "raw_busy_s": sum(raw),
    }
    return metrics, facts


def overhead_pct(records: list[OpRecord]) -> float:
    """Traced op time over untraced op time, minus one, in percent (both
    halves run the same rotations)."""
    traced = sum(r.seconds for r in records if r.traced)
    plain = sum(r.seconds for r in records if not r.traced)
    return 100.0 * (traced / plain - 1.0)


# --- environment ---------------------------------------------------------------------
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Cap the native thread pools at ``nproc`` (keeping a lower setting)."""
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))


def _cpu_info() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def environment() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": ver("numpy"),
        "scipy": ver("scipy"),
        "mpmath": ver("mpmath"),
        "nproc": nproc(),
        "cpu": _cpu_info(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }
