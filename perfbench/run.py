#!/usr/bin/env python3
"""The genshift benchmark: run one workload, check every output, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the checkout's own ``src/genshift``; the run
refuses to start without it. One closed-loop client issues each operation
after the previous one has finished. The timed loop runs whole rounds (see
``workloads.py``) until at least ``--seconds`` have passed and at least the
workload's minimum number of rounds is done. Times are scaled to a
reference machine speed measured during the run (see ``Speed``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half of
``--seconds`` on an untraced phase and then runs a fixed number of rounds
with the library instrumented (``tracing.py``); it prints the per-layer
metrics, totalled over one traced set-up and those rounds, together with
the tracing overhead. The last line of standard output is the JSON result;
the line before it gives the details of the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field

import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 5
IMPORT_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Layers charged by tracing.layer_of; "import" and "harness" are not library modules.
LAYERS = ("index_domain", "sparse_vec", "gen_shift", "domain_analysis", "compact_witness",
          "dense_oracle", "cli", "import", "harness")
IMPORT_LAYERS = ("genshift", "numpy", "click")

# Machine-speed calibration. The host's speed drifts by 20% and more within
# seconds, and by up to 2x over minutes (other tenants), which moves every
# timing. A fixed reference task that runs no genshift code is timed between
# operations, and each operation's time is multiplied by nominal / (median of
# the latest REF_WINDOW task times). Reported times are therefore "at the
# reference speed": the speed at which the task takes its nominal time, set
# close to its median on the 2-vCPU x86-64 VM (CPython 3.11.7) of the
# baseline. In-process work is scaled by an in-process kernel; work done in
# fresh interpreters by a fresh interpreter that imports numpy, because the
# cost of starting a process does not follow the kernel's speed.
REF_WINDOW = 3
KERNEL_NOMINAL_S = 1.5e-3
KERNEL_EVERY_S = 0.05
PROCESS_NOMINAL_S = 0.17
PROCESS_EVERY_S = 1.0
PROCESS_REFERENCE = "import numpy"


def _reference_kernel(scan: tuple[int, ...]) -> int:
    """Interpreter work (dicts, sorting, float formatting) and a memory-bound
    scan like ``tuple.count`` over a large table."""
    table = {}
    for i in range(600):
        table[(i * 7919) % 601] = (i, format(i / 7.0, ".17g"))
    items = sorted(table.items())
    return sum(k for k, _ in items) + scan.count(7) + scan.count(8)


def kernel_seconds(scan: tuple[int, ...]) -> float:
    enabled = gc.isenabled()
    gc.disable()  # the kernel's time must not depend on the program's heap
    try:
        start = time.perf_counter()
        _reference_kernel(scan)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Samples of a reference task, taken at most every ``every`` seconds."""

    def __init__(self, task, nominal: float, every: float):
        self.task = task
        self.nominal = nominal
        self.every = every
        self.samples = array("d")
        self.last = -math.inf

    @classmethod
    def of(cls, kind: str, env: dict[str, str]) -> "Speed":
        if kind == "process":
            return cls(lambda: child_seconds(PROCESS_REFERENCE, env), PROCESS_NOMINAL_S,
                       PROCESS_EVERY_S)
        scan = tuple(random.Random(0).choices(range(20000), k=20000))
        return cls(lambda: kernel_seconds(scan), KERNEL_NOMINAL_S, KERNEL_EVERY_S)

    def refresh(self) -> None:
        """Take a sample unless the latest one is recent."""
        if time.perf_counter() - self.last >= self.every:
            self.samples.append(self.task())
            self.last = time.perf_counter()

    def scale(self) -> float:
        """Factor turning a time measured just now into one at the reference speed."""
        self.refresh()
        return self.nominal / statistics.median(self.samples[-REF_WINDOW:])


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (``statistics.quantiles``'
    inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall: float = 0.0
    latencies: array = field(default_factory=lambda: array("d"))  # at the reference speed
    raw: array = field(default_factory=lambda: array("d"))  # as measured
    kinds: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # read once min_rounds rounds are done
    errors: list[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Verified operations per second of time spent inside operations."""
        return (self.attempted - self.failed) / math.fsum(self.latencies)


def run_op(op, stats: Stats, tracer, check_failed, speed: Speed) -> None:
    stats.attempted += 1
    root = None
    if tracer is not None:
        tracer.op = stats.attempted
        root = tracer.begin("harness.op")
    error = None
    speed.refresh()  # an operation longer than the sampling interval is sampled on both sides
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a crashing operation is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    stats.raw.append(elapsed)
    stats.kinds.append(op.kind)
    stats.latencies.append(elapsed * speed.scale())
    if error is None:
        try:
            if tracer is None:
                op.check(out)
            else:
                with tracer.span("harness.check"), tracer.paused():
                    op.check(out)
        except check_failed as exc:
            error = f"wrong result: {exc}"
        except Exception as exc:  # output the checker cannot read is a wrong answer
            error = f"unreadable result: {type(exc).__name__}: {exc}"
    if root is not None:
        tracer.end(root)
    if error is not None:
        stats.failed += 1
        if len(stats.errors) < 5:
            stats.errors.append(f"{op.kind}: {error}")


def run_rounds(rounds, check_failed, speed: Speed, *, seconds: float = 0.0,
               min_rounds: int = 1, max_rounds: int | None = None, tracer=None,
               rss=lambda: 0.0) -> Stats:
    """Whole rounds until both ``seconds`` and ``min_rounds`` are reached
    (or exactly ``max_rounds``), or until the inputs run out.

    Peak memory is read after ``min_rounds`` rounds, a fixed amount of work:
    it grows with the number of rounds (allocator fragmentation), and a
    faster program must not read as a bigger one."""
    stats = Stats()
    start = time.perf_counter()
    for ops in rounds:
        for op in ops:
            run_op(op, stats, tracer, check_failed, speed)
        stats.rounds += 1
        if stats.rounds == min_rounds:
            stats.peak_rss_mb = rss()
        if max_rounds is not None:
            if stats.rounds >= max_rounds:
                break
        elif stats.rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
    stats.wall = time.perf_counter() - start
    return stats


def child_seconds(code: str, env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that runs ``code`` and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=True)
    return time.perf_counter() - start


def import_breakdown(env: dict[str, str]) -> dict[str, float]:
    """Median cumulative ``-X importtime`` of genshift, numpy and click, in ms."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_LAYERS}
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import genshift.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        cumulative = tracing.parse_importtime(proc.stderr)
        for name in IMPORT_LAYERS:
            samples[name].append(cumulative.get(name, 0.0) / 1000.0)
    return {name: statistics.median(v) for name, v in samples.items()}


def peak_rss_mb(wl_name: str, inputs) -> float:
    if wl_name == "cli_cold":
        return inputs.peak_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(wl, args, workdir: str, env: dict[str, str], check_failed):
    setup, setup_raw = [], []
    inputs = None
    # The import in a fresh interpreter is scaled by the process reference,
    # the build in this process by the kernel; each takes one sample per set-up.
    in_child, in_process = Speed.of("process", env), Speed.of("kernel", env)
    in_child.every = in_process.every = 0.0
    for _ in range(SETUP_REPS):
        imported = child_seconds(f"import {wl.import_module}", env)
        inputs = None
        start = time.perf_counter()
        inputs = wl.build(args.seed, workdir)
        built = time.perf_counter() - start
        setup_raw.append(imported + built)
        setup.append(imported * in_child.scale() + built * in_process.scale())
    speed = Speed.of(wl.calibration, env)
    run_rounds(wl.rounds(inputs, 0, None), check_failed, speed, max_rounds=1)  # warm-up
    stats = run_rounds(wl.rounds(inputs, 1, None), check_failed, speed, seconds=args.seconds,
                       min_rounds=wl.min_rounds, rss=lambda: peak_rss_mb(wl.name, inputs))
    tail = percentile(stats.latencies, wl.tail_percentile)
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(stats.kinds, stats.latencies):
        by_kind.setdefault(kind, []).append(latency)
    metrics = {
        "throughput_ops_per_s": metric(stats.throughput, "ops/s"),
        "latency_p50_ms": metric(statistics.median(stats.latencies) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(stats.peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    detail = {
        "rounds": stats.rounds,
        "ops": stats.attempted,
        "measured_s": stats.wall,
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": sum(1 for v in stats.latencies if v > tail),
        "error_rate": stats.failed / stats.attempted,
        "setup_samples_s": setup,
        "reference": {"task": wl.calibration, "nominal_s": speed.nominal,
                      "median_s": statistics.median(speed.samples)},
        "as_measured": {"throughput_ops_per_s": (stats.attempted - stats.failed) / math.fsum(stats.raw),
                        "latency_p50_ms": statistics.median(stats.raw) * 1e3,
                        "latency_tail_ms": percentile(stats.raw, wl.tail_percentile) * 1e3,
                        "setup_s": statistics.median(setup_raw)},
        "median_ms_by_kind": {kind: statistics.median(v) * 1e3 for kind, v in by_kind.items()},
        "errors": stats.errors,
    }
    return stats, metrics, detail


def traced_run(wl, args, workdir: str, env: dict[str, str], check_failed):
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracing.instrument(tracer), tracer.span("harness.setup"):
        inputs = wl.build(args.seed, workdir)
    setup_wall = time.perf_counter() - start
    # The untraced phase runs uninstrumented, on rounds after the traced ones.
    first_untraced = 1 + wl.trace_rounds
    speed = Speed.of(wl.calibration, env)
    run_rounds(wl.rounds(inputs, 0, None), check_failed, speed, max_rounds=1)  # warm-up
    plain = run_rounds(wl.rounds(inputs, first_untraced, None), check_failed, speed,
                       seconds=args.seconds / 2.0)
    with tracing.instrument(tracer):
        traced = run_rounds(wl.rounds(inputs, 1, tracer), check_failed, speed,
                            max_rounds=wl.trace_rounds, tracer=tracer)
    wall = setup_wall + traced.wall

    self_s, calls = tracing.summarize(tracer.spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, s in self_s.items():
        layer_self[tracing.layer_of(name)] += s
    metrics = {}
    for name in [f"{m}.{f}" for m, f in tracing.TIMED] + [tracing.CLI_MAIN]:
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
        metrics[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    for m, cls, meth in tracing.COUNTED:
        name = f"{m}.{cls}.{meth}"
        metrics[f"{name}.calls"] = metric(tracer.counts.get(name, 0), "count")
    metrics["cli.stdout_bytes"] = metric(tracer.counts.get("cli.stdout_bytes", 0), "bytes")
    for layer, s in layer_self.items():
        metrics[f"{layer}.self_share"] = metric(s / wall, "ratio")
    metrics["trace.unattributed_share"] = metric(1.0 - sum(layer_self.values()) / wall, "ratio")
    for name, ms in import_breakdown(env).items():
        metrics[f"import.{name}_ms"] = metric(ms, "ms")
    worst = getattr(inputs, "worst_error", 0.0)
    metrics["dense_oracle.max_norm_error"] = metric(worst, "abs")
    metrics["trace.throughput_ratio"] = metric(traced.throughput / plain.throughput, "ratio")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    metrics["error_rate"] = metric(failed / attempted, "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"trace-{wl.name}.json")
    tracer.dump(trace_file)
    stats = Stats(attempted=attempted, failed=failed, errors=plain.errors + traced.errors)
    detail = {
        "untraced_rounds": plain.rounds,
        "untraced_ops_per_s": plain.throughput,
        "traced_rounds": traced.rounds,
        "traced_ops_per_s": traced.throughput,
        "traced_wall_s": wall,
        "spans": len(tracer.spans),
        "worst_norm_error_table": list(getattr(inputs, "worst_table", None) or []),
        "trace_file": os.path.relpath(trace_file, ROOT),
        "errors": stats.errors,
    }
    return stats, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="genshift benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("oracle_sweep", "vector_ops", "cli_requests", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "genshift", "__init__.py")):
        print(f"perfbench: no genshift sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)  # before numpy is first imported
    sys.path.insert(0, SRC)
    import genshift

    if not os.path.realpath(genshift.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"perfbench: genshift imported from {genshift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = workloads.child_env(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        run = traced_run if args.trace else timed_run
        stats, metrics, detail = run(wl, args, workdir, env, workloads.CheckFailed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    header = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "thread_cap": threads, "closed_loop_clients": 1,
              "attempted": stats.attempted, "failed": stats.failed, **detail}
    print(json.dumps(header))
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
