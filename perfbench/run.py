#!/usr/bin/env python3
"""Benchmark of resopt: end-to-end and per-layer metrics of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One invocation runs one workload in this process, single-threaded (BLAS is
pinned to one thread).  It repeats the workload's operation at least twice,
and again while a typical operation still ends within ``--seconds``.  Each
operation is checked from outside: it must not raise or diverge, its
``final_error`` must stay within the workload's tolerance, its CSV files must
hash identically on every repetition, and the counters must agree with the
files.  An operation that fails any check counts in ``failed``;
``failed / attempted`` is the error rate.

A shared host's speed can swing by 1.7x for tens of seconds to minutes at a
time (seen on a 2-core x86_64 cloud host), so raw operation times drift
between runs.  Each operation is therefore bracketed by a fixed reference
kernel (``reference_kernel``, no resopt code) and its time rescaled to a host
that runs the kernel in ``REF_KERNEL_S`` seconds: ``wall_ref_s`` is the
median of the rescaled times, and the raw median is printed on a ``raw``
line.  ``setup_s`` is the median of fresh-interpreter set-ups, one after each
operation, so that it samples the whole run.

With ``--trace 0`` the metrics are the end-to-end ones, timed with tracing
off.  With ``--trace 1`` untraced and traced operations alternate; the traced
ones record spans around every call into a resopt module, and after each of
them the calls ``sim.run`` and ``cli.write_outputs`` make internally are
timed standalone on the same inputs.  The per-layer metrics are medians over
the traced operations, in raw seconds, and the traced-minus-untraced
difference of the median rescaled operation time is reported as the tracing
overhead.  The spans are written to ``.perfbench_out/`` at the end.

Before the last line the output has an ``env`` line (nproc, Python, numpy,
BLAS threads), one ``digest`` line per operation and, with ``--trace 0``, the
``raw`` line.  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--smoke`` runs every workload at a tiny horizon in its own process, with
and without tracing, and checks that every metric of BENCHMARK.json is
printed with its unit and that the interaction map in interactions.json
covers every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Least number of timed set-ups per run; one more untimed set-up first writes
# the bytecode cache.
SETUP_REPEATS = 5
SMOKE_SETUP_REPEATS = 1
MIN_OPERATIONS = 2
# Iterations of the reference kernel, and a round figure near its time in
# seconds on the 2-core x86_64 host the benchmark was written on.
REF_ITERATIONS = 50_000
REF_KERNEL_S = 0.1

E2E_UNITS = {"setup_s": "s", "wall_ref_s": "s", "steps_per_ref_s": "1/s",
             "peak_rss_mb": "MB"}

# Span name (the resopt function called) -> per-layer metric.
SPAN_METRICS = {
    "cli.build_scenario": "cli.build_scenario_s",
    "cli.write_outputs": "cli.write_outputs_s",
    "plant.build": "plant.build_s",
    "graph.stationary_weighting": "graph.stationary_weighting_s",
    "graph.minimum_cut": "graph.minimum_cut_s",
    "graph.sample_switching_path": "graph.sample_switching_path_s",
    "attack.activity_series": "attack.activity_series_s",
    "attack.check_frequency_condition": "attack.frequency_check_s",
    "attack.check_duration_condition": "attack.duration_check_s",
    "cost.centralized_optimum": "cost.centralized_optimum_s",
    "sim.run": "sim.run_s",
    "sim.convergence_report": "sim.convergence_report_s",
}
LAYER_UNITS = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "cli.csv_bytes": "bytes",
    "cli.csv_mb_per_s": "MB/s",
    "graph.switches": "count",
    "attack.bursts": "count",
    "cost.grad_evals": "count-computed",
    "controller.broadcasts": "count",
    "controller.blocked_attempts": "count",
    "controller.broadcast_frac": "frac",
    "controller.blocked_frac": "frac",
    "sim.steps": "count",
    "sim.us_per_step": "us",
    "sim.history_mb": "MB",
    "sim.final_error": "1",
    "host.ref_kernel_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}


def import_workloads():
    """Import the benchmark's workloads against the resopt sources of this
    checkout, and fail when they are missing."""
    src = ROOT / "src"
    if not (src / "resopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no resopt sources under {src}")
    sys.path.insert(0, str(src))
    import resopt
    import workloads

    if Path(resopt.__file__).resolve().parent != (src / "resopt").resolve():
        raise SystemExit(f"error: resopt was imported from {resopt.__file__}, not {src}")
    return workloads


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "machine": platform.machine()}


def time_setup(workload: str, seed: int, smoke: bool) -> float:
    """One set-up of the workload in a fresh interpreter, in seconds."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed),
           "1" if smoke else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def reference_kernel() -> float:
    """Fixed work, no resopt code: small numpy vector updates, the kind of
    call that dominates a resopt operation.  Returns its time in seconds.

    Of the kernels tried (this one, one that adds interpreter float
    arithmetic and float formatting, and one twice as long), this one left
    the smallest run-to-run spread of the rescaled times on both workloads."""
    import numpy

    start = time.perf_counter()
    a = numpy.ones(4)
    for _ in range(REF_ITERATIONS):
        a = a * 1.0000001 + 0.0
    return time.perf_counter() - start


def layer_metrics(totals: dict, r) -> dict:
    """Per-layer metrics of one traced operation and its standalone calls."""
    m = {metric: totals.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    attempts = r.broadcasts + r.blocked_attempts
    m.update({
        "cli.csv_bytes": r.csv_bytes,
        "cli.csv_mb_per_s": (r.csv_bytes / 1e6 / m["cli.write_outputs_s"]
                             if r.csv_bytes else 0.0),
        "graph.switches": r.switches,
        "attack.bursts": r.bursts,
        "cost.grad_evals": r.grad_evals,
        "controller.broadcasts": r.broadcasts,
        "controller.blocked_attempts": r.blocked_attempts,
        "controller.broadcast_frac": r.broadcasts / r.grid_points,
        "controller.blocked_frac": r.blocked_attempts / attempts if attempts else 0.0,
        "sim.steps": r.steps,
        "sim.us_per_step": m["sim.run_s"] / r.steps * 1e6,
        "sim.history_mb": r.history_bytes / 1e6,
        "sim.final_error": r.final_error,
    })
    return m


def measure(wl, workloads, seed: int, seconds: float, trace: bool,
            smoke: bool, work_dir: Path) -> dict:
    doc = wl.document(seed, smoke)
    tolerance = math.inf if smoke else wl.tolerance
    # Warm-up on the smoke-size documents: first-call paths, allocator, caches.
    workloads.run_single(wl.document(seed, True), str(work_dir), math.inf,
                         workloads.NullTracer())
    setup_times = []
    if not trace:
        time_setup(wl.name, seed, smoke)  # writes the bytecode cache

    tracer = workloads.Tracer()
    # Operation times rescaled to the reference host; raw ones for the raw line.
    untraced_walls, traced_walls, raw_walls, layers = [], [], [], []
    attempted = failed = 0
    first = None
    iterations = []
    refs = [reference_kernel()]
    start = time.perf_counter()
    # Start another operation only if a typical one still ends within --seconds.
    while attempted < MIN_OPERATIONS or \
            time.perf_counter() - start + statistics.median(iterations) <= seconds:
        iteration_start = time.perf_counter()
        traced = trace and attempted % 2 == 1
        attempted += 1
        first_span = len(tracer.spans)
        r = None
        try:
            r = workloads.run_single(doc, str(work_dir), tolerance,
                                     tracer if traced else workloads.NullTracer())
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
        refs.append(reference_kernel())
        if r is not None and traced:
            with tracer.span("probe"):
                workloads.probe_layers(doc, r, tracer)
        if not trace:
            setup_times.append(time_setup(wl.name, seed, smoke))
        iterations.append(time.perf_counter() - iteration_start)
        if r is None:
            failed += 1
            continue
        wall_ref = r.wall_s * REF_KERNEL_S / statistics.mean(refs[-2:])
        if first is None:
            first = r
        if r.digest != first.digest:
            r.failures.append(f"digest {r.digest} != first {first.digest}")
        if r.final_error != first.final_error:
            r.failures.append(f"final_error {r.final_error!r} != first {first.final_error!r}")
        print(f"digest {wl.name} seed={seed} op={attempted} {r.digest} "
              f"wall_s={r.wall_s:.4f} wall_ref_s={wall_ref:.4f} traced={int(traced)}",
              flush=True)
        if r.failures:
            print(f"failed {wl.name} seed={seed} op={attempted}: {'; '.join(r.failures)}",
                  file=sys.stderr)
            failed += 1
            continue
        if traced:
            traced_walls.append(wall_ref)
            layers.append(layer_metrics(tracer.totals(first_span), r))
        else:
            untraced_walls.append(wall_ref)
            raw_walls.append(r.wall_s)
    while not trace and len(setup_times) < (SMOKE_SETUP_REPEATS if smoke else SETUP_REPEATS):
        setup_times.append(time_setup(wl.name, seed, smoke))

    if trace:
        (OUT_DIR / f"spans-{wl.name}-seed{seed}.json").write_text(
            json.dumps({"workload": wl.name, "seed": seed, "env": environment(),
                        "spans": tracer.spans}))
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]} \
            if layers else {}
        values["host.ref_kernel_s"] = statistics.median(refs)
        if traced_walls and untraced_walls:
            base = statistics.median(untraced_walls)
            values["trace.overhead_s"] = statistics.median(traced_walls) - base
            values["trace.overhead_frac"] = values["trace.overhead_s"] / base
        units = LAYER_UNITS
    else:
        values = {"setup_s": statistics.median(setup_times)}
        if untraced_walls:
            wall = statistics.median(untraced_walls)
            values.update({
                "wall_ref_s": wall,
                "steps_per_ref_s": first.steps / wall,
            })
            print(f"raw {wl.name} seed={seed} wall_s={statistics.median(raw_walls):.4f} "
                  f"ref_kernel_s={statistics.median(refs):.4f} operations={len(raw_walls)} "
                  f"setups={len(setup_times)}", flush=True)
        # ru_maxrss is in KiB on Linux.
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    return {"correct": failed == 0 and len(metrics) == len(units),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Run every workload at a tiny horizon and check the printed metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    interactions = json.loads((BENCH_DIR / "interactions.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    problems = []
    if set(interactions["workloads"]) != set(workload_names):
        problems.append("interactions.json workloads differ from BENCHMARK.json")
    for metric in spec["per_layer"]:
        for link in interactions["per_layer"].get(metric["name"], []):
            if link["metric"] not in e2e_names or not set(link["workloads"]) <= set(workload_names):
                problems.append(f"interactions.json: {metric['name']} links to {link}")
        if metric["name"] not in interactions["per_layer"]:
            problems.append(f"interactions.json: no entry for {metric['name']}")
    for name in workload_names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {got} != {want}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{name} trace={trace}: {result}")
            if not proc.stdout.startswith("env "):
                problems.append(f"{name} trace={trace}: no env line")
            if trace and "trace.overhead_s" not in result["metrics"]:
                problems.append(f"{name}: no tracing overhead reported")
            print(f"smoke {name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations", flush=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons; without --workload, check every workload")
    args = parser.parse_args()
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required")
        return smoke()

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        print("env " + json.dumps(environment()), flush=True)
        result = measure(workloads.WORKLOADS[args.workload], workloads, args.seed,
                         args.seconds, bool(args.trace), args.smoke, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
