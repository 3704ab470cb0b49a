"""Workload process: set up one workload, then run it timed or traced.

Started by run.py with BLAS pinned to one thread:

    python3 bench/worker.py --workload W --seed N --seconds S --mode setup|timed|trace

Prints ``READY <json>`` as soon as set-up (import, inputs, one warm-up task
per kind) is done, so the launcher's clock from process start to READY is
the set-up time; in timed and trace mode it then prints ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"


def import_package():
    """Import tomoslice from this checkout's sources; return the time in ms."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import tomoslice

    ms = (perf_counter() - t0) * 1e3
    if not Path(tomoslice.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"tomoslice imported from {tomoslice.__file__}, not from this checkout")
    return ms


def calibrate():
    """Fixed pure-Python loop, in ms.  A diagnostic of machine speed only:
    it never divides a metric."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return (perf_counter() - t0) * 1e3


def machine():
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _describe(exc):
    return "".join(traceback.format_exception_only(exc)).strip()


def run_task(task):
    """Run and check one task; return (latency in s, result, output bytes,
    error or None).  Only the call into tomoslice is timed.  An exception
    from the call or from the check is a failed task, not a harness crash."""
    t0 = perf_counter()
    try:
        result = task.run()
    except Exception as exc:
        return perf_counter() - t0, None, b"", _describe(exc)
    latency = perf_counter() - t0
    try:
        output, err = task.check(result)
    except Exception as exc:
        return latency, result, b"", "check raised " + _describe(exc)
    return latency, result, output, err


def run_cycle(tasks, record, tracer=None):
    for task in tasks:
        if tracer is None:
            record(task, *run_task(task))
        else:
            with tracer.span("task." + task.kind):
                outcome = run_task(task)
            record(task, *outcome)


def tail_percentile(sorted_ms):
    """Highest integer percentile with at least 10 samples beyond it (nearest
    rank), and its value; (None, None) under 11 samples."""
    n = len(sorted_ms)
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return p, sorted_ms[rank - 1]
    return None, None


def timed(tasks, seconds):
    lat, kinds, failures = [], [], []

    def record(task, latency, result, output, err):
        lat.append(latency * 1e3)
        kinds.append(task.kind)
        if err is not None:
            failures.append(f"{task.label}: {err}")

    cycles = 0
    t0 = perf_counter()
    while not cycles or perf_counter() - t0 < seconds:  # whole cycles, so the mix is exact
        run_cycle(tasks, record)
        cycles += 1
    elapsed = perf_counter() - t0
    attempted, failed = len(lat), len(failures)
    ordered = sorted(lat)
    p_tail, tail_ms = tail_percentile(ordered)
    per_kind = {}
    for kind in sorted(set(kinds)):
        ms = sorted(x for x, k in zip(lat, kinds) if k == kind)
        per_kind[kind] = {
            "share": len(ms) / attempted,
            "median_ms": statistics.median(ms),
            "min_ms": ms[0],
            "max_ms": ms[-1],
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "cycles": cycles,
        "elapsed_s": elapsed,
        "tasks_per_s": (attempted - failed) / elapsed,
        "p50_ms": statistics.median(lat),
        "tail_percentile": p_tail,
        "tail_ms": tail_ms,
        "per_kind": per_kind,
    }


def traced(tasks, cycles, workload, seed):
    """Run ``cycles`` whole cycles, each once untraced and then once traced.

    Per-layer counts come from a fixed task list, so they repeat exactly.
    The untraced cycles give the reference outputs that the traced ones must
    reproduce byte for byte, and the tracing overhead; alternating the two
    lets both see the same machine load."""
    from tracer import Tracer

    tracer = Tracer()
    outputs = {False: [], True: []}
    rates = {False: [], True: []}
    failures = []
    report_bytes = [0]

    def record(task, latency, result, output, err):
        outputs[traced_cycle].append(output)
        if err is not None:
            failures.append(f"{task.label}: {err}")
        elif traced_cycle and task.report_bytes is not None:
            report_bytes[0] += task.report_bytes(result)

    for _ in range(cycles):
        for traced_cycle in (False, True):
            t0 = perf_counter()
            if traced_cycle:
                with tracer:
                    run_cycle(tasks, record, tracer)
            else:
                run_cycle(tasks, record)
            rates[traced_cycle].append(len(tasks) / (perf_counter() - t0))
    mismatched = sum(a != b for a, b in zip(outputs[False], outputs[True]))
    failed = len(failures) + mismatched
    if mismatched:
        failures.insert(0, f"{mismatched} traced outputs differ from untraced")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")
    layers = per_layer_metrics(tracer, report_bytes[0])
    layers["trace.overhead_frac"] = statistics.median(rates[True]) / statistics.median(rates[False])
    return {
        "attempted": 2 * cycles * len(tasks),
        "failed": failed,
        "failures": failures[:10],
        "cycles": cycles,
        "per_layer": layers,
        "absent": tracer.absent,
    }


def per_layer_metrics(tracer, report_bytes):
    spans = tracer.summary()

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    moments = get("radon.moment", "calls")
    searches = get("algfit.detect_min_m", "calls")
    samples = get("sections.mc", "work")
    return {
        "radon.moment.calls": moments,
        "radon.moment.self_ms": get("radon.moment", "self_ms"),
        "radon.moment.evals_per_call": ratio(tracer.under("radon.moment", "sections.section_volume")[1], moments),
        "sections.polytope.calls": get("sections.polytope", "calls"),
        "sections.polytope.self_ms": get("sections.polytope", "self_ms"),
        "sections.ellipsoid.calls": get("sections.ellipsoid", "calls"),
        "sections.ellipsoid.self_ms": get("sections.ellipsoid", "self_ms"),
        "sections.profile.self_ms": get("sections.profile", "self_ms"),
        "bodies.support.calls": get("bodies.support", "calls"),
        "bodies.support.self_ms": get("bodies.support", "self_ms"),
        "detect.is_ellipsoid.self_ms": get("detect.is_ellipsoid", "self_ms"),
        "detect.consistency.self_ms": get("detect.consistency", "self_ms"),
        "algfit.fit.calls": get("algfit.fit", "calls"),
        "algfit.fit.self_ms": get("algfit.fit", "self_ms"),
        "algfit.fits_per_search": ratio(tracer.under("algfit.detect_min_m", "algfit.fit")[0], searches),
        "bodies.contains.calls": get("bodies.contains", "calls"),
        "algfit.curvature.self_ms": get("algfit.curvature", "self_ms"),
        "algfit.exponent_estimate.self_ms": get("algfit.exponent_estimate", "self_ms"),
        "sections.mc.samples": samples,
        "sections.mc.self_ms": get("sections.mc", "self_ms"),
        "sections.mc.slab_frac": ratio(tracer.under("sections.mc", "bodies.contains_points")[1], samples),
        "bodies.load.self_ms": get("bodies.load", "self_ms"),
        "cli.run.self_ms": get("cli.run", "self_ms"),
        "cli.report_bytes": ratio(report_bytes, get("cli.run", "calls")),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    args = ap.parse_args(argv)

    import_ms = import_package()
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        tasks = workloads.build(args.workload, args.seed, workdir)
        warm_failures = []
        for kind in sorted({t.kind for t in tasks}):
            task = next(t for t in tasks if t.kind == kind)
            err = run_task(task)[3]
            if err is not None:
                warm_failures.append(f"{task.label}: {err}")
        # long-lived set-up objects need no more collector passes during timing
        gc.collect()
        gc.freeze()
        print("READY " + json.dumps({"import_ms": import_ms}), flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "timed":
            out = timed(tasks, args.seconds)
        else:
            out = traced(tasks, workloads.TRACE_CYCLES[args.workload], args.workload, args.seed)
        out["warmup_failures"] = warm_failures
        out["calibration_ms"] = calibrate()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["import_ms"] = import_ms
        out["machine"] = machine()
        print("RESULT " + json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
