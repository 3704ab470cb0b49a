"""Benchmark for tomoslice: three seeded closed-loop workloads, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload process runs alone, with
OpenBLAS and OpenMP pinned to one thread.  With ``--trace 0`` the launcher
starts the workload process SETUP_RUNS times: every start is timed from
process start to the end of set-up, and the last one goes on to the timed
loop.  With ``--trace 1`` one process runs a fixed number of cycles,
alternately untraced and traced, and reports the per-layer metrics.  The last line of standard
output is the result as one JSON object; the line before it holds the
details (machine, per-kind shares and medians, tail percentile, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("range-polytope", "detect-sweep", "cli-oracles")
SETUP_RUNS = 5
WORKER_LIMIT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_ms.p50": "ms",
    "task_ms.tail": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "radon.moment.calls": "count",
    "radon.moment.self_ms": "ms",
    "radon.moment.evals_per_call": "count",
    "sections.polytope.calls": "count",
    "sections.polytope.self_ms": "ms",
    "sections.ellipsoid.calls": "count",
    "sections.ellipsoid.self_ms": "ms",
    "sections.profile.self_ms": "ms",
    "bodies.support.calls": "count",
    "bodies.support.self_ms": "ms",
    "detect.is_ellipsoid.self_ms": "ms",
    "detect.consistency.self_ms": "ms",
    "algfit.fit.calls": "count",
    "algfit.fit.self_ms": "ms",
    "algfit.fits_per_search": "count",
    "bodies.contains.calls": "count",
    "algfit.curvature.self_ms": "ms",
    "algfit.exponent_estimate.self_ms": "ms",
    "sections.mc.samples": "count",
    "sections.mc.self_ms": "ms",
    "sections.mc.slab_frac": "ratio",
    "bodies.load.self_ms": "ms",
    "cli.run.self_ms": "ms",
    "cli.report_bytes": "B",
    "setup.import_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("TOMOSLICE_THREADS", None)  # recorded in every CLI report
    return env


def start_worker(args, mode):
    """Run one workload process; return (set-up seconds, READY data, RESULT data)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        ready = result = None
        setup_s = None
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                setup_s = perf_counter() - t0
                ready = json.loads(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise WorkerError(f"{mode} worker for {args.workload} exited with code {code}")
    return setup_s, ready, result


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tomoslice" / "__init__.py").is_file():
        print(f"error: no tomoslice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            _, ready, result = start_worker(args, "trace")
            layers = dict(result["per_layer"], **{"setup.import_ms": ready["import_ms"]})
            metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
            details = result
        else:
            setups = [start_worker(args, "setup")[0] for _ in range(SETUP_RUNS - 1)]
            setup_s, ready, result = start_worker(args, "timed")
            setups.append(setup_s)
            values = {
                "setup_s": statistics.median(setups),
                "tasks_per_s": result["tasks_per_s"],
                "task_ms.p50": result["p50_ms"],
                "task_ms.tail": result["tail_ms"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
            details = dict(result, setup_runs_s=setups)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # a warm-up failure is only a diagnostic: the same task fails again when timed
    failed, attempted = details["failed"], details["attempted"]
    details.update(workload=args.workload, seed=args.seed, trace=args.trace)
    details["failed_frac"] = failed / attempted
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
