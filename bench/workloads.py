"""Seeded task lists for the three benchmark workloads, with their output checks.

Every task calls tomoslice through public names only (``tomoslice.<name>``,
looked up at call time so the tracer's patches apply).  A task is split into
a timed ``run`` and an untimed ``check``; the check returns the task's output
bytes (compared across cycles and between traced and untraced passes) and an
error string, or None when the output is correct.

Task lists are cycled in order.  In each workload one body kind makes up at
least 60 % of a cycle and every other kind at least 20 %, so the median
latency falls inside the majority kind's band whichever way a later change
reorders the bands.
"""

from __future__ import annotations

import contextlib
import io
import json
import zlib
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.spatial import Delaunay

import tomoslice as ts
from tomoslice import bodies as ts_bodies

MOMENT_RTOL = 1e-9
REPLAY_TOL = 1e-6  # acceptance-test bound on the section replay error
FIT_TOL = 1e-6
SWEEP_POINTS = 96
SWEEP_DIRECTIONS = 3
SWEEP_M_MAX = 4
EXPONENT_TOL = 0.05
CONSTANT_RATIO_TOL = 0.02
MC_SIGMAS = 5.0  # 3 sigma would fail about 1 task in 300 by chance
MC_SAMPLES = 200_000


@dataclass(eq=False)
class Task:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]
    report_bytes: Callable[[Any], int] | None = None
    first_output: bytes | None = field(default=None, repr=False)


def _rng(*key):
    return np.random.Generator(np.random.Philox(list(key)))


def _direction(rng, n):
    return ts.Direction.from_vector(rng.standard_normal(n))


# ---------------------------------------------------------------- range-polytope


def _complete_homogeneous(values, k):
    """h_k(values) by Newton's identity k h_k = sum_i p_i h_{k-i}."""
    p = [float(np.sum(values**i)) for i in range(k + 1)]
    h = [1.0]
    for j in range(1, k + 1):
        h.append(sum(p[i] * h[j - i] for i in range(1, j + 1)) / j)
    return h[k]


def simplex_moment_oracle(vertices, xi, k):
    """Integral of (xi.x)^k over the hull of ``vertices``, summed over a
    Delaunay triangulation with the closed-form simplex moment
    vol(S) k! n! / (n+k)! h_k(xi.v_0, ..., xi.v_n)  (Baldoni, Berline,
    De Loera, Koeppe, Vergne, Math. Comp. 2011).  Shares no code with the
    section engines or the quadrature in tomoslice."""
    V = np.asarray(vertices, dtype=float)
    n = V.shape[1]
    coef = factorial(k) * factorial(n) / factorial(n + k)
    total = 0.0
    for simplex in Delaunay(V).simplices:
        P = V[simplex]
        vol = abs(np.linalg.det(P[1:] - P[0])) / factorial(n)
        total += vol * coef * _complete_homogeneous(P @ xi, k)
    return total


def _rigid_motion(body, rng):
    R = ts_bodies.random_rotation(body.n, seed=int(rng.integers(2**31)))
    return body.rotated(R).translated(rng.uniform(-0.5, 0.5, size=body.n))


def _moment_task(kind, label, body, xi, k):
    ref = simplex_moment_oracle(body.vertices, xi.components, k)
    heights = np.abs(body.vertices @ xi.components)
    # a first moment can sit near zero; judge it on the body's own scale
    scale = max(abs(ref), simplex_moment_oracle(body.vertices, xi.components, 0) * heights.max() ** k)

    def run():
        return ts.moment(body, xi, k)

    def check(value):
        err = abs(value - ref) / scale
        bad = None if err <= MOMENT_RTOL else f"moment off by {err:.3e} relative to the simplex oracle"
        return repr(float(value)).encode(), bad

    return Task(kind, label, run, check)


def build_range_polytope(seed, workdir=None):
    """15-task cycle: 9 cube moments, 3 simplex and 3 square, k = i mod 3."""
    cube = ts.Polytope.cube(3)
    simplex = ts.random_simplex(3, seed=2)  # the catalog's simplex3d
    square = ts.Polytope.cube(2)
    slots = [("cube3d", cube)] * 3 + [("simplex3d", simplex), ("square2d", square)]
    rng = _rng(seed, 1)
    tasks = []
    for i in range(15):
        kind, base = slots[i % 5]
        body = _rigid_motion(base, rng)
        xi = _direction(rng, body.n)
        tasks.append(_moment_task(kind, f"{kind}-{i}-k{i % 3}", body, xi, i % 3))
    return tasks


# ---------------------------------------------------------------- detect-sweep


def _sweep_population(sweep_seed):
    """scripts/run_detection_sweep.py population with 9 ellipsoids."""
    out = []
    for i in range(9):
        n = 2 + i % 3
        out.append(("ellipsoid", f"ellipsoid_{n}d_{i}", ts.random_ellipsoid(n, seed=sweep_seed + i)))
    out.append(("polytope", "cube_3d", ts.Polytope.cube(3)))
    out.append(("polytope", "square_2d", ts.Polytope.cube(2)))
    out.append(("polytope", "simplex_3d", ts.random_simplex(3, seed=sweep_seed + 100)))
    return out


def _sweep_task(kind, label, body, sweep_seed):
    crc_rng = np.random.default_rng([sweep_seed, zlib.crc32(label.encode())])
    dirs = [ts.Direction.from_vector(crc_rng.standard_normal(body.n)) for _ in range(SWEEP_DIRECTIONS)]
    expected_m = (1 if body.n % 2 else 2) if kind == "ellipsoid" else None

    def run():
        report = ts.is_ellipsoid(body, seed=sweep_seed)
        replay = None
        if report.accepted:
            replay = ts.section_consistency_check(body, report, num_probes=25, seed=sweep_seed)
        wins = []
        for d in dirs:
            prof = ts.profile(body, d, num_points=SWEEP_POINTS, margin=0.0)
            wins.append(ts.detect_min_m(prof, m_max=SWEEP_M_MAX, tol=FIT_TOL))
        return report, replay, wins

    def check(result):
        report, replay, wins = result
        ms = [None if w is None else w.m for w in wins]
        out = {
            "verdict": report.verdict,
            "linear_residual": report.linear_residual,
            "quadratic_residual": report.quadratic_residual,
            "replay": replay,
            "fits": [None if w is None else [w.m, w.degree, w.relative_residual] for w in wins],
        }
        bad = None
        if kind == "ellipsoid":
            if not report.accepted:
                bad = "ellipsoid rejected"
            elif not replay <= REPLAY_TOL:
                bad = f"replay error {replay:.3e} above {REPLAY_TOL}"
            elif any(m != expected_m for m in ms):
                bad = f"powers {ms}, expected m={expected_m}"
        elif report.accepted or any(m is not None for m in ms):
            bad = f"polytope not rejected: verdict {report.verdict}, powers {ms}"
        return json.dumps(out, sort_keys=True).encode(), bad

    return Task(kind, f"{label}@{sweep_seed}", run, check)


def build_detect_sweep(seed, workdir=None):
    """36-task cycle: the sweep population at three sweep seeds (27
    ellipsoids with n = 2..4, then cube, square and simplex each time)."""
    tasks = []
    for j in range(3):
        sweep_seed = 1000 * seed + j
        for kind, label, body in _sweep_population(sweep_seed):
            tasks.append(_sweep_task(kind, label, body, sweep_seed))
    return tasks


# ---------------------------------------------------------------- cli-oracles


class CliFailure(Exception):
    pass


def _csv(xi):
    return ",".join(repr(float(x)) for x in xi.components)


def run_cli(argv):
    """In-process ``tomoslice`` call; returns the report bytes.

    A non-zero exit code, or a SystemExit from argparse (whose usage errors
    exit with 2, the code the README reserves for a negative finding), is a
    failure."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ts.cli.main(argv)
    except SystemExit as exc:
        raise CliFailure(f"SystemExit({exc.code}) from {argv[0]}: {err.getvalue().strip()}") from None
    if code != 0:
        raise CliFailure(f"exit code {code} from {argv[0]}: {err.getvalue().strip()}")
    return out.getvalue().encode()


def _asymptote_bad(report_bytes, n):
    rep = json.loads(report_bytes)["report"]
    expected = (n - 1) / 2.0
    if abs(rep["estimated_exponent"] - expected) > EXPONENT_TOL:
        return f"exponent {rep['estimated_exponent']:.4f}, expected {expected}"
    if abs(rep["constant_ratio"] - 1.0) > CONSTANT_RATIO_TOL:
        return f"constant_ratio {rep['constant_ratio']:.4f}"
    return None


def _cli_check(task, outputs, bads):
    blob = b"\n".join(outputs)
    if task.first_output is None:
        task.first_output = blob
    elif blob != task.first_output:
        bads.append("report bytes differ from the first cycle")
    return blob, "; ".join(b for b in bads if b) or None


def _ellipsoid_cli_task(label, body, path, rng, task_seed):
    xi = _direction(rng, body.n)
    lo, hi = ts.chord_interval(body, xi)
    t = lo + (hi - lo) * rng.uniform(0.1, 0.9)
    argv = ["asymptote", "--body", str(path), f"--xi={_csv(xi)}"]

    def run():
        report = run_cli(argv)
        est, err = ts.section_volume_mc(body, xi, t, samples=MC_SAMPLES, seed=task_seed)
        return report, est, err

    task = Task("ellipsoid", label, run, None, report_bytes=lambda result: len(result[0]))

    def check(result):
        report, est, err = result
        exact = ts.section_volume(body, xi, t)
        bads = [_asymptote_bad(report, body.n)]
        if not abs(est - exact) <= MC_SIGMAS * err:
            bads.append(f"Monte Carlo {est:.6g} +- {err:.2g} vs exact {exact:.6g}")
        return _cli_check(task, [report, f"{est!r},{err!r}".encode()], bads)

    task.check = check
    return task


def _quadric_cli_task(label, body, path, rng):
    # a direction well inside the bounded-slice cone: mostly along +x_n
    v = np.append(rng.uniform(-0.25, 0.25, size=body.n - 1), 1.0)
    xi = ts.Direction.from_vector(v)
    argv_asym = ["asymptote", "--body", str(path), f"--xi={_csv(-xi)}"]
    argv_quad = ["quadric-check", "--body", str(path), f"--xi={_csv(xi)}"]

    def run():
        return run_cli(argv_asym), run_cli(argv_quad)

    task = Task("quadric", label, run, None, report_bytes=lambda result: len(result[0]) + len(result[1]))

    def check(result):
        asym, quad = result
        bads = [_asymptote_bad(asym, body.n)]
        verdict = json.loads(quad)["report"]["verdict"]
        if verdict != "conforms":
            bads.append(f"quadric verdict {verdict}")
        return _cli_check(task, [asym, quad], bads)

    task.check = check
    return task


def build_cli_oracles(seed, workdir):
    """15-task cycle: 9 ellipsoids (eight with n = 3, one with n = 4) and 6
    quadrics (3 paraboloids, 3 hyperboloid sheets), read from body files.
    The quadrics are the fast band, so the median sits low in the n = 3
    band, where a burst of load on the host moves it least."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 3)
    ellipsoids, quadrics = [], []
    for i, n in enumerate((3, 3, 3, 3, 4, 3, 3, 3, 3)):
        label = f"ellipsoid{n}d-{i}"
        body = ts.random_ellipsoid(n, seed=int(rng.integers(2**31)))
        path = workdir / f"{label}.json"
        ts.save_body(body, path)
        ellipsoids.append(_ellipsoid_cli_task(label, ts.load_body(path), path, rng, int(rng.integers(2**31))))
    for i in range(6):
        axes = rng.uniform(0.6, 1.6, size=2)
        if i % 2 == 0:
            label, body = f"paraboloid-{i}", ts.QuadricDomain("paraboloid", axes)
        else:
            label, body = f"hyperboloid-{i}", ts.QuadricDomain("hyperboloid-sheet", axes, float(rng.uniform(0.6, 1.6)))
        path = workdir / f"{label}.json"
        ts.save_body(body, path)
        quadrics.append(_quadric_cli_task(label, ts.load_body(path), path, rng))
    # three ellipsoids, then two quadrics, three times over
    return [task for j in range(3) for task in ellipsoids[3 * j : 3 * j + 3] + quadrics[2 * j : 2 * j + 2]]


# whole cycles per pass of a traced run: a fixed task list, so counts repeat
TRACE_CYCLES = {"range-polytope": 4, "detect-sweep": 8, "cli-oracles": 16}

BUILDERS = {
    "range-polytope": build_range_polytope,
    "detect-sweep": build_detect_sweep,
    "cli-oracles": build_cli_oracles,
}


def build(workload, seed, workdir):
    return BUILDERS[workload](seed, workdir)
