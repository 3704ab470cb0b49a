"""End-to-end acceptance checks.

One test per criterion; each prints a single summary line with the measured
quantities so a verbose run reads as a ten-line scorecard.  Tolerances here
are contractual: they are not to be loosened to make a failing check pass.
"""

import json
import math

import numpy as np
import pytest

from tomoslice import cli
from tomoslice.algfit import (
    detect_min_m,
    exponent_estimate,
    fit_power_polynomial,
    normalized_constant_from_value,
    predicted_boundary_constant,
    root_structure,
)
from tomoslice.bodies import (
    Direction,
    Polytope,
    QuadricDomain,
    chord_interval,
    random_ellipsoid,
    random_rotation,
    random_simplex,
    save_body,
)
from tomoslice.detect import is_ellipsoid
from tomoslice.radon import range_test
from tomoslice.sections import profile, section_volume, section_volume_mc


def normalized_section_constant(body, d):
    """The normalized section constant along d, at the chord midpoint."""
    lo, hi = chord_interval(body, d)
    mid = 0.5 * (lo + hi)
    return normalized_constant_from_value(section_volume(body, d, mid), mid, lo, hi, body.n)


def canonical_pairs():
    """Ten frozen ellipsoids (n cycling 2..5) with five directions each."""
    pairs = []
    for b in range(10):
        n = (2, 3, 4, 5)[b % 4]
        body = random_ellipsoid(n, seed=5000 + b)
        rng = np.random.default_rng(6000 + b)
        dirs = [Direction.from_vector(rng.standard_normal(n)) for _ in range(5)]
        pairs.append((body, dirs))
    return pairs


def test_criterion_01_exact_sections_match_monte_carlo():
    # 20 seeded ellipsoids in R^2 and R^3, 5 probes each, 1e6 samples, 3 sigma
    checks = hits = 0
    for n in (2, 3):
        for i in range(10):
            body = random_ellipsoid(n, seed=100 * n + i)
            rng = np.random.default_rng(777 + 10 * n + i)
            for j in range(5):
                d = Direction.from_vector(rng.standard_normal(n))
                lo, hi = chord_interval(body, d)
                w = hi - lo
                t = rng.uniform(lo + 0.05 * w, hi - 0.05 * w)
                exact = section_volume(body, d, t)
                est, err = section_volume_mc(
                    body, d, t, samples=1_000_000, seed=1000 * n + 10 * i + j
                )
                checks += 1
                if abs(est - exact) <= 3.0 * max(err, 1e-15):
                    hits += 1
    assert checks == 100
    assert hits >= 95
    print(f"criterion 01 PASS: {hits}/{checks} Monte Carlo checks within 3 sigma")


def test_criterion_02_minimal_power_law():
    worst = 0.0
    for n in (2, 3, 4, 5):
        want_m = 1 if n % 2 else 2
        want_deg = want_m * (n - 1)
        for s in range(3):
            body = random_ellipsoid(n, seed=200 + 10 * n + s)
            d = Direction.from_vector(np.random.default_rng(300 + 10 * n + s).standard_normal(n))
            prof = profile(body, d, num_points=96, margin=0.0)
            win = detect_min_m(prof, m_max=4, tol=1e-9)
            assert win is not None, f"no power found for n={n}"
            assert win.m == want_m
            assert win.degree == want_deg
            assert win.relative_residual < 1e-9
            worst = max(worst, win.relative_residual)
    print(f"criterion 02 PASS: m,D law holds for n=2..5, worst residual {worst:.2e}")


def test_criterion_03_effective_degree_equals_bound():
    pairs = 0
    for body, dirs in canonical_pairs():
        n = body.n
        m = 1 if n % 2 else 2
        bound = m * (n - 1)
        for d in dirs:
            prof = profile(body, d, num_points=96, margin=0.0)
            rep = fit_power_polynomial(prof, m, bound + 3)
            assert rep.effective_degree == bound, (
                f"n={n} m={m}: effective degree {rep.effective_degree} != {bound}"
            )
            assert rep.degree_bound_ok
            pairs += 1
    assert pairs == 50
    print(f"criterion 03 PASS: effective degree == m(n-1) on {pairs}/50 pairs")


def test_criterion_04_root_structure_and_constant():
    worst_mismatch = worst_root = worst_spread = 0.0
    for body, dirs in canonical_pairs():
        n = body.n
        m = 1 if n % 2 else 2
        constants = []
        for d in dirs:
            prof = profile(body, d, num_points=96, margin=0.0)
            rep = fit_power_polynomial(prof, m, m * (n - 1))
            h_plus = body.support(d.components)
            h_minus = body.support(-d.components)
            rr = root_structure(rep, h_plus, h_minus)
            assert rr.verdict == "conforms"
            assert rr.mismatch < 1e-8
            width = h_plus + h_minus
            roots = sorted(r for r, _ in rr.roots)
            err = max(abs(roots[0] + h_minus), abs(roots[-1] - h_plus)) / width
            assert err < 1e-8
            worst_mismatch = max(worst_mismatch, rr.mismatch)
            worst_root = max(worst_root, err)
            constants.append(normalized_section_constant(body, d))
        constants = np.asarray(constants)
        spread = float(np.ptp(constants)) / abs(float(constants.mean()))
        assert spread < 1e-8
        worst_spread = max(worst_spread, spread)
    print(
        "criterion 04 PASS: mismatch<=%.1e roots<=%.1e width, constant spread<=%.1e"
        % (worst_mismatch, worst_root, worst_spread)
    )


def test_criterion_05_moment_range_conditions():
    worst_ell = 0.0
    for s in range(5):
        body = random_ellipsoid(3, seed=900 + s)
        vols = []
        for k in (0, 1, 2):
            rep = range_test(body, k, num_directions=40, seed=s)
            assert rep.relative_residual is not None
            assert rep.relative_residual < 1e-8
            worst_ell = max(worst_ell, rep.relative_residual)
            if k == 0:
                vals = rep.moments
                spread = float(np.ptp(vals)) / float(np.mean(vals))
                assert spread < 1e-8
                vols.append(float(np.mean(vals)))
        assert vols[0] == pytest.approx(body.volume, rel=1e-9)
    cube = Polytope.cube(3)
    worst_cube = 0.0
    for k in (0, 1, 2):
        rep = range_test(cube, k, num_directions=40, seed=1)
        if rep.relative_residual is None:
            # centered body, odd k: every moment vanishes; judge absolutely
            assert rep.absolute_residual < 1e-6
            worst_cube = max(worst_cube, rep.absolute_residual)
        else:
            assert rep.relative_residual < 1e-6
            worst_cube = max(worst_cube, rep.relative_residual)
    print(
        f"criterion 05 PASS: ellipsoid residual<={worst_ell:.1e}, cube<={worst_cube:.1e}"
    )


def test_criterion_06_recovery_round_trip():
    worst_c = worst_s = 0.0
    for s in range(20):
        base = random_ellipsoid(3, seed=1500 + s)
        Q = random_rotation(3, seed=1600 + s)
        shift = np.random.default_rng(1700 + s).uniform(-1.0, 1.0, size=3)
        body = base.rotated(Q).translated(shift)
        rep = is_ellipsoid(body, seed=s)
        assert rep.accepted, f"seed {s} rejected"
        c_err = np.linalg.norm(rep.recovered_center - body.center) / (
            1.0 + np.linalg.norm(body.center)
        )
        s_err = np.linalg.norm(rep.recovered_shape - body.shape) / np.linalg.norm(body.shape)
        assert c_err < 1e-6
        assert s_err < 1e-6
        worst_c = max(worst_c, c_err)
        worst_s = max(worst_s, s_err)
    cube_rep = is_ellipsoid(Polytope.cube(3), seed=0)
    simplex_rep = is_ellipsoid(random_simplex(3, seed=3), seed=0)
    assert cube_rep.verdict == "reject" and cube_rep.quadratic_residual > 1e-2
    assert simplex_rep.verdict == "reject" and simplex_rep.quadratic_residual > 1e-2
    print(
        "criterion 06 PASS: 20/20 accepted (center<=%.1e shape<=%.1e), "
        "cube %.2f / simplex %.2f rejected"
        % (worst_c, worst_s, cube_rep.quadratic_residual, simplex_rep.quadratic_residual)
    )


def _asymptote_cases():
    """Random ellipsoids in n = 2, 3, 4, then paraboloids and hyperboloid
    sheets along a direction of their bounded-slice cone (mostly -x_n, as in
    the benchmark's quadric tasks)."""
    for n in (2, 3, 4):
        for s in range(5):
            body = random_ellipsoid(n, seed=1900 + 10 * n + s)
            yield body, Direction.from_vector(np.random.default_rng(2000 + 10 * n + s).standard_normal(n))
    for s in range(6):
        rng = np.random.default_rng(2100 + s)
        axes = rng.uniform(0.6, 1.6, size=2)
        if s % 2 == 0:
            body = QuadricDomain("paraboloid", axes)
        else:
            body = QuadricDomain("hyperboloid-sheet", axes, float(rng.uniform(0.6, 1.6)))
        yield body, Direction.from_vector(-np.append(rng.uniform(-0.25, 0.25, size=2), 1.0))


def test_criterion_07_boundary_asymptotics():
    worst_exp = worst_const = 0.0
    for body, d in _asymptote_cases():
        expected = (body.n - 1) / 2.0
        # the default window, then the asymptote subcommand's window
        rep = exponent_estimate(body, d)
        rep2 = exponent_estimate(body, d, window=(1e-4, 1e-3))
        exp_err = max(abs(r.estimated_exponent - expected) for r in (rep, rep2))
        assert exp_err < 0.05
        want = predicted_boundary_constant(body, d)
        const_err = abs(rep2.estimated_constant - want) / want
        assert const_err < 0.02
        worst_exp = max(worst_exp, exp_err)
        worst_const = max(worst_const, const_err)
    print(
        "criterion 07 PASS: exponent within %.3f of (n-1)/2, constant within %.2f%%"
        % (worst_exp, 100 * worst_const)
    )


def test_criterion_08_quadric_square_sufficiency():
    xi = Direction.from_vector([0.0, 0.0, 1.0])
    worst = 0.0
    for body in (
        QuadricDomain("paraboloid", np.array([1.0, 1.0])),
        QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.0]), 1.0),
    ):
        report = cli.quadric_check(body, xi)
        assert report["verdict"] == "conforms"
        for row in report["results"]:
            assert row["sufficient"]
            assert row["relative_residual"] < 1e-8
            worst = max(worst, row["relative_residual"])
    print(f"criterion 08 PASS: both quadrics conform, residual<={worst:.1e}")


def test_criterion_09_cube_negative_control():
    cube = Polytope.cube(3)
    d = Direction.from_vector([1.0, 1.0, 1.0])
    prof = profile(cube, d, num_points=96, margin=0.0)
    assert detect_min_m(prof, m_max=4, tol=1e-6) is None
    best = min(
        fit_power_polynomial(prof, m, m * 2).relative_residual for m in (1, 2, 3, 4)
    )
    assert best > 1e-3
    print(f"criterion 09 PASS: cube has no power fit, best residual {best:.2e}")


def test_criterion_10_deterministic_reports(tmp_path):
    save_body(
        random_ellipsoid(3, seed=4).translated([0.2, -0.1, 0.3]), tmp_path / "ell.json"
    )
    save_body(QuadricDomain("paraboloid", np.array([1.0, 1.0])), tmp_path / "par.json"
    )
    jobs = [
        ["detect", "--body", "ell.json", "--seed", "17"],
        ["profile", "--body", "ell.json", "--xi", "0.2,-0.5,0.8", "--grid", "24"],
        ["moments", "--body", "ell.json", "--directions", "30", "--seed", "17"],
        ["algfit", "--body", "ell.json", "--xi", "0.2,-0.5,0.8"],
        ["asymptote", "--body", "ell.json", "--xi", "0.2,-0.5,0.8"],
        ["quadric-check", "--body", "par.json", "--xi", "0,0,1"],
    ]
    for job in jobs:
        blobs = []
        for run in range(2):
            out = tmp_path / f"out_{run}.json"
            argv = [
                str(tmp_path / a) if a.endswith(".json") else a for a in job
            ] + ["--out", str(out)]
            assert cli.main(argv) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{job[0]} report not byte-identical"
    print("criterion 10 PASS: all six subcommands byte-identical across reruns")
