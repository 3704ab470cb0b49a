import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tomoslice.bodies as bodies_module
import tomoslice.detect as detect_module
import tomoslice.radon as radon_module
import tomoslice.sections as sections_module
from tomoslice import cli
from tomoslice.bodies import (
    Direction,
    Ellipsoid,
    InfiniteSupportError,
    Polytope,
    QuadricDomain,
    chord_interval,
    random_ellipsoid,
    random_rotation,
    random_simplex,
    sample_directions,
    save_body,
)
from tomoslice.detect import (
    EllipsoidReport,
    SectionConstantError,
    is_ellipsoid,
    section_consistency_check,
)
from tomoslice.algfit import detect_min_m
from tomoslice.sections import profile, section_volume


def test_support_difference_recovers_double_center():
    body = random_ellipsoid(3, seed=5)
    rep = is_ellipsoid(body, num_directions=40, seed=1)
    assert rep.e == pytest.approx(2.0 * body.center, abs=1e-10)
    assert rep.linear_residual < 1e-10


def test_quadratic_fit_recovers_inverse_shape():
    body = random_ellipsoid(3, seed=6)
    rep = is_ellipsoid(body, num_directions=60, seed=2)
    assert rep.quadratic_residual < 1e-10
    assert np.linalg.inv(rep.S) == pytest.approx(body.shape, rel=1e-8)


def test_accepts_random_ellipsoids():
    for seed in range(8):
        body = random_ellipsoid(3, seed=seed)
        rep = is_ellipsoid(body, seed=seed)
        assert isinstance(rep, EllipsoidReport)
        assert rep.verdict == "accept"
        assert rep.recovered_center == pytest.approx(body.center, abs=1e-8)
        assert rep.recovered_shape == pytest.approx(body.shape, rel=1e-6)


def test_accepts_in_other_dimensions():
    for n in (2, 4):
        body = random_ellipsoid(n, seed=10 + n)
        rep = is_ellipsoid(body, seed=3)
        assert rep.accepted
        assert rep.recovered_shape == pytest.approx(body.shape, rel=1e-6)


def test_rejects_cube_and_simplex():
    cube = Polytope.cube(3)
    rep = is_ellipsoid(cube, seed=0)
    assert rep.verdict == "reject"
    assert rep.quadratic_residual > 1e-2
    assert rep.recovered_shape is None
    simplex = random_simplex(3, seed=3)
    rep2 = is_ellipsoid(simplex, seed=0)
    assert rep2.verdict == "reject"
    assert rep2.quadratic_residual > 1e-2


def test_detection_rotation_equivariance():
    body = random_ellipsoid(3, seed=44)
    Q = random_rotation(3, seed=45)
    rep = is_ellipsoid(body, seed=7)
    rot = is_ellipsoid(body.rotated(Q), seed=7)
    assert rot.accepted
    assert rot.recovered_center == pytest.approx(Q @ rep.recovered_center, abs=1e-8)
    assert rot.recovered_shape == pytest.approx(
        Q @ rep.recovered_shape @ Q.T, rel=1e-6
    )


def test_detection_translation_equivariance():
    body = random_ellipsoid(3, seed=46)
    shift = np.array([0.9, -0.2, 0.4])
    rep = is_ellipsoid(body, seed=7)
    moved = is_ellipsoid(body.translated(shift), seed=7)
    assert moved.accepted
    assert moved.recovered_center == pytest.approx(rep.recovered_center + shift, abs=1e-10)
    assert moved.recovered_shape == pytest.approx(rep.recovered_shape, rel=1e-8)


def test_detection_scaling_rule():
    body = random_ellipsoid(3, seed=47)
    rep = is_ellipsoid(body, seed=7)
    scaled = is_ellipsoid(body.scaled(2.0), seed=7)
    assert scaled.accepted
    assert scaled.recovered_center == pytest.approx(2.0 * rep.recovered_center, abs=1e-10)
    assert scaled.recovered_shape == pytest.approx(0.25 * rep.recovered_shape, rel=1e-8)


def test_verdict_stable_across_seeds():
    body = random_ellipsoid(3, seed=48)
    cube = Polytope.cube(3)
    for seed in range(20):
        assert is_ellipsoid(body, seed=seed).accepted
        assert not is_ellipsoid(cube, seed=seed).accepted


def test_direction_budget_validation():
    body = random_ellipsoid(3, seed=2)
    # n(n+1) + 2 = 14: one antithetic pair more than twice S's 6 unknowns
    for num in (4, 8, 12, 13):
        with pytest.raises(ValueError, match="^num_directions must be an integer >= 14"):
            is_ellipsoid(body, num_directions=num, seed=0)
    assert is_ellipsoid(body, num_directions=14, seed=0).accepted


def test_recovered_body_reproduces_sections():
    body = random_ellipsoid(3, seed=51)
    rep = is_ellipsoid(body, seed=4)
    err = section_consistency_check(body, rep, num_probes=50, seed=0)
    assert err < 1e-6
    clone = rep.recovered_body()
    d = Direction.from_vector([0.2, -0.7, 0.5])
    lo, hi = chord_interval(body, d)
    t = 0.3 * lo + 0.7 * hi
    assert section_volume(clone, d, t) == pytest.approx(
        section_volume(body, d, t), rel=1e-8
    )


def test_section_consistency_rejects_varying_constant():
    cube = Polytope.cube(3)
    fake = is_ellipsoid(random_ellipsoid(3, seed=1), seed=0)
    with pytest.raises(SectionConstantError):
        section_consistency_check(cube, fake, num_probes=30, seed=0)


def test_report_serialization():
    rep = is_ellipsoid(random_ellipsoid(3, seed=9), seed=2)
    d = rep.to_dict()
    assert d["verdict"] == "accept"
    assert len(d["recovered_center"]) == 3
    assert d["seed"] == 2


def test_is_ellipsoid_makes_one_chord_pass(monkeypatch):
    passes = {Ellipsoid: [], Polytope: []}
    for cls, calls in passes.items():
        real = cls._extent

        def counting(self, D, real=real, calls=calls):
            calls.append(D.shape)
            return real(self, D)

        def no_support(self, v):
            raise AssertionError("support called")

        monkeypatch.setattr(cls, "_extent", counting)
        monkeypatch.setattr(cls, "support", no_support)
    body = random_ellipsoid(3, seed=5)
    for num in (40, 200, 1000):
        passes[Ellipsoid].clear()
        report = is_ellipsoid(body, num_directions=num, seed=1)
        assert report.accepted
        # h(xi) and h(-xi), read by both the center and the quadratic form,
        # from one chord per direction
        assert passes[Ellipsoid] == [(num, 3)]
        passes[Ellipsoid].clear()
        section_consistency_check(body, report, num_probes=25, seed=0)
        assert passes[Ellipsoid] == [(25, 3)]
    assert not is_ellipsoid(Polytope.cube(3), num_directions=60, seed=0).accepted
    assert passes[Polytope] == [(60, 3)]


def _scalar_replay(body, recovered, num_probes, seed):
    """The replay as a loop of scalar draws: direction, chord, then offset."""
    rng = np.random.Generator(np.random.Philox(seed))
    max_err = 0.0
    for _ in range(num_probes):
        g = rng.standard_normal(body.n)
        d = Direction(g / np.linalg.norm(g))
        lo, hi = chord_interval(body, d)
        width = hi - lo
        t = rng.uniform(lo + 0.1 * width, hi - 0.1 * width)
        a_in = section_volume(body, d, t)
        max_err = max(max_err, abs(section_volume(recovered, d, t) - a_in) / a_in)
    return max_err


def test_consistency_check_keeps_the_scalar_probe_stream():
    for n in (2, 3, 4):
        body = random_ellipsoid(n, seed=60 + n)
        report = is_ellipsoid(body, seed=3)
        # a recovered shape off by 1 % makes every probe's error visible
        off = dataclasses.replace(report, recovered_shape=1.01 * report.recovered_shape)
        got = section_consistency_check(body, off, num_probes=40, seed=7)
        want = _scalar_replay(body, off.recovered_body(), 40, 7)
        assert got > 1e-3
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_consistency_check_equals_the_scalar_replay_with_cold_and_warm_caches():
    for n in (2, 3, 4):
        body = random_ellipsoid(n, seed=70 + n)
        report = is_ellipsoid(body, seed=4)
        off = dataclasses.replace(report, recovered_shape=1.01 * report.recovered_shape)
        want = _scalar_replay(body, off.recovered_body(), 30, 9)
        detect_module._probe_set.cache_clear()
        cold = section_consistency_check(body, off, num_probes=30, seed=9)
        warm = section_consistency_check(body, off, num_probes=30, seed=9)
        assert detect_module._probe_set.cache_info().hits >= 1
        assert cold == warm == want


def _fresh_probes(n, num_probes, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    draws = [(rng.standard_normal(n), rng.random()) for _ in range(num_probes)]
    G = np.array([g for g, _ in draws])
    return G / np.sqrt(np.vecdot(G, G))[:, None], np.array([f for _, f in draws])


def test_cached_samples_are_read_only_and_equal_a_fresh_build():
    for n in (2, 3, 4, 5):
        for count, seed in ((2 * n * (n + 1), 0), (200, 7)):
            center, shape = detect_module._direction_set(n, count, seed)
            fresh = sample_directions(n, count, seed=seed, antithetic=True)
            fresh_center, fresh_shape = detect_module._support_fits(fresh.copy())
            assert center.design.tobytes() == fresh.tobytes()
            quadratic = radon_module.monomial_design_matrix(fresh, radon_module.homogeneous_exponents(n, 2))
            assert shape.design.tobytes() == quadratic.tobytes()
            assert center.pinv.tobytes() == fresh_center.pinv.tobytes()
            assert shape.pinv.tobytes() == fresh_shape.pinv.tobytes()
            assert (center.rank, shape.rank) == (n, n * (n + 1) // 2)
            probe_dirs, fracs = detect_module._probe_set(n, count, seed)
            want_dirs, want_fracs = _fresh_probes(n, count, seed)
            assert probe_dirs.tobytes() == want_dirs.tobytes()
            assert fracs.tobytes() == want_fracs.tobytes()
            for arr in (center.design, center.pinv, shape.design, shape.pinv, probe_dirs, fracs):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
            # the public sampler still hands out a fresh, writable array
            fresh[0] = 0.0
            assert detect_module._direction_set(n, count, seed)[0].design.tobytes() == center.design.tobytes()


def test_cached_samples_pass_the_direction_check():
    """``is_ellipsoid`` and the replay take their chords without the
    direction check (``_chord_rows``); that is sound because every cached
    sample set passes it."""
    for n in range(2, 7):
        for count in (n * (n + 1) + 2, 57, 200):
            for seed in (0, 3, 11):
                dirs = detect_module._direction_set(n, count, seed)[0].design
                assert bodies_module._direction_rows(dirs, n)[0].tobytes() == dirs.tobytes()
        for count in (1, 25, 50):
            for seed in (0, 3, 11):
                probes = detect_module._probe_set(n, count, seed)[0]
                assert bodies_module._direction_rows(probes, n)[0].tobytes() == probes.tobytes()


def test_detection_checks_only_the_callers_directions(monkeypatch):
    """``bodies._direction_rows`` runs 0 times in ``is_ellipsoid`` and in the
    replay, whose directions the library made, and once in ``profile``, its
    own check of the caller's direction."""
    reads = []
    real_rows = bodies_module._direction_rows

    def counting_rows(xi, n):
        reads.append(np.shape(xi))
        return real_rows(xi, n)

    for module in (bodies_module, sections_module, radon_module):
        monkeypatch.setattr(module, "_direction_rows", counting_rows)
    for body in [random_ellipsoid(n, seed=40 + n) for n in (2, 3, 4)] + [Polytope.cube(3)]:
        n = body.n
        reads.clear()
        report = is_ellipsoid(body, seed=1)
        assert reads == []
        if report.accepted:
            section_consistency_check(body, report, num_probes=25, seed=1)
            assert reads == []
        reads.clear()
        xi = np.arange(1.0, n + 1.0)
        profile(body, xi / np.linalg.norm(xi), num_points=96, margin=0.0)
        assert reads == [(n,)]
    # the cube, last, took the rejected branch
    assert report.verdict == "reject"


def _lstsq_support_fits(body, num_directions, seed):
    """e and S of the two support stages, each solved by np.linalg.lstsq.

    The quadratic stage has its own design, independent of the package's:
    the columns xi_i^2, then 2 xi_i xi_j for i < j, so each coefficient is
    an entry of S as it stands."""
    n = body.n
    dirs = sample_directions(n, num_directions, seed=seed, antithetic=True)
    lo, hi = chord_interval(body, dirs)
    e = np.linalg.lstsq(dirs, hi + lo, rcond=None)[0]
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    design = np.column_stack([dirs[:, i] ** 2 if i == j else 2.0 * dirs[:, i] * dirs[:, j] for i, j in pairs])
    coef = np.linalg.lstsq(design, (hi - 0.5 * dirs @ e) ** 2, rcond=None)[0]
    S = np.zeros((n, n))
    for (i, j), val in zip(pairs, coef):
        S[i, j] = S[j, i] = val
    return e, S


def test_support_fits_agree_with_lstsq():
    rng = np.random.default_rng(27)
    for n in (2, 3, 4, 5):
        cube = Polytope.cube(n).rotated(random_rotation(n, seed=n)).translated(rng.uniform(-1.0, 1.0, n))
        ellipsoids = [random_ellipsoid(n, seed=80 + n), random_ellipsoid(n, seed=90 + n)]
        for body in ellipsoids + [cube]:
            for num, seed in ((n * (n + 1) + 2, 1), (200, 0)):
                report = is_ellipsoid(body, num_directions=num, seed=seed)
                e, S = _lstsq_support_fits(body, num, seed)
                assert np.abs(report.e - e).max() <= 1e-12 * np.abs(e).max()
                assert np.abs(report.S - S).max() <= 1e-12 * np.abs(S).max()
        # the smallest direction count may still fit a polytope; 200 tell the cube
        assert [is_ellipsoid(b).accepted for b in ellipsoids + [cube]] == [True, True, False]


@pytest.mark.parametrize("seed", [-1, 1.0, 2.5, True, None, "0"])
def test_seed_must_be_a_non_negative_integer(seed):
    body = random_ellipsoid(2, seed=3)
    report = is_ellipsoid(body, seed=0)
    calls = (
        lambda: is_ellipsoid(body, seed=seed),
        lambda: section_consistency_check(body, report, seed=seed),
    )
    for call in calls:
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            call()


def test_consistency_check_rejects_unbounded_probe():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    report = is_ellipsoid(random_ellipsoid(3, seed=1), seed=0)
    with pytest.raises(InfiniteSupportError):
        section_consistency_check(par, report, num_probes=10, seed=0)


def test_consistency_check_makes_two_section_calls(monkeypatch):
    calls = []
    real = detect_module._section_rows

    def counting(body, D, ts):
        calls.append((body, np.shape(D), np.shape(ts)))
        return real(body, D, ts)

    monkeypatch.setattr(detect_module, "_section_rows", counting)
    body = random_ellipsoid(3, seed=5)
    report = is_ellipsoid(body, seed=1)
    for num in (25, 50):
        calls.clear()
        section_consistency_check(body, report, num_probes=num, seed=0)
        # the input body at each offset and chord midpoint, then the recovery
        shapes = [(shape_xi, shape_t) for _, shape_xi, shape_t in calls]
        assert shapes == [((num, 3), (num, 2)), ((num, 3), (num, 1))]
        assert calls[0][0] is body
        recovered = calls[1][0]
        assert isinstance(recovered, Ellipsoid) and recovered is not body
        assert np.array_equal(recovered.center, report.recovered_center)
        assert np.array_equal(recovered.shape, report.recovered_shape)


@pytest.mark.parametrize("num_probes", [0, -3, 2.5, True, None])
def test_consistency_check_rejects_bad_probe_count(num_probes):
    body = random_ellipsoid(3, seed=5)
    report = is_ellipsoid(body, seed=1)
    with pytest.raises(ValueError, match="num_probes"):
        section_consistency_check(body, report, num_probes=num_probes, seed=0)


def test_is_ellipsoid_builds_one_direction_set(monkeypatch):
    built = []
    real = detect_module.sample_directions
    real_svd = np.linalg.svd
    svds = []

    def counting(n, count, seed=0, antithetic=False):
        built.append((n, count, seed))
        return real(n, count, seed=seed, antithetic=antithetic)

    def counting_svd(a, *args, **kwargs):
        svds.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    def fail(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return call

    # building a polytope checks its rank, so the cube is built first
    cube = Polytope.cube(3)
    monkeypatch.setattr(detect_module, "sample_directions", counting)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "matrix_rank", fail("matrix_rank"))
    monkeypatch.setattr(np.linalg, "lstsq", fail("lstsq"))
    cache = detect_module._direction_set
    cache.cache_clear()
    for n in (2, 3, 4):
        built.clear()
        svds.clear()
        misses = cache.cache_info().misses
        body = random_ellipsoid(n, seed=n)
        assert is_ellipsoid(body, num_directions=120, seed=2).accepted
        assert built == [(n, 120, 2)]
        # one factorization per design: the directions and the quadratic one
        assert svds == [(120, n), (120, n * (n + 1) // 2)]
        # the same key again builds nothing
        assert is_ellipsoid(body, num_directions=120, seed=2).accepted
        assert is_ellipsoid(body, tol=1e-4, num_directions=120, seed=2).accepted
        assert built == [(n, 120, 2)]
        assert len(svds) == 2
        assert cache.cache_info().misses - misses == 1
    built.clear()
    assert not is_ellipsoid(cube, seed=0).accepted
    assert not is_ellipsoid(cube, seed=0).accepted
    assert built == [(3, 200, 0)]
    cache.cache_clear()


def test_planar_direction_set_is_rank_deficient(monkeypatch):
    def planar(n, num_directions, seed):
        angle = np.linspace(0.0, 2.0 * np.pi, num_directions, endpoint=False)
        dirs = np.column_stack([np.cos(angle), np.sin(angle), np.zeros((num_directions, n - 2))])
        return detect_module._support_fits(dirs)

    def axial(n, num_directions, seed):
        # +-e_i only: the center fit has full rank, every cross term vanishes
        return detect_module._support_fits(np.resize(np.vstack([np.eye(n), -np.eye(n)]), (num_directions, n)))

    def no_rank(*args, **kwargs):
        raise AssertionError("matrix_rank called")

    monkeypatch.setattr(np.linalg, "matrix_rank", no_rank)
    body = random_ellipsoid(3, seed=5)
    monkeypatch.setattr(detect_module, "_direction_set", planar)
    with pytest.raises(ValueError, match="direction set is rank deficient$"):
        is_ellipsoid(body, num_directions=40, seed=0)
    monkeypatch.setattr(detect_module, "_direction_set", axial)
    with pytest.raises(ValueError, match="rank deficient for the quadratic basis"):
        is_ellipsoid(body, num_directions=40, seed=0)
    assert [fits.rank for fits in planar(3, 40, 0)] == [2, 3]
    assert [fits.rank for fits in axial(3, 40, 0)] == [3, 3]


def test_lstsq_is_never_called_by_a_detection_sweep_task(monkeypatch):
    # is_ellipsoid, the replay, then profile and detect_min_m along three
    # directions: every design is factored once and cached
    def no_lstsq(*args, **kwargs):
        raise AssertionError("lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    rng = np.random.default_rng(28)
    for body, m in ((random_ellipsoid(3, seed=4), 1), (random_ellipsoid(4, seed=5), 2), (Polytope.cube(3), None)):
        report = is_ellipsoid(body, seed=1)
        if report.accepted:
            assert section_consistency_check(body, report, num_probes=25, seed=1) <= 1e-6
        for _ in range(3):
            g = rng.standard_normal(body.n)
            prof = profile(body, g / np.linalg.norm(g), num_points=96, margin=0.0)
            win = detect_min_m(prof, m_max=4)
            assert (None if win is None else win.m) == m


def test_detection_sweep_script_smoke(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    out = tmp_path / "sweep.json"
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "run_detection_sweep.py"),
         "--num-ellipsoids", "3", "--num-directions", "1", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    entries = json.loads(out.read_text())["bodies"]
    assert sorted(entries) == ["cube_3d", "ellipsoid_2d_0", "ellipsoid_3d_1", "ellipsoid_4d_2", "simplex_3d", "square_2d"]
    for label, entry in entries.items():
        ms = [d["m"] for d in entry["directions"]]
        assert len(ms) == 1, label
        if label.startswith("ellipsoid"):
            n = len(entry["body"]["center"])
            assert entry["verdict"] == "accept", label
            assert entry["section_replay_error"] <= 1e-6, label
            assert ms == [1 if n % 2 else 2], label
        else:
            assert entry["verdict"] == "reject", label
            assert "section_replay_error" not in entry
            assert ms == [None], label


UNBOUNDED = (
    QuadricDomain("paraboloid", np.array([1.0, 1.0])),
    QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.0]), 1.0),
)


@pytest.mark.parametrize("body", UNBOUNDED, ids=lambda b: b.kind)
def test_unbounded_body_is_rejected_before_any_fit(body):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InfiniteSupportError, match=f"the {body.kind} is unbounded"):
            is_ellipsoid(body)
    assert caught == []


@pytest.mark.parametrize("body", UNBOUNDED, ids=lambda b: b.kind)
def test_cli_detect_on_an_unbounded_body_exits_1(body, tmp_path):
    path = tmp_path / "body.json"
    save_body(body, path)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["detect", "--body", str(path)])
    assert code == 1
    assert err.getvalue().startswith(f"error: the {body.kind} is unbounded")
    assert caught == []


def test_detect_reports_ignore_the_seed_in_three_dimensions(tmp_path):
    """``sample_directions(3, ...)`` is the Fibonacci lattice, which ignores
    ``seed`` and ``antithetic``.  So ``detect`` on a 3-d body gives the same
    report at seeds 0 and 5 apart from the echoed seed, while a 4-d body's
    reports differ.  This pins today's behaviour; seeding the 3-d set is a
    declared report change and shows here."""
    for n, alike in ((3, True), (4, False)):
        path = tmp_path / f"ellipsoid{n}.json"
        save_body(random_ellipsoid(n, seed=7), path)
        reports = []
        for seed in (0, 5):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["detect", "--body", str(path), "--seed", str(seed)]) == 0
            rep = json.loads(out.getvalue())
            assert rep["config"].pop("seed") == rep["report"].pop("seed") == seed
            reports.append(rep)
        assert (reports[0] == reports[1]) is alike, n
