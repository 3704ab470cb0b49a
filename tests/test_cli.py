import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tomoslice.bodies as bodies_module
import tomoslice.sections as sections_module
from tomoslice import cli
from tomoslice.bodies import Ellipsoid, Polytope, QuadricDomain, random_ellipsoid, random_simplex, save_body


@pytest.fixture()
def body_dir(tmp_path):
    save_body(Ellipsoid.from_axes([1.0, 1.0, 1.0]), tmp_path / "ball.json")
    save_body(
        Ellipsoid.from_axes([1.4, 0.9, 1.1], center=[0.2, -0.1, 0.3]),
        tmp_path / "ell.json",
    )
    save_body(Polytope.cube(3), tmp_path / "cube.json")
    save_body(QuadricDomain("paraboloid", np.array([1.0, 1.0])), tmp_path / "par.json")
    save_body(
        QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.0]), 1.0),
        tmp_path / "hyp.json",
    )
    return tmp_path


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_profile_json_report(body_dir):
    out = body_dir / "prof.json"
    code = run_cli(["profile", "--body", body_dir / "ball.json", "--xi", "0,0,1",
                    "--grid", "16", "--out", out])
    assert code == 0
    rep = json.loads(out.read_text())
    assert set(rep) == {"config", "profile"}
    assert rep["config"]["command"] == "profile"
    grid = np.array(rep["profile"]["grid"])
    vals = np.array(rep["profile"]["values"])
    assert np.allclose(vals, np.pi * (1 - grid**2) * (np.abs(grid) <= 1), atol=1e-12)


def test_profile_csv_report(body_dir):
    out = body_dir / "prof.csv"
    code = run_cli(["profile", "--body", body_dir / "ball.json", "--xi", "0,0,1",
                    "--grid", "16", "--format", "csv", "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ")
    json.loads(lines[0][len("# config "):])  # embedded config parses
    assert lines[1] == "t,A"
    assert len(lines) == 18


def test_moments_report(body_dir):
    out = body_dir / "mom.json"
    code = run_cli(["moments", "--body", body_dir / "ell.json", "--directions", "40", "--out", out])
    assert code == 0
    rep = json.loads(out.read_text())
    ks = [r["k"] for r in rep["reports"]]
    assert ks == [0, 1, 2]
    for r in rep["reports"]:
        res = r["relative_residual"]
        if res is not None:
            assert res < 1e-8


def test_moments_record_the_exact_quad_order(body_dir):
    out = body_dir / "mom_cube.json"
    code = run_cli(["moments", "--body", body_dir / "cube.json", "--directions", "20", "--out", out])
    assert code == 0
    rep = json.loads(out.read_text())
    # the order is always exact, so only each report records it
    assert "quad_order" not in rep["config"]
    assert [r["quad_order"] for r in rep["reports"]] == [2, 2, 3]
    for r in rep["reports"]:
        assert r["relative_residual"] is None or r["relative_residual"] < 1e-12


def test_algfit_accepts_ellipsoid(body_dir):
    out = body_dir / "alg.json"
    code = run_cli(["algfit", "--body", body_dir / "ell.json", "--xi", "0.3,-0.2,0.9",
                    "--out", out])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "m=1"
    assert rep["winner"]["m"] == 1
    assert rep["winner"]["effective_degree"] == 2
    assert rep["winner"]["root_report"]["verdict"] == "conforms"


def test_algfit_rejects_cube_with_exit_2(body_dir):
    out = body_dir / "alg.json"
    code = run_cli(["algfit", "--body", body_dir / "cube.json", "--xi", "1,1,1",
                    "--out", out])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "none"
    assert min(row["relative_residual"] for row in rep["sweep"]) > 1e-3


def test_detect_exit_codes(body_dir):
    out = body_dir / "det.json"
    assert run_cli(["detect", "--body", body_dir / "ell.json", "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["verdict"] == "accept"
    assert run_cli(["detect", "--body", body_dir / "cube.json", "--out", out]) == 2
    rep = json.loads(out.read_text())
    assert rep["report"]["verdict"] == "reject"


def test_detect_rejects_thin_triangles(body_dir):
    out = body_dir / "det.json"
    # each fits a rank-one form S whose small eigenvalue is only roundoff:
    # not definite, so rejected, and S is never inverted
    for seed, extra in ((96, []), (172, []), (249, []), (36, ["--directions", "14", "--seed", "36"])):
        save_body(random_simplex(2, seed=seed), body_dir / "tri.json")
        assert run_cli(["detect", "--body", body_dir / "tri.json", *extra, "--out", out]) == 2
        rep = json.loads(out.read_text())["report"]
        assert rep["verdict"] == "reject"
        assert max(rep["linear_residual"], rep["quadratic_residual"]) < 1e-14


def test_detect_needs_one_pair_more_than_twice_the_unknowns(body_dir, capsys):
    save_body(Ellipsoid.from_axes([1.0, 2.0]), body_dir / "disk.json")
    out = body_dir / "det.json"
    assert run_cli(["detect", "--body", body_dir / "disk.json", "--directions", "6", "--out", out]) == 1
    assert "num_directions must be an integer >= 8" in capsys.readouterr().err
    assert run_cli(["detect", "--body", body_dir / "disk.json", "--directions", "8", "--out", out]) == 0


def test_asymptote_report(body_dir):
    out = body_dir / "asy.json"
    code = run_cli(["asymptote", "--body", body_dir / "ball.json", "--xi", "0,0,1",
                    "--out", out])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["estimated_exponent"] == pytest.approx(1.0, abs=0.05)
    assert rep["constant_ratio"] == pytest.approx(1.0, abs=0.02)
    assert rep["predicted_constant"] == pytest.approx(2.0 * math.pi, rel=1e-4)


def test_quadric_check_conforms(body_dir):
    out = body_dir / "qc.json"
    for name in ("par.json", "hyp.json"):
        code = run_cli(["quadric-check", "--body", body_dir / name, "--xi", "0,0,1",
                        "--out", out])
        assert code == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["verdict"] == "conforms"
        for row in rep["results"]:
            assert row["relative_residual"] < 1e-8


def test_quadric_check_explicit_window(body_dir):
    out = body_dir / "qc.json"
    code = run_cli(["quadric-check", "--body", body_dir / "par.json", "--xi", "0,0,1",
                    "--window", "1.0,3.0", "--out", out])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["window"] == [1.0, 3.0]


# the sorted keys of each subcommand's JSON report: a report is its
# dataclass's fields, so a field added to a report shows up here
_PROFILE_KEYS = ["grid", "method", "n", "values", "xi"]
_MOMENT_KEYS = [
    "absolute_residual", "directions", "exponents", "fit_coefficients", "k", "moments",
    "quad_order", "relative_residual", "seed",
]
_DETECT_KEYS = [
    "S", "e", "linear_residual", "num_directions", "quadratic_residual", "recovered_center",
    "recovered_shape", "seed", "tol", "verdict",
]
_FIT_KEYS = [
    "coefficients", "degree", "degree_bound_ok", "effective_degree", "grid", "m", "n",
    "power_samples", "relative_residual", "root_report", "t_hi", "t_lo", "xi",
]
_ROOT_KEYS = ["h_minus", "h_plus", "mismatch", "roots", "scale", "verdict"]
_ASYMPTOTE_KEYS = [
    "constant_ratio", "depths", "estimated_constant", "estimated_exponent", "num_points",
    "predicted_constant", "t0", "values", "window", "xi",
]


def test_each_report_has_its_pinned_keys(body_dir):
    out = body_dir / "keys.json"

    def report(*args):
        run_cli([*args, "--out", out])
        return json.loads(out.read_text())

    ell, xi = body_dir / "ell.json", "0.3,-0.2,0.9"
    rep = report("profile", "--body", ell, "--xi", xi)
    assert sorted(rep) == ["config", "profile"] and sorted(rep["profile"]) == _PROFILE_KEYS
    rep = report("moments", "--body", ell, "--directions", "30")
    assert sorted(rep) == ["config", "reports"]
    assert [sorted(r) for r in rep["reports"]] == [_MOMENT_KEYS] * 3
    rep = report("detect", "--body", ell)
    assert sorted(rep) == ["config", "report"] and sorted(rep["report"]) == _DETECT_KEYS
    rep = report("algfit", "--body", ell, "--xi", xi)
    assert sorted(rep) == ["config", "sweep", "verdict", "winner"]
    assert sorted(rep["winner"]) == _FIT_KEYS and sorted(rep["winner"]["root_report"]) == _ROOT_KEYS
    rep = report("algfit", "--body", body_dir / "cube.json", "--xi", xi)
    assert sorted(rep) == ["config", "sweep", "verdict", "winner"] and rep["winner"] is None
    rep = report("asymptote", "--body", ell, "--xi", xi)
    assert sorted(rep) == ["config", "report"] and sorted(rep["report"]) == _ASYMPTOTE_KEYS
    rep = report("quadric-check", "--body", body_dir / "par.json", "--xi", "0,0,1")
    assert sorted(rep) == ["config", "report"]
    assert sorted(rep["report"]) == ["results", "verdict", "window"]
    assert [sorted(r) for r in rep["report"]["results"]] == [
        ["m", "min_degree", "relative_residual", "sufficient"]
    ] * 2


def test_algfit_reads_its_direction_once(body_dir, monkeypatch):
    """``tomoslice algfit`` checks --xi once, in its profile; the chord of
    the root structure reuses the profile's checked direction."""
    reads = []
    real_rows = bodies_module._direction_rows

    def counting_rows(xi, n):
        reads.append(np.shape(xi))
        return real_rows(xi, n)

    save_body(random_ellipsoid(4, seed=5), body_dir / "ell4.json")
    out = body_dir / "alg4.json"
    for module in (bodies_module, sections_module):
        monkeypatch.setattr(module, "_direction_rows", counting_rows)
    assert run_cli(["algfit", "--body", body_dir / "ell4.json", "--xi", "0.3,-0.2,0.9,0.1", "--out", out]) == 0
    assert reads == [(4,)]
    assert json.loads(out.read_text())["winner"]["root_report"]["verdict"] == "conforms"


def test_asymptote_reads_its_direction_once(body_dir, monkeypatch):
    """``tomoslice asymptote`` checks --xi once, in ``exponent_estimate``;
    the curvature oracle reuses the report's checked direction."""
    reads = []
    real_rows = bodies_module._direction_rows

    def counting_rows(xi, n):
        reads.append(np.shape(xi))
        return real_rows(xi, n)

    for module in (bodies_module, sections_module):
        monkeypatch.setattr(module, "_direction_rows", counting_rows)
    for name, xi in (("ell.json", "0.3,-0.5,0.8"), ("par.json", "0.2,0.1,-0.9")):
        reads.clear()
        out = body_dir / f"asy_{name}"
        assert run_cli(["asymptote", "--body", body_dir / name, "--xi", xi, "--out", out]) == 0
        assert reads == [(3,)], name
        assert json.loads(out.read_text())["report"]["constant_ratio"] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("command", ["algfit", "quadric-check"])
@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
def test_bad_tol_is_an_error(body_dir, capsys, command, tol):
    out = body_dir / "out.json"
    args = [command, "--body", body_dir / "par.json", "--xi", "0,0,1", "--tol", tol, "--out", out]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error: --tol must be a finite positive number")
    assert not out.exists()


def test_algfit_m_max_below_one_is_an_error(body_dir, capsys):
    for m_max in ("0", "-2"):
        args = ["algfit", "--body", body_dir / "ell.json", "--xi", "0,0,1", "--m-max", m_max]
        assert run_cli(args) == 1
        assert capsys.readouterr().err.startswith("error: m_max must be an integer >= 1")


def test_bare_package_import_binds_cli_and_quadric_check():
    import tomoslice

    src = os.path.dirname(os.path.dirname(os.path.abspath(tomoslice.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import tomoslice\n"
        "assert callable(tomoslice.cli.main)\n"
        "assert tomoslice.quadric_check is tomoslice.cli.quadric_check is tomoslice.algfit.quadric_check\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_reports_are_byte_identical_across_runs(body_dir):
    pairs = []
    for label, args in (
        ("det", ["detect", "--body", body_dir / "ell.json", "--seed", "11"]),
        ("prof", ["profile", "--body", body_dir / "ball.json", "--xi", "0,0,1", "--grid", "16"]),
        ("mom", ["moments", "--body", body_dir / "ell.json", "--directions", "30", "--seed", "11"]),
    ):
        a = body_dir / f"{label}_a.json"
        b = body_dir / f"{label}_b.json"
        assert run_cli(args + ["--out", a]) == run_cli(args + ["--out", b])
        pairs.append((a.read_bytes(), b.read_bytes()))
    for first, second in pairs:
        assert first == second


def test_unknown_body_key_names_offender(body_dir, capsys):
    bad = body_dir / "bad.json"
    bad.write_text(json.dumps({"type": "ellipsoid", "center": [0, 0, 0],
                               "shape": np.eye(3).tolist(), "extra_key": 1}))
    code = run_cli(["profile", "--body", bad, "--xi", "0,0,1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "extra_key" in err


def test_malformed_json_names_file(body_dir, capsys):
    bad = body_dir / "mangled.json"
    bad.write_text("{not json")
    code = run_cli(["profile", "--body", bad, "--xi", "0,0,1"])
    assert code == 1
    assert "mangled.json" in capsys.readouterr().err


def test_missing_body_file_is_error(body_dir, capsys):
    code = run_cli(["profile", "--body", body_dir / "nope.json", "--xi", "0,0,1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_xi_is_error(body_dir, capsys):
    code = run_cli(["profile", "--body", body_dir / "ball.json"])
    assert code == 1
    assert "--xi" in capsys.readouterr().err


# a non-default value of every option a subcommand may declare; --xi takes
# the second direction of the body's pair below
_ALTERNATIVE = {
    "--grid": "32",
    "--margin": "0.1",
    "--m-max": "1",
    "--tol": "0.5",
    "--directions": "100",
    "--seed": "1",
    "--window": "0.5,1",
}


def test_every_declared_option_changes_the_report(body_dir):
    # a 4-d body, since on a 3-d body the Fibonacci lattice ignores --seed
    save_body(random_ellipsoid(4, seed=3), body_dir / "ell4.json")
    out = body_dir / "opt.json"

    def report(args):
        out.unlink(missing_ok=True)
        assert run_cli([*args, "--out", out]) != 1, args
        rep = json.loads(out.read_text())
        del rep["config"]
        return rep

    for command, (_, options) in cli._COMMANDS.items():
        body, xis = ("par.json", ("0,0,1", "0,0.3,1")) if command == "quadric-check" else (
            "ell4.json", ("0,0,0,1", "0.3,-0.2,0.5,0.9"))
        base = [command, "--body", body_dir / body, *(["--xi", xis[0]] if "--xi" in options else [])]
        default = report(base)
        for option in options:
            value = xis[1] if option == "--xi" else _ALTERNATIVE[option]
            assert report([*base, option, value]) != default, (command, option)


@pytest.mark.parametrize(
    "args",
    [
        ["profile", "--xi", "0,0,1", "--seed", "1"],
        ["moments", "--xi", "0,0,1"],
        ["algfit", "--xi", "0,0,1", "--window", "0,1"],
        ["detect", "--grid", "32"],
        ["asymptote", "--xi", "0,0,1", "--grid", "32"],
        ["quadric-check", "--xi", "0,0,1", "--margin", "0.1"],
    ],
    ids=lambda args: args[0],
)
def test_an_option_the_subcommand_does_not_read_is_an_error(body_dir, capsys, args):
    out = body_dir / "out.json"
    assert run_cli([*args, "--body", body_dir / "ball.json", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unrecognized arguments: {args[-2]} {args[-1]}")
    # the usage shown is the subcommand's, which lists the options it reads
    assert f"\nusage: tomoslice {args[0]} [-h] --body BODY" in err
    assert not out.exists()


def test_margin_with_an_explicit_window_is_an_error(body_dir, capsys):
    ball = body_dir / "ball.json"
    out = body_dir / "prof.json"
    base = ["profile", "--body", ball, "--xi", "0,0,1", "--grid", "16", "--out", out]
    assert run_cli([*base, "--window", "-0.5,0.5", "--margin", "0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --margin: not allowed with argument --window\nusage: tomoslice profile ")
    assert not out.exists()
    # each alone still runs, and the config records the default margin
    for extra in ([], ["--window", "-0.5,0.5"]):
        assert run_cli([*base, *extra]) == 0
        assert json.loads(out.read_text())["config"]["margin"] == 0.02


def test_readme_command_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    examples = [line.split() for line in block.splitlines() if line.startswith("tomoslice ")]
    assert len(examples) >= len(cli._COMMANDS)
    for argv in examples:
        cli._build_parser().parse_args(cli._bind_signed_values(argv[1:]))


def test_non_finite_window_is_an_error(body_dir, capsys):
    out = body_dir / "prof.json"
    args = ["profile", "--body", body_dir / "ball.json", "--xi", "0,0,1", "--window", "0,inf", "--out", out]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error: window must be finite")
    assert not out.exists()


def test_bad_xi_dimension_is_error(body_dir, capsys):
    code = run_cli(["profile", "--body", body_dir / "ball.json", "--xi", "0,1"])
    assert code == 1


@pytest.mark.parametrize("text", ["1e-200,0,1e-200", "1e200,0,1e200", "1e-160,0,1e-160"])
def test_xi_with_an_extreme_norm_is_normalized(body_dir, capsys, text):
    out = body_dir / "prof.json"
    assert run_cli(["profile", "--body", body_dir / "ball.json", "--xi", text, "--grid", "16", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["config"]["xi"] == [0.7071067811865475, 0.0, 0.7071067811865475]


@pytest.mark.parametrize("text", ["0,0,0", "0,-0.0,0", "1,inf,0", "1,nan,0", "1e400,0,1"])
def test_zero_or_non_finite_xi_is_an_error(body_dir, capsys, text):
    assert run_cli(["profile", "--body", body_dir / "ball.json", "--xi", text]) == 1
    assert capsys.readouterr().err == "error: cannot normalize a zero or non-finite vector\n"


def test_negative_detect_seed_is_an_error(body_dir, capsys):
    # in R^3 the directions come from the Fibonacci lattice, so the seed is
    # checked even where it draws nothing
    assert run_cli(["detect", "--body", body_dir / "ball.json", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


def test_threads_env_is_ignored(body_dir, monkeypatch):
    monkeypatch.setenv("TOMOSLICE_THREADS", "not-a-number")
    out = body_dir / "det.json"
    assert run_cli(["detect", "--body", body_dir / "ell.json", "--out", out]) == 0
    assert "threads" not in json.loads(out.read_text())["config"]


def test_negative_xi_and_window_values(body_dir):
    ball = body_dir / "ball.json"
    cases = [
        (["asymptote", "--body", ball, "--xi", "-1,0,0"],
         ["asymptote", "--body", ball, "--xi=-1,0,0"]),
        (["profile", "--body", ball, "--xi", "0,0,1", "--grid", "16", "--window", "-0.5,0.5"],
         ["profile", "--body", ball, "--xi", "0,0,1", "--grid", "16", "--window=-0.5,0.5"]),
    ]
    spaced_out, joined_out = body_dir / "spaced.json", body_dir / "joined.json"
    for spaced, joined in cases:
        assert run_cli([*spaced, "--out", spaced_out]) == 0
        assert run_cli([*joined, "--out", joined_out]) == 0
        assert spaced_out.read_bytes() == joined_out.read_bytes()


def test_abbreviated_signed_value_options(body_dir):
    ball = body_dir / "ball.json"
    cases = [
        (["asymptote", "--body", ball, "--x", "-1,0,0"],
         ["asymptote", "--body", ball, "--xi=-1,0,0"]),
        (["profile", "--body", ball, "--xi", "0,0,1", "--grid", "16", "--win", "-0.5,0.5"],
         ["profile", "--body", ball, "--xi", "0,0,1", "--grid", "16", "--window=-0.5,0.5"]),
    ]
    short_out, joined_out = body_dir / "short.json", body_dir / "joined.json"
    for short, joined in cases:
        assert run_cli([*short, "--out", short_out]) == 0
        assert run_cli([*joined, "--out", joined_out]) == 0
        assert short_out.read_bytes() == joined_out.read_bytes()


def test_non_finite_report_value_is_an_error(body_dir, monkeypatch, capsys):
    real = cli.algfit.exponent_estimate

    def nan_result(*args, **kwargs):
        report = real(*args, **kwargs)
        # the JSON report carries the constant, the CSV table the values
        report.estimated_constant = math.nan
        report.values = np.where(np.arange(report.values.size) == 3, math.nan, report.values)
        return report

    monkeypatch.setattr(cli.algfit, "exponent_estimate", nan_result)
    out = body_dir / "asy.json"
    for fmt in ("json", "csv"):
        args = ["asymptote", "--body", body_dir / "ball.json", "--xi", "0,0,1", "--format", fmt]
        assert run_cli(args + ["--out", out]) == 1
        assert not out.exists()
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "non-finite" in captured.err
        assert "NaN" not in captured.out and "nan" not in captured.out


def test_python_dash_m_matches_in_process_run(body_dir):
    import tomoslice

    args = ["asymptote", "--body", str(body_dir / "ell.json"), "--xi", "-0.3,0.2,0.9"]
    in_process = body_dir / "in_process.json"
    assert run_cli([*args, "--out", in_process]) == 0
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tomoslice.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "tomoslice", *args], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == in_process.read_bytes()


def test_usage_errors_exit_1(body_dir, capsys):
    for args in (
        [],
        ["detect"],
        ["profile", "--body", body_dir / "ball.json", "--grid", "many"],
        ["detect", "--body", body_dir / "ell.json", "--bogus"],
    ):
        assert run_cli(args) == 1
        assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0


def test_parser_is_built_once(body_dir):
    cli._build_parser.cache_clear()
    out = body_dir / "prof.json"
    for _ in range(3):
        assert run_cli(["profile", "--body", body_dir / "ball.json", "--xi", "0,0,1",
                        "--grid", "16", "--out", out]) == 0
    assert cli._build_parser.cache_info().misses == 1


def test_installed_entry_point(body_dir):
    exe = shutil.which("tomoslice")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = body_dir / "prof.json"
    proc = subprocess.run(
        [exe, "profile", "--body", str(body_dir / "ball.json"), "--xi", "0,0,1",
         "--grid", "16", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["config"]["command"] == "profile"


def test_code_lines_skips_docstrings_and_comments(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import code_lines

    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


def f(x):
    """Docstring."""
    "a bare string statement"
    return math.sqrt(
        x
    ) + len("""a literal
over two lines""")


class C:
    """Docstring."""

    y = 1
'''
    # import, def, the four lines of the return, class, y = 1
    assert code_lines.code_lines(source) == 8
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"8 {tmp_path / 'a.py'}", f"1 {tmp_path / 'b.py'}", "9 total"
    ]


def test_cli_wall_runs_every_case_in_a_fresh_interpreter(monkeypatch, tmp_path):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "scripts"))
    import cli_wall

    runs = cli_wall.cases(tmp_path)
    assert runs["import"] == ["-c", "import tomoslice"]
    assert runs["quadric-asymptote"][:4] == ["-m", "tomoslice", "asymptote", "--body"]
    # every body spec and option set is accepted: timed_run raises unless
    # the run exits 0 or 2
    for argv in runs.values():
        elapsed, code = cli_wall.timed_run(root, argv, tmp_path)
        assert elapsed > 0.0 and code in (0, 2)
    with pytest.raises(RuntimeError, match="exited 1"):
        cli_wall.timed_run(root, ["-c", "raise SystemExit(1)"], tmp_path)


def test_report_digests_repeat_on_a_two_body_subset(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import report_digests

    outputs = []
    for _ in range(2):
        report_digests.main(["--bodies", "ball3d.json,cube3d.json"])
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out.splitlines())
    first, second = outputs
    assert first == second
    # 23 runs per body and format, one line per body of the detection sweep
    # (8 ellipsoids, cube, square, simplex), then the total digest and the
    # BLAS core
    runs = first[:-2]
    assert len(runs) == 2 * 2 * 23 + 11
    sweep = [line.split(" | ")[0] for line in runs[-11:]]
    assert all(label.startswith("sweep ellipsoid_") for label in sweep[:8])
    assert sweep[8:] == ["sweep cube_3d", "sweep square_2d", "sweep simplex_3d"]
    assert first[-2].startswith("total ") and first[-2].endswith(f"over {len(runs)} runs")
    assert first[-1].startswith("blas core ")
    codes = {line.split(" | ")[1] for line in runs}
    assert codes == {"exit 0", "exit 1", "exit 2"}


def test_report_digests_dump_and_compare(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import report_digests

    dump = tmp_path / "a.json"
    assert report_digests.main(["--bodies", "random_ellipsoid2d.json", "--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    data = json.loads(dump.read_text())
    assert [r["exit"] for r in data["runs"]] == [int(line.split(" | ")[1][5:]) for line in lines[:-2]]
    assert report_digests.main(["--compare", str(dump), str(dump)]) == 0
    assert capsys.readouterr().out.startswith(f"0 of {len(data['runs'])} runs changed bytes")

    def compare(edit):
        moved = json.loads(dump.read_text())
        edit(moved["runs"])
        path = tmp_path / "b.json"
        path.write_text(json.dumps(moved))
        code = report_digests.main(["--compare", str(dump), str(path)])
        return code, capsys.readouterr().out.splitlines()

    def first(runs, command, fmt):
        return next(r for r in runs if r["argv"][0] == command and r["argv"][4] == fmt)

    # a float that moves is measured against its field's largest magnitude
    def move_e(runs):
        run = first(runs, "detect", "json")
        report = json.loads(run["stdout"])
        report["report"]["e"][0] += 1e-3 * max(abs(x) for x in report["report"]["e"])
        run["stdout"] = json.dumps(report)

    code, out = compare(move_e)
    assert code == 0
    assert out[0].startswith("changed: detect --body random_ellipsoid2d.json --format json")
    assert "detect:report.e | 1 | 1.00e-03 |" in "\n".join(out)

    def move_csv_residual(runs):
        run = first(runs, "algfit", "csv")
        head, *rows = run["stdout"].splitlines()[1:]
        m, degree, residual = rows[0].split(",")
        rows[0] = ",".join([m, degree, repr(2.0 * float(residual))])
        run["stdout"] = "\n".join([run["stdout"].splitlines()[0], head, *rows]) + "\n"

    code, out = compare(move_csv_residual)
    assert code == 0 and any(line.startswith("algfit:residual | 1 |") for line in out)

    # a sweep entry is compared like a JSON report of the command "sweep"
    def move_replay(runs):
        run = next(r for r in runs if r["argv"] == ["sweep", "ellipsoid_2d_0"])
        entry = json.loads(run["stdout"])
        entry["section_replay_error"] *= 2.0
        run["stdout"] = json.dumps(entry)

    code, out = compare(move_replay)
    assert code == 0 and any(line.startswith("sweep:section_replay_error | 1 |") for line in out)

    # an exit code, an integer or a string that differs fails the comparison
    def change_exit(runs):
        first(runs, "detect", "csv")["exit"] = 1

    def change_degree(runs):
        run = first(runs, "algfit", "json")
        report = json.loads(run["stdout"])
        report["sweep"][0]["degree"] += 1
        run["stdout"] = json.dumps(report)

    def change_verdict(runs):
        run = first(runs, "detect", "csv")
        run["stdout"] = run["stdout"].replace("verdict,accept", "verdict,reject")

    for edit, what in ((change_exit, "exit differs"), (change_degree, "sweep.degree 1 -> 2"), (change_verdict, "verdict")):
        code, out = compare(edit)
        assert code == 1
        assert any(line.startswith("non-float difference:") and what in line for line in out), what
