"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q

They check the harness, not tomoslice: the tracer's counts, that tracing
changes no output, the per-kind bookkeeping behind ``task_ms.p50``, and the
moment oracle.
"""

import numpy as np
import pytest

import worker

worker.import_package()

import tomoslice as ts  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from tomoslice.bodies import random_rotation  # noqa: E402


def _generic_cube():
    return ts.Polytope.cube(3).rotated(random_rotation(3, seed=7)).translated([0.1, -0.2, 0.3])


def test_cube_moment_makes_448_section_evaluations():
    cube = _generic_cube()
    xi = ts.Direction.from_vector([0.3, -0.5, 0.8])
    with Tracer() as tracer:
        ts.moment(cube, xi, 2)
    # 8 distinct vertex heights -> 7 pieces, 64 Gauss-Legendre nodes each
    assert tracer.under("radon.moment", "sections.section_volume") == (448, 448)
    assert tracer.summary()["radon.moment"]["calls"] == 1
    assert tracer.absent == []


def test_tracer_restores_every_binding():
    before = (ts.section_volume, ts.radon.section_volume, ts.Polytope.support, ts.cli.run)
    with Tracer():
        assert ts.radon.section_volume is not before[1]
        assert ts.Polytope.support is not before[2]
    assert (ts.section_volume, ts.radon.section_volume, ts.Polytope.support, ts.cli.run) == before


def _mixed_tasks(tmp_path):
    return (
        workloads.build("range-polytope", 3, None)[:5]
        + workloads.build("detect-sweep", 3, None)[:12]
        + workloads.build("cli-oracles", 3, tmp_path)
    )


def test_traced_counts_repeat_and_outputs_match_untraced(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "OUT", tmp_path / "out")
    tasks = _mixed_tasks(tmp_path / "bodies")
    first = worker.traced(tasks, 1, "mixed", 3)
    second = worker.traced(tasks, 1, "mixed", 3)
    # a traced output that differs from the untraced one counts as a failure
    assert first["failed"] == 0 and second["failed"] == 0, first["failures"] + second["failures"]
    counts = [k for k in first["per_layer"] if not k.endswith("_ms") and k != "trace.overhead_frac"]
    assert {k: first["per_layer"][k] for k in counts} == {k: second["per_layer"][k] for k in counts}
    assert first["per_layer"]["radon.moment.evals_per_call"] == (3 * 448 + 2 * 192) / 5
    assert (tmp_path / "out" / "trace-mixed-seed3.json").is_file()


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_kind_shares_and_p50_inside_majority_band(workload, tmp_path):
    tasks = workloads.build(workload, 5, tmp_path)
    out = worker.timed(tasks, 0)  # exactly one cycle
    assert out["failed"] == 0, out["failures"]
    kinds = out["per_kind"]
    assert abs(sum(k["share"] for k in kinds.values()) - 1.0) < 1e-12
    major = max(kinds, key=lambda k: kinds[k]["share"])
    assert kinds[major]["share"] >= 0.6
    assert all(k["share"] >= 0.2 for name, k in kinds.items() if name != major)
    assert kinds[major]["min_ms"] <= out["p50_ms"] <= kinds[major]["max_ms"]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert worker.tail_percentile(list(range(100))) == (90, 89)
    assert worker.tail_percentile(list(range(600))) == (98, 587)
    assert worker.tail_percentile(list(range(2000))) == (99, 1979)
    assert worker.tail_percentile(list(range(10))) == (None, None)


def test_moment_oracle_on_closed_forms():
    cube = ts.Polytope.cube(3)
    axis = np.array([0.0, 0.0, 1.0])
    assert workloads.simplex_moment_oracle(cube.vertices, axis, 0) == pytest.approx(8.0, rel=1e-14)
    assert workloads.simplex_moment_oracle(cube.vertices, axis, 1) == pytest.approx(0.0, abs=1e-14)
    assert workloads.simplex_moment_oracle(cube.vertices, axis, 2) == pytest.approx(8.0 / 3.0, rel=1e-14)
    shifted = cube.vertices + 0.5
    assert workloads.simplex_moment_oracle(shifted, axis, 1) == pytest.approx(4.0, rel=1e-14)


def test_cli_quirks_count_as_failures(tmp_path):
    path = tmp_path / "ball.json"
    ts.save_body(ts.Ellipsoid.from_axes([1.0, 1.0, 1.0]), path)
    # argparse reads "-1,0,0" as an option and exits with code 2
    with pytest.raises(workloads.CliFailure, match="SystemExit"):
        workloads.run_cli(["asymptote", "--body", str(path), "--xi", "-1,0,0"])
    report = workloads.run_cli(["asymptote", "--body", str(path), "--xi=-1,0,0"])
    assert workloads._asymptote_bad(report, 3) is None
