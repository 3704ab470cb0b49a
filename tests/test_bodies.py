import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import NonlinearConstraint, minimize

import tomoslice.bodies as bodies_module
from tomoslice.algfit import (
    exponent_estimate,
    normalized_section_constant,
    principal_curvatures,
    quadric_check,
)
from tomoslice.bodies import (
    Direction,
    Ellipsoid,
    InfiniteSupportError,
    Polytope,
    QuadricDomain,
    body_from_dict,
    body_to_dict,
    chord_interval,
    contains,
    fibonacci_sphere,
    load_body,
    random_ellipsoid,
    random_rotation,
    random_simplex,
    sample_directions,
    support,
    unit_ball_volume,
)
from tomoslice.detect import is_ellipsoid
from tomoslice.radon import moment, range_test
from tomoslice.sections import lobatto_grid, profile, section_volume, section_volume_mc

E1 = Direction(np.array([1.0, 0.0, 0.0]))
E3 = Direction(np.array([0.0, 0.0, 1.0]))


def unit(v):
    return Direction.from_vector(v)


def test_unit_ball_support_is_one_everywhere():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    for v in sample_directions(3, 25):
        assert support(ball, Direction(v)) == pytest.approx(1.0, abs=1e-14)


def test_axis_aligned_ellipsoid_support():
    ell = Ellipsoid.from_axes([2.0, 1.0, 1.0])
    assert support(ell, E1) == pytest.approx(2.0, abs=1e-14)
    assert support(ell, E3) == pytest.approx(1.0, abs=1e-14)


def test_cube_diagonal_support():
    cube = Polytope.cube(3)
    assert support(cube, unit([1, 1, 1])) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert chord_interval(cube, unit([1, 1, 1])) == pytest.approx(
        (-math.sqrt(3.0), math.sqrt(3.0)), abs=1e-12
    )


def test_membership_boundary_counts_as_inside():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    assert contains(ball, [0.0, 0.0, 0.0])
    assert contains(ball, [1.0, 0.0, 0.0])
    assert not contains(ball, [1.0001, 0.0, 0.0])
    cube = Polytope.cube(3)
    assert contains(cube, [1.0, 1.0, 1.0])
    assert not contains(cube, [1.0, 1.0, 1.0000001])


def test_shifted_ball_chord_interval():
    shifted = Ellipsoid.from_axes([1.0, 1.0, 1.0], center=[0.3, 0.0, 0.0])
    assert chord_interval(shifted, E1) == pytest.approx((-0.7, 1.3), abs=1e-14)


def test_ellipsoid_support_against_constrained_optimizer():
    # vertex-free oracle: maximize x.v over the body with SLSQP
    body = random_ellipsoid(3, seed=17)
    for s in range(4):
        g = np.random.default_rng(s).standard_normal(3)
        d = g / np.linalg.norm(g)
        con = NonlinearConstraint(
            lambda x: (x - body.center) @ body.shape @ (x - body.center), -np.inf, 1.0
        )
        res = minimize(lambda x: -x @ d, body.center, constraints=[con], method="SLSQP", tol=1e-12)
        assert body.support(d) == pytest.approx(-res.fun, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    v=st.lists(st.floats(-5, 5), min_size=3, max_size=3).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    ),
    lam=st.floats(1e-3, 50.0),
)
def test_support_positive_homogeneity(v, lam):
    body = Ellipsoid.from_axes([1.5, 0.8, 1.1], center=[0.2, -0.1, 0.05])
    v = np.asarray(v)
    assert body.support(lam * v) == pytest.approx(lam * body.support(v), rel=1e-12, abs=1e-12)


def test_support_subadditivity_thousand_pairs():
    bodies = [
        random_ellipsoid(3, seed=1),
        Polytope.cube(3),
        random_simplex(3, seed=2),
    ]
    rng = np.random.default_rng(7)
    for body in bodies:
        for _ in range(1000):
            u, v = rng.standard_normal((2, 3))
            assert body.support(u + v) <= body.support(u) + body.support(v) + 1e-12


def test_quadric_support_subadditivity_inside_cone():
    par = QuadricDomain("paraboloid", np.array([1.0, 2.0]))
    rng = np.random.default_rng(3)
    for _ in range(1000):
        u, v = rng.standard_normal((2, 3))
        u[2] = -abs(u[2]) - 0.05
        v[2] = -abs(v[2]) - 0.05
        assert par.support(u + v) <= par.support(u) + par.support(v) + 1e-12


def test_support_translation_rule():
    body = random_ellipsoid(3, seed=9)
    shift = np.array([0.4, -1.2, 0.7])
    moved = body.translated(shift)
    for v in sample_directions(3, 40):
        assert moved.support(v) == pytest.approx(body.support(v) + shift @ v, abs=1e-12)
    poly = random_simplex(3, seed=4)
    moved = poly.translated(shift)
    for v in sample_directions(3, 40):
        assert moved.support(v) == pytest.approx(poly.support(v) + shift @ v, abs=1e-12)


def test_support_maximizer_lies_on_boundary():
    body = random_ellipsoid(3, seed=23)
    for v in sample_directions(3, 50):
        x = body.argmax_support(v)
        form = (x - body.center) @ body.shape @ (x - body.center)
        assert form == pytest.approx(1.0, abs=1e-10)
        assert x @ v == pytest.approx(body.support(v), abs=1e-12)


def test_paraboloid_support_cone():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    assert par.support(np.array([0.0, 0.0, -1.0])) == 0.0
    assert math.isinf(par.support(np.array([0.0, 0.0, 1.0])))
    assert math.isinf(par.support(np.array([1.0, 0.0, 0.0])))
    # h(v) = sum v_j^2 a_j^2 / (4 |v_n|) below the horizontal
    v = np.array([0.6, 0.0, -0.8])
    assert par.support(v) == pytest.approx(0.36 / 3.2, abs=1e-14)


def test_paraboloid_support_matches_boundary_scan():
    par = QuadricDomain("paraboloid", np.array([1.0, 2.0]))
    v = np.array([0.5, -0.3, -0.9])
    v /= np.linalg.norm(v)
    xs = np.linspace(-6, 6, 601)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z = X**2 / 1.0 + Y**2 / 4.0
    scan = np.max(v[0] * X + v[1] * Y + v[2] * Z)
    h = par.support(v)
    assert scan <= h + 1e-9
    assert h - scan < 1e-2


def test_hyperboloid_support_cone_and_value():
    hyp = QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.0]), 1.0)
    assert hyp.support(np.array([0.0, 0.0, -1.0])) == pytest.approx(-1.0)
    assert math.isinf(hyp.support(np.array([0.0, 0.0, 1.0])))
    # directions shallower than the asymptotic cone are unbounded
    assert math.isinf(hyp.support(np.array([0.8, 0.0, -0.6])))
    v = np.array([0.3, 0.0, -0.9])
    assert hyp.support(v) == pytest.approx(-math.sqrt(0.81 - 0.09), abs=1e-14)


def test_quadric_membership():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    assert par.contains([0.0, 0.0, 0.0])
    assert par.contains([1.0, 0.0, 1.0])
    assert not par.contains([1.0, 0.0, 0.999])
    hyp = QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.0]), 2.0)
    assert hyp.contains([0.0, 0.0, 2.0])
    assert not hyp.contains([0.0, 0.0, 1.999])
    assert not hyp.contains([0.0, 0.0, -3.0])


def test_chord_interval_raises_for_unbounded():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    with pytest.raises(InfiniteSupportError):
        chord_interval(par, E3)


def test_direction_requires_unit_norm():
    with pytest.raises(ValueError):
        Direction(np.array([1.0, 1.0, 1.0]))
    d = Direction.from_vector([1.0, 1.0, 1.0])
    assert np.linalg.norm(d.components) == pytest.approx(1.0, abs=1e-15)


_ELLIPSOID = Ellipsoid.from_axes([1.4, 0.9, 1.1], center=[0.2, -0.1, 0.3])
_PARABOLOID = QuadricDomain("paraboloid", np.array([1.0, 2.0]))
_CUBE = Polytope.cube(3).rotated(random_rotation(3, seed=5))

# every entry point that takes one direction
_ONE_DIRECTION_CALLS = {
    "profile": lambda xi: profile(_ELLIPSOID, xi, num_points=16),
    "section_volume_mc": lambda xi: section_volume_mc(_ELLIPSOID, xi, 0.1, samples=2000, seed=1),
    "exponent_estimate": lambda xi: exponent_estimate(_ELLIPSOID, xi),
    "principal_curvatures": lambda xi: principal_curvatures(_ELLIPSOID, xi),
    "normalized_section_constant": lambda xi: normalized_section_constant(_ELLIPSOID, xi),
    "support": lambda xi: support(_CUBE, xi),
    "quadric_check": lambda xi: quadric_check(_PARABOLOID, xi),
    "chord_interval": lambda xi: chord_interval(_CUBE, xi),
    "section_volume": lambda xi: section_volume(_CUBE, xi, np.linspace(-1.5, 1.5, 7)),
    "moment": lambda xi: moment(_CUBE, xi, 2),
}


def _plain(result):
    """A result as plain Python values, so its repr shows every float exactly."""
    if hasattr(result, "to_dict"):
        return result.to_dict()
    return result.tolist() if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("name", _ONE_DIRECTION_CALLS)
def test_a_unit_array_and_a_direction_give_identical_results(name):
    call = _ONE_DIRECTION_CALLS[name]
    v = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    assert repr(_plain(call(v))) == repr(_plain(call(Direction(v))))


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(3), np.diag([1.0, 1.0, -1.0]))
    bad = np.eye(3)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(3), bad)


def test_polytope_validation():
    with pytest.raises(ValueError):
        Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))  # collinear
    with pytest.raises(ValueError):
        # interior vertex is not extreme
        Polytope(
            np.array(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.1, 0.1, 0.1]], dtype=float
            )
        )
    with pytest.raises(ValueError, match="n >= 2"):
        Polytope(np.array([[0.0], [1.0], [2.0]]))  # dimension 1
    # every dimension n >= 2 constructs, a 4-simplex among them
    simplex = Polytope(np.vstack([np.zeros(4), np.eye(4)]))
    assert simplex.n == 4 and simplex._simplex_volumes.sum() == pytest.approx(1.0 / 24.0, rel=1e-14)


def test_ellipsoid_rejects_non_finite_center_and_shape():
    with pytest.raises(ValueError, match="center"):
        Ellipsoid([np.nan, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="center"):
        Ellipsoid([np.inf, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="shape"):
        Ellipsoid([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="shape"):
        Ellipsoid([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]])


def test_quadric_rejects_non_finite_axes_and_apex():
    with pytest.raises(ValueError, match="axes"):
        QuadricDomain("paraboloid", np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="apex height c"):
        QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.0]), math.inf)


def test_polytope_rejects_non_finite_vertex():
    with pytest.raises(ValueError, match="vertices must be finite"):
        Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]]))


def test_load_body_rejects_non_finite_json(tmp_path):
    path = tmp_path / "body.json"
    for text, name in [
        ('{"type": "ellipsoid", "center": [NaN, 0], "shape": [[1, 0], [0, 1]]}', "NaN"),
        ('{"type": "paraboloid", "axes": [1.0, Infinity]}', "Infinity"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=name):
            load_body(path)


def _support_family():
    """Every body family in n = 2..5."""
    for n in (2, 3, 4, 5):
        axes = np.linspace(0.7, 1.6, n - 1)
        yield random_ellipsoid(n, seed=n)
        yield QuadricDomain("paraboloid", axes)
        yield QuadricDomain("hyperboloid-sheet", axes, 1.3)
        yield Polytope.cube(n).rotated(random_rotation(n, seed=n)).translated(np.full(n, 0.3))
        yield random_simplex(n, seed=n)


def test_batched_support_matches_rows():
    rng = np.random.default_rng(3)
    for body in _support_family():
        n = body.n
        D = rng.standard_normal((40, n))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        # both signs, plus the axis rows on which quadrics switch to inf
        D = np.vstack([D, -D, np.eye(n), -np.eye(n)])
        batch = body.support(D)
        rows = np.array([body.support(d) for d in D])
        assert batch.shape == (D.shape[0],)
        if isinstance(body, QuadricDomain):
            assert 0 < np.isfinite(rows).sum() < rows.size
        # every row, inf included, equals its one-direction call bit for bit
        assert np.array_equal(batch, rows), type(body).__name__
        assert type(body.support(D[0])) is float


def test_chord_interval_on_a_stack():
    rng = np.random.default_rng(4)
    for body in _support_family():
        if isinstance(body, QuadricDomain):
            continue
        n = body.n
        D = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((30, n))])
        D /= np.sqrt(np.vecdot(D, D))[:, None]
        lo, hi = chord_interval(body, D)
        assert lo.shape == hi.shape == (D.shape[0],)
        rows = np.array([chord_interval(body, d) for d in D])
        for i in range(D.shape[0]):
            # the one-row stack is the one-direction call, bit for bit
            one = chord_interval(body, D[i : i + 1])
            assert (float(one[0][0]), float(one[1][0])) == tuple(rows[i])
        # and so is every row of a taller stack
        assert np.array_equal(np.column_stack([lo, hi]), rows), type(body).__name__


def test_chord_interval_on_a_stack_raises_for_an_unbounded_row():
    axes = np.array([1.0, 1.5])
    D = np.array([[0.0, 0.0, -1.0], [0.6, 0.0, -0.8]])
    for body in (QuadricDomain("paraboloid", axes), QuadricDomain("hyperboloid-sheet", axes, 1.3)):
        with pytest.raises(InfiniteSupportError):
            chord_interval(body, D[1])
        with pytest.raises(InfiniteSupportError):
            chord_interval(body, D)


def _unit_rows(G):
    return G / np.sqrt(np.vecdot(G, G))[:, None]


def test_chord_interval_equals_the_two_support_calls_bit_for_bit():
    rng = np.random.default_rng(26)
    for n in range(2, 6):
        for seed in range(4):
            D = _unit_rows(rng.standard_normal((12, n)))
            cube = Polytope.cube(n).rotated(random_rotation(n, seed=seed)).translated(rng.uniform(-1.0, 1.0, n))
            for body in (random_ellipsoid(n, seed=seed), random_simplex(n, seed=seed), cube):
                for X in (D, np.asfortranarray(D)):
                    lo, hi = chord_interval(body, X)
                    assert lo.tobytes() == (-body.support(-X)).tobytes(), type(body).__name__
                    assert hi.tobytes() == body.support(X).tobytes(), type(body).__name__
                for d in D:
                    assert chord_interval(body, d) == (-body.support(-d), body.support(d))
            # mostly along -x_n, inside both quadrics' bounded-slice cone: the
            # top end is finite, the bottom end is not
            C = _unit_rows(np.column_stack([rng.uniform(-0.15, 0.15, (12, n - 1)), -np.ones(12)]))
            axes = rng.uniform(0.6, 1.6, n - 1)
            for body in (QuadricDomain("paraboloid", axes), QuadricDomain("hyperboloid-sheet", axes, 1.2)):
                lo, hi = body._extent(C)
                assert np.isfinite(hi).all() and np.all(lo == -np.inf)
                assert hi.tobytes() == body.support(C).tobytes()
                assert lo.tobytes() == (-body.support(-C)).tobytes()
                with pytest.raises(InfiniteSupportError):
                    chord_interval(body, C)


def test_support_chord_and_sections_do_not_depend_on_the_stack_layout():
    rng = np.random.default_rng(27)
    for n in range(2, 6):
        cube = Polytope.cube(n).rotated(random_rotation(n, seed=n)).translated(rng.uniform(-1.0, 1.0, n))
        for body in (random_ellipsoid(n, seed=n), random_ellipsoid(n, seed=10 + n), random_simplex(n, seed=n), cube):
            D = _unit_rows(rng.standard_normal((16, n)))
            lo, hi = chord_interval(body, D)
            ts = lo[:, None] + (hi - lo)[:, None] * np.array([0.1, 0.37, 0.5, 0.8])
            # a column-reversed view (negative strides) and a Fortran copy
            for X in (np.ascontiguousarray(D[:, ::-1])[:, ::-1], np.asfortranarray(D)):
                assert np.array_equal(X, D) and not X.flags.c_contiguous
                assert body.support(X).tobytes() == body.support(D).tobytes(), type(body).__name__
                for got, want in zip(chord_interval(body, X), (lo, hi)):
                    assert got.tobytes() == want.tobytes(), type(body).__name__
                assert section_volume(body, X, ts).tobytes() == section_volume(body, D, ts).tobytes()


@pytest.mark.parametrize("v", [[1e200, 0.0, 1e200], [1e-200, 0.0, 1e-200], [-1e-160, 0.0, -1e-160]])
def test_from_vector_normalizes_an_extreme_norm(v, capsys):
    d = Direction.from_vector(v)
    half = math.copysign(0.7071067811865475, v[0])
    assert d.components.tolist() == [half, 0.0, half]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("v", [[0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [1.0, np.inf, 0.0], [1.0, np.nan, 0.0], [1e308, -np.inf, 1.0]])
def test_from_vector_rejects_a_zero_or_non_finite_vector(v):
    with pytest.raises(ValueError, match="^cannot normalize a zero or non-finite vector$"):
        Direction.from_vector(v)


def test_from_vector_keeps_the_bits_of_an_ordinary_vector():
    rng = np.random.default_rng(24)
    for scale in (1e-150, 1e-20, 1.0, 3.7, 1e20, 1e150):
        for n in (2, 3, 5):
            v = scale * rng.standard_normal(n)
            assert Direction.from_vector(v).components.tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_fibonacci_sphere_is_deterministic_and_unit():
    a = fibonacci_sphere(100)
    b = fibonacci_sphere(100)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


_BALL = Ellipsoid.from_axes([1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("num_points", lambda: profile(_BALL, E3, num_points=16.5), id="profile"),
        pytest.param(
            "num_points",
            lambda: quadric_check(QuadricDomain("paraboloid", np.ones(2)), E3, num_points=32.5),
            id="quadric_check",
        ),
        pytest.param("num", lambda: lobatto_grid(0.0, 1.0, 16.5), id="lobatto_grid"),
        pytest.param("count", lambda: fibonacci_sphere(2.5), id="fibonacci_sphere"),
        pytest.param("count", lambda: sample_directions(3, 2.5), id="sample_directions-n3"),
        pytest.param("count", lambda: sample_directions(4, 0), id="sample_directions-n4"),
        pytest.param("count", lambda: sample_directions(2, True, antithetic=True), id="sample_directions-n2"),
        pytest.param("num_directions", lambda: range_test(Polytope.cube(3), 2, 40.0), id="range_test"),
        pytest.param("num_directions", lambda: is_ellipsoid(_BALL, num_directions=200.5), id="is_ellipsoid"),
    ],
)
def test_counts_must_be_integers(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        call()


@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_require_int_takes_python_and_numpy_integers(value):
    bodies_module._require_int("count", value, 3)


@pytest.mark.parametrize(
    "value, least",
    [
        (True, 0),
        (np.bool_(True), 0),
        (3.0, 1),
        (np.float64(3.0), 1),
        ("3", 1),
        (None, 1),
        (0, 1),
        (np.int64(-1), 0),
        (np.uint8(2), 3),
    ],
)
def test_require_int_rejects_non_integers_and_small_values(value, least):
    with pytest.raises(ValueError) as exc:
        bodies_module._require_int("count", value, least)
    assert str(exc.value) == f"count must be an integer >= {least}, got {value!r}"


def test_norm_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(29)
    cases = [np.zeros(1), np.zeros(7)]
    cases += [rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0) for size in range(1, 201)]
    for x in cases:
        got = bodies_module._norm(x)
        assert type(got) is float
        assert got.hex() == float(np.linalg.norm(x)).hex(), x.size


def test_sample_directions_antithetic_pairs():
    dirs = sample_directions(4, 10, seed=5, antithetic=True)
    assert dirs.shape == (10, 4)
    assert np.allclose(dirs[:5], -dirs[5:], atol=0)


def test_body_json_round_trip():
    bodies = [
        random_ellipsoid(3, seed=1),
        Polytope.cube(2),
        QuadricDomain("paraboloid", np.array([1.0, 2.0])),
        QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.5]), 0.8),
    ]
    for body in bodies:
        clone = body_from_dict(json.loads(json.dumps(body_to_dict(body))))
        assert type(clone) is type(body)
        for v in sample_directions(body.n, 10, seed=0):
            assert clone.support(v) == pytest.approx(body.support(v), abs=1e-14)


def test_body_json_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="extra_key"):
        body_from_dict({"type": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]], "extra_key": 1})
    with pytest.raises(ValueError, match="shape"):
        body_from_dict({"type": "ellipsoid", "center": [0, 0]})
    with pytest.raises(ValueError, match="type"):
        body_from_dict({"type": "torus"})


def test_readme_body_examples_load():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.strip()]
    kinds = set()
    for line in lines:
        obj = json.loads(line)
        body = body_from_dict(obj)
        kinds.add(obj["type"])
        assert body_from_dict(body_to_dict(body)).n == body.n
    assert kinds == {"ellipsoid", "polytope", "paraboloid", "hyperboloid-sheet"}


def test_hyperboloid_type_names_load_the_same_body():
    obj = {"type": "hyperboloid-sheet", "axes": [1.0, 1.5], "c": 0.8}
    body = body_from_dict(obj)
    assert body.kind == "hyperboloid-sheet"
    # the written name stays the short one, so saved reports do not change
    assert body_to_dict(body) == {**obj, "type": "hyperboloid"}
    assert body_from_dict(body_to_dict(body)).c == body.c


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def _membership_bodies():
    """One body of every family, two polytopes among them, in n = 2..5."""
    out = []
    for n in range(2, 6):
        axes = np.linspace(0.7, 1.4, n - 1)
        out += [
            random_ellipsoid(n, seed=40 + n),
            QuadricDomain("paraboloid", axes),
            QuadricDomain("hyperboloid-sheet", axes, 0.9),
            random_simplex(n, seed=50 + n),
            Polytope.cube(n).rotated(random_rotation(n, seed=60 + n)),
        ]
    return out


def _interior_point(body):
    if isinstance(body, Ellipsoid):
        return body.center
    if isinstance(body, Polytope):
        return body.vertices.mean(axis=0)
    return np.append(np.zeros(body.n - 1), 2.5)


def _near_boundary_points(body, rng, rays=60):
    """Points on both sides of the boundary, a few ulps apart: each ray from an
    interior point is bisected on the membership test until it stalls."""
    origin = _interior_point(body)
    U = rng.standard_normal((rays, body.n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    lo, hi = np.zeros(rays), np.full(rays, 8.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = body.contains_points(origin + mid[:, None] * U)
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return np.concatenate([origin + s[:, None] * U for s in (lo, hi, 0.5 * (lo + hi))])


def _one_point_membership(body, x):
    """The plain one-point expressions d @ M @ d and N @ x of each family."""
    if isinstance(body, Ellipsoid):
        d = x - body.center
        return bool(d @ body.shape @ d <= 1.0)
    if isinstance(body, Polytope):
        return bool(np.all(body._facet_normals @ x <= body._facet_offsets))
    q = float(np.sum(x[:-1] ** 2 / body.axes**2))
    if body.kind == "paraboloid":
        return bool(x[-1] >= q)
    return bool(x[-1] > 0.0 and x[-1] ** 2 / body.c**2 - q >= 1.0)


def test_contains_points_rows_equal_contains():
    rng = np.random.default_rng(2024)
    for body in _membership_bodies():
        n = body.n
        X = np.vstack([rng.uniform(-3.0, 3.0, size=(400, n)), _near_boundary_points(body, rng)])
        batch = body.contains_points(X)
        rows = np.array([body.contains(x) for x in X])
        assert batch.dtype == bool and batch.shape == (X.shape[0],)
        assert np.array_equal(batch, rows), (type(body).__name__, n)
        # a batch rounds each row as the one-point expressions do, so the
        # bisections of the curvature oracle land where they always did
        assert np.array_equal(rows, [_one_point_membership(body, x) for x in X]), (type(body).__name__, n)
        # both verdicts occur, among the near-boundary points too
        assert 0 < rows[400:].sum() < rows[400:].size
        assert type(body.contains(X[0])) is bool


def test_rotated_maps_by_R_and_rejects_a_non_orthogonal_matrix():
    R = random_rotation(3, seed=5)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.2, 1.2, size=(400, 3))
    for body in (Ellipsoid.from_axes([1.0, 0.6, 0.8], center=[0.1, 0.0, -0.2]), Polytope.cube(3)):
        # both families return the image under x -> R x
        assert np.array_equal(body.rotated(R).contains_points(X @ R.T), body.contains_points(X))
        for bad in (np.diag([2.0, 1.0, 1.0]), np.full((3, 3), np.nan), np.eye(2)):
            with pytest.raises(ValueError, match="rotation matrix must be orthogonal"):
                body.rotated(bad)
