import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.spatial import ConvexHull
from hypothesis import strategies as st

import tomoslice.bodies as bodies_module
import tomoslice.sections as sections_module
from tomoslice.bodies import (
    Direction,
    Ellipsoid,
    InfiniteSupportError,
    Polytope,
    QuadricDomain,
    UnboundedSliceError,
    chord_interval,
    random_ellipsoid,
    random_rotation,
    random_simplex,
    sample_directions,
)
from tomoslice.sections import (
    SectionProfile,
    lobatto_grid,
    profile,
    section_volume,
    section_volume_ellipsoid,
    section_volume_mc,
    section_volume_polytope,
    section_volume_quadric,
)

E1 = Direction(np.array([1.0, 0.0, 0.0]))
E3 = Direction(np.array([0.0, 0.0, 1.0]))


def unit(v):
    return Direction.from_vector(v)


# frozen closed-form values


def test_unit_ball_central_section_is_pi():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    assert section_volume(ball, E3, 0.0) == pytest.approx(math.pi, abs=1e-14)


def test_unit_ball_section_profile_values():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    assert section_volume(ball, E3, 0.5) == pytest.approx(math.pi * 0.75, abs=1e-14)
    assert section_volume(ball, E3, 1.0) == pytest.approx(0.0, abs=0)
    assert section_volume(ball, E3, 1.5) == 0.0


def test_axis_ellipsoid_central_section():
    ell = Ellipsoid.from_axes([2.0, 1.5, 0.5])
    # slice orthogonal to x has semi-axes 1.5, 0.5
    assert section_volume(ell, E1, 0.0) == pytest.approx(math.pi * 0.75, abs=1e-13)


def test_cube_sections_along_axis_and_diagonal():
    cube = Polytope.cube(3)
    assert section_volume(cube, E3, 0.0) == pytest.approx(4.0, abs=1e-12)
    assert section_volume(cube, E3, 0.999) == pytest.approx(4.0, abs=1e-12)
    d = unit([1, 1, 1])
    # central diagonal section of [-1,1]^3 is a regular hexagon of area 3 sqrt 3
    assert section_volume(cube, d, 0.0) == pytest.approx(3.0 * math.sqrt(3.0), abs=1e-12)
    # near the corner the slice is a shrinking triangle
    t = math.sqrt(3.0) * (1.0 - 1e-3)
    tri = section_volume(cube, d, t)
    assert tri > 0.0
    assert tri == pytest.approx(math.sqrt(3) * 1.5 * (math.sqrt(3) - t) ** 2, rel=1e-9)


def test_square_section_is_segment_length():
    square = Polytope.cube(2)
    assert section_volume(square, unit([1, 0]), 0.0) == pytest.approx(2.0, abs=1e-13)
    assert section_volume(square, unit([1, 1]), 0.0) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-13
    )


def test_disk_section_values():
    disk = Ellipsoid.from_axes([1.0, 1.0])
    assert section_volume(disk, unit([0, 1]), 0.6) == pytest.approx(1.6, abs=1e-14)
    assert section_volume(disk, unit([0, 1]), 0.0) == pytest.approx(2.0, abs=1e-14)


def test_paraboloid_axis_sections():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    down = unit([0, 0, -1])
    # plane z = 4 cuts a radius-2 disk
    assert section_volume(par, down, -4.0) == pytest.approx(4.0 * math.pi, abs=1e-13)
    assert section_volume(par, down, 0.0) == pytest.approx(0.0, abs=0)


def test_hyperboloid_axis_section():
    hyp = QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.0]), 1.0)
    up = unit([0, 0, 1])
    # plane z = 2: rho^2 = z^2 - 1 = 3
    assert section_volume(hyp, up, 2.0) == pytest.approx(3.0 * math.pi, abs=1e-13)
    assert section_volume(hyp, up, 1.0) == pytest.approx(0.0, abs=0)


def test_quadric_unbounded_slice_raises():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    with pytest.raises(UnboundedSliceError):
        section_volume(par, E1, 0.0)
    hyp = QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.0]), 1.0)
    with pytest.raises(UnboundedSliceError):
        section_volume(hyp, unit([0.8, 0.0, 0.6]), 5.0)


def test_tilted_paraboloid_section_monotone_in_t():
    par = QuadricDomain("paraboloid", np.array([1.0, 2.0]))
    d = unit([0.3, -0.2, -0.9])
    # offsets run downward from the entry value h(xi) when xi points below
    hi = par.support(d.components)
    vals = [section_volume(par, d, hi - s) for s in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# invariances


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.floats(-0.9, 0.9))
def test_section_evenness_ellipsoid(seed, t):
    body = random_ellipsoid(3, seed=seed)
    g = np.random.default_rng(seed + 1).standard_normal(3)
    d = Direction.from_vector(g)
    a = section_volume(body, d, t)
    b = section_volume(body, Direction(-d.components), -t)
    assert a == pytest.approx(b, abs=1e-12 * max(1.0, a))


def test_section_evenness_polytope():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5):
        for body in (random_simplex(n, seed=11), Polytope.cube(n).rotated(random_rotation(n, seed=n))):
            for _ in range(60):
                d = Direction.from_vector(rng.standard_normal(n))
                lo, hi = chord_interval(body, d)
                t = rng.uniform(lo, hi)
                a = section_volume(body, d, t)
                b = section_volume(body, Direction(-d.components), -t)
                assert a == pytest.approx(b, abs=1e-12 * max(1.0, a))


def test_section_translation_invariance():
    body = random_ellipsoid(3, seed=5)
    shift = np.array([0.3, -0.8, 1.1])
    moved = body.translated(shift)
    rng = np.random.default_rng(2)
    for _ in range(40):
        d = Direction.from_vector(rng.standard_normal(3))
        t = rng.uniform(-0.5, 0.5)
        a = section_volume(body, d, t)
        b = section_volume(moved, d, t + shift @ d.components)
        assert b == pytest.approx(a, abs=1e-12 * max(1.0, a))


def test_section_scaling_rule():
    body = random_ellipsoid(3, seed=8)
    rng = np.random.default_rng(3)
    for lam in (0.5, 2.0, 3.0):
        scaled = body.scaled(lam)
        for _ in range(20):
            d = Direction.from_vector(rng.standard_normal(3))
            t = rng.uniform(-0.4, 0.4)
            a = section_volume(body, d, t)
            b = section_volume(scaled, d, lam * t)
            assert b == pytest.approx(lam**2 * a, rel=1e-10, abs=1e-10)


def test_section_rotation_equivariance():
    body = random_ellipsoid(3, seed=13)
    Q = random_rotation(3, seed=4)
    rotated = body.rotated(Q)
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = Direction.from_vector(rng.standard_normal(3))
        t = rng.uniform(-0.5, 0.5)
        a = section_volume(body, d, t)
        b = section_volume(rotated, Direction.from_vector(Q @ d.components), t)
        assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


def test_polytope_section_continuity_across_vertex_offsets():
    # slice area is continuous even where the plane hits a vertex
    body = Polytope.cube(3)
    d = unit([1, 1, 1])
    t0 = 1.0 / math.sqrt(3.0)  # plane through three vertices
    eps = 1e-9
    lo = section_volume(body, d, t0 - eps)
    at = section_volume(body, d, t0)
    hi = section_volume(body, d, t0 + eps)
    assert lo == pytest.approx(at, rel=1e-6)
    assert hi == pytest.approx(at, rel=1e-6)


def test_facet_parallel_slice_gives_facet_area():
    cube = Polytope.cube(3)
    assert section_volume(cube, E3, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert section_volume(cube, E3, -1.0) == pytest.approx(4.0, abs=1e-12)


def test_four_cube_facet_slices_and_continuity():
    cube = Polytope.cube(4)
    e4 = unit([0, 0, 0, 1])
    ends = section_volume(cube, e4, np.array([-1.0, 1.0]))
    assert ends == pytest.approx([8.0, 8.0], abs=1e-12)
    assert section_volume(cube, e4, np.array([-1.0 - 1e-12, 1.0 + 1e-12])).tolist() == [0.0, 0.0]
    # along (1, 1, 0, 0) the vertex heights are -sqrt 2, 0 and sqrt 2; the
    # slice is continuous across the middle one
    d = unit([1, 1, 0, 0])
    eps = 1e-9
    lo, at, hi = section_volume(cube, d, np.array([-eps, 0.0, eps]))
    assert at == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-12)
    assert lo == pytest.approx(at, rel=1e-8)
    assert hi == pytest.approx(at, rel=1e-8)


# exact oracles that share no code with the section engines


def _ball_volume(d):
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def _ellipsoid_section_oracle(body, xi, t):
    """Volume of the (n-1)-ellipsoid cut by {x.xi = t}: restrict the form to
    x = t xi + U^T y for an orthonormal basis U of xi-perp and complete the
    square, which leaves radius^2 = 1 - d^T M d + b^T B^-1 b, d = t xi - c."""
    U = sections_module._householder_frame(xi)[1:]
    M = body.shape
    B = U @ M @ U.T
    d = t * xi - body.center
    b = U @ M @ d
    r2 = 1.0 - d @ M @ d + b @ np.linalg.solve(B, b)
    k = xi.size - 1
    return _ball_volume(k) * max(r2, 0.0) ** (k / 2) / math.sqrt(np.linalg.det(B))


def _polytope_section_oracle(body, xi, t):
    """Volume of the convex hull of the vertices on {x.xi = t} and the points
    where edges of the vertex set cross it, in a basis of xi-perp."""
    V = body.vertices
    h = V @ xi - t
    i, j = np.triu_indices(len(V), 1)
    cross = h[i] * h[j] < 0.0
    i, j = i[cross], j[cross]
    frac = (h[i] / (h[i] - h[j]))[:, None]
    points = np.vstack([V[h == 0.0], V[i] + frac * (V[j] - V[i])])
    Y = points @ sections_module._householder_frame(xi)[1:].T
    if Y.shape[1] == 1:
        return float(Y.max() - Y.min())
    return ConvexHull(Y).volume


def _oracle_error(body, xi, oracle):
    """max |engine - oracle| over a profile's grid, over the profile's max."""
    prof = profile(body, xi, num_points=40)
    want = np.array([oracle(body, xi, t) for t in prof.grid])
    return float(np.abs(prof.values - want).max() / prof.values.max())


def test_ellipsoid_sections_match_the_restricted_form():
    rng = np.random.default_rng(41)
    for n in range(2, 7):
        for seed in range(12):
            g = rng.standard_normal(n)
            xi = g / np.linalg.norm(g)
            assert _oracle_error(random_ellipsoid(n, seed=100 * n + seed), xi, _ellipsoid_section_oracle) <= 1e-12


def test_polytope_sections_match_the_hull_of_edge_crossings():
    rng = np.random.default_rng(42)
    for n in range(2, 6):
        for seed in range(4):
            cube = Polytope.cube(n).rotated(random_rotation(n, seed=300 * n + seed))
            G = rng.standard_normal((n + 8, n))
            on_sphere = G / np.linalg.norm(G, axis=1, keepdims=True)
            for body in (
                random_simplex(n, seed=200 * n + seed),
                cube.scaled(rng.uniform(0.5, 2.0)).translated(rng.uniform(-0.5, 0.5, n)),
                Polytope(on_sphere * rng.uniform(0.5, 2.0, n)),
            ):
                g = rng.standard_normal(n)
                xi = g / np.linalg.norm(g)
                assert _oracle_error(body, xi, _polytope_section_oracle) <= 1e-12


# Monte Carlo agreement


def test_mc_matches_exact_on_spec_bodies():
    checks = [
        (Ellipsoid.from_axes([1.0, 1.0, 1.0]), E3, 0.5),
        (Ellipsoid.from_axes([2.0, 1.5, 0.5]), E1, 0.0),
        (Polytope.cube(3), unit([1, 1, 1]), 0.0),
    ]
    for body, d, t in checks:
        exact = section_volume(body, d, t)
        est, err = section_volume_mc(body, d, t, samples=1_000_000, seed=42)
        assert abs(est - exact) < 3.0 * err
        assert err < 0.05 * exact


def test_mc_matches_exact_on_higher_dimensional_polytopes():
    rng = np.random.default_rng(404)
    bodies = [
        Polytope.cube(4).rotated(random_rotation(4, seed=8)).translated([0.2, -0.1, 0.3, 0.0]),
        Polytope.cube(5),
        random_simplex(4, seed=6),
    ]
    for k, body in enumerate(bodies):
        d = Direction.from_vector(rng.standard_normal(body.n))
        lo, hi = chord_interval(body, d)
        for j, frac in enumerate((0.2, 0.45, 0.7)):
            t = lo + frac * (hi - lo)
            exact = section_volume(body, d, t)
            # a slab of 1 % of the chord: its averaging bias stays far below err
            w = 0.01 * (hi - lo)
            est, err = section_volume_mc(body, d, t, slab_halfwidth=w, samples=200_000, seed=10 * k + j)
            assert 0.0 < err < 0.3 * exact
            assert abs(est - exact) <= 5.0 * err, (body.n, t, est, err, exact)


def test_mc_is_deterministic():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    a = section_volume_mc(ball, E3, 0.3, samples=200_000, seed=9)
    b = section_volume_mc(ball, E3, 0.3, samples=200_000, seed=9)
    assert a == b


def test_mc_quadric_requires_box():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        section_volume_mc(par, unit([0, 0, -1]), -2.0, samples=10_000, seed=0)
    est, err = section_volume_mc(
        par,
        unit([0, 0, -1]),
        -2.0,
        samples=400_000,
        seed=0,
        box=(np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 4.0])),
    )
    assert abs(est - 2.0 * math.pi) < 3.0 * err


def test_mc_agreement_random_triples():
    # >= 95 of 100 random (body, direction, t) triples inside 3 sigma
    rng = np.random.default_rng(123)
    hits = 0
    for k in range(100):
        body = random_ellipsoid(3, seed=1000 + k)
        d = Direction.from_vector(rng.standard_normal(3))
        lo, hi = chord_interval(body, d)
        t = rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))
        exact = section_volume(body, d, t)
        est, err = section_volume_mc(body, d, t, samples=120_000, seed=k)
        if abs(est - exact) <= 3.0 * max(err, 1e-12):
            hits += 1
    assert hits >= 95


# profiles


def test_lobatto_grid_shape():
    g = lobatto_grid(-1.0, 3.0, 33)
    assert g[0] == -1.0 and g[-1] == 3.0
    assert np.all(np.diff(g) > 0)
    # clustered toward the endpoints
    assert g[1] - g[0] < (g[17] - g[16]) / 3.0


def test_profile_ellipsoid_grid_and_values():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    prof = profile(ball, E3, num_points=48, margin=0.0)
    assert isinstance(prof, SectionProfile)
    assert prof.grid[0] == pytest.approx(-1.0, abs=1e-12)
    assert prof.grid[-1] == pytest.approx(1.0, abs=1e-12)
    mid = np.argmin(np.abs(prof.grid))
    assert prof.values[mid] == pytest.approx(
        math.pi * (1 - prof.grid[mid] ** 2), abs=1e-12
    )


def test_section_profile_rejects_non_finite_samples():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    grid = lobatto_grid(-0.9, 0.9, 16)
    values = section_volume(ball, E3, grid)
    # infinite ends keep the grid strictly increasing; a NaN passes both
    # order tests, so only the finiteness check catches it
    for i, bad in ((5, np.nan), (0, -np.inf), (15, np.inf)):
        g = grid.copy()
        g[i] = bad
        with pytest.raises(ValueError, match="^grid must be finite$"):
            SectionProfile(E3, g, values, 3)
    for bad in (np.nan, np.inf, -np.inf):
        v = values.copy()
        v[5] = bad
        with pytest.raises(ValueError, match="^values must be finite$"):
            SectionProfile(E3, grid, v, 3)
    # one NaN in each: the grid is named first
    g, v = grid.copy(), values.copy()
    g[3], v[7] = np.nan, np.nan
    with pytest.raises(ValueError, match="^grid must be finite$"):
        SectionProfile(E3, g, v, 3)
    assert SectionProfile(E3, grid, values, 3).values.tobytes() == values.tobytes()


def test_section_profile_needs_two_grid_points():
    """An empty or one-point grid is refused by name, before any fit can
    index its ends or rescale by a zero width (under the suite's
    RuntimeWarning-as-error filter, a 0/0 would fail here too)."""
    for grid in ([], [0.5]):
        with pytest.raises(ValueError, match="^grid must have at least two points$"):
            SectionProfile(E3, np.array(grid), np.ones(len(grid)), 3)
    prof = SectionProfile(E3, np.array([-0.5, 0.5]), np.array([1.0, 1.0]), 3)
    assert len(prof) == 2


def test_profile_margin_shrinks_window():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    prof = profile(ball, E3, num_points=16, margin=0.1)
    assert prof.grid[0] == pytest.approx(-0.8, abs=1e-12)
    assert prof.grid[-1] == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)])
def test_profile_rejects_a_non_finite_window(window):
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"^window must be finite, got \("):
        profile(ball, E3, num_points=16, window=window)


def test_profile_unbounded_body_needs_window():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    with pytest.raises(InfiniteSupportError):
        profile(par, unit([0, 0, -1]), num_points=16)
    prof = profile(par, unit([0, 0, -1]), num_points=16, window=(-4.0, -0.5))
    assert prof.values[0] == pytest.approx(4.0 * math.pi, abs=1e-12)


# array offsets and non-finite offsets


def _family_cases():
    """(body, direction, offsets) per family, with chord ends, vertex heights,
    offsets outside the chord and NaN among the offsets."""
    cases = []
    rot = random_rotation(3, seed=2)
    polytopes = [
        (Polytope.cube(3), unit([0, 0, 1])),
        (Polytope.cube(3), unit([1, 1, 0])),
        (Polytope.cube(3), unit([1, 1, 1])),
        (Polytope.cube(3).rotated(rot).translated([0.2, -0.1, 0.4]), unit([0.3, -0.5, 0.8])),
        (random_simplex(3, seed=5), unit([0.6, 0.2, -0.7])),
        (Polytope.cube(2), unit([1, 0])),
        (Polytope.cube(2), unit([1, 1])),
        (random_simplex(2, seed=3), unit([0.4, -0.9])),
        (Polytope.cube(4), unit([0, 0, 0, 1])),
        (Polytope.cube(4), unit([1, 1, 0, 0])),
        (Polytope.cube(4).rotated(random_rotation(4, seed=3)), unit([0.3, -0.5, 0.8, 0.1])),
        (random_simplex(4, seed=4), unit([0.2, 0.7, -0.4, 0.5])),
        (Polytope.cube(5), unit([1, 1, 1, 0, 0])),
        (random_simplex(5, seed=5), unit([0.6, -0.1, 0.3, 0.2, -0.7])),
    ]
    for body, d in polytopes:
        h = body.vertices @ d.components
        lo, hi = h.min(), h.max()
        inner = np.linspace(lo, hi, 13)
        cases.append((body, d, np.concatenate([h, inner, [lo - 0.5, hi + 0.5, np.nan, np.inf]])))
    for n in (2, 3, 4):
        body = random_ellipsoid(n, seed=n)
        d = Direction.from_vector(np.arange(1.0, n + 1.0))
        lo, hi = chord_interval(body, d)
        cases.append((body, d, np.concatenate([np.linspace(lo, hi, 11), [lo - 1.0, hi + 1.0, np.nan]])))
    par = QuadricDomain("paraboloid", np.array([1.0, 2.0]))
    cases.append((par, unit([0.3, -0.2, -0.9]), np.array([-6.0, -2.5, -0.1, 0.0, 0.2, 3.0, np.nan])))
    hyp = QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.5]), 0.8)
    cases.append((hyp, unit([0.1, 0.2, 0.9]), np.array([-3.0, -0.5, 0.0, 0.5, 0.7, 2.0, 6.0, np.nan])))
    return cases


def test_array_offsets_match_scalar_calls_exactly():
    for body, d, ts in _family_cases():
        batch = section_volume(body, d, ts)
        assert isinstance(batch, np.ndarray) and batch.shape == ts.shape
        single = [section_volume(body, d, t) for t in ts]
        assert all(type(a) is float for a in single)
        assert np.array_equal(batch, np.array(single), equal_nan=True), type(body).__name__
        grid = section_volume(body, d, ts.reshape(-1, 1))
        assert grid.shape == (ts.size, 1)
        assert np.array_equal(grid.ravel(), batch, equal_nan=True)


def test_nan_offset_gives_nan_in_every_family():
    engines = {
        Ellipsoid: section_volume_ellipsoid,
        Polytope: section_volume_polytope,
        QuadricDomain: section_volume_quadric,
    }
    seen = set()
    for body, d, _ in _family_cases():
        engine = engines[type(body)]
        assert math.isnan(engine(body, d, math.nan))
        both = engine(body, d, np.array([np.nan, np.nan]))
        assert np.all(np.isnan(both))
        seen.add(type(body))
    assert seen == set(engines)


def test_polytope_chord_ends_and_outside():
    cube = Polytope.cube(3)
    d = unit([1, 1, 1])
    lo, hi = chord_interval(cube, d)
    vals = section_volume(cube, d, np.array([lo - 1e-9, lo, hi, hi + 1e-9]))
    assert vals.tolist() == [0.0, 0.0, 0.0, 0.0]
    # facet-parallel slices at both chord ends give the facet, even in a batch
    ends = section_volume(cube, E3, np.array([-1.0, 1.0]))
    assert ends == pytest.approx([4.0, 4.0], abs=1e-12)


def test_profile_makes_one_section_call(monkeypatch):
    calls = []
    real = sections_module.section_volume

    def counting(body, xi, t):
        calls.append(np.size(t))
        return real(body, xi, t)

    monkeypatch.setattr(sections_module, "section_volume", counting)
    profile(Polytope.cube(3), unit([0.3, -0.5, 0.8]), num_points=64)
    assert calls == [64]


def test_profile_reads_its_direction_at_most_twice(monkeypatch):
    reads = []
    engines = []
    real_rows = bodies_module._direction_rows

    def counting_rows(xi, n):
        reads.append(np.shape(xi))
        return real_rows(xi, n)

    monkeypatch.setattr(bodies_module, "_direction_rows", counting_rows)
    monkeypatch.setattr(sections_module, "_direction_rows", counting_rows)
    for name in ("section_volume_ellipsoid", "section_volume_polytope", "section_volume_quadric"):
        real = getattr(sections_module, name)

        def counting(body, xi, t, real=real):
            engines.append(np.size(t))
            return real(body, xi, t)

        monkeypatch.setattr(sections_module, name, counting)
    par = QuadricDomain("paraboloid", np.array([1.0, 0.7]))
    cases = (
        (random_ellipsoid(3, seed=2), {}),
        (Polytope.cube(3), {}),
        (random_simplex(4, seed=1), {"margin": 0.0}),
        (par, {"window": (0.5, 4.0)}),
    )
    for body, kwargs in cases:
        xi = np.arange(1.0, body.n + 1.0)
        xi /= np.linalg.norm(xi)
        reads.clear()
        engines.clear()
        prof = profile(body, xi, num_points=48, **kwargs)
        # profile's own check and the engine's; the chord and the
        # SectionProfile reuse the checked direction
        assert reads == [(body.n,), (body.n,)], type(body).__name__
        assert engines == [48]
        assert not prof.xi.flags.writeable


def test_mc_reads_its_direction_once(monkeypatch):
    reads = []
    real_rows = bodies_module._direction_rows

    def counting_rows(xi, n):
        reads.append(np.shape(xi))
        return real_rows(xi, n)

    par = QuadricDomain("paraboloid", np.array([1.0, 0.7]))
    box = (np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 3.0]))
    cases = (
        (random_ellipsoid(3, seed=2), None),
        (Polytope.cube(3), None),
        (random_simplex(4, seed=1), None),
        (par, box),
    )
    for body, box in cases:
        xi = np.arange(1.0, body.n + 1.0)
        xi /= np.linalg.norm(xi)
        if box is None:
            lo, hi = chord_interval(body, xi)
        else:
            # an unbounded body sizes its slab by the box's extent along xi
            lo = -np.maximum(-xi * box[0], -xi * box[1]).sum()
            hi = np.maximum(xi * box[0], xi * box[1]).sum()
        t = 0.4 * lo + 0.6 * hi
        want = section_volume_mc(body, xi, t, slab_halfwidth=1e-3 * (hi - lo), samples=20_000, seed=3, box=box)
        monkeypatch.setattr(bodies_module, "_direction_rows", counting_rows)
        monkeypatch.setattr(sections_module, "_direction_rows", counting_rows)
        reads.clear()
        got = section_volume_mc(body, xi, t, samples=20_000, seed=3, box=box)
        monkeypatch.undo()
        # the default slab reuses the checked direction for its chord
        assert reads == [(body.n,)], type(body).__name__
        assert got == want


def test_profile_equals_its_parts():
    for body, xi in ((random_ellipsoid(4, seed=3), unit([0.2, -0.4, 0.1, 0.9])), (Polytope.cube(3), unit([0.3, -0.5, 0.8]))):
        for margin in (0.0, 0.02, 0.3):
            prof = profile(body, xi, num_points=40, margin=margin)
            lo, hi = chord_interval(body, xi)
            width = hi - lo
            grid = lobatto_grid(lo + margin * width, hi - margin * width, 40)
            assert prof.grid.tobytes() == grid.tobytes()
            assert prof.values.tobytes() == section_volume(body, xi, grid).tobytes()
            assert prof.xi.tobytes() == np.asarray(xi).tobytes()


def test_lobatto_nodes_are_cached_read_only():
    for num in (2, 16, 96, 97):
        nodes = sections_module._lobatto_nodes(num)
        assert not nodes.flags.writeable
        assert nodes.tobytes() == (-np.cos(np.pi * np.arange(num) / (num - 1))).tobytes()
        assert sections_module._lobatto_nodes(num) is nodes
        grid = lobatto_grid(-0.3, 2.0, num)
        # each grid is a fresh, writable array
        grid[1:-1] += 0.0
        assert lobatto_grid(-0.3, 2.0, num).tobytes() == grid.tobytes()


def _slab_frame_reference(body, xi, t, w, samples, seed, lo, hi):
    """The slab-frame estimate redrawn in one piece from raw Philox output,
    with its draw count and the rows it tests: R in the Householder frame of
    xi, mapped to x = s xi + U z, rows outside the box dropped."""
    v = xi.components
    n = v.size
    a = v.copy()
    a[0] += 1.0 if v[0] >= 0.0 else -1.0
    Q = np.eye(n) - (2.0 / (a @ a)) * np.outer(a, a)
    Q[0] = v
    h_up = np.array([np.sum(np.maximum(lo * q, hi * q)) for q in Q])
    h_down = np.array([np.sum(np.maximum(-lo * q, -hi * q)) for q in Q])
    r_lo, r_hi = -h_down, h_up
    r_lo[0], r_hi[0] = max(t - w, r_lo[0]), min(t + w, r_hi[0])
    region_volume = float(np.prod(r_hi - r_lo))
    draws = math.ceil(samples * region_volume / float(np.prod(hi - lo)))
    Y = np.random.Generator(np.random.Philox(seed)).random((draws, n))
    Y = r_lo + (r_hi - r_lo) * Y
    X = Y[:, :1] * Q[0]
    for j in range(1, n):
        X = X + Y[:, j : j + 1] * Q[j]
    rows = X[np.all((lo <= X) & (X <= hi), axis=1)]
    p = np.count_nonzero(body.contains_points(rows)) / draws
    estimate = region_volume * p / (2.0 * w)
    return (estimate, region_volume * math.sqrt(p * (1.0 - p) / draws) / (2.0 * w)), draws, rows


class _CountingGenerator(np.random.Generator):
    """``np.random.Generator`` that records every batch drawn."""

    batches = []

    def random(self, size):
        self.batches.append(size[0])
        return super().random(size)


def _mc_reference_cases():
    body = random_ellipsoid(3, seed=31)
    d = unit([0.4, -0.2, 0.9])
    lo, hi = body.bounding_box()
    # the last slab covers the box, and R (about 3 box volumes) takes two batches
    for seed, samples, w in ((0, 50_000, 0.01), (7, 50_001, 0.01), (123, 1_000_003, 0.01), (5, 400_000, 50.0)):
        yield body, d, 0.2, w, samples, seed, None, (lo, hi)
    sheet = QuadricDomain("hyperboloid-sheet", np.array([1.0, 0.8]), 0.7)
    box = (np.array([-2.0, -1.5, 0.0]), np.array([2.5, 1.5, 4.0]))
    for seed in (3, 4):
        yield sheet, unit([0.1, 0.0, 1.0]), 2.0, 0.02, 200_000, seed, box, box


def test_mc_draws_equal_slab_frame_reference(monkeypatch):
    for body, d, t, w, samples, seed, box, (lo, hi) in _mc_reference_cases():
        _CountingGenerator.batches = []
        tested = []
        real = type(body).contains_points

        def recorded(self, X):
            tested.append(X.copy())
            return real(self, X)

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "Generator", _CountingGenerator)
            patch.setattr(type(body), "contains_points", recorded)
            got = section_volume_mc(body, d, t, slab_halfwidth=w, samples=samples, seed=seed, box=box)
        want, draws, rows = _slab_frame_reference(body, d, t, w, samples, seed, lo, hi)
        assert got == want, (type(body).__name__, seed)
        assert np.array_equal(np.concatenate(tested), rows)
        # ceil(samples * Vol(R) / Vol(box)) points, in batches of at most 10^6
        assert sum(_CountingGenerator.batches) == draws
        assert max(_CountingGenerator.batches) <= 1_000_000
        assert len(_CountingGenerator.batches) == -(-draws // 1_000_000)


def test_mc_tests_only_rows_in_slab_and_box(monkeypatch):
    tested = []
    for body, d, t, w, samples, seed, box, (lo, hi) in _mc_reference_cases():
        real = type(body).contains_points

        def checked(self, X):
            # in the slab up to the rounding of x = s xi + U z
            assert np.all(np.abs(X @ d.components - t) <= w + 1e-12)
            assert np.all((lo <= X) & (X <= hi))
            tested.append(len(X))
            return real(self, X)

        with monkeypatch.context() as patch:
            patch.setattr(type(body), "contains_points", checked)
            section_volume_mc(body, d, t, slab_halfwidth=w, samples=min(samples, 200_000), seed=seed, box=box)
    assert len(tested) == 6 and min(tested) > 0


def test_mc_precision_no_worse_than_box_draw():
    # stderr against the analytic one of `samples` uniform points of the box
    samples = 200_000
    bodies = [random_ellipsoid(2 + k % 3, seed=900 + k) for k in range(30)] + [Polytope.cube(3)]
    ratios = []
    for k, body in enumerate(bodies):
        rng = np.random.default_rng(950 + k)
        d = Direction.from_vector(rng.standard_normal(body.n))
        lo, hi = chord_interval(body, d)
        t = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
        w = 1e-3 * (hi - lo)
        box_lo, box_hi = body.bounding_box()
        box_volume = float(np.prod(box_hi - box_lo))
        q = 2.0 * w * section_volume(body, d, t) / box_volume
        box_stderr = box_volume * math.sqrt(q * (1.0 - q) / samples) / (2.0 * w)
        _, err = section_volume_mc(body, d, t, samples=samples, seed=k)
        ratios.append(err / box_stderr)
    assert np.median(ratios) <= 1.0
    assert max(ratios) <= 1.5


def test_mc_nan_offset_gives_nan():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    got = section_volume_mc(ball, E3, math.nan, samples=1000, seed=0)
    assert all(math.isnan(x) for x in got)
    assert math.isnan(section_volume(ball, E3, math.nan))


def test_mc_rejects_bad_slab_halfwidth():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    for w in (math.nan, math.inf, -math.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="slab_halfwidth"):
            section_volume_mc(ball, E3, 0.0, slab_halfwidth=w, samples=1000, seed=0)


def test_mc_rejects_bad_samples():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    for samples in (2.5, True, 0, -3, None, "1000"):
        with pytest.raises(ValueError, match="samples"):
            section_volume_mc(ball, E3, 0.0, samples=samples, seed=0)
    assert section_volume_mc(ball, E3, 0.0, samples=np.int64(5000), seed=2) == section_volume_mc(
        ball, E3, 0.0, samples=5000, seed=2
    )


def test_mc_scalar_box_bounds_every_coordinate():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    scalar = section_volume_mc(ball, E3, 0.0, samples=20_000, seed=1, box=(-1.0, 1.0))
    assert scalar == section_volume_mc(ball, E3, 0.0, samples=20_000, seed=1, box=(-np.ones(3), np.ones(3)))


def test_mc_rejects_non_finite_box():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    for hi in (np.array([2.0, 2.0, np.inf]), np.array([2.0, np.nan, 4.0])):
        with pytest.raises(ValueError, match="finite"):
            section_volume_mc(par, unit([0, 0, -1]), -2.0, samples=1000, seed=0, box=(-hi, hi))


# direction stacks


def _unit_rows(G):
    return G / np.sqrt(np.vecdot(G, G))[:, None]


def _stack_cases():
    """(body, direction stack, (m, k) offsets) per family: chord ends, inner
    and outside offsets for bounded bodies, offsets on both sheets' sides for
    the quadrics, whose rows stay inside the bounded-slice cone, and NaN and
    +-inf in every family."""
    rng = np.random.default_rng(17)
    cases = []
    for n in (2, 3, 4, 5):
        body = random_ellipsoid(n, seed=70 + n)
        cases.append((body, _unit_rows(rng.standard_normal((40, n)))))
    # the shifted cube's axis rows put facet-parallel chord ends at different
    # heights in one stack
    shifted = Polytope.cube(3).translated([0.3, -0.2, 0.1])
    for body in (Polytope.cube(2), Polytope.cube(3), shifted, Polytope.cube(4), random_simplex(5, seed=2)):
        D = np.vstack([np.eye(body.n), _unit_rows(rng.standard_normal((12, body.n)))])
        cases.append((body, D))
    out = []
    for body, D in cases:
        T = np.empty((len(D), 10))
        for i, d in enumerate(D):
            lo, hi = chord_interval(body, d)
            T[i] = [lo, hi, *rng.uniform(lo, hi, 3), lo - 0.5, hi + 0.5, np.nan, np.inf, -np.inf]
        out.append((body, D, T))
    for body in (
        QuadricDomain("paraboloid", np.array([1.0, 2.0])),
        QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.5]), 0.8),
    ):
        V = np.column_stack([rng.uniform(-0.3, 0.3, (20, 2)), rng.choice([-1.0, 1.0], 20)])
        T = np.column_stack([rng.uniform(-6.0, 6.0, (20, 7)), np.full((20, 3), [np.nan, np.inf, -np.inf])])
        out.append((body, _unit_rows(V), T))
    return out


def test_direction_stack_matches_one_direction_calls():
    for body, D, T in _stack_cases():
        name = type(body).__name__
        rows = np.array([section_volume(body, Direction(d), t) for d, t in zip(D, T)])
        for offsets, want in ((T, rows), (T[:, 2], rows[:, 2])):
            got = section_volume(body, D, offsets)
            assert isinstance(got, np.ndarray) and got.shape == offsets.shape, name
            assert np.array_equal(got, want, equal_nan=True), (name, body.n)


def test_direction_stack_evenness():
    for body, D, T in _stack_cases():
        got = section_volume(body, -D, -T)
        want = section_volume(body, D, T)
        if isinstance(body, Polytope):
            # the knots come in reverse order, so the recurrence rounds differently
            assert got == pytest.approx(want, abs=1e-12, nan_ok=True)
        else:
            assert np.array_equal(got, want, equal_nan=True), type(body).__name__


def test_direction_stack_validation():
    body = random_ellipsoid(3, seed=4)
    D = _unit_rows(np.random.default_rng(0).standard_normal((4, 3)))
    ts = np.zeros(4)
    bad = D.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        section_volume(body, bad, ts)
    bad = D.copy()
    bad[2] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="unit Euclidean norm"):
        section_volume(body, bad, ts)
    with pytest.raises(ValueError, match="dimension 3"):
        section_volume(body, D[:, :2], ts)
    for offsets in (np.zeros(3), np.zeros((5, 2)), 0.0, np.zeros((4, 1, 1))):
        with pytest.raises(ValueError, match="do not match a stack of 4 directions"):
            section_volume(body, D, offsets)
    # every family checks a stack through the same rule
    with pytest.raises(ValueError, match="unit Euclidean norm"):
        section_volume(Polytope.cube(3), 2.0 * D, ts)
    with pytest.raises(ValueError, match="do not match"):
        section_volume(Polytope.cube(3), D, np.zeros(3))


@pytest.mark.parametrize(
    "body, bad_row",
    [
        # xi_n = 0: the plane is parallel to the paraboloid's axis
        (QuadricDomain("paraboloid", np.array([1.0, 2.0])), [0.6, -0.8, 0.0]),
        # outside the bounded-slice cone c^2 xi_n^2 > sum a_j^2 xi_j^2
        (QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.5]), 0.8), [0.0, 0.8, 0.6]),
    ],
    ids=["paraboloid", "hyperboloid-sheet"],
)
def test_quadric_stack_with_one_unbounded_row_raises(body, bad_row):
    D = _unit_rows(np.array([[0.1, 0.2, -1.0], bad_row, [-0.2, 0.1, 1.0]]))
    with pytest.raises(UnboundedSliceError):
        section_volume(body, Direction(D[1]), 1.0)
    with pytest.raises(UnboundedSliceError):
        section_volume(body, D, np.ones(3))
    # the other rows alone are bounded
    assert section_volume(body, D[[0, 2]], np.ones(2)).shape == (2,)


@pytest.mark.parametrize(
    "body",
    [
        QuadricDomain("paraboloid", np.array([1.0, 2.0])),
        QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.5]), 0.8),
    ],
    ids=["paraboloid", "hyperboloid-sheet"],
)
def test_section_evenness_quadrics(body):
    rng = np.random.default_rng(8)
    ts = np.linspace(-6.0, 6.0, 25)
    for _ in range(30):
        # a direction inside the bounded-slice cone of either sheet
        v = np.append(rng.uniform(-0.3, 0.3, size=2), rng.choice([-1.0, 1.0]))
        d = Direction.from_vector(v)
        a = section_volume(body, d, ts)
        assert np.any(a > 0.0)
        assert np.array_equal(section_volume(body, -d, -ts), a)
