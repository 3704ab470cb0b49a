import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.special import beta as beta_fn, roots_jacobi, roots_legendre

import tomoslice.radon as radon_module
from tomoslice import cli
from tomoslice.bodies import (
    Direction,
    Ellipsoid,
    Polytope,
    QuadricDomain,
    InfiniteSupportError,
    chord_interval,
    random_ellipsoid,
    random_rotation,
    random_simplex,
    sample_directions,
    unit_ball_volume,
)
from tomoslice.radon import (
    MomentReport,
    homogeneous_exponents,
    moment,
    monomial_design_matrix,
    range_test,
)
from tomoslice.sections import section_volume

E1 = Direction(np.array([1.0, 0.0, 0.0]))
E3 = Direction(np.array([0.0, 0.0, 1.0]))


def closed_moment(body, xi, k):
    """Moment of the slice-volume function via the Beta integral.

    With tc the center offset and hb the half chord width, substitute
    t = tc + hb s to reduce every term to B((j+1)/2, (n+1)/2).
    """
    n = body.n
    v = np.asarray(xi, dtype=float)
    v = v / np.linalg.norm(v)
    minv = np.linalg.inv(body.shape)
    hb = math.sqrt(v @ minv @ v)
    tc = float(body.center @ v)
    const = unit_ball_volume(n - 1) / math.sqrt(np.linalg.det(body.shape))
    total = 0.0
    for j in range(0, k + 1, 2):
        total += (
            math.comb(k, j)
            * tc ** (k - j)
            * hb**j
            * beta_fn((j + 1) / 2.0, (n + 1) / 2.0)
        )
    return const * total


def test_ball_zeroth_moment_is_volume():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    assert moment(ball, E3, 0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def test_shifted_ball_first_moment():
    shifted = Ellipsoid.from_axes([1.0, 1.0, 1.0], center=[0.3, 0.0, 0.0])
    assert moment(shifted, E1, 1) == pytest.approx(4.0 * math.pi / 3.0 * 0.3, rel=1e-12)
    assert moment(shifted, E3, 1) == pytest.approx(0.0, abs=1e-12)


def test_cube_moments():
    cube = Polytope.cube(3)
    assert moment(cube, E3, 0) == pytest.approx(8.0, rel=1e-12)
    assert moment(cube, E3, 1) == pytest.approx(0.0, abs=1e-12)
    # int_{-1}^{1} 4 t^2 dt = 8/3
    assert moment(cube, E3, 2) == pytest.approx(8.0 / 3.0, rel=1e-12)
    d = Direction.from_vector([1.0, 1.0, 1.0])
    assert moment(cube, d, 0) == pytest.approx(8.0, rel=1e-10)


def test_ellipsoid_moments_match_beta_oracle():
    # independent closed form, no shared quadrature code
    for n in (2, 3, 4):
        for seed in range(4):
            body = random_ellipsoid(n, seed=seed)
            rng = np.random.default_rng(seed + 50)
            d = Direction.from_vector(rng.standard_normal(n))
            for k in range(5):
                want = closed_moment(body, d.components, k)
                got = moment(body, d, k)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_moment_parity_for_centered_bodies():
    body = Ellipsoid.from_axes([1.4, 0.9, 1.1])
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = Direction.from_vector(rng.standard_normal(3))
        for k in (1, 3):
            scale = moment(body, d, 0)
            assert abs(moment(body, d, k)) < 1e-10 * scale


def test_zeroth_moment_direction_independent_and_equals_volume():
    body = random_ellipsoid(3, seed=21)
    vals = [moment(body, Direction(v), 0) for v in sample_directions(3, 24)]
    vals = np.array(vals)
    assert np.ptp(vals) < 1e-9 * vals.mean()
    assert vals.mean() == pytest.approx(body.volume, rel=1e-9)


def test_first_moment_linear_in_direction():
    body = random_ellipsoid(3, seed=33)
    vol = body.volume
    for v in sample_directions(3, 24):
        assert moment(body, Direction(v), 1) == pytest.approx(
            vol * float(body.center @ v), rel=1e-8, abs=1e-10
        )


def test_moment_rejects_unbounded_body():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    with pytest.raises(InfiniteSupportError):
        moment(par, Direction.from_vector([0, 0, -1]), 0)


def test_homogeneous_exponents_graded():
    exps = homogeneous_exponents(3, 2)
    assert len(exps) == 6
    assert all(sum(e) == 2 for e in exps)
    design = monomial_design_matrix(np.eye(3), exps)
    assert design.shape == (3, 6)


def test_range_condition_polynomial_in_direction():
    # k-th moment extends to a homogeneous degree-k polynomial in xi
    for body in (random_ellipsoid(3, seed=2), Polytope.cube(3)):
        for k in (0, 1, 2):
            report = range_test(body, k, num_directions=40, seed=7)
            assert isinstance(report, MomentReport)
            if report.relative_residual is not None:
                assert report.relative_residual < 1e-8
            else:
                assert report.absolute_residual < 1e-10


def test_range_test_needs_enough_directions():
    body = random_ellipsoid(3, seed=3)
    with pytest.raises(ValueError):
        range_test(body, 2, num_directions=8, seed=0)


def test_moment_report_serialization():
    body = random_ellipsoid(3, seed=14)
    report = range_test(body, 2, num_directions=30, seed=9)
    d = cli._jsonable(report)
    assert d["k"] == 2
    assert len(d["fit_coefficients"]) == 6


# exact polytope moments against the closed-form simplex moment


def complete_homogeneous(values, k):
    """h_k(values), the sum of all degree-k monomials, by adding one variable
    at a time: h_j(x_1..x_m) = h_j(x_1..x_{m-1}) + x_m h_{j-1}(x_1..x_m)."""
    h = [1.0] + [0.0] * k
    for x in values:
        for j in range(1, k + 1):
            h[j] += x * h[j - 1]
    return h[k]


def simplex_formula_moment(vertices, xi, k):
    """Integral of (xi.x)^k over the hull of ``vertices``: the closed form
    vol(S) k! n! / (n+k)! h_k(xi.v_0, ..., xi.v_n) for a simplex S (Baldoni,
    Berline, De Loera, Koeppe, Vergne, Math. Comp. 2011), summed over the
    cone from the centroid to each hull facet.  Uses no section volume."""
    V = np.asarray(vertices, dtype=float)
    n = V.shape[1]
    apex = V.mean(axis=0)
    coef = math.factorial(k) * math.factorial(n) / math.factorial(n + k)
    total = 0.0
    for facet in ConvexHull(V).simplices:
        P = np.vstack([apex, V[facet]])
        vol = abs(np.linalg.det(P[1:] - P[0])) / math.factorial(n)
        total += vol * coef * complete_homogeneous(P @ xi, k)
    return total


def _simplex_formula_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for n in (2, 3, 4, 5):
        for seed in range(4):
            cases.append((random_simplex(n, seed=seed), Direction.from_vector(rng.standard_normal(n))))
        cube = Polytope.cube(n)
        for seed in range(3):
            moved = cube.rotated(random_rotation(n, seed=seed)).translated(rng.uniform(-0.6, 0.6, n))
            cases.append((moved, Direction.from_vector(rng.standard_normal(n))))
    # aligned directions, where several vertices share a height
    for v in ([0, 0, 1], [1, 1, 0], [1, 1, 1], [1, -1, 0]):
        cases.append((Polytope.cube(3), Direction.from_vector(v)))
    for v in ([1, 0], [1, 1]):
        cases.append((Polytope.cube(2), Direction.from_vector(v)))
    for v in ([0, 0, 0, 1], [1, 1, 0, 0]):
        cases.append((Polytope.cube(4), Direction.from_vector(v)))
    R = random_rotation(3, seed=9)
    cases.append((Polytope.cube(3).rotated(R).translated([0.3, 0.1, -0.2]), Direction.from_vector(R @ [0, 0, 1])))
    cases.append((Polytope.cube(3, half=0.5).translated([0.5, 0.5, 0.5]), E3))
    return cases


def test_polytope_moments_match_simplex_formula():
    for body, d in _simplex_formula_cases():
        heights = np.abs(body.vertices @ d.components)
        volume = simplex_formula_moment(body.vertices, d.components, 0)
        for k in range(7):
            want = simplex_formula_moment(body.vertices, d.components, k)
            got = moment(body, d, k)
            # odd moments of centered bodies vanish; judge them on the body's scale
            scale = max(abs(want), volume * heights.max() ** k)
            assert abs(got - want) <= 1e-12 * scale, (body.vertices.tolist(), d, k, got, want)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_gauss_rule_integrates_the_weighted_monomials_exactly(alpha):
    """The q-point rule for the weight (1 - s^2)^alpha is exact for s^j,
    j <= 2q - 1.  The integral of |s|^j against the weight is
    B((j+1)/2, alpha+1): the exact value for even j, and the scale of the
    error for odd j, whose exact value is 0.  Measured worst error: 7.5e-15
    of that scale (q = 1..8)."""
    for q in range(1, 9):
        s, w = radon_module._gauss_rule(q, alpha)
        assert s.shape == w.shape == (q,)
        for j in range(2 * q):
            scale = beta_fn((j + 1) / 2.0, alpha + 1.0)
            want = scale if j % 2 == 0 else 0.0
            assert abs(w @ s**j - want) <= 2e-14 * scale, (q, alpha, j)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_gauss_rule_agrees_with_scipy(alpha):
    """scipy's rules are the reference (``roots_legendre`` for alpha = 0,
    ``roots_jacobi`` otherwise): nodes and weights agree to 2e-14 for orders
    1..15 (measured: 5.8e-15)."""
    for q in range(1, 16):
        s, w = radon_module._gauss_rule(q, alpha)
        want_s, want_w = roots_jacobi(q, alpha, alpha) if alpha else roots_legendre(q)
        assert np.abs(s - want_s).max() <= 2e-14, (q, alpha)
        assert np.abs(w - want_w).max() <= 2e-14 * want_w.max(), (q, alpha)


def test_generic_cube_moment_makes_one_section_call(monkeypatch):
    calls = []
    real = radon_module.section_volume

    def counting(body, xi, t):
        calls.append(np.size(t))
        return real(body, xi, t)

    monkeypatch.setattr(radon_module, "section_volume", counting)
    cube = Polytope.cube(3).rotated(random_rotation(3, seed=7)).translated([0.1, -0.2, 0.3])
    moment(cube, Direction.from_vector([0.3, -0.5, 0.8]), 2)
    # 8 distinct vertex heights -> 7 pieces, 3 Gauss-Legendre nodes each
    assert calls == [21]


def test_moment_order_must_be_a_nonnegative_integer():
    cube = Polytope.cube(3)
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            moment(cube, E3, bad)
    # no cap on k: int_{-1}^{1} 4 t^10 dt = 8/11
    assert moment(cube, E3, 10) == pytest.approx(8.0 / 11.0, rel=1e-13)
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    assert moment(ball, E3, 8) == pytest.approx(closed_moment(ball, [0, 0, 1], 8), rel=1e-12)


def test_report_records_the_order_used():
    cube = Polytope.cube(3)
    ell = random_ellipsoid(3, seed=4)
    assert [range_test(cube, k, 40).quad_order for k in (0, 1, 2)] == [2, 2, 3]
    assert [range_test(ell, k, 40).quad_order for k in (0, 1, 2)] == [1, 1, 2]


@pytest.mark.parametrize("k", [1.5, True, -1])
def test_moment_and_range_test_take_only_integer_orders(k):
    cube = Polytope.cube(3)
    with pytest.raises(ValueError, match="^k must be an integer >= "):
        moment(cube, E3, k)
    with pytest.raises(ValueError, match="^k must be an integer >= "):
        range_test(cube, k, 40)


# ---------------------------------------------------------------- direction stacks


def _stack_cases():
    rng = np.random.default_rng(16)
    for n in (2, 3, 4):
        dirs = sample_directions(n, 12, seed=n)
        yield random_ellipsoid(n, seed=n), dirs
        yield Polytope.cube(n).rotated(random_rotation(n, seed=n)).translated(rng.uniform(-0.5, 0.5, n)), dirs
        yield random_simplex(n, seed=n), dirs
    # tied vertex heights: axis directions of the axis-aligned cube
    yield Polytope.cube(3), np.vstack([np.eye(3), sample_directions(3, 5)])


def test_stacked_moment_rows_equal_one_direction_calls():
    for body, dirs in _stack_cases():
        for k in range(4):
            stacked = moment(body, dirs, k)
            assert stacked.shape == (len(dirs),)
            singles = np.array([moment(body, Direction(d), k) for d in dirs])
            assert np.array_equal(stacked, singles), (type(body).__name__, body.n, k)


def test_range_test_makes_one_section_call(monkeypatch):
    calls = []
    real = radon_module.section_volume

    def counting(body, xi, t):
        calls.append(np.shape(t))
        return real(body, xi, t)

    monkeypatch.setattr(radon_module, "section_volume", counting)
    cube = Polytope.cube(3).rotated(random_rotation(3, seed=7)).translated([0.1, -0.2, 0.3])
    for body in (cube, random_ellipsoid(3, seed=4)):
        for k in (0, 1, 2):
            calls.clear()
            range_test(body, k, 24)
            assert len(calls) == 1 and calls[0][0] == 24


def test_range_test_agrees_with_lstsq_in_one_svd(monkeypatch):
    """range_test factors its monomial design once: one SVD gives both the
    rank check and the fit.  np.linalg.lstsq, the reference solver, gives
    the same coefficients and residual to roundoff."""
    real_svd = np.linalg.svd
    svds = []

    def counting_svd(a, *args, **kwargs):
        svds.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    def fail(*args, **kwargs):
        raise AssertionError("a second solver was called")

    rng = np.random.default_rng(30)
    # off-center bodies, so that no odd-k moment vector is roundoff; built
    # first, since building a polytope checks its rank
    bodies = []
    for n in (2, 3, 4):
        cube = Polytope.cube(n).rotated(random_rotation(n, seed=n)).translated(rng.uniform(-1.0, 1.0, n))
        bodies += [cube, random_ellipsoid(n, seed=10 + n), random_simplex(n, seed=n)]
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "matrix_rank", fail)
    monkeypatch.setattr(np.linalg, "lstsq", fail)
    reports = []
    for body in bodies:
        for k in (0, 1, 2, 3):
            svds.clear()
            reports.append(range_test(body, k, 40, seed=3))
            assert svds == [(40, len(reports[-1].exponents))]
    monkeypatch.undo()
    for rep in reports:
        design = monomial_design_matrix(rep.directions, rep.exponents)
        coef = np.linalg.lstsq(design, rep.moments, rcond=None)[0]
        assert np.abs(rep.fit_coefficients - coef).max() <= 1e-12 * np.abs(coef).max()
        residual = np.linalg.norm(design @ coef - rep.moments)
        assert abs(rep.absolute_residual - residual) <= 1e-12 * np.linalg.norm(rep.moments)


def test_moment_stack_validation():
    cube = Polytope.cube(3)
    with pytest.raises(ValueError, match="unit Euclidean norm"):
        moment(cube, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.1]]), 0)
    with pytest.raises(ValueError, match="dimension 3"):
        moment(cube, np.array([[1.0, 0.0], [0.0, 1.0]]), 0)
    with pytest.raises(ValueError, match="be finite"):
        moment(random_ellipsoid(3), np.array([[np.nan, 0.0, 1.0]]), 0)
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    with pytest.raises(InfiniteSupportError):
        moment(par, np.array([[0.0, 0.0, -1.0], [0.0, 0.6, -0.8]]), 0)


@pytest.mark.parametrize("body", [random_ellipsoid(3, seed=4), Polytope.cube(3)], ids=["ellipsoid", "polytope"])
def test_empty_direction_stack_is_rejected_by_every_entry_point(body):
    empty = np.zeros((0, 3))
    with pytest.raises(ValueError, match="direction stack is empty"):
        chord_interval(body, empty)
    with pytest.raises(ValueError, match="direction stack is empty"):
        section_volume(body, empty, np.zeros((0, 2)))
    with pytest.raises(ValueError, match="direction stack is empty"):
        moment(body, empty, 1)


def test_axis_aligned_cube_stack_moments():
    # every vertex height ties with three others; the zero-width gaps add nothing
    cube = Polytope.cube(3)
    dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    assert moment(cube, dirs, 0) == pytest.approx([8.0] * 3, rel=1e-12)
    assert moment(cube, dirs, 1) == pytest.approx([0.0] * 3, abs=1e-12)
    assert moment(cube, dirs, 2) == pytest.approx([8.0 / 3.0] * 3, rel=1e-12)
