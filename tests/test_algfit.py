import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import tomoslice.algfit as algfit_module
import tomoslice.bodies as bodies_module
import tomoslice.sections as sections_module
from tomoslice import cli
from tomoslice.bodies import (
    Direction,
    Ellipsoid,
    Polytope,
    QuadricDomain,
    chord_interval,
    random_ellipsoid,
    random_rotation,
    random_simplex,
    save_body,
    unit_ball_volume,
)
from tomoslice.algfit import (
    QUADRIC_MAX_DEGREE,
    AlgebraicFitReport,
    detect_min_m,
    exponent_estimate,
    fit_power_polynomial,
    min_m_plan,
    normalized_constant_from_value,
    power_fits,
    predicted_boundary_constant,
    principal_curvatures,
    quadric_check,
    root_structure,
)
from tomoslice.detect import is_ellipsoid
from tomoslice.sections import SectionProfile, _lobatto_nodes, lobatto_grid, profile, section_volume


def normalized_section_constant(body, d):
    """The normalized section constant along d, at the chord midpoint."""
    lo, hi = chord_interval(body, d)
    mid = 0.5 * (lo + hi)
    return normalized_constant_from_value(section_volume(body, d, mid), mid, lo, hi, body.n)


def rand_dir(n, seed):
    g = np.random.default_rng(seed).standard_normal(n)
    return Direction.from_vector(g)


def ellipsoid_profile(n, seed, num_points=96):
    body = random_ellipsoid(n, seed=seed)
    d = rand_dir(n, seed + 1)
    return body, d, profile(body, d, num_points=num_points, margin=0.0)


# minimal power law


def test_odd_dimension_needs_single_power():
    for n in (3, 5):
        body, d, prof = ellipsoid_profile(n, seed=n)
        win = detect_min_m(prof, m_max=4, tol=1e-9)
        assert win is not None and win.m == 1
        assert win.degree == n - 1
        assert win.relative_residual < 1e-9


def test_even_dimension_needs_square():
    for n in (2, 4):
        body, d, prof = ellipsoid_profile(n, seed=10 + n)
        # m = 1 cannot work at any modest degree
        rep1 = fit_power_polynomial(prof, 1, 2 * (n - 1))
        assert rep1.relative_residual > 1e-3
        win = detect_min_m(prof, m_max=4, tol=1e-9)
        assert win is not None and win.m == 2
        assert win.degree == 2 * (n - 1)
        assert win.relative_residual < 1e-9


def test_detect_min_m_none_for_cube():
    cube = Polytope.cube(3)
    d = Direction.from_vector([1.0, 1.0, 1.0])
    prof = profile(cube, d, num_points=96, margin=0.0)
    assert detect_min_m(prof, m_max=4, tol=1e-6) is None
    best = min(
        fit_power_polynomial(prof, m, m * 2).relative_residual for m in range(1, 5)
    )
    assert best > 1e-3


def test_degree_cannot_drop_below_bound():
    body, d, prof = ellipsoid_profile(3, seed=77)
    ok = fit_power_polynomial(prof, 1, 2)
    short = fit_power_polynomial(prof, 1, 1)
    assert ok.relative_residual < 1e-9
    assert short.relative_residual > 1e-3


def test_effective_degree_equals_bound():
    for n, m in ((3, 1), (2, 2), (4, 2), (5, 1)):
        body, d, prof = ellipsoid_profile(n, seed=100 * n + m)
        rep = fit_power_polynomial(prof, m, m * (n - 1) + 3)
        assert rep.effective_degree == m * (n - 1)
        assert rep.degree_bound_ok


def test_fit_residual_monotone_in_degree():
    body, d, prof = ellipsoid_profile(2, seed=55)
    res = [fit_power_polynomial(prof, 2, D).relative_residual for D in range(5)]
    for a, b in zip(res, res[1:]):
        assert b <= a + 1e-14


def test_fit_invariant_under_translation_and_scaling():
    body = random_ellipsoid(3, seed=91)
    d = rand_dir(3, 92)
    prof = profile(body, d, num_points=96, margin=0.0)
    base = fit_power_polynomial(prof, 1, 2).relative_residual
    moved = body.translated([0.7, -0.4, 0.2])
    prof_m = profile(moved, d, num_points=96, margin=0.0)
    assert fit_power_polynomial(prof_m, 1, 2).relative_residual == pytest.approx(
        base, abs=1e-10
    )
    prof_s = profile(body.scaled(2.5), d, num_points=96, margin=0.0)
    assert fit_power_polynomial(prof_s, 1, 2).relative_residual == pytest.approx(
        base, abs=1e-10
    )


def test_fit_report_evaluate_and_serialize():
    body, d, prof = ellipsoid_profile(3, seed=31)
    rep = fit_power_polynomial(prof, 1, 2)
    assert isinstance(rep, AlgebraicFitReport)
    idx = len(prof.grid) // 2
    # the Chebyshev series in s, the offset rescaled from [t_lo, t_hi] to [-1, 1]
    s = (2.0 * prof.grid[idx] - (rep.t_lo + rep.t_hi)) / (rep.t_hi - rep.t_lo)
    assert chebyshev.chebval(s, rep.coefficients) == pytest.approx(prof.values[idx], rel=1e-9)
    d_ = cli._jsonable(rep)
    assert d_["m"] == 1 and d_["degree"] == 2


def test_fit_needs_enough_samples():
    body = random_ellipsoid(3, seed=1)
    d = rand_dir(3, 2)
    prof = profile(body, d, num_points=16, margin=0.0)
    with pytest.raises(ValueError):
        fit_power_polynomial(prof, 1, 8)


# the shared power-fit sweep


def _rescaled(prof):
    t_lo, t_hi = float(prof.grid[0]), float(prof.grid[-1])
    return (2.0 * prof.grid - (t_lo + t_hi)) / (t_hi - t_lo)


def _fit_summary(coef, V, y, m, n):
    residual = float(np.linalg.norm(V @ coef - y)) / float(np.linalg.norm(y))
    mags = np.abs(coef)
    eff = int(np.nonzero(mags > 1e-9 * mags.max())[0].max()) if mags.max() > 0.0 else 0
    return coef, residual, eff, eff <= m * (n - 1)


def lstsq_fit(prof, m, degree):
    """One fit by np.linalg.lstsq on a freshly built own-degree Vandermonde
    on the profile's own rescaled grid, as every fit was computed before the
    fits shared a factorization: coefficients, residual, effective degree
    and the degree-bound verdict."""
    y = prof.values**m
    V = chebyshev.chebvander(_rescaled(prof), degree)
    coef, *_ = np.linalg.lstsq(V, y, rcond=None)
    return _fit_summary(coef, V, y, m, prof.n)


def fresh_factor_fit(prof, m, degree, s):
    """One fit through a fresh, uncached factorization of the Vandermonde on
    abscissae s."""
    y = prof.values**m
    fit = algfit_module._chebyshev_fit(s, degree)
    return _fit_summary(fit.pinv @ y, fit.design, y, m, prof.n)


def sweep_profiles():
    profs = []
    for n in (2, 3, 4, 5):
        for seed in (1, 2):
            profs.append(ellipsoid_profile(n, seed=50 * n + seed)[2])
    for body, v in (
        (Polytope.cube(3), [1.0, 1.0, 1.0]),
        (Polytope.cube(3), [0.3, -0.5, 0.8]),
        (Polytope.cube(2), [1.0, 0.4]),
        (random_simplex(3, seed=4), [0.2, 0.9, -0.4]),
        (random_simplex(2, seed=5), [-0.6, 0.8]),
    ):
        profs.append(profile(body, Direction.from_vector(v), num_points=96, margin=0.0))
    par = QuadricDomain("paraboloid", np.array([1.0, 0.7]))
    hyp = QuadricDomain("hyperboloid-sheet", np.array([1.0, 1.3]), 0.9)
    for body, v, window in (
        (par, [0.0, 0.0, 1.0], (0.5, 4.0)),
        (par, [0.2, -0.1, 1.0], (0.5, 3.0)),
        (hyp, [0.0, 0.0, 1.0], (1.5, 5.0)),
        (hyp, [0.1, 0.2, 1.0], (2.0, 4.0)),
    ):
        profs.append(profile(body, Direction.from_vector(v), num_points=64, margin=0.0, window=window))
    return profs


def other_grid_profiles():
    """Profiles on grids that lobatto_grid does not make: equally spaced, and
    a Lobatto grid with one offset moved by an ulp."""
    profs = []
    for n, seed in ((3, 7), (4, 8)):
        body = random_ellipsoid(n, seed=seed)
        xi = rand_dir(n, seed + 1).components
        lo, hi = chord_interval(body, xi)
        grid = np.linspace(lo, hi, 80)
        profs.append(SectionProfile(xi, grid, section_volume(body, xi, grid), n))
    grid = lobatto_grid(lo, hi, 96)
    grid[40] = np.nextafter(grid[40], np.inf)
    profs.append(SectionProfile(xi, grid, section_volume(body, xi, grid), n))
    return profs


def sweep_plans(prof):
    plans = [min_m_plan(prof.n, 6)]
    plans += [[(m, d) for d in range(QUADRIC_MAX_DEGREE + 1)] for m in (1, 2)]
    return plans


def test_power_fits_equal_own_degree_fits():
    checked = 0
    for prof, lobatto in [(p, True) for p in sweep_profiles()] + [(p, False) for p in other_grid_profiles()]:
        # a profile's grid takes the cached Lobatto nodes; any other grid
        # its own rescaled abscissae
        s = _lobatto_nodes(len(prof)) if lobatto else _rescaled(prof)
        for plan in sweep_plans(prof):
            reports = list(power_fits(prof, plan))
            assert [(r.m, r.degree) for r in reports] == plan
            for rep, (m, degree) in zip(reports, plan):
                coef, residual, eff, bound_ok = fresh_factor_fit(prof, m, degree, s)
                assert rep.coefficients.tobytes() == coef.tobytes()
                assert rep.relative_residual == residual
                assert rep.effective_degree == eff
                assert rep.degree_bound_ok == bound_ok
                checked += 1
    assert checked == 20 * (6 + 2 * (QUADRIC_MAX_DEGREE + 1))


def test_power_fits_agree_with_lstsq_on_the_rescaled_grid():
    checked = 0
    for prof in sweep_profiles() + other_grid_profiles():
        for plan in sweep_plans(prof):
            for rep, (m, degree) in zip(power_fits(prof, plan), plan):
                coef, residual, eff, bound_ok = lstsq_fit(prof, m, degree)
                assert np.abs(rep.coefficients - coef).max() <= 1e-12 * np.abs(coef).max()
                assert abs(rep.relative_residual - residual) <= 1e-13
                assert rep.effective_degree == eff
                assert rep.degree_bound_ok == bound_ok
                checked += 1
    assert checked == 20 * (6 + 2 * (QUADRIC_MAX_DEGREE + 1))


class CountingSvd:
    """Stands in for np.linalg.svd and counts its calls."""

    def __init__(self):
        self.calls = 0
        self.real = np.linalg.svd

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.real(*args, **kwargs)


def test_each_lobatto_factorization_is_built_once_per_key(monkeypatch, tmp_path):
    svd = CountingSvd()
    monkeypatch.setattr(np.linalg, "svd", svd)
    cache = algfit_module._lobatto_fit
    cache.cache_clear()
    # the CLI sweep fits every pair, up to degree 5 * (3 - 1), on 64 points;
    # the second body finds the same five factorizations cached
    for body, code, built in ((random_ellipsoid(3, seed=6), 0, 5), (Polytope.cube(3), 2, 0)):
        save_body(body, tmp_path / "body.json")
        before = cache.cache_info().misses
        args = ["algfit", "--body", str(tmp_path / "body.json"), "--xi", "0.3,0.5,0.8", "--m-max", "5"]
        assert cli.main(args + ["--format", "csv", "--out", str(tmp_path / "fit.csv")]) == code
        assert cache.cache_info().misses - before == built
    # a search that stops at m = 1 (degree 2) builds one factorization; one
    # that finds nothing reaches m_max = 6, degree 12, on 96 points, and
    # finds degree 2 cached
    odd = ellipsoid_profile(3, seed=5)[2]
    cube = profile(Polytope.cube(3), Direction.from_vector([1.0, 1.0, 1.0]), num_points=96, margin=0.0)
    for prof, m, built in ((odd, 1, 1), (cube, None, 5), (odd, 1, 0), (cube, None, 0)):
        before = cache.cache_info().misses
        win = detect_min_m(prof, m_max=6)
        assert (None if win is None else win.m) == m
        assert cache.cache_info().misses - before == built
    # the two powers' degree searches share their factorizations
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    cache.cache_clear()
    report = quadric_check(par, Direction.from_vector([0.0, 0.0, 1.0]))
    assert report["verdict"] == "conforms"
    assert cache.cache_info().misses == max(r["min_degree"] for r in report["results"]) + 1
    # one more SVD beyond the cached factorizations: the ellipsoid's CLI run
    # conforms, and root_structure factors its flattened-sample quadratic on
    # the masked grid (a deviating fit, like the cube's, recovers no roots)
    assert svd.calls == 5 + 1 + 6 + cache.cache_info().misses
    for num, degree in ((64, 2), (96, 12)):
        fit = cache(num, degree)
        assert fit.rank == degree + 1
        assert fit.design.tobytes() == chebyshev.chebvander(_lobatto_nodes(num), degree).tobytes()
        for arr in (fit.design, fit.pinv):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0
    # any other grid is factored afresh and leaves the cache alone
    before = cache.cache_info()
    calls = svd.calls
    prof = other_grid_profiles()[0]
    assert len(list(power_fits(prof, min_m_plan(3, 2)))) == 2
    assert cache.cache_info() == before
    assert svd.calls - calls == 2
    cache.cache_clear()


def test_detect_min_m_never_reaches_a_later_pair():
    body = random_ellipsoid(4, seed=8)
    prof = profile(body, rand_dir(4, 9), num_points=16, margin=0.0)
    win = detect_min_m(prof, m_max=4)
    assert win is not None and win.m == 2
    # m = 3 asks for degree 9, which needs 20 points
    with pytest.raises(ValueError, match="needs at least 20"):
        list(power_fits(prof, min_m_plan(4, 4)))


@pytest.mark.parametrize(
    "m, degree, name",
    [(2.5, 4, "m"), (True, 2, "m"), (0, 2, "m"), (1, True, "degree"), (1, 2.0, "degree"), (1, -1, "degree")],
)
def test_fit_rejects_bad_power_or_degree(m, degree, name):
    prof = ellipsoid_profile(3, seed=12)[2]
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        fit_power_polynomial(prof, m, degree)


@pytest.mark.parametrize("m_max", [True, 0, -1, 2.0])
def test_detect_min_m_rejects_bad_m_max(m_max):
    prof = ellipsoid_profile(3, seed=12)[2]
    with pytest.raises(ValueError, match="^m_max must be an integer"):
        detect_min_m(prof, m_max)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_searches_reject_bad_tol(tol):
    prof = ellipsoid_profile(3, seed=12)[2]
    with pytest.raises(ValueError, match="^tol must be a finite positive number"):
        detect_min_m(prof, 4, tol=tol)
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="^tol must be a finite positive number"):
        quadric_check(par, Direction.from_vector([0.0, 0.0, 1.0]), tol=tol)
    with pytest.raises(ValueError, match="^tol must be a finite positive number"):
        is_ellipsoid(random_ellipsoid(3, seed=1), tol=tol)


# root structure


def test_root_structure_ellipsoid_conforms():
    for n in (2, 3, 4, 5):
        body = random_ellipsoid(n, seed=200 + n)
        d = rand_dir(n, 300 + n)
        prof = profile(body, d, num_points=96, margin=0.0)
        m = 1 if n % 2 else 2
        rep = fit_power_polynomial(prof, m, m * (n - 1))
        h_plus = body.support(d.components)
        h_minus = body.support(-d.components)
        rr = root_structure(rep, h_plus, h_minus)
        assert rr.verdict == "conforms"
        assert rr.mismatch < 1e-8
        width = h_plus + h_minus
        roots = sorted(r for r, _ in rr.roots)
        assert roots[0] == pytest.approx(-h_minus, abs=1e-8 * width)
        assert roots[-1] == pytest.approx(h_plus, abs=1e-8 * width)
        mult = {r: mu for r, mu in rr.roots}
        assert all(mu == m * (n - 1) // 2 for mu in mult.values())
        # numpy's Chebyshev.fit of the same flattened samples, the reference
        # solver, gives the same roots to roundoff
        mask = rep.power_samples > 0
        flat = rep.power_samples[mask] ** (2.0 / (m * (n - 1)))
        want = np.sort(np.real(chebyshev.Chebyshev.fit(rep.grid[mask], flat, 2).roots()))
        assert np.abs(np.array(roots) - want).max() <= 1e-12 * width


def test_root_structure_odd_total_multiplicity_infeasible():
    body = random_ellipsoid(4, seed=7)
    d = rand_dir(4, 8)
    prof = profile(body, d, num_points=96, margin=0.0)
    rep = fit_power_polynomial(prof, 1, 3)
    rr = root_structure(rep, body.support(d.components), body.support(-d.components))
    assert rr.verdict == "structurally-infeasible"


def test_root_structure_flags_cube():
    """A deviating fit reports no roots.  Along a facet normal the cube's A
    is constant, so a quadratic fitted to its flattened samples has a
    leading coefficient of roundoff, whose roots would be noise."""
    cube = Polytope.cube(3)
    for xi in ([1.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
        d = Direction.from_vector(xi)
        for margin in (0.0, 0.02):
            prof = profile(cube, d, num_points=96, margin=margin)
            rep = fit_power_polynomial(prof, 1, 2)
            rr = root_structure(rep, cube.support(d.components), cube.support(-d.components))
            assert rr.verdict == "deviates"
            assert rr.mismatch > 1e-3
            assert rr.roots == []


def test_normalized_constant_direction_free():
    body = random_ellipsoid(3, seed=404)
    vals = [
        normalized_section_constant(body, rand_dir(3, s)) for s in range(20)
    ]
    vals = np.array(vals)
    assert np.ptp(vals) < 1e-8 * vals.mean()
    want = unit_ball_volume(2) / math.sqrt(np.linalg.det(body.shape))
    assert vals.mean() == pytest.approx(want, rel=1e-10)


def test_normalized_constant_raw_coefficient_varies():
    # the rescaling is what removes the direction dependence
    body = Ellipsoid.from_axes([2.0, 1.0, 1.0])
    d1 = Direction.from_vector([1.0, 0.0, 0.0])
    d2 = Direction.from_vector([0.0, 0.0, 1.0])
    def raw(d):
        lo, hi = chord_interval(body, d)
        t = 0.5 * (lo + hi)
        from tomoslice.sections import section_volume
        w = 0.5 * (hi - lo)
        return section_volume(body, d, t) / w ** (body.n - 1)
    assert abs(raw(d1) - raw(d2)) > 0.1 * abs(raw(d1))
    a = normalized_section_constant(body, d1)
    b = normalized_section_constant(body, d2)
    assert a == pytest.approx(b, rel=1e-10)


# boundary asymptotics


def test_ball_boundary_exponent_and_constant():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    d = Direction.from_vector([0.0, 0.0, 1.0])
    rep = exponent_estimate(ball, d)
    assert rep.estimated_exponent == pytest.approx(1.0, abs=0.05)
    # A = pi (1 - t^2) ~ 2 pi delta near t = 1
    rep2 = exponent_estimate(ball, d, window=(1e-4, 1e-3))
    assert rep2.estimated_constant == pytest.approx(2.0 * math.pi, rel=0.02)


def test_disk_boundary_exponent():
    disk = Ellipsoid.from_axes([1.0, 1.0])
    d = Direction.from_vector([0.3, 0.9])
    rep = exponent_estimate(disk, d)
    assert rep.estimated_exponent == pytest.approx(0.5, abs=0.05)


def test_principal_curvatures_sphere_and_spheroid():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    d = Direction.from_vector([0.0, 0.0, 1.0])
    ks = principal_curvatures(ball, d)
    assert ks == pytest.approx([1.0, 1.0], abs=1e-5)
    # spheroid pole with equatorial radius a, polar radius c: kappa = c / a^2
    oblate = Ellipsoid.from_axes([2.0, 2.0, 1.0])
    assert principal_curvatures(oblate, d) == pytest.approx([0.25, 0.25], abs=1e-5)
    prolate = Ellipsoid.from_axes([1.0, 1.0, 2.0])
    assert principal_curvatures(prolate, d) == pytest.approx([2.0, 2.0], abs=1e-4)


@pytest.mark.parametrize("window", [(0.5, math.inf), (math.nan, 4.0)])
def test_quadric_check_rejects_a_non_finite_window(window):
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="^window must be finite"):
        quadric_check(par, Direction.from_vector([0.0, 0.0, 1.0]), window=window)


def _one_point_contains(body, x):
    """The one-point membership expressions d @ M @ d and the quadric forms."""
    if isinstance(body, Ellipsoid):
        d = x - body.center
        return bool(d @ body.shape @ d <= 1.0)
    q = float(np.sum(x[:-1] ** 2 / body.axes**2))
    if body.kind == "paraboloid":
        return bool(x[-1] >= q)
    return bool(x[-1] > 0.0 and x[-1] ** 2 / body.c**2 - q >= 1.0)


def _scalar_entry_depth(body, base, inward, resolution):
    """One ray at a time: the loop the lockstep search must reproduce.

    Doubling from 1e-14, then bisection until the bracket is no wider than
    ``resolution`` or for 70 steps.  With ``resolution=0.0`` every one of the
    70 steps runs (a zero-width bracket stays put), the rule before the
    search stopped at each ray's float resolution."""
    if _one_point_contains(body, base):
        return 0.0
    s = 1e-14
    for _ in range(256):
        if _one_point_contains(body, base + s * inward):
            break
        s *= 2.0
    else:
        raise ValueError("ray from the tangent plane never entered the body")
    lo, hi = 0.0, s
    for _ in range(70):
        if hi - lo <= resolution:
            break
        mid = 0.5 * (lo + hi)
        if _one_point_contains(body, base + mid * inward):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _scalar_principal_curvatures(body, xi, step=1e-4):
    v = xi.components
    x0 = body.argmax_support(v)
    Q, _ = np.linalg.qr(np.column_stack([v, np.eye(v.size)]))
    U = Q[:, 1:]
    k = U.shape[1]

    def depth(y):
        base = x0 + U @ y
        return _scalar_entry_depth(body, base, -v, np.spacing(np.abs(base).max()))

    H = np.empty((k, k))
    e = np.eye(k) * step
    for i in range(k):
        H[i, i] = (depth(e[i]) + depth(-e[i])) / step**2
    for i in range(k):
        for j in range(i + 1, k):
            val = (
                depth(e[i] + e[j]) - depth(e[i] - e[j]) - depth(-e[i] + e[j]) + depth(-e[i] - e[j])
            ) / (4.0 * step**2)
            H[i, j] = H[j, i] = val
    return np.linalg.eigvalsh(H)


def _curvature_cases():
    cases = [(random_ellipsoid(n, seed=70 + n), rand_dir(n, 80 + n)) for n in (2, 3, 4)]
    cases.append((Ellipsoid.from_axes([1.0, 1.0, 1.0]), Direction.from_vector([0.0, 0.0, 1.0])))
    down = Direction.from_vector([0.2, -0.1, -1.0])
    cases.append((QuadricDomain("paraboloid", np.array([0.8, 1.3])), down))
    cases.append((QuadricDomain("hyperboloid-sheet", np.array([1.1, 0.7]), 0.9), down))
    return cases


def test_principal_curvatures_equal_the_one_ray_loop():
    for body, d in _curvature_cases():
        assert np.array_equal(principal_curvatures(body, d), _scalar_principal_curvatures(body, d)), body


def _count_calls(monkeypatch, cls, name, replacement=None):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(1)
        return (replacement or original)(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_entry_depths_within_half_resolution_of_the_70_step_loop(monkeypatch):
    rays = []
    search = algfit_module._entry_depths

    def recorded(body, bases, inward):
        depth = search(body, bases, inward)
        rays.append((body, bases, inward, depth))
        return depth

    monkeypatch.setattr(algfit_module, "_entry_depths", recorded)
    for body, d in _curvature_cases():
        principal_curvatures(body, d)
    assert len(rays) == len(_curvature_cases())
    for body, bases, inward, depth in rays:
        for base, got in zip(bases, depth):
            # the 70-step loop only narrows the bracket the new search stops at
            resolution = np.spacing(np.abs(base).max())
            assert abs(got - _scalar_entry_depth(body, base, inward, 0.0)) <= resolution / 2


def test_principal_curvatures_call_counts(monkeypatch):
    for body, d in _curvature_cases():
        cls = type(body)
        single = _count_calls(monkeypatch, cls, "contains")
        batched = _count_calls(monkeypatch, cls, "contains_points")
        principal_curvatures(body, d)
        assert len(single) == 0
        # bases, doubling blocks of 32 steps, bisection steps to resolution
        assert 1 + 1 + 1 <= len(batched) <= 1 + 8 + 70
        monkeypatch.undo()


def test_principal_curvatures_ray_that_never_enters(monkeypatch):
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    batched = _count_calls(
        monkeypatch, Ellipsoid, "contains_points", lambda self, X: np.zeros(len(X), dtype=bool)
    )
    with pytest.raises(ValueError, match="never entered"):
        principal_curvatures(ball, Direction.from_vector([0.0, 0.0, 1.0]))
    assert len(batched) == 1 + 8


def test_boundary_constant_matches_curvature_prediction():
    body = random_ellipsoid(3, seed=888)
    d = rand_dir(3, 889)
    rep = exponent_estimate(body, d, window=(1e-4, 1e-3))
    want = predicted_boundary_constant(body, d)
    assert rep.estimated_constant == pytest.approx(want, rel=0.02)


def test_exponent_rotation_stability():
    body = random_ellipsoid(3, seed=17)
    Q = random_rotation(3, seed=18)
    d = rand_dir(3, 19)
    a = exponent_estimate(body, d).estimated_exponent
    b = exponent_estimate(body.rotated(Q), Direction.from_vector(Q @ d.components)).estimated_exponent
    assert a == pytest.approx(b, abs=5e-3)


def test_exponent_estimate_agrees_with_polyfit():
    """The [log delta, 1] regression agrees with np.polyfit, the reference
    solver, to roundoff."""
    rng = np.random.default_rng(32)
    bodies = [random_ellipsoid(n, seed=600 + n) for n in (2, 3, 4, 5)]
    bodies.append(QuadricDomain("paraboloid", np.array([1.0, 2.0])))
    for body in bodies:
        for _ in range(3):
            g = rng.standard_normal(body.n)
            if isinstance(body, QuadricDomain):
                g[-1] = -abs(g[-1]) - 1.0
            for window in ((1e-4, 1e-2), (1e-4, 1e-3)):
                rep = exponent_estimate(body, g / np.linalg.norm(g), window=window)
                slope, intercept = np.polyfit(np.log(rep.depths), np.log(rep.values), 1)
                assert abs(rep.estimated_exponent - slope) <= 1e-12 * abs(slope)
                assert abs(rep.estimated_constant - math.exp(intercept)) <= 1e-12 * math.exp(intercept)


def test_exponent_estimate_reads_its_direction_once(monkeypatch):
    """``exponent_estimate`` checks its direction once; the chord (or the
    support of an unbounded body) and the section engine reuse it."""
    reads = []
    real_rows = bodies_module._direction_rows

    def counting_rows(xi, n):
        reads.append(np.shape(xi))
        return real_rows(xi, n)

    for module in (bodies_module, sections_module):
        monkeypatch.setattr(module, "_direction_rows", counting_rows)
    par = QuadricDomain("paraboloid", np.array([1.0, 0.7]))
    for body, xi in ((random_ellipsoid(3, seed=2), [0.3, -0.5, 0.8]), (par, [0.2, 0.1, -0.9])):
        d = np.asarray(xi) / np.linalg.norm(xi)
        reads.clear()
        exponent_estimate(body, d)
        assert reads == [(3,)], type(body).__name__


def test_quadric_check_reads_its_direction_once(monkeypatch):
    """``quadric_check`` checks its direction once; the entry offset and the
    profile reuse it."""
    reads = []
    real_rows = bodies_module._direction_rows

    def counting_rows(xi, n):
        reads.append(np.shape(xi))
        return real_rows(xi, n)

    for module in (bodies_module, sections_module):
        monkeypatch.setattr(module, "_direction_rows", counting_rows)
    par = QuadricDomain("paraboloid", np.array([1.0, 0.7]))
    d = np.array([0.2, -0.1, 0.9]) / np.linalg.norm([0.2, -0.1, 0.9])
    for window in (None, (1.0, 3.0)):
        reads.clear()
        assert quadric_check(par, d, window=window)["verdict"] == "conforms"
        assert reads == [(3,)]


def test_exponent_estimate_unbounded_body():
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    d = Direction.from_vector([0.0, 0.0, -1.0])
    rep = exponent_estimate(par, d, window=(1e-4, 1e-2))
    assert rep.estimated_exponent == pytest.approx(1.0, abs=0.05)


def test_exponent_window_validation():
    ball = Ellipsoid.from_axes([1.0, 1.0, 1.0])
    d = Direction.from_vector([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        exponent_estimate(ball, d, window=(1e-2, 1e-4))
    with pytest.raises(ValueError):
        exponent_estimate(ball, d, window=(1e-3, 0.5))


@pytest.mark.parametrize("window", [(1e-4, math.inf), (math.nan, 1e-2), (1e-4, -math.inf)])
def test_exponent_estimate_rejects_a_non_finite_window_before_any_fit(window, capfd):
    par = QuadricDomain("paraboloid", np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=r"^window must be finite, got \("):
        exponent_estimate(par, [0.0, 0.0, -1.0], window=window)
    # no LAPACK complaint reaches stderr: the fit never runs
    assert capfd.readouterr().err == ""
