"""Algebraic structure of section profiles.

The organizing question: for which bodies does some integer power of the
section function A(xi, .) agree with a polynomial in the offset t?  For an
ellipsoid in odd ambient dimension A itself is a polynomial of degree n - 1;
in even dimension its square is one of degree 2(n - 1).  This module fits
A^m by polynomials (Chebyshev basis on a rescaled variable, never raw
monomials), searches for the smallest workable power m, checks the degree
cap m*(n-1), and tests the expected two-root factorization with all roots
piled at the chord endpoints.

It also estimates the boundary power law A ~ const * (t0 - t)^{(n-1)/2} near
the top of the chord and, independently, predicts the constant from principal
curvatures measured by finite differences on the membership test alone, so
the two routes can be compared without sharing any code path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as C

from .bodies import (
    InfiniteSupportError,
    Polytope,
    QuadricDomain,
    _norm,
    _one_direction,
    _require_int,
    _require_tol,
    _row_products,
    chord_interval,
    unit_ball_volume,
)
from .sections import _finite_window, _lobatto_nodes, lobatto_grid, profile, section_volume

__all__ = [
    "AlgebraicFitReport",
    "RootStructureReport",
    "AsymptoticReport",
    "power_fits",
    "min_m_plan",
    "fit_power_polynomial",
    "detect_min_m",
    "quadric_check",
    "root_structure",
    "normalized_section_constant",
    "exponent_estimate",
    "principal_curvatures",
    "predicted_boundary_constant",
    "DEFAULT_ACCEPT_TOL",
    "EFFECTIVE_DEGREE_CUTOFF",
    "QUADRIC_TOL",
    "QUADRIC_MAX_DEGREE",
]

DEFAULT_ACCEPT_TOL = 1e-6
EFFECTIVE_DEGREE_CUTOFF = 1e-9
CONFORM_TOL = 1e-8
QUADRIC_TOL = 1e-8
QUADRIC_MAX_DEGREE = 8
# log-spaced depths of the boundary regression (exponent_estimate)
_EXPONENT_POINTS = 16
# tangential offset of the curvature oracle's finite differences
_CURVATURE_STEP = 1e-4


@dataclass(eq=False)
class RootStructureReport:
    """Verdict on the two-endpoint root factorization of a fitted power.

    For a conforming body A^m is proportional to
    (h_plus - t)^{M/2} * (h_minus + t)^{M/2} with M = m*(n-1), so the fitted
    polynomial must vanish only at the chord endpoints, each with multiplicity
    M/2.  Odd M admits no such factorization and is reported as structurally
    infeasible rather than scored.
    """

    verdict: str  # "conforms" | "deviates" | "structurally-infeasible"
    scale: float | None
    mismatch: float | None
    roots: list  # [(location t, multiplicity)]
    h_plus: float
    h_minus: float

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "scale": self.scale,
            "mismatch": self.mismatch,
            "roots": [[r, mult] for r, mult in self.roots],
            "h_plus": self.h_plus,
            "h_minus": self.h_minus,
        }


@dataclass(eq=False)
class AlgebraicFitReport:
    """Least-squares polynomial model of A^m along one direction.

    coefficients are Chebyshev coefficients in s, where t = t_mid + t_half*s
    maps the sampled span to [-1, 1]; (t_lo, t_hi) pin that affine change of
    variable.  effective_degree ignores coefficients below 1e-9 of the largest
    one.  grid and power_samples are retained so later stages (root structure)
    can rescore the same data.  xi is the profile's read-only unit direction.
    """

    xi: np.ndarray
    n: int
    m: int
    degree: int
    coefficients: np.ndarray
    t_lo: float
    t_hi: float
    relative_residual: float
    effective_degree: int
    degree_bound_ok: bool
    grid: np.ndarray = field(repr=False)
    power_samples: np.ndarray = field(repr=False)
    root_report: RootStructureReport | None = None

    def evaluate(self, t):
        s = (2.0 * np.asarray(t, dtype=float) - (self.t_lo + self.t_hi)) / (self.t_hi - self.t_lo)
        return C.chebval(s, self.coefficients)

    def to_dict(self):
        out = {
            "xi": self.xi.tolist(),
            "n": self.n,
            "m": self.m,
            "degree": self.degree,
            "coefficients": self.coefficients.tolist(),
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "relative_residual": self.relative_residual,
            "effective_degree": self.effective_degree,
            "degree_bound_ok": self.degree_bound_ok,
            "grid": self.grid.tolist(),
            "power_samples": self.power_samples.tolist(),
            "root_report": None if self.root_report is None else self.root_report.to_dict(),
        }
        return out


def _effective_degree(coefficients):
    mags = np.abs(coefficients)
    top = mags.max()
    if top == 0.0:
        return 0
    significant = np.nonzero(mags > EFFECTIVE_DEGREE_CUTOFF * top)[0]
    return int(significant.max())


def min_m_plan(n, m_max):
    """The (m, m*(n-1)) pairs for m = 1..m_max: each power at its degree cap."""
    _require_int("m_max", m_max, 1)
    return [(m, m * (n - 1)) for m in range(1, m_max + 1)]


class _LeastSquares(NamedTuple):
    """A least-squares design A, its pseudo-inverse and its rank, all from
    one SVD: ``pinv @ y`` is lstsq's minimum-norm solution of A x ~ y."""

    design: np.ndarray
    pinv: np.ndarray
    rank: int


def _least_squares(A):
    """Factor the 2-d design A once, for any number of right-hand sides.

    The rank uses lstsq's own cutoff: singular values at most
    eps * max(M, N) * s_max count as zero, and the pseudo-inverse drops them.
    The pseudo-inverse is formed as np.linalg.pinv forms it at that cutoff,
    so it equals pinv's bit for bit.  A and its pseudo-inverse come back
    read-only."""
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    keep = s > np.finfo(float).eps * max(A.shape) * s.max()
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    pinv = vt.T @ (s_inv[:, None] * u.T)
    A.setflags(write=False)
    pinv.setflags(write=False)
    return _LeastSquares(A, pinv, int(np.count_nonzero(keep)))


def _chebyshev_fit(s, degree):
    """The least-squares factorization of the degree-``degree`` Chebyshev
    Vandermonde on the rescaled abscissae s."""
    return _least_squares(C.chebvander(s, degree))


@functools.lru_cache(maxsize=64)
def _lobatto_fit(num, degree):
    """``_chebyshev_fit`` on the ``num`` cached Lobatto nodes, the rescaled
    abscissae of every grid ``lobatto_grid`` makes; built once per
    (num, degree), at most 64 kept."""
    return _chebyshev_fit(_lobatto_nodes(num), degree)


def power_fits(prof, plan):
    """Fit A^m by a degree-``degree`` Chebyshev series for each (m, degree)
    pair of the sequence ``plan`` in turn, yielding one AlgebraicFitReport
    per pair.

    The grid is rescaled to s in [-1, 1].  Every fit is one product of the
    samples with the pseudo-inverse of its Vandermonde.  A grid that
    ``lobatto_grid`` makes (every profile from ``profile``) has the Lobatto
    nodes as its s, so its factorization comes from a cache per
    (len(grid), degree) (``_lobatto_fit``); any other grid is factored afresh
    on its own s.  A pair needs at least 2*(degree+1) sample points so the
    least-squares system stays comfortably overdetermined; that check, like
    the zero-profile one, runs only when the iteration reaches the pair, so
    a search that stops early never sees a later pair's error.  The residual
    is measured relative to the norm of the A^m samples.
    """
    for m, degree in plan:
        _require_int("m", m, 1)
        _require_int("degree", degree, 0)
    t_lo, t_hi = float(prof.grid[0]), float(prof.grid[-1])
    num = len(prof)
    if prof.grid.tobytes() == lobatto_grid(t_lo, t_hi, num).tobytes():
        factor = functools.partial(_lobatto_fit, num)
    else:
        factor = functools.partial(_chebyshev_fit, (2.0 * prof.grid - (t_lo + t_hi)) / (t_hi - t_lo))
    for m, degree in plan:
        if num < 2 * (degree + 1):
            raise ValueError(f"profile has {num} points; degree {degree} needs at least {2 * (degree + 1)}")
        y = prof.values**m
        y_norm = _norm(y)
        if y_norm == 0.0:
            raise ValueError("profile is identically zero on its grid")
        fit = factor(degree)
        coef = fit.pinv @ y
        eff = _effective_degree(coef)
        yield AlgebraicFitReport(
            xi=prof.xi,
            n=prof.n,
            m=m,
            degree=degree,
            coefficients=coef,
            t_lo=t_lo,
            t_hi=t_hi,
            relative_residual=_norm(fit.design @ coef - y) / y_norm,
            effective_degree=eff,
            degree_bound_ok=eff <= m * (prof.n - 1),
            grid=prof.grid,
            power_samples=y,
        )


def fit_power_polynomial(prof, m, degree):
    """Fit A^m on the profile grid by a degree-``degree`` Chebyshev series:
    the one-pair case of :func:`power_fits`."""
    return next(power_fits(prof, [(m, degree)]))


def detect_min_m(prof, m_max, tol=DEFAULT_ACCEPT_TOL):
    """Smallest power m <= m_max whose fit at degree m*(n-1) meets ``tol``.

    Returns the winning AlgebraicFitReport, or None when no power works
    (the honest negative: the body's sections are not polynomial-power along
    this direction at any tested m).
    """
    _require_tol("tol", tol)
    fits = power_fits(prof, min_m_plan(prof.n, m_max))
    return next((report for report in fits if report.relative_residual < tol), None)


def quadric_check(body, xi, window=None, num_points=64, tol=QUADRIC_TOL):
    """Fit powers of a quadric-domain section profile over a bounded window.

    For m in {1, 2} the degree is grown from 0 until the relative residual
    drops below ``tol`` (or QUADRIC_MAX_DEGREE is reached); the minimal
    sufficient degree per power is reported.  The m = 2 row is the structural
    claim under test; m = 1 is included because along special directions it
    already suffices (axis profile of a paraboloid is linear in t).

    The default window starts half a unit above the entry offset -h(-xi) and
    spans 3.5 units, which for the axis direction of a paraboloid reduces to
    offsets in [0.5, 4].
    """
    if not isinstance(body, QuadricDomain):
        raise TypeError("quadric_check expects a quadric domain body")
    _require_tol("tol", tol)
    d = _one_direction(xi, body.n)
    if window is None:
        entry = -body.support(-d)
        if not math.isfinite(entry):
            raise InfiniteSupportError(
                "no finite entry offset along this direction; pass an explicit window"
            )
        window = (entry + 0.5, entry + 4.0)
    prof = profile(body, d, num_points=num_points, margin=0.0, window=window)
    if np.all(prof.values == 0.0):
        raise ValueError("window misses the body: all section values vanish")
    results = []
    for m in (1, 2):
        for rep in power_fits(prof, [(m, degree) for degree in range(QUADRIC_MAX_DEGREE + 1)]):
            if rep.relative_residual < tol:
                break
        sufficient = rep.relative_residual < tol
        results.append(
            {
                "m": m,
                "min_degree": rep.degree if sufficient else None,
                "relative_residual": rep.relative_residual,
                "sufficient": sufficient,
            }
        )
    verdict = "conforms" if results[1]["sufficient"] else "deviates"
    return {"window": [float(window[0]), float(window[1])], "results": results, "verdict": verdict}


def root_structure(report, h_plus, h_minus):
    """Score the endpoint-root factorization of a fitted power.

    Fits the single scalar c in A^m ~ c*(h_plus - t)^{M/2}*(h_minus + t)^{M/2}
    over the report's own samples and reports the relative mismatch, which
    must stay below CONFORM_TOL for the fit to conform.  A conforming fit's
    roots are recovered from the flattened samples (A^m)^{2/M}, exactly the
    quadratic (h_plus - t)(h_minus + t) up to scale, fitted in Chebyshev form
    on the masked grid rescaled to [-1, 1]; its simple roots are stable where
    the multiple roots of the raw polynomial are not.  A deviating fit's
    flattened samples need not be quadratic, so it reports no roots.  The
    report is attached to ``report`` as a side effect and also returned.
    """
    M = report.m * (report.n - 1)
    if M % 2 == 1:
        rr = RootStructureReport(
            verdict="structurally-infeasible",
            scale=None,
            mismatch=None,
            roots=[],
            h_plus=float(h_plus),
            h_minus=float(h_minus),
        )
        report.root_report = rr
        return rr
    half = M // 2
    t = report.grid
    y = report.power_samples
    g = ((h_plus - t) * (h_minus + t)) ** half
    gg = float(g @ g)
    if gg == 0.0:
        raise ValueError("degenerate chord data: factorization target vanishes on the grid")
    scale = float(y @ g) / gg
    mismatch = _norm(y - scale * g) / _norm(y)
    conforms = mismatch < CONFORM_TOL
    mask = y > 0
    roots = []
    if conforms and np.count_nonzero(mask) >= 3:
        tm = t[mask]
        lo, hi = tm[0], tm[-1]
        coef = _chebyshev_fit((2.0 * tm - (lo + hi)) / (hi - lo), 2).pinv @ y[mask] ** (1.0 / half)
        rts = np.sort(np.real(C.chebroots(coef)))
        if rts.size == 2:
            roots = [(float(0.5 * (lo + hi + (hi - lo) * r)), half) for r in rts]
    rr = RootStructureReport(
        verdict="conforms" if conforms else "deviates",
        scale=scale,
        mismatch=mismatch,
        roots=roots,
        h_plus=float(h_plus),
        h_minus=float(h_minus),
    )
    report.root_report = rr
    return rr


def normalized_section_constant(body, xi):
    """Per-direction section coefficient, rescaled to be direction-free for
    quadratically supported bodies.

    Writing A(xi, t) = C(xi) * ((h_plus - t)(h_minus + t))^{(n-1)/2}, the raw
    coefficient C(xi) carries a factor (half-chord)^{-n}; multiplying it out
    leaves a constant that moment conditions force to be direction
    independent.  Evaluated at the chord midpoint.
    """
    d = _one_direction(xi, body.n)
    t_lo, t_hi = chord_interval(body, d)
    t = float(0.5 * (t_lo + t_hi))
    return normalized_constant_from_value(section_volume(body, d, t), t, t_lo, t_hi, body.n)


def normalized_constant_from_value(a_val, t, t_lo, t_hi, n):
    """The normalized section constant from one section value a_val = A(xi, t)
    at an offset t inside the chord [t_lo, t_hi]."""
    base = (t_hi - t) * (t - t_lo)
    half_chord = 0.5 * (t_hi - t_lo)
    return a_val * base ** (-(n - 1) / 2.0) * half_chord**n


@dataclass(eq=False)
class AsymptoticReport:
    """Power-law summary of A near the top endpoint of the chord.

    estimated_exponent and estimated_constant come from a log-log regression
    of A(t0 - delta) over a log-spaced window of depths delta.  The exponent
    should be (n-1)/2 for smooth strictly convex bodies; the constant is to
    be compared against :func:`predicted_boundary_constant`.  xi is a
    read-only copy of the unit direction.
    """

    xi: np.ndarray
    t0: float
    estimated_exponent: float
    estimated_constant: float
    window: tuple
    num_points: int
    depths: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def to_dict(self):
        return {
            "xi": self.xi.tolist(),
            "t0": self.t0,
            "estimated_exponent": self.estimated_exponent,
            "estimated_constant": self.estimated_constant,
            "window": list(self.window),
            "num_points": self.num_points,
            "depths": self.depths.tolist(),
            "values": self.values.tolist(),
        }


def exponent_estimate(body, xi, window=(1e-4, 1e-2)):
    """Log-log regression of the boundary decay of A along xi.

    ``window`` gives the depth range below t0 = h(xi) in units of the chord
    width; for unbounded bodies (no chord) the window is taken in absolute
    units.  The regression uses 16 log-spaced depths (_EXPONENT_POINTS).
    """
    if isinstance(body, Polytope):
        raise TypeError("boundary power laws need a strictly convex body")
    d = _one_direction(xi, body.n)
    lo, hi = _finite_window(window)
    if not 0.0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    try:
        t_lo, t_hi = chord_interval(body, d)
    except InfiniteSupportError:
        # unbounded body: no chord to scale by, take the window in absolute units
        t_hi = body.support(d)
        if not math.isfinite(t_hi):
            raise
        width = 1.0
    else:
        width = t_hi - t_lo
        if hi > 0.1:
            raise ValueError("window exceeds 0.1 of the chord width")
    depths = np.geomspace(lo, hi, _EXPONENT_POINTS) * width
    t0 = t_hi
    values = section_volume(body, d, t0 - depths)
    if np.any(values < 1e-300):
        raise ValueError("section values underflow inside the regression window")
    slope, intercept = _least_squares(np.vander(np.log(depths), 2)).pinv @ np.log(values)
    return AsymptoticReport(
        xi=d,
        t0=float(t0),
        estimated_exponent=float(slope),
        estimated_constant=float(math.exp(intercept)),
        window=(lo, hi),
        num_points=_EXPONENT_POINTS,
        depths=depths,
        values=values,
    )


def _tangent_frame(v):
    n = v.size
    basis = np.column_stack([v, np.eye(n)])
    Q, _ = np.linalg.qr(basis)
    return Q[:, 1:n]


# first trial depth of the doubling search along each curvature ray
_FIRST_DEPTH = 1e-14


def _entry_depths(body, bases, inward):
    """Smallest s >= 0 with bases[i] + s*inward inside the body, for every row
    of ``bases`` (bisection on the membership test; assumes each ray does hit
    the body).

    One ``contains_points`` call tests the bases.  The doubling search tries
    s = 1e-14 * 2^j for j = 0..255 and takes each ray's first entered point,
    32 values of j per call on the rays still outside (at most 8 calls).  Each
    ray then bisects its bracket [lo, hi] until hi - lo is at most the float
    spacing of its base's largest coordinate, where a step moves the point by
    at most one ulp, or for 70 steps.  One call per step tests every ray until
    the last one stops; a stopped ray's bracket no longer changes.  So each
    ray's depth is the one it would reach alone.
    """
    hi = np.where(body.contains_points(bases), 0.0, _FIRST_DEPTH)
    outside = np.flatnonzero(hi)
    # powers of two scale exactly: s * 2^j is s doubled j times
    scales = 2.0 ** np.arange(32)
    for _ in range(8):
        if outside.size == 0:
            break
        trial = hi[outside, None] * scales
        points = bases[outside, None, :] + trial[:, :, None] * inward
        entered = body.contains_points(points.reshape(-1, bases.shape[1])).reshape(trial.shape)
        hit = entered.any(axis=1)
        first = entered.argmax(axis=1)
        hi[outside] = np.where(hit, trial[np.arange(outside.size), first], trial[:, -1] * 2.0)
        outside = outside[~hit]
    if outside.size:
        raise ValueError("ray from the tangent plane never entered the body")
    resolution = np.spacing(np.abs(bases).max(axis=1))
    lo = np.zeros_like(hi)
    for _ in range(70):
        active = hi - lo > resolution
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        inside = body.contains_points(bases + mid[:, None] * inward)
        np.copyto(hi, mid, where=active & inside)
        np.copyto(lo, mid, where=active & ~inside)
    return 0.5 * (lo + hi)


def principal_curvatures(body, xi):
    """Principal curvatures of the boundary at the support touching point.

    Independent oracle: seats an orthonormal tangent frame at the maximizer of
    x.xi, measures the depth at which rays parallel to -xi re-enter the body
    for tangential offsets of 1e-4 (_CURVATURE_STEP), and differences those
    depths to a Hessian.  Uses only membership queries, never the section
    formulas, so it can sit on the other side of a cross-check.

    The 2k + 4*k(k-1)/2 rays of a k-dimensional tangent frame are built up
    front and searched together as arrays, so one curvature makes at most
    1 + 8 + 70 ``contains_points`` calls and no ``contains`` call (about 29
    on an ellipsoid).
    """
    v = _one_direction(xi, body.n)
    x0 = body.argmax_support(v)
    U = _tangent_frame(v)
    k = U.shape[1]
    e = np.eye(k) * _CURVATURE_STEP
    # offsets +-e_i, then +-e_i +- e_j for each pair i < j in row-major order
    offsets = [y for i in range(k) for y in (e[i], -e[i])]
    offsets += [
        y
        for i, j in combinations(range(k), 2)
        for y in (e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j])
    ]
    Y = np.array(offsets)
    # x0 + U @ y for every row y
    depth = _entry_depths(body, x0 + _row_products(U, Y), -v)
    H = np.diag((depth[0 : 2 * k : 2] + depth[1 : 2 * k : 2]) / _CURVATURE_STEP**2)
    quad = depth[2 * k :].reshape(-1, 4)
    rows, cols = np.triu_indices(k, 1)
    mixed = quad[:, 0] - quad[:, 1] - quad[:, 2] + quad[:, 3]
    H[rows, cols] = H[cols, rows] = mixed / (4.0 * _CURVATURE_STEP**2)
    kappa = np.linalg.eigvalsh(H)
    if np.any(kappa <= 0):
        raise ValueError("boundary contact is not elliptic: nonpositive curvature measured")
    return kappa


def predicted_boundary_constant(body, xi):
    """Constant c in A ~ c * (t0 - t)^{(n-1)/2} from the curvature oracle.

    Near an elliptic boundary point the level sets of x.xi cut the body in
    nearly ellipsoidal slices with semi-axes sqrt(2*delta/kappa_j); the volume
    of such a slice is the unit-ball volume of dimension n-1 times
    (2*delta)^{(n-1)/2} / sqrt(prod kappa_j).
    """
    kappa = principal_curvatures(body, xi)
    k = kappa.size
    return unit_ball_volume(k) * 2.0 ** (k / 2.0) / math.sqrt(float(np.prod(kappa)))
