"""Hyperplane section volumes A(xi, t) = Vol_{n-1}(K intersect {x.xi = t}).

Each body family has an exact engine, plus a seeded Monte Carlo slab oracle
that estimates the same quantity from nothing but the membership test.  The
oracle exists so the closed forms can be cross-validated instead of trusted.

Every exact engine takes a scalar offset t or an array of them, through one
code path: a scalar is an array of size 1 and comes back as a float.  All
engines return 0 outside the chord interval, NaN for a NaN offset, and
satisfy A(xi, t) = A(-xi, -t) by construction.

``section_volume`` and ``section_volume_ellipsoid`` also take a direction
stack: xi an (m, n) array of unit rows, with offsets of shape (m,) or (m, k)
whose row i belongs to direction i; the result has the offsets' shape.  The
ellipsoid engine evaluates a stack as arrays, through stacked products that
round like its one-direction call, so a row differs from that call only where
numpy's array ``power`` and Python's float ``**`` round apart, by a few ulp.
The other families map a stack row by row through their one-direction call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bodies import (
    _UNIT_TOL,
    Direction,
    Ellipsoid,
    InfiniteSupportError,
    PARABOLOID,
    Polytope,
    QuadricDomain,
    UnboundedSliceError,
    as_direction,
    chord_interval,
    unit_ball_volume,
)

__all__ = [
    "SectionProfile",
    "section_volume_ellipsoid",
    "section_volume_polytope",
    "section_volume_quadric",
    "section_volume",
    "section_volume_mc",
    "profile",
    "lobatto_grid",
]

EXACT = "exact"
MONTE_CARLO = "monte-carlo"


@dataclass(eq=False)
class SectionProfile:
    """Sampled section volume function of one body along one direction.

    Attributes
    ----------
    xi : Direction
    grid : ndarray
        Strictly increasing offsets t, inside the chord interval.
    values : ndarray
        A(xi, t) on the grid, nonnegative.
    n : int
        Ambient dimension.
    method : str
        "exact" or "monte-carlo".
    stderr : ndarray or None
        Per-point standard errors when method is "monte-carlo".
    """

    xi: Direction
    grid: np.ndarray
    values: np.ndarray
    n: int
    method: str = EXACT
    stderr: np.ndarray | None = None

    def __post_init__(self):
        self.xi = as_direction(self.xi)
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.method not in (EXACT, MONTE_CARLO):
            raise ValueError(f"unknown profile method {self.method!r}")
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("section volumes cannot be negative")
        if self.xi.n != self.n:
            raise ValueError("direction dimension does not match the profile dimension")

    def __len__(self):
        return self.grid.size

    def to_csv(self):
        """Deterministic two-column table; floats via repr for byte stability."""
        lines = ["t,A"]
        for t, a in zip(self.grid, self.values):
            lines.append(f"{float(t)!r},{float(a)!r}")
        return "\n".join(lines) + "\n"

    def to_dict(self):
        out = {
            "xi": self.xi.components.tolist(),
            "n": self.n,
            "method": self.method,
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
        }
        if self.stderr is not None:
            out["stderr"] = np.asarray(self.stderr).tolist()
        return out

    @classmethod
    def from_dict(cls, obj):
        stderr = obj.get("stderr")
        return cls(
            xi=Direction(np.asarray(obj["xi"], dtype=float)),
            grid=np.asarray(obj["grid"], dtype=float),
            values=np.asarray(obj["values"], dtype=float),
            n=int(obj["n"]),
            method=obj["method"],
            stderr=None if stderr is None else np.asarray(stderr, dtype=float),
        )


def _offsets(t):
    """Offsets t as a flat float array (a scalar becomes an array of size 1)
    and the shape to hand the result back in."""
    t = np.asarray(t, dtype=float)
    return t.ravel(), t.shape


def _shaped(values, ts, shape):
    """Engine output in the caller's form: a float for a scalar offset, else an
    array of the offsets' shape.  A NaN offset gives NaN in every family."""
    values[np.isnan(ts)] = np.nan
    return float(values[0]) if shape == () else values.reshape(shape)


def _is_stack(xi):
    return not isinstance(xi, Direction) and np.ndim(xi) == 2


def _direction_stack(xi, t, n):
    """Validated (m, n) stack of unit rows, the offsets as an (m, k) array, and
    the offsets' own shape, (m,) or (m, k), to hand the result back in."""
    D = np.asarray(xi, dtype=float)
    if D.shape[1] != n:
        raise ValueError(f"direction stack rows have {D.shape[1]} components, the body has dimension {n}")
    if not np.all(np.isfinite(D)):
        raise ValueError("direction stack rows must be finite")
    if np.any(np.abs(np.sqrt(np.vecdot(D, D)) - 1.0) > _UNIT_TOL):
        raise ValueError("direction stack rows must have unit Euclidean norm")
    ts = np.asarray(t, dtype=float)
    if ts.ndim not in (1, 2) or ts.shape[0] != D.shape[0]:
        raise ValueError(
            f"offsets of shape {ts.shape} do not match a stack of {D.shape[0]} directions:"
            " expected (m,) or (m, k) with m rows"
        )
    return D, ts.reshape(D.shape[0], -1), ts.shape


def section_volume_ellipsoid(body, xi, t):
    """Exact section volume of an ellipsoid, for a scalar or an array of
    offsets, along one direction or a direction stack.

    For K = {(x-c)^T M (x-c) <= 1} and unit xi with hbar = sqrt(xi^T M^-1 xi),

        A(xi, t) = omega_{n-1} * det(M)^{-1/2} * hbar^{-n}
                   * (hbar^2 - (t - c.xi)^2)^{(n-1)/2}

    on |t - c.xi| <= hbar and 0 outside.  The constant was pinned by
    cross-checking against the Monte Carlo slab oracle (see the test suite)
    before being relied on anywhere else.

    With xi an (m, n) stack of unit rows and offsets of shape (m,) or (m, k),
    row i of the result is A(xi_i, t_i).  hbar and c.xi come from stacked
    products, which round like ``centered_support(v)`` and ``c @ v``; only
    hbar^-n, an array ``power`` here and a float ``**`` in the one-direction
    call, can move a row by a few ulp.
    """
    if not isinstance(body, Ellipsoid):
        raise TypeError("section_volume_ellipsoid expects an Ellipsoid")
    if _is_stack(xi):
        D, ts, shape = _direction_stack(xi, t, body.n)
        rows = D[:, None, :]
        w = np.matmul(rows, body._shape_inv_factor)[:, 0, :]
        hbar = np.sqrt(np.vecdot(w, w))[:, None]
        tau = ts - np.matmul(rows, body.center[:, None])[:, 0]
    else:
        d = as_direction(xi)
        if d.n != body.n:
            raise ValueError("direction dimension does not match the body")
        v = d.components
        ts, shape = _offsets(t)
        hbar = body.centered_support(v)
        tau = ts - float(body.center @ v)
    gap = np.maximum(hbar * hbar - tau * tau, 0.0)
    n = body.n
    out = unit_ball_volume(n - 1) / body._sqrt_det_shape * hbar ** (-n) * gap ** ((n - 1) / 2.0)
    return _shaped(out, ts, shape)


def section_volume_polytope(body, xi, t):
    """Exact section volume of a polytope in any dimension n >= 2, for a
    scalar or an array of offsets.

    For a simplex S with vertices v_0..v_n, A(xi, t) = vol(S) M(t), where M
    is the normalized B-spline of order n (degree n - 1, integral 1) whose
    knots are the vertex heights xi.v_i (Curry & Schoenberg 1966; de Boor, A
    Practical Guide to Splines).  The polytope's A is the sum of these over
    the triangulation stored on the body.  M comes from the recurrence

        M_{i,1}(t) = 1 / (x_{i+1} - x_i) on the span (x_i, x_{i+1}],
        M_{i,r}(t) = r / (r - 1) * ((t - x_i) M_{i,r-1}(t)
                     + (x_{i+r} - t) M_{i+1,r-1}(t)) / (x_{i+r} - x_i),

    evaluated for every offset and simplex at once, with zero-width spans
    giving 0.  Pieces are left-continuous, except that an offset at the
    lowest vertex height takes the right limit, so a facet-parallel slice at
    either end of the chord returns the facet's area.
    """
    if not isinstance(body, Polytope):
        raise TypeError("section_volume_polytope expects a Polytope")
    d = as_direction(xi)
    if d.n != body.n:
        raise ValueError("direction dimension does not match the body")
    h = body.vertices @ d.components
    x = np.sort(h[body._simplices], axis=1)  # (S, n + 1) knots
    ts, shape = _offsets(t)
    out = np.zeros(ts.size)
    low = h.min()
    inside = (ts >= low) & (ts <= h.max())
    s = ts[inside][:, None, None]
    # spans starting at the lowest height are open to the left, which gives
    # the right limit there
    opens = np.where(x[:, :-1] == low, -np.inf, x[:, :-1])
    width = x[:, 1:] - x[:, :-1]
    M = np.where((opens < s) & (s <= x[:, 1:]), _guarded_ratio(1.0, width), 0.0)
    for r in range(2, body.n + 1):
        lo, hi = x[:, :-r], x[:, r:]
        M = _guarded_ratio(r / (r - 1), hi - lo) * ((s - lo) * M[..., :-1] + (hi - s) * M[..., 1:])
    # a running sum adds the simplices in one fixed order, so every offset's
    # value is independent of how many offsets share the call
    out[inside] = np.cumsum(M[..., 0] * body._simplex_volumes, axis=1)[:, -1]
    return _shaped(out, ts, shape)


def _guarded_ratio(a, width):
    """a / width, with 0 where a span has zero width."""
    return np.divide(a, width, out=np.zeros(width.shape), where=width > 0.0)


def section_volume_quadric(body, xi, t):
    """Exact section volume of a paraboloid epigraph or hyperboloid sheet, for a
    scalar or an array of offsets.

    Works by eliminating x_n on the cutting plane and completing the square,
    which reduces the slice to an (n-1)-ellipsoid in the transverse variables;
    the in-plane volume is the transverse volume times 1/|xi_n| (the metric
    factor of the graph map).  Raises UnboundedSliceError when the slice is
    noncompact, returns 0 when the plane misses the body.
    """
    if not isinstance(body, QuadricDomain):
        raise TypeError("section_volume_quadric expects a QuadricDomain")
    d = as_direction(xi)
    if d.n != body.n:
        raise ValueError("direction dimension does not match the body")
    v = d.components
    vp, vn = v[:-1], v[-1]
    ts, shape = _offsets(t)
    n = body.n
    a = body.axes
    if body.kind == PARABOLOID:
        if vn == 0.0:
            raise UnboundedSliceError("slice parallel to the paraboloid axis is unbounded")
        alpha = abs(vn)
        sgn = math.copysign(1.0, vn)
        r = np.maximum(sgn * ts + float(np.sum(vp**2 * a**2)) / (4.0 * alpha), 0.0)
        out = (
            unit_ball_volume(n - 1)
            * float(np.prod(a))
            * (r / alpha) ** ((n - 1) / 2.0)
            / alpha
        )
        return _shaped(out, ts, shape)
    c = body.c
    if vn == 0.0 or c**2 * vn**2 <= float(np.sum(a**2 * vp**2)):
        raise UnboundedSliceError("slice direction outside the hyperboloid's bounded-slice cone")
    B = np.diag(c**2 * vn**2 / a**2) - np.outer(vp, vp)
    q = float(vp @ np.linalg.solve(B, vp))
    rho2 = np.maximum(ts * ts - c**2 * vn**2 + ts * ts * q, 0.0)
    det_B = float(np.linalg.det(B))
    out = (
        unit_ball_volume(n - 1)
        * rho2 ** ((n - 1) / 2.0)
        / math.sqrt(det_B)
        / abs(vn)
    )
    # the slice center x0 = -t B^-1 vp sits at height t - vp.x0 = t (1 + q)
    # with q >= 0; where that has the opposite sign to xi_n the plane only
    # meets the mirror sheet, which is not part of the body
    out[np.copysign(1.0, ts) != math.copysign(1.0, vn)] = 0.0
    return _shaped(out, ts, shape)


def section_volume(body, xi, t):
    """Exact section volume at a scalar or an array of offsets, dispatching on
    the body family.

    xi is one direction, or an (m, n) stack of unit rows with offsets of shape
    (m,) or (m, k); a stack gives a result of the offsets' shape whose row i
    is A(xi_i, t_i).  An ellipsoid evaluates the stack as arrays (its rows
    round like the one-direction call up to ``power``, a few ulp).  A
    polytope and a quadric map it row by row, so each row equals its
    one-direction call bit for bit; the replay, the one caller that passes
    stacks, runs on accepted ellipsoids, so a stacked polytope engine would
    speed up no measured path.
    """
    if isinstance(body, Ellipsoid):
        return section_volume_ellipsoid(body, xi, t)
    if isinstance(body, Polytope):
        engine = section_volume_polytope
    elif isinstance(body, QuadricDomain):
        engine = section_volume_quadric
    else:
        raise TypeError(f"no section engine for {type(body).__name__}")
    if not _is_stack(xi):
        return engine(body, xi, t)
    D, ts, shape = _direction_stack(xi, t, body.n)
    out = np.empty(ts.shape)
    for i, row in enumerate(D):
        out[i] = engine(body, row, ts[i])
    return out.reshape(shape)


def _householder_frame(v):
    """Orthogonal (n, n) matrix with first row v and the other rows an
    orthonormal basis of v-perp, from one Householder reflection.

    H = I - 2 a a^T / (a.a) with a = v + sign(v_0) e_0 is symmetric and sends
    e_0 to -sign(v_0) v, so its rows 1..n-1 are orthonormal and orthogonal
    to v; the sign choice keeps a.a >= 2, away from cancellation.
    """
    a = v.copy()
    a[0] += 1.0 if v[0] >= 0.0 else -1.0
    Q = np.eye(v.size) - (2.0 / float(a @ a)) * np.outer(a, a)
    Q[0] = v
    return Q


def section_volume_mc(body, xi, t, slab_halfwidth=None, samples=10**6, seed=0, box=None):
    """Monte Carlo slab estimate of the section volume.

    Estimates Vol(K intersect box intersect slab) / (2 w) for the slab
    {|x.xi - t| <= w}, from nothing but the membership test and the box.
    Points are drawn only in a region R aligned with xi that contains box
    intersect slab: in the frame Q of ``_householder_frame`` (first row xi,
    then a basis u_1..u_{n-1} of xi-perp), R is

        [max(t - w, -h(-xi)), min(t + w, h(xi))] x prod_j [-h(-u_j), h(u_j)],

    with h(q) = sum_i max(lo_i q_i, hi_i q_i) the box's support function.
    ``ceil(samples * Vol(R) / Vol(box))`` uniform points of R are mapped to
    x = s xi + sum_j z_j u_j, the rows inside the box go to
    ``contains_points``, and with p the fraction of draws in K the result is
    Vol(R) * p / (2 w) and its binomial standard error.  The expected number
    of points in box intersect slab is the same as for ``samples`` uniform
    points of the box, so ``samples`` keeps that meaning: the estimate is at
    least as precise as a box draw of that many points (slightly less only
    when a wide slab makes Vol(R) exceed Vol(box)).  The generator is
    counter-based (Philox) and every row is mapped on its own, so a fixed
    seed gives the same result at any batch size; the draws come as arrays
    of up to 10^6 rows.

    Parameters
    ----------
    slab_halfwidth : float, optional
        Positive and finite.  Defaults to 1e-3 times the chord width, or for
        an unbounded body 1e-3 times the width of the box's projection onto
        xi.
    samples : int
        Positive sample budget, counted over the box as described above.
    box : (lo, hi) pair of arrays or scalars, optional
        Box, defaulting to ``bounding_box()``; a scalar bound applies to
        every coordinate.  Mandatory for unbounded bodies, where it doubles
        as the truncation window of the estimate.

    A NaN offset gives (nan, nan), as in the exact engines; a slab that
    misses the box gives (0.0, 0.0).
    """
    d = as_direction(xi)
    n = body.n
    if d.n != n:
        raise ValueError("direction dimension does not match the body")
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if box is None:
        if isinstance(body, QuadricDomain):
            raise ValueError("unbounded body: supply a truncation box")
        lo, hi = body.bounding_box()
    else:
        # a scalar bound applies to every coordinate
        lo = np.broadcast_to(np.asarray(box[0], dtype=float), n)
        hi = np.broadcast_to(np.asarray(box[1], dtype=float), n)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("sampling box must be finite")
    if np.any(hi <= lo):
        raise ValueError("bounding box has nonpositive volume")
    Q = _householder_frame(d.components)
    # the box's support at every row of Q and -Q, in closed form
    V = np.concatenate([Q, -Q])
    h = np.maximum(V * lo, V * hi).sum(axis=1)
    r_lo, r_hi = -h[n:], h[:n]
    if slab_halfwidth is None:
        try:
            t_lo, t_hi = chord_interval(body, d)
        except InfiniteSupportError:
            # unbounded body: scale the slab by the box extent along xi instead
            t_lo, t_hi = r_lo[0], r_hi[0]
        slab_halfwidth = 1e-3 * (t_hi - t_lo)
    w = float(slab_halfwidth)
    if not (math.isfinite(w) and w > 0.0):
        raise ValueError(f"slab_halfwidth must be a positive finite number, got {slab_halfwidth!r}")
    t = float(t)
    if math.isnan(t):
        return math.nan, math.nan
    r_lo[0] = max(t - w, r_lo[0])
    r_hi[0] = min(t + w, r_hi[0])
    if not r_hi[0] > r_lo[0]:
        return 0.0, 0.0
    r_span = r_hi - r_lo
    region_volume = float(np.prod(r_span))
    draws = math.ceil(samples * region_volume / float(np.prod(hi - lo)))
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    remaining = draws
    while remaining > 0:
        batch = min(remaining, 1_000_000)
        Y = r_lo + r_span * rng.random((batch, n))
        # x = Y @ Q, summed one frame row at a time so that every row rounds
        # alike whatever the batch
        X = Y[:, :1] * Q[0]
        for j in range(1, n):
            X += Y[:, j : j + 1] * Q[j]
        in_box = np.all((X >= lo) & (X <= hi), axis=1)
        if np.any(in_box):
            hits += int(np.count_nonzero(body.contains_points(X[in_box])))
        remaining -= batch
    p = hits / draws
    estimate = region_volume * p / (2.0 * w)
    stderr = region_volume * math.sqrt(p * (1.0 - p) / draws) / (2.0 * w)
    return estimate, stderr


def lobatto_grid(lo, hi, num):
    """Chebyshev-Lobatto points on [lo, hi], endpoints exact, increasing."""
    if num < 2:
        raise ValueError("need at least two grid points")
    k = np.arange(num)
    s = -np.cos(np.pi * k / (num - 1))
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * s
    t[0], t[-1] = lo, hi
    return t


def profile(
    body,
    xi,
    num_points=64,
    margin=0.02,
    window=None,
    method=EXACT,
    samples=10**5,
    seed=0,
    slab_halfwidth=None,
):
    """Sample A(xi, .) on a Chebyshev-spaced grid inside the chord interval.

    The grid spans [t_min + margin*width, t_max - margin*width] with
    Chebyshev-Lobatto spacing (dense near the ends, where the interesting
    boundary behavior lives).  margin = 0 includes the endpoints themselves;
    for strictly convex bodies the endpoint values are exactly 0.

    Parameters
    ----------
    num_points : int, >= 16
    margin : float in [0, 0.5)
    window : (lo, hi), optional
        Explicit offset window, used exactly as given (margin does not apply);
        required for unbounded bodies, where no chord interval exists.
    method : "exact" or "monte-carlo"
        The Monte Carlo profile needs a bounded body.
    samples, seed, slab_halfwidth
        Monte Carlo controls, passed to ``section_volume_mc`` at every grid
        point: ``samples`` is the budget per point (the precision of that
        many uniform points of the bounding box, although only the region
        around the slab is drawn) and ``slab_halfwidth`` defaults to 1e-3
        times the window width.  Each grid point gets an independent spawned
        stream, so the result does not depend on evaluation order.
    """
    d = as_direction(xi)
    if num_points < 16:
        raise ValueError("num_points must be at least 16")
    if not 0.0 <= margin < 0.5:
        raise ValueError("margin must lie in [0, 0.5)")
    if window is None:
        t_lo, t_hi = chord_interval(body, d)
        width = t_hi - t_lo
        t_lo, t_hi = t_lo + margin * width, t_hi - margin * width
    else:
        # an explicit window is honored exactly; margin only trims auto chords
        t_lo, t_hi = float(window[0]), float(window[1])
        if not t_hi > t_lo:
            raise ValueError("window must be a nonempty interval")
    width = t_hi - t_lo
    grid = lobatto_grid(t_lo, t_hi, num_points)
    if method == EXACT:
        values = section_volume(body, d, grid)
        return SectionProfile(d, grid, values, body.n, EXACT)
    if method != MONTE_CARLO:
        raise ValueError(f"unknown profile method {method!r}")
    if isinstance(body, QuadricDomain):
        raise ValueError("the Monte Carlo profile needs a bounded body")
    if slab_halfwidth is None:
        slab_halfwidth = 1e-3 * width
    streams = np.random.SeedSequence(seed).spawn(num_points)
    values = np.empty(num_points)
    errs = np.empty(num_points)
    for i, t in enumerate(grid):
        values[i], errs[i] = section_volume_mc(
            body, d, t, slab_halfwidth=slab_halfwidth, samples=samples, seed=streams[i]
        )
    return SectionProfile(d, grid, values, body.n, MONTE_CARLO, stderr=errs)
