"""Hyperplane section volumes A(xi, t) = Vol_{n-1}(K intersect {x.xi = t}).

Each body family has an exact engine, plus a seeded Monte Carlo slab oracle
that estimates the same quantity from nothing but the membership test.  The
oracle exists so the closed forms can be cross-validated instead of trusted.

``section_volume`` is the one public entry to the exact engines.  It reads
and checks the direction once, then hands an (m, n) stack of unit
directions and an (m, k) array of offsets, row i of the offsets belonging to
direction i, to the family's engine, a core that checks nothing.  A single
direction is the one-row stack and takes offsets of any shape; a stack
takes offsets of shape (m,) or (m, k).  The result has the offsets' shape,
and a scalar offset comes back as a float.  As one direction takes the same
path, a stack's row equals the one-direction call bit for bit.  Every
family returns 0 outside the chord interval and NaN for a NaN offset, and
satisfies A(xi, t) = A(-xi, -t) by construction.  Internal callers that
hold rows they checked already (``profile``, ``exponent_estimate``, the
detection replay) call the cores through ``_section_rows``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    Ellipsoid,
    InfiniteSupportError,
    PARABOLOID,
    Polytope,
    QuadricDomain,
    UnboundedSliceError,
    _chord_rows,
    _direction_rows,
    _one_direction,
    _require_int,
    unit_ball_volume,
)

__all__ = [
    "SectionProfile",
    "section_volume",
    "section_volume_mc",
    "profile",
    "lobatto_grid",
]

@dataclass(eq=False)
class SectionProfile:
    """Exactly sampled section volume function of one body along one direction.

    Attributes
    ----------
    xi : ndarray
        The unit direction, shape (n,), held as a read-only copy.
    grid : ndarray
        Strictly increasing finite offsets t, inside the chord interval.
    values : ndarray
        A(xi, t) on the grid, finite and nonnegative.
    n : int
        Ambient dimension.
    """

    xi: np.ndarray
    grid: np.ndarray
    values: np.ndarray
    n: int

    def __post_init__(self):
        self.xi = _one_direction(self.xi, self.n)
        self._check_samples()

    @classmethod
    def _of_direction(cls, xi, grid, values, n):
        """A profile along xi, a direction ``_one_direction`` has already
        returned: every check of the constructor but the direction read."""
        prof = cls.__new__(cls)
        prof.xi, prof.grid, prof.values, prof.n = xi, grid, values, n
        prof._check_samples()
        return prof

    def _check_samples(self):
        grid = self.grid = np.asarray(self.grid, dtype=float)
        values = self.values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if grid.size < 2:
            raise ValueError("grid must have at least two points")
        # a NaN passes both order tests below, so finiteness comes first
        if not np.isfinite(grid).all():
            raise ValueError("grid must be finite")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        if (grid[1:] <= grid[:-1]).any():
            raise ValueError("grid must be strictly increasing")
        if (values < 0).any():
            raise ValueError("section volumes cannot be negative")

    def __len__(self):
        return self.grid.size


def _queries(xi, t, n):
    """The (m, n) stack of unit rows, the offsets as an (m, k) array whose row
    i belongs to direction i, and the shape to hand the result back in.  One
    direction is the one-row stack and takes offsets of any shape; a stack
    takes offsets of shape (m,) or (m, k)."""
    D, stacked = _direction_rows(xi, n)
    ts = np.asarray(t, dtype=float)
    if stacked and (ts.ndim not in (1, 2) or ts.shape[0] != len(D)):
        raise ValueError(
            f"offsets of shape {ts.shape} do not match a stack of {len(D)} directions:"
            " expected (m,) or (m, k) with m rows"
        )
    return D, ts.reshape(len(D), -1), ts.shape


def _shaped(values, ts, shape):
    """Engine output in the caller's form: a float for a scalar offset, else an
    array of the offsets' shape.  A NaN offset gives NaN in every family."""
    values[np.isnan(ts)] = np.nan
    values = values.reshape(shape)
    return float(values) if shape == () else values


def section_volume_ellipsoid(body, D, ts):
    """Exact section volume of an ellipsoid, as an (m, k) array: the core
    over a checked (m, n) stack D and (m, k) offsets ts.

    For K = {(x-c)^T M (x-c) <= 1} and unit xi with hbar = sqrt(xi^T M^-1 xi),

        A(xi, t) = omega_{n-1} * det(M)^{-1/2} * hbar^{-n}
                   * (hbar^2 - (t - c.xi)^2)^{(n-1)/2}

    on |t - c.xi| <= hbar and 0 outside.  The constant was pinned by
    cross-checking against the Monte Carlo slab oracle (see the test suite)
    before being relied on anywhere else.
    """
    n = body.n
    mid, hbar = body._chord(D)
    tau = ts - mid[:, None]
    gap = np.maximum((hbar * hbar)[:, None] - tau * tau, 0.0)
    # hbar^-n by float **, which numpy's array power does not always match
    const = unit_ball_volume(n - 1) / body._sqrt_det_shape
    scale = np.array([const * h ** (-n) for h in hbar.tolist()])
    return scale[:, None] * gap ** ((n - 1) / 2.0)


def section_volume_polytope(body, D, ts):
    """Exact section volume of a polytope in any dimension n >= 2, as an
    (m, k) array: the core over a checked (m, n) stack D and (m, k) offsets ts.

    For a simplex S with vertices v_0..v_n, A(xi, t) = vol(S) M(t), where M
    is the normalized B-spline of order n (degree n - 1, integral 1) whose
    knots are the vertex heights xi.v_i (Curry & Schoenberg 1966; de Boor, A
    Practical Guide to Splines).  The polytope's A is the sum of these over
    the triangulation stored on the body.  M comes from the recurrence

        M_{i,1}(t) = 1 / (x_{i+1} - x_i) on the span (x_i, x_{i+1}],
        M_{i,r}(t) = r / (r - 1) * ((t - x_i) M_{i,r-1}(t)
                     + (x_{i+r} - t) M_{i+1,r-1}(t)) / (x_{i+r} - x_i),

    evaluated for every (direction, offset) pair and simplex at once, with
    zero-width spans giving 0.  Pieces are left-continuous, except that an
    offset at the lowest vertex height takes the right limit, so a
    facet-parallel slice at either end of the chord returns the facet's area.
    """
    h = body._heights(D)
    low = h.min(axis=1)[:, None]
    inside = (ts >= low) & (ts <= h.max(axis=1)[:, None])
    # knots (m, 1, S, n + 1) against offsets (m, k, 1, 1); an offset outside
    # the chord runs at the lowest height instead and is zeroed at the end
    x = np.sort(h[:, body._simplices], axis=2)[:, None]
    s = np.where(inside, ts, low)[..., None, None]
    # spans starting at the lowest height are open to the left, which gives
    # the right limit there
    opens = np.where(x[..., :-1] == low[..., None, None], -np.inf, x[..., :-1])
    width = x[..., 1:] - x[..., :-1]
    M = np.where((opens < s) & (s <= x[..., 1:]), _guarded_ratio(1.0, width), 0.0)
    for r in range(2, body.n + 1):
        lo, hi = x[..., :-r], x[..., r:]
        M = _guarded_ratio(r / (r - 1), hi - lo) * ((s - lo) * M[..., :-1] + (hi - s) * M[..., 1:])
    # a running sum adds the simplices in one fixed order, so every offset's
    # value is independent of how many offsets share the call
    return np.where(inside, np.cumsum(M[..., 0] * body._simplex_volumes, axis=-1)[..., -1], 0.0)


def _guarded_ratio(a, width):
    """a / width, with 0 where a span has zero width."""
    return np.divide(a, width, out=np.zeros(width.shape), where=width > 0.0)


def section_volume_quadric(body, D, ts):
    """Exact section volume of a paraboloid epigraph or hyperboloid sheet, as
    an (m, k) array: the core over a checked (m, n) stack D and (m, k)
    offsets ts.

    Works by eliminating x_n on the cutting plane and completing the square,
    which reduces the slice to an (n-1)-ellipsoid in the transverse variables;
    the in-plane volume is the transverse volume times 1/|xi_n| (the metric
    factor of the graph map).  Raises UnboundedSliceError when the slice
    along any direction is noncompact, returns 0 when the plane misses the
    body.
    """
    n = body.n
    vp, vn = D[:, :-1], D[:, -1:]
    a = body.axes
    if body.kind == PARABOLOID:
        if np.any(vn == 0.0):
            raise UnboundedSliceError("slice parallel to the paraboloid axis is unbounded")
        alpha = np.abs(vn)
        shift = np.sum(vp**2 * a**2, axis=1, keepdims=True) / (4.0 * alpha)
        r = np.maximum(np.copysign(1.0, vn) * ts + shift, 0.0)
        return unit_ball_volume(n - 1) * float(np.prod(a)) * (r / alpha) ** ((n - 1) / 2.0) / alpha
    c2vn2 = body.c**2 * vn**2
    # xi_n = 0 fails this too
    if np.any(c2vn2 <= np.sum(a**2 * vp**2, axis=1, keepdims=True)):
        raise UnboundedSliceError("slice direction outside the hyperboloid's bounded-slice cone")
    B = np.eye(n - 1) * (c2vn2 / a**2)[:, None, :] - vp[:, :, None] * vp[:, None, :]
    q = np.matmul(vp[:, None, :], np.linalg.solve(B, vp[:, :, None]))[:, 0]
    rho2 = np.maximum(ts * ts - c2vn2 + ts * ts * q, 0.0)
    out = unit_ball_volume(n - 1) * rho2 ** ((n - 1) / 2.0) / np.sqrt(np.linalg.det(B))[:, None] / np.abs(vn)
    # the slice center x0 = -t B^-1 vp sits at height t - vp.x0 = t (1 + q)
    # with q >= 0; where that has the opposite sign to xi_n the plane only
    # meets the mirror sheet, which is not part of the body
    out[np.copysign(1.0, ts) != np.copysign(1.0, vn)] = 0.0
    return out


def section_volume(body, xi, t):
    """Exact section volume, dispatching on the body family.

    xi is one direction, with offsets of any shape, or an (m, n) stack of
    unit rows, with offsets of shape (m,) or (m, k) whose row i is taken
    along direction i.  The result has the offsets' shape (a float for a
    scalar offset).  Each engine runs one code path, a single direction
    being the one-row stack, so a stack's row i equals the one-direction
    call A(xi_i, t_i) bit for bit.  The direction is read and checked once,
    here; the family's engine checks nothing.
    """
    D, ts, shape = _queries(xi, t, body.n)
    return _shaped(_section_rows(body, D, ts), ts, shape)


def _section_rows(body, D, ts):
    """The family engine's (m, k) section volumes over an (m, n) stack D that
    ``_direction_rows`` has already checked and (m, k) offsets ts.  The
    engines are called by position: the benchmark tracer reads the offsets
    as the third argument."""
    if isinstance(body, Ellipsoid):
        return section_volume_ellipsoid(body, D, ts)
    if isinstance(body, Polytope):
        return section_volume_polytope(body, D, ts)
    if isinstance(body, QuadricDomain):
        return section_volume_quadric(body, D, ts)
    raise TypeError(f"no section engine for {type(body).__name__}")


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
    n = body.n
    v = _one_direction(xi, n)
    _require_int("samples", samples, 1)
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
    Q = _householder_frame(v)
    # the box's support at every row of Q and -Q, in closed form
    V = np.concatenate([Q, -Q])
    h = np.maximum(V * lo, V * hi).sum(axis=1)
    r_lo, r_hi = -h[n:], h[:n]
    if slab_halfwidth is None:
        try:
            # the chord of the direction checked above, without a second check
            c_lo, c_hi = _chord_rows(body, v[None])
            t_lo, t_hi = float(c_lo[0]), float(c_hi[0])
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


@functools.lru_cache(maxsize=32)
def _lobatto_nodes(num):
    """The ``num`` Chebyshev-Lobatto nodes -cos(pi k / (num - 1)) on [-1, 1]
    as a read-only array, built once per ``num`` (at most 32 kept)."""
    k = np.arange(num)
    s = -np.cos(np.pi * k / (num - 1))
    s.setflags(write=False)
    return s


def lobatto_grid(lo, hi, num):
    """Chebyshev-Lobatto points on [lo, hi], endpoints exact, increasing."""
    _require_int("num", num, 2)
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _lobatto_nodes(num)
    t[0], t[-1] = lo, hi
    return t


def _finite_window(window):
    """An explicit (lo, hi) window as two floats, or a ValueError unless both
    are finite."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window must be finite, got {tuple(window)!r}")
    return lo, hi


def profile(body, xi, num_points=64, margin=0.02, window=None):
    """Sample A(xi, .) exactly on a Chebyshev-spaced grid inside the chord
    interval.

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

    The direction is read and checked once, here; the chord takes one
    geometry pass (as in ``chord_interval``), and the section engine and the
    profile reuse the checked direction.
    """
    return _profile(body, _one_direction(xi, body.n), num_points, margin, window)


def _profile(body, d, num_points, margin, window):
    """``profile`` along a direction ``_one_direction`` has already returned."""
    _require_int("num_points", num_points, 16)
    if not 0.0 <= margin < 0.5:
        raise ValueError("margin must lie in [0, 0.5)")
    if window is None:
        lo, hi = _chord_rows(body, d[None])
        t_lo, t_hi = float(lo[0]), float(hi[0])
        width = t_hi - t_lo
        t_lo, t_hi = t_lo + margin * width, t_hi - margin * width
    else:
        # an explicit window is honored exactly; margin only trims auto chords
        t_lo, t_hi = _finite_window(window)
        if not t_hi > t_lo:
            raise ValueError("window must be a nonempty interval")
    grid = lobatto_grid(t_lo, t_hi, num_points)
    values = _section_rows(body, d[None], grid[None])[0]
    return SectionProfile._of_direction(d, grid, values, body.n)
