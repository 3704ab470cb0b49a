"""Convex body models: support functions, membership tests, chord intervals.

Three body families are supported.  Ellipsoids are given by a center c and a
symmetric positive definite shape matrix M, as the set {x : (x-c)^T M (x-c) <= 1}.
Polytopes, in any dimension n >= 2, are given by their vertex list; their
facets and a triangulation come from one convex hull, computed at
construction.  Quadric domains are the two unbounded convex model surfaces:
the epigraph of an elliptic paraboloid and the convex region bounded by one
sheet of a two-sheet elliptic hyperboloid.  Unbounded bodies report an
infinite support value for directions outside their dual cone instead of
raising, so callers can filter directions.

Every ``support`` takes one direction, an array of shape (n,), and returns a
float, or a stack of directions, an array of shape (m, n), and returns an
array of m values.  There is one code path: one direction is the one-row
stack, and every product of a body matrix with a stack runs one
matrix-vector product per row (``_row_products``), so a stack row of
``support`` or ``chord_interval`` equals its one-direction call bit for bit.
Membership works the same way: ``contains_points(X)`` gives a point the
same verdict alone, as a one-row X, or in a batch.

Every entry point of the package reads a direction through
``_direction_rows``: a unit direction is a 1-d array of shape (n,), and
where a stack is accepted, an (m, n) array of unit rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

__all__ = [
    "InfiniteSupportError",
    "UnboundedSliceError",
    "Direction",
    "Ellipsoid",
    "Polytope",
    "QuadricDomain",
    "support",
    "chord_interval",
    "unit_ball_volume",
    "fibonacci_sphere",
    "sample_directions",
    "random_rotation",
    "random_ellipsoid",
    "random_simplex",
    "body_from_dict",
    "body_to_dict",
    "load_body",
    "save_body",
]

_SYM_TOL = 1e-12
_UNIT_TOL = 1e-12
_ORTHO_TOL = 1e-12


class InfiniteSupportError(ValueError):
    """An operation required a finite support value but the body is unbounded
    in the queried direction."""


class UnboundedSliceError(ValueError):
    """A hyperplane slice of an unbounded body is not compact."""


def unit_ball_volume(d):
    """Volume of the unit Euclidean ball in dimension d."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class Direction:
    """A unit vector held as an object.  Every entry point takes the plain
    1-d array, which numpy reads out of a Direction; the class remains for
    callers written against it.  The constructor checks its components by
    the rule every entry point applies (``_direction_rows``)."""

    components: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", _one_direction(v, np.atleast_1d(v).shape[-1]))

    @classmethod
    def from_vector(cls, v):
        return cls(_normalized(v))

    def __neg__(self):
        return Direction(-self.components)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.components, dtype=dtype, copy=copy)


# below this norm, v.v is subnormal or zero and sqrt(v.v) loses precision
_MIN_NORM = math.sqrt(np.finfo(float).tiny)


def _normalized(v):
    """v / |v| for a finite, nonzero vector v, else a ValueError.  When v.v
    leaves the normal float range, v is first divided by max|v|, which an
    ordinary vector never needs, so its quotient keeps the bits of
    v / np.linalg.norm(v)."""
    v = np.asarray(v, dtype=float)
    if not (np.isfinite(v).all() and v.any()):
        raise ValueError("cannot normalize a zero or non-finite vector")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not _MIN_NORM <= norm < np.inf:
        v = v / np.abs(v).max()
        norm = np.linalg.norm(v)
    return v / norm


def _require_int(name, value, least):
    """A ValueError naming ``name`` unless value is an integer >= least: a
    Python int or a numpy integer.  A bool, Python's or numpy's, or an
    integral float such as 3.0 is not an integer.  The check is a plain
    isinstance, not an abstract-class one, as it runs on every count of
    every public call."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_tol(name, value):
    """A ValueError naming ``name`` unless value is a finite positive number,
    as a tolerance or a step must be."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def _direction_rows(xi, n):
    """One direction or a direction stack as an (m, n) array of unit rows, and
    whether xi was a stack.  This is the one place a direction is read and
    checked.  One direction, a 1-d array-like, is the one-row stack; a stack
    is a 2-d array-like of at least one row.  Every row must be finite with
    unit Euclidean norm (within 1e-12)."""
    D = np.asarray(xi, dtype=float)
    stacked = D.ndim == 2
    if not stacked:
        if D.ndim != 1:
            raise ValueError(f"a direction is a 1-d array or an (m, n) stack of rows, got shape {D.shape}")
        D = D[None]
    if D.shape[1] != n:
        raise ValueError(f"directions have {D.shape[1]} components, the body has dimension {n}")
    if len(D) == 0:
        raise ValueError(f"the direction stack is empty: shape {D.shape} has no rows")
    # a NaN row fails the norm test too (max propagates NaN), but is
    # reported as not finite
    if not np.abs(np.sqrt(np.vecdot(D, D)) - 1.0).max() <= _UNIT_TOL:
        rule = "have unit Euclidean norm" if np.isfinite(D).all() else "be finite"
        raise ValueError(f"directions must {rule}")
    return D, stacked


def _one_direction(xi, n):
    """One direction, checked by ``_direction_rows``, as a read-only float
    copy of shape (n,); a stack is an error."""
    D, stacked = _direction_rows(xi, n)
    if stacked:
        raise ValueError(f"expected one direction of shape ({n},), got a stack of shape {D.shape}")
    v = D[0].copy()
    v.setflags(write=False)
    return v


def _row_products(A, X):
    """A @ x for every row x of the 2-d array X, one row of output per row of
    X.  Each row is its own matrix-vector product and rounds like A @ x for
    that row alone; X @ A.T is one matrix-matrix product and rounds some
    rows differently.  X is taken in C order (a copy only for another
    layout), as matmul's kernel, and so its rounding, depends on the layout."""
    return np.matmul(A, np.ascontiguousarray(X)[:, :, None])[..., 0]


def _norm(x):
    """The Euclidean norm of a contiguous 1-d float array, as a float: the
    sqrt(x.x) that np.linalg.norm(x) computes for such an array, bit for
    bit, without its argument handling."""
    return math.sqrt(x.dot(x))


def _rotation(R, n):
    """R as an orthogonal (n, n) array, or a ValueError.  Every family's
    ``rotated`` returns the image of the body under x -> R x, which for an
    ellipsoid's shape matrix is R M R^T only when R^T = R^-1."""
    R = np.asarray(R, dtype=float)
    # a NaN entry fails the comparison too
    if R.shape != (n, n) or not np.linalg.norm(R.T @ R - np.eye(n)) <= _ORTHO_TOL:
        raise ValueError(f"rotation matrix must be orthogonal of shape ({n}, {n}), with |R^T R - I| <= 1e-12")
    return R


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Solid ellipsoid {x : (x - center)^T shape (x - center) <= 1}.

    Parameters
    ----------
    center : array_like, shape (n,)
    shape : array_like, shape (n, n)
        Symmetric (within 1e-12) positive definite matrix.  Semi-axis lengths
        are the inverse square roots of its eigenvalues.
    """

    center: np.ndarray
    shape: np.ndarray
    _shape_inv: np.ndarray = field(init=False, repr=False)
    _shape_inv_factor: np.ndarray = field(init=False, repr=False)
    _sqrt_det_shape: float = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        M = np.asarray(self.shape, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("center must be a vector of dimension >= 2")
        if M.shape != (c.size, c.size):
            raise ValueError("shape matrix must be square and match the center dimension")
        if not np.all(np.isfinite(c)):
            raise ValueError("center must be finite")
        if not np.all(np.isfinite(M)):
            raise ValueError("shape matrix must be finite")
        if np.max(np.abs(M - M.T)) > _SYM_TOL:
            raise ValueError("shape matrix must be symmetric within 1e-12")
        M = 0.5 * (M + M.T)
        try:
            chol = np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise ValueError("shape matrix must be positive definite") from exc
        inv = np.linalg.inv(M)
        object.__setattr__(self, "center", c.copy())
        object.__setattr__(self, "shape", M)
        object.__setattr__(self, "_shape_inv", 0.5 * (inv + inv.T))
        # M = C C^T gives M^-1 = F F^T with F = C^-T, so v^T M^-1 v = |v F|^2
        # is a sum of squares
        object.__setattr__(self, "_shape_inv_factor", np.linalg.inv(chol).T)
        object.__setattr__(self, "_sqrt_det_shape", float(np.prod(np.diag(chol))))
        for arr in (self.center, self.shape, self._shape_inv, self._shape_inv_factor):
            arr.setflags(write=False)

    @classmethod
    def from_axes(cls, axes, center=None):
        """Axis-aligned ellipsoid with semi-axis lengths ``axes``."""
        axes = np.asarray(axes, dtype=float)
        if np.any(axes <= 0):
            raise ValueError("semi-axis lengths must be positive")
        if center is None:
            center = np.zeros(axes.size)
        return cls(center, np.diag(1.0 / axes**2))

    @property
    def n(self):
        return self.center.size

    @property
    def volume(self):
        return unit_ball_volume(self.n) / self._sqrt_det_shape

    def support(self, v):
        """Support value sup_{x in K} x.v for an arbitrary (not necessarily
        unit) vector v, or for each row of an (m, n) array; positively
        homogeneous in v."""
        v = np.asarray(v, dtype=float)
        mid, hbar = self._chord(np.atleast_2d(v))
        h = mid + hbar
        return float(h[0]) if v.ndim == 1 else h

    def _chord(self, D):
        """Midpoint c.xi and half-width hbar = sqrt(xi^T M^-1 xi) of the
        range of x.xi over the body, for each row xi of an (m, n) array, as
        two arrays of m values."""
        w = _row_products(self._shape_inv_factor.T, D)
        return _row_products(self.center[None], D)[:, 0], np.sqrt(np.vecdot(w, w))

    def _extent(self, D):
        """(-h(-xi), h(xi)) for each row xi of an (m, n) array, from one
        ``_chord``: mid - hbar and mid + hbar.  Negation is exact and
        rounding is sign-symmetric, so these equal the two ``support``
        calls bit for bit."""
        mid, hbar = self._chord(D)
        return mid - hbar, mid + hbar

    def argmax_support(self, v):
        """Boundary point where x.v attains the support value."""
        v = np.asarray(v, dtype=float)
        g = self._shape_inv @ v
        return self.center + g / math.sqrt(v @ g)

    def contains(self, x):
        return bool(self.contains_points(np.asarray(x, dtype=float)[None])[0])

    def contains_points(self, X):
        """Membership of each row of an (m, n) array."""
        D = np.asarray(X, dtype=float) - self.center
        # stacked products give every row the vector-matrix-then-dot path of
        # one d @ M @ d; einsum sums in another order and moves the boundary
        q = np.matmul(np.matmul(D[:, None, :], self.shape), D[:, :, None])[:, 0, 0]
        return q <= 1.0

    def bounding_box(self):
        r = np.sqrt(np.diag(self._shape_inv))
        return self.center - r, self.center + r

    def translated(self, v):
        return Ellipsoid(self.center + np.asarray(v, dtype=float), self.shape)

    def scaled(self, lam):
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        return Ellipsoid(self.center * lam, self.shape / lam**2)

    def rotated(self, R):
        R = _rotation(R, self.n)
        return Ellipsoid(R @ self.center, R @ self.shape @ R.T)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex polytope in any dimension n >= 2 given by its vertex list.

    Every input vertex must be extreme.  The convex hull is computed once, at
    construction.  Its facet inequalities A x <= b give membership, the plain
    conjunction of those inequalities with no tolerance, so boundary points
    are inside.  Its triangulated facets give a triangulation of the body:
    the cone from vertex 0 over every facet simplex, less the simplices of
    zero volume, stored as an (S, n + 1) index array with the S simplex
    volumes |det| / n!.
    """

    vertices: np.ndarray
    _facet_normals: np.ndarray = field(init=False, repr=False)
    _facet_offsets: np.ndarray = field(init=False, repr=False)
    _simplices: np.ndarray = field(init=False, repr=False)
    _simplex_volumes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] < 2:
            raise ValueError("vertices must be an (m, n) array with n >= 2")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        n = V.shape[1]
        if V.shape[0] < n + 1:
            raise ValueError("need at least n + 1 vertices")
        if np.linalg.matrix_rank(V - V[0]) < n:
            raise ValueError("vertices must be affinely independent (full-dimensional body)")
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(V)
        except QhullError as exc:
            raise ValueError("vertices must span a full-dimensional body") from exc
        if len(set(hull.vertices.tolist())) != V.shape[0]:
            raise ValueError("every vertex must be extreme (no duplicates, none interior)")
        normals = hull.equations[:, :n]
        offsets = -hull.equations[:, n]
        cone = np.column_stack([np.zeros(len(hull.simplices), dtype=int), hull.simplices])
        volumes = np.abs(np.linalg.det(V[cone[:, 1:]] - V[cone[:, :1]])) / math.factorial(n)
        # facets through vertex 0, and the flat pieces qhull's triangulation
        # can leave in a facet, span simplices of zero volume
        kept = volumes > 1e-12 * hull.volume
        object.__setattr__(self, "vertices", V.copy())
        object.__setattr__(self, "_facet_normals", normals)
        object.__setattr__(self, "_facet_offsets", offsets)
        object.__setattr__(self, "_simplices", cone[kept])
        object.__setattr__(self, "_simplex_volumes", volumes[kept])
        for arr in (self.vertices, self._facet_normals, self._facet_offsets, self._simplices, self._simplex_volumes):
            arr.setflags(write=False)

    @classmethod
    def cube(cls, n=3, half=1.0):
        """Axis-aligned cube [-half, half]^n."""
        return cls(np.array(list(product(*([[-half, half]] * n)))))

    @property
    def n(self):
        return self.vertices.shape[1]

    def support(self, v):
        """Largest vertex height along v, for one vector (a float) or each
        row of an (m, n) array."""
        v = np.asarray(v, dtype=float)
        h = self._heights(np.atleast_2d(v)).max(axis=1)
        return float(h[0]) if v.ndim == 1 else h

    def _heights(self, D):
        """(m, V) heights x.xi of the vertices along each row xi of an (m, n)
        array."""
        return _row_products(self.vertices, D)

    def _extent(self, D):
        """(-h(-xi), h(xi)) for each row xi of an (m, n) array, from one
        ``_heights``: the smallest and largest vertex height, which equal
        the two ``support`` calls bit for bit (negation is exact)."""
        h = self._heights(D)
        return h.min(axis=1), h.max(axis=1)

    def argmax_support(self, v):
        v = np.asarray(v, dtype=float)
        return self.vertices[int(np.argmax(self._heights(v[None])[0]))]

    def contains(self, x):
        return bool(self.contains_points(np.asarray(x, dtype=float)[None])[0])

    def contains_points(self, X):
        """Membership of each row of an (m, n) array."""
        heights = _row_products(self._facet_normals, np.asarray(X, dtype=float))
        return np.all(heights <= self._facet_offsets, axis=1)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def translated(self, v):
        return Polytope(self.vertices + np.asarray(v, dtype=float))

    def scaled(self, lam):
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        return Polytope(self.vertices * lam)

    def rotated(self, R):
        R = _rotation(R, self.n)
        return Polytope(self.vertices @ R.T)


PARABOLOID = "paraboloid"
HYPERBOLOID_SHEET = "hyperboloid-sheet"


@dataclass(frozen=True, eq=False)
class QuadricDomain:
    """Unbounded convex region bounded by a model quadric surface.

    kind="paraboloid" is the epigraph {x_n >= sum_j x_j^2 / axes_j^2}.
    kind="hyperboloid-sheet" is the convex region on and above the upper sheet
    of {x_n^2 / c^2 - sum_j x_j^2 / axes_j^2 = 1}, that is
    {x_n >= c * sqrt(1 + sum_j x_j^2 / axes_j^2)}.

    ``axes`` lists the n-1 transverse semi-axes, so the ambient dimension is
    len(axes) + 1.  Support values are +inf outside the dual cone of the
    asymptotic cone; that is a tagged value, not an error.
    """

    kind: str
    axes: np.ndarray
    c: float | None = None

    def __post_init__(self):
        if self.kind not in (PARABOLOID, HYPERBOLOID_SHEET):
            raise ValueError(f"unknown quadric kind {self.kind!r}")
        a = np.asarray(self.axes, dtype=float)
        if a.ndim != 1 or a.size < 1 or not np.all(np.isfinite(a) & (a > 0)):
            raise ValueError("axes must be a vector of finite, positive semi-axis lengths")
        if self.kind == HYPERBOLOID_SHEET:
            if self.c is None or not 0 < self.c < math.inf:
                raise ValueError("hyperboloid sheet needs a finite, positive apex height c")
            object.__setattr__(self, "c", float(self.c))
        elif self.c is not None:
            raise ValueError("paraboloid does not take a c parameter")
        object.__setattr__(self, "axes", a.copy())
        self.axes.setflags(write=False)

    @property
    def n(self):
        return self.axes.size + 1

    def support(self, v):
        """Support value for one vector (a float) or each row of an (m, n)
        array; +inf for directions with unbounded linear functional (the
        caller is expected to filter, not to catch)."""
        v = np.asarray(v, dtype=float)
        D = np.atleast_2d(v)
        vn = D[:, -1]
        rho2 = _row_products((self.axes**2)[None], D[:, :-1] ** 2)[:, 0]
        if self.kind == PARABOLOID:
            unbounded = vn >= 0.0
            # a stand-in divisor on unbounded rows, whose value becomes inf below
            h = rho2 / (-4.0 * np.where(unbounded, -1.0, vn))
        else:
            gap = self.c**2 * vn**2 - rho2
            unbounded = (vn >= 0.0) | (gap < 0.0)
            h = -np.sqrt(np.maximum(gap, 0.0))
        h = np.where(unbounded, math.inf, h)
        return float(h[0]) if v.ndim == 1 else h

    def _extent(self, D):
        """(-h(-xi), h(xi)) for each row xi of an (m, n) array, with inf
        where the body is unbounded."""
        return -self.support(-D), self.support(D)

    def argmax_support(self, v):
        v = np.asarray(v, dtype=float)
        vp, vn = v[:-1], v[-1]
        if not math.isfinite(self.support(v)):
            raise InfiniteSupportError("no support maximizer in an unbounded direction")
        if self.kind == PARABOLOID:
            xp = -vp * self.axes**2 / (2.0 * vn)
            return np.append(xp, np.sum(xp**2 / self.axes**2))
        beta = -self.c * vn
        rho2 = float(np.sum(self.axes**2 * vp**2))
        root = math.sqrt(beta**2 - rho2)
        xp = vp * self.axes**2 / root
        return np.append(xp, self.c * beta / root)

    def contains(self, x):
        return bool(self.contains_points(np.asarray(x, dtype=float)[None])[0])

    def contains_points(self, X):
        """Membership of each row of an (m, n) array."""
        X = np.asarray(X, dtype=float)
        q = np.sum(X[:, :-1] ** 2 / self.axes**2, axis=1)
        if self.kind == PARABOLOID:
            return X[:, -1] >= q
        return (X[:, -1] > 0.0) & (X[:, -1] ** 2 / self.c**2 - q >= 1.0)


def support(body, xi):
    """Support function h_K(xi) = sup_{x in K} x.xi for a unit direction."""
    return body.support(_one_direction(xi, body.n))


def chord_interval(body, xi):
    """Range (t_min, t_max) of hyperplane offsets t with K meeting {x.xi = t}.

    t_max = h_K(xi) and t_min = -h_K(-xi).  xi may also be an (m, n) stack of
    unit rows, which gives two arrays of m values whose row i equals the
    one-direction call along xi_i bit for bit.  Raises InfiniteSupportError
    if the body is unbounded along any of the directions or their negatives.

    Both ends come from one geometry pass per stack (the body's
    ``_extent``): one chord for an ellipsoid, one set of vertex heights for
    a polytope, and the two support calls for a quadric.  Either way they
    equal (-support(-xi), support(xi)) bit for bit.
    """
    D, stacked = _direction_rows(xi, body.n)
    lo, hi = _chord_rows(body, D)
    return (lo, hi) if stacked else (float(lo[0]), float(hi[0]))


def _chord_rows(body, D):
    """``chord_interval`` of an (m, n) stack that ``_direction_rows`` has
    already checked, as two arrays of m values."""
    lo, hi = body._extent(D)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise InfiniteSupportError("chord interval undefined: support is infinite along this normal")
    return lo, hi


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def fibonacci_sphere(count):
    """Deterministic, well-spread set of ``count`` unit vectors on S^2."""
    _require_int("count", count, 1)
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    phi = i * _GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def sample_directions(n, count, seed=0, antithetic=False):
    """Direction set on S^{n-1}: Fibonacci lattice for n = 3, otherwise a
    seeded uniform sample (optionally as antithetic +/- pairs).

    For n = 3 the lattice ignores both ``seed`` and ``antithetic``: every
    seed gives the same ``count`` rows, which are not antithetic pairs.  So
    ``is_ellipsoid`` and ``range_test`` on a 3-d body report the same
    numbers at every seed."""
    _require_int("count", count, 1)
    if n == 3:
        return fibonacci_sphere(count)
    rng = np.random.Generator(np.random.Philox(seed))
    if antithetic:
        half = (count + 1) // 2
        g = rng.standard_normal((half, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return np.vstack([g, -g])[:count]
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def random_rotation(n, seed=0):
    """Haar-ish random rotation matrix from the QR of a Gaussian matrix."""
    rng = np.random.Generator(np.random.Philox(seed))
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_ellipsoid(n, seed=0):
    """Seeded random ellipsoid: random orientation, semi-axes in [0.6, 1.8),
    center at a distance drawn from [0.15, 0.45) (bounded away from 0 so that
    odd moments have a healthy scale)."""
    rng = np.random.Generator(np.random.Philox(seed))
    axes = rng.uniform(0.6, 1.8, size=n)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.sign(np.diag(R))
    M = Q @ np.diag(1.0 / axes**2) @ Q.T
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    center = u * rng.uniform(0.15, 0.45)
    return Ellipsoid(center, 0.5 * (M + M.T))


def random_simplex(n, seed=0):
    """Seeded random full-dimensional simplex with n + 1 Gaussian vertices of
    standard deviation 0.8."""
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(64):
        V = rng.standard_normal((n + 1, n)) * 0.8
        if np.linalg.matrix_rank(V - V[0]) == n:
            return Polytope(V)
    raise RuntimeError("failed to draw a nondegenerate simplex")


_BODY_FIELDS = {
    "ellipsoid": {"type", "center", "shape"},
    "polytope": {"type", "vertices"},
    "paraboloid": {"type", "axes"},
    "hyperboloid": {"type", "axes", "c"},
    HYPERBOLOID_SHEET: {"type", "axes", "c"},
}


def body_from_dict(obj):
    """Build a body from its JSON dictionary form.

    Unknown or missing keys are rejected with the offending key named, so CLI
    error messages stay actionable.
    """
    if not isinstance(obj, dict):
        raise ValueError("body description must be a JSON object")
    kind = obj.get("type")
    if kind not in _BODY_FIELDS:
        raise ValueError(f"unknown body type {kind!r}; expected one of {sorted(_BODY_FIELDS)}")
    allowed = _BODY_FIELDS[kind]
    for key in obj:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} for body type {kind!r}")
    for key in allowed:
        if key not in obj:
            raise ValueError(f"missing key {key!r} for body type {kind!r}")
    if kind == "ellipsoid":
        return Ellipsoid(np.asarray(obj["center"], dtype=float), np.asarray(obj["shape"], dtype=float))
    if kind == "polytope":
        return Polytope(np.asarray(obj["vertices"], dtype=float))
    if kind == "paraboloid":
        return QuadricDomain(PARABOLOID, np.asarray(obj["axes"], dtype=float))
    return QuadricDomain(HYPERBOLOID_SHEET, np.asarray(obj["axes"], dtype=float), float(obj["c"]))


def body_to_dict(body):
    """Inverse of :func:`body_from_dict`."""
    if isinstance(body, Ellipsoid):
        return {"type": "ellipsoid", "center": body.center.tolist(), "shape": body.shape.tolist()}
    if isinstance(body, Polytope):
        return {"type": "polytope", "vertices": body.vertices.tolist()}
    if isinstance(body, QuadricDomain):
        if body.kind == PARABOLOID:
            return {"type": "paraboloid", "axes": body.axes.tolist()}
        return {"type": "hyperboloid", "axes": body.axes.tolist(), "c": body.c}
    raise TypeError(f"unsupported body {type(body).__name__}")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} is not valid JSON")


def load_body(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ValueError(f"malformed body JSON in {Path(path).name}: {exc}") from exc
    return body_from_dict(obj)


def save_body(body, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body_to_dict(body), fh, sort_keys=True, indent=2)
        fh.write("\n")
