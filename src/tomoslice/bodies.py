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
array of m values.  There is one code path: the formulas act on the last axis.
Membership works the same way: ``contains(x)`` is the one-row case of
``contains_points(X)``, so a point gets the same verdict alone or in a batch.
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
    "as_direction",
    "support",
    "contains",
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
    """Unit vector used as a hyperplane normal.

    The constructor insists on unit Euclidean norm (within 1e-12); use
    :meth:`from_vector` to normalize an arbitrary nonzero vector.
    """

    components: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.components, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a direction must be a 1-d vector of dimension >= 2")
        if not np.all(np.isfinite(v)):
            raise ValueError("direction components must be finite")
        if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
            raise ValueError("direction must have unit Euclidean norm")
        object.__setattr__(self, "components", v.copy())
        self.components.setflags(write=False)

    @property
    def n(self):
        return self.components.size

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(v / norm)

    def __neg__(self):
        return Direction(-self.components)

    def __repr__(self):
        return f"Direction({self.components.tolist()!r})"


def as_direction(xi):
    """Coerce a Direction or unit array-like to Direction."""
    if isinstance(xi, Direction):
        return xi
    return Direction(np.asarray(xi, dtype=float))


def _direction_rows(xi, n):
    """One direction or a direction stack as an (m, n) array of unit rows, and
    whether xi was a stack.  One direction (a Direction or a 1-d unit
    array-like) is the one-row stack; a 2-d array is a stack, whose rows must
    be finite with unit Euclidean norm (within 1e-12), as for a Direction."""
    stacked = not isinstance(xi, Direction) and np.ndim(xi) == 2
    D = np.asarray(xi, dtype=float) if stacked else as_direction(xi).components[None]
    if D.shape[1] != n:
        raise ValueError(f"directions have {D.shape[1]} components, the body has dimension {n}")
    # a NaN row fails the norm test too, but is reported as not finite
    if stacked and not (np.abs(np.sqrt(np.vecdot(D, D)) - 1.0) <= _UNIT_TOL).all():
        rule = "have unit Euclidean norm" if np.isfinite(D).all() else "be finite"
        raise ValueError(f"direction stack rows must {rule}")
    return D, stacked


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
        try:
            chol = np.linalg.cholesky(0.5 * (M + M.T))
        except np.linalg.LinAlgError as exc:
            raise ValueError("shape matrix must be positive definite") from exc
        inv = np.linalg.inv(0.5 * (M + M.T))
        object.__setattr__(self, "center", c.copy())
        object.__setattr__(self, "shape", 0.5 * (M + M.T))
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
        # ndarray.dot rather than @: for one vector it skips matmul's
        # generalized-ufunc overhead, which dominates at this size
        v = np.asarray(v, dtype=float)
        w = v.dot(self._shape_inv_factor)
        h = v.dot(self.center) + np.sqrt(np.vecdot(w, w))
        return float(h) if v.ndim == 1 else h

    def centered_support(self, v):
        """Support of the translate centered at the origin, sqrt(v^T M^-1 v),
        for one vector (a float) or each row of an (m, n) array."""
        w = np.asarray(v, dtype=float).dot(self._shape_inv_factor)
        h = np.sqrt(np.vecdot(w, w))
        return float(h) if w.ndim == 1 else h

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
        R = np.asarray(R, dtype=float)
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
        h = np.asarray(v, dtype=float).dot(self.vertices.T).max(axis=-1)
        return float(h) if h.ndim == 0 else h

    def argmax_support(self, v):
        v = np.asarray(v, dtype=float)
        return self.vertices[int(np.argmax(self.vertices @ v))]

    def contains(self, x):
        return bool(self.contains_points(np.asarray(x, dtype=float)[None])[0])

    def contains_points(self, X):
        """Membership of each row of an (m, n) array."""
        X = np.asarray(X, dtype=float)
        # one matrix-vector product N @ x per row, as for a single point;
        # X @ N.T would round some facet heights differently
        heights = np.matmul(self._facet_normals, X[:, :, None])[..., 0]
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
        R = np.asarray(R, dtype=float)
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
        vn = v[..., -1]
        rho2 = (v[..., :-1] ** 2).dot(self.axes**2)
        if self.kind == PARABOLOID:
            unbounded = vn >= 0.0
            # a stand-in divisor on unbounded rows, whose value becomes inf below
            h = rho2 / (-4.0 * np.where(unbounded, -1.0, vn))
        else:
            gap = self.c**2 * vn**2 - rho2
            unbounded = (vn >= 0.0) | (gap < 0.0)
            h = -np.sqrt(np.maximum(gap, 0.0))
        h = np.where(unbounded, math.inf, h)
        return float(h) if v.ndim == 1 else h

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
    return body.support(as_direction(xi).components)


def contains(body, x):
    """Closed membership test; boundary points count as inside."""
    x = np.asarray(x, dtype=float)
    if x.shape != (body.n,):
        raise ValueError("point dimension does not match the body")
    return body.contains(x)


def chord_interval(body, xi):
    """Range (t_min, t_max) of hyperplane offsets t with K meeting {x.xi = t}.

    t_max = h_K(xi) and t_min = -h_K(-xi).  xi may also be an (m, n) stack of
    unit rows, which gives two arrays of m values, each row as ``support``
    evaluates it on the stack.  Raises InfiniteSupportError if the body is
    unbounded along any of the directions or their negatives.
    """
    D, stacked = _direction_rows(xi, body.n)
    hi = body.support(D)
    lo = -body.support(-D)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise InfiniteSupportError("chord interval undefined: support is infinite along this normal")
    return (lo, hi) if stacked else (float(lo[0]), float(hi[0]))


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def fibonacci_sphere(count):
    """Deterministic, well-spread set of ``count`` unit vectors on S^2."""
    if count < 1:
        raise ValueError("need at least one direction")
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    phi = i * _GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def sample_directions(n, count, seed=0, antithetic=False):
    """Direction set on S^{n-1}: Fibonacci lattice for n = 3, otherwise a
    seeded uniform sample (optionally as antithetic +/- pairs)."""
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


def random_ellipsoid(n, seed=0, axis_range=(0.6, 1.8), center_radius=(0.15, 0.45)):
    """Seeded random ellipsoid: random orientation, semi-axes in axis_range,
    center at a distance drawn from center_radius (bounded away from 0 so that
    odd moments have a healthy scale)."""
    rng = np.random.Generator(np.random.Philox(seed))
    axes = rng.uniform(*axis_range, size=n)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.sign(np.diag(R))
    M = Q @ np.diag(1.0 / axes**2) @ Q.T
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    center = u * rng.uniform(*center_radius)
    return Ellipsoid(center, 0.5 * (M + M.T))


def random_simplex(n, seed=0, spread=0.8):
    """Seeded random full-dimensional simplex with n + 1 Gaussian vertices."""
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(64):
        V = rng.standard_normal((n + 1, n)) * spread
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
