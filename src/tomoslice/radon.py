"""Moments of section profiles and their polynomial range structure.

The k-th moment M_k(xi) = integral of A(xi, t) t^k dt equals the integral of
(x.xi)^k over the body, so as a function of the direction it must extend to a
homogeneous polynomial of degree k.  This module computes the moments by
quadrature and tests that polynomial structure by least squares over a
direction sample; the residual is the diagnostic quantity.

Moments of any order k >= 0 come out exact up to roundoff: by default each
rule gets the fewest nodes that integrate A(xi, t) t^k exactly, and all nodes
of one moment are evaluated in a single section_volume call.  The
verification pipeline only leans on k <= 2 (volume, center, quadratic form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .bodies import (
    Direction,
    Ellipsoid,
    InfiniteSupportError,
    Polytope,
    QuadricDomain,
    as_direction,
    sample_directions,
)
from .sections import section_volume

__all__ = [
    "MomentReport",
    "moment",
    "range_test",
    "homogeneous_exponents",
    "monomial_design_matrix",
]

_RESIDUAL_GUARD = 1e-300


def _quadrature_rule_ellipsoid(body, v, order):
    # The integrand carries a (1 - s^2)^{(n-1)/2} factor that kills plain
    # Gauss-Legendre accuracy in even dimensions, so use the Gauss-Jacobi rule
    # with the matching endpoint weight; polynomial moments then come out
    # exactly.  Weights are folded back so the caller can still see the rule
    # as "sum w_i * A(t_i) * t_i^k".
    n = body.n
    alpha = (n - 1) / 2.0
    s, w = roots_jacobi(order, alpha, alpha)
    hbar = body.centered_support(v)
    t_mid = float(body.center @ v)
    nodes = t_mid + hbar * s
    weights = w * hbar / (1.0 - s**2) ** alpha
    return nodes, weights


def _polytope_breakpoints(body, v):
    tau = np.sort(body.vertices @ v)
    keep = [tau[0]]
    scale = max(tau[-1] - tau[0], 1.0)
    for t in tau[1:]:
        if t - keep[-1] > 1e-12 * scale:
            keep.append(t)
    return np.asarray(keep)


def _quadrature_rule_polytope(body, v, order):
    # A(xi, .) is piecewise polynomial with kinks where the plane crosses a
    # vertex; Gauss-Legendre applied piecewise between those breakpoints is
    # then exact up to roundoff.
    s, w = roots_legendre(order)
    brk = _polytope_breakpoints(body, v)
    mid = 0.5 * (brk[:-1] + brk[1:])[:, None]
    half = 0.5 * (brk[1:] - brk[:-1])[:, None]
    return (mid + half * s).ravel(), (half * w).ravel()


def _exact_quad_order(body, k):
    """Fewest Gauss nodes (per piece for a polytope) that integrate
    A(xi, t) t^k exactly.

    On each polytope piece the integrand is a polynomial of degree n - 1 + k,
    so Gauss-Legendre needs ceil((n + k) / 2) nodes.  For an ellipsoid the
    Gauss-Jacobi weight absorbs A's (1 - s^2)^{(n-1)/2} factor and leaves t^k,
    which needs ceil((k + 1) / 2) nodes.
    """
    if isinstance(body, Polytope):
        return (body.n + k + 1) // 2
    return k // 2 + 1


def moment(target, xi, k, quad_order=None):
    """k-th t-moment of the section profile along xi.

    ``target`` is a bounded body; its exact section engine is integrated with
    a rule adapted to the body family.

    ``quad_order=None`` picks the exact order for the body: ceil((n + k) / 2)
    Gauss-Legendre nodes per polytope piece, ceil((k + 1) / 2) Gauss-Jacobi
    nodes for an ellipsoid.  An explicit positive integer overrides it.
    """
    if k != int(k) or k < 0:
        raise ValueError("moment order must be a non-negative integer")
    k = int(k)
    if quad_order is not None and (quad_order != int(quad_order) or quad_order < 1):
        raise ValueError("quad_order must be a positive integer")
    d = as_direction(xi)
    if d.n != target.n:
        raise ValueError("direction dimension does not match the body")
    v = d.components
    if isinstance(target, Ellipsoid):
        rule = _quadrature_rule_ellipsoid
    elif isinstance(target, Polytope):
        rule = _quadrature_rule_polytope
    elif isinstance(target, QuadricDomain):
        raise InfiniteSupportError("moments of an unbounded body diverge")
    else:
        raise TypeError(f"no moment rule for {type(target).__name__}")
    if quad_order is None:
        quad_order = _exact_quad_order(target, k)
    nodes, weights = rule(target, v, quad_order)
    values = section_volume(target, d, nodes)
    return float(np.sum(weights * values * nodes**k))


def homogeneous_exponents(n, k):
    """Exponent multi-indices of the degree-k monomials in n variables,
    graded-lexicographic (within fixed degree: lexicographic, x_1 first)."""
    out = []
    for combo in combinations_with_replacement(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def monomial_design_matrix(directions, exponents):
    directions = np.asarray(directions, dtype=float)
    cols = [np.prod(directions**np.asarray(e), axis=1) for e in exponents]
    return np.column_stack(cols) if cols else np.empty((directions.shape[0], 0))


@dataclass(eq=False)
class MomentReport:
    """Outcome of a polynomial-range test at one moment order.

    fit_coefficients are indexed by ``exponents`` (graded-lex monomial basis).
    relative_residual divides by max(||moments||, 1e-300); absolute_residual
    is reported alongside because for centered bodies at odd k the moment
    vector itself vanishes and a ratio of roundoff terms means nothing.
    """

    k: int
    directions: np.ndarray
    moments: np.ndarray
    exponents: list
    fit_coefficients: np.ndarray
    relative_residual: float
    absolute_residual: float
    seed: int
    quad_order: int  # the order actually used

    def to_dict(self):
        return {
            "k": self.k,
            "directions": self.directions.tolist(),
            "moments": self.moments.tolist(),
            "exponents": [list(e) for e in self.exponents],
            "fit_coefficients": self.fit_coefficients.tolist(),
            "relative_residual": self.relative_residual,
            "absolute_residual": self.absolute_residual,
            "seed": self.seed,
            "quad_order": self.quad_order,
        }

    def to_csv(self):
        n = self.directions.shape[1]
        header = ",".join([f"xi_{i + 1}" for i in range(n)] + [f"M_{self.k}"])
        lines = [header]
        for d, m in zip(self.directions, self.moments):
            lines.append(",".join(repr(float(x)) for x in d) + f",{float(m)!r}")
        return "\n".join(lines) + "\n"


def range_test(body, k, num_directions, seed=0, quad_order=None):
    """Fit M_k over a direction sample by a homogeneous degree-k polynomial.

    Directions come from the Fibonacci lattice for n = 3 and from a seeded
    uniform sample otherwise.  Requires at least twice as many directions as
    degree-k monomials; raises if the design matrix is rank deficient.
    ``quad_order=None`` uses the exact order of :func:`moment`; the report
    records the order actually used.
    """
    n = body.n
    exponents = homogeneous_exponents(n, k)
    if num_directions < 2 * len(exponents):
        raise ValueError(
            f"need at least {2 * len(exponents)} directions for degree {k} in dimension {n}"
        )
    dirs = sample_directions(n, num_directions, seed=seed)
    moments = np.array([moment(body, Direction(d), k, quad_order=quad_order) for d in dirs])
    design = monomial_design_matrix(dirs, exponents)
    if np.linalg.matrix_rank(design) < len(exponents):
        raise ValueError("direction set is rank deficient for this monomial basis")
    coef, *_ = np.linalg.lstsq(design, moments, rcond=None)
    resid = design @ coef - moments
    absolute = float(np.linalg.norm(resid))
    scale = float(np.linalg.norm(moments))
    if scale < 1e-12 * math.sqrt(num_directions):
        # all moments vanish at double precision (centered body, odd k);
        # the zero polynomial fits and a ratio would be meaningless
        relative = None
    else:
        relative = absolute / max(scale, _RESIDUAL_GUARD)
    return MomentReport(
        k=k,
        directions=dirs,
        moments=moments,
        exponents=exponents,
        fit_coefficients=coef,
        relative_residual=relative,
        absolute_residual=absolute,
        seed=seed,
        quad_order=_exact_quad_order(body, k) if quad_order is None else quad_order,
    )
