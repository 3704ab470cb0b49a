"""Moments of section profiles and their polynomial range structure.

The k-th moment M_k(xi) = integral of A(xi, t) t^k dt equals the integral of
(x.xi)^k over the body, so as a function of the direction it must extend to a
homogeneous polynomial of degree k.  This module computes the moments by
quadrature and tests that polynomial structure by least squares over a
direction sample; the residual is the diagnostic quantity.

Moments of any order k >= 0 come out exact up to roundoff: each rule gets
the fewest nodes that integrate A(xi, t) t^k exactly.  The Gauss-Legendre
and Gauss-Jacobi rules are built here in numpy (``_gauss_rule``, Golub-Welsch
on the Gegenbauer Jacobi matrix), so importing the package loads no scipy
module.  ``moment``
takes one direction or an (m, n) stack of unit rows, like the section
engines, and evaluates the nodes of every row in a single section_volume
call; a range test is therefore one engine call over its whole direction
sample.  The verification pipeline only leans on k <= 2 (volume, center,
quadratic form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .bodies import (
    Ellipsoid,
    InfiniteSupportError,
    Polytope,
    QuadricDomain,
    _direction_rows,
    _norm,
    _require_int,
    sample_directions,
)
from .algfit import _least_squares
from .sections import section_volume

__all__ = [
    "MomentReport",
    "moment",
    "range_test",
    "homogeneous_exponents",
    "monomial_design_matrix",
]

_RESIDUAL_GUARD = 1e-300


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


def _gauss_rule(order, alpha):
    """Nodes and weights of the ``order``-point Gauss rule for the weight
    (1 - s^2)^alpha on [-1, 1]; alpha = 0 is Gauss-Legendre.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the Gegenbauer polynomials, and each weight is mu_0
    times the squared first component of its unit eigenvector, with mu_0 the
    integral of the weight.  ``eigh`` reads only the lower triangle.
    """
    k = np.arange(1, order)
    off = np.sqrt(k * (k + 2.0 * alpha) / (4.0 * (k + alpha) ** 2 - 1.0))
    s, V = np.linalg.eigh(np.diag(off, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)
    return s, mu0 * V[0] ** 2


def moment(target, xi, k):
    """k-th t-moment of the section profile along xi, or along each row of a
    direction stack.

    ``target`` is a bounded body; its exact section engine is integrated with
    a rule adapted to the body family.  xi is one direction, which gives a
    float, or an (m, n) stack of unit rows, which gives an array of m values.
    One direction is the one-row stack, so row i of a stack equals the
    one-direction call along xi_i bit for bit.  The nodes of every row go to
    a single ``section_volume`` call:

    * ellipsoid: one Gauss-Jacobi rule on the chord [c.xi - hbar, c.xi + hbar]
      of each row.  The integrand carries a (1 - s^2)^{(n-1)/2} factor that
      kills plain Gauss-Legendre accuracy in even dimensions, so the rule's
      endpoint weight matches it; the weights are folded back so the moment
      is still sum w_i A(t_i) t_i^k.
    * polytope: A(xi, .) is piecewise polynomial with kinks at the vertex
      heights, so one Gauss-Legendre rule is applied to each of the V - 1
      gaps between a row's sorted vertex heights.  A gap between tied
      heights has zero width and adds nothing.

    Each rule has the exact order for the body (``_exact_quad_order``):
    ceil((n + k) / 2) Gauss-Legendre nodes per polytope piece,
    ceil((k + 1) / 2) Gauss-Jacobi nodes for an ellipsoid.

    The stack is checked here and once more by ``section_volume``: the
    benchmark counts the offsets of the ``section_volume`` calls made under
    ``moment`` (``radon.moment.evals_per_call``), so the call stays until
    that count moves to the engine cores.
    """
    _require_int("k", k, 0)
    if isinstance(target, QuadricDomain):
        raise InfiniteSupportError("moments of an unbounded body diverge")
    if not isinstance(target, (Ellipsoid, Polytope)):
        raise TypeError(f"no moment rule for {type(target).__name__}")
    D, stacked = _direction_rows(xi, target.n)
    quad_order = _exact_quad_order(target, k)
    if isinstance(target, Ellipsoid):
        alpha = (target.n - 1) / 2.0
        s, w = _gauss_rule(quad_order, alpha)
        mid, hbar = target._chord(D)
        hbar = hbar[:, None]
        nodes = mid[:, None] + hbar * s
        weights = w * hbar / (1.0 - s**2) ** alpha
    else:
        s, w = _gauss_rule(quad_order, 0.0)
        tau = np.sort(target._heights(D), axis=1)[..., None]
        half = 0.5 * (tau[:, 1:] - tau[:, :-1])
        nodes = (0.5 * (tau[:, :-1] + tau[:, 1:]) + half * s).reshape(len(D), -1)
        weights = (half * w).reshape(len(D), -1)
    values = section_volume(target, D, nodes)
    out = np.sum(weights * values * nodes**k, axis=1)
    return out if stacked else float(out[0])


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
    quad_order: int  # the exact order moment() used


def range_test(body, k, num_directions, seed=0):
    """Fit M_k over a direction sample by a homogeneous degree-k polynomial.

    The directions come from the Fibonacci lattice for n = 3 and from a
    seeded uniform sample otherwise; the lattice ignores ``seed``, so a 3-d
    body gets the same fit at every seed apart from the echoed ``seed``.
    Requires at least twice as many directions as degree-k monomials.  One
    SVD (``algfit._least_squares``) gives the design's rank, which must be
    full, and the fit.  The moments come from one section engine call
    (:func:`moment` on the direction stack).  The report records the exact
    quadrature order it used.
    """
    _require_int("k", k, 0)
    n = body.n
    exponents = homogeneous_exponents(n, k)
    _require_int("num_directions", num_directions, 2 * len(exponents))
    dirs = sample_directions(n, num_directions, seed=seed)
    moments = moment(body, dirs, k)
    fit = _least_squares(monomial_design_matrix(dirs, exponents))
    if fit.rank < len(exponents):
        raise ValueError("direction set is rank deficient for this monomial basis")
    coef = fit.pinv @ moments
    resid = fit.design @ coef - moments
    absolute = _norm(resid)
    scale = _norm(moments)
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
        quad_order=_exact_quad_order(body, k),
    )
