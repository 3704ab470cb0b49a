"""Constructive ellipsoid detection from support function data.

The pipeline mirrors how the moment conditions pin a body down: the odd part
of the support function must be linear (that fixes a center), and after
recentering the square of the support function must be a quadratic form in
the direction (that fixes the shape matrix).  Both steps are plain least
squares over a direction sample, and a body is accepted as an ellipsoid
exactly when both residuals are small and the recovered form is positive
definite.  An accepted report reconstructs the body; a separate consistency
check replays the closed-form sections of the reconstruction against the
input body's own section engine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .bodies import (
    Ellipsoid,
    InfiniteSupportError,
    QuadricDomain,
    _chord_rows,
    _norm,
    _require_int,
    _require_tol,
    sample_directions,
)
from .algfit import _least_squares, normalized_constant_from_value
from .radon import homogeneous_exponents, monomial_design_matrix
from .sections import _section_rows

__all__ = [
    "EllipsoidReport",
    "is_ellipsoid",
    "section_consistency_check",
    "SectionConstantError",
    "DEFAULT_TOL_EXACT",
]

_RESIDUAL_GUARD = 1e-300
DEFAULT_TOL_EXACT = 1e-8
DEFAULT_NUM_DIRECTIONS = 200
# the replay's bound on the relative spread of the normalized section constant
_CONSTANT_TOL = 1e-8


class SectionConstantError(ValueError):
    """The per-direction section coefficient failed to be direction free."""


# the most (n, count, seed) keys each sample cache below keeps
_CACHED_KEYS = 16


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=_CACHED_KEYS)
def _direction_set(n, num_directions, seed):
    """The support fits on the direction sample
    ``sample_directions(n, num_directions, seed, antithetic=True)``, built
    once per key and kept for the last 16 keys (``_support_fits``)."""
    return _support_fits(sample_directions(n, num_directions, seed=seed, antithetic=True))


def _support_fits(dirs):
    """The factored least-squares designs of both support fits on the
    direction set dirs: the center fit's (dirs itself) and the quadratic
    form's (the degree-2 monomials xi_i xi_j, i <= j, in graded-lex order),
    as a pair of read-only ``_least_squares``."""
    quadratic = monomial_design_matrix(dirs, homogeneous_exponents(dirs.shape[1], 2))
    return _least_squares(dirs), _least_squares(quadratic)


@functools.lru_cache(maxsize=_CACHED_KEYS)
def _probe_set(n, num_probes, seed):
    """The replay's probe directions and offset fractions, (dirs, fracs), as
    read-only arrays built once per key and kept for the last 16 keys.

    The draws keep their order (direction, then offset fraction), so the
    probes are those of a loop that looks up each chord before drawing t."""
    rng = np.random.Generator(np.random.Philox(seed))
    G = np.empty((num_probes, n))
    fracs = np.empty(num_probes)
    for i in range(num_probes):
        G[i] = rng.standard_normal(n)
        fracs[i] = rng.random()
    # rounds like g / np.linalg.norm(g) on every row; norm(G, axis=1) does not
    return _read_only(G / np.sqrt(np.vecdot(G, G))[:, None], fracs)


def _require_bounded(body):
    # an unbounded body's support is infinite along some directions, which
    # no least-squares fit can take
    if isinstance(body, QuadricDomain):
        raise InfiniteSupportError(f"the {body.kind} is unbounded: its support is infinite, so no ellipsoid fits it")


def _fit_center(center, odd):
    """The least-squares vector e with h(xi) - h(-xi) ~ e.xi, from the center
    fit of a direction set (``_support_fits``) and its odd support data
    h(xi) - h(-xi) = hi + lo.

    For an ellipsoid centered at c this difference is exactly 2*c.xi, so e
    recovers twice the center.  Returns (e, relative_residual); the residual
    is the size of the non-linear part of the odd support data.
    """
    dirs = center.design
    if center.rank < dirs.shape[1]:
        raise ValueError("direction set is rank deficient")
    e = center.pinv @ odd
    rel = _norm(dirs @ e - odd) / max(_norm(odd), _RESIDUAL_GUARD)
    return e, rel


def _fit_shape(shape, H, n):
    """The quadratic form xi^T S xi in R^n that fits H(xi)^2 best, from the
    shape fit of a direction set (``_support_fits``) and its recentered
    support data H(xi) = h(xi) - e.xi / 2.

    Returns (S, relative_residual).  For an ellipsoid with shape matrix M the
    recentered support satisfies H^2 = xi^T M^-1 xi exactly, so S estimates
    M^-1 and the residual measures the distance from quadratic support data.
    """
    design = shape.design
    if shape.rank < design.shape[1]:
        raise ValueError("direction set is rank deficient for the quadratic basis")
    y = H**2
    coef = shape.pinv @ y
    # graded-lex columns: xi_i xi_j for i <= j, row-major; an off-diagonal
    # coefficient is S_ij + S_ji, halved exactly
    S = np.zeros((n, n))
    for (i, j), c in zip(combinations_with_replacement(range(n), 2), coef):
        S[i, j] = S[j, i] = c if i == j else 0.5 * c
    rel = _norm(design @ coef - y) / max(_norm(y), _RESIDUAL_GUARD)
    return S, rel


@dataclass(eq=False)
class EllipsoidReport:
    """Outcome of the two-stage support-function test.

    On acceptance, recovered_center = e/2 and recovered_shape = S^-1 define
    the ellipsoid {x : (x - center)^T shape (x - center) <= 1} whose support
    function reproduces the input data to within the tolerance.
    """

    e: np.ndarray
    S: np.ndarray
    linear_residual: float
    quadratic_residual: float
    recovered_center: np.ndarray | None
    recovered_shape: np.ndarray | None
    verdict: str  # "accept" | "reject"
    tol: float
    num_directions: int
    seed: int

    @property
    def accepted(self):
        return self.verdict == "accept"

    def recovered_body(self):
        if not self.accepted:
            raise ValueError("no body to reconstruct: the verdict was reject")
        return Ellipsoid(self.recovered_center, self.recovered_shape)


def is_ellipsoid(body, tol=DEFAULT_TOL_EXACT, num_directions=DEFAULT_NUM_DIRECTIONS, seed=0):
    """Run both support-function stages and bundle the verdict.

    Accept requires both relative residuals below ``tol`` and the fitted form
    S positive definite: its smallest eigenvalue above eps * max(M, N) times
    its largest, the rank cutoff of the fit's own design (M directions,
    N = n(n+1)/2 unknowns), so a rank-one S whose small eigenvalue is only
    roundoff is not definite.  The direction set needs at least n(n+1) + 2
    directions, one antithetic pair more than twice the unknowns of S.  The
    default tolerance assumes exact support evaluations; data from the Monte
    Carlo oracle calls for the documented loosening to about 1e-4.

    For n = 3 the direction set is the Fibonacci lattice of
    ``sample_directions``, which ignores ``seed`` and is not antithetic, so
    a 3-d body gets the same report at every seed apart from the echoed
    ``seed``.
    """
    n = body.n
    # n(n+1) + 2 directions also cover the 2n of the linear stage
    _require_int("num_directions", num_directions, n * (n + 1) + 2)
    _require_tol("tol", tol)
    _require_int("seed", seed, 0)
    _require_bounded(body)
    # both stages share one direction set and read each support value once:
    # h(xi) - h(-xi) = hi + lo exactly, as negation is exact.  The set is
    # library-made unit rows, so its chords skip chord_interval's check
    center, shape = _direction_set(n, num_directions, seed)
    dirs = center.design
    lo, hi = _chord_rows(body, dirs)
    e, lin_res = _fit_center(center, hi + lo)
    S, quad_res = _fit_shape(shape, hi - 0.5 * dirs @ e, n)
    eigvals = np.linalg.eigvalsh(S)
    # passing implies eigvals[0] > 0: a negative eigvals[-1] puts the cutoff
    # above every eigenvalue
    definite = bool(eigvals[0] > np.finfo(float).eps * max(shape.design.shape) * eigvals[-1])
    ok = lin_res < tol and quad_res < tol and definite
    # recovered geometry only accompanies an accept; on reject the raw e and S
    # stay available as diagnostics but name no ellipsoid
    shape = None
    if ok:
        inv = np.linalg.inv(S)
        shape = 0.5 * (inv + inv.T)
    return EllipsoidReport(
        e=e,
        S=S,
        linear_residual=lin_res,
        quadratic_residual=quad_res,
        recovered_center=0.5 * e if ok else None,
        recovered_shape=shape,
        verdict="accept" if ok else "reject",
        tol=tol,
        num_directions=num_directions,
        seed=seed,
    )


def section_consistency_check(body, report, num_probes=50, seed=0):
    """Replay the recovered ellipsoid's closed-form sections against the input.

    Probes random (direction, offset) pairs with offsets drawn from the middle
    80 percent of the input body's chord, and returns the maximum relative
    error between the reconstruction's section volume and the input engine's.
    Along the way the per-direction normalized section coefficient is
    extracted from the input body; if its relative spread across directions
    exceeds 1e-8 the input is not section-wise ellipsoidal and a
    SectionConstantError is raised.

    The probes go to the section engines as one direction stack: one engine
    call on the input body, at each probe's offset and chord midpoint, and
    one on the recovered ellipsoid.  The probes depend only on
    (n, num_probes, seed) and come from a cache (``_probe_set``); they are
    library-made unit rows, so neither engine call checks them again.
    """
    _require_int("num_probes", num_probes, 1)
    _require_int("seed", seed, 0)
    if not report.accepted:
        raise ValueError("consistency check needs an accepted report")
    recovered = report.recovered_body()
    n = body.n
    dirs, fracs = _probe_set(n, num_probes, seed)
    # library-made unit rows: their chords and sections skip the direction check
    t_lo, t_hi = _chord_rows(body, dirs)
    width = t_hi - t_lo
    lo, hi = t_lo + 0.1 * width, t_hi - 0.1 * width
    # the map numpy's uniform(lo, hi) applies to one random() draw
    ts = lo + (hi - lo) * fracs
    mids = 0.5 * (t_lo + t_hi)
    a_in, a_mid = _section_rows(body, dirs, np.column_stack([ts, mids])).T
    a_rec = _section_rows(recovered, dirs, ts[:, None])[:, 0]
    errs = np.abs(a_rec - a_in) / np.maximum(np.abs(a_in), _RESIDUAL_GUARD)
    constants = normalized_constant_from_value(a_mid, mids, t_lo, t_hi, n)
    spread = float(constants.max() - constants.min()) / max(abs(float(constants.mean())), _RESIDUAL_GUARD)
    if spread > _CONSTANT_TOL:
        raise SectionConstantError(
            f"normalized section coefficient varies across directions (spread {spread:.3e})"
        )
    return float(errs.max())
