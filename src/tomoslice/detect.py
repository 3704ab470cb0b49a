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

import numbers
from dataclasses import dataclass

import numpy as np

from .bodies import Ellipsoid, chord_interval, sample_directions
from .algfit import normalized_constant_from_value
from .sections import section_volume

__all__ = [
    "EllipsoidReport",
    "estimate_e",
    "quadratic_fit",
    "is_ellipsoid",
    "section_consistency_check",
    "SectionConstantError",
    "DEFAULT_TOL_EXACT",
    "DEFAULT_TOL_MC",
]

_RESIDUAL_GUARD = 1e-300
DEFAULT_TOL_EXACT = 1e-8
# documented loosening for profiles that come from the Monte Carlo oracle
DEFAULT_TOL_MC = 1e-4
DEFAULT_NUM_DIRECTIONS = 200


class SectionConstantError(ValueError):
    """The per-direction section coefficient failed to be direction free."""


def _direction_set(n, num_directions, seed):
    return sample_directions(n, num_directions, seed=seed, antithetic=True)


def _require_directions(num_directions, needed, n):
    if num_directions < needed:
        raise ValueError(f"need at least {needed} directions in dimension {n}")


def _fit_center(body, dirs):
    """estimate_e on a given direction set."""
    odd = body.support(dirs) - body.support(-dirs)
    # lstsq's rank uses matrix_rank's cutoff, eps * max(M, N) * s_max
    e, _, rank, _ = np.linalg.lstsq(dirs, odd, rcond=None)
    if rank < body.n:
        raise ValueError("direction set is rank deficient")
    resid = float(np.linalg.norm(dirs @ e - odd))
    rel = resid / max(float(np.linalg.norm(odd)), _RESIDUAL_GUARD)
    return e, rel


def _fit_shape(body, e, dirs):
    """quadratic_fit on a given direction set."""
    n = body.n
    H = body.support(dirs) - 0.5 * dirs @ e
    y = H**2
    cols = []
    index = []
    for i in range(n):
        cols.append(dirs[:, i] ** 2)
        index.append((i, i))
    for i in range(n):
        for j in range(i + 1, n):
            cols.append(2.0 * dirs[:, i] * dirs[:, j])
            index.append((i, j))
    design = np.column_stack(cols)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < len(index):
        raise ValueError("direction set is rank deficient for the quadratic basis")
    S = np.zeros((n, n))
    for (i, j), val in zip(index, coef):
        S[i, j] = S[j, i] = val
    resid = float(np.linalg.norm(design @ coef - y))
    rel = resid / max(float(np.linalg.norm(y)), _RESIDUAL_GUARD)
    return S, rel


def estimate_e(body, num_directions=DEFAULT_NUM_DIRECTIONS, seed=0):
    """Least-squares vector e with h(xi) - h(-xi) ~ e.xi over a direction set.

    For an ellipsoid centered at c this difference is exactly 2*c.xi, so e
    recovers twice the center.  Returns (e, relative_residual); the residual
    is the size of the non-linear part of the odd support data.
    """
    n = body.n
    _require_directions(num_directions, 2 * n, n)
    return _fit_center(body, _direction_set(n, num_directions, seed))


def quadratic_fit(body, e, num_directions=DEFAULT_NUM_DIRECTIONS, seed=0):
    """Fit H(xi)^2 by a quadratic form xi^T S xi, H(xi) = h(xi) - e.xi / 2.

    Returns (S, relative_residual).  For an ellipsoid with shape matrix M the
    recentered support satisfies H^2 = xi^T M^-1 xi exactly, so S estimates
    M^-1 and the residual measures the distance from quadratic support data.
    """
    n = body.n
    _require_directions(num_directions, n * (n + 1), n)
    e = np.asarray(e, dtype=float)
    return _fit_shape(body, e, _direction_set(n, num_directions, seed))


@dataclass(eq=False)
class EllipsoidReport:
    """Outcome of the two-stage support-function test.

    On acceptance, recovered_center = e/2 and recovered_shape = S^-1 define
    the ellipsoid {x : (x - center)^T shape (x - center) <= 1} whose support
    function reproduces the input data to within the quadratic tolerance.
    """

    e: np.ndarray
    S: np.ndarray
    linear_residual: float
    quadratic_residual: float
    recovered_center: np.ndarray | None
    recovered_shape: np.ndarray | None
    verdict: str  # "accept" | "reject"
    tol_linear: float
    tol_quadratic: float
    num_directions: int
    seed: int

    @property
    def accepted(self):
        return self.verdict == "accept"

    def recovered_body(self):
        if not self.accepted:
            raise ValueError("no body to reconstruct: the verdict was reject")
        return Ellipsoid(self.recovered_center, self.recovered_shape)

    def to_dict(self):
        return {
            "e": self.e.tolist(),
            "S": self.S.tolist(),
            "linear_residual": self.linear_residual,
            "quadratic_residual": self.quadratic_residual,
            "recovered_center": None
            if self.recovered_center is None
            else self.recovered_center.tolist(),
            "recovered_shape": None if self.recovered_shape is None else self.recovered_shape.tolist(),
            "verdict": self.verdict,
            "tol_linear": self.tol_linear,
            "tol_quadratic": self.tol_quadratic,
            "num_directions": self.num_directions,
            "seed": self.seed,
        }


def is_ellipsoid(
    body,
    tol_linear=DEFAULT_TOL_EXACT,
    tol_quadratic=DEFAULT_TOL_EXACT,
    num_directions=DEFAULT_NUM_DIRECTIONS,
    seed=0,
):
    """Run both support-function stages and bundle the verdict.

    Accept requires: linear residual below tol_linear, quadratic residual
    below tol_quadratic, and the fitted form S positive definite.  The default
    tolerances assume exact support evaluations; data from the Monte Carlo
    oracle calls for the documented loosening to about 1e-4.
    """
    n = body.n
    _require_directions(num_directions, 2 * n, n)
    _require_directions(num_directions, n * (n + 1), n)
    # both stages share one direction set
    dirs = _direction_set(n, num_directions, seed)
    e, lin_res = _fit_center(body, dirs)
    S, quad_res = _fit_shape(body, e, dirs)
    eigvals = np.linalg.eigvalsh(S)
    definite = bool(eigvals.min() > 0.0)
    ok = lin_res < tol_linear and quad_res < tol_quadratic and definite
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
        tol_linear=tol_linear,
        tol_quadratic=tol_quadratic,
        num_directions=num_directions,
        seed=seed,
    )


def section_consistency_check(body, report, num_probes=50, seed=0, constant_tol=1e-8):
    """Replay the recovered ellipsoid's closed-form sections against the input.

    Probes random (direction, offset) pairs with offsets drawn from the middle
    80 percent of the input body's chord, and returns the maximum relative
    error between the reconstruction's section volume and the input engine's.
    Along the way the per-direction normalized section coefficient is
    extracted from the input body; if it fails to be direction independent
    within ``constant_tol`` the input is not section-wise ellipsoidal and a
    SectionConstantError is raised.

    The probes go to the section engines as one direction stack: one
    ``section_volume`` call on the input body, at each probe's offset and
    chord midpoint, and one on the recovered ellipsoid.
    """
    if isinstance(num_probes, bool) or not isinstance(num_probes, numbers.Integral) or num_probes < 1:
        raise ValueError(f"num_probes must be a positive integer, got {num_probes!r}")
    if not constant_tol >= 0.0:
        raise ValueError(f"constant_tol must be a non-negative number, got {constant_tol!r}")
    if not report.accepted:
        raise ValueError("consistency check needs an accepted report")
    recovered = report.recovered_body()
    n = body.n
    rng = np.random.Generator(np.random.Philox(seed))
    # the draws keep their order (direction, then offset fraction), so the
    # probes are those of a loop that looks up each chord before drawing t
    G = np.empty((num_probes, n))
    fracs = np.empty(num_probes)
    for i in range(num_probes):
        G[i] = rng.standard_normal(n)
        fracs[i] = rng.random()
    # rounds like g / np.linalg.norm(g) on every row; norm(G, axis=1) does not
    dirs = G / np.sqrt(np.vecdot(G, G))[:, None]
    t_lo, t_hi = chord_interval(body, dirs)
    width = t_hi - t_lo
    lo, hi = t_lo + 0.1 * width, t_hi - 0.1 * width
    # the map numpy's uniform(lo, hi) applies to one random() draw
    ts = lo + (hi - lo) * fracs
    mids = 0.5 * (t_lo + t_hi)
    a_in, a_mid = section_volume(body, dirs, np.column_stack([ts, mids])).T
    a_rec = section_volume(recovered, dirs, ts)
    errs = np.abs(a_rec - a_in) / np.maximum(np.abs(a_in), _RESIDUAL_GUARD)
    constants = normalized_constant_from_value(a_mid, mids, t_lo, t_hi, n)
    spread = float(constants.max() - constants.min()) / max(abs(float(constants.mean())), _RESIDUAL_GUARD)
    if spread > constant_tol:
        raise SectionConstantError(
            f"normalized section coefficient varies across directions (spread {spread:.3e})"
        )
    return float(errs.max())
