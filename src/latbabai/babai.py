"""Babai's nearest-plane approximation to the closest lattice point.

For an upper triangular generator the algorithm is plain back-substitution
with rounding; a general basis is first brought to that form by a change of
frame. The preimage of each output is an axis-aligned box in the
orthogonalized frame, which is what makes the error geometry tractable.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import LatticePoint, _cvp, _frame, _nearest_plane, checked_int64


@lru_cache(maxsize=None)
def _below_diagonal(n):
    # cached: building the mask costs about as much as a whole n = 3 decode
    mask = np.tri(n, n, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _check_upper(R):
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    if R.shape != (n, n) or (np.abs(R[_below_diagonal(n)]) > 1e-10 * max(1.0, np.abs(R).max())).any():
        raise ValueError("expected an upper triangular generator matrix")
    if (R.diagonal() <= 0).any():
        raise ValueError("upper triangular generator needs a positive diagonal")
    return R


def _as_targets(X, n):
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != n:
        raise ValueError(f"expected a target of length {n} or an (m, {n}) stack, got shape {X.shape}")
    return X


def nearest_plane(R, X):
    """Babai coefficients for an upper triangular generator with positive diagonal.

    b_m = [(x_m - sum_{l>m} b_l r_ml) / r_mm] for m = n..1, with [.] rounding
    halves up. X is one target (n,) or a stack (m, n) decoded row by row;
    the result has the same shape and dtype int64. A non-finite target raises
    ValueError, a coefficient outside int64 raises OverflowError.
    """
    R = _check_upper(R)
    X = _as_targets(X, R.shape[0])
    return checked_int64(_nearest_plane(R, X), X, "nearest_plane")


def nearest_plane_general(V, X):
    """Babai coefficients for an arbitrary full-rank basis (one target or a stack).

    R = cholesky(V^T V)^T is the upper triangular generator of the rotated
    lattice, V = Q R with Q orthogonal, so the target's coordinates in that
    frame are Q^T x = R^-T V^T x and the nearest-plane recursion finishes the job.
    R is factored once per basis and kept (core._frame).
    """
    V, frame = _frame(V)
    return _nearest_plane_general(V, frame.R, _as_targets(X, V.shape[0]))


def _nearest_plane_general(V, R, X):
    T = np.linalg.solve(R.T, (X @ V).T).T
    return checked_int64(_nearest_plane(R, T), T, "nearest_plane")


@dataclass(frozen=True)
class BabaiCell:
    """Axis-aligned box (in the orthogonalized frame) decoded to one coefficient vector."""

    center: np.ndarray
    half_widths: np.ndarray

    @property
    def volume(self):
        return float(np.prod(2.0 * self.half_widths))

    def contains(self, x, tol=1e-12):
        return bool(np.all(np.abs(np.asarray(x) - self.center) <= self.half_widths + tol))


def babai_cell(R, b):
    """Preimage of coefficients b under nearest_plane on the upper triangular R."""
    R = _check_upper(R)
    b = np.asarray(b, dtype=float)
    return BabaiCell(center=R @ b, half_widths=0.5 * np.diag(R).copy())


def is_babai_error(V, x):
    """True when nearest-plane lands strictly farther from x than the true closest point.

    The closest point is cvp_bruteforce's, exact for any basis. Distances are
    compared with 1e-12 slack, so ties on cell boundaries are not errors.
    """
    V, frame = _frame(V)
    x = np.asarray(x, dtype=float)
    approx = _nearest_plane_general(V, frame.R, x)
    exact = _cvp(V, frame, x)
    d_approx = np.linalg.norm(x - V @ approx)
    return bool(d_approx > np.linalg.norm(x - exact.point) + 1e-12)


def babai_point(V, x):
    """Embedded nearest-plane output as a LatticePoint."""
    b = nearest_plane_general(V, x)
    return LatticePoint(coeffs=b, point=np.asarray(V, dtype=float) @ b)


__all__ = [
    "nearest_plane",
    "nearest_plane_general",
    "babai_cell",
    "BabaiCell",
    "is_babai_error",
    "babai_point",
]
