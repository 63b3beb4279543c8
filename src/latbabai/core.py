"""Basic lattice primitives.

A lattice is represented by a square generator matrix V whose columns are
the basis vectors, so lattice points are V @ u for integer vectors u.
Everything here works on plain numpy arrays.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np


class RankDeficiencyError(ValueError):
    """Generator matrix is singular or numerically rank deficient."""


class UnsupportedDimensionError(ValueError):
    """Operation is only implemented for small dimensions."""


class EnumerationWindowWarning(UserWarning):
    """A closest-point search returned a candidate on the edge of its box."""


@dataclass(frozen=True)
class LatticePoint:
    """A lattice point given by its integer coefficients and its embedding."""

    coeffs: np.ndarray
    point: np.ndarray

    @property
    def norm(self):
        return float(np.linalg.norm(self.point))


def as_basis(V):
    """Validate a generator matrix (columns are basis vectors) and return it as float."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError(f"generator matrix must be square, got shape {V.shape}")
    if not np.all(np.isfinite(V)):
        raise ValueError("generator matrix entries must be finite")
    n = V.shape[0]
    # relative to the largest entry, so the verdict does not depend on units
    scale = float(np.abs(V).max())
    if abs(np.linalg.det(V)) <= 1e-12 * scale**n:
        raise RankDeficiencyError("generator matrix is rank deficient")
    return V


def basis_from_columns(columns):
    """Build a generator matrix from a sequence of basis vectors."""
    return as_basis(np.array(columns, dtype=float).T)


def lattice_from_json(source):
    """Load a generator matrix from a JSON object {"n": int, "columns": [[...], ...]}.

    `source` may be a path, an open file, or an already-parsed dict.
    """
    if isinstance(source, dict):
        obj = source
    elif hasattr(source, "read"):
        obj = json.load(source)
    else:
        with open(source) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict) or "n" not in obj or "columns" not in obj:
        raise ValueError('lattice JSON must be {"n": int, "columns": [[...], ...]}')
    n = obj["n"]
    cols = obj["columns"]
    if not isinstance(n, int) or len(cols) != n or any(len(c) != n for c in cols):
        raise ValueError(f"lattice JSON inconsistent: n={n}, columns={cols!r}")
    return basis_from_columns(cols)


def lattice_to_json(V):
    """Inverse of lattice_from_json."""
    V = as_basis(V)
    return {"n": V.shape[0], "columns": [list(map(float, c)) for c in V.T]}


def gram(V):
    """Gram matrix A = V^T V (symmetrized)."""
    V = as_basis(V)
    A = V.T @ V
    return 0.5 * (A + A.T)


def volume(V):
    """Volume of the fundamental cell, |det V|."""
    return _volume(as_basis(V))


def _volume(V):
    return float(abs(np.linalg.det(V)))


def qr_upper(V):
    """QR factorization V = Q R with the diagonal of R made positive.

    Sign flips are absorbed into Q, so Q is orthogonal and R is an upper
    triangular generator of the rotated copy of the lattice.
    """
    V = as_basis(V)
    Q, R = np.linalg.qr(V)
    s = np.where(np.diag(R) < 0.0, -1.0, 1.0)
    R = R * s[:, None]
    Q = Q * s[None, :]
    d = np.diag(R)
    if np.any(d <= 0.0):
        raise RankDeficiencyError("QR produced a nonpositive diagonal entry")
    return Q, R


def round_half_up(y):
    """Nearest integer with halves rounded up: [0.5] = 1, [-0.5] = 0.

    numpy's round() breaks ties to even, which is the wrong convention here.
    """
    return np.floor(np.asarray(y, dtype=float) + 0.5)


def unit_volume_normalize(V):
    """Rescale the basis so the fundamental cell has volume 1."""
    V = as_basis(V)
    return V / volume(V) ** (1.0 / V.shape[0])


def _integer_box(K):
    """All integer vectors u with |u_i| <= K_i, as an (m, n) array."""
    axes = [np.arange(-int(k), int(k) + 1) for k in K]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _lex_smallest(U):
    # lexsort keys are significant last-to-first, so feed reversed columns
    return U[np.lexsort(U.T[::-1])[0]]


def shortest_vector(V):
    """Shortest nonzero lattice vector by certified enumeration.

    Any nonzero vector of norm <= min_i ||v_i|| has coefficients bounded by
    |u_i| <= ||row_i(V^-1)|| * min_j ||v_j||, so enumerating that box is exact.
    Ties are resolved to the lexicographically smallest coefficient vector.
    """
    return _shortest_vector(as_basis(V))


def _shortest_vector(V):
    if V.shape[0] > 4:
        raise UnsupportedDimensionError("shortest_vector enumerates only up to n = 4")
    bound = float(np.sqrt((V.T @ V).diagonal().min()))
    Vinv = np.linalg.inv(V)
    K = np.ceil(np.linalg.norm(Vinv, axis=1) * bound + 1e-9)
    U = _integer_box(K)
    U = U[np.any(U != 0, axis=1)]
    P = U @ V.T
    norms2 = np.einsum("ij,ij->i", P, P)
    best = norms2.min()
    u = _lex_smallest(U[norms2 <= best + 1e-12])
    return LatticePoint(coeffs=u.astype(int), point=V @ u)


_BALL_VOLUME = {1: lambda r: 2.0 * r, 2: lambda r: np.pi * r**2, 3: lambda r: 4.0 * np.pi * r**3 / 3.0}


def packing_density(V):
    """Sphere packing density: vol(ball of packing radius) / vol(fundamental cell)."""
    V = as_basis(V)
    n = V.shape[0]
    if n not in _BALL_VOLUME:
        raise UnsupportedDimensionError("packing_density supports n in {1, 2, 3}")
    rho = 0.5 * _shortest_vector(V).norm
    return float(_BALL_VOLUME[n](rho) / _volume(V))


def cvp_bruteforce(V, x, window=3):
    """Exact closest lattice point by enumeration around the rounded coordinates.

    The search box is centered on round(V^-1 x) and extends `window` steps in
    every coefficient. window = 3 is ample for the mildly skewed bases used
    here; a warning is raised if the minimizer lands on the box edge.
    """
    V = as_basis(V)
    x = np.asarray(x, dtype=float)
    n = V.shape[0]
    if n > 4:
        raise UnsupportedDimensionError("cvp_bruteforce enumerates only up to n = 4")
    center = np.rint(np.linalg.solve(V, x)).astype(int)
    U = center + _integer_box([window] * n)
    P = U @ V.T
    d2 = np.einsum("ij,ij->i", P - x, P - x)
    best = d2.min()
    u = _lex_smallest(U[d2 <= best + 1e-12])
    if np.any(np.abs(u - center) >= window):
        warnings.warn(
            "closest point sits on the search box boundary; result may be wrong, increase window",
            EnumerationWindowWarning,
        )
    return LatticePoint(coeffs=u.astype(int), point=V @ u)
