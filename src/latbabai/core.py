"""Basic lattice primitives.

A lattice is represented by a square generator matrix V whose columns are
the basis vectors, so lattice points are V @ u for integer vectors u.
Everything here works on plain numpy arrays.
"""

import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


_INT64_EDGE = 2.0**63


class RankDeficiencyError(ValueError):
    """Generator matrix is singular or numerically rank deficient."""


class UnsupportedDimensionError(ValueError):
    """Operation is only implemented for small dimensions."""


class EnumerationTooLargeError(ValueError):
    """A certified enumeration box holds more than MAX_BOX_ROWS points; the
    box grows with the skew of the basis, so reduce the basis first."""


class EnumerationWindowWarning(UserWarning):
    """Never raised: every enumeration searches a certified box. Kept for warning filters."""


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
    # Hadamard's bound |det V| <= prod_j |v_j| holds with equality for
    # orthogonal columns, so the ratio depends on neither units nor skew;
    # math.hypot neither overflows nor underflows on the way
    if abs(np.linalg.det(V)) <= 1e-12 * math.prod(map(math.hypot, *V.tolist())):
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


def checked_int64(B, X, caller):
    """Rounded floats B as int64, after one range check computed from inputs X.

    A non-finite X raises ValueError, a value of B outside int64
    OverflowError. NaN fails the range check too and is told apart only
    then, so the hot path pays for one comparison.
    """
    if not ((B >= -_INT64_EDGE) & (B < _INT64_EDGE)).all():
        if not np.isfinite(X).all():
            raise ValueError(f"{caller} inputs must be finite")
        raise OverflowError(f"{caller} coefficient outside the int64 range")
    return B.astype(np.int64)


def unit_volume_normalize(V):
    """Rescale the basis so the fundamental cell has volume 1."""
    V = as_basis(V)
    return V / volume(V) ** (1.0 / V.shape[0])


# points in the largest certified box: 2**20 rows of n = 4 int64 coefficients
# take 32 MB, while the decode lattices' boxes hold at most 8 points
MAX_BOX_ROWS = 2**20


def _certified_box(inv_row_norms, r, y=0.0):
    """Every integer u with |u_i - y_i| <= r ||row_i(V^-1)|| (plus 1e-9 for rounding).

    It holds every lattice point V u within r of x = V y, since u - y =
    V^-1 (V u - x) (Fincke & Pohst, Math. Comp. 44, 1985); inv_row_norms
    are the ||row_i(V^-1)||. Rows come in lexicographic order, so about
    y = 0 the row of -u mirrors that of u.
    The box is counted before it is built; above MAX_BOX_ROWS points
    EnumerationTooLargeError is raised.
    """
    if len(inv_row_norms) > 4:
        raise UnsupportedDimensionError("lattice enumeration covers only n <= 4")
    half = inv_row_norms * r + 1e-9
    lo = np.ceil(y - half)
    widths = (np.floor(y + half) - lo + 1).tolist()
    rows = math.prod(widths)
    if not rows <= MAX_BOX_ROWS:
        raise EnumerationTooLargeError(
            f"certified enumeration box of {rows:.4g} points ({' x '.join(f'{w:.0f}' for w in widths)}) "
            f"exceeds {MAX_BOX_ROWS}; reduce the basis first (e.g. Lagrange-Gauss or Selling reduction)"
        )
    return np.indices([int(w) for w in widths]).reshape(len(lo), -1).T + lo.astype(np.int64)


def _nearest_in_box(V, U, x):
    """Nearest lattice point to x among rows U; the first row within 1e-12 (squared) wins."""
    D = U @ V.T - x
    d2 = np.einsum("ij,ij->i", D, D)
    u = U[np.argmax(d2 <= d2.min() + 1e-12)]
    return LatticePoint(coeffs=u.astype(int), point=V @ u)


def _nearest_plane(R, T):
    """The recursion of babai.nearest_plane as rounded floats, with no input checks."""
    B = np.zeros(T.shape)
    for m in range(R.shape[0] - 1, -1, -1):
        B[..., m] = round_half_up((T[..., m] - B[..., m + 1 :] @ R[m, m + 1 :]) / R[m, m])
    return B


def shortest_vector(V):
    """Shortest nonzero lattice vector by certified enumeration.

    Any nonzero vector of norm <= min_j ||v_j|| lies in the certified box of
    that radius around 0, so enumerating the box is exact. Ties are resolved
    to the lexicographically smallest coefficient vector.
    """
    return _shortest_vector(as_basis(V))


def _shortest_vector(V):
    bound = float(np.sqrt((V.T @ V).diagonal().min()))
    U = _certified_box(np.linalg.norm(np.linalg.inv(V), axis=1), bound)
    return _nearest_in_box(V, U[np.any(U != 0, axis=1)], 0.0)


_BALL_VOLUME = {1: lambda r: 2.0 * r, 2: lambda r: np.pi * r**2, 3: lambda r: 4.0 * np.pi * r**3 / 3.0}


def packing_density(V):
    """Sphere packing density: vol(ball of packing radius) / vol(fundamental cell)."""
    V = as_basis(V)
    n = V.shape[0]
    if n not in _BALL_VOLUME:
        raise UnsupportedDimensionError("packing_density supports n in {1, 2, 3}")
    rho = 0.5 * _shortest_vector(V).norm
    return float(_BALL_VOLUME[n](rho) / _volume(V))


class _Frame(NamedTuple):
    """Read-only factors of one validated basis V."""

    R: np.ndarray  # cholesky(V^T V)^T, upper triangular with V = Q R
    Vinv: np.ndarray
    inv_row_norms: np.ndarray  # ||row_i(V^-1)||, the certified box's scale


# bases whose frames are kept; the decode stream cycles through 4
_FRAMES_KEPT = 32
_frames = OrderedDict()
_frames_lock = threading.Lock()


def _frame(V):
    """V as float, and its _Frame from a bounded least-recently-used cache.

    The key is (shape, strides, bytes) of the float array, and the factors
    are computed from that very array: numpy's products can round differently
    on another memory layout, so an F-order basis and its C-order copy are
    two keys. Whether V passes as_basis depends on the key alone, so a hit
    skips the check; a basis that fails raises and is not cached. Products
    with V itself stay with the caller, who passes V, not a cached copy.
    """
    V = np.asarray(V, dtype=float)
    key = (V.shape, V.strides, V.tobytes())
    with _frames_lock:
        frame = _frames.get(key)
        if frame is not None:
            _frames.move_to_end(key)
            return V, frame
    V = as_basis(V)
    R = np.linalg.cholesky(V.T @ V).T
    Vinv = np.linalg.inv(V)
    frame = _Frame(R, Vinv, np.linalg.norm(Vinv, axis=1))
    for a in frame:
        a.flags.writeable = False
    with _frames_lock:
        _frames[key] = frame
        if len(_frames) > _FRAMES_KEPT:
            _frames.popitem(last=False)
    return V, frame


def cvp_bruteforce(V, x):
    """Exact closest lattice point for any basis (n <= 4), by certified enumeration.

    Every point at least as close as the nearest-plane point b lies in the box
    of radius r = |x - V b| around V^-1 x (Agrell, Eriksson, Vardy & Zeger,
    IEEE Trans. IT 48(8), 2002); r is padded by a relative 1e-9 to keep ties
    inside. Ties go to the lexicographically smallest coefficient vector.
    A box of more than MAX_BOX_ROWS points raises EnumerationTooLargeError.
    """
    return _cvp(*_frame(V), np.asarray(x, dtype=float))


def _cvp(V, frame, x):
    if not np.isfinite(x).all():
        raise ValueError("cvp_bruteforce target must be finite")
    y = frame.Vinv @ x
    b = checked_int64(_nearest_plane(frame.R, frame.R @ y), x, "cvp_bruteforce")
    r = float(np.linalg.norm(x - V @ b))
    return _nearest_in_box(V, _certified_box(frame.inv_row_norms, r * (1.0 + 1e-9), y), x)
