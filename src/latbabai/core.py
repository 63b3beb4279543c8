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
from functools import cached_property
from itertools import accumulate

import numpy as np


_INT64_EDGE = 2.0**63


class RankDeficiencyError(ValueError):
    """Generator matrix is singular or numerically rank deficient."""


class UnsupportedDimensionError(ValueError):
    """Operation is only implemented for small dimensions."""


class EnumerationTooLargeError(ValueError):
    """The closest-point search passed SEARCH_NODE_LIMIT nodes; a short column
    after longer ones widens it, so order the columns shortest first."""


class EnumerationWindowWarning(UserWarning):
    """Never raised: every enumeration is an exact search. Kept for warning filters."""


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
    # Hadamard's bound |det V| <= prod_j |v_j| is an equality for orthogonal columns, so
    # the ratio is free of units and skew. numpy's det, exp(log|det|), leaves the double
    # range only where the bound does; there exact power-of-two column scales come first
    W, bound = V, math.prod(map(math.hypot, *V.tolist()))
    if not 2.0**-900 < bound < 2.0**900:
        W = np.ldexp(V, -np.frexp(np.abs(V).max(axis=0))[1])
        bound = math.prod(map(math.hypot, *W.tolist()))
    if abs(np.linalg.det(W)) <= 1e-12 * bound:
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


# nodes one closest-point search may visit before it refuses, about 0.1 s;
# a query on the decode lattices visits at most 8, a reduced long one about 4
SEARCH_NODE_LIMIT = 2**15


def _excess(u, terms, m, best):
    """How far the leaves under the node u[m:] lie beyond the leaf best, and their tie window.

    Leaves are compared on the levels at and below the highest level k where
    they differ, since the levels above hold the same terms bit for bit:
    (term_k - best's) + (the terms of levels m..k-1 - best's sum below k),
    exact for a leaf (m = 0) and a lower bound under a node. The window is a
    relative 1e-12 of those terms, the lattice's spacing, not of |t - R u|^2.
    """
    bu, bterms, blows = best
    k = next((j for j in range(len(bu) - 1, m, -1) if u[j] != bu[j]), m)
    low = sum(terms[m:k])
    dt = terms[k] - bterms[k]
    return dt + (low - blows[k]), 1e-12 * (abs(dt) + low + blows[k])


def _search(R, t, skip_origin=False):
    """Coefficients u of every near-minimizer of |t - R u| over the integers, as tuples.

    The depth-first search of Schnorr & Euchner (Math. Programming 66, 1994)
    in the form of Agrell, Eriksson, Vardy & Zeger (IEEE Trans. IT 48(8),
    2002), for R upper triangular. Level m, from the last coefficient down,
    zig-zags about c_m = (t_m - sum_{l>m} R_ml u_l) / R_mm, so the first leaf
    is the nearest-plane point; a leaf's squared distance is the sum of its
    terms (R_mm (c_m - u_m))^2. A leaf ties the best one within _excess's
    window, and a branch is cut once its excess passes the window.
    skip_origin leaves out u = 0. Past SEARCH_NODE_LIMIT nodes it raises.
    """
    n = len(R)
    if n > 4:
        raise UnsupportedDimensionError("lattice enumeration covers only n <= 4")
    R, t = R.tolist(), t.tolist()
    u, terms = [0] * n, [0.0] * n
    leaves, best, nodes = [], None, 0

    def level(m):
        nonlocal best, nodes
        row = R[m]
        c = (t[m] - sum(row[l] * u[l] for l in range(m + 1, n))) / row[m]
        v = math.floor(c + 0.5)
        step = 1 if c >= v else -1
        while True:
            u[m] = v
            terms[m] = (row[m] * (c - v)) ** 2
            over, window = _excess(u, terms, m, best) if best else (-1.0, 0.0)
            if over > window:
                return
            nodes += 1
            if nodes > SEARCH_NODE_LIMIT:
                diagonal = ", ".join(f"{r[i]:.3g}" for i, r in enumerate(R))
                raise EnumerationTooLargeError(
                    f"closest-point search passed {SEARCH_NODE_LIMIT} nodes; R has diagonal ({diagonal}), "
                    "and a short column after longer ones widens the search: "
                    "order the columns shortest first, or reduce the basis"
                )
            if m:
                level(m - 1)
            elif any(u) or not skip_origin:
                leaves.append((tuple(u), terms[:], list(accumulate(terms, initial=0.0))))
                if over < 0.0:
                    best = leaves[-1]
            v += step
            step = -step - 1 if step > 0 else 1 - step

    level(n - 1)
    ties = []
    for w, wterms, _ in leaves:
        over, window = _excess(w, wterms, 0, best)
        if over <= window:
            ties.append(w)
    return ties


def _nearest_plane(R, T):
    """The recursion of babai.nearest_plane as rounded floats, with no input checks."""
    B = np.zeros(T.shape)
    m = R.shape[0] - 1
    B[..., m] = np.floor(T[..., m] / R[m, m] + 0.5)
    for m in range(m - 1, -1, -1):
        B[..., m] = np.floor((T[..., m] - B[..., m + 1 :] @ R[m, m + 1 :]) / R[m, m] + 0.5)
    return B


def shortest_vector(V):
    """Shortest nonzero lattice vector, by the closest-point search about 0 without the origin.

    Ties go to the lexicographically smallest coefficient vector.
    """
    return _shortest_vector(as_basis(V))


def _shortest_vector(V):
    # R of V = Q R without Q; the search does not need its diagonal positive
    u = np.array(_shortest_coeffs(np.linalg.qr(V, mode="r")), dtype=np.int64)
    return LatticePoint(coeffs=u, point=V @ u)


def _shortest_coeffs(R):
    """Coefficients of the shortest nonzero R u, the lexicographically smallest of the ties."""
    return min(_search(R, np.zeros(len(R)), skip_origin=True))


def _relevant_vectors(R, V=None):
    """One vector p = V c of each Voronoi-relevant pair +-p, the first nonzero c_i positive,
    in the frame of V = Q R (R's own by default).

    By Voronoi's theorem p is relevant when +-p is the unique shortest pair
    of its coset c mod 2 (Conway & Sloane, SPLAG ch. 21). The shortest
    vectors of the nonzero coset u in {0,1}^n are u + 2w for the w nearest
    to -u/2, so one search per coset finds them, and a coset with more than
    one tied pair holds no relevant vector. Rows come in coset order, sum_i u_i 2^i.
    """
    n = len(R)
    C = []
    for coset in range(1, 1 << n):
        u = np.array([(coset >> i) & 1 for i in range(n)])
        ties = _search(R, R @ (-0.5 * u))
        if len(ties) == 2:
            c = (u + 2 * np.array(ties[0])).tolist()
            C.append(max(c, [-x for x in c]))
    return np.array(C, dtype=np.int64).reshape(-1, n) @ (R if V is None else V).T


_BALL_VOLUME = {1: lambda r: 2.0 * r, 2: lambda r: np.pi * r**2, 3: lambda r: 4.0 * np.pi * r**3 / 3.0}


def packing_density(V):
    """Sphere packing density: vol(ball of packing radius) / vol(fundamental cell)."""
    V = as_basis(V)
    n = V.shape[0]
    if n not in _BALL_VOLUME:
        raise UnsupportedDimensionError("packing_density supports n in {1, 2, 3}")
    rho = 0.5 * _shortest_vector(V).norm
    return float(_BALL_VOLUME[n](rho) / _volume(V))


@dataclass(frozen=True)
class _Frame:
    """Read-only factors of one validated basis V."""

    R: np.ndarray  # qr_upper(V)[1], upper triangular with V = Q R
    Vinv: np.ndarray

    @cached_property
    def packing2(self):
        """(lambda_1 / 2)^2, shrunk by a relative 1e-9: a target nearer than the
        packing radius to its nearest-plane point has no other closest point.

        Found by the first exact query, so the nearest-plane decoders never
        search; 0.0, no certificate, where the search refuses.
        """
        try:
            p = self.R @ _shortest_coeffs(self.R)
        except EnumerationTooLargeError:
            return 0.0
        return 0.25 * float(p @ p) * (1.0 - 1e-9)


# bases whose frames are kept; the decode stream cycles through 4
_FRAMES_KEPT = 32
_frames = OrderedDict()
_frames_lock = threading.Lock()


def _frame(V):
    """V as float, and its _Frame from a bounded least-recently-used cache.

    The key is (shape, strides, bytes) of the float array, and the factors
    are computed from that very array: numpy's products can round differently
    on another memory layout, so an F-order basis and its C-order copy are
    two keys. Whether V passes qr_upper's as_basis depends on the key alone,
    so a hit skips the check; a basis that fails raises and is not cached.
    Products with V itself stay with the caller, who passes V, not a copy.
    """
    V = np.asarray(V, dtype=float)
    key = (V.shape, V.strides, V.tobytes())
    with _frames_lock:
        frame = _frames.get(key)
        if frame is not None:
            _frames.move_to_end(key)
            return V, frame
    _, R = qr_upper(V)
    frame = _Frame(R, np.linalg.inv(V))
    for a in (frame.R, frame.Vinv):
        a.flags.writeable = False
    with _frames_lock:
        _frames[key] = frame
        if len(_frames) > _FRAMES_KEPT:
            _frames.popitem(last=False)
    return V, frame


def _as_target(x, n):
    """One target point of length n as float; a stack or another length raises ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a target of length {n}, got shape {x.shape}")
    return x


def _babai(frame, X, caller):
    """Q^T X = R (V^-1 X) and the nearest-plane coefficients of X."""
    T = X @ frame.Vinv.T @ frame.R.T
    return T, checked_int64(_nearest_plane(frame.R, T), X, caller)


def cvp_bruteforce(V, x):
    """Exact closest lattice point for any basis (n <= 4), by the closest-point search.

    The search (_search) runs in R's frame, where Q^T x = R (V^-1 x), and
    ties go to the lexicographically smallest coefficient vector. A target
    nearer to its nearest-plane point b than the packing radius has no other
    closest point, so b is returned without searching. A search past
    SEARCH_NODE_LIMIT nodes raises EnumerationTooLargeError.
    """
    V, frame = _frame(V)
    return _cvp(V, frame, _as_target(x, V.shape[0]))[1]


def _cvp(V, frame, x):
    """The Babai distance |x - V b| and the closest LatticePoint to x."""
    if not np.isfinite(x).all():
        raise ValueError("cvp_bruteforce target must be finite")
    t, b = _babai(frame, x, "cvp_bruteforce")
    d = x - V @ b
    d2 = d @ d
    if d2 >= frame.packing2:
        b = np.array(min(_search(frame.R, t)), dtype=np.int64)
    return math.sqrt(d2), LatticePoint(coeffs=b, point=V @ b)
