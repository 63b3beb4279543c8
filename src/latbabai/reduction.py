"""Basis reduction and obtuse superbases in dimensions up to three.

A superbase appends v_0 = -(v_1 + ... + v_n) to a basis. It is obtuse when
all pairwise inner products (Selling parameters) are nonpositive; their
negatives, the conorms, drive the Voronoi cell constructions in 3D.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import as_basis, gram, round_half_up

OBTUSE_TOL = 1e-10

# canonical ordering of the six 3D index pairs; entries k and k+3 are the
# complementary pairs {01,23}, {02,13}, {03,12}
PAIR_ORDER_3D = ((0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2))
# row i marks the pairs that contain label i
_LABEL_OF_PAIR = np.array([[i in pair for pair in PAIR_ORDER_3D] for i in range(4)], dtype=float)


class ObtuseSuperbaseNotFound(ValueError):
    """No sign pattern of the given basis yields all-nonpositive inner products."""


@dataclass(frozen=True)
class MinkowskiReport:
    """Result of a Minkowski reduction test with the first violated condition."""

    reduced: bool
    violated: str | None = None

    def __bool__(self):
        return self.reduced


def is_minkowski_reduced(A, tol=1e-9):
    """Test the n <= 3 Minkowski conditions on a Gram matrix.

    n = 1: 0 < a11. n = 2 adds a11 <= a22 and 2|a12| <= a11. n = 3 further
    requires a22 <= a33, 2|a13| <= a11, 2|a23| <= a22 and, over all eight
    sign choices, 2|s1 a12 + s2 a13 + s3 a23| <= a11 + a22. Each bound is
    relaxed by the factor 1 + tol, so neither scale nor anisotropy matters.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or n > 3:
        raise ValueError("Minkowski test implemented for square Gram matrices, n <= 3")
    if A[0, 0] <= 0.0:
        return MinkowskiReport(False, "a11 <= 0")
    for s in range(n - 1):
        if A[s, s] > A[s + 1, s + 1] * (1.0 + tol):
            return MinkowskiReport(False, f"a{s+1}{s+1} > a{s+2}{s+2}")
    for s in range(n):
        for t in range(s + 1, n):
            if 2.0 * abs(A[s, t]) > A[s, s] * (1.0 + tol):
                return MinkowskiReport(False, f"2|a{s+1}{t+1}| > a{s+1}{s+1}")
    if n == 3:
        for s1, s2, s3 in product((1, -1), repeat=3):
            lhs = 2.0 * abs(s1 * A[0, 1] + s2 * A[0, 2] + s3 * A[1, 2])
            if lhs > (A[0, 0] + A[1, 1]) * (1.0 + tol):
                return MinkowskiReport(False, "2|±a12±a13±a23| > a11 + a22")
    return MinkowskiReport(True)


def lagrange_gauss_reduce(V, max_iter=1000):
    """Two-dimensional reduction to ||v1|| <= ||v2||, 2|<v1,v2>| <= ||v1||^2.

    Returns (reduced matrix, unimodular U) with V_reduced = V @ U.
    """
    V = as_basis(V)
    if V.shape != (2, 2):
        raise ValueError("lagrange_gauss_reduce expects a 2x2 generator matrix")
    W = V.copy()
    U = np.eye(2, dtype=int)
    for _ in range(max_iter):
        if W[:, 0] @ W[:, 0] > W[:, 1] @ W[:, 1]:
            W = W[:, ::-1].copy()
            U = U[:, ::-1].copy()
        mu = int(round_half_up((W[:, 0] @ W[:, 1]) / (W[:, 0] @ W[:, 0])))
        if mu == 0:
            break
        W[:, 1] -= mu * W[:, 0]
        U[:, 1] -= mu * U[:, 0]
    if W[:, 0] @ W[:, 0] > W[:, 1] @ W[:, 1]:
        W = W[:, ::-1].copy()
        U = U[:, ::-1].copy()
    return W, U


@dataclass(frozen=True)
class Superbase:
    """Vectors v_0..v_n (rows) with v_0 + ... + v_n = 0."""

    vectors: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "vectors", W)
        if W.ndim != 2 or W.shape[0] != W.shape[1] + 1:
            raise ValueError("superbase needs n+1 vectors of dimension n")
        resid = np.abs(W.sum(axis=0)).max()
        if resid > 1e-9 * np.abs(W).max(initial=0.0):
            raise ValueError(f"superbase vectors do not sum to zero (residual {resid:.2e})")

    @property
    def n(self):
        return self.vectors.shape[1]

    @property
    def selling(self):
        """Full (n+1)x(n+1) inner product matrix; off-diagonal entries are the Selling parameters."""
        S = self.vectors @ self.vectors.T
        return 0.5 * (S + S.T)

    def selling_pairs(self):
        """Selling parameters p_ij in the canonical pair order (3D) or (01, 02, 12) for n = 2."""
        S = self.selling
        if self.n == 3:
            return np.array([S[i, j] for i, j in PAIR_ORDER_3D])
        return np.array([S[i, j] for i in range(self.n + 1) for j in range(i + 1, self.n + 1)])

    def is_obtuse(self, tol=OBTUSE_TOL):
        """Every Selling parameter p_ij is at most tol * |v_i| |v_j|.

        The bound is per pair, so the test depends on neither the scale nor
        the anisotropy of the superbase.
        """
        S = self.selling
        d = np.sqrt(S.diagonal())
        return bool((np.triu(S, 1) <= tol * np.outer(d, d)).all())

    def basis(self):
        """Generator matrix with columns v_1..v_n."""
        return self.vectors[1:].T.copy()

    @classmethod
    def from_basis(cls, V):
        V = as_basis(V)
        rows = V.T
        return cls(np.vstack([-rows.sum(axis=0), rows]))


def _obtuse_superbases(V, tol=OBTUSE_TOL):
    """Obtuse superbases of a stack of bases V (L, n, n), n <= 3, by sign search.

    All 2^n sign flips of the basis vectors are tested at once with
    Superbase.is_obtuse's arithmetic, and each basis keeps the first obtuse
    flip in a fixed order, identity first. Returns the superbase vectors
    (L, n + 1, n) as rows, their Selling matrices (L, n + 1, n + 1) and the
    signs (L, n); raises ObtuseSuperbaseNotFound if some basis admits no flip.
    """
    signs = np.array(list(product((1.0, -1.0), repeat=V.shape[-1])))
    rows = (V[:, None] * signs[:, None, :]).swapaxes(-1, -2)
    W = np.concatenate([-rows.sum(axis=-2, keepdims=True), rows], axis=-2)
    S = W @ W.swapaxes(-1, -2)
    S = 0.5 * (S + S.swapaxes(-1, -2))
    d = np.sqrt(np.diagonal(S, axis1=-2, axis2=-1))
    obtuse = (np.triu(S, 1) <= tol * (d[..., :, None] * d[..., None, :])).all(axis=(-2, -1))
    if not obtuse.any(axis=1).all():
        raise ObtuseSuperbaseNotFound(
            "no sign pattern of the basis gives pairwise nonpositive inner products"
        )
    first = obtuse.argmax(axis=1)
    stack = np.arange(len(V))
    return W[stack, first], S[stack, first], signs[first]


def to_obtuse_superbase(V, tol=OBTUSE_TOL):
    """Search sign flips of the basis vectors for an obtuse superbase.

    For a Minkowski-reduced basis in n <= 3 some flip always works; bases that
    admit no flip raise ObtuseSuperbaseNotFound. Flips are tried in a fixed
    order, identity first, so the result is deterministic.
    """
    V = as_basis(V)
    if V.shape[0] > 3:
        raise ValueError("obtuse superbase search implemented for n <= 3")
    return Superbase(_obtuse_superbases(V[None], tol)[0][0])


def superbase_to_minkowski(sb, tol=OBTUSE_TOL):
    """Extract a Minkowski-reduced basis from an obtuse superbase.

    Sorting all n+1 vectors by norm and dropping the longest leaves a basis
    (the dropped vector is minus the sum of the kept ones); for an obtuse
    superbase in n <= 3 the kept vectors, in ascending norm order, satisfy
    the Minkowski conditions.
    """
    if not sb.is_obtuse(tol):
        raise ValueError("superbase is not obtuse")
    W = sb.vectors
    order = np.argsort([w @ w for w in W], kind="stable")
    kept = W[order[:-1]]
    return kept.T.copy()


@dataclass(frozen=True)
class ConormSet:
    """Nonnegative conorms c_ij = -p_ij of a 3D superbase, in PAIR_ORDER_3D."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (6,):
            raise ValueError("ConormSet holds six values")
        if np.any(v < -1e-8 * np.abs(v).max(initial=0.0)):
            raise ValueError("conorms must be nonnegative")

    def __getitem__(self, pair):
        i, j = sorted(pair)
        return float(self.values[PAIR_ORDER_3D.index((i, j))])

    def zero_pattern(self, tol=1e-9):
        """Index pairs whose conorm is at most tol times the squared norm of
        the shortest superbase vector, so the pattern does not depend on scale.

        |v_i|^2 is the sum of the conorms at label i.
        """
        bound = tol * (_LABEL_OF_PAIR @ self.values).min()
        return tuple(p for p, v in zip(PAIR_ORDER_3D, self.values) if v <= bound)


def conorms(sb):
    """ConormSet of a 3D obtuse superbase."""
    if sb.n != 3:
        raise ValueError("conorms are defined here for n = 3")
    if not sb.is_obtuse():
        raise ValueError("superbase is not obtuse")
    S = sb.selling
    vals = np.array([-S[i, j] for i, j in PAIR_ORDER_3D])
    return ConormSet(np.maximum(vals, 0.0))


@dataclass(frozen=True)
class VonormSet:
    """Squared norms of the seven nonzero cosets v_S = sum_{i in S} v_i, S over {1,2,3}."""

    values: dict

    def __getitem__(self, key):
        return self.values[tuple(sorted(key))]


def vonorms(sb):
    """VonormSet of a 3D superbase: N(v_1), N(v_2), N(v_3), N(v_12), N(v_13), N(v_23), N(v_123)."""
    if sb.n != 3:
        raise ValueError("vonorms are defined here for n = 3")
    W = sb.vectors
    out = {}
    for subset in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)):
        v = W[list(subset)].sum(axis=0)
        out[subset] = float(v @ v)
    return VonormSet(out)
