"""Voronoi cells of 3D lattices and the error rate of nearest-plane decoding.

Starting from an obtuse superbase {v_0, v_1, v_2, v_3}, the Voronoi cell of
the origin is cut out by at most 14 halfspaces, one per candidate relevant
vector w in +-{v_1, v_2, v_3, v_1+v_2, v_1+v_3, v_2+v_3, v_1+v_2+v_3}. Which
of the five parallelohedron shapes appears is read off the zero pattern of
the six conorms. The decoding error probability is one minus the fraction of
the cell volume captured by the rectangular decoding cell, minimized over
column orderings of the generator.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .core import UnsupportedDimensionError, _integer_box, as_basis, packing_density, qr_upper
from .polytope import box_halfspaces, intersect_polytopes, polytope_from_halfspaces
from .reduction import (
    OBTUSE_TOL,
    ConormSet,
    Superbase,
    conorms,
    is_minkowski_reduced,
    to_obtuse_superbase,
)


class CellType(Enum):
    """The five parallelohedra that occur as Voronoi cells of 3D lattices."""

    TruncatedOctahedron = "truncated_octahedron"
    HexaRhombicDodecahedron = "hexa_rhombic_dodecahedron"
    RhombicDodecahedron = "rhombic_dodecahedron"
    HexagonalPrism = "hexagonal_prism"
    Cuboid = "cuboid"


FACET_COUNTS = {
    CellType.TruncatedOctahedron: 14,
    CellType.HexaRhombicDodecahedron: 12,
    CellType.RhombicDodecahedron: 12,
    CellType.HexagonalPrism: 8,
    CellType.Cuboid: 6,
}

# (facets, vertices) pairs separate the two 12-facet shapes
_COUNT_SIGNATURE = {
    (14, 24): CellType.TruncatedOctahedron,
    (12, 18): CellType.HexaRhombicDodecahedron,
    (12, 14): CellType.RhombicDodecahedron,
    (8, 12): CellType.HexagonalPrism,
    (6, 8): CellType.Cuboid,
}

_COMPLEMENTARY_PAIRS = ({(0, 1), (2, 3)}, {(0, 2), (1, 3)}, {(0, 3), (1, 2)})


def relevant_vector_candidates(sb):
    """The seven sums v_1, v_2, v_3, v_12, v_13, v_23, v_123, as rows."""
    v1, v2, v3 = sb.vectors[1], sb.vectors[2], sb.vectors[3]
    return np.array([v1, v2, v3, v1 + v2, v1 + v3, v2 + v3, v1 + v2 + v3])


def voronoi_halfspaces(sb):
    """Halfspace system {x : x.w <= w.w/2} over the 14 signed candidates."""
    W7 = relevant_vector_candidates(sb)
    W = np.vstack([W7, -W7])
    return W, 0.5 * np.einsum("ij,ij->i", W, W)


def voronoi_cell_3d(sb):
    """Voronoi cell of the origin for the lattice of an obtuse superbase.

    Accepts a Superbase or a generator matrix (converted via sign search).
    Redundant halfspaces drop out during construction, so degenerate shapes
    (fewer than 14 facets) come out with the correct combinatorics.
    """
    if not isinstance(sb, Superbase):
        sb = to_obtuse_superbase(as_basis(sb))
    if sb.n != 3:
        raise UnsupportedDimensionError("voronoi_cell_3d needs n = 3")
    if not sb.is_obtuse():
        raise ValueError("superbase is not obtuse")
    return polytope_from_halfspaces(*voronoi_halfspaces(sb))


def voronoi_vertices_conorm_formula(sb):
    """Cell vertex candidates from the conorms, one per labeling (24 rows).

    Each permutation (i, j, k, l) of the superbase labels fixes a vertex by
    its inner products y_m = t . v_m; the Cartesian point is recovered through
    the transposed basis inverse. With all conorms positive these are the 24
    distinct vertices of the cell; zero conorms collapse some of them.
    """
    if sb.n != 3:
        raise UnsupportedDimensionError("conorm vertex formula needs n = 3")
    P = np.maximum(-sb.selling, 0.0)
    np.fill_diagonal(P, 0.0)
    back = np.linalg.inv(sb.basis().T)
    pts = []
    for i, j, k, l in permutations(range(4)):
        y = np.empty(4)
        y[i] = P[i, j] + P[i, k] + P[i, l]
        y[j] = -P[j, i] + P[j, k] + P[j, l]
        y[k] = -P[k, i] - P[k, j] + P[k, l]
        y[l] = -P[l, i] - P[l, j] - P[l, k]
        pts.append(back @ (0.5 * y[1:]))
    return np.array(pts)


def classify_cell(c, tol=1e-9):
    """Parallelohedron type from the zero pattern of six conorms.

    Zero counts 0/1/3 map straight to truncated octahedron, hexa-rhombic
    dodecahedron, cuboid; two zeros split by whether they form a
    complementary pair (rhombic dodecahedron) or not (hexagonal prism).
    Anything else falls back to rebuilding the cell from the conorms and
    matching facet and vertex counts.
    """
    if not isinstance(c, ConormSet):
        c = ConormSet(np.asarray(c, dtype=float))
    zeros = set(c.zero_pattern(tol))
    if len(zeros) == 0:
        return CellType.TruncatedOctahedron
    if len(zeros) == 1:
        return CellType.HexaRhombicDodecahedron
    if len(zeros) == 2:
        if zeros in _COMPLEMENTARY_PAIRS:
            return CellType.RhombicDodecahedron
        return CellType.HexagonalPrism
    if len(zeros) == 3 and len({i for pair in zeros for i in pair}) == 3:
        # three zeros on three of the four labels: orthogonal basis directions
        return CellType.Cuboid
    return _classify_by_counts(c)


def _classify_by_counts(c):
    """Fallback classification: conorms fix the Gram matrix, rebuild and count."""
    vals = np.maximum(c.values, 0.0)
    cs = ConormSet(vals)
    A = np.empty((3, 3))
    for s in (1, 2, 3):
        A[s - 1, s - 1] = sum(cs[(s, t)] for t in range(4) if t != s)
    for s, t in ((1, 2), (1, 3), (2, 3)):
        A[s - 1, t - 1] = A[t - 1, s - 1] = -cs[(s, t)]
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError("conorm pattern does not describe a full-rank lattice") from None
    cell = voronoi_cell_3d(Superbase.from_basis(L.T))
    key = (cell.n_facets, cell.n_vertices)
    if key not in _COUNT_SIGNATURE:
        raise ValueError(f"cell with {key[0]} facets, {key[1]} vertices matches no known type")
    return _COUNT_SIGNATURE[key]


class Pe3DResult(NamedTuple):
    pe: float
    best_ordering: tuple
    per_ordering: dict


def pe_3d(basis, search_orderings=True):
    """Nearest-plane error probability of a 3D generator, per column ordering.

    For each ordering: canonical QR, rescale so the leading diagonal entry is
    1, intersect the Voronoi cell with the rectangular decoding cell spanned
    by the diagonal, and read off P_e = 1 - vol(intersection) / covolume.
    Returns the minimum, the ordering achieving it (ties to the
    lexicographically first), and the full per-ordering table.
    """
    V = as_basis(basis)
    if V.shape[0] != 3:
        raise UnsupportedDimensionError("pe_3d needs a 3x3 generator")
    orders = tuple(permutations(range(3))) if search_orderings else ((0, 1, 2),)
    per = {}
    for perm in orders:
        _, R = qr_upper(V[:, list(perm)])
        R = R / R[0, 0]
        sb = to_obtuse_superbase(R)
        inter = intersect_polytopes(voronoi_halfspaces(sb), box_halfspaces(0.5 * np.diag(R)))
        covol = abs(float(np.linalg.det(R)))
        per[perm] = float(min(max(1.0 - inter.volume / covol, 0.0), 1.0))
    best = min(per, key=lambda k: (per[k], k))
    return Pe3DResult(per[best], best, per)


def random_reduced_superbase(rng_seed=None, rng_range=(-4.0, 4.0), max_attempts=10**6):
    """Rejection-sample a generator {(1,0,0), (a,b,0), (c,d,e)} whose basis is
    Minkowski-reduced and whose superbase completion is obtuse as given.

    Entries are uniform over rng_range. Returns (basis, attempts); raises
    RuntimeError if no sample passes within max_attempts draws. Fixed seeds
    reproduce the same basis independent of batch size.
    """
    rng = np.random.default_rng(rng_seed)
    lo, hi = rng_range
    attempts = 0
    batch = 8192
    while attempts < max_attempts:
        m = min(batch, max_attempts - attempts)
        a, b, c, d, e = rng.uniform(lo, hi, size=(5, m))
        a12, a13 = a, c
        a22 = a * a + b * b
        a23 = a * c + b * d
        a33 = c * c + d * d + e * e
        ok = (
            (a22 >= 1.0)
            & (a33 >= a22)
            & (2.0 * np.abs(a12) <= 1.0)
            & (2.0 * np.abs(a13) <= 1.0)
            & (2.0 * np.abs(a23) <= a22)
            & (2.0 * (np.abs(a12) + np.abs(a13) + np.abs(a23)) <= 1.0 + a22)
            & (a12 <= 0.0)
            & (a13 <= 0.0)
            & (a23 <= 0.0)
            & (1.0 + a12 + a13 >= 0.0)
            & (a12 + a22 + a23 >= 0.0)
            & (a13 + a23 + a33 >= 0.0)
            & (np.abs(b * e) > 1e-9)  # guard against numerically flat samples
        )
        for i in np.flatnonzero(ok):
            V = np.array([[1.0, a[i], c[i]], [0.0, b[i], d[i]], [0.0, 0.0, e[i]]])
            sb = Superbase.from_basis(V)
            if is_minkowski_reduced(V.T @ V) and sb.is_obtuse(OBTUSE_TOL):
                return V, attempts + int(i) + 1
        attempts += m
    raise RuntimeError(f"no reduced obtuse basis found in {max_attempts} attempts")


@dataclass(frozen=True)
class ScanRecord:
    """One random-scan sample: Selling parameters, density, error probability."""

    selling: tuple
    density: float
    pe: float
    cell_type: CellType
    seed: int


def _scan_one(trial_seed, density_floor):
    V, _ = random_reduced_superbase(trial_seed)
    dens = packing_density(V)
    if dens < density_floor:
        return None
    sb = Superbase.from_basis(V)
    record = ScanRecord(
        selling=tuple(float(x) for x in sb.selling_pairs()),
        density=float(dens),
        pe=float(pe_3d(V, search_orderings=True).pe),
        cell_type=classify_cell(conorms(sb)),
        seed=int(trial_seed),
    )
    return record


def scan_random(trials, density_floor=0.4, seed=None):
    """Random-lattice scan: sample reduced bases, filter by packing density,
    record Selling parameters, density, cell type and minimal P_e.

    Each trial gets its own seed split from the master seed, so any record can
    be regenerated alone from its seed.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    trial_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(trials)]
    results = [_scan_one(s, density_floor) for s in trial_seeds]
    return [r for r in results if r is not None]


def summarize_scan(records):
    """Counts per cell type plus the worst observed error probability."""
    out = {"count": len(records), "max_pe": 0.0, "argmax_seed": None, "by_type": {}}
    for r in records:
        out["by_type"][r.cell_type.name] = out["by_type"].get(r.cell_type.name, 0) + 1
        if r.pe > out["max_pe"]:
            out["max_pe"], out["argmax_seed"] = r.pe, r.seed
    return out


def mc_pe_oracle(basis, samples, seed=None):
    """Monte Carlo error rate of nearest-plane decoding, n <= 3.

    Samples uniformly in the rectangular decoding cell of the origin and
    counts how often some nonzero lattice point lies strictly closer than the
    origin. Any such competitor has norm at most twice the sampled point's,
    so enumerating lattice points out to twice the cell circumradius is
    exhaustive. Returns (estimate, binomial standard error).
    """
    V = as_basis(basis)
    n = V.shape[0]
    if n > 3:
        raise UnsupportedDimensionError("mc_pe_oracle covers n <= 3")
    if samples < 1:
        raise ValueError("samples must be positive")
    _, R = qr_upper(V)
    h = 0.5 * np.diag(R)
    radius = 2.0 * float(np.linalg.norm(h)) + 1e-9
    K = np.ceil(np.linalg.norm(np.linalg.inv(R), axis=1) * radius + 1e-9)
    U = _integer_box(K)
    P = U @ R.T
    keep = (np.einsum("ij,ij->i", P, P) <= radius * radius) & np.any(U != 0, axis=1)
    P = P[keep]
    norms2 = np.einsum("ij,ij->i", P, P)
    rng = np.random.default_rng(seed)
    errors = 0
    done = 0
    while done < samples:
        m = min(1 << 16, samples - done)
        X = rng.uniform(-1.0, 1.0, size=(m, n)) * h
        margin = (norms2[None, :] - 2.0 * (X @ P.T)).min(axis=1)
        errors += int(np.count_nonzero(margin < -1e-12))
        done += m
    p = errors / samples
    return p, float(np.sqrt(p * (1.0 - p) / samples))


__all__ = [
    "CellType",
    "FACET_COUNTS",
    "Pe3DResult",
    "ScanRecord",
    "classify_cell",
    "mc_pe_oracle",
    "pe_3d",
    "random_reduced_superbase",
    "relevant_vector_candidates",
    "scan_random",
    "summarize_scan",
    "voronoi_cell_3d",
    "voronoi_halfspaces",
    "voronoi_vertices_conorm_formula",
]
