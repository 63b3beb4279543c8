"""Voronoi cells of 3D lattices and the error rate of nearest-plane decoding.

The Voronoi cell of the origin is cut out by the bisectors of the 6 to 14
Voronoi-relevant vectors, which core's closest-point search finds for any
basis. Which of the five parallelohedron shapes appears is read off the zero
pattern of the six conorms of an obtuse superbase. The decoding error
probability is one minus the fraction of the cell volume captured by the
rectangular decoding cell, minimized over column orderings of the generator;
pe_3d builds the cell from the 14 superbase sums in the coefficient frame.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from .core import UnsupportedDimensionError, _relevant_vectors, _volume, as_basis, qr_upper
from .polytope import (
    VERTEX_TOL,
    assemble_polytopes,
    bisector_halfspaces,
    compact_rows,
    distinct_planes,
    normalize_halfspaces,
    plane_slack,
    polytope_from_halfspaces,
    solve_triples,
)
from .reduction import PAIR_ORDER_3D, ConormSet, Superbase, _obtuse_superbases


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


def voronoi_halfspaces(basis):
    """Bisector halfspaces {x : x.p <= p.p/2} of the Voronoi-relevant pairs +-p, one per facet.

    basis is a full-rank 3x3 generator, or a Superbase through its basis(). Each
    p is V c, c integer, from core's search on the columns sorted shortest first
    (the lattice, and so its relevant vectors, do not depend on their order).
    """
    V = as_basis(basis.basis() if isinstance(basis, Superbase) else basis)
    if V.shape != (3, 3):
        raise UnsupportedDimensionError("the 3D Voronoi cell needs a 3x3 generator")
    V = V[:, np.argsort(np.einsum("ij,ij->j", V, V), kind="stable")]
    return bisector_halfspaces(_relevant_vectors(qr_upper(V)[1], V))


def voronoi_cell_3d(basis):
    """Voronoi cell of the origin, cut by the planes of voronoi_halfspaces(basis).

    A Voronoi cell tiles space, so a volume more than a relative 1e-9 from |det V|
    raises FloatingPointError, as do relevant pairs that span no cell (core._relevant_vectors).
    """
    V = as_basis(basis.basis() if isinstance(basis, Superbase) else basis)
    cell = polytope_from_halfspaces(*voronoi_halfspaces(V))
    if not abs(cell.volume / _volume(V) - 1.0) <= 1e-9:
        raise FloatingPointError(f"Voronoi cell volume {cell.volume:.6g} is not |det V| = {_volume(V):.6g}")
    return cell


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
    """Parallelohedron type from the graph of nonzero conorms.

    The conorms c_ij label the six edges of the complete graph on the
    superbase labels 0..3; the cell type depends only on which edges carry a
    conorm above tol times the shortest squared norm (see
    ConormSet.zero_pattern; Conway & Sloane, "Low-dimensional lattices VI",
    Proc. R. Soc. A 436, 1992). No zero gives the truncated octahedron, one the
    hexa-rhombic dodecahedron; two zeros give the rhombic dodecahedron when
    they form a complementary pair and the hexagonal prism when they share a
    label; three zeros give the cuboid unless all three share one label.
    There, and for four or more zeros, the nonzero edges leave some label
    unconnected, the vectors of that part sum to 0, and ValueError is raised.
    """
    if not isinstance(c, ConormSet):
        c = ConormSet(np.asarray(c, dtype=float))
    zeros = [set(pair) for pair in c.zero_pattern(tol)]
    if len(zeros) < 2:
        return (CellType.TruncatedOctahedron, CellType.HexaRhombicDodecahedron)[len(zeros)]
    if len(zeros) == 2:
        if zeros[0].isdisjoint(zeros[1]):
            return CellType.RhombicDodecahedron
        return CellType.HexagonalPrism
    if len(zeros) == 3 and not set.intersection(*zeros):
        return CellType.Cuboid
    raise ValueError(
        f"conorm zero pattern {c.zero_pattern(tol)} does not describe a full-rank lattice"
    )


class Pe3DResult(NamedTuple):
    pe: float
    best_ordering: tuple
    per_ordering: dict


# orderings whose P_e lies within this of the minimum count as tied
ORDERING_TIE_TOL = 1e-14
ORDERINGS = tuple(permutations(range(3)))
_SUM_COEFFS = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=float
)


# the mirror map: cell plane i + 7 is cell plane i negated (K = [S; -S] signs),
# and box plane 14 + (m + 3) mod 6 is box plane 14 + m negated
_MIRROR = np.concatenate([np.arange(7, 14), np.arange(7), np.arange(17, 20), np.arange(14, 17)])
_MIRROR.flags.writeable = False


@cache
def _triple_tables():
    """Plane index triples of the 14 cell planes and the 6 box planes (14..19),
    one of each mirror pair.

    Box plane 14 + m bounds +(M P^T u)_m and 17 + m bounds -(M P^T u)_m, so
    two box planes are parallel exactly when their indices agree mod 3. No
    triple is its own mirror image; of a triple and its image, the one that
    sorts first is kept. Returns the cell triples (182 of 364), and the
    box-stage triples that do not depend on the cell (28 of 56): each cell
    plane with each edge (non-parallel pair) of the box planes 15, 16, 18, 19.
    Box row 0 (planes 14, 17) repeats a cell plane pair and is in no triple.
    """
    cell = np.array(list(combinations(range(14), 3)))
    edges = np.array([(14 + a, 14 + b) for a, b in combinations((1, 2, 4, 5), 2) if a % 3 != b % 3])
    fixed = np.column_stack([np.repeat(np.arange(14), len(edges)), np.tile(edges, (14, 1))])
    key = np.array([400, 20, 1])  # plane indices are below 20: keys sort triples lexicographically
    tables = tuple(t[t @ key < np.sort(_MIRROR[t], axis=1) @ key] for t in (cell, fixed))
    for table in tables:
        table.flags.writeable = False  # shared by every call through the cache
    return tables


def _pe_orderings(A, signs, orders):
    """P_e (L, k) of each column ordering of a stack of L Gram matrices A (L, 3, 3),
    in coefficients u (x = V u), given the obtuse superbase signs (L, 3).

    The 14 cell planes (A k).u <= k^T A k / 2 run over the superbase sums k
    with the obtuse signs; ordering p adds the box |(M P^T u)_m| <= 1/2 with
    M = L^T / diag(L), L = cholesky(A[p][:, p]). Cell and box both have
    volume 1 in u, so P_e = 1 - vol_u(cell & box). The L·k polytopes share
    one engine pass, and each lattice's values are those of a stack of one.

    Cell and box are centrally symmetric, and their planes come in exact
    +- pairs (_MIRROR). Negating a triple's three normals, in order, keeps
    its cofactors and offsets and negates det, so it solves to exactly -x;
    only one triple of each pair is solved, and assemble_polytopes mirrors
    the vertices and doubles the volume of one facet of each pair.
    """
    cell_triples, fixed_triples = _triple_tables()
    n = len(A)
    K = _SUM_COEFFS * signs[:, None, :]
    AK = K @ A
    Nc, cc = normalize_halfspaces(AK, 0.5 * np.einsum("lij,lij->li", AK, K))
    Nc, cc = np.concatenate([Nc, -Nc], axis=1), np.concatenate([cc, cc], axis=1)
    # cell vertices are shared by all orderings. A vertex on two cell planes
    # and one box plane lies on a cell edge or is a cell vertex, so only pairs
    # of cell planes through a common cell vertex need solving with box planes
    Xc, ok = solve_triples(Nc, cc, np.broadcast_to(cell_triples, (n,) + cell_triples.shape))
    slack = plane_slack(Nc, cc, Xc)
    ok &= (slack >= -VERTEX_TOL).all(axis=-1)
    ok, Xc, slack = compact_rows(ok, Xc, slack)
    touch = (ok[..., None] & (np.abs(slack) <= VERTEX_TOL)).astype(float)
    adjacent = touch.transpose(0, 2, 1) @ touch > 0
    # the mirror vertices -x touch the mirror planes
    adjacent |= adjacent[:, _MIRROR[:14, None], _MIRROR[:14]]
    adjacent = np.triu(adjacent, 1).reshape(n, -1)
    # each lattice's pairs in row-major order, padded with masked pairs, and
    # each pair with the box planes 15, 16 (the mirror triples bring 18, 19)
    live, flat = compact_rows(adjacent, np.broadcast_to(np.arange(14 * 14), adjacent.shape))
    pairs = np.repeat(np.stack(np.divmod(flat, 14), axis=-1), 2, axis=1)
    box = np.broadcast_to(np.tile(np.arange(15, 17), flat.shape[1])[:, None], pairs.shape[:2] + (1,))
    triples = np.concatenate([
        np.concatenate([pairs, box], axis=-1),
        np.broadcast_to(fixed_triples, (n,) + fixed_triples.shape),
    ], axis=1)
    solvable = np.hstack([np.repeat(live, 2, axis=1), np.ones((n, len(fixed_triples)), dtype=bool)])

    P = np.array(orders)
    k = len(P)
    L = np.linalg.cholesky(A[:, P[:, :, None], P[:, None, :]])
    M = L.swapaxes(-1, -2) / np.diagonal(L, axis1=-2, axis2=-1)[..., None]
    Nb = np.zeros((n, k, 3, 3))
    np.put_along_axis(Nb, np.broadcast_to(P[:, None, :], Nb.shape), M, axis=-1)
    Nb, cb = normalize_halfspaces(np.concatenate([Nb, -Nb], axis=-2), np.full((n, k, 6), 0.5))
    # polytope l * k + o is lattice l in ordering o
    N = np.concatenate([np.broadcast_to(Nc[:, None], (n, k, 14, 3)), Nb], axis=-2).reshape(-1, 20, 3)
    c = np.concatenate([np.broadcast_to(cc[:, None], (n, k, 14)), cb], axis=-1).reshape(-1, 20)
    # a box plane within GEOM_TOL of a cell plane is that plane: always for
    # box row 0, (A e_p0).u <= A_p0p0 / 2, kept only to be masked here and
    # solved in no triple, and at a conorm below GEOM_TOL, where dropping it
    # moves P_e by about the conorm
    keep = distinct_planes(N, c)
    triples = np.repeat(triples, k, axis=0)
    Xm, okm = solve_triples(N, c, triples)
    okm &= np.repeat(solvable, k, axis=0)
    okm &= keep[np.arange(n * k)[:, None, None], triples].all(axis=-1)
    X = np.concatenate([np.repeat(Xc, k, axis=0), Xm], axis=1)
    ok = np.hstack([np.repeat(ok, k, axis=0), okm])
    vol = assemble_polytopes(N, c, keep, X, ok, mirror=_MIRROR).volume.reshape(n, k)
    return np.clip(1.0 - vol, 0.0, 1.0)


def _frames(bases):
    """Gram matrices A (L, 3, 3), obtuse superbase signs (L, 3) and Selling
    matrices S (L, 4, 4) of L 3x3 generators, each scaled so that its first
    column has norm 1; one sign search serves the whole stack."""
    V = np.array([B / np.linalg.norm(B[:, 0]) for B in bases])
    _, S, signs = _obtuse_superbases(V)
    G = V.swapaxes(-1, -2) @ V
    return 0.5 * (G + G.swapaxes(-1, -2)), signs, S


def _pe_stack(bases, orders):
    """P_e (L, k) of L 3x3 generators in each column ordering, in one kernel pass."""
    A, signs, _ = _frames(bases)
    return _pe_orderings(A, signs, orders)


def _best_ordering(pes):
    """Index of the first ordering within ORDERING_TIE_TOL of the minimum."""
    return int(np.argmax(pes <= pes.min() + ORDERING_TIE_TOL))


def pe_3d(basis, search_orderings=True):
    """Nearest-plane error probability of a 3D generator, per column ordering.

    Works in the coefficient frame x = V u, where only A = V^T V matters and
    every ordering shares one Voronoi cell: the obtuse superbase is found
    once (on V scaled so its first column has norm 1), and each ordering adds
    its Babai box. P_e = 1 - vol_u(cell & box), computed for all orderings in
    one vectorized pass (a stack of one lattice). Returns the minimum, the
    ordering achieving it (the lexicographically first of those within
    ORDERING_TIE_TOL of the minimum), and the full per-ordering table.
    """
    V = as_basis(basis)
    if V.shape[0] != 3:
        raise UnsupportedDimensionError("pe_3d needs a 3x3 generator")
    orders = ORDERINGS if search_orderings else ((0, 1, 2),)
    pes = _pe_stack([V], orders)[0]
    per = {perm: float(pe) for perm, pe in zip(orders, pes)}
    best = orders[_best_ordering(pes)]
    return Pe3DResult(per[best], best, per)


def random_reduced_superbase(rng_seed=None, rng_range=(-4.0, 4.0), max_attempts=10**6):
    """Rejection-sample a generator {(1,0,0), (a,b,0), (c,d,e)} whose basis is
    Minkowski-reduced and whose superbase completion is obtuse as given.

    Entries are the rows a-e of uniform(lo, hi, (5, m)) over rng_range (hi > lo,
    a finite distance apart), in batches of m = 8,192; another batch size changes
    every basis. Returns (basis, attempts), fixed by the seed, or raises
    RuntimeError if none passes within max_attempts draws. Rows a-d are drawn in
    bulk and the conditions on a and c alone run first; row e is read word by
    word, through advance, where those on a-d pass.
    The batch test is Minkowski reduction and obtuseness with no slack (a11 = 1):
    a22 >= 1, a33 >= a22; a, c in [-1/2, 0] and 2|a23| <= a22 for the pairs;
    2(|a12| + |a13| + |a23|) <= 1 + a22 for all sign triples; a23 <= 0,
    a12 + a22 + a23 >= 0, a13 + a23 + a33 >= 0 (1 + a12 + a13 >= 0 follows)
    for the Selling parameters; |b e| > 1e-9 for full rank. is_minkowski_reduced
    and Superbase.is_obtuse allow relative slack, far above the rounding or two
    by which these Gram entries differ from V^T V, so every basis passes both.
    """
    lo, hi = rng_range
    if not (hi > lo and np.isfinite(hi - lo)):
        raise ValueError("need hi > lo, a finite distance apart")
    rng = np.random.default_rng(rng_seed)
    bits = rng.bit_generator  # PCG64 advances past words; others draw them, as does a PCG64 holding a 32-bit half
    skip = bits.advance if isinstance(bits, np.random.PCG64) and not bits.state["has_uint32"] else rng.random
    attempts = 0
    batch = 8192
    buf = np.empty(4 * batch)
    while attempts < max_attempts:
        m = min(batch, max_attempts - attempts)
        # rows a-d of uniform(lo, hi, (5, m)), which is lo + (hi - lo) u, mapped in place
        u = rng.random(out=buf[: 4 * m]).reshape(4, m)
        u *= hi - lo
        u += lo
        # a12 = a and a13 = c in [-1/2, 0], which implies 1 + a12 + a13 >= 0
        inside = (u[::2] >= -0.5) & (u[::2] <= 0.0)
        idx = (inside[0] & inside[1]).nonzero()[0]
        a12, bi, a13, di = abcd = u[:, idx]
        a22 = a12 * a12 + bi * bi
        a23 = a12 * a13 + bi * di
        ok = (
            (a22 >= 1.0)
            & (2.0 * np.abs(a23) <= a22)
            & (2.0 * (np.abs(a12) + np.abs(a13) + np.abs(a23)) <= 1.0 + a22)
            & (a23 <= 0.0)
            & (a12 + a22 + a23 >= 0.0)
        )
        # e where a-d pass, from its word of row e; the last tests (|b e| for flat samples) round as numpy's
        read = 0
        for i, x, b, y, d in zip(idx[ok].tolist(), *abcd[:, ok].tolist()):
            skip(i - read)
            e, read = lo + (hi - lo) * rng.random(), i + 1
            a33 = y * y + d * d + e * e
            if a33 >= x * x + b * b and y + (x * y + b * d) + a33 >= 0.0 and abs(b * e) > 1e-9:
                skip(m - read)
                return np.array([[1.0, x, y], [0.0, b, d], [0.0, 0.0, e]]), attempts + read
        skip(m - read)  # every batch starts where the full (5, m) draw would
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


def _reduced_basis_density(V):
    # v1 = (1, 0, 0) is a shortest vector of a sampled basis: packing radius 1/2
    return np.pi / 6.0 / _volume(V)


# sampled lattices per pe_3d kernel pass in scan_random. A stack shares the
# kernel's per-call cost and one sign search: stacks of 1 to 6 took about
# 1.4, 0.9, 0.8, 0.75, 0.7 and 0.75 ms per lattice (600 bases, 2-core
# machine), while the kernel's traced peak grows by 0.18 MB per lattice
# (0.93 MB at 5), against a peak-memory budget of about 2 MB for the scan
SCAN_STACK = 5


def _scan_sample(trial_seed, density_floor):
    """(seed, basis, density) of one trial, or None below the density floor."""
    V, _ = random_reduced_superbase(trial_seed)
    dens = _reduced_basis_density(V)
    return None if dens < density_floor else (int(trial_seed), V, dens)


def _scan_records(samples):
    """Scan records of a stack of samples, through one pe_3d kernel pass. A
    sampled basis has first column (1, 0, 0) and is obtuse as given, so its
    frame's S is the Selling matrix of Superbase.from_basis(V), bit for bit."""
    A, signs, S = _frames([V for _, V, _ in samples])
    pes = _pe_orderings(A, signs, ORDERINGS)
    i, j = np.transpose(PAIR_ORDER_3D)
    return [
        ScanRecord(
            selling=tuple(float(x) for x in p),
            density=float(dens),
            pe=float(pe[_best_ordering(pe)]),
            cell_type=classify_cell(np.maximum(-p, 0.0)),
            seed=seed,
        )
        for (seed, _, dens), pe, p in zip(samples, pes, S[:, i, j])
    ]


def _scan_one(trial_seed, density_floor):
    """The record of one trial, or None below the density floor."""
    sample = _scan_sample(trial_seed, density_floor)
    return None if sample is None else _scan_records([sample])[0]


def scan_random(trials, density_floor=0.4, seed=None):
    """Random-lattice scan: sample reduced bases, filter by packing density,
    record Selling parameters, density, cell type and minimal P_e.

    Each trial gets its own seed split from the master seed, so any record can
    be regenerated alone from its seed. Trials run in order; those that pass
    the floor go through the P_e kernel SCAN_STACK at a time, and the records
    come out in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if np.isnan(density_floor):
        raise ValueError("density_floor must be a number, got NaN")
    trial_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(trials)]
    records, stack = [], []
    for s in trial_seeds:
        sample = _scan_sample(s, density_floor)
        if sample is not None:
            stack.append(sample)
        if len(stack) == SCAN_STACK:
            records += _scan_records(stack)
            stack = []
    return records + (_scan_records(stack) if stack else [])


def summarize_scan(records):
    """Counts per cell type plus the worst observed error probability."""
    out = {"count": len(records), "max_pe": 0.0, "argmax_seed": None, "by_type": {}}
    for r in records:
        out["by_type"][r.cell_type.name] = out["by_type"].get(r.cell_type.name, 0) + 1
        if r.pe > out["max_pe"]:
            out["max_pe"], out["argmax_seed"] = r.pe, r.seed
    return out


# samples per Monte Carlo chunk; the (|P| x chunk) buffer holds at most one
# competitor per nonzero coset of L/2L, so at most 7 x 2**14 doubles (0.9 MB)
MC_CHUNK = 1 << 14


def _mc_competitors(R, h):
    """Rows p of R's frame that can beat the origin in the box |x_i| <= h_i, and |p|^2 (1 + 1e-12) / 2.

    Only a Voronoi-relevant vector can be nearer than the origin to a point
    of the cell, so p runs over core._relevant_vectors, one of each pair
    +-p. p is kept when its halfspace does not hold the whole box:
    sum_i |p_i| h_i (1 + 1e-15) > |p|^2 (1 + 1e-12) / 2, the 1e-15 covering
    the rounding of x.p.
    """
    P = _relevant_vectors(R)
    half = 0.5 * (np.einsum("ij,ij->i", P, P) * (1.0 + 1e-12))
    fires = np.abs(P) @ h * (1.0 + 1e-15) > half
    return P[fires], half[fires]


def mc_pe_oracle(basis, samples, seed=None):
    """Monte Carlo error rate of nearest-plane decoding, n <= 3.

    Samples uniformly in the rectangular decoding cell of the origin and
    counts how often some nonzero lattice point lies strictly closer than the
    origin. Only Voronoi-relevant vectors can be, and _mc_competitors keeps
    the relevant pairs whose halfspace the cell crosses, one vector of each
    pair +-p, from one closest-point search per coset of L/2L. x counts
    as nearer to p than to the origin when |x.p| > |p|^2 (1 + 1e-12) / 2,
    the same decision as |p|^2 (1 + 1e-12) - 2|x.p| < 0 in IEEE arithmetic:
    the relative margin keeps ties out at any scale, as does the search's
    relative tie window. With no competitor left (an orthogonal basis, n = 1)
    the estimate is 0 and nothing is drawn; relevant pairs that do not span
    R^n raise FloatingPointError. Otherwise samples are drawn and
    tested MC_CHUNK at a time in reused buffers; every double takes one
    word of the generator's stream, so the chunking does not change which
    points are drawn. A point is (u - 1/2) 2h for u from rng.random():
    numpy's rng.uniform(-1, 1) is -1 + 2u, equal to 2(u - 1/2) exactly, so
    the points keep the bits of rng.uniform(-1, 1) h.
    Returns (estimate, binomial standard error).
    """
    V = as_basis(basis)
    n = V.shape[0]
    if n > 3:
        raise UnsupportedDimensionError("mc_pe_oracle covers n <= 3")
    if samples < 1:
        raise ValueError("samples must be positive")
    _, R = qr_upper(V)
    h = 0.5 * np.diag(R)
    P, half = _mc_competitors(R, h)
    if not len(P):
        return 0.0, 0.0
    half = half[:, None]
    rng = np.random.default_rng(seed)
    chunk = min(MC_CHUNK, samples)
    buf, draws, scale = np.empty(len(P) * chunk), np.empty(n * chunk), np.tile(2.0 * h, chunk)
    errors = 0
    for start in range(0, samples, MC_CHUNK):
        k = n * min(MC_CHUNK, samples - start)
        X = rng.random(out=draws[:k])
        X -= 0.5
        X *= scale[:k]
        X = X.reshape(-1, n)
        # one row per competitor, so the test runs down contiguous rows
        dot = buf[: len(P) * len(X)].reshape(len(P), len(X))
        np.matmul(P, X.T, out=dot)
        np.abs(dot, out=dot)
        errors += int(np.count_nonzero((dot > half).any(axis=0)))
    p = errors / samples
    return p, float(np.sqrt(p * (1.0 - p) / samples))
