"""Voronoi cells of 3D lattices and the error rate of nearest-plane decoding.

The Voronoi cell of the origin is cut out by the bisectors of the 6 to 14
Voronoi-relevant vectors, which core's closest-point search finds for any
basis. Which of the five parallelohedron shapes appears is read off the zero
pattern of the six conorms of an obtuse superbase. The decoding error
probability is one minus the fraction of the cell volume captured by the
rectangular decoding cell, minimized over column orderings of the generator;
pe_3d builds the cell from the 14 superbase sums in the coefficient frame and
reports that superbase's Selling parameters and cell type, as scan records do.
Its kernel has two routes: a cell of the generic type, with simple cuts,
takes the fixed vertices and edges of _cell_tables, solves only the box
triples that can be vertices and sums the volume at the vertices
(_pe_generic); any other cell solves every triple of _TRIPLES, masks those
that cannot be vertices and assembles its facets (_pe_orderings).
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
    _cross,
    assemble_polytopes,
    bisector_halfspaces,
    compact_rows,
    distinct_planes,
    normalize_halfspaces,
    plane_slack,
    polytope_from_halfspaces,
    solve_triples,
    vertex_volume,
)
from .reduction import PAIR_ORDER_3D, ConormSet, _obtuse_superbases, _superbases


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

    basis is a full-rank 3x3 generator. Each p is V c, c integer, from core's
    search on the columns sorted shortest first (the lattice, and so its
    relevant vectors, do not depend on their order).
    """
    V = as_basis(basis)
    if V.shape != (3, 3):
        raise UnsupportedDimensionError("the 3D Voronoi cell needs a 3x3 generator")
    V = V[:, np.argsort(np.einsum("ij,ij->j", V, V), kind="stable")]
    return bisector_halfspaces(_relevant_vectors(qr_upper(V)[1], V))


def voronoi_cell_3d(basis):
    """Voronoi cell of the origin, cut by the planes of voronoi_halfspaces(basis).

    A Voronoi cell tiles space, so a volume more than a relative 1e-9 from |det V|
    raises FloatingPointError, as do relevant pairs that span no cell (core._relevant_vectors).
    """
    V = as_basis(basis)
    cell = polytope_from_halfspaces(*voronoi_halfspaces(V))
    if not abs(cell.volume / _volume(V) - 1.0) <= 1e-9:
        raise FloatingPointError(f"Voronoi cell volume {cell.volume:.6g} is not |det V| = {_volume(V):.6g}")
    return cell


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
    selling: tuple  # Selling parameters of the kernel's obtuse superbase, in PAIR_ORDER_3D
    cell_type: CellType


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
# the box edges: pairs of non-parallel box planes (indices differing mod 3), leaving out box row 0
_BOX_EDGES = ((15, 16), (15, 19), (16, 18), (18, 19))


def _mirror_half(triples):
    """The triples that sort before their mirror image (no triple is its own)."""
    return [t for t in triples if t < tuple(sorted(_MIRROR[list(t)].tolist()))]


# the plane triples the kernel solves, one of each mirror pair and none through
# box row 0 (planes 14, 17: a cell plane pair): the cell triples (182 of 364);
# each cell plane pair, row-major, with box plane 15 and then 16; each cell
# plane with each box edge (28 of 56)
_TRIPLES = np.array(
    _mirror_half(combinations(range(14), 3))
    + [(f, g, b) for f, g in combinations(range(14), 2) for b in (15, 16)]
    + _mirror_half((f, a, b) for f in range(14) for a, b in _BOX_EDGES)
)
_TRIPLES.flags.writeable = False
_CELL_ROWS, _PAIR_ROWS, _FIXED_ROWS = slice(0, 182), slice(182, 364), slice(364, 392)


@cache
def _cell_tables():
    """The cell of a generic obtuse superbase as plane indices (Conway & Sloane,
    "Low-dimensional lattices VI", Proc. R. Soc. A 436, 1992).

    Cell plane i < 7 bisects the superbase sum over the labels of _SUM_COEFFS
    row i, a subset of {1, 2, 3}; plane i + 7 bisects the sum over its
    complement in {0, 1, 2, 3}. Each of the 24 orderings of the four labels
    gives a vertex, on the planes of the chain S1 < S2 < S3 of its first
    one, two and three labels, and the nested pairs S < T are the 36 edges.
    Returns the 12 chain triples of the cell rows of _TRIPLES (one of each
    mirror pair, in that table's order), the edges (36, 2) as plane pairs
    f < g in row-major order, and their endpoints (36, 2, 2) as (chain
    triple i, +1) for its vertex x or (i, -1) for the mirror vertex -x.
    """
    labels = [frozenset(int(j) + 1 for j in np.flatnonzero(row)) for row in _SUM_COEFFS]
    labels += [frozenset(range(4)) - s for s in labels]
    plane = {s: i for i, s in enumerate(labels)}
    chains = sorted(tuple(sorted(plane[frozenset(p[:m])] for m in (1, 2, 3))) for p in permutations(range(4)))
    half = np.array([t for t in _TRIPLES[_CELL_ROWS].tolist() if tuple(t) in chains])
    vertex = {tuple(t): (i, 1) for i, t in enumerate(half.tolist())}
    vertex |= {tuple(sorted(_MIRROR[t].tolist())): (i, -1) for i, t in enumerate(half.tolist())}
    nested = [(f, g) for f, g in combinations(range(14), 2) if labels[f] < labels[g] or labels[g] < labels[f]]
    edges = np.array(nested)
    ends = np.array([[vertex[t] for t in chains if f in t and g in t] for f, g in edges])
    for table in (half, edges, ends):
        table.flags.writeable = False
    return half, edges, ends


def _cell_planes(A, signs):
    """The 14 unit cell planes (L, 14, 3), (L, 14) of Gram matrices A with
    obtuse superbase signs: (A k).u <= k^T A k / 2 for k = _SUM_COEFFS rows
    times signs, then their mirrors -k."""
    K = _SUM_COEFFS * signs[:, None, :]
    AK = K @ A
    Nc, cc = normalize_halfspaces(AK, 0.5 * np.einsum("lij,lij->li", AK, K))
    return np.concatenate([Nc, -Nc], axis=1), np.concatenate([cc, cc], axis=1)


def _polytope_planes(A, Nc, cc):
    """The 20 unit planes (L k, 20, 3), (L k, 20) of each lattice in each of
    the k ORDERINGS: the cell planes, then box planes 14..19. Polytope
    l * k + o is lattice l in ordering o, whose box |(M P^T u)_m| <= 1/2 has
    M = L^T / diag(L), L = cholesky(A[p][:, p])."""
    P = np.array(ORDERINGS)
    n, k = len(A), len(P)
    L = np.linalg.cholesky(A[:, P[:, :, None], P[:, None, :]])
    M = L.swapaxes(-1, -2) / np.diagonal(L, axis1=-2, axis2=-1)[..., None]
    Nb = np.zeros((n, k, 3, 3))
    np.put_along_axis(Nb, np.broadcast_to(P[:, None, :], Nb.shape), M, axis=-1)
    Nb, cb = normalize_halfspaces(np.concatenate([Nb, -Nb], axis=-2), np.full((n, k, 6), 0.5))
    N = np.concatenate([np.broadcast_to(Nc[:, None], (n, k, 14, 3)), Nb], axis=-2).reshape(-1, 20, 3)
    c = np.concatenate([np.broadcast_to(cc[:, None], (n, k, 14)), cb], axis=-1).reshape(-1, 20)
    return N, c


def _pe_orderings(A, signs):
    """P_e (L, 6) in each of ORDERINGS of a stack of L Gram matrices A (L, 3, 3),
    in coefficients u (x = V u), given the obtuse superbase signs (L, 3).

    Each ordering's box (_polytope_planes) cuts the cell (_cell_planes).
    Cell and box both have volume 1 in u, so P_e = 1 - vol_u(cell & box).
    Each of the L·k polytopes solves all of _TRIPLES in one call: one triple
    of each +- pair (_MIRROR), since a triple with its normals negated solves
    to exactly -x and assemble_polytopes mirrors the vertices.
    A solved cell triple is a candidate vertex when it is feasible on the 14
    cell planes, a cell plane pair with a box plane when the pair meets at a cell
    vertex (else the two facets share no point); a pair or any other triple
    only through planes that distinct_planes keeps. Each lattice's values
    are those of a stack of one.
    """
    n, k = len(A), len(ORDERINGS)
    N, c = _polytope_planes(A, *_cell_planes(A, signs))
    # a box plane within GEOM_TOL of a cell plane is that plane: always box row
    # 0, (A e_p0).u <= A_p0p0 / 2, kept only to be masked here, and at a conorm
    # below GEOM_TOL, where dropping it moves P_e by about the conorm
    keep = distinct_planes(N, c)
    X, ok = solve_triples(N, c, _TRIPLES)
    # the cell rows solve alike in every ordering: test those of ordering 0
    slack = plane_slack(N[::k, :14], c[::k, :14], X[::k, _CELL_ROWS])
    cell = ok[::k, _CELL_ROWS] & (slack >= -VERTEX_TOL).all(axis=-1)
    touch = (cell[..., None] & (np.abs(slack) <= VERTEX_TOL)).astype(float)
    adjacent = touch.transpose(0, 2, 1) @ touch > 0
    # the mirror vertices -x touch the mirror planes
    adjacent |= adjacent[:, _MIRROR[:14, None], _MIRROR[:14]]
    pairs = adjacent.reshape(n, -1)[:, _TRIPLES[_PAIR_ROWS, :2] @ [14, 1]]
    ok[:, : _PAIR_ROWS.stop] &= np.repeat(np.hstack([cell, pairs]), k, axis=0)
    ok[:, _PAIR_ROWS.start :] &= keep[:, _TRIPLES[_PAIR_ROWS.start :]].all(axis=-1)
    ok, X = compact_rows(ok, X)
    vol = assemble_polytopes(N, c, keep, X, ok, mirror=_MIRROR).volume.reshape(n, k)
    return np.clip(1.0 - vol, 0.0, 1.0)


# a box-stage triple is solved when its vertex can lie within this of the cut
_SELECT_TOL = 1e-9


@cache
def _box_stage_tables():
    """The box-stage triples of _pe_generic and where its selection reads.

    Returns the 100 triples: the _PAIR_ROWS of _TRIPLES on an edge of
    _cell_tables (box plane 15, then 16, in edge order; the mirror triples
    bring 18, 19), then its 28 _FIXED_ROWS; the index (36, 2, 2) of each
    edge endpoint's slack at box planes 15 and 16 into a flattened (12, 20)
    slack table of the chain vertices, where -x has at plane q the slack of
    x at _MIRROR[q]; and the index (28,) of each _FIXED_ROWS triple (cell
    plane f, box edge a-b) into a flattened (4, 14) table of the _BOX_EDGES
    lines against the cell planes.
    """
    _, edges, ends = _cell_tables()
    pairs, fixed = _TRIPLES[_PAIR_ROWS], _TRIPLES[_FIXED_ROWS]
    box = np.array([15, 16])
    triples = np.concatenate([pairs[np.isin(pairs[:, :2] @ [14, 1], edges @ [14, 1])], fixed])
    at = ends[:, None, :, 0] * 20 + np.where(ends[:, None, :, 1] > 0, box[:, None], _MIRROR[box][:, None])
    clip = np.array([_BOX_EDGES.index((a, b)) * 14 + f for f, a, b in fixed.tolist()])
    for table in (triples, at, clip):
        table.flags.writeable = False
    return triples, at, clip


def _cell_template(Nc, cc):
    """The vertices (L, 12, 3) of the chain triples of _cell_tables on the
    cell planes of L lattices, and a mask (L,) of the cells they describe:
    all 12 triples solve and each vertex has slack above VERTEX_TOL at the
    11 cell planes it is not on, so that these (and their mirrors) are the
    cell's only vertices and the cell is simple."""
    chains = _cell_tables()[0]
    X, ok = solve_triples(Nc, cc, np.broadcast_to(chains, (len(Nc),) + chains.shape))
    own = (chains[..., None] == np.arange(14)).any(axis=1)
    return X, ok.all(axis=1) & ((plane_slack(Nc, cc, X) > VERTEX_TOL) | own).all(axis=(1, 2))


def _enter_leave(N, c):
    """Mask (B, 4, 14) of the cell planes where each _BOX_EDGES line enters
    or leaves the cell, within _SELECT_TOL along the line.

    The line is x0 + t e with |e| = 1; cell plane f bounds t at
    (c_f - n_f.x0) / (n_f.e), from below where n_f.e < 0, and the line's
    interval in the cell runs from the largest lower bound to the smallest
    upper one.
    """
    a, b = np.transpose(_BOX_EDGES)
    e = _cross(N[:, a], N[:, b])
    ee = np.einsum("...d,...d->...", e, e)[..., None]
    x0 = (c[:, a, None] * _cross(N[:, b], e) + c[:, b, None] * _cross(e, N[:, a])) / ee
    e /= np.sqrt(ee)
    Ncell = N[:, :14].swapaxes(-1, -2)
    rate = e @ Ncell
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (c[:, None, :14] - x0 @ Ncell) / rate
    lo = np.where(rate < 0, t, -np.inf).max(axis=-1, keepdims=True)
    hi = np.where(rate > 0, t, np.inf).min(axis=-1, keepdims=True)
    return ((rate < 0) & (t >= lo - _SELECT_TOL)) | ((rate > 0) & (t <= hi + _SELECT_TOL))


def _pe_generic(A, signs):
    """P_e (L, 6) as in _pe_orderings for the lattices whose cell has the
    generic type and whose six cut polytopes are simple, and a mask (L,) of
    those lattices; the other rows of P_e are unset.

    Lattices whose _cell_template fails leave before the box stage. For the
    others, a vertex of cell & box is a cell vertex, a cell edge crossing a
    box plane, or a box edge line entering or leaving the cell, so only
    those box-stage triples are solved, in one call: an edge with a box
    plane when its endpoints' slacks there straddle 0 within _SELECT_TOL,
    and a _FIXED_ROWS triple when its cell plane is where its box
    edge line enters or leaves the cell (_enter_leave). vertex_volume holds
    only for simple polytopes, so a lattice also leaves when some
    ordering's polytope has a feasible vertex within VERTEX_TOL of a kept
    plane outside its triple, or V vertices on F planes with
    F != 2 + V / 2 (Euler's relation for a simple polytope).
    """
    chains = _cell_tables()[0]
    triples, at, clip = _box_stage_tables()
    n, k = len(A), len(ORDERINGS)
    pes = np.empty((n, k))
    Nc, cc = _cell_planes(A, signs)
    Xv, done = _cell_template(Nc, cc)
    if not done.any():
        return pes, done
    N, c = _polytope_planes(A[done], Nc[done], cc[done])
    keep = distinct_planes(N, c)
    Xv = np.repeat(Xv[done], k, axis=0)
    Sv = plane_slack(N, c, Xv)
    B = len(N)
    # the slacks of each edge's two endpoints at box planes 15 and 16
    straddle = Sv.reshape(B, -1)[:, at]
    straddle = (straddle.min(axis=-1) <= _SELECT_TOL) & (straddle.max(axis=-1) >= -_SELECT_TOL)
    select = np.hstack([straddle.reshape(B, -1), _enter_leave(N, c).reshape(B, -1)[:, clip]])
    select &= keep[:, triples].all(axis=-1)
    select, triples = compact_rows(select, np.broadcast_to(triples, (B,) + triples.shape))
    Xb, okb = solve_triples(N, c, triples)
    # the cell vertices, then the box-stage vertices in table order
    X = np.concatenate([Xv, Xb], axis=1)
    triples = np.concatenate([np.broadcast_to(chains, (B,) + chains.shape), triples], axis=1)
    slack = np.concatenate([Sv, plane_slack(N, c, Xb)], axis=1)
    feas = np.hstack([np.ones(Xv.shape[:2], dtype=bool), okb & select])
    feas &= ((slack >= -VERTEX_TOL) | ~keep[:, None]).all(axis=-1)
    on = (triples[..., None] == np.arange(20)).any(axis=-2)
    simple = ~(feas[..., None] & keep[:, None] & ~on & (np.abs(slack) <= VERTEX_TOL)).any(axis=(1, 2))
    touched = (on & feas[..., None]).any(axis=1)
    touched |= touched[:, _MIRROR]
    simple &= touched.sum(axis=1) == 2 + feas.sum(axis=1)
    vol = 2.0 * vertex_volume(N, c, X, triples, feas)
    pes[done] = np.clip(1.0 - vol, 0.0, 1.0).reshape(-1, k)
    done[done] = simple.reshape(-1, k).all(axis=1)
    return pes, done


def _frames(bases):
    """Gram matrices A (L, 3, 3) of L 3x3 generators, each scaled so that its
    first column has norm 1, the obtuse superbase signs (L, 3) that one sign
    search finds for the stack, and each superbase's Selling parameters
    (PAIR_ORDER_3D, in the generators' units: 0 or +-inf outside the double
    range) and cell type, read after a power-of-two scale to max |V_ij| in
    [1/2, 1) that also keeps every norm and Gram entry in range."""
    e = np.frexp(np.abs(bases).max(axis=(1, 2)))[1]
    W = np.ldexp(bases, -e[:, None, None])
    V = np.array([B / np.linalg.norm(B[:, 0]) for B in W])
    signs = _obtuse_superbases(V)[2]
    G = V.swapaxes(-1, -2) @ V
    i, j = np.transpose(PAIR_ORDER_3D)
    S = _superbases(W, signs)[1][:, i, j]
    with np.errstate(over="ignore"):
        selling = np.ldexp(S, 2 * e[:, None])
    cells = [(tuple(float(x) for x in p), classify_cell(np.maximum(-q, 0.0))) for p, q in zip(selling, S)]
    return 0.5 * (G + G.swapaxes(-1, -2)), signs, cells


def _pe_stack(bases):
    """P_e (L, 6) of L 3x3 generators in each of ORDERINGS, and the Selling
    parameters (PAIR_ORDER_3D) and cell type of the obtuse superbase the
    kernel used for each.

    Each lattice takes one of two routes, chosen from its geometry: the
    lattices whose cell has the generic type and whose cut polytopes are
    simple, every sampled basis among them, go through _pe_generic; the
    rest, the zero-conorm cells among them, through _pe_orderings in one
    stack. Either way a lattice's values are those of a stack of one.
    """
    A, signs, cells = _frames(bases)
    pes, done = _pe_generic(A, signs)
    if not done.all():
        pes[~done] = _pe_orderings(A[~done], signs[~done])
    return pes, cells


def _best_ordering(pes):
    """Index of the first ordering within ORDERING_TIE_TOL of the minimum."""
    return int(np.argmax(pes <= pes.min() + ORDERING_TIE_TOL))


def pe_3d(basis):
    """Nearest-plane error probability of a 3D generator, per column ordering.

    Works in the coefficient frame x = V u, where only A = V^T V matters and
    every ordering shares one Voronoi cell: the obtuse superbase is found
    once (on V scaled so its first column has norm 1), and each ordering adds
    its Babai box. P_e = 1 - vol_u(cell & box), computed for all orderings in
    one vectorized pass (a stack of one lattice). Returns the minimum, the
    ordering achieving it (the lexicographically first of those within
    ORDERING_TIE_TOL of the minimum), the full per-ordering table, and the
    Selling parameters (in PAIR_ORDER_3D and V's units, unclamped) and cell
    type of the obtuse superbase that cut the cell.
    """
    V = as_basis(basis)
    if V.shape[0] != 3:
        raise UnsupportedDimensionError("pe_3d needs a 3x3 generator")
    (pes,), (cell,) = _pe_stack([V])
    per = {perm: float(pe) for perm, pe in zip(ORDERINGS, pes)}
    best = ORDERINGS[_best_ordering(pes)]
    return Pe3DResult(per[best], best, per, *cell)


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
# kernel's per-call cost and one sign search: on the generic route, stacks
# of 1 to 6 took about 1.3, 0.74, 0.53, 0.45, 0.40 and 0.36 ms per lattice
# (600 bases, 2-core machine), and the traced peak grows by about 0.1 MB per
# lattice (0.51 MB at 5), against a peak-memory budget of about 2 MB for the scan
SCAN_STACK = 5


def _scan_sample(trial_seed, density_floor):
    """(seed, basis, density) of one trial, or None below the density floor."""
    V, _ = random_reduced_superbase(trial_seed)
    dens = _reduced_basis_density(V)
    return None if dens < density_floor else (int(trial_seed), V, dens)


def _scan_records(samples):
    """Scan records of a stack of samples, through one pe_3d kernel pass."""
    pes, cells = _pe_stack([V for _, V, _ in samples])
    return [
        ScanRecord(selling, float(dens), float(pe[_best_ordering(pe)]), cell_type, seed)
        for (seed, _, dens), pe, (selling, cell_type) in zip(samples, pes, cells)
    ]


def scan_random(trials, density_floor=0.4, seed=None):
    """Random-lattice scan: sample reduced bases, filter by packing density,
    record Selling parameters, density, cell type and minimal P_e.

    Each trial gets its own seed split from the master seed, so any record can
    be regenerated alone from its seed. Trials run in order; those that pass
    the floor go through the P_e kernel SCAN_STACK at a time, and the records
    come out in trial order. A NaN or +inf floor raises ValueError; -inf
    keeps every trial.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if np.isnan(density_floor):
        raise ValueError("density_floor must be a number, got NaN")
    if density_floor == np.inf:
        raise ValueError("density_floor +inf keeps no trial")
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
    # scaled by a power of two to max |V_ij| in [1/2, 1): no bit moves, and R's squares stay in range
    _, R = qr_upper(np.ldexp(V, -np.frexp(np.abs(V).max())[1]))
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
