"""Convex polygons and polytopes from halfspace descriptions.

Regions are {x : N x <= c} with unit row normals N. In 3D one engine builds
every polytope, for `polytope_from_halfspaces` and for `error3d.pe_3d`, and
it works on stacks of polytopes at once:

- `solve_triples` finds the vertex of each triple of planes, named by an
  index table into each polytope's plane list, by Cramer's rule on the
  cofactors, then takes one refinement step on the residual with the same
  cofactors; triples with |det| <= 1e-10 are masked as singular;
- `first_copies` keeps the first of any rows (points, or planes as rows
  (n, c)) that agree within a tolerance in every coordinate;
- `compact_rows` moves the marked entries of each row to the front;
- `assemble_polytopes` keeps the candidates that satisfy every plane within
  VERTEX_TOL (tested a few polytopes at a time), merges those within
  VERTEX_TOL in every coordinate, sorts each plane's vertices (those within
  VERTEX_TOL of it) by angle about their centroid, which gives the facet
  cycles, and sums the volume as sum_f c_f area_f / 3. Given a mirror map
  of the planes, it takes one candidate of each +-x pair and builds one
  facet of each pair (centrally symmetric polytopes, as in pe_3d).

The tolerance is absolute, so `polytope_from_halfspaces` scales the
offsets to max |c| = 1 before it calls the engine and gives the same answer
at any scale. In 2D the pairs of halfplanes are solved directly, with the
offsets scaled by a power of two, and merged with the same `first_copies`.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

GEOM_TOL = 1e-9
# a vertex satisfies a unit plane, or lies on it, within this slack, and
# feasible vertices closer than this in every coordinate are one vertex.
# A tolerance near GEOM_TOL would put a vertex on both of two planes that
# differ by about as much (a box plane next to a cell plane at a near-zero
# conorm) and count the facet twice; a tighter merge keeps apart copies of
# a vertex solved from nearly parallel planes (about 1e-13 apart on a cell
# 1000 times longer than wide)
VERTEX_TOL = 1e-12
# polytopes per feasibility test: a slice's slack array is (slice, candidates,
# planes), while only the compacted feasible rows (32 after mirroring the
# 112 candidates of a sampled pe_3d polytope) need slack after it
FEASIBILITY_SLICE = 4


def normalize_halfspaces(normals, offsets):
    """Scale each constraint n.x <= c so that ||n|| = 1 (normals on the last axis).

    A normal within rounding (machine epsilon) of zero, relative to the
    longest one of its list (the second-to-last axis), counts as zero; pe_3d's
    planes (A k) in the coefficient frame span the square of the basis's
    aspect ratio.
    """
    N = np.asarray(normals, dtype=float)
    c = np.asarray(offsets, dtype=float)
    lens = np.linalg.norm(N, axis=-1)
    if np.any(lens <= np.finfo(float).eps * lens.max(axis=-1, keepdims=True, initial=0.0)):
        raise ValueError("zero normal in halfspace list")
    return N / lens[..., None], c / lens


def first_copies(X, tol):
    """Mask of the rows X[..., i, :] with no earlier row within tol in every coordinate."""
    close = np.ones(X.shape[:-1] + X.shape[-2:-1], dtype=bool)
    for d in range(X.shape[-1]):
        close &= np.abs(X[..., :, None, d] - X[..., None, :, d]) <= tol
    return ~np.tril(close, -1).any(axis=-1)


def distinct_planes(N, c):
    """Mask of the unit planes (N[..., i, :], c[..., i]) that repeat no earlier plane."""
    return first_copies(np.concatenate([N, c[..., None]], axis=-1), GEOM_TOL)


def _feasible_intersections(N, c, tol):
    """Solve all d-subsets of constraints, keep points satisfying every constraint."""
    k, d = N.shape
    idx = np.array(list(combinations(range(k), d)))
    M = N[idx]
    rhs = c[idx]
    dets = np.abs(np.linalg.det(M))
    ok = dets > 1e-10
    if not np.any(ok):
        return np.zeros((0, d))
    pts = np.linalg.solve(M[ok], rhs[ok][..., None])[..., 0]
    pts = pts[np.all(pts @ N.T <= c[None, :] + tol, axis=1)]
    return pts[first_copies(pts, tol)]


@dataclass(frozen=True)
class Polygon2D:
    """Convex polygon with counterclockwise vertices."""

    vertices: np.ndarray

    @property
    def area(self):
        P = self.vertices
        if len(P) < 3:
            return 0.0
        x, y = P[:, 0], P[:, 1]
        return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def contains(self, point, tol=GEOM_TOL):
        P = self.vertices
        if len(P) < 3:
            return False
        q = np.asarray(point, dtype=float)
        nxt = np.roll(P, -1, axis=0)
        edge = nxt - P
        rel = q[None, :] - P
        cross = edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0]
        return bool(np.all(cross >= -tol))


def _counterclockwise(pts):
    if len(pts) < 3:
        return Polygon2D(vertices=pts.reshape(-1, 2))
    ctr = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - ctr[1], pts[:, 0] - ctr[0])
    return Polygon2D(vertices=pts[np.argsort(ang)])


def polygon_from_halfplanes(normals, offsets, tol=GEOM_TOL):
    """Intersect halfplanes {x : n.x <= c} into a convex polygon (possibly empty).

    The offsets are scaled by a power of two to max |c| in [1/2, 1), which is
    exact, so the absolute tol acts the same at any scale.
    """
    N, c = normalize_halfspaces(normals, offsets)
    scale = 2.0 ** np.frexp(np.abs(c).max(initial=0.0))[1]
    poly = _counterclockwise(_feasible_intersections(N, c / scale, tol))
    return Polygon2D(vertices=poly.vertices * scale)


def polygon_from_vertices(vertices):
    """Convex polygon from an unordered vertex cloud (sorted counterclockwise)."""
    pts = np.asarray(vertices, dtype=float)
    return _counterclockwise(pts[first_copies(pts, GEOM_TOL)])


def solve_triples(N, c, triples):
    """Vertices of plane triples and a solvable mask, for a stack of plane lists.

    N (B, P, 3) and c (B, P) hold the planes n.x = c of polytope b; row
    triples[b, t] names the three planes whose vertex is x[b, t]. Cramer's
    rule on the cofactors n_1 x n_2 etc., then one refinement step on the
    residual with the same cofactors. Near-singular triples are masked.
    The plane rows are gathered here, one plane at a time, and dropped once
    the residual is known, so no (B, T, 3, 3) stack of normals is built.
    """
    b = np.arange(len(N))[:, None]
    n0, n1, n2 = (N[b, triples[..., j]] for j in range(3))
    C0, C1, C2 = _cross(n1, n2), _cross(n2, n0), _cross(n0, n1)
    det = np.einsum("...d,...d->...", n0, C0)
    ok = np.abs(det) > 1e-10
    det = np.where(ok, det, 1.0)[..., None]
    c0, c1, c2 = (c[b, triples[..., j]] for j in range(3))
    x = _combine(c0, c1, c2, C0, C1, C2, det)
    # the residuals c_j - n_j.x overwrite the gathered offsets
    c0 -= np.einsum("...d,...d->...", n0, x)
    c1 -= np.einsum("...d,...d->...", n1, x)
    c2 -= np.einsum("...d,...d->...", n2, x)
    del n0, n1, n2
    x += _combine(c0, c1, c2, C0, C1, C2, det)
    return x, ok


def _cross(u, v):
    """Cross products of 3-vectors on the last axis, bit-identical to np.cross
    (the same products and differences) without its axis handling."""
    out = np.empty(np.broadcast_shapes(u.shape, v.shape))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(u[..., i], v[..., j], out=out[..., k])
        out[..., k] -= u[..., j] * v[..., i]
    return out


def _combine(w0, w1, w2, C0, C1, C2, det):
    """(w0 C0 + w1 C1 + w2 C2) / det, accumulated in place."""
    out = w0[..., None] * C0
    out += w1[..., None] * C1
    out += w2[..., None] * C2
    out /= det
    return out


class Assembly(NamedTuple):
    """Stacked polytopes built by assemble_polytopes.

    Polytope o has the vertices X[o][is_vertex[o]]; cycles[o, f, :sizes[o, f]]
    lists the indices into X[o] of the vertices on facet plane f (every
    plane, or one of each mirror pair), counterclockwise seen from outside.
    """

    X: np.ndarray
    is_vertex: np.ndarray
    cycles: np.ndarray
    sizes: np.ndarray
    volume: np.ndarray


def plane_slack(N, c, X):
    """Slack c_p - n_p.x of every point x in X[o] at every plane p of polytope o."""
    slack = X @ N.transpose(0, 2, 1)
    return np.subtract(c[:, None, :], slack, out=slack)


def compact_rows(mask, *arrays):
    """Move the True entries of each row of mask (B, n) to the front, in order,
    padded to the longest row; returns the compacted mask and arrays, each
    gathered the same way along its axis 1."""
    idx = np.argsort(~mask, axis=1, kind="stable")[:, : int(mask.sum(axis=1).max(initial=0))]
    gathered = [np.take_along_axis(a, idx.reshape(idx.shape + (1,) * (a.ndim - 2)), axis=1) for a in arrays]
    return [np.take_along_axis(mask, idx, axis=1)] + gathered


def assemble_polytopes(N, c, keep, X, ok, mirror=None):
    """Vertices, facet cycles and volumes of the polytopes {x : N[o] x <= c[o]}.

    N, c hold unit planes (k, p, 3) and (k, p); keep masks the planes that
    count (a duplicate of an earlier plane neither bounds nor carries a
    facet; its twin does). X[o] holds candidate vertices and ok marks those
    that solve a triple. Candidates that satisfy every kept plane within
    VERTEX_TOL (tested FEASIBILITY_SLICE polytopes at a time) are compacted
    to the front and merged within VERTEX_TOL, and only they get their slack
    at every facet plane; each plane's vertices are sorted by angle about
    their centroid, and the volume is sum_f c_f area_f / 3.

    mirror, a permutation of the p planes, declares every polytope centrally
    symmetric: plane mirror[q] is plane q negated, bit for bit, and keep is
    mirror-invariant. X then holds one candidate of each +-x pair. The slack
    of -x at mirror[q] is that of x at q, so only X is tested; the rows
    [X, -X] are compacted together, so that no polytope's row layout depends
    on its stack partners. Facets come in +- pairs of equal area: only the
    planes q < mirror[q] carry facets, and the volume is twice their sum.
    """
    feas = np.empty(ok.shape, dtype=bool)
    for s in range(0, len(X), FEASIBILITY_SLICE):
        part = slice(s, s + FEASIBILITY_SLICE)
        slack = plane_slack(N[part], c[part], X[part])
        feas[part] = ok[part] & ((slack >= -VERTEX_TOL) | ~keep[part, None, :]).all(axis=-1)
    if mirror is not None:
        X = np.concatenate([X, -X], axis=1)
        feas = np.hstack([feas, feas])
        facets = np.flatnonzero(np.arange(N.shape[1]) < mirror)
        N, c, keep = N[:, facets], c[:, facets], keep[:, facets]
    feas, X = compact_rows(feas, X)
    slack = plane_slack(N, c, X)
    feas &= first_copies(X, VERTEX_TOL)
    on = (feas[:, :, None] & (np.abs(slack) <= VERTEX_TOL) & keep[:, None, :]).transpose(0, 2, 1)
    # in-plane coordinates (t1, t2) with t1 x t2 = n, so counterclockwise is positive
    t1 = _cross(N, np.eye(3)[np.argmin(np.abs(N), axis=-1)])
    t1 /= np.linalg.norm(t1, axis=-1)[..., None]
    t2 = _cross(N, t1)
    a = t1 @ X.transpose(0, 2, 1)
    b = t2 @ X.transpose(0, 2, 1)
    sizes = on.sum(axis=-1)
    count = np.maximum(sizes, 1)[..., None]
    a -= (a * on).sum(axis=-1)[..., None] / count
    b -= (b * on).sum(axis=-1)[..., None] / count
    order = np.argsort(np.where(on, np.arctan2(b, a), 4.0), axis=-1)
    on = np.take_along_axis(on, order, axis=-1)
    a = np.take_along_axis(a, order, axis=-1)
    b = np.take_along_axis(b, order, axis=-1)
    # padding repeats the first vertex, which closes the cycle at zero area
    a = np.where(on, a, a[..., :1])
    b = np.where(on, b, b[..., :1])
    area = 0.5 * (a * np.roll(b, -1, axis=-1) - np.roll(a, -1, axis=-1) * b).sum(axis=-1)
    volume = (c * area / 3.0).sum(axis=-1)
    return Assembly(X, feas, order, sizes, volume if mirror is None else 2.0 * volume)


@dataclass(frozen=True)
class ConvexPolytope3D:
    """Bounded convex polytope: vertices plus facet cycles on its active planes.

    facets[i] is a tuple of vertex indices in cyclic order (counterclockwise
    seen from outside); facet_normals[i] and facet_offsets[i] give the
    supporting plane n.x = c with outward unit n. volume is the engine's
    sum_f c_f area_f / 3.
    """

    vertices: np.ndarray
    facets: tuple
    facet_normals: np.ndarray
    facet_offsets: np.ndarray
    volume: float

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_facets(self):
        return len(self.facets)

    @property
    def edges(self):
        es = set()
        for cyc in self.facets:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                es.add((min(a, b), max(a, b)))
        return sorted(es)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_facets

    def is_centrally_symmetric(self, tol=1e-7):
        P = self.vertices
        if len(P) == 0:
            return True
        d = np.linalg.norm(P[:, None, :] + P[None, :, :], axis=2)
        return bool(np.all(d.min(axis=1) <= tol))

    def contains(self, point, tol=GEOM_TOL):
        q = np.asarray(point, dtype=float)
        return bool(np.all(self.facet_normals @ q <= self.facet_offsets + tol))

    def validate(self):
        """Structural checks: closed surface and Euler characteristic 2."""
        if self.n_vertices < 4:
            raise ValueError("degenerate polytope")
        counts = {}
        for cyc in self.facets:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                e = (min(a, b), max(a, b))
                counts[e] = counts.get(e, 0) + 1
        if any(v != 2 for v in counts.values()):
            raise ValueError("facet cycles do not close up: some edge count != 2")
        if self.euler_characteristic != 2:
            raise ValueError(f"Euler characteristic {self.euler_characteristic} != 2")
        return True


def polytope_from_halfspaces(normals, offsets):
    """Build the bounded polytope {x : n.x <= c}. Empty or flat input gives 0 volume.

    The offsets are scaled to max |c| = 1, repeated planes count once, and
    the engine runs as a batch of one over all triples of the remaining
    planes. A plane with at least three vertices carries a facet; a flat
    polytope has some plane through all of its vertices.
    """
    N, c = normalize_halfspaces(normals, offsets)
    scale = np.abs(c).max(initial=0.0) or 1.0
    c = c / scale
    distinct = distinct_planes(N, c)
    N, c = N[distinct], c[distinct]
    idx = np.array(list(combinations(range(len(N)), 3)), dtype=int).reshape(1, -1, 3)
    X, ok = solve_triples(N[None], c[None], idx)
    asm = assemble_polytopes(N[None], c[None], np.ones((1, len(N)), dtype=bool), X, ok)
    is_vertex, sizes = asm.is_vertex[0], asm.sizes[0]
    verts = asm.X[0][is_vertex] * scale
    if len(verts) < 4 or (sizes == len(verts)).any():
        return ConvexPolytope3D(verts, (), np.zeros((0, 3)), np.zeros(0), 0.0)
    faces = np.flatnonzero(sizes >= 3)
    renumber = np.cumsum(is_vertex) - 1
    facets = tuple(tuple(renumber[asm.cycles[0, f, : sizes[f]]].tolist()) for f in faces)
    return ConvexPolytope3D(verts, facets, N[faces], c[faces] * scale, float(asm.volume[0]) * scale**3)


def intersect_polytopes(halfspaces_a, halfspaces_b):
    """Polytope of the combined halfspace systems (normals, offsets) pairs."""
    Na, ca = halfspaces_a
    Nb, cb = halfspaces_b
    return polytope_from_halfspaces(np.vstack([Na, Nb]), np.concatenate([ca, cb]))


def bisector_halfspaces(P):
    """The halfspaces {x : x.p <= p.p/2} nearer the origin than p, for the rows p of [P; -P]."""
    N = np.vstack([P, -P])
    return N, 0.5 * np.einsum("ij,ij->i", N, N)


def box_halfspaces(half_widths):
    """Axis-aligned box |x_i| <= h_i as a halfspace system."""
    h = np.asarray(half_widths, dtype=float)
    d = len(h)
    eye = np.eye(d)
    return np.vstack([eye, -eye]), np.concatenate([h, h])
