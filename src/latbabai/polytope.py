"""Convex polygon and polytope construction from halfspace descriptions.

Regions are {x : N x <= c} with unit row normals N. Vertices are enumerated
by solving all d-subsets of the bounding hyperplanes and keeping feasible
solutions; this is robust for the small systems used here (at most a few
dozen halfspaces) and keeps degenerate configurations explicit.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

GEOM_TOL = 1e-9


def normalize_halfspaces(normals, offsets):
    """Scale each constraint n.x <= c so that ||n|| = 1."""
    N = np.asarray(normals, dtype=float)
    c = np.asarray(offsets, dtype=float)
    lens = np.linalg.norm(N, axis=1)
    if np.any(lens < GEOM_TOL):
        raise ValueError("zero normal in halfspace list")
    return N / lens[:, None], c / lens


def _dedup(points, tol):
    """Merge points closer than tol, keeping first occurrences (stable)."""
    kept = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= tol for q in kept):
            kept.append(p)
    return np.array(kept) if kept else np.zeros((0, points.shape[1]))


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
    feas = np.all(pts @ N.T <= c[None, :] + tol, axis=1)
    return _dedup(pts[feas], tol)


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


def polygon_from_halfplanes(normals, offsets, tol=GEOM_TOL):
    """Intersect halfplanes {x : n.x <= c} into a convex polygon (possibly empty)."""
    N, c = normalize_halfspaces(normals, offsets)
    pts = _feasible_intersections(N, c, tol)
    if len(pts) < 3:
        return Polygon2D(vertices=pts.reshape(-1, 2))
    ctr = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - ctr[1], pts[:, 0] - ctr[0])
    return Polygon2D(vertices=pts[np.argsort(ang)])


def polygon_from_vertices(vertices):
    """Convex polygon from an unordered vertex cloud (sorted counterclockwise)."""
    pts = _dedup(np.asarray(vertices, dtype=float), GEOM_TOL)
    if len(pts) < 3:
        return Polygon2D(vertices=pts.reshape(-1, 2))
    ctr = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - ctr[1], pts[:, 0] - ctr[0])
    return Polygon2D(vertices=pts[np.argsort(ang)])


@dataclass(frozen=True)
class ConvexPolytope3D:
    """Bounded convex polytope: vertices plus facet cycles on its active planes.

    facets[i] is a tuple of vertex indices in cyclic order (counterclockwise
    seen from outside); facet_normals[i] and facet_offsets[i] give the
    supporting plane n.x = c with outward unit n.
    """

    vertices: np.ndarray
    facets: tuple
    facet_normals: np.ndarray
    facet_offsets: np.ndarray

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

    @property
    def halfspaces(self):
        """Facet planes as (normal, offset) pairs, outward normals."""
        return list(zip(self.facet_normals, self.facet_offsets))

    @property
    def volume(self):
        """Tetrahedral fan from the vertex centroid over triangulated facets.

        Facet cycles are counterclockwise from outside and the centroid is
        interior, so the signed tetrahedron volumes are all nonnegative.
        """
        if self.n_vertices < 4 or self.n_facets < 4:
            return 0.0
        ctr = self.vertices.mean(axis=0)
        total = 0.0
        for cyc in self.facets:
            P = self.vertices[list(cyc)] - ctr
            cr = np.cross(P[1:-1], P[2:])
            total += np.sum(cr @ P[0]) / 6.0
        return float(abs(total))

    def is_centrally_symmetric(self, tol=1e-7):
        P = self.vertices
        if len(P) == 0:
            return True
        d = np.linalg.norm(P[:, None, :] + P[None, :, :], axis=2)
        return bool(np.all(d.min(axis=1) <= tol))

    def contains(self, point, tol=GEOM_TOL):
        q = np.asarray(point, dtype=float)
        return bool(np.all(self.facet_normals @ q <= self.facet_offsets + tol))

    def validate(self, tol=1e-7):
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


def _order_cycle(points, normal):
    """Indices ordering coplanar points counterclockwise around their centroid."""
    ctr = points.mean(axis=0)
    ref = points[0] - ctr
    nrm = np.linalg.norm(ref)
    if nrm < GEOM_TOL:
        ref = points[1] - ctr
        nrm = np.linalg.norm(ref)
    t1 = ref / nrm
    t2 = np.cross(normal, t1)
    rel = points - ctr
    return np.argsort(np.arctan2(rel @ t2, rel @ t1))


def polytope_from_halfspaces(normals, offsets, tol=GEOM_TOL, face_tol=None):
    """Build the bounded polytope {x : n.x <= c}. Empty or flat input gives 0 volume.

    face_tol controls which vertices count as lying on a plane when facets are
    assembled; it defaults to a small multiple of the vertex merge tolerance.
    """
    N, c = normalize_halfspaces(normals, offsets)
    if face_tol is None:
        face_tol = 50.0 * tol
    # merge repeated planes (equal unit normal and offset): a duplicated
    # constraint would otherwise register the same facet twice below
    rows = np.hstack([N, c[:, None]])
    keep = []
    for i in range(len(rows)):
        if not any(np.abs(rows[i] - rows[j]).max() <= face_tol for j in keep):
            keep.append(i)
    N, c = N[keep], c[keep]
    verts = _feasible_intersections(N, c, tol)
    if len(verts) < 4:
        return ConvexPolytope3D(verts.reshape(-1, 3), (), np.zeros((0, 3)), np.zeros(0))
    # flatness check: genuine 3-polytope needs rank 3 vertex spread
    sv = np.linalg.svd(verts - verts.mean(axis=0), compute_uv=False)
    if sv[2] <= tol * max(1.0, sv[0]):
        return ConvexPolytope3D(verts, (), np.zeros((0, 3)), np.zeros(0))
    facets, fns, fcs = [], [], []
    slack = np.abs(verts @ N.T - c[None, :])
    for i in range(len(N)):
        on = np.flatnonzero(slack[:, i] <= face_tol)
        if len(on) < 3:
            continue  # redundant plane: touches at most an edge or vertex
        P = verts[on]
        spread = np.linalg.svd(P - P.mean(axis=0), compute_uv=False)
        if spread[1] <= tol * max(1.0, spread[0]):
            continue  # collinear contact
        facets.append(tuple(on[_order_cycle(P, N[i])]))
        fns.append(N[i])
        fcs.append(c[i])
    return ConvexPolytope3D(verts, tuple(facets), np.array(fns), np.array(fcs))


def intersect_polytopes(halfspaces_a, halfspaces_b, tol=GEOM_TOL):
    """Polytope of the combined halfspace systems (normals, offsets) pairs."""
    Na, ca = halfspaces_a
    Nb, cb = halfspaces_b
    return polytope_from_halfspaces(np.vstack([Na, Nb]), np.concatenate([ca, cb]), tol)


def box_halfspaces(half_widths):
    """Axis-aligned box |x_i| <= h_i as a halfspace system."""
    h = np.asarray(half_widths, dtype=float)
    d = len(h)
    eye = np.eye(d)
    return np.vstack([eye, -eye]), np.concatenate([h, h])
