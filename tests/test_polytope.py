from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latbabai.polytope import (
    Polygon2D,
    _cross,
    box_halfspaces,
    intersect_polytopes,
    normalize_halfspaces,
    polygon_from_halfplanes,
    polygon_from_vertices,
    polytope_from_halfspaces,
    plane_slack,
    solve_triples,
    vertex_volume,
)


def _bits(x):
    return [v.hex() for v in np.asarray(x, dtype=float).ravel()]


def test_cross_is_bit_identical_to_numpy():
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=(2, 18, 392, 3))
    # signed zeros and exact cancellations, whose signs follow the order of
    # the products and the difference
    u[0, :5] = [[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [2.0, -0.0, 3.0]]
    v[0, :5] = [[-0.0, 0.0, 2.0], [0.0, -0.0, 0.0], [1.0, 1.0, 1.0], [-0.0, -0.0, -0.0], [4.0, 0.0, 6.0]]
    assert _bits(_cross(u, v)) == _bits(np.cross(u, v))
    # broadcast against one row per polytope, as for the in-plane frames
    assert _bits(_cross(u, np.eye(3)[1])) == _bits(np.cross(u, np.eye(3)[1]))


_UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    N=arrays(float, (6, 3), elements=_UNIT),
    c=arrays(float, 6, elements=st.floats(-4.0, 4.0, allow_subnormal=False)),
)
def test_mirror_triples_solve_to_exactly_minus_x(N, c):
    # planes [N; -N] with equal offsets: the mirror image of plane i is i + 6,
    # and the image of a triple, in its own order, solves to -x bit for bit,
    # up to the sign of a zero coordinate ((+0) + (-0) and (-0) + (+0) are +0)
    lens = np.linalg.norm(N, axis=1)
    assume((lens > 1e-3).all())
    planes, offsets = np.vstack([N / lens[:, None], -N / lens[:, None]]), np.concatenate([c, c])
    mirror = np.r_[np.arange(6, 12), np.arange(6)]
    triples = np.array(list(combinations(range(12), 3)))
    X, ok = solve_triples(planes[None], offsets[None], triples[None])
    Xm, okm = solve_triples(planes[None], offsets[None], mirror[triples][None])
    assert np.array_equal(ok, okm)
    assert _bits(X[ok] + 0.0) == _bits(0.0 - Xm[ok])


def test_normalize_rejects_zero_normal():
    with pytest.raises(ValueError):
        normalize_halfspaces([[0.0, 0.0]], [1.0])
    # a stack of plane lists: each normal is tested against its own list
    short = [[1e-10, 0.0], [0.0, 1e-10]]
    N, c = normalize_halfspaces([short, [[1e7, 0.0], [0.0, 1.0]]], [[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(np.linalg.norm(N, axis=-1), 1.0) and c[0, 0] == pytest.approx(1e10)
    with pytest.raises(ValueError):
        normalize_halfspaces([short, [[1e-30, 0.0], [0.0, 1.0]]], [[1.0, 1.0], [1.0, 1.0]])


def test_shoelace_area_triangle_and_square():
    tri = Polygon2D(vertices=np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
    assert tri.area == pytest.approx(1.0, abs=1e-15)
    sq = polygon_from_vertices([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    assert sq.area == pytest.approx(4.0, abs=1e-12)
    assert sq.contains([0.3, -0.9])
    assert not sq.contains([1.2, 0.0])


def test_polygon_from_halfplanes_unit_square():
    N, c = box_halfspaces([0.5, 0.5])
    poly = polygon_from_halfplanes(N, c)
    assert len(poly.vertices) == 4
    assert poly.area == pytest.approx(1.0, abs=1e-12)


def test_polygon_empty_and_degenerate():
    # infeasible pair x <= -1, -x <= -1 (i.e. x >= 1)
    poly = polygon_from_halfplanes([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-1.0, -1.0, 1.0, 1.0])
    assert poly.area == 0.0
    assert not poly.contains([0.0, 0.0])


def test_intersect_polygons_offset_squares():
    a = box_halfspaces([1.0, 1.0])
    # second square shifted by (1, 1): |x-1| <= 1 etc.
    N = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = (N, np.array([2.0, 0.0, 2.0, 0.0]))
    inter = polygon_from_halfplanes(np.vstack([a[0], b[0]]), np.concatenate([a[1], b[1]]))
    assert inter.area == pytest.approx(1.0, abs=1e-12)


def test_intersect_polygon_with_itself_keeps_area():
    # duplicated constraints must not corrupt the vertex set
    N, c = box_halfspaces([0.7, 0.3])
    inter = polygon_from_halfplanes(np.vstack([N, N]), np.concatenate([c, c]))
    assert inter.area == pytest.approx(4 * 0.7 * 0.3, abs=1e-12)


def test_cube_from_halfspaces_counts_and_volume():
    N, c = box_halfspaces([0.5, 0.5, 0.5])
    cube = polytope_from_halfspaces(N, c)
    assert cube.n_vertices == 8
    assert cube.n_facets == 6
    assert cube.n_edges == 12
    assert cube.euler_characteristic == 2
    assert cube.validate()
    assert cube.volume == pytest.approx(1.0, abs=1e-12)
    assert cube.is_centrally_symmetric()
    assert cube.contains([0.49, 0.0, -0.49])
    assert not cube.contains([0.51, 0.0, 0.0])


def test_octahedron_counts_and_volume():
    # |x|+|y|+|z| <= 1: 6 vertices, 8 facets, volume 4/3
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    oct3 = polytope_from_halfspaces(signs, np.ones(8))
    assert oct3.n_vertices == 6
    assert oct3.n_facets == 8
    assert oct3.euler_characteristic == 2
    assert oct3.volume == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_redundant_planes_are_ignored():
    N, c = box_halfspaces([0.5, 0.5, 0.5])
    # add a plane far outside and one touching a single vertex
    N2 = np.vstack([N, [1.0, 0.0, 0.0], [1.0, 1.0, 1.0] / np.sqrt(3.0)])
    c2 = np.concatenate([c, [9.0, 1.5 / np.sqrt(3.0)]])
    cube = polytope_from_halfspaces(N2, c2)
    assert cube.n_facets == 6
    assert cube.volume == pytest.approx(1.0, abs=1e-9)


def test_intersect_polytope_with_itself_volume():
    # regression: shared facet planes between the two systems must be merged,
    # or the duplicated plane registers the same facet twice
    N, c = box_halfspaces([0.5, 0.4, 0.3])
    inter = intersect_polytopes((N, c), (N, c))
    assert inter.validate()
    assert inter.volume == pytest.approx(8 * 0.5 * 0.4 * 0.3, abs=1e-12)


def test_intersect_polytopes_cube_corner():
    a = box_halfspaces([1.0, 1.0, 1.0])
    N = np.vstack([np.eye(3), -np.eye(3)])
    b = (N, np.array([2.0, 2.0, 2.0, 0.0, 0.0, 0.0]))  # octant x,y,z >= 0
    inter = intersect_polytopes(a, b)
    assert inter.volume == pytest.approx(1.0, abs=1e-12)


def test_empty_and_flat_polytopes_have_zero_volume():
    # infeasible: x <= -1 and x >= 1
    N = np.vstack([np.eye(3), -np.eye(3)])
    c = np.array([-1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
    empty = polytope_from_halfspaces(N, c)
    assert empty.volume == 0.0
    # flat: x <= 0 and x >= 0 pins a 2D slab slice
    c2 = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    flat = polytope_from_halfspaces(N, c2)
    assert flat.volume == 0.0
    # the slab's two faces hold every vertex: no 3D facet structure
    assert flat.n_vertices == 4 and flat.n_facets == 0


def test_volume_matches_monte_carlo_on_random_polytope():
    rng = np.random.default_rng(41)
    # random central polytope: planes n.x <= 1 with random unit normals
    N = rng.normal(size=(12, 3))
    N /= np.linalg.norm(N, axis=1)[:, None]
    c = np.ones(12)
    poly = polytope_from_halfspaces(N, c)
    poly.validate()
    n_mc = 200000
    pts = rng.uniform(-1.0, 1.0, size=(n_mc, 3)) * np.abs(poly.vertices).max(axis=0)
    box_vol = np.prod(2 * np.abs(poly.vertices).max(axis=0))
    inside = np.all(pts @ N.T <= c[None, :] + 1e-12, axis=1)
    est = box_vol * inside.mean()
    sigma = box_vol * np.sqrt(inside.mean() * (1 - inside.mean()) / n_mc)
    assert abs(poly.volume - est) < 4 * sigma


def _vertex_sum(N, c):
    # vertex_volume over every feasible vertex of every plane triple
    triples = np.array(list(combinations(range(len(N)), 3)))[None]
    X, ok = solve_triples(N[None], c[None], triples)
    ok &= (plane_slack(N[None], c[None], X) >= -1e-12).all(axis=-1)
    return float(vertex_volume(N[None], c[None], X, triples, ok)[0])


def test_vertex_volume_of_simple_polytopes():
    # a box away from the origin, whose cones from the origin cancel in part
    N, c = box_halfspaces([0.5, 1.0, 1.5])
    assert _vertex_sum(N, c + N @ np.array([2.0, -3.0, 4.0])) == pytest.approx(6.0, rel=1e-14)
    # random polytopes, simple with probability 1
    rng = np.random.default_rng(47)
    for _ in range(20):
        N, c = normalize_halfspaces(rng.normal(size=(12, 3)), rng.uniform(0.5, 2.0, 12))
        poly = polytope_from_halfspaces(N, c)
        assert all(len(f) >= 3 for f in poly.facets) and 3 * poly.n_vertices == 2 * poly.n_edges
        assert _vertex_sum(N, c) == pytest.approx(poly.volume, rel=1e-13)


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e8])
def test_polytope_is_scale_free(scale):
    # the octahedron |x|+|y|+|z| <= s and a box away from the origin
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    oct3 = polytope_from_halfspaces(signs, np.full(8, scale))
    assert (oct3.n_vertices, oct3.n_facets) == (6, 8)
    assert oct3.volume == pytest.approx(4.0 / 3.0 * scale**3, rel=1e-12)
    N, c = box_halfspaces([0.5, 0.5, 0.5])
    lo = np.array([2.0, 3.0, 4.0])
    box = polytope_from_halfspaces(N, scale * (c + N @ lo))
    assert (box.n_vertices, box.n_facets, box.n_edges) == (8, 6, 12)
    assert box.volume == pytest.approx(scale**3, rel=1e-12)
    box.validate()


def test_facet_cycles_run_counterclockwise_from_outside():
    rng = np.random.default_rng(43)
    N = rng.normal(size=(15, 3))
    poly = polytope_from_halfspaces(N, np.ones(15))
    for cyc, n in zip(poly.facets, poly.facet_normals):
        P = poly.vertices[list(cyc)]
        # Newell's vector of a counterclockwise cycle points along the outward normal
        newell = np.cross(P, np.roll(P, -1, axis=0)).sum(axis=0)
        assert newell @ n > 0
