import itertools
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latbabai import error3d
from latbabai.core import (
    UnsupportedDimensionError,
    _relevant_vectors,
    as_basis,
    cvp_bruteforce,
    packing_density,
    qr_upper,
    volume,
)
from latbabai.error2d import DENSITY_2D_MAX, pe_density_form
from latbabai.error3d import (
    ORDERING_TIE_TOL,
    ORDERINGS,
    SCAN_STACK,
    CellType,
    FACET_COUNTS,
    classify_cell,
    mc_pe_oracle,
    pe_3d,
    random_reduced_superbase,
    scan_random,
    summarize_scan,
    voronoi_cell_3d,
    voronoi_halfspaces,
)
from latbabai.error3d import _mc_competitors, _pe_stack, _scan_records, _scan_sample
from latbabai.lattices import (
    BCC,
    BCC_UNIT,
    CUBIC_3D,
    FCC,
    HEXA_RHOMBIC,
    HEXAGONAL_2D,
    HEXAGONAL_PRISM,
    KNOWN_LATTICES,
)
from latbabai.polytope import intersect_polytopes
from latbabai.reduction import (
    ConormSet,
    ObtuseSuperbaseNotFound,
    Superbase,
    conorms,
    is_minkowski_reduced,
    to_obtuse_superbase,
)
from test_pe3d_oracle import NEAR_DEGENERATE, basis_from_conorms

EXEMPLARS = {
    CellType.Cuboid: (CUBIC_3D, 6, 8),
    CellType.HexagonalPrism: (HEXAGONAL_PRISM, 8, 12),
    CellType.TruncatedOctahedron: (BCC_UNIT, 14, 24),
    CellType.RhombicDodecahedron: (FCC, 12, 14),
    CellType.HexaRhombicDodecahedron: (HEXA_RHOMBIC, 12, 18),
}


def test_exemplar_cells_classify_and_count():
    for ctype, (V, n_facets, n_vertices) in EXEMPLARS.items():
        sb = to_obtuse_superbase(as_basis(V))
        assert classify_cell(conorms(sb)) is ctype
        cell = voronoi_cell_3d(sb.basis())
        assert cell.n_facets == n_facets == FACET_COUNTS[ctype]
        assert cell.n_vertices == n_vertices
        assert cell.euler_characteristic == 2
        cell.validate()


# 1e-7 and 1e-10 put the cell's vertex spacing and its relevant vectors
# below the 1e-9 geometry tolerance in absolute terms
@pytest.mark.parametrize("scale", [1e-10, 1e-7, 1e-6, 1e-3, 1.0, 1e4])
def test_exemplar_cells_at_any_scale(scale):
    for ctype, (V, n_facets, n_vertices) in EXEMPLARS.items():
        W = scale * np.asarray(V)
        sb = to_obtuse_superbase(W)
        assert np.allclose(sb.vectors, scale * to_obtuse_superbase(V).vectors, rtol=0, atol=scale * 1e-15)
        cell = voronoi_cell_3d(sb.basis())
        assert (cell.n_facets, cell.n_vertices) == (n_facets, n_vertices), ctype
        assert cell.volume == pytest.approx(volume(W), rel=1e-12)
        cell.validate()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), log_scale=st.floats(-6.0, 6.0))
def test_random_cells_obey_euler_volume_and_type(seed, log_scale):
    V, _ = random_reduced_superbase(rng_seed=seed)
    W = 10.0**log_scale * V
    cell = voronoi_cell_3d(W)
    assert cell.euler_characteristic == 2
    assert cell.volume == pytest.approx(volume(W), rel=1e-9)
    assert cell.n_facets == FACET_COUNTS[classify_cell(conorms(to_obtuse_superbase(W)))]


def _long_prism(length):
    # a 2D lattice with a hexagonal cell times a long third axis; the
    # identity superbase has p_12 = +0.3, and v_1 - v_2 is a relevant vector
    return np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, length]])


def _assert_cell(V, counts):
    cell = voronoi_cell_3d(V)
    assert (cell.n_facets, cell.n_vertices) == counts
    assert cell.euler_characteristic == 2
    assert abs(cell.volume / volume(V) - 1.0) <= 1e-12
    cell.validate()


# from a flat prism (1e-6) to a long one (1e11): the side and end facets
# meet at angles near 1/L, and their vertices must not merge or drift apart
@pytest.mark.parametrize("length", [1e-6, 1e-3] + [10.0**k for k in range(2, 12)])
def test_anisotropic_cell_keeps_every_facet(length):
    V = _long_prism(length)
    assert classify_cell(conorms(to_obtuse_superbase(V))) is CellType.HexagonalPrism
    _assert_cell(V, (8, 12))


def test_a_too_flat_cell_raises_a_typed_error():
    # at flatness 1e-7 the search's tie window merges v with v + 2 v_3, so
    # relevant pairs go missing; the two left span no cell of finite volume
    with pytest.raises(FloatingPointError, match="volume"):
        voronoi_cell_3d(_long_prism(1e-7))


# Known defect of core._search: it keeps one leaf of an exact mirror tie.
# On these bases the coset (1, 1, 1) has two leaves whose lower-level terms
# are both rounding residue (about 1e-32), and _excess's relative window
# around them is about 2e-44, so the tie is decided by the residue. The
# tests assert the right answers and fail until ties are decided from
# differences (ROADMAP, "Tie decisions from differences").
ZERO_CONORMS = (0.0, 0.0, 0.79, 0.29, 0.51, 0.61)


@pytest.mark.xfail(raises=FloatingPointError, strict=True, reason="_search drops a mirror tie")
def test_cell_with_two_zero_conorms_on_one_label_is_a_hexagonal_prism():
    B = basis_from_conorms(ZERO_CONORMS)
    cell = voronoi_cell_3d(B)
    assert (cell.n_facets, cell.n_vertices) == (8, 12)


@pytest.mark.xfail(raises=FloatingPointError, strict=True, reason="_search drops a mirror tie")
def test_cell_with_two_tiny_conorms_on_one_label_tiles_space():
    B = basis_from_conorms((1e-9, 1e-9, 0.79, 0.29, 0.51, 0.61))
    assert voronoi_cell_3d(B).volume == pytest.approx(volume(B), rel=1e-9)


@pytest.mark.xfail(raises=FloatingPointError, strict=True, reason="_search drops a mirror tie")
def test_mc_pe_oracle_with_two_zero_conorms_on_one_label():
    B = basis_from_conorms(ZERO_CONORMS)
    pe, se = mc_pe_oracle(B, 20_000, seed=1)
    assert abs(pe - pe_3d(B).per_ordering[(0, 1, 2)]) <= 4.0 * se


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="_search drops a mirror tie")
def test_cvp_bruteforce_breaks_an_exact_mirror_tie_lexicographically():
    # the target is the midpoint of 0 and V (-1, -1, -1), both at the same
    # distance bit for bit, and the smaller coefficient vector wins ties
    B = basis_from_conorms(ZERO_CONORMS)
    Vs = B[:, [1, 0, 2]]
    t = Vs @ np.array([-0.5, -0.5, -0.5])
    d0, d1 = t, t - Vs @ np.array([-1.0, -1.0, -1.0])
    assert d0 @ d0 == d1 @ d1
    assert cvp_bruteforce(Vs, t).coeffs.tolist() == [-1, -1, -1]


SHEARED = [
    (FCC, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], (12, 14)),
    (BCC, [[1, 3, -2], [0, 1, 4], [0, 0, 1]], (14, 24)),
    (HEXA_RHOMBIC, [[2, 1, 0], [1, 1, 0], [5, -3, 1]], (12, 18)),
]


@pytest.mark.parametrize("V, U, counts", SHEARED, ids=["fcc", "bcc", "hexa_rhombic"])
def test_cells_of_bases_with_no_obtuse_superbase(V, U, counts):
    W = np.asarray(V) @ np.array(U, dtype=float)
    with pytest.raises(ObtuseSuperbaseNotFound):
        to_obtuse_superbase(W)
    _assert_cell(W, counts)


def _unimodular(rng, steps=6):
    """A product of random elementary column operations and a column permutation."""
    U = np.eye(3)
    for _ in range(steps):
        i, j = rng.choice(3, size=2, replace=False)
        U[:, j] += rng.integers(-2, 3) * U[:, i]
    return U[:, rng.permutation(3)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 299), shear_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_cell_is_invariant_under_unimodular_change_of_basis(seed, shear_seed):
    V, _ = random_reduced_superbase(rng_seed=seed)
    reduced = voronoi_cell_3d(V)
    U = _unimodular(np.random.default_rng(shear_seed))
    assert abs(round(np.linalg.det(U))) == 1
    cell = voronoi_cell_3d(V @ U)
    assert (cell.n_facets, cell.n_vertices) == (reduced.n_facets, reduced.n_vertices)
    assert cell.euler_characteristic == 2
    assert abs(cell.volume / reduced.volume - 1.0) <= 1e-12


def test_relevant_vectors_count_the_facets_of_the_conorm_class():
    # the search (one closest-point search per coset) and the conorm graph
    # of the obtuse superbase are independent routes to the facet count
    bases = [V for V, _, _ in EXEMPLARS.values()] + [random_reduced_superbase(rng_seed=s)[0] for s in range(300)]
    for V in bases:
        N, c = voronoi_halfspaces(V)
        assert len(N) == len(c) == FACET_COUNTS[classify_cell(conorms(to_obtuse_superbase(V)))]


def test_voronoi_halfspaces_are_the_bisectors_in_the_basis_frame():
    # every row p is V c for an integer c
    sb = to_obtuse_superbase(as_basis(BCC_UNIT))
    N, c = voronoi_halfspaces(sb.basis())
    assert np.array_equal(c, 0.5 * np.einsum("ij,ij->i", N, N))
    assert np.array_equal(N[7:], -N[:7])
    coeffs = np.linalg.solve(sb.basis(), N.T)
    assert np.allclose(coeffs, np.rint(coeffs), rtol=0, atol=1e-12)
    with pytest.raises(UnsupportedDimensionError):
        voronoi_cell_3d(HEXAGONAL_2D)


@pytest.mark.parametrize("length", [1e3, 1e5, 1e7])
def test_mc_pe_oracle_follows_the_long_prism(length):
    # the oracle's half ball held 1.13e6 points at L = 300; one search per
    # coset of L/2L keeps the two relevant pairs that reach the box. The
    # exact P_e is the hexagonal section's, (0.3 - 0.09) / 4 = 0.0525
    V = _long_prism(length)
    assert len(_competitors(V)) == 2
    pe, se = mc_pe_oracle(V, 200_000, seed=1)
    assert abs(pe - 0.0525) <= 3.0 * se


def test_mc_pe_oracle_refuses_a_prism_too_flat_for_the_search():
    # sorted shortest first, the prism at flatness 1e-7 loses two of its four
    # relevant pairs to the search's tie window; the two left span a plane,
    # which once gave the estimate (0.0, 0.0)
    V = _long_prism(1e-7)[:, [2, 0, 1]]
    with pytest.raises(FloatingPointError, match="span"):
        mc_pe_oracle(V, 20_000, seed=1)
    # at 1e-6 the search keeps all four pairs, and P_e is the hexagonal section's
    V = _long_prism(1e-6)[:, [2, 0, 1]]
    assert len(_relevant_vectors(qr_upper(V)[1])) == 4
    pe, se = mc_pe_oracle(V, 200_000, seed=1)
    assert abs(pe - 0.0525) <= 3.0 * se


def test_exemplar_cell_volumes_equal_covolume():
    for V, _, _ in EXEMPLARS.values():
        cell = voronoi_cell_3d(to_obtuse_superbase(as_basis(V)).basis())
        assert cell.volume == pytest.approx(volume(V), abs=1e-9)
        assert cell.is_centrally_symmetric()


def test_exemplar_packing_densities():
    assert packing_density(as_basis(CUBIC_3D)) == pytest.approx(np.pi / 6, abs=1e-12)
    assert packing_density(as_basis(HEXAGONAL_PRISM)) == pytest.approx(np.pi / (3 * np.sqrt(3)), abs=1e-12)
    assert packing_density(as_basis(BCC_UNIT)) == pytest.approx(np.pi * np.sqrt(3) / 8, abs=1e-12)
    assert packing_density(as_basis(FCC)) == pytest.approx(np.pi / (3 * np.sqrt(2)), abs=1e-12)


def test_pe_cubic_is_zero():
    r = pe_3d(CUBIC_3D)
    assert r.pe == pytest.approx(0.0, abs=1e-12)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in r.per_ordering.values())


def test_pe_hexagonal_prism_is_one_twelfth():
    r = pe_3d(HEXAGONAL_PRISM)
    assert r.pe == pytest.approx(1.0 / 12.0, abs=1e-9)
    # the prism is a hexagonal lattice times an orthogonal axis: every
    # ordering gives the planar rate
    assert all(v == pytest.approx(1.0 / 12.0, abs=1e-9) for v in r.per_ordering.values())


def test_pe_bcc_truncated_octahedron():
    r = pe_3d(BCC_UNIT)
    assert r.pe == pytest.approx(7.0 / 48.0, abs=1e-9)
    assert all(v == pytest.approx(7.0 / 48.0, abs=1e-9) for v in r.per_ordering.values())


def test_pe_fcc_rhombic_dodecahedron():
    r = pe_3d(FCC)
    assert r.pe == pytest.approx(65.0 / 432.0, abs=1e-9)
    vals = sorted(set(round(v, 9) for v in r.per_ordering.values()))
    assert vals == [round(65.0 / 432.0, 9), round(1.0 / 6.0, 9)]
    assert r.per_ordering[r.best_ordering] == r.pe


def test_pe_hexa_rhombic_orderings():
    r = pe_3d(HEXA_RHOMBIC)
    assert r.pe == pytest.approx(1.0 / 12.0, abs=1e-9)
    vals = sorted(set(round(v, 6) for v in r.per_ordering.values()))
    assert vals == [0.083333, 0.131076, 0.179167]


def test_pe_sign_flip_invariance():
    rng = np.random.default_rng(53)
    V, _ = random_reduced_superbase(rng_seed=2024)
    base = pe_3d(V).pe
    for _ in range(4):
        signs = np.diag(rng.choice([-1.0, 1.0], size=3))
        assert pe_3d(V @ signs).pe == pytest.approx(base, abs=1e-9)


def test_pe_scale_invariance_and_bounds():
    V, _ = random_reduced_superbase(rng_seed=77)
    r = pe_3d(V)
    assert 0.0 <= r.pe <= 1.0
    assert pe_3d(3.7 * V).pe == pytest.approx(r.pe, abs=1e-9)
    # entries far below 1 are no reason to call the basis rank deficient
    assert pe_3d(1e-4 * np.asarray(FCC)).pe == pytest.approx(pe_3d(FCC).pe, abs=1e-15)


def test_pe_rejects_wrong_dimension():
    with pytest.raises(UnsupportedDimensionError):
        pe_3d(np.eye(2))


def _flipped_permuted_scaled(V):
    """V, and copies of it with flipped and permuted columns and power-of-two scales."""
    V = as_basis(V)
    yield V
    for k, (p, signs) in enumerate(zip(ORDERINGS, itertools.product((1.0, -1.0), repeat=3))):
        yield 2.0 ** (4 * k - 10) * V[:, list(p)] * np.array(signs)


def test_pe_3d_reports_the_selling_data_of_its_superbase():
    # the kernel's superbase is the one to_obtuse_superbase finds, so pe_3d
    # gives the CLI's Selling data and cell type bit for bit
    bases = list(KNOWN_LATTICES.values()) + [BCC_UNIT]
    bases += [basis_from_conorms(c) for c in NEAR_DEGENERATE]
    for V in (W for B in bases for W in _flipped_permuted_scaled(B)):
        r = pe_3d(V)
        con = conorms(to_obtuse_superbase(V))
        assert len(r.selling) == 6 and all(type(x) is float for x in r.selling)
        assert np.minimum(r.selling, 0.0).tolist() == [-c for c in con.values]
        assert r.cell_type is classify_cell(con)


def test_scan_records_are_pe_3d_of_their_regenerated_bases():
    for rec in scan_random(40, density_floor=0.0, seed=3):
        r = pe_3d(random_reduced_superbase(rec.seed)[0])
        assert (r.pe, r.selling, r.cell_type) == (rec.pe, rec.selling, rec.cell_type)


def test_pe_3d_classifies_a_flat_cell_by_its_lattice_minimum():
    # an obtuse superbase of two nearly opposite pairs: the four conorms
    # across them are 1e-10 of the superbase norms, but v_0 + v_1 = (0, 2e-5, 0)
    # is the lattice minimum, and against it they are far from zero
    e = 1e-5
    V = np.array([[1.0, e, 0.0], [0.0, -e, 1.0], [0.0, -e, -1.0]]).T
    r = pe_3d(V)
    assert r.cell_type is CellType.TruncatedOctahedron
    assert ConormSet(np.maximum(-np.array(r.selling), 0.0)).zero_pattern() == ()
    assert 0.0 < r.pe < 1.0


# a cross-check of voronoi_cell_3d's vertices, by a route independent of the search
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


def test_conorm_vertex_formula_bcc():
    sb = to_obtuse_superbase(as_basis(BCC_UNIT))
    pts = voronoi_vertices_conorm_formula(sb)
    assert pts.shape == (24, 3)
    cell = voronoi_cell_3d(sb.basis())
    # with all conorms positive the 24 labelings hit the 24 cell vertices
    for p in pts:
        assert min(np.linalg.norm(cell.vertices - p, axis=1)) < 1e-9


def test_conorm_vertex_formula_hexa_rhombic_collapses():
    sb = to_obtuse_superbase(as_basis(HEXA_RHOMBIC))
    pts = voronoi_vertices_conorm_formula(sb)
    uniq = []
    for p in pts:
        if not any(np.linalg.norm(p - q) < 1e-9 for q in uniq):
            uniq.append(p)
    # one zero conorm collapses 24 labelings onto the 18 true vertices
    assert len(uniq) == 18
    cell = voronoi_cell_3d(sb.basis())
    assert cell.n_vertices == 18
    for p in uniq:
        assert min(np.linalg.norm(cell.vertices - p, axis=1)) < 1e-9


def test_classify_cell_zero_patterns():
    # counts of zero conorms: 0, 1, 2 complementary, 2 non-complementary, 3
    assert classify_cell(np.ones(6)) is CellType.TruncatedOctahedron
    assert classify_cell([1, 1, 1, 0, 1, 1]) is CellType.HexaRhombicDodecahedron
    # pair order is ((0,1),(0,2),(0,3),(2,3),(1,3),(1,2)); (0,1) and (2,3)
    # are complementary (indices 0 and 3)
    assert classify_cell([0, 1, 1, 0, 1, 1]) is CellType.RhombicDodecahedron
    assert classify_cell([0, 0, 1, 1, 1, 1]) is CellType.HexagonalPrism
    assert classify_cell([1, 1, 1, 0, 0, 0]) is CellType.Cuboid


def test_classify_cell_three_zeros():
    # zeros on a path through all four labels: (0,1), (0,2), (1,3)
    assert classify_cell(ConormSet(np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0]))) is CellType.Cuboid
    # zeros within tol count as zeros: the path (0,1), (2,3), (1,2)
    assert classify_cell([1e-4, 0.5, 0.7, 1e-4, 0.4, 1e-4], tol=1e-3) is CellType.Cuboid
    # zeros sharing label 0 leave v_0 orthogonal to all others, so v_0 = 0
    with pytest.raises(ValueError):
        classify_cell([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def test_classify_cell_rejects_degenerate_pattern():
    with pytest.raises(ValueError):
        classify_cell(ConormSet(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])))
    # four zeros, three of them on label 0 (v_0 = 0)
    with pytest.raises(ValueError):
        classify_cell([0.0, 0.0, 0.0, 0.3, 0.0, 0.5])


def test_intersect_volume_disjoint_and_self():
    cell = voronoi_cell_3d(to_obtuse_superbase(as_basis(CUBIC_3D)).basis())
    halfspaces = (cell.facet_normals, cell.facet_offsets)
    assert intersect_polytopes(halfspaces, halfspaces).volume == pytest.approx(cell.volume, abs=1e-12)
    # the same cell translated by 2 along x: n.(x - t) <= c
    shifted = (cell.facet_normals, cell.facet_offsets + cell.facet_normals @ np.array([2.0, 0.0, 0.0]))
    assert intersect_polytopes(halfspaces, shifted).volume == 0.0


def test_table_like_conorm_row_roundtrip():
    # conorm row with one near-zero entry: rebuilding the Gram matrix lands
    # on a hexa-rhombic-dodecahedral lattice of packing density 0.5441
    con = np.array([0.4447, 0.7089, 0.7596, 0.0007, 0.3055, 0.2903])
    cs = ConormSet(con)
    A = np.empty((3, 3))
    for s in (1, 2, 3):
        A[s - 1, s - 1] = sum(cs[(s, t)] for t in range(4) if t != s)
    for s, t in ((1, 2), (1, 3), (2, 3)):
        A[s - 1, t - 1] = A[t - 1, s - 1] = -cs[(s, t)]
    V = np.linalg.cholesky(A).T
    assert packing_density(V) == pytest.approx(0.5441, abs=1e-3)
    assert classify_cell(con, tol=1e-2) is CellType.HexaRhombicDodecahedron
    pe = pe_3d(V).pe
    assert pe == pytest.approx(0.081562, abs=1e-3)
    # MC samples the identity-ordering box, so compare on that ordering
    mc, se = mc_pe_oracle(V, samples=200000, seed=2001)
    assert abs(mc - pe_3d(V).per_ordering[(0, 1, 2)]) < 4 * se


def test_random_reduced_superbase_invariants():
    for seed in (0, 1, 12345):
        V, attempts = random_reduced_superbase(rng_seed=seed)
        assert attempts >= 1
        assert V.shape == (3, 3)
        assert V[0, 0] == 1.0 and V[1, 0] == 0.0 and V[2, 0] == 0.0 and V[2, 1] == 0.0
        assert is_minkowski_reduced(V.T @ V).reduced
        assert Superbase.from_basis(V).is_obtuse()


def test_random_reduced_superbase_reproducible():
    V1, a1 = random_reduced_superbase(rng_seed=42)
    V2, a2 = random_reduced_superbase(rng_seed=42)
    assert np.array_equal(V1, V2) and a1 == a2


def _scan_one(trial_seed, density_floor):
    """The record of one trial, or None below the density floor."""
    sample = _scan_sample(trial_seed, density_floor)
    return None if sample is None else _scan_records([sample])[0]


def test_scan_random_deterministic_and_regenerable():
    r1 = scan_random(60, density_floor=0.1, seed=7)
    r2 = scan_random(60, density_floor=0.1, seed=7)
    assert len(r1) > 0
    assert r1 == r2
    # every record comes back alone from its trial seed
    for rec in r1:
        assert _scan_one(rec.seed, 0.1) == rec


def test_scan_random_respects_density_floor():
    recs = scan_random(80, density_floor=0.55, seed=11)
    assert all(r.density >= 0.55 for r in recs)
    loose = scan_random(80, density_floor=0.0, seed=11)
    assert len(loose) == 80
    assert scan_random(80, density_floor=-np.inf, seed=11) == loose
    with pytest.raises(ValueError):
        scan_random(0)
    for floor in (np.nan, np.inf):
        with pytest.raises(ValueError):
            scan_random(3, density_floor=floor)


def test_pe_kernel_stack_equals_one_lattice_calls():
    # the cuboid and prism cells have fewer edges than the others, so the
    # stack pads their lists of cell-edge pairs
    bases = [as_basis(V) for V in KNOWN_LATTICES.values()]
    bases += [basis_from_conorms(c) for c in NEAR_DEGENERATE]
    bases += [random_reduced_superbase(s)[0] for s in range(6)]
    for V, row in zip(bases, _pe_stack(bases)[0]):
        per = pe_3d(V).per_ordering
        assert [float(pe).hex() for pe in row] == [per[o].hex() for o in ORDERINGS]


# conorms (c01, c02, c03, c23, c13, c12) of each cell type
CELL_CONORMS = (
    (1.0, 0.9, 0.8, 0.7, 0.6, 0.5),  # truncated octahedron
    (0.0, 0.9, 0.8, 0.7, 0.6, 0.5),  # hexa-rhombic dodecahedron
    (0.0, 0.9, 0.8, 0.0, 0.6, 0.5),  # rhombic dodecahedron
    (0.0, 0.0, 0.8, 0.7, 0.6, 0.5),  # hexagonal prism
    (1.0, 0.9, 0.8, 0.0, 0.0, 0.0),  # cuboid
)


def test_scan_records_match_per_basis_superbases():
    # one sign search per stack gives each record the Selling parameters and
    # cell type of its own basis's superbase, bit for bit, on sampled bases
    # and on bases of every cell type with the sampler's first column (1, 0, 0)
    samples = [_scan_sample(s, 0.0) for s in range(200)]
    for seed, con in enumerate(CELL_CONORMS):
        V = basis_from_conorms(con)
        samples.append((seed, V / V[0, 0], 0.5))
    assert {classify_cell(c) for c in CELL_CONORMS} == set(CellType)
    for i in range(0, len(samples), SCAN_STACK):
        stack = samples[i : i + SCAN_STACK]
        for (_, V, _), rec in zip(stack, _scan_records(stack), strict=True):
            sb = Superbase.from_basis(V)
            assert [x.hex() for x in rec.selling] == [float(x).hex() for x in sb.selling_pairs()]
            assert rec.cell_type is classify_cell(conorms(sb))


@pytest.mark.parametrize(
    "trials, floor, seed",
    [(1, 0.0, 1), (2, 0.0, 2), (3, 0.0, 3), (4, 0.0, 4), (5, 0.0, 5), (7, 0.0, 7), (1000, 0.36, 1)],
)
def test_scan_random_stacks_equal_single_trials(trials, floor, seed):
    # trial counts on both sides of the stack size, and a floor that about
    # one trial in 150 passes (7 of these 1,000), so stacks gather trials far
    # apart and the last one is partial
    recs = scan_random(trials, density_floor=floor, seed=seed)
    seeds = np.random.SeedSequence(seed).generate_state(trials)
    expected = [r for r in (_scan_one(int(s), floor) for s in seeds) if r is not None]
    assert recs == expected
    assert len(recs) == trials if floor == 0.0 else len(recs) > SCAN_STACK


# traced peak of one kernel pass over SCAN_STACK sampled lattices: 0.930 MB
# measured (numpy 2.4), plus 25 %. A stack of 7 reaches 1.30 MB.
KERNEL_PEAK_BYTES = 0.930e6 * 1.25


def test_scan_stack_kernel_peak_memory():
    bases = [random_reduced_superbase(s)[0] for s in range(SCAN_STACK)]
    _pe_stack(bases)  # build the cached triple tables first
    tracemalloc.start()
    try:
        _pe_stack(bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= KERNEL_PEAK_BYTES


def test_error_probability_rises_with_packing_density():
    # the paper's trend on its exemplars: the largest P_e at each distinct
    # density is nondecreasing in the density
    worst = {}
    for V in KNOWN_LATTICES.values():
        d = round(packing_density(V), 9)
        worst[d] = max(worst.get(d, 0.0), pe_3d(V).pe)
    dens = sorted(worst)
    envelope = [worst[d] for d in dens]
    assert np.round(dens, 2).tolist() == [0.52, 0.60, 0.68, 0.74]
    assert envelope == pytest.approx([1 / 12, 1 / 12, 7 / 48, 65 / 432], abs=1e-14)
    assert all(lo <= hi + ORDERING_TIE_TOL for lo, hi in zip(envelope, envelope[1:]))
    # and in 2D, where the worst case over the reduced bases of density D,
    # {(1, 0), (a, pi / (4 D))} with a^2 + b^2 >= 1, rises strictly with D
    a = np.linspace(-0.5, 0.0, 201)
    envelope = []
    for D in np.linspace(0.3, DENSITY_2D_MAX, 25):
        b = np.pi / (4.0 * D)
        envelope.append(max(pe_density_form(x, D) for x in a[a * a + b * b >= 1.0 - 1e-12]))
    assert all(lo < hi for lo, hi in zip(envelope, envelope[1:]))


def test_summarize_scan():
    recs = scan_random(80, density_floor=0.0, seed=13)
    out = summarize_scan(recs)
    assert out["count"] == len(recs)
    assert out["max_pe"] == max(r.pe for r in recs)
    assert out["argmax_seed"] in {r.seed for r in recs}
    assert sum(out["by_type"].values()) == len(recs)


def test_mc_pe_oracle_exact_cases():
    pe, se = mc_pe_oracle(CUBIC_3D, samples=50000, seed=5)
    assert pe == 0.0 and se == 0.0
    pe_p, se_p = mc_pe_oracle(HEXAGONAL_PRISM, samples=200000, seed=6)
    assert abs(pe_p - 1.0 / 12.0) < 4 * se_p
    pe_f, se_f = mc_pe_oracle(FCC, samples=200000, seed=8)
    # MC samples the identity ordering box; FCC identity ordering gives 1/6
    assert abs(pe_f - pe_3d(FCC).per_ordering[(0, 1, 2)]) < 4 * se_f


# (estimate, se) of mc_pe_oracle as float.hex, recorded from the full-ball
# implementation (2**16 rows per chunk for the exemplars, 2**14 for the
# sampled and sheared bases); the sample counts are not multiples of any chunk
MC_PINS = {
    ("cubic", 200_001, 11): ("0x0.0p+0", "0x0.0p+0"),
    ("cubic", 70_000, 12): ("0x0.0p+0", "0x0.0p+0"),
    ("hexa_rhombic_dodecahedron", 200_001, 11): ("0x1.0c07d952dee15p-3", "0x1.8b631218ca76ep-11"),
    ("hexa_rhombic_dodecahedron", 70_000, 12): ("0x1.0af8af8af8af9p-3", "0x1.4d9a23b7cce38p-10"),
    ("hexagonal_prism", 200_001, 11): ("0x1.54e88b4b45204p-4", "0x1.43d59bbafd62cp-11"),
    ("hexagonal_prism", 70_000, 12): ("0x1.50b0f27bb2fecp-4", "0x1.10253257357efp-10"),
    ("bcc", 200_001, 11): ("0x1.2a7e980b9a13ap-3", "0x1.9daa779e7bbb8p-11"),
    ("bcc", 70_000, 12): ("0x1.2581f5d18a270p-3", "0x1.5b2c6206ef278p-10"),
    ("fcc", 200_001, 11): ("0x1.5748b7147dcd9p-3", "0x1.b5e6da95f0278p-11"),
    ("fcc", 70_000, 12): ("0x1.53e156a8df4a6p-3", "0x1.709fa007aba53p-10"),
    ("hexagonal_2d", 200_001, 11): ("0x1.53d2ac40fce2cp-4", "0x1.435d7cd1a5679p-11"),
    ("hexagonal_2d", 70_000, 12): ("0x1.5335128c8d22fp-4", "0x1.1111a0a20e5f7p-10"),
    ("line_1d", 200_001, 11): ("0x0.0p+0", "0x0.0p+0"),
    ("line_1d", 70_000, 12): ("0x0.0p+0", "0x0.0p+0"),
    ("sampler_seed_0", 200_001, 11): ("0x1.dfed091e0d8f7p-5", "0x1.1351badf0e7ebp-11"),
    ("sampler_seed_0", 70_000, 12): ("0x1.db22d0e560419p-5", "0x1.cf30f5b2a19f0p-11"),
    ("bcc_sheared", 200_001, 11): ("0x1.2a7e980b9a13ap-3", "0x1.9daa779e7bbb8p-11"),
    ("bcc_sheared", 70_000, 12): ("0x1.2581f5d18a270p-3", "0x1.5b2c6206ef278p-10"),
}
MC_BASES = {
    **KNOWN_LATTICES,
    "hexagonal_2d": HEXAGONAL_2D,
    "line_1d": np.array([[1.5]]),
    "sampler_seed_0": random_reduced_superbase(rng_seed=0)[0],
    "bcc_sheared": np.asarray(BCC_UNIT) @ np.array([[1.0, 3.0, -2.0], [0.0, 1.0, 4.0], [0.0, 0.0, 1.0]]),
}


@pytest.mark.parametrize("name, samples, seed", sorted(MC_PINS))
def test_mc_pe_oracle_is_pinned_bit_for_bit(name, samples, seed):
    pe, se = mc_pe_oracle(MC_BASES[name], samples, seed=seed)
    assert (pe.hex(), se.hex()) == MC_PINS[(name, samples, seed)]


@pytest.mark.parametrize("name", sorted(MC_BASES))
def test_mc_pe_oracle_does_not_depend_on_the_scale(name):
    # a power-of-two scale is exact in floating point, so only an absolute
    # length in the margin or the radius could move the estimate
    expected = mc_pe_oracle(MC_BASES[name], 20_000, seed=3)
    for k in (-40, -20, -1, 1, 20, 40):
        assert mc_pe_oracle(2.0**k * MC_BASES[name], 20_000, seed=3) == expected


def _box(R, radius):
    # every integer u with |u_i| <= radius ||row_i(R^-1)|| (Fincke & Pohst),
    # which holds every lattice point R u within radius of 0, in lexicographic
    # order: the rows after the central zero hold one vector of each pair +-u
    reach = np.floor(radius * np.linalg.norm(np.linalg.inv(R), axis=1) + 1e-9).astype(int)
    return np.array(list(itertools.product(*[range(-k, k + 1) for k in reach])), dtype=np.int64)


def _full_ball_oracle(basis, samples, seed=None):
    # mc_pe_oracle before it kept only the relevant pairs that reach the
    # box: every vector of the half ball is a competitor (168 on the long
    # prism at L = 10), so it draws 2**10 rows at a time, which takes the
    # same words of the stream as any other chunking
    V = as_basis(basis)
    n = V.shape[0]
    _, R = qr_upper(V)
    h = 0.5 * np.diag(R)
    radius = 2.0 * float(np.linalg.norm(h)) * (1.0 + 1e-9)
    U = _box(R, radius)
    P = U[len(U) // 2 + 1 :] @ R.T
    P = P[np.einsum("ij,ij->i", P, P) <= radius * radius]
    limit = np.einsum("ij,ij->i", P, P) * (1.0 + 1e-12)
    rng = np.random.default_rng(seed)
    errors = 0
    for start in range(0, samples, 1 << 10):
        X = rng.uniform(-1.0, 1.0, size=(min(1 << 10, samples - start), n))
        X *= h
        margin = limit[:, None] - 2.0 * np.abs(P @ X.T)
        errors += int(np.count_nonzero(margin.min(axis=0) < 0.0))
    p = errors / samples
    return p, float(np.sqrt(p * (1.0 - p) / samples))


def _sheared(V, seed, steps):
    # V times a unimodular matrix of `steps` elementary column operations
    rng = np.random.default_rng(seed)
    U = np.eye(3)
    for _ in range(steps):
        i, j = rng.choice(3, 2, replace=False)
        U[:, i] += rng.choice((-1.0, 1.0)) * U[:, j]
    return V @ U


def _competitors(V):
    _, R = qr_upper(as_basis(V))
    return _mc_competitors(R, 0.5 * np.diag(R))[0]


PRUNING_CASES = {
    **{f"seed {s}": random_reduced_superbase(rng_seed=s)[0] for s in range(6)},
    **{f"seed {s} sheared": _sheared(random_reduced_superbase(rng_seed=s)[0], s, 2 + s % 5) for s in range(6, 12)},
    "long prism": _long_prism(10.0),
    "skewed 2D": np.array([[1.0, 40.0], [0.0, 1.0]]),
    "skewed 2D, transposed": np.array([[1.0, 0.0], [40.0, 1.0]]),
    "seed 3 times 2**-30": 2.0**-30 * random_reduced_superbase(rng_seed=3)[0],
    "line": np.array([[1.5]]),
}


@pytest.mark.parametrize("name", sorted(PRUNING_CASES))
def test_mc_pe_oracle_matches_the_full_ball_bit_for_bit(name):
    V = PRUNING_CASES[name]
    assert mc_pe_oracle(V, 30_001, seed=7) == _full_ball_oracle(V, 30_001, seed=7)


def test_mc_pe_oracle_keeps_the_relevant_pairs_that_reach_the_box():
    # a generic cell has 7 relevant pairs, and the halfspace of v_1, which
    # spans the first box axis, holds the whole box; the exemplars keep 17
    # of the 47 vectors of their half balls, and HEXAGONAL_2D 2 of 3
    for s in range(6):
        assert len(_competitors(random_reduced_superbase(rng_seed=s)[0])) == 6
    kept = {name: len(_competitors(V)) for name, V in KNOWN_LATTICES.items()}
    assert kept == {
        "cubic": 0,
        "hexagonal_prism": 2,
        "hexa_rhombic_dodecahedron": 5,
        "fcc": 4,
        "bcc": 6,
    }
    assert len(_competitors(HEXAGONAL_2D)) == 2


@pytest.mark.parametrize("V", [CUBIC_3D, np.diag([1.0, 3.0]), np.array([[1.5]])], ids=["cubic", "diagonal 2D", "line"])
def test_mc_pe_oracle_returns_zero_without_drawing(V, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples")

    monkeypatch.setattr(error3d.np.random, "default_rng", no_draws)
    assert len(_competitors(V)) == 0
    assert mc_pe_oracle(V, 50_000, seed=1) == (0.0, 0.0)


def test_mc_pe_oracle_guards():
    with pytest.raises(ValueError):
        mc_pe_oracle(CUBIC_3D, samples=0)
    with pytest.raises(UnsupportedDimensionError):
        mc_pe_oracle(np.eye(4), samples=10)


def test_random_cells_tile_space():
    # cell volume equals covolume for arbitrary obtuse superbases
    for seed in (101, 202, 303):
        V, _ = random_reduced_superbase(rng_seed=seed)
        cell = voronoi_cell_3d(to_obtuse_superbase(V).basis())
        assert cell.volume == pytest.approx(volume(V), abs=1e-9)
        assert cell.is_centrally_symmetric()
        assert cell.euler_characteristic == 2


def test_pe_ties_go_to_the_lexicographically_first_ordering():
    # FCC: four orderings share 65/432 up to float noise; BCC: all six tie
    assert pe_3d(FCC).best_ordering == (0, 2, 1)
    assert pe_3d(BCC).best_ordering == (0, 1, 2)
    assert pe_3d(BCC_UNIT).best_ordering == (0, 1, 2)
    for V in (FCC, BCC, HEXA_RHOMBIC):
        r = pe_3d(V)
        assert r.pe == r.per_ordering[r.best_ordering]
        assert r.pe <= min(r.per_ordering.values()) + ORDERING_TIE_TOL


def test_pe_rejects_a_basis_without_obtuse_superbase():
    with pytest.raises(ObtuseSuperbaseNotFound):
        pe_3d(np.asarray(FCC) @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


_INVARIANCE = settings(max_examples=25, derandomize=True, deadline=None)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _assert_same_table(got, expected):
    assert set(got) == set(expected)
    for perm, pe in expected.items():
        assert got[perm] == pytest.approx(pe, abs=1e-14)


@_INVARIANCE
@given(seed=_SEEDS, signs=st.tuples(*[st.sampled_from((1.0, -1.0))] * 3))
def test_pe_table_invariant_under_column_sign_flips(seed, signs):
    V, _ = random_reduced_superbase(rng_seed=seed)
    _assert_same_table(pe_3d(V * np.array(signs)).per_ordering, pe_3d(V).per_ordering)


@_INVARIANCE
@given(seed=_SEEDS, rotation_seed=_SEEDS)
def test_pe_table_invariant_under_rotation(seed, rotation_seed):
    V, _ = random_reduced_superbase(rng_seed=seed)
    Q, _ = np.linalg.qr(np.random.default_rng(rotation_seed).normal(size=(3, 3)))
    _assert_same_table(pe_3d(Q @ V).per_ordering, pe_3d(V).per_ordering)


@_INVARIANCE
@given(seed=_SEEDS, scale=st.sampled_from((1e-4, 3.7, 1e4)))
def test_pe_table_invariant_under_scale(seed, scale):
    V, _ = random_reduced_superbase(rng_seed=seed)
    _assert_same_table(pe_3d(scale * V).per_ordering, pe_3d(V).per_ordering)


@_INVARIANCE
@given(seed=_SEEDS, pi=st.permutations((0, 1, 2)))
def test_pe_table_follows_column_permutations(seed, pi):
    # ordering sigma of V[:, pi] decodes the columns pi[sigma] of V
    V, _ = random_reduced_superbase(rng_seed=seed)
    base = pe_3d(V).per_ordering
    permuted = pe_3d(V[:, list(pi)]).per_ordering
    _assert_same_table(permuted, {s: base[tuple(pi[i] for i in s)] for s in base})
