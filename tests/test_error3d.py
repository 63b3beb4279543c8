import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latbabai.core import UnsupportedDimensionError, as_basis, packing_density, volume
from latbabai.error3d import (
    ORDERING_TIE_TOL,
    CellType,
    FACET_COUNTS,
    classify_cell,
    mc_pe_oracle,
    pe_3d,
    random_reduced_superbase,
    relevant_vector_candidates,
    scan_random,
    summarize_scan,
    voronoi_cell_3d,
    voronoi_vertices_conorm_formula,
)
from latbabai.error3d import _scan_one
from latbabai.lattices import BCC, BCC_UNIT, CUBIC_3D, FCC, HEXA_RHOMBIC, HEXAGONAL_PRISM
from latbabai.polytope import intersect_polytopes
from latbabai.reduction import (
    ConormSet,
    ObtuseSuperbaseNotFound,
    Superbase,
    conorms,
    is_minkowski_reduced,
    to_obtuse_superbase,
)

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
        cell = voronoi_cell_3d(sb)
        assert cell.n_facets == n_facets == FACET_COUNTS[ctype]
        assert cell.n_vertices == n_vertices
        assert cell.euler_characteristic == 2
        cell.validate()


def test_exemplar_cell_volumes_equal_covolume():
    for V, _, _ in EXEMPLARS.values():
        cell = voronoi_cell_3d(to_obtuse_superbase(as_basis(V)))
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
    # without the ordering search the first (given) ordering is kept
    r0 = pe_3d(HEXA_RHOMBIC, search_orderings=False)
    assert set(r0.per_ordering) == {(0, 1, 2)}


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


def test_relevant_vector_candidates_structure():
    sb = to_obtuse_superbase(as_basis(BCC_UNIT))
    W = relevant_vector_candidates(sb)
    assert W.shape == (7, 3)
    v1, v2, v3 = sb.vectors[1], sb.vectors[2], sb.vectors[3]
    assert np.allclose(W[6], v1 + v2 + v3, atol=1e-12)
    assert np.allclose(W[3], v1 + v2, atol=1e-12)


def test_conorm_vertex_formula_bcc():
    sb = to_obtuse_superbase(as_basis(BCC_UNIT))
    pts = voronoi_vertices_conorm_formula(sb)
    assert pts.shape == (24, 3)
    cell = voronoi_cell_3d(sb)
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
    cell = voronoi_cell_3d(sb)
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


def test_classify_cell_fallback_by_counts():
    # three zeros spanning all four labels: not a triangle, so the direct
    # rules pass and the rebuilt cell is counted (it comes out a cuboid)
    assert classify_cell(ConormSet(np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0]))) is CellType.Cuboid


def test_classify_cell_rejects_degenerate_pattern():
    with pytest.raises(ValueError):
        classify_cell(ConormSet(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])))


def test_intersect_volume_disjoint_and_self():
    cell = voronoi_cell_3d(to_obtuse_superbase(as_basis(CUBIC_3D)))
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
    assert abs(mc - pe_3d(V, search_orderings=False).pe) < 4 * se


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
    with pytest.raises(ValueError):
        scan_random(0)


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
    assert abs(pe_f - pe_3d(FCC, search_orderings=False).pe) < 4 * se_f


def test_mc_pe_oracle_guards():
    with pytest.raises(ValueError):
        mc_pe_oracle(CUBIC_3D, samples=0)
    with pytest.raises(UnsupportedDimensionError):
        mc_pe_oracle(np.eye(4), samples=10)


def test_random_cells_tile_space():
    # cell volume equals covolume for arbitrary obtuse superbases
    for seed in (101, 202, 303):
        V, _ = random_reduced_superbase(rng_seed=seed)
        cell = voronoi_cell_3d(to_obtuse_superbase(V))
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
