import numpy as np
import pytest

from latbabai.error2d import (
    DENSITY_2D_MAX,
    LEVEL_CURVE_DEFAULT_KS,
    ReducedBasis2D,
    level_curve_data,
    optimal_a,
    packing_density_2d,
    pe_closed_form,
    pe_density_form,
    pe_geometric_2d,
    pe_polar,
    voronoi_polygon_2d,
    worst_theta,
)
from latbabai.core import _relevant_vectors, qr_upper
from latbabai.error3d import mc_pe_oracle

HEX = ReducedBasis2D(-0.5, np.sqrt(3.0) / 2.0)


def _random_reduced(rng):
    while True:
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(0.8, 2.0)
        if a * a + b * b >= 1.0:
            return ReducedBasis2D(a, b)


def test_reduced_basis_validation():
    ReducedBasis2D(0.0, 1.0)
    with pytest.raises(ValueError):
        ReducedBasis2D(0.6, 1.0)  # |a| > 1/2
    with pytest.raises(ValueError):
        ReducedBasis2D(0.0, -1.0)  # b <= 0
    with pytest.raises(ValueError):
        ReducedBasis2D(0.1, 0.5)  # second vector shorter than first


def _relevant_coefficients(rb):
    _, R = qr_upper(rb.basis())
    return [tuple(np.rint(np.linalg.solve(R, p)).astype(int).tolist()) for p in _relevant_vectors(R)]


def test_relevant_vectors_three_regimes():
    # one vector of each relevant pair, in coset order, first nonzero coefficient positive
    # obtuse (theta > pi/2): the third pair is v1 + v2 = (a+1, b)
    assert _relevant_coefficients(HEX) == [(1, 0), (0, 1), (1, 1)]
    # acute (theta < pi/2): the third pair is v2 - v1 = (a-1, b)
    assert _relevant_coefficients(ReducedBasis2D(0.3, 1.2)) == [(1, 0), (0, 1), (1, -1)]
    # right angle: v1 + v2 and v1 - v2 tie in their coset, so only the axes are relevant
    assert _relevant_coefficients(ReducedBasis2D(0.0, 1.0)) == [(1, 0), (0, 1)]


def test_relevant_vectors_span_check_is_exact():
    # on this unreduced flat basis the search keeps the coefficients (1, 0)
    # and (299999999, -1), of determinant -1, which numpy's floating-point
    # matrix_rank reads as rank 1; the pairs span the plane and are returned
    assert np.linalg.matrix_rank(np.array([[1, 0], [299999999, -1]])) == 1
    _, R = qr_upper(np.array([[1e-9, 0.3], [0.0, 1.0]]))
    assert len(_relevant_vectors(R)) == 2


def test_pe_geometric_2d_on_a_far_from_reduced_basis():
    # every lattice vector within ||diag R|| made 1,994 halfplanes here; the
    # relevant pairs make 6
    V = np.array([[2.213199810675672, -0.3474785581572002], [-0.8965520829041624, 0.1448122370416971]])
    _, R = qr_upper(V)
    assert len(_relevant_vectors(R)) <= 3
    pe = pe_geometric_2d(V)
    mc, se = mc_pe_oracle(V, 200_000, seed=1)
    assert abs(pe - mc) <= 3.0 * se


def test_voronoi_hexagon_square_lattice():
    poly = voronoi_polygon_2d(ReducedBasis2D(0.0, 1.0))
    # rectangle case: hexagon degenerates, 4 distinct corners at (+-1/2, +-1/2)
    got = {tuple(np.round(p, 9)) for p in poly.vertices}
    assert got == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}
    assert poly.area == pytest.approx(1.0, abs=1e-12)


def test_voronoi_hexagon_hexagonal_lattice():
    poly = voronoi_polygon_2d(HEX)
    assert len(poly.vertices) == 6
    expect = {
        (0.5, 1 / (2 * np.sqrt(3.0))), (-0.5, 1 / (2 * np.sqrt(3.0))),
        (0.5, -1 / (2 * np.sqrt(3.0))), (-0.5, -1 / (2 * np.sqrt(3.0))),
        (0.0, 1 / np.sqrt(3.0)), (0.0, -1 / np.sqrt(3.0)),
    }
    got = {tuple(np.round(p, 9)) for p in poly.vertices}
    assert got == {tuple(np.round(np.array(e), 9)) for e in expect}
    assert poly.area == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)


def test_voronoi_area_equals_determinant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        rb = _random_reduced(rng)
        assert voronoi_polygon_2d(rb).area == pytest.approx(rb.b, abs=1e-9)


def test_closed_form_hexagonal_is_one_twelfth():
    assert pe_closed_form(HEX) == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_closed_form_zero_iff_rectangular():
    assert pe_closed_form(ReducedBasis2D(0.0, 1.3)) == 0.0
    assert pe_closed_form(ReducedBasis2D(-0.2, 1.1)) > 0.0


def test_closed_form_two_printed_forms_agree():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rb = _random_reduced(rng)
        a, b = rb.canonical_a, rb.b
        alt = (1.0 - (1.0 + 2.0 * a) ** 2) / (16.0 * b * b)
        assert pe_closed_form(rb) == pytest.approx(alt, abs=1e-12)


def test_closed_form_sign_flip_invariance():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rb = _random_reduced(rng)
        assert pe_closed_form(ReducedBasis2D(-abs(rb.a), rb.b)) == pytest.approx(
            pe_closed_form(ReducedBasis2D(abs(rb.a), rb.b)), abs=1e-15
        )


def test_geometric_matches_closed_form():
    rng = np.random.default_rng(37)
    for _ in range(100):
        rb = _random_reduced(rng)
        assert pe_geometric_2d(rb.basis()) == pytest.approx(pe_closed_form(rb), abs=1e-9)


def test_geometric_on_specific_integer_bases():
    # {(1,2), (-2,1)}: orthogonal pair, box equals Voronoi cell, no error mass
    assert pe_geometric_2d(np.array([[1.0, -2.0], [2.0, 1.0]])) == pytest.approx(0.0, abs=1e-12)
    # {(5,0), (3,1)}: reduces to the square lattice {(2,-1), (1,2)} (a = 0),
    # and its value 1/2 is exact; the Monte-Carlo check below confirms it
    pe = pe_geometric_2d(np.array([[5.0, 3.0], [0.0, 1.0]]))
    assert pe == pytest.approx(0.5, abs=1e-9)


def test_geometric_against_mc_oracle():
    pe, _ = mc_pe_oracle(np.array([[5.0, 3.0], [0.0, 1.0]]), samples=200000, seed=99)
    assert abs(pe - 0.5) < 4 * np.sqrt(0.25 / 200000)
    pe2, se2 = mc_pe_oracle(HEX.basis(), samples=200000, seed=100)
    assert abs(pe2 - 1.0 / 12.0) < 4 * se2


def test_geometric_rejects_wrong_shape():
    with pytest.raises(ValueError):
        pe_geometric_2d(np.eye(3))


@pytest.mark.parametrize("V", [[[1e-9, 0.0], [0.0, 1.0]], [[1e-9, 0.3], [0.0, 1.0]]])
def test_geometric_raises_where_cell_and_box_collapse(V):
    # at flatness 1e-9 the polygon of cell & box keeps 2 vertices of area 0,
    # which would read as P_e = 1.0; the exact P_e of both bases is 0
    with pytest.raises(FloatingPointError, match="2 vertices"):
        pe_geometric_2d(np.array(V))


def test_geometric_on_a_flat_rectangle_that_still_resolves():
    assert pe_geometric_2d(np.array([[1e-8, 0.0], [0.0, 1.0]])) == 0.0


def test_geometric_scale_invariance():
    rng = np.random.default_rng(43)
    for _ in range(20):
        rb = _random_reduced(rng)
        s = rng.uniform(0.1, 10.0)
        assert pe_geometric_2d(s * rb.basis()) == pytest.approx(pe_closed_form(rb), abs=1e-9)
    # the polygon tolerance acts on offsets scaled by a power of two, and the
    # bisector search pads relatively, so a lattice far below or above unit
    # size gives the unit answer
    rb = ReducedBasis2D(0.37, 1.13)
    for s in 10.0 ** np.arange(-12, 13, 2):
        assert pe_geometric_2d(s * rb.basis()) == pytest.approx(pe_closed_form(rb), abs=1e-13)


def test_packing_density_and_max():
    assert packing_density_2d(HEX) == pytest.approx(DENSITY_2D_MAX, abs=1e-15)
    assert packing_density_2d(ReducedBasis2D(0.0, 1.0)) == pytest.approx(np.pi / 4.0, abs=1e-15)


def test_pe_polar_worst_angle():
    # at fixed rho, the maximizer sits where a = rho cos theta = -1/2
    for rho in (1.0, 1.1, 1.5):
        th = worst_theta(rho)
        assert rho * np.cos(th) == pytest.approx(-0.5, abs=1e-12)
        # valid angles keep a = rho cos theta in [-1/2, 0]: scan [pi/2, th]
        thetas = np.linspace(np.pi / 2, th, 401)
        vals = [pe_polar(t, rho) for t in thetas]
        assert max(vals) <= pe_polar(th, rho) + 1e-12
    assert pe_polar(2 * np.pi / 3, 1.0) == pytest.approx(1.0 / 12.0, abs=1e-15)
    with pytest.raises(ValueError):
        worst_theta(0.9)


def test_optimal_a_branches():
    # slack constraint below pi/4: rectangular wins
    assert optimal_a(np.pi / 8) == 0.0
    assert optimal_a(np.pi / 4) == 0.0
    # binding constraint: hexagonal endpoint at max density gives a = -1/2
    assert optimal_a(DENSITY_2D_MAX) == pytest.approx(-0.5, abs=1e-12)
    # intermediate density: the constraint a^2 + b^2 >= 1 binds, a* sits on
    # the circle, and every feasible more-negative a does worse
    D = 0.85
    b = np.pi / (4.0 * D)
    a_star = optimal_a(D)
    assert a_star**2 + b**2 == pytest.approx(1.0, abs=1e-12)
    for a in np.linspace(a_star, -0.5, 20):
        assert pe_density_form(a_star, D) <= pe_density_form(a, D) + 1e-15
    with pytest.raises(ValueError):
        optimal_a(0.0)
    with pytest.raises(ValueError):
        optimal_a(1.0)


def test_pe_density_form_consistent_with_closed_form():
    rng = np.random.default_rng(47)
    for _ in range(50):
        rb = _random_reduced(rng)
        D = packing_density_2d(rb)
        assert pe_density_form(rb.canonical_a, D) == pytest.approx(pe_closed_form(rb), abs=1e-12)


def test_monotonicity_in_a_and_b():
    # fixed b: pe increases as a moves from 0 toward -1/2
    b = 1.2
    grid = np.linspace(0.0, -0.5, 60)
    vals = [pe_closed_form(ReducedBasis2D(a, b)) for a in grid]
    assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))
    # fixed a: pe decreases as b grows
    a = -0.4
    vals_b = [pe_closed_form(ReducedBasis2D(a, b)) for b in np.linspace(1.0, 3.0, 60)]
    assert all(x >= y - 1e-15 for x, y in zip(vals_b, vals_b[1:]))


def test_level_curves():
    rows = level_curve_data()
    ks = {r[0] for r in rows}
    assert ks == set(LEVEL_CURVE_DEFAULT_KS)
    for k, a, b, pe in rows:
        if k == 0.0:
            assert a == 0.0 and pe == 0.0
        else:
            assert pe == pytest.approx(k, abs=1e-12)
            assert a * a + b * b >= 1.0 - 1e-9
    # the 1/12 contour passes through the hexagonal point
    hex_rows = [r for r in rows if r[0] == 1.0 / 12.0]
    d = min(np.hypot(r[1] + 0.5, r[2] - np.sqrt(3) / 2) for r in hex_rows)
    assert d < 2e-2
    with pytest.raises(ValueError):
        level_curve_data(pe_values=(0.2,))
