import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latbabai.babai import babai_point, nearest_plane_general

from latbabai.core import (
    SEARCH_NODE_LIMIT,
    EnumerationTooLargeError,
    RankDeficiencyError,
    UnsupportedDimensionError,
    as_basis,
    cvp_bruteforce,
    gram,
    lattice_from_json,
    lattice_to_json,
    packing_density,
    qr_upper,
    round_half_up,
    shortest_vector,
    unit_volume_normalize,
    volume,
)
from latbabai.lattices import BCC, BCC_UNIT, CUBIC_3D, FCC, HEXA_RHOMBIC, HEXAGONAL_2D, HEXAGONAL_PRISM


def test_round_half_up_ties_go_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(-0.5) == 0
    assert round_half_up(1.5) == 2
    assert round_half_up(-1.5) == -1
    assert round_half_up(2.4999999) == 2


def test_round_half_up_vectorized():
    y = np.array([-1.5, -0.5, 0.5, 1.5, 0.49])
    assert np.array_equal(round_half_up(y), [-1.0, 0.0, 1.0, 2.0, 0.0])


def test_qr_upper_reconstruction_and_positive_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        V = rng.normal(size=(3, 3))
        if abs(np.linalg.det(V)) < 1e-6:
            continue
        Q, R = qr_upper(V)
        assert np.allclose(Q @ R, V, atol=1e-12)
        assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-12)
        assert np.all(np.diag(R) > 0)
        assert np.allclose(np.tril(R, -1), 0.0, atol=1e-12)


def test_as_basis_rejects_rank_deficiency():
    with pytest.raises(RankDeficiencyError):
        as_basis([[1.0, 2.0], [2.0, 4.0]])


def test_gram_and_volume():
    V = as_basis(HEXAGONAL_2D)
    A = gram(V)
    assert np.allclose(A, V.T @ V)
    assert volume(V) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)


def test_lattice_json_round_trip(tmp_path):
    V = as_basis(FCC)
    obj = lattice_to_json(V)
    path = tmp_path / "fcc.json"
    path.write_text(json.dumps(obj))
    W = lattice_from_json(str(path))
    assert np.allclose(V, W)


def test_lattice_json_rejects_malformed():
    with pytest.raises(ValueError):
        lattice_from_json({"n": 2, "columns": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        lattice_from_json({"columns": [[1.0]]})


def test_shortest_vector_known_lattices():
    # hexagonal: minimum norm 1; BCC unit basis: first column is shortest
    v = shortest_vector(as_basis(HEXAGONAL_2D))
    assert v.norm == pytest.approx(1.0, abs=1e-12)
    v3 = shortest_vector(as_basis(BCC_UNIT))
    assert v3.norm == pytest.approx(1.0, abs=1e-12)


def test_packing_densities_match_closed_forms():
    assert packing_density(as_basis(HEXAGONAL_2D)) == pytest.approx(np.pi / (2 * np.sqrt(3)), abs=1e-12)
    assert packing_density(np.eye(3)) == pytest.approx(np.pi / 6, abs=1e-12)
    assert packing_density(as_basis(BCC_UNIT)) == pytest.approx(np.pi * np.sqrt(3) / 8, abs=1e-12)
    assert packing_density(as_basis(FCC)) == pytest.approx(np.pi / (3 * np.sqrt(2)), abs=1e-12)
    assert packing_density(as_basis(HEXAGONAL_PRISM)) == pytest.approx(np.pi / (3 * np.sqrt(3)), abs=1e-12)


def test_packing_density_dimension_guard():
    with pytest.raises(UnsupportedDimensionError):
        packing_density(np.eye(4))


def test_unit_volume_normalize():
    W = unit_volume_normalize(as_basis(BCC_UNIT))
    assert abs(np.linalg.det(W)) == pytest.approx(1.0, abs=1e-12)


def test_cvp_bruteforce_beats_random_candidates():
    rng = np.random.default_rng(11)
    V = as_basis(HEXAGONAL_2D)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        best = cvp_bruteforce(V, x)
        d = np.linalg.norm(x - best.point)
        for _ in range(30):
            u = rng.integers(-4, 5, 2)
            assert d <= np.linalg.norm(x - V @ u) + 1e-12


def test_enumeration_refuses_large_dimensions_and_non_finite_targets():
    with pytest.raises(UnsupportedDimensionError):
        shortest_vector(np.eye(5))
    with pytest.raises(UnsupportedDimensionError):
        cvp_bruteforce(np.eye(5), np.zeros(5))
    for bad in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            cvp_bruteforce(HEXAGONAL_2D, np.array(bad))
    with pytest.raises(OverflowError):
        cvp_bruteforce(np.eye(2), np.array([1e19, 0.3]))


@pytest.mark.parametrize("skew", [40.0, 100.0])
def test_cvp_bruteforce_is_exact_on_skewed_bases(skew):
    # {(1,0), (skew,1)} spans Z^2, whose covering radius is sqrt(2)/2 < 1, so
    # every closest point lies within distance 1 of x: |u_i - y_i| <= ||row_i(V^-1)||
    V = np.array([[1.0, skew], [0.0, 1.0]])
    Vinv = np.linalg.inv(V)
    reach = np.ceil(np.linalg.norm(Vinv, axis=1)) + 1
    rng = np.random.default_rng(1)
    for x in rng.uniform(-3, 3, size=(300, 2)) @ V.T:
        y = np.rint(Vinv @ x)
        U = np.stack(np.meshgrid(*[np.arange(c - k, c + k + 1) for c, k in zip(y, reach)]), -1).reshape(-1, 2)
        d_ref = np.linalg.norm(U @ V.T - x, axis=1).min()
        d = np.linalg.norm(x - cvp_bruteforce(V, x).point)
        assert d == pytest.approx(d_ref, abs=1e-12)
        assert d <= np.linalg.norm(x - babai_point(V, x).point) + 1e-12


@pytest.mark.parametrize("shear", [1e2, 3e6, 1e7, 1e8])
@pytest.mark.parametrize("name", ["square", "BCC_UNIT"])
def test_sheared_bases_decode_lattice_points_and_refuse_or_find_the_closest(name, shear):
    # V = B S with S = I + shear e_1 e_2^T spans the lattice of B, and
    # cond(V) grows as shear^2: V u decodes to u, and a target whose
    # coefficients lie within 1e-3 of integers gets B's closest point, S u;
    # the search follows the shear, so none is refused any more
    B = np.eye(2) if name == "square" else as_basis(BCC_UNIT)
    S = np.eye(len(B))
    S[0, 1] = shear
    V = B @ S
    rng = np.random.default_rng(59)
    U = rng.integers(-5, 6, size=(40, len(B)))
    for u in U:
        assert babai_point(V, V @ u).coeffs.tolist() == u.tolist()
        assert cvp_bruteforce(V, V @ u).coeffs.tolist() == u.tolist()
    assert nearest_plane_general(V, U @ V.T).tolist() == U.tolist()
    for u in U:
        x = V @ (u + rng.uniform(-1e-3, 1e-3, len(B)))
        lp = cvp_bruteforce(V, x)
        assert (S @ lp.coeffs).tolist() == cvp_bruteforce(B, x).coeffs.tolist()


def test_a_badly_ordered_basis_is_refused_with_a_typed_error():
    # the short column last gives the search's first level about 1.4e6
    # values within the Babai distance; it stops at the node limit
    with pytest.raises(EnumerationTooLargeError, match="closest-point search passed") as err:
        cvp_bruteforce(np.diag([1.0, 1.0, 1e-6]), np.array([0.5, 0.5, 0.0]))
    assert "order the columns shortest first" in str(err.value)
    assert str(SEARCH_NODE_LIMIT) in str(err.value)
    assert isinstance(err.value, ValueError)
    # the same lattice with the short column first is searched at once
    assert cvp_bruteforce(np.diag([1e-6, 1.0, 1.0]), np.array([0.0, 0.5, 0.5])).coeffs.tolist() == [0, 0, 0]


def test_long_lattices_are_searched_level_by_level():
    # the Babai point (1, 0) is 0.1 nearer in squared distance than (0, 0),
    # far below a window relative to the squared distance (1.6e11)
    assert cvp_bruteforce(np.diag([1.0, 1e6]), np.array([0.55, 4e5])).coeffs.tolist() == [1, 0]
    assert babai_point(np.diag([1.0, 1e6]), np.array([0.55, 4e5])).coeffs.tolist() == [1, 0]
    # the box about this target would hold 6.4e17 points
    assert cvp_bruteforce(np.diag([1.0, 1.0, 1e9]), np.array([0.3, 0.2, 4e8])).coeffs.tolist() == [0, 0, 0]
    # {(1,0), (9e5,1)} spans Z^2, and (1/2, 1/2) ties four points; the
    # lexicographically smallest coefficients are those of (0, 1)
    V = np.array([[1.0, 9e5], [0.0, 1.0]])
    assert cvp_bruteforce(V, np.array([0.5, 0.5])).coeffs.tolist() == [-900000, 1]


EXEMPLARS = [HEXAGONAL_2D, CUBIC_3D, HEXA_RHOMBIC, HEXAGONAL_PRISM, BCC, BCC_UNIT, FCC]


@st.composite
def unimodular(draw, n):
    """A product of at most three elementary column operations c_j += k c_i, |k| <= 2."""
    U = np.eye(n, dtype=int)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        U[:, j] += draw(st.integers(-2, 2)) * U[:, i]
    return U


@st.composite
def basis_and_target(draw):
    V = EXEMPLARS[draw(st.integers(0, len(EXEMPLARS) - 1))]
    n = V.shape[0]
    x = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    return V, draw(unimodular(n)), V @ x


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=basis_and_target())
def test_cvp_bruteforce_never_farther_than_babai(case):
    V, U, x = case
    W = V @ U
    d = np.linalg.norm(x - cvp_bruteforce(W, x).point)
    assert d <= np.linalg.norm(x - babai_point(W, x).point) + 1e-12


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=basis_and_target())
def test_cvp_and_shortest_vector_are_basis_invariant(case):
    V, U, x = case
    W = V @ U
    assert np.linalg.norm(x - cvp_bruteforce(W, x).point) == pytest.approx(
        np.linalg.norm(x - cvp_bruteforce(V, x).point), abs=1e-12
    )
    assert shortest_vector(W).norm == pytest.approx(shortest_vector(V).norm, abs=1e-12)


def _exact_d2(V, u, x):
    """|x - V u|^2 of the float inputs, in rational arithmetic."""
    return sum(
        (Fraction(xi) - sum(Fraction(vij) * int(uj) for vij, uj in zip(row, u))) ** 2
        for row, xi in zip(V.tolist(), x.tolist())
    )


def _prism(length):
    return np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, length]])


def _sheared_bcc(k):
    return as_basis(BCC_UNIT) @ np.array([[1.0, k, -k], [0.0, 1.0, k + 1.0], [0.0, 0.0, 1.0]])


LONG_AND_SHEARED = {
    **{f"diag(1, 1, 1e{e})": np.diag([1.0, 1.0, 10.0**e]) for e in range(2, 10)},
    **{f"prism 1e{e}": _prism(10.0**e) for e in range(2, 10)},
    **{f"diag(1, 1e{e})": np.diag([1.0, 10.0**e]) for e in range(2, 10)},
    **{f"BCC_UNIT sheared by {k}": _sheared_bcc(k) for k in (3, 9, 40)},
}


@pytest.mark.parametrize("name", sorted(LONG_AND_SHEARED))
def test_exact_decoder_on_long_and_sheared_lattices_in_rational_arithmetic(name):
    # the answer is never farther than the nearest-plane point, and no +-1
    # step of one coefficient is nearer; a box of radius |x - V b| would
    # hold up to 1e18 points here, and a window relative to |x - V b|^2
    # would let a farther point tie
    V = LONG_AND_SHEARED[name]
    n = len(V)
    rng = np.random.default_rng(17)
    steps = [s * e for e in np.eye(n, dtype=np.int64) for s in (1, -1)]
    for k in range(20):
        y = rng.uniform(-3.0, 3.0, n)
        if k % 2:
            y[-1] *= 1e3
        x = V @ y
        u = cvp_bruteforce(V, x).coeffs
        d2 = _exact_d2(V, u, x)
        assert d2 <= _exact_d2(V, babai_point(V, x).coeffs, x)
        assert all(_exact_d2(V, u + e, x) >= d2 for e in steps)


def test_shortest_vector_answers_on_gaussian_bases():
    # three of these bases would need a Fincke-Pohst box of over 2**20 points
    # at radius min ||v_j||; where the box at radius lambda_1 holds at most
    # 60,000 points, it checks that no nonzero vector is shorter
    checked = 0
    for V in np.random.default_rng(5).normal(size=(100, 3, 3)):
        sv = shortest_vector(V)
        assert sv.coeffs.any() and np.array_equal(sv.point, V @ sv.coeffs)
        assert sv.norm <= np.linalg.norm(V, axis=0).min() * (1.0 + 1e-12)
        reach = np.floor(sv.norm * np.linalg.norm(np.linalg.inv(V), axis=1) + 1e-9).astype(int)
        if math.prod(2 * reach + 1) <= 60_000:
            U = np.array(list(itertools.product(*[range(-r, r + 1) for r in reach])))
            norms = np.linalg.norm(U[np.any(U != 0, axis=1)] @ V.T, axis=1)
            assert norms.min() >= sv.norm * (1.0 - 1e-12)
            checked += 1
    assert checked >= 95


def test_as_basis_rank_test_is_scale_free():
    # Hadamard's bound: a skewed unimodular basis, with entries 1e6 times its
    # determinant, is full rank, while singular, zero and nearly singular
    # matrices are refused, at any scale
    skew = np.array([[1.0, 1e6], [0.0, 1.0]])
    singular = [
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]),
        np.column_stack([FCC[:, 0], FCC[:, 1], FCC[:, 0] + FCC[:, 1]]),
        np.column_stack([FCC[:, :2], FCC[:, 0] + FCC[:, 1] + 1e-13 * FCC[:, 2]]),
        np.zeros((3, 3)),
    ]
    # the determinant of 1e150 * I overflowed and that of 1e-160 * I underflowed;
    # columns at mixed scales keep Hadamard's ratio too, and nothing warns
    scales = [1e-8, 1e-4, 1e4, 1e150, 1e-160] + list(10.0 ** np.arange(-300, 301, 20))
    mixed = [np.array(d) for d in ([1e300, 1e-300, 1.0], [1e300, 1e300, 1e-300], [1e-300, 1e-300, 1e200])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in scales:
            for V in (skew, FCC, BCC):
                assert np.array_equal(as_basis(scale * V), scale * V)
            for V in singular:
                with pytest.raises(RankDeficiencyError):
                    as_basis(scale * V)
        for d in mixed:
            for V in (FCC, BCC):
                assert np.array_equal(as_basis(V * d), V * d)
            for V in singular[2:]:
                with pytest.raises(RankDeficiencyError):
                    as_basis(V * d)
