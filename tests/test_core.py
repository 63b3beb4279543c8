import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latbabai.babai import babai_point

from latbabai.core import (
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


def test_as_basis_rank_test_is_scale_free():
    for scale in (1e-4, 1e-8, 1e4):
        assert np.array_equal(as_basis(scale * FCC), scale * FCC)
        with pytest.raises(RankDeficiencyError):
            as_basis(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(RankDeficiencyError):
        as_basis(np.zeros((3, 3)))
