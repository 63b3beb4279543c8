import json

import numpy as np
import pytest

from latbabai.core import (
    EnumerationWindowWarning,
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
from latbabai.lattices import BCC_UNIT, FCC, HEXAGONAL_2D, HEXAGONAL_PRISM


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


def test_cvp_bruteforce_window_warning_on_skewed_basis():
    # rounding V^-1 x is a poor center for a far-from-reduced basis, so the
    # enumeration box clips and the minimizer lands on its edge
    V = np.array([[1.0, 100.0], [0.0, 1.0]])
    with pytest.warns(EnumerationWindowWarning):
        cvp_bruteforce(V, np.array([0.5, 0.49]), window=3)


def test_as_basis_rank_test_is_scale_free():
    for scale in (1e-4, 1e-8, 1e4):
        assert np.array_equal(as_basis(scale * FCC), scale * FCC)
        with pytest.raises(RankDeficiencyError):
            as_basis(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(RankDeficiencyError):
        as_basis(np.zeros((3, 3)))
