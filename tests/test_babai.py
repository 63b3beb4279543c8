import math

import numpy as np
import pytest

from latbabai.babai import (
    BabaiCell,
    babai_cell,
    babai_point,
    is_babai_error,
    nearest_plane,
    nearest_plane_general,
)
from latbabai.core import as_basis, cvp_bruteforce, qr_upper, volume
from latbabai.lattices import BCC_UNIT, HEXAGONAL_2D


def test_nearest_plane_rounds_halves_up():
    R = np.eye(2)
    assert np.array_equal(nearest_plane(R, [0.5, -0.5]), [1, 0])
    assert np.array_equal(nearest_plane(R, [0.4999, -0.5001]), [0, -1])
    X = np.array([[0.5, -0.5], [1.5, 0.5], [-0.5, 1.5], [-1.5, -1.5]])
    assert nearest_plane(R, X).tolist() == [[1, 0], [2, 1], [0, 2], [-1, -1]]
    # dyadic ratio: b_1 = [0.75 - 0.25 * b_2] lands exactly on 0.5 when b_2 = 1
    R2 = np.array([[1.0, 0.25], [0.0, 2.0]])
    assert nearest_plane(R2, np.array([[0.75, 2.0], [-0.25, -2.0]])).tolist() == [[1, 1], [0, -1]]


def test_nearest_plane_backward_substitution_order():
    # b2 = [x2/r22] first, then b1 uses it; cross term flips the b1 rounding
    R = np.array([[1.0, 0.9], [0.0, 1.0]])
    b = nearest_plane(R, np.array([0.0, 0.6]))
    assert np.array_equal(b, [-1, 1])


def test_nearest_plane_rejects_bad_triangles():
    with pytest.raises(ValueError):
        nearest_plane(np.array([[1.0, 0.0], [0.5, 1.0]]), [0.0, 0.0])
    with pytest.raises(ValueError):
        nearest_plane(np.array([[1.0, 0.0], [0.0, -1.0]]), [0.0, 0.0])


def _reference_recursion(R, x):
    """Textbook back-substitution on one target, one coefficient at a time."""
    n = len(x)
    b = [0] * n
    for m in range(n - 1, -1, -1):
        resid = x[m] - sum(R[m][l] * b[l] for l in range(m + 1, n))
        b[m] = math.floor(resid / R[m][m] + 0.5)
    return b


def test_nearest_plane_stack_matches_reference_recursion():
    rng = np.random.default_rng(37)
    for V in (HEXAGONAL_2D, BCC_UNIT, np.array([[1.0, 0.25], [0.0, 2.0]])):
        _, R = qr_upper(as_basis(V))
        n = R.shape[0]
        X = rng.uniform(-5.0, 5.0, size=(400, n))
        B = nearest_plane(R, X)
        assert B.shape == (400, n) and B.dtype == np.int64
        assert B.tolist() == [_reference_recursion(R.tolist(), x.tolist()) for x in X]
        assert all(np.array_equal(b, nearest_plane(R, x)) for b, x in zip(B, X))
        assert nearest_plane(R, np.zeros((0, n))).shape == (0, n)


def test_nearest_plane_general_stack_matches_per_row_calls():
    rng = np.random.default_rng(41)
    for V in (HEXAGONAL_2D, BCC_UNIT, rng.normal(size=(3, 3))):
        V = as_basis(V)
        X = rng.normal(scale=3.0, size=(200, V.shape[0]))
        B = nearest_plane_general(V, X)
        assert B.shape == X.shape
        assert all(np.array_equal(b, nearest_plane_general(V, x)) for b, x in zip(B, X))
        assert nearest_plane_general(V, np.zeros((0, V.shape[0]))).shape == (0, V.shape[0])


def test_wrong_target_length_is_a_value_error():
    R = np.array([[1.0, 0.5], [0.0, 1.0]])
    V = as_basis(HEXAGONAL_2D)
    for bad in ([0.2, 0.7, 99.0], [0.2], np.zeros((4, 3)), np.zeros((2, 2, 2)), 0.5):
        with pytest.raises(ValueError, match="target"):
            nearest_plane(R, bad)
        with pytest.raises(ValueError, match="target"):
            nearest_plane_general(V, bad)


def test_general_matches_triangular_on_rotated_bases():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(50):
            V = rng.normal(size=(n, n))
            if abs(np.linalg.det(V)) < 1e-3:
                continue
            Q, R = qr_upper(V)
            x = rng.normal(scale=3.0, size=n)
            b_tri = nearest_plane(R, Q.T @ x)
            b_gen = nearest_plane_general(V, x)
            assert np.array_equal(b_tri, b_gen)


def test_general_is_rotation_invariant():
    rng = np.random.default_rng(11)
    V = as_basis(BCC_UNIT)
    # random rotation via QR of a Gaussian matrix
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    for _ in range(25):
        x = rng.normal(scale=2.0, size=3)
        assert np.array_equal(nearest_plane_general(V, x), nearest_plane_general(Q @ V, Q @ x))


def test_babai_exact_when_target_is_lattice_point():
    rng = np.random.default_rng(3)
    V = as_basis(HEXAGONAL_2D)
    for _ in range(40):
        b = rng.integers(-5, 6, size=2)
        lp = babai_point(V, V @ b)
        assert np.array_equal(lp.coeffs, b)
        assert np.allclose(lp.point, V @ b, atol=1e-12)


def test_babai_cell_volume_and_membership():
    _, R = qr_upper(as_basis(BCC_UNIT))
    cell = babai_cell(R, [2, -1, 3])
    # cells tile the space: each has the fundamental volume
    assert cell.volume == pytest.approx(volume(R), abs=1e-12)
    assert cell.contains(cell.center)
    assert not cell.contains(cell.center + 2.0 * cell.half_widths)
    assert isinstance(cell, BabaiCell)


def test_babai_cell_is_decoding_region():
    # interior points of the cell decode back to the cell's coefficients
    rng = np.random.default_rng(5)
    _, R = qr_upper(as_basis(HEXAGONAL_2D))
    b = np.array([1, -2])
    cell = babai_cell(R, b)
    for _ in range(200):
        y = cell.center + (rng.uniform(-1, 1, size=2) * 0.999) * cell.half_widths
        assert np.array_equal(nearest_plane(R, y), b)


def test_is_babai_error_against_bruteforce_rate():
    # hexagonal lattice: geometric error fraction is 1/12
    rng = np.random.default_rng(19)
    V = as_basis(HEXAGONAL_2D)
    n_mc = 20000
    b = rng.integers(-2, 3, size=(n_mc, 2))
    _, R = qr_upper(V)
    offsets = (rng.uniform(-0.5, 0.5, size=(n_mc, 2)) * np.diag(R))
    hits = 0
    for i in range(n_mc):
        x = V @ b[i] + offsets[i, 0] * np.array([1.0, 0.0]) + offsets[i, 1] * np.array([0.0, 1.0])
        hits += is_babai_error(V, x)
    rate = hits / n_mc
    sigma = np.sqrt((1 / 12) * (11 / 12) / n_mc)
    assert abs(rate - 1 / 12) < 4 * sigma


def test_babai_agrees_with_cvp_when_cell_inside_voronoi():
    # square lattice: the Babai box IS the Voronoi cell, so zero errors
    rng = np.random.default_rng(23)
    V = np.eye(2)
    for _ in range(300):
        x = rng.uniform(-4, 4, size=2)
        lp = babai_point(V, x)
        exact = cvp_bruteforce(V, x)
        assert np.linalg.norm(x - lp.point) <= np.linalg.norm(x - exact.point) + 1e-12


def test_babai_error_flag_matches_distance_comparison():
    rng = np.random.default_rng(29)
    V = as_basis(HEXAGONAL_2D)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=2)
        flag = is_babai_error(V, x)
        d_b = np.linalg.norm(x - babai_point(V, x).point)
        d_c = np.linalg.norm(x - cvp_bruteforce(V, x).point)
        assert flag == (d_b > d_c + 1e-12)
