from itertools import permutations, product

import numpy as np
import pytest

from latbabai.core import as_basis, gram
from latbabai.lattices import (
    BCC_UNIT,
    CUBIC_3D,
    FCC,
    HEXA_RHOMBIC,
    HEXAGONAL_2D,
    HEXAGONAL_PRISM,
    KNOWN_LATTICES,
)
from latbabai.reduction import (
    ConormSet,
    MinkowskiReport,
    ObtuseSuperbaseNotFound,
    PAIR_ORDER_3D,
    Superbase,
    _obtuse_superbases,
    conorms,
    is_minkowski_reduced,
    lagrange_gauss_reduce,
    superbase_to_minkowski,
    to_obtuse_superbase,
    vonorms,
)


def test_minkowski_conditions_on_known_lattices():
    # stored bases need not be norm-sorted, so reduce first
    for name, V in KNOWN_LATTICES.items():
        W = superbase_to_minkowski(to_obtuse_superbase(as_basis(V)))
        assert is_minkowski_reduced(gram(W)).reduced, name


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_minkowski_verdict_does_not_depend_on_scale(scale):
    for name, V in KNOWN_LATTICES.items():
        W = superbase_to_minkowski(to_obtuse_superbase(as_basis(V)))
        assert is_minkowski_reduced(gram(scale * W)) == MinkowskiReport(True, None), name
    # the stored hexa-rhombic basis has its two longer vectors swapped
    assert is_minkowski_reduced(gram(scale * as_basis(HEXA_RHOMBIC))).violated == "a22 > a33"
    assert is_minkowski_reduced(gram(scale * np.diag([1.0, 1.0, 1.0 - 1e-6]))).violated == "a22 > a33"


def test_minkowski_violations_are_reported():
    # ordering violated
    rep = is_minkowski_reduced(np.diag([4.0, 1.0]))
    assert not rep.reduced and rep.violated
    # off-diagonal too large
    A = np.array([[1.0, 0.9], [0.9, 2.0]])
    rep2 = is_minkowski_reduced(A)
    assert not rep2.reduced and rep2.violated


def test_minkowski_sign_sum_condition_3d():
    # diagonal and pairwise conditions hold but the eight-sign inequality
    # 2|s1 a12 + s2 a13 + s3 a23| <= a11 + a22 fails
    A = np.array([
        [2.0, -0.9, -0.9],
        [-0.9, 2.0, -0.9],
        [-0.9, -0.9, 2.1],
    ])
    rep = is_minkowski_reduced(A)
    assert not rep.reduced
    assert "a12" in rep.violated and "a23" in rep.violated


def test_lagrange_gauss_reduces_random_bases():
    rng = np.random.default_rng(2)
    for _ in range(50):
        V = rng.normal(size=(2, 2)) * rng.uniform(0.5, 4)
        if abs(np.linalg.det(V)) < 1e-3:
            continue
        W, U = lagrange_gauss_reduce(V)
        assert abs(round(np.linalg.det(U)) ) == 1
        assert np.allclose(V @ U, W, atol=1e-9)
        A = gram(W)
        assert A[0, 0] <= A[1, 1] + 1e-9
        assert 2 * abs(A[0, 1]) <= A[0, 0] + 1e-9


def test_superbase_vectors_sum_to_zero():
    for V in (HEXAGONAL_2D, BCC_UNIT, FCC, HEXA_RHOMBIC):
        sb = to_obtuse_superbase(as_basis(V))
        assert np.allclose(sb.vectors.sum(axis=0), 0.0, atol=1e-9)
        assert sb.is_obtuse()


def test_obtuse_superbase_on_all_known_lattices():
    for name, V in KNOWN_LATTICES.items():
        sb = to_obtuse_superbase(as_basis(V))
        assert sb.is_obtuse(), name


def test_obtuse_test_is_scale_free():
    for name, V in KNOWN_LATTICES.items():
        sb = to_obtuse_superbase(as_basis(V))
        for scale in (1e-6, 1e-3, 1e3, 1e4):
            scaled = to_obtuse_superbase(scale * as_basis(V))
            assert np.allclose(scaled.vectors, scale * sb.vectors, rtol=0, atol=scale * 1e-15), (name, scale)
            assert conorms(scaled).zero_pattern() == conorms(sb).zero_pattern()
    # a Selling parameter above tol times the two norms still fails
    assert not Superbase.from_basis(np.array([[1.0, 1e-9], [0.0, 1.0]])).is_obtuse()


@pytest.mark.parametrize("V", [
    np.array([[1.0, 0.3], [0.0, 1e5]]),
    np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e5]]),
])
def test_obtuse_test_ignores_a_long_vector(V):
    # the identity superbase has p_12 = +0.3; a long v_n must not let it pass
    assert not Superbase.from_basis(V).is_obtuse()
    S = to_obtuse_superbase(V).selling
    assert (S[~np.eye(len(S), dtype=bool)] <= 0.0).all()


def test_obtuse_superbase_keeps_already_obtuse_basis():
    V = as_basis(BCC_UNIT)
    sb = to_obtuse_superbase(V)
    # columns of V appear unchanged as v_1..v_3 when no sign flip is needed
    assert np.allclose(sb.basis(), V, atol=1e-12)


def test_obtuse_superbase_on_random_reduced_bases():
    rng = np.random.default_rng(3)
    found = 0
    while found < 30:
        a = rng.uniform(-0.5, 0.0)
        b = rng.uniform(np.sqrt(3) / 2, 2.0)
        c, d = rng.uniform(-0.5, 0.0), rng.uniform(-1.0, 0.0)
        e = rng.uniform(1.0, 2.5)
        V = np.array([[1.0, a, c], [0.0, b, d], [0.0, 0.0, e]])
        try:
            sb = to_obtuse_superbase(V)
        except Exception:
            continue
        found += 1
        assert sb.is_obtuse()
        # superbase triple generates the same lattice: integer coordinates both ways
        M = np.linalg.solve(V, sb.basis())
        assert np.allclose(M, np.rint(M), atol=1e-9)
        assert abs(round(np.linalg.det(M))) == 1


def test_superbase_to_minkowski_gives_reduced_basis():
    for name, V in KNOWN_LATTICES.items():
        sb = to_obtuse_superbase(as_basis(V))
        W = superbase_to_minkowski(sb)
        assert is_minkowski_reduced(gram(W)).reduced, name


def test_conorms_nonnegative_and_pair_lookup():
    sb = to_obtuse_superbase(as_basis(HEXA_RHOMBIC))
    con = conorms(sb)
    assert all(v >= 0.0 for v in con.values)
    # canonical pair order; lookup is symmetric in the pair
    for (i, j), v in zip(PAIR_ORDER_3D, con.values):
        assert con[(i, j)] == v
        assert con[(j, i)] == v


_COMPLEMENT = {(0, 1): (2, 3), (0, 2): (1, 3), (0, 3): (1, 2)}


def test_conorm_zero_patterns_classify_exemplars():
    patterns = {}
    for name, V in KNOWN_LATTICES.items():
        con = conorms(to_obtuse_superbase(as_basis(V)))
        patterns[name] = con.zero_pattern()
    # cubic: three zeros forming a triangle, no complementary pair among them
    zeros = set(patterns["cubic"])
    assert len(zeros) == 3
    assert not any({p, c} <= zeros for p, c in _COMPLEMENT.items())
    assert len(patterns["hexa_rhombic_dodecahedron"]) == 1
    assert patterns["bcc"] == ()
    # fcc: two complementary zeros (rhombic dodecahedron cell)
    zf = set(patterns["fcc"])
    assert len(zf) == 2 and any({p, c} == zf for p, c in _COMPLEMENT.items())
    # prism: two non-complementary zeros
    zp = set(patterns["hexagonal_prism"])
    assert len(zp) == 2 and not any({p, c} == zp for p, c in _COMPLEMENT.items())


def test_vonorms_bcc_values():
    # unit-shortest-vector BCC: the four superbase vectors have squared norm 1
    # and the three pair sums squared norm 4/3
    sb = to_obtuse_superbase(as_basis(BCC_UNIT))
    von = vonorms(sb)
    singles = sorted(von[key] for key in ((1,), (2,), (3,)))
    pairs = sorted(von[key] for key in ((1, 2), (1, 3), (2, 3)))
    assert singles == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
    assert pairs == pytest.approx([4.0 / 3.0] * 3, abs=1e-9)
    assert von[(1, 2, 3)] == pytest.approx(1.0, abs=1e-9)


def test_conormset_validates_negative_input():
    with pytest.raises(ValueError):
        ConormSet((-0.5, 1.0, 1.0, 1.0, 1.0, 1.0))


def test_conormset_sign_check_is_relative():
    # at scale 1e-12 a conorm 5,000 times the others was below the absolute -1e-8
    with pytest.raises(ValueError, match="nonnegative"):
        ConormSet(1e-12 * np.array([-5000.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    for scale in (1e-12, 1.0, 1e12):
        ConormSet(scale * np.array([5000.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        ConormSet(scale * np.array([-1e-12, 1.0, 1.0, 1.0, 1.0, 1.0]))


def test_superbase_closure_check_is_relative():
    # at scale 1e-12 a residual of (1e-12, 1e-12) was below the absolute 1e-9
    with pytest.raises(ValueError, match="sum to zero"):
        Superbase(1e-12 * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    V = as_basis(BCC_UNIT)
    for scale in (1e-12, 1.0, 1e12):
        assert np.array_equal(Superbase.from_basis(scale * V).basis(), scale * V)


def test_superbase_from_basis_round_trip():
    V = as_basis(HEXAGONAL_PRISM)
    sb = Superbase.from_basis(V)
    assert np.allclose(sb.basis(), V, atol=1e-12)
    assert np.allclose(sb.vectors[0], -V.sum(axis=1), atol=1e-12)


def reference_obtuse_superbase(V):
    """One Superbase per sign flip, identity first, until one is obtuse: the
    search the stacked `_obtuse_superbases` must reproduce bit for bit.
    Returns (superbase, signs), or None when no flip is obtuse."""
    for signs in product((1.0, -1.0), repeat=V.shape[0]):
        W = V * np.array(signs)[None, :]
        sb = Superbase(np.vstack([-W.T.sum(axis=0), W.T]))
        if sb.is_obtuse():
            return sb, np.array(signs)
    return None


def sign_search_cases():
    """Flipped, permuted and scaled exemplars, and random bases, n = 1, 2, 3."""
    rng = np.random.default_rng(16)
    cases = [np.array([[1.5]]), np.array([[-2.0]]), as_basis(HEXAGONAL_2D)]
    for V in [as_basis(V) for V in KNOWN_LATTICES.values()] + [as_basis(BCC_UNIT)]:
        for p in permutations(range(3)):
            for signs in product((1.0, -1.0), repeat=3):
                for scale in (1e-6, 1.0, 3.7e4):
                    cases.append(scale * V[:, list(p)] * np.array(signs))
    for n in (1, 2, 3):
        cases += [rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0) for _ in range(300)]
    return cases


def test_stacked_sign_search_matches_the_per_flip_search():
    found = {1: [], 2: [], 3: []}
    raised = 0
    for V in sign_search_cases():
        ref = reference_obtuse_superbase(V)
        if ref is None:
            raised += 1
            with pytest.raises(ObtuseSuperbaseNotFound):
                _obtuse_superbases(V[None])
            with pytest.raises(ObtuseSuperbaseNotFound):
                to_obtuse_superbase(V)
            continue
        vectors, S, signs = (a[0] for a in _obtuse_superbases(V[None]))
        assert np.array_equal(vectors, ref[0].vectors)
        assert np.array_equal(S, ref[0].selling)
        assert np.array_equal(signs, ref[1])
        assert np.array_equal(to_obtuse_superbase(V).vectors, ref[0].vectors)
        found[len(V)].append((V, vectors, S, signs))
    # both outcomes occur, every dimension has obtuse bases, and a stack
    # gives each basis what it gets alone
    assert raised > 0 and all(found.values())
    for cases in found.values():
        vectors, S, signs = _obtuse_superbases(np.array([V for V, *_ in cases]))
        assert np.array_equal(vectors, np.array([v for _, v, _, _ in cases]))
        assert np.array_equal(S, np.array([s for _, _, s, _ in cases]))
        assert np.array_equal(signs, np.array([g for *_, g in cases]))


def test_stacked_sign_search_raises_if_any_basis_has_no_obtuse_flip():
    # a unimodular shear of FCC that no sign flip makes obtuse
    bad = as_basis(FCC) @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert reference_obtuse_superbase(bad) is None
    good = [as_basis(V) for V in KNOWN_LATTICES.values()]
    _obtuse_superbases(np.array(good))
    with pytest.raises(ObtuseSuperbaseNotFound):
        _obtuse_superbases(np.array(good[:2] + [bad] + good[2:]))
