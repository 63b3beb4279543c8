"""Exact rational oracle for the 3D nearest-plane error probability.

Every float is a dyadic rational, so the Gram matrix A = V^T V of a float
basis is exact in `fractions.Fraction`. In coefficients u (x = V u) the
Voronoi cell is {u : (A k).u <= k^T A k / 2} over the lattice vectors k in
{-1, 0, 1}^3 (a superset of the 14 superbase sums of a reduced basis), and
the Babai box of a column ordering p is |(M P^T u)_m| <= 1/2, where
A[p][:, p] = M^T D M with M unit upper triangular. Both are rational in A,
the box has volume 1, and P_e = 1 - vol_u(cell & box) exactly.

Vertices are solved exactly by Cramer's rule. A float pass screens the plane
triples first: a triple is skipped only when its float vertex violates some
plane by more than SCREEN, far above float error, so no true vertex is lost;
a triple too ill-conditioned for the float pass (two nearly coincident
planes, as at a near-zero conorm) is solved and checked exactly.
Each facet's exact vertices are ordered by their float angle about the
facet centroid, and the cone over the facet from the origin is summed as an
exact fan.

The gate holds `pe_3d`, a stack of one lattice, and the same kernel run on
all the bases at once, to ACCURACY, and checks that the sampled bases of
GENERIC_SEEDS take the kernel's generic route.

`python tests/test_pe3d_oracle.py [SEED ...]` prints the worst distance of
`pe_3d` from the oracle over the exemplars, the near-degenerate bases and
the given seeds of `random_reduced_superbase`.
"""

import math
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest

from latbabai.error3d import ORDERINGS, _frames, _pe_generic, _pe_stack, pe_3d, random_reduced_superbase
from latbabai.lattices import KNOWN_LATTICES

SCREEN = 1e-6
ACCURACY = 1e-15
RANDOM_SEEDS = tuple(range(1000, 1020))
# more sampled bases, each held to take the kernel's generic route
GENERIC_SEEDS = tuple(range(2000, 2010))
# conorms (c01, c02, c03, c23, c13, c12) with near-zero entries: a box plane
# then lies within about that conorm of a cell plane
NEAR_DEGENERATE = (
    (0.54, 0.67, 0.79, 1e-6, 0.43, 0.72),
    (1e-9, 1e-9, 0.79, 0.29, 0.51, 0.61),
    (0.0, 0.0, 0.79, 0.29, 0.51, 0.61),
)
_COEFFS = [k for k in product((-1, 0, 1), repeat=3) if any(k)]


def basis_from_conorms(con):
    """Upper triangular generator whose obtuse superbase has the given conorms."""
    c01, c02, c03, c23, c13, c12 = con
    A = np.array([
        [c01 + c12 + c13, -c12, -c13],
        [-c12, c02 + c12 + c23, -c23],
        [-c13, -c23, c03 + c13 + c23],
    ])
    return np.linalg.cholesky(A).T


def exact_gram(V):
    """A = V^T V of the float basis, exactly."""
    F = [[Fraction(float(x)) for x in row] for row in np.asarray(V, dtype=float)]
    return [[sum(F[r][i] * F[r][j] for r in range(3)) for j in range(3)] for i in range(3)]


def unit_upper_ldl(A):
    """Unit upper triangular M with A = M^T D M, D diagonal, in exact arithmetic."""
    n = len(A)
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    for m in range(n):
        D[m] = A[m][m] - sum(M[l][m] ** 2 * D[l] for l in range(m))
        for j in range(m + 1, n):
            M[m][j] = (A[m][j] - sum(M[l][m] * M[l][j] * D[l] for l in range(m))) / D[m]
    return M


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def exact_planes(A, perm):
    """Cell and box planes n.u <= 1, scaled to offset 1 and deduplicated (first kept)."""
    planes = []
    for k in _COEFFS:
        Ak = [sum(A[i][j] * k[j] for j in range(3)) for i in range(3)]
        off = sum(Ak[i] * k[i] for i in range(3)) / 2
        planes.append(tuple(x / off for x in Ak))
    Ap = [[A[i][j] for j in perm] for i in perm]
    M = unit_upper_ldl(Ap)
    for m in range(3):
        row = [Fraction(0)] * 3
        for i, p in enumerate(perm):
            row[p] = M[m][i]
        for s in (1, -1):
            planes.append(tuple(2 * s * x for x in row))
    return list(dict.fromkeys(planes))


def exact_volume(planes):
    """Exact volume of {u : n.u <= 1 for every plane}, a polytope around the origin."""
    # plane i as a_i.u <= d_i in integers, so the vertex algebra needs no gcd
    ints = []
    for n in planes:
        d = math.lcm(*(x.denominator for x in n))
        ints.append((tuple(int(x * d) for x in n), d))
    Nf = np.array([[float(x) for x in n] for n in planes])
    idx = np.array(list(combinations(range(len(planes)), 3)))
    T = Nf[idx]
    # a triple too ill-conditioned for a float solve is checked exactly
    # against every plane
    live = np.abs(np.linalg.det(T)) > 1e-12
    near = np.ones((len(idx), len(planes)), dtype=bool)
    keep = np.ones(len(idx), dtype=bool)
    pts = np.linalg.solve(T[live], np.ones((int(live.sum()), 3, 1)))[..., 0]
    slack = pts @ Nf.T - 1.0
    near[live] = np.abs(slack) <= SCREEN
    keep[live] = (slack <= SCREEN).all(axis=1)
    crosses = {}

    def cross(i, j):
        if (i, j) not in crosses:
            crosses[i, j] = _cross(ints[i][0], ints[j][0])
        return crosses[i, j]

    verts = {}
    for t, tight in zip(idx[keep], near[keep]):
        i, j, k = (int(v) for v in t)
        c = (cross(j, k), cross(k, i), cross(i, j))
        det = _dot(ints[i][0], c[0])
        if det == 0:
            continue
        # x = X / det; plane m holds when sign(det) (d_m det - a_m.X) >= 0.
        # Planes the float pass found far from x hold with room to spare.
        X = tuple(sum(ints[p][1] * cp[e] for p, cp in zip((i, j, k), c)) for e in range(3))
        sign = 1 if det > 0 else -1
        gaps = {int(m): sign * (ints[m][1] * det - _dot(ints[m][0], X)) for m in np.flatnonzero(tight)}
        if min(gaps.values()) < 0:
            continue
        x = tuple(Fraction(v, det) for v in X)
        verts.setdefault(x, [m for m, gap in gaps.items() if gap == 0])
    faces = {}
    for x, on in verts.items():
        for i in on:
            faces.setdefault(i, []).append(x)
    vol = Fraction(0)
    for i, pts_exact in faces.items():
        if len(pts_exact) < 3:
            continue
        P = np.array([[float(c) for c in x] for x in pts_exact])
        rel = P - P.mean(axis=0)
        n = Nf[i] / np.linalg.norm(Nf[i])
        t1 = rel[np.argmax(np.linalg.norm(rel, axis=1))]
        t1 = t1 / np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        cyc = [pts_exact[j] for j in np.argsort(np.arctan2(rel @ t2, rel @ t1))]
        fan = sum(_dot(cyc[0], _cross(a, b)) for a, b in zip(cyc[1:-1], cyc[2:]))
        vol += abs(fan) / 6
    return vol


def exact_pe(V, perm):
    """Exact P_e of the float basis V decoded in column order perm."""
    return 1 - exact_volume(exact_planes(exact_gram(V), perm))


@cache
def _exact_row(key):
    V = np.frombuffer(key).reshape(3, 3)
    return tuple(float(exact_pe(V, p)) for p in ORDERINGS)


def exact_row(V):
    """The exact P_e of V in each of ORDERINGS, as floats; computed once per basis."""
    return _exact_row(np.asarray(V, dtype=float).tobytes())


def worst_error(V):
    """Largest |pe_3d - exact| over the six orderings of V."""
    per = pe_3d(V).per_ordering
    return max(abs(per[p] - exact) for p, exact in zip(ORDERINGS, exact_row(V)))


def oracle_bases(seeds=RANDOM_SEEDS):
    """(label, basis): the exemplars, the near-degenerate bases and sampled bases."""
    cases = [(name, np.asarray(V, dtype=float)) for name, V in KNOWN_LATTICES.items()]
    cases += [(f"conorms {c}", basis_from_conorms(c)) for c in NEAR_DEGENERATE]
    return cases + [(f"seed {s}", random_reduced_superbase(rng_seed=s)[0]) for s in seeds]


def test_oracle_reproduces_the_known_exemplar_values():
    known = {
        "cubic": Fraction(0),
        "hexagonal_prism": Fraction(1, 12),
        "bcc": Fraction(7, 48),
    }
    for name, value in known.items():
        for perm in ORDERINGS:
            assert abs(exact_pe(KNOWN_LATTICES[name], perm) - value) < Fraction(1, 10**12)


@pytest.mark.parametrize("name", sorted(KNOWN_LATTICES))
def test_pe_3d_matches_oracle_on_exemplars(name):
    assert worst_error(KNOWN_LATTICES[name]) <= ACCURACY


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_pe_3d_matches_oracle_on_random_bases(seed):
    V, _ = random_reduced_superbase(rng_seed=seed)
    assert worst_error(V) <= ACCURACY


@pytest.mark.parametrize("seed", GENERIC_SEEDS)
def test_generic_route_matches_oracle(seed):
    V, _ = random_reduced_superbase(rng_seed=seed)
    assert _pe_generic(*_frames([V])[:2])[1].all()
    assert worst_error(V) <= ACCURACY


@pytest.mark.parametrize("con", NEAR_DEGENERATE)
def test_pe_3d_matches_oracle_near_zero_conorms(con):
    assert worst_error(basis_from_conorms(con)) <= ACCURACY


def test_stacked_kernel_matches_oracle():
    # every basis above in one kernel pass, which pads the shorter lists of
    # cell-edge pairs of the cuboid and prism cells
    bases = [V for _, V in oracle_bases()]
    pes = _pe_stack(bases)[0]
    worst = max(abs(pe - exact) for V, row in zip(bases, pes) for pe, exact in zip(row, exact_row(V)))
    assert worst <= ACCURACY


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or list(RANDOM_SEEDS)
    cases = oracle_bases(seeds)
    worst = max((worst_error(V), label) for label, V in cases)
    print(f"worst |pe_3d - exact| = {worst[0]:.3g} ({worst[1]}) over {len(cases)} lattices")
