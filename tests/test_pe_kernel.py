"""The pe_3d kernel's routes, its box-stage cut and its output bits, pinned.

Generic cells go through the template of `_cell_tables` and the others
through the search-based `_pe_orderings`; the route tests below pin which
lattices take which. Box row 0 of every column ordering, (A e_{p0}).u <= A_{p0p0} / 2, is the
cell plane pair of +-v_{p0}. The kernel keeps planes 14 and 17 in its plane
lists so that `distinct_planes` masks them, and solves no triple through
them. The tests below check that premise on the kernel's own masks.

The digest pins `float.hex` of every per-ordering P_e of `_pe_stack` over
sampler seeds 0-199 in stacks of 5, then the exemplars and the
near-degenerate bases in one stack, then the exemplars again with their
columns permuted, flipped and scaled: a kernel change that moves a single
last bit fails here, where the 12-digit goldens would let it pass. It was
recorded with numpy 2.4 on OpenBLAS (x86-64); another BLAS may round the
Gram products differently. `PYTHONPATH=src python tests/test_pe_kernel.py`
prints the dumped lines, whose sha256sum is the digest; the dumps of two
checkouts compare with `cmp`.

The sampled stacks take the template route, so the digest reaches the search
route on the 12 exemplar lattices only. `SEARCH_DIGEST` pins `_pe_orderings`
itself the same way, on the sampled stacks, the exemplar stack, the moved
exemplars and the long prisms; `python tests/test_pe_kernel.py search` prints
its lines.
"""

import hashlib
import sys
from itertools import combinations

import numpy as np
import pytest

from latbabai import error3d
from latbabai.error3d import (
    _CELL_ROWS,
    _FIXED_ROWS,
    _MIRROR,
    _PAIR_ROWS,
    _TRIPLES,
    _cell_planes,
    _cell_tables,
    _cell_template,
    _frames,
    _pe_generic,
    _pe_orderings,
    _pe_stack,
    random_reduced_superbase,
)
from latbabai.lattices import KNOWN_LATTICES
from test_pe3d_oracle import NEAR_DEGENERATE, basis_from_conorms

BOX_ROW_0 = (14, 17)
PE_DIGEST = "eecdadc06e525ce7de886b2eb266a54c305260852c01fd6b687350dac376fcc3"
SEARCH_DIGEST = "b8f10dff2edb48faf0af7f3d821b86756f33e2b96432761c0e4fd2b197b6632d"


def sampled_stacks(count=200, stack=5):
    bases = [random_reduced_superbase(s)[0] for s in range(count)]
    return [bases[i : i + stack] for i in range(0, count, stack)]


def exemplar_stack():
    return [np.asarray(V, dtype=float) for V in KNOWN_LATTICES.values()] + [
        basis_from_conorms(c) for c in NEAR_DEGENERATE
    ]


def long_prisms():
    # columns (1, 0, 0), (0.3, 1, 0), (0, 0, L)
    return [[np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, L]])] for L in (1e2, 1e3, 1e4)]


def moved_exemplars():
    # first columns whose norm is not exactly 1, and sign flips to undo
    return [3.7e-3 * V[:, [1, 2, 0]] * np.array([-1.0, 1.0, -1.0]) for V in exemplar_stack()]


def dump_lines():
    for bases in sampled_stacks() + [exemplar_stack(), moved_exemplars()]:
        yield " ".join(float(pe).hex() for pe in _pe_stack(bases)[0].ravel())


def search_lines():
    for bases in sampled_stacks() + [exemplar_stack(), moved_exemplars()] + long_prisms():
        yield " ".join(float(pe).hex() for pe in _pe_orderings(*_frames(bases)[:2]).ravel())


def digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def test_triple_tables_skip_box_row_0():
    assert _TRIPLES.shape == (392, 3) and not _TRIPLES.flags.writeable
    cell, pairs, fixed = _TRIPLES[_CELL_ROWS], _TRIPLES[_PAIR_ROWS], _TRIPLES[_FIXED_ROWS]
    assert cell.shape == (182, 3) and fixed.shape == (28, 3)
    assert (cell < 14).all()
    assert not np.isin(_TRIPLES, BOX_ROW_0).any()
    # one triple of each mirror pair
    rows = set(map(tuple, _TRIPLES.tolist()))
    assert len(rows) == len(_TRIPLES)
    assert not rows & {tuple(sorted(_MIRROR[t].tolist())) for t in _TRIPLES}
    # each cell plane pair, in row-major order, with box plane 15 and then 16
    assert pairs.tolist() == [[f, g, b] for f, g in combinations(range(14), 2) for b in (15, 16)]
    # one cell plane with a non-parallel pair of the box planes 15, 16, 18, 19
    assert (fixed[:, 0] < 14).all() and np.isin(fixed[:, 1:], (15, 16, 18, 19)).all()
    assert (fixed[:, 1] % 3 != fixed[:, 2] % 3).all()


def test_cell_tables():
    chains, edges, ends = _cell_tables()
    assert chains.shape == (12, 3) and edges.shape == (36, 2) and ends.shape == (36, 2, 2)
    # the chain triples keep the cell table's order
    rows = [_TRIPLES[_CELL_ROWS].tolist().index(t) for t in chains.tolist()]
    assert rows == sorted(rows)
    assert [tuple(e) for e in edges.tolist()] == sorted(set(map(tuple, edges.tolist())))
    # V - E + F = 2, and each of the 24 vertices +-x ends three edges
    assert 2 * len(chains) - len(edges) + 14 == 2
    degree = np.zeros((12, 2), dtype=int)
    np.add.at(degree, (ends[..., 0], (ends[..., 1] < 0).astype(int)), 1)
    assert (degree == 3).all()
    # on a sampled cell, each endpoint lies on both planes of its edge
    A, signs, _ = _frames([random_reduced_superbase(0)[0]])
    (N,), (c,) = _cell_planes(A, signs)
    (X,), (holds,) = _cell_template(N[None], c[None])
    assert holds
    points = ends[..., 1, None] * X[ends[..., 0]]
    on = c[edges][:, None, :] - np.einsum("epd,efd->epf", points, N[edges])
    assert np.abs(on).max() < 1e-14


def generic_route(bases):
    return _pe_generic(*_frames(bases)[:2])[1]


def test_sampled_bases_take_the_generic_route():
    assert all(generic_route(bases).all() for bases in sampled_stacks())


def test_routes_of_the_exemplars_and_near_degenerate_bases():
    # the five exemplars and the zero-conorm basis leave the generic route;
    # conorms of 1e-6 and 1e-9 stay on it
    assert generic_route(exemplar_stack()).tolist() == [False] * 5 + [True, True, False]
    # bcc's cell is a generic truncated octahedron, but its box planes run
    # through cell vertices: the guards, not the template, send it away
    holds = _cell_template(*_cell_planes(*_frames(exemplar_stack())[:2]))[1]
    assert holds.tolist() == [False] * 3 + [True, False, True, True, False]


def _bits(x):
    return [float(v).hex() for v in np.ravel(x)]


@pytest.mark.parametrize("bases", [
    pytest.param([np.asarray(V, dtype=float) for V in KNOWN_LATTICES.values()], id="exemplars"),
    pytest.param([basis_from_conorms(NEAR_DEGENERATE[2])], id="zero conorms"),
    # L = 1e2, 1e3, 1e4, and 1e5 by stretching the third column of the first
    pytest.param([V for (V,) in long_prisms()] + [long_prisms()[0][0] * [1, 1, 1e3]], id="long prisms"),
])
def test_general_route_keeps_the_search_kernel_bits(bases):
    A, signs, _ = _frames(bases)
    assert not _pe_generic(A, signs)[1].any()
    assert _bits(_pe_stack(bases)[0]) == _bits(_pe_orderings(A, signs))


@pytest.mark.parametrize("make_stacks", [
    pytest.param(sampled_stacks, id="sampler seeds 0-199"),
    pytest.param(lambda: [exemplar_stack()], id="exemplars and near-degenerate"),
    pytest.param(long_prisms, id="long prism L = 1e2..1e4"),
])
def test_box_row_0_is_masked_and_never_solved(make_stacks, monkeypatch):
    stacks = make_stacks()
    masks, triples = [], []

    def distinct_planes(N, c):
        masks.append(real_distinct(N, c))
        return masks[-1]

    def solve_triples(N, c, t):
        triples.append(t)
        return real_solve(N, c, t)

    real_distinct, real_solve = error3d.distinct_planes, error3d.solve_triples
    monkeypatch.setattr(error3d, "distinct_planes", distinct_planes)
    monkeypatch.setattr(error3d, "solve_triples", solve_triples)
    for bases in stacks:
        _pe_stack(bases)
    # one call per route that a stack uses
    assert len(stacks) <= len(masks) <= 2 * len(stacks)
    for keep in masks:
        assert keep.shape[1:] == (20,)
        assert not keep[:, BOX_ROW_0].any()
    assert not any(np.isin(t, BOX_ROW_0).any() for t in triples)


def test_kernel_bits_are_pinned():
    assert digest(dump_lines()) == PE_DIGEST


def test_search_route_bits_are_pinned():
    assert digest(search_lines()) == SEARCH_DIGEST


if __name__ == "__main__":
    for line in (search_lines if sys.argv[1:] == ["search"] else dump_lines)():
        print(line)
