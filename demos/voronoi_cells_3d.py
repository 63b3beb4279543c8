"""
Five cells, five lattices
=========================

Every 3D lattice has a Voronoi cell drawn from a list of five shapes, told
apart by which of the six conorms of an obtuse superbase vanish. This script
builds the cell for one exemplar of each shape, checks counts and volume,
and computes the rounding error probability, which depends on the order in
which the nearest-plane rule takes the basis columns.
"""

import numpy as np

from latbabai import (
    KNOWN_LATTICES,
    as_basis,
    classify_cell,
    conorms,
    mc_pe_oracle,
    packing_density,
    pe_3d,
    to_obtuse_superbase,
    volume,
    voronoi_cell_3d,
)

print(f"{'lattice':28s} {'cell':26s} F  V  {'density':8s} {'pe (best)':10s}")
for name, V in KNOWN_LATTICES.items():
    V = as_basis(V)
    sb = to_obtuse_superbase(V)
    cell = voronoi_cell_3d(sb)
    ctype = classify_cell(conorms(sb))
    result = pe_3d(V)
    print(f"{name:28s} {ctype.value:26s} {cell.n_facets:2d} {cell.n_vertices:2d} "
          f"{packing_density(V):8.4f} {result.pe:10.6f}")
    # structural sanity: closed surface, correct volume
    cell.validate()
    assert abs(cell.volume - volume(V)) < 1e-9

# ordering sensitivity: the face-centered cubic lattice decodes differently
# depending on which column goes last
fcc = as_basis(KNOWN_LATTICES["fcc"])
result = pe_3d(fcc)
print("\nface-centered cubic, error probability per column ordering:")
for perm, pe in sorted(result.per_ordering.items()):
    marker = "  <- best" if perm == result.best_ordering else ""
    print(f"  ordering {perm}: {pe:.6f}{marker}")

# the same quantity estimated by Monte Carlo on the identity ordering
est, se = mc_pe_oracle(fcc, samples=200000, seed=12)
fixed = pe_3d(fcc, search_orderings=False).pe
print(f"\nMonte Carlo at the given ordering: {est:.6f} +- {se:.6f} "
      f"(geometric value {fixed:.6f})")

# conorm zero patterns behind the classification
print("\nconorm values per lattice (order: 01 02 03 23 13 12)")
for name, V in KNOWN_LATTICES.items():
    con = conorms(to_obtuse_superbase(as_basis(V)))
    vals = " ".join(f"{v:6.3f}" for v in con.values)
    print(f"  {name:28s} {vals}")
