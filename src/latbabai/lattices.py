"""Reference generator matrices. Columns are basis vectors.

The 3D entries cover the five parallelohedron cell shapes: cubic (cuboid
cell), hexa-rhombic dodecahedron, hexagonal prism, BCC (truncated
octahedron), FCC (rhombic dodecahedron). BCC appears twice: integer
coordinates and the unit-norm upper-triangular form used in the
communication examples.
"""

import numpy as np


def _cols(*vectors):
    return np.array(vectors, dtype=float).T


SQUARE_2D = np.eye(2)

HEXAGONAL_2D = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])

CUBIC_3D = np.eye(3)

HEXAGONAL_PRISM = _cols((1, 0, 0), (-0.5, -np.sqrt(3.0) / 2.0, 0), (0, 0, 1))

BCC = _cols((1, 1, -1), (1, -1, 1), (-1, 1, 1))

BCC_UNIT = _cols(
    (1, 0, 0),
    (-1.0 / 3.0, 2.0 * np.sqrt(2.0) / 3.0, 0),
    (-1.0 / 3.0, -np.sqrt(2.0) / 3.0, np.sqrt(2.0 / 3.0)),
)

FCC = _cols((1, 0, 0), (0, 1, 0), (-0.5, -0.5, 1.0 / np.sqrt(2.0)))

HEXA_RHOMBIC = _cols(
    (1, 0, 0),
    (-0.5, -np.sqrt(5.0) / 2.0, 0),
    (0, 1.0 / np.sqrt(5.0), 2.0 / np.sqrt(5.0)),
)

# row order of the reference performance table: cubic, hexa-rhombic
# dodecahedron, hexagonal prism, BCC, FCC
KNOWN_LATTICES = {
    "cubic": CUBIC_3D,
    "hexa_rhombic_dodecahedron": HEXA_RHOMBIC,
    "hexagonal_prism": HEXAGONAL_PRISM,
    "bcc": BCC,
    "fcc": FCC,
}
