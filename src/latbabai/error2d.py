"""Error probability of nearest-plane decoding for two-dimensional lattices.

For a reduced basis {(1,0), (a,b)} the failure probability of the Babai box
against the exact Voronoi cell has the closed form (-a - a^2) / (4 b^2),
bounded by 1/12 with the hexagonal lattice as the extreme case. A geometric
path via explicit polygon intersection covers arbitrary (non-reduced) bases.
"""

from dataclasses import dataclass

import numpy as np

from .core import _relevant_vectors, as_basis, qr_upper, volume
from .polytope import (
    Polygon2D,
    bisector_halfspaces,
    box_halfspaces,
    polygon_from_halfplanes,
)

_REGIME_TOL = 1e-9


@dataclass(frozen=True)
class ReducedBasis2D:
    """Basis {(1,0), (a,b)} with |a| <= 1/2, b > 0 and a^2 + b^2 >= 1.

    Positive a (angle below pi/2) is accepted; closed-form quantities flip it
    to the canonical nonpositive value, which describes the mirrored lattice
    and leaves every error probability unchanged.
    """

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (abs(a) <= 0.5 + _REGIME_TOL):
            raise ValueError(f"|a| = {abs(a)} exceeds 1/2: basis not reduced")
        if b <= 0.0:
            raise ValueError("b must be positive")
        if a * a + b * b < 1.0 - _REGIME_TOL:
            raise ValueError("second vector shorter than the first: basis not reduced")

    @property
    def theta(self):
        """Angle between the basis vectors, in [pi/3, 2pi/3]."""
        return float(np.arctan2(self.b, self.a))

    @property
    def canonical_a(self):
        return -abs(self.a)

    def basis(self):
        return np.array([[1.0, self.a], [0.0, self.b]])


def _as_rb(rb):
    if isinstance(rb, ReducedBasis2D):
        return rb
    a, b = rb
    return ReducedBasis2D(a, b)


def pe_closed_form(rb):
    """Exact nearest-plane error probability for a reduced 2D basis.

    (-a - a^2) / (4 b^2), equal to (1 - (1+2a)^2) / (16 b^2); zero iff a = 0
    and at most 1/12, attained only by the hexagonal lattice.
    """
    rb = _as_rb(rb)
    a, b = rb.canonical_a, rb.b
    return float((-a - a * a) / (4.0 * b * b))


def pe_geometric_2d(V):
    """Error probability for an arbitrary 2D basis by explicit polygon intersection.

    Rotates to the upper triangular generator, builds the exact Voronoi cell
    from bisector halfplanes, intersects with the Babai box, and returns 1 -
    area(intersection) / |det V|; the intersection holds a neighbourhood of
    the origin, so one of fewer than 3 vertices raises FloatingPointError.
    """
    V = as_basis(V)
    if V.shape != (2, 2):
        raise ValueError("pe_geometric_2d expects a 2x2 generator matrix")
    _, R = qr_upper(V)
    N, c = bisector_halfspaces(_relevant_vectors(R))
    Nb, cb = box_halfspaces(0.5 * np.diag(R))
    inter = polygon_from_halfplanes(np.vstack([N, Nb]), np.concatenate([c, cb]))
    if len(inter.vertices) < 3:
        raise FloatingPointError(f"cell and box meet in {len(inter.vertices)} vertices, not a polygon")
    pe = 1.0 - inter.area / volume(R)
    return float(min(max(pe, 0.0), 1.0))


def packing_density_2d(rb):
    """Packing density pi / (4b) of the reduced lattice (shortest vector has norm 1)."""
    rb = _as_rb(rb)
    return float(np.pi / (4.0 * rb.b))


DENSITY_2D_MAX = np.pi / (2.0 * np.sqrt(3.0))


def optimal_a(density):
    """The a minimizing error probability at fixed packing density.

    Zero when the density constraint is slack (density <= pi/4); otherwise the
    constraint a^2 + b^2 = 1 binds and a* = -sqrt(1 - (pi/(4 density))^2).
    """
    if not (0.0 < density <= DENSITY_2D_MAX + 1e-12):
        raise ValueError(f"density must lie in (0, {DENSITY_2D_MAX:.6f}]")
    if density <= np.pi / 4.0:
        return 0.0
    return float(-np.sqrt(1.0 - (np.pi / (4.0 * density)) ** 2))


def pe_density_form(a, density):
    """Error probability parametrized by (a, packing density): D^2 (1-(1+2a)^2) / pi^2."""
    return float(density**2 * (1.0 - (1.0 + 2.0 * a) ** 2) / np.pi**2)


def pe_polar(theta, rho):
    """Error probability at (a, b) = (rho cos theta, rho sin theta)."""
    a = rho * np.cos(theta)
    b = rho * np.sin(theta)
    return pe_closed_form(ReducedBasis2D(a, b))


def worst_theta(rho):
    """Angle maximizing pe_polar at fixed rho >= 1: where rho cos theta = -1/2."""
    if rho < 1.0:
        raise ValueError("rho must be at least 1")
    return float(np.pi / 2.0 + np.arcsin(1.0 / (2.0 * rho)))


LEVEL_CURVE_DEFAULT_KS = (0.0, 0.01, 0.02, 0.04, 0.06, 1.0 / 12.0)


def level_curve_data(pe_values=LEVEL_CURVE_DEFAULT_KS, grid=200, b_max=2.0):
    """Sample the level curves {F(a,b) = k} inside the valid region.

    Each contour is the elliptical arc (a + 1/2)^2 + 4 k b^2 = 1/4 clipped to
    the regime; the k = 0 curve is the segment a = 0. Returns rows
    (k, a, b, pe) suitable for CSV output.
    """
    rows = []
    for k in pe_values:
        if k < 0.0 or k > 1.0 / 12.0 + 1e-12:
            raise ValueError("level values must lie in [0, 1/12]")
        if k == 0.0:
            for b in np.linspace(1.0, b_max, grid):
                rows.append((0.0, 0.0, float(b), 0.0))
            continue
        for a in np.linspace(-0.5, 0.0, grid):
            val = -a - a * a
            if val <= 0.0:
                continue
            b = float(np.sqrt(val / (4.0 * k)))
            if b > b_max or a * a + b * b < 1.0 - _REGIME_TOL or b < np.sqrt(3.0) / 2.0 - _REGIME_TOL:
                continue
            rows.append((float(k), float(a), b, pe_closed_form(ReducedBasis2D(a, b))))
    return rows
