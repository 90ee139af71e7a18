"""Constructors for U(m), E8(-1) and the K3 lattice; jsonio reads their names.

Basis indexing of the K3 lattice is fixed once and for all as
U, U, U, E8(-1), E8(-1) with coordinates 0..21; every worked example in
the package relies on this ordering.
"""

from __future__ import annotations

from . import matrixops as mo
from .errors import K3BVError
from .lattice import IntegerLattice, direct_sum

__all__ = ["hyperbolic_plane", "e8_minus", "k3_lattice"]

# Nodes of the E8 Dynkin diagram: 0-1-2-3-4-5-6 chain with 7 attached to 4.
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def hyperbolic_plane(m: int = 1) -> IntegerLattice:
    """The rank-2 lattice U(m) with Gram [[0, m], [m, 0]]."""
    mo.check_integers("m", (m,))
    if m < 1:
        raise K3BVError(f"hyperbolic plane needs m >= 1, got {m}")
    return IntegerLattice(((0, m), (m, 0)))


def e8_minus() -> IntegerLattice:
    """Negative-definite E8: the negated Cartan matrix of the E8 diagram."""
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        gram[i][i] = -2
    for i, j in _E8_EDGES:
        gram[i][j] = gram[j][i] = 1
    return IntegerLattice(tuple(tuple(row) for row in gram))


def k3_lattice() -> IntegerLattice:
    """U + U + U + E8(-1) + E8(-1): even, unimodular, signature (3,19)."""
    u = hyperbolic_plane(1)
    e8 = e8_minus()
    return direct_sum(direct_sum(direct_sum(direct_sum(u, u), u), e8), e8)
