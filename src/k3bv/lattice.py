"""Finite-rank integer lattices with symmetric bilinear forms.

All arithmetic is exact: arbitrary-precision integers and
fractions.Fraction. Values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import matrixops as mo
from .errors import DimensionMismatch, NotInLattice
from .matrixops import Matrix, Vector
from .record import Record

__all__ = [
    "IntegerLattice",
    "Sublattice",
    "pairing",
    "det_and_signature",
    "orthogonal_complement",
    "saturation",
    "divisibility",
    "is_primitive",
    "direct_sum",
    "coordinates_in",
    "same_sublattice",
]


class IntegerLattice(Record):
    """Free Z-module of finite rank with a symmetric integer Gram matrix."""

    gram: Matrix

    def __post_init__(self):
        g = mo.freeze(self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise DimensionMismatch("Gram matrix must be square")
        if any(not isinstance(x, int) for row in g for x in row):
            raise DimensionMismatch("Gram entries must be integers")
        if not mo.is_symmetric(g):
            raise DimensionMismatch("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def check_vector(self, v: Vector) -> Vector:
        if len(v) != self.rank:
            raise DimensionMismatch(
                f"vector of length {len(v)} in lattice of rank {self.rank}")
        return tuple(v)


class Sublattice(Record):
    """Sublattice given by generator rows in ambient coordinates."""

    ambient: IntegerLattice
    basis: Matrix

    def __post_init__(self):
        b = mo.freeze(self.basis)
        object.__setattr__(self, "basis", b)
        n = self.ambient.rank
        if any(len(row) != n for row in b):
            raise DimensionMismatch("generator rows must have ambient rank length")
        if any(not isinstance(x, int) for row in b for x in row):
            raise DimensionMismatch("generator entries must be integers")
        if mo.rank_rational(b) != len(b):
            raise DimensionMismatch("generator rows must be linearly independent over Q")

    @classmethod
    def full(cls, lattice: IntegerLattice) -> "Sublattice":
        return cls(lattice, mo.identity(lattice.rank))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> Matrix:
        """Induced Gram matrix basis * G * basis^T, computed once and cached."""
        cached = self.__dict__.get("_gram")
        if cached is None:
            cached = mo.mat_mul(mo.mat_mul(self.basis, self.ambient.gram),
                                mo.transpose(self.basis))
            object.__setattr__(self, "_gram", cached)
        return cached

    def induced_lattice(self) -> IntegerLattice:
        return IntegerLattice(self.gram())

    def to_ambient(self, coords: Vector) -> Vector:
        """Map coordinates in this sublattice's basis to ambient coordinates."""
        if len(coords) != self.rank:
            raise DimensionMismatch(
                f"coordinate vector of length {len(coords)} for rank {self.rank}")
        return mo.vec_mat(tuple(coords), self.basis)

    def compose(self, inner: "Sublattice") -> "Sublattice":
        """Reinterpret a sublattice given in this sublattice's coordinates
        as a sublattice of the ambient lattice."""
        return Sublattice(self.ambient, mo.mat_mul(inner.basis, self.basis))


def pairing(lattice: IntegerLattice, v: Vector, w: Vector):
    """Bilinear form v^T * gram * w. Exact; symmetric in v and w."""
    v = lattice.check_vector(v)
    w = lattice.check_vector(w)
    return mo.dot(v, mo.mat_vec(lattice.gram, w))


def det_and_signature(lattice: IntegerLattice) -> tuple[int, tuple[int, int, int]]:
    """Exact determinant and inertia (positive, negative, zero counts).

    The determinant uses fraction-free Bareiss elimination. The inertia
    comes from symmetric congruence diagonalization over Q; when every
    remaining diagonal entry is zero but some off-diagonal a_ij is not,
    the basis change e_i <- e_i + e_j exposes a nonzero diagonal entry
    (this handles hyperbolic blocks exactly).
    """
    n = lattice.rank
    det = mo.bareiss_det(lattice.gram)
    g = [[Fraction(x) for x in row] for row in lattice.gram]
    pos = neg = zero = 0
    for k in range(n):
        if g[k][k] == 0:
            # Prefer a later nonzero diagonal entry.
            swap = next((l for l in range(k + 1, n) if g[l][l] != 0), None)
            if swap is not None:
                g[k], g[swap] = g[swap], g[k]
                for row in g:
                    row[k], row[swap] = row[swap], row[k]
            else:
                # All diagonals zero: look for an off-diagonal entry.
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if g[i][j] != 0), None)
                if pair is None:
                    zero += n - k
                    break
                i, j = pair
                # e_i <- e_i + e_j, a symmetric congruence.
                for c in range(n):
                    g[i][c] += g[j][c]
                for r in range(n):
                    g[r][i] += g[r][j]
                if i != k:
                    g[k], g[i] = g[i], g[k]
                    for row in g:
                        row[k], row[i] = row[i], row[k]
        p = g[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if g[r][k] != 0:
                f = g[r][k] / p
                for c in range(n):
                    g[r][c] -= f * g[k][c]
                for c in range(n):
                    g[c][r] -= f * g[c][k]
    return det, (pos, neg, zero)


def orthogonal_complement(s: Sublattice) -> Sublattice:
    """{v in ambient : v . s = 0 for all s in S}, saturated in the ambient,
    with its basis in Hermite normal form."""
    a = mo.mat_mul(s.basis, s.ambient.gram)
    kernel = mo.integer_kernel(a)
    return Sublattice(s.ambient, kernel)


def saturation(s: Sublattice) -> Sublattice:
    """Smallest primitive sublattice with the same rational span, with its
    basis in Hermite normal form."""
    return Sublattice(s.ambient, mo.saturate(s.basis, s.ambient.rank))


def is_saturated(s: Sublattice) -> bool:
    return same_sublattice(s, saturation(s))


def coordinates_in(s: Sublattice, v: Vector, rational: bool = False) -> Vector:
    """Coordinates of an ambient vector in the basis of S.

    With rational=False the vector must lie in S over Z; with
    rational=True it only needs to lie in the rational span.
    """
    if len(v) != s.ambient.rank:
        raise DimensionMismatch("vector length does not match ambient rank")
    # transpose(()) has no rows, so it would check no equation against v.
    sol = mo.solve_rational(mo.transpose(s.basis), v) if s.basis or not any(v) else None
    if sol is None:
        raise NotInLattice("vector is not in the rational span of the sublattice")
    if rational:
        return sol
    coords = []
    for x in sol:
        f = Fraction(x)
        if f.denominator != 1:
            raise NotInLattice("vector is in the rational span but not in the sublattice")
        coords.append(int(f))
    return tuple(coords)


def contains(s: Sublattice, v: Vector) -> bool:
    try:
        coordinates_in(s, v)
        return True
    except NotInLattice:
        return False


def same_sublattice(a: Sublattice, b: Sublattice) -> bool:
    """Equality as subsets of the common ambient lattice: the bases have
    the same row Hermite normal form."""
    if a.ambient != b.ambient or a.rank != b.rank:
        return False
    return mo.hermite_normal_form(a.basis) == mo.hermite_normal_form(b.basis)


def divisibility(s: Sublattice, v: Vector) -> int:
    """gcd of pairings of v with a basis of S; v must be a nonzero vector of S."""
    if all(x == 0 for x in v):
        raise NotInLattice("divisibility of the zero vector is undefined")
    coordinates_in(s, v)  # membership check
    g = 0
    for w in s.basis:
        g = gcd(g, abs(pairing(s.ambient, tuple(v), w)))
    return g


def is_primitive(s: Sublattice, v: Vector) -> bool:
    """True iff v is not a proper integer multiple of a vector of S."""
    if all(x == 0 for x in v):
        raise NotInLattice("primitivity of the zero vector is undefined")
    coords = coordinates_in(s, v)
    return mo.content(coords) == 1


def direct_sum(a: IntegerLattice, b: IntegerLattice) -> IntegerLattice:
    """Orthogonal direct sum, block-diagonal Gram."""
    na, nb = a.rank, b.rank
    rows = []
    for i in range(na):
        rows.append(tuple(a.gram[i]) + (0,) * nb)
    for i in range(nb):
        rows.append((0,) * na + tuple(b.gram[i]))
    return IntegerLattice(tuple(rows))
