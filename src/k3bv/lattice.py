"""Finite-rank integer lattices with symmetric bilinear forms.

All arithmetic is exact and runs over int: determinants, inertia and
canonical forms come from fraction-free elimination, and a Fraction
appears only in rational coordinates. Values are immutable after
construction; a Sublattice keeps its row Hermite normal form as its
canonical key, and a basis already in that form is its own key and has
its coordinates read off pivot by pivot.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
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
    "contains",
    "same_sublattice",
    "is_saturated",
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
        mo.check_integers("Gram entries", *g)
        if mo.transpose(g) != g:
            raise DimensionMismatch("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def gram_nonzeros(self):
        return mo.nonzeros(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def check_vector(self, v: Vector) -> Vector:
        (v,) = mo.freeze((v,))
        if len(v) != self.rank:
            raise DimensionMismatch(
                f"vector of length {len(v)} in lattice of rank {self.rank}")
        mo.check_rationals("vector entries", v)
        return v


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
        mo.check_integers("generator entries", *b)
        # A basis with positive, strictly increasing pivots, entries above
        # each pivot p in [0, p) and no zero row is in HNF, the key that
        # same_sublattice compares, and coordinates_in goes pivot by pivot on
        # it; the scan stops at the first broken rule. Another basis takes the
        # HNF, whose last row is zero exactly when the rows are dependent.
        hnf, last = b, -1
        for i, row in enumerate(b):
            c = next((j for j, x in enumerate(row) if x), -1)
            if c <= last or row[c] < 0 or not all(0 <= r[c] < row[c] for r in b[:i]):
                hnf = mo.hermite_normal_form(b)
                if not any(hnf[-1]):
                    raise DimensionMismatch("generator rows must be linearly independent over Q")
                break
            last = c
        object.__setattr__(self, "_hnf", hnf)

    @classmethod
    def full(cls, lattice: IntegerLattice) -> "Sublattice":
        return cls(lattice, mo.identity(lattice.rank))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> Matrix:
        """Induced Gram matrix basis * G * basis^T, computed once and cached."""
        if "_gram" not in self.__dict__:
            self.__dict__["_gram"] = mo.mat_mul(mo.mat_mul(self.basis, self.ambient.gram),
                                                mo.transpose(self.basis))
        return self.__dict__["_gram"]

    def induced_lattice(self) -> IntegerLattice:
        """The induced Gram as a lattice, built and validated once."""
        if "_induced" not in self.__dict__:
            self.__dict__["_induced"] = IntegerLattice(self.gram())
        return self.__dict__["_induced"]

    def compose(self, inner: "Sublattice") -> "Sublattice":
        """Reinterpret a sublattice given in this sublattice's coordinates
        as a sublattice of the ambient lattice."""
        return Sublattice(self.ambient, mo.mat_mul(inner.basis, self.basis))


def pairing(lattice: IntegerLattice, v: Vector, w: Vector):
    """Bilinear form v^T * gram * w, exact and symmetric in v and w. Each vector
    is cleared of denominators once and the form summed over int: an int when
    both vectors are integral, one Fraction otherwise."""
    (nv, dv), (nw, dw) = (mo.clear_denominators(lattice.check_vector(x)) for x in (v, w))
    total = mo.dot(nv, mo.mat_vec_pair(lattice.gram_nonzeros, nv, nw)[1])
    return total if dv * dw == 1 else Fraction(total, dv * dw)


def det_and_signature(lattice: IntegerLattice) -> tuple[int, tuple[int, int, int]]:
    """Exact determinant and inertia (positive, negative, zero counts).

    One fraction-free symmetric (Bareiss) elimination over int gives both:
    a nonzero diagonal pivot p is split off and the rest replaced by
    (p g_rc - g_rk g_kc) / prev, exact as every entry is a minor. Pivots
    are leading principal minors of a congruent Gram, so the Schur pivot
    p / prev is positive when p and prev share a sign. When every diagonal
    entry is zero but some g_ij is not, the congruence e_i <- e_i + e_j
    makes g_ii = 2 g_ij (this handles hyperbolic blocks). The determinant
    is the last pivot, or 0 when a zero block is left.
    """
    g = [list(row) for row in lattice.gram]
    pos = neg = 0
    prev = 1
    while g:
        n = len(g)
        k = next((i for i in range(n) if g[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if g[i][j]), None)
            if pair is None:
                break
            k, j = pair
            g[k] = [x + y for x, y in zip(g[k], g[j])]
            for row in g:
                row[k] += row[j]
        p = g[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        pk = g.pop(k)
        del pk[k]
        for row in g:
            f = row.pop(k)
            row[:] = [(p * x - f * y) // prev for x, y in zip(row, pk)]
        prev = p
    return (0 if g else prev), (pos, neg, len(g))


def orthogonal_complement(s: Sublattice) -> Sublattice:
    """{v in ambient : v . s = 0 for all s in S}, saturated in the ambient,
    with its basis in Hermite normal form. The zero sublattice has the
    whole ambient as its complement."""
    if not s.basis:
        return Sublattice.full(s.ambient)
    a = mo.mat_mul(s.basis, s.ambient.gram)
    kernel = mo.integer_kernel(a)
    return Sublattice(s.ambient, kernel)


def saturation(s: Sublattice) -> Sublattice:
    """Smallest primitive sublattice with the same rational span, with its
    basis in Hermite normal form."""
    return Sublattice(s.ambient, mo.saturate(s.basis, s.ambient.rank))


def is_saturated(s: Sublattice) -> bool:
    return same_sublattice(s, saturation(s))


def coordinates_in(s: Sublattice, v: Vector) -> Vector:
    """Integer coordinates of an ambient vector of S in the basis of S."""
    v = s.ambient.check_vector(v)
    r, d = mo.clear_denominators(v)
    if s._hnf is s.basis and d == 1:
        # Pivot by pivot on an HNF basis: x_i = r[c_i] // p_i, r -= x_i b_i. A
        # remainder stays in r, so r = 0 proves membership; else solve below.
        r, xs = list(r), []
        for row in s.basis:
            c = next(j for j, y in enumerate(row) if y)
            xs.append(r[c] // row[c])
            r = [x - xs[-1] * y for x, y in zip(r, row)]
        if not any(r):
            return tuple(xs)
    # transpose(()) has no rows, so it would check no equation against v.
    sol = mo.solve_rational(mo.transpose(s.basis), v) if s.basis or not any(v) else None
    if sol is None:
        raise NotInLattice("vector is not in the rational span of the sublattice")
    if any(x.denominator != 1 for x in sol):
        raise NotInLattice("vector is in the rational span but not in the sublattice")
    return tuple(x.numerator for x in sol)


def contains(s: Sublattice, v: Vector) -> bool:
    try:
        coordinates_in(s, v)
        return True
    except NotInLattice:
        return False


def same_sublattice(a: Sublattice, b: Sublattice) -> bool:
    """Equality as subsets of the common ambient lattice: the cached row
    Hermite normal forms agree."""
    return a.ambient == b.ambient and a._hnf == b._hnf


def divisibility(s: Sublattice, v: Vector) -> int:
    """gcd of pairings of v with a basis of S; v must be a nonzero vector of S."""
    v = s.ambient.check_vector(v)
    if not any(v):
        raise NotInLattice("divisibility of the zero vector is undefined")
    coordinates_in(s, v)  # membership check
    return gcd(*(pairing(s.ambient, v, w) for w in s.basis))


def is_primitive(s: Sublattice, v: Vector) -> bool:
    """True iff v is not a proper integer multiple of a vector of S."""
    v = s.ambient.check_vector(v)
    if not any(v):
        raise NotInLattice("primitivity of the zero vector is undefined")
    coords = coordinates_in(s, v)
    return mo.content(coords) == 1


def direct_sum(a: IntegerLattice, b: IntegerLattice) -> IntegerLattice:
    """Orthogonal direct sum, block-diagonal Gram."""
    return IntegerLattice(tuple(row + (0,) * b.rank for row in a.gram)
                          + tuple((0,) * a.rank + row for row in b.gram))
