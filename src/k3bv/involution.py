"""Integer involutions of the K3 lattice and the mirror involution.

The mirror involution is r_P composed with the original action, where
r_P is the identity on P and minus the identity on the orthogonal
complement of P in L. This extension is integral exactly when P is
unimodular, so m = 1 is required and enforced.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import matrixops as mo
from .errors import DimensionMismatch, K3BVError
from .lattice import (IntegerLattice, Sublattice, orthogonal_complement,
                      same_sublattice, saturation)
from .matrixops import Matrix, Vector
from .mirror import MirrorSplit
from .record import Record

__all__ = ["LatticeInvolution", "RealFiberType", "SymplecticSpace",
           "invariant_sublattices", "mirror_involution", "transpose_defect",
           "real_fiber_dual"]


class LatticeInvolution(Record):
    """Integer matrix squaring to the identity and preserving the form.

    The matrix acts on column vectors of lattice coordinates.
    """

    lattice: IntegerLattice
    matrix: Matrix

    def __post_init__(self):
        a = mo.freeze(self.matrix)
        object.__setattr__(self, "matrix", a)
        n = self.lattice.rank
        if len(a) != n or any(len(row) != n for row in a):
            raise DimensionMismatch("involution matrix must be rank x rank")
        if mo.mat_mul(a, a) != mo.identity(n):
            raise K3BVError("matrix does not square to the identity")
        g = self.lattice.gram
        if mo.mat_mul(mo.mat_mul(mo.transpose(a), g), a) != g:
            raise K3BVError("matrix does not preserve the bilinear form")

    def apply(self, v: Vector) -> Vector:
        return mo.mat_vec(self.matrix, v)

    def compose(self, other: "LatticeInvolution") -> Matrix:
        return mo.mat_mul(self.matrix, other.matrix)


class RealFiberType(Enum):
    """Real locus of a fiber under an anti-holomorphic involution."""

    FIGURE_EIGHT = "figure_eight"
    CIRCLE_POINT = "circle_point"
    SINGULAR_CIRCLE = "singular_circle"
    SMOOTH_ONE_CIRCLE = "smooth_one_circle"
    SMOOTH_TWO_CIRCLES = "smooth_two_circles"


_SINGULAR_TYPES = {RealFiberType.FIGURE_EIGHT, RealFiberType.CIRCLE_POINT,
                   RealFiberType.SINGULAR_CIRCLE}


class SymplecticSpace(Record):
    """Even-dimensional rational vector space with a nondegenerate skew form."""

    form: Matrix

    def __post_init__(self):
        f = mo.freeze((tuple(Fraction(x) for x in row) for row in self.form))
        object.__setattr__(self, "form", f)
        n = len(f)
        if n == 0 or n % 2 != 0 or any(len(row) != n for row in f):
            raise DimensionMismatch("symplectic form must be square of even positive dimension")
        if any(f[i][j] != -f[j][i] for i in range(n) for j in range(n)):
            raise K3BVError("form is not skew-symmetric")
        if mo.rank_rational(f) != n:
            raise K3BVError("form is degenerate")

    @property
    def dim(self) -> int:
        return len(self.form)

    @classmethod
    def standard(cls, dim: int) -> "SymplecticSpace":
        """Form [[0, I], [-I, 0]] in dimension dim."""
        if dim % 2 != 0 or dim <= 0:
            raise DimensionMismatch("standard symplectic space needs even positive dimension")
        k = dim // 2
        rows = []
        for i in range(k):
            rows.append(tuple(1 if j == k + i else 0 for j in range(dim)))
        for i in range(k):
            rows.append(tuple(-1 if j == i else 0 for j in range(dim)))
        return cls(tuple(rows))


def invariant_sublattices(rho: LatticeInvolution) -> tuple[Sublattice, Sublattice]:
    """Saturated kernels of (rho - Id) and (rho + Id)."""
    n = rho.lattice.rank
    ident = mo.identity(n)
    minus = tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(rho.matrix, ident))
    plus = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(rho.matrix, ident))
    plus_lat = Sublattice(rho.lattice, mo.integer_kernel(minus))
    minus_lat = Sublattice(rho.lattice, mo.integer_kernel(plus))
    if plus_lat.rank + minus_lat.rank != n:
        raise K3BVError("invariant and anti-invariant ranks do not add up")
    return plus_lat, minus_lat


def reflection_through(p_in_l: Sublattice) -> Matrix:
    """r_P: identity on P, minus identity on the complement of P in L.

    Integral only when L = P + P-perp integrally; raised otherwise.
    """
    perp = orthogonal_complement(p_in_l)
    columns = mo.transpose(p_in_l.basis + perp.basis)
    det = mo.bareiss_det(columns)
    if abs(det) != 1:
        raise K3BVError(
            "L does not split integrally as P + P-perp; r_P is not integral")
    n = p_in_l.ambient.rank
    signs = tuple(tuple((1 if i < p_in_l.rank else -1) if i == j else 0 for j in range(n))
                  for i in range(n))
    return mo.mat_mul(mo.mat_mul(columns, signs), mo.integer_inverse(columns))


def mirror_involution(rho: LatticeInvolution, split: MirrorSplit) -> LatticeInvolution:
    """H(iota-check) = r_P o H(iota), for m = 1 splits.

    The anti-invariant lattice of rho must be the T of the split; the
    output has invariant lattice M-check and anti-invariant P + M.
    """
    if split.m != 1:
        raise K3BVError("mirror involution requires m = 1 (r_P is not integral otherwise)")
    t = split.t
    if t.ambient != rho.lattice:
        raise K3BVError("split does not live in the lattice of the involution")
    _, minus_lat = invariant_sublattices(rho)
    if not same_sublattice(saturation(t), minus_lat):
        raise K3BVError("anti-invariant lattice of the involution is not the T of the split")
    p_in_l = t.compose(split.p)
    r_p = reflection_through(p_in_l)
    return LatticeInvolution(rho.lattice, mo.mat_mul(r_p, rho.matrix))


def transpose_defect(v: SymplecticSpace, w: SymplecticSpace, phi: Matrix) -> Matrix:
    """Psi_W^{-1} (phi^{-1})^T Psi_V + phi; the zero matrix certifies the
    transpose identity for anti-symplectic maps.

    phi must be invertible and anti-symplectic:
    phi^T form_W phi = -form_V.
    """
    phi = mo.freeze((tuple(Fraction(x) for x in row) for row in phi))
    if len(phi) != w.dim or any(len(row) != v.dim for row in phi):
        raise DimensionMismatch("phi must map V into W")
    lhs = mo.mat_mul(mo.mat_mul(mo.transpose(phi), w.form), phi)
    neg_v = tuple(tuple(-x for x in row) for row in v.form)
    if lhs != neg_v:
        raise K3BVError("phi is not anti-symplectic: phi^T form_W phi != -form_V")
    psi_v = mo.transpose(v.form)
    psi_w_inv = mo.rational_inverse(mo.transpose(w.form))
    phi_inv_t = mo.transpose(mo.rational_inverse(phi))
    expr = mo.mat_mul(mo.mat_mul(psi_w_inv, phi_inv_t), psi_v)
    return tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(expr, phi))


def real_fiber_dual(t: RealFiberType) -> RealFiberType:
    """Interchange figure eights with circles plus points; a singular
    circle (type II real part) is fixed. Smooth types are rejected."""
    if t not in _SINGULAR_TYPES:
        raise K3BVError(f"{t.value} is not a singular-fiber real type")
    if t is RealFiberType.FIGURE_EIGHT:
        return RealFiberType.CIRCLE_POINT
    if t is RealFiberType.CIRCLE_POINT:
        return RealFiberType.FIGURE_EIGHT
    return RealFiberType.SINGULAR_CIRCLE
