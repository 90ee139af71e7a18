"""Integer involutions of the K3 lattice and the mirror involution.

The mirror involution is r_P composed with the original action, where
r_P is the identity on P and minus the identity on the orthogonal
complement of P in L. In the unimodular K3 lattice r_P is integral for
P = U(m) with m = 1 or 2; m = 1 is required and enforced because it is
the Borcea-Voisin mirror condition: an m = 2 split gives an integral
involution whose invariant lattice is not the mirror one.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import matrixops as mo
from .errors import DimensionMismatch, K3BVError
from .lattice import IntegerLattice, Sublattice
from .matrixops import Matrix, Vector
from .mirror import MirrorSplit
from .record import Record

__all__ = ["LatticeInvolution", "RealFiberType", "SymplecticSpace",
           "invariant_sublattices", "mirror_involution", "reflection_through",
           "transpose_defect", "real_fiber_dual"]


class LatticeInvolution(Record):
    """Integer matrix squaring to the identity and preserving the form.

    The matrix acts on column vectors of lattice coordinates. Given
    a^2 = I, a^T G a = G holds exactly when G a (= a^T G) is symmetric.
    """

    lattice: IntegerLattice
    matrix: Matrix

    def __post_init__(self):
        if not isinstance(self.lattice, IntegerLattice):
            raise K3BVError("LatticeInvolution lattice must be an IntegerLattice")
        a = mo.freeze(self.matrix)
        object.__setattr__(self, "matrix", a)
        n = self.lattice.rank
        if len(a) != n or any(len(row) != n for row in a):
            raise DimensionMismatch("involution matrix must be rank x rank")
        mo.check_integers("involution entries", *a)
        if mo.mat_mul(a, a) != mo.identity(n):
            raise K3BVError("matrix does not square to the identity")
        ga = mo.mat_mul(self.lattice.gram, a)
        if mo.transpose(ga) != ga:
            raise K3BVError("matrix does not preserve the bilinear form")

    def apply(self, v: Vector) -> Vector:
        return mo.mat_vec(self.matrix, v)


class RealFiberType(Enum):
    """Real locus of a fiber under an anti-holomorphic involution."""

    FIGURE_EIGHT = "figure_eight"
    CIRCLE_POINT = "circle_point"
    SINGULAR_CIRCLE = "singular_circle"
    SMOOTH_ONE_CIRCLE = "smooth_one_circle"
    SMOOTH_TWO_CIRCLES = "smooth_two_circles"


_SINGULAR_TYPES = {RealFiberType.FIGURE_EIGHT, RealFiberType.CIRCLE_POINT,
                   RealFiberType.SINGULAR_CIRCLE}


def _exact(rows) -> Matrix:
    """Exact rational entries, an integral Fraction held as int."""
    rows = mo.freeze(rows)
    mo.check_rationals("matrix entries", *rows)
    return tuple(tuple(x.numerator if x.denominator == 1 else x for x in row) for row in rows)


class SymplecticSpace(Record):
    """Even-dimensional rational vector space with a nondegenerate skew
    form; integral entries of the form are held as int."""

    form: Matrix

    def __post_init__(self):
        f = _exact(self.form)
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
        mo.check_integers("dim", (dim,))
        k = dim // 2
        rows = []
        for i in range(k):
            rows.append(tuple(1 if j == k + i else 0 for j in range(dim)))
        for i in range(k):
            rows.append(tuple(-1 if j == i else 0 for j in range(dim)))
        return cls(tuple(rows))


def invariant_sublattices(rho: LatticeInvolution) -> tuple[Sublattice, Sublattice]:
    """Saturated kernels of (rho - Id) and (rho + Id), read as saturations of
    the columns of (rho + Id) and (rho - Id): as rho^2 = Id splits Q^n into
    the two eigenspaces, the image of rho +- Id spans the +-1 eigenspace."""
    cols = mo.transpose(rho.matrix)
    shifted = ([col[:i] + (col[i] + s,) + col[i + 1:] for i, col in enumerate(cols)]
               for s in (1, -1))
    return tuple(Sublattice._from_hnf(rho.lattice, mo.saturate(a, rho.lattice.rank))
                 for a in shifted)


def reflection_through(p_in_l: Sublattice) -> Matrix:
    """r_P: identity on P, minus identity on the complement of P in L.

    With B the basis of P and G the form of L, the projection onto P is
    pi_P = B^T C with C = G_P^-1 B G, so r_P = 2 pi_P - I. With
    G_P^-1 = Y / d, d pi_P = B^T (Y B G) is integral, and r_P is integral
    exactly when d divides every entry of 2 d pi_P. This holds when
    L = P + P-perp integrally, and also for P = U(2) in a unimodular L;
    a singular G_P or a fractional 2 pi_P is raised.
    """
    b = p_in_l.basis
    n = p_in_l.ambient.rank
    try:
        y, d = mo._inverse(p_in_l.gram())
    except DimensionMismatch:
        y, d = (), 0
    dc = mo.mat_mul(mo.mat_mul(y, b), p_in_l.ambient.gram)
    d_proj = mo.mat_mul(mo.transpose(b), dc) if b else mo.zeros(n, n)
    if d == 0 or any(2 * x % d for row in d_proj for x in row):
        raise K3BVError("2 pi_P is not integral, so neither is r_P = 2 pi_P - I")
    return tuple(tuple(2 * x // d - (i == j) for j, x in enumerate(row))
                 for i, row in enumerate(d_proj))


def mirror_involution(rho: LatticeInvolution, split: MirrorSplit) -> LatticeInvolution:
    """H(iota-check) = r_P o H(iota), for m = 1 splits.

    T must span the -1 eigenspace of rho, of dimension (n - tr rho) / 2
    as rho^2 = Id: 2 rank T = n - tr rho and rho t = -t on each row t of
    T. The output has invariant lattice M-check and anti-invariant P + M.
    """
    if split.m != 1:
        raise K3BVError("mirror involution requires m = 1, the Borcea-Voisin mirror condition")
    t = split.t
    if t.ambient != rho.lattice:
        raise K3BVError("split does not live in the lattice of the involution")
    n = rho.lattice.rank
    minus_t = tuple(mo.scale_vec(-1, row) for row in t.basis)
    if (2 * t.rank != n - sum(rho.matrix[i][i] for i in range(n))
            or mo.mat_mul(t.basis, mo.transpose(rho.matrix)) != minus_t):
        raise K3BVError("anti-invariant lattice of the involution is not the T of the split")
    p_in_l = t.compose(split.p)
    r_p = reflection_through(p_in_l)
    return LatticeInvolution(rho.lattice, mo.mat_mul(r_p, rho.matrix))


def transpose_defect(v: SymplecticSpace, w: SymplecticSpace, phi: Matrix) -> Matrix:
    """Psi_W^{-1} (phi^{-1})^T Psi_V + phi; the zero matrix certifies the
    transpose identity for anti-symplectic maps.

    phi must be invertible and anti-symplectic:
    phi^T form_W phi = -form_V. With M = phi^T Psi_W the defect is
    M^{-1} Psi_V + phi, so one fraction-free inverse M^{-1} = Y / d gives
    it, with one Fraction per entry; integral input stays over int until
    then.
    """
    phi = _exact(phi)
    if len(phi) != w.dim or any(len(row) != v.dim for row in phi):
        raise DimensionMismatch("phi must map V into W")
    phi_t = mo.transpose(phi)
    neg_v = tuple(tuple(-x for x in row) for row in v.form)
    if mo.mat_mul(mo.mat_mul(phi_t, w.form), phi) != neg_v:
        raise K3BVError("phi is not anti-symplectic: phi^T form_W phi != -form_V")
    y, d = mo._inverse(mo.mat_mul(phi_t, mo.transpose(w.form)))
    expr = mo.mat_mul(y, mo.transpose(v.form))
    return tuple(tuple(Fraction(a, d) + b for a, b in zip(r1, r2))
                 for r1, r2 in zip(expr, phi))


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
