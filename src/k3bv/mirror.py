"""m-admissible vectors and the mirror-lattice construction.

Everything here works in the coordinates of the transcendental lattice
T, handed in as a Sublattice; its induced Gram matrix is the form used
throughout. Both records certify themselves when built. An AdmissiblePair
decides admissibility by exact divisibility arithmetic rather than vector
search, since the pairing values of a lattice vector form div(E) * Z. A
MirrorSplit is derived from its pair: M-check is the orthogonal complement
of P = ZE + ZE' in T, and T = P + M-check is certified to have index one.
"""

from __future__ import annotations

from functools import cached_property

from . import matrixops as mo
from .errors import AdmissibilityError, K3BVError, NotInLattice, SplittingError
from .lattice import Sublattice, orthogonal_complement
from .matrixops import Vector
from .record import Record

__all__ = ["AdmissiblePair", "MirrorSplit", "check_admissible", "construct_mirror"]


class AdmissiblePair(Record):
    """Isotropic vectors E, E' in T with E.E' = m and both of divisibility m,
    checked when built, each failing condition reported distinctly. E and E'
    are integer vectors in T coordinates, kept as int tuples, so E is
    primitive when its entries are coprime, and its divisibility is the
    content of G E. The no-small-pairing condition is decided as
    divisibility(E) >= m; E.E' = m then forces divisibility exactly m."""

    t: Sublattice
    e: Vector
    e_prime: Vector
    m: int

    def __post_init__(self):
        if not isinstance(self.t, Sublattice):
            raise K3BVError("AdmissiblePair t must be a Sublattice")
        m = self.m
        mo.check_integers("m", (m,))
        if m < 1:
            raise AdmissibilityError(f"m must be a positive integer, got {m}")
        lat = self.t.induced_lattice()
        (e, d), (e_prime, d_prime) = (mo.clear_denominators(lat.check_vector(v))
                                      for v in (self.e, self.e_prime))
        if d * d_prime != 1:
            raise NotInLattice("E and E' must be integer vectors of T")
        ge, gep = mo.mat_mul((e, e_prime), lat.gram)  # E G = G E, as G is symmetric
        ee = mo.dot(e, ge)
        if ee != 0:
            raise AdmissibilityError(f"E is not isotropic: E.E = {ee}")
        epep = mo.dot(e_prime, gep)
        if epep != 0:
            raise AdmissibilityError(f"E' is not isotropic: E'.E' = {epep}")
        eep = mo.dot(e, gep)
        if eep != m:
            raise AdmissibilityError(f"E.E' = {eep}, expected m = {m}")
        for name, v in (("E", e), ("E'", e_prime)):
            if mo.content(v) != 1:
                raise AdmissibilityError(f"{name} is not primitive in T")
        for name, g in (("E", ge), ("E'", gep)):
            div = mo.content(g)
            if div != m:
                raise AdmissibilityError(
                    f"divisibility of {name} in T is {div}, expected m = {m}: "
                    f"some alpha in T has 0 < alpha.{name} < m")
        self.__dict__.update(e=e, e_prime=e_prime)


class MirrorSplit(Record):
    """The exact splitting T = P + M-check derived from an admissible pair.

    P = ZE + ZE' and M-check are sublattices of the induced lattice of T,
    generators in T coordinates. The paper's M-check, the image of (ZE)-perp
    under a -> a - (a.E'/m) E, is P-perp, as that map fixes P-perp and sends
    (ZE)-perp into it. The pair proves Gram P = U(m); the split is refused
    unless P and M-check are orthogonal, their ranks add up to rank T,
    |det(E, E', M-check)| = 1 and det T = -m^2 det M-check.
    The mirror map's fixed matrices, the columns of the M-check basis and of
    the inverse of (E, E', M-check), are kept by their nonzeros on first use.
    """

    pair: AdmissiblePair

    def __post_init__(self):
        pair = self.pair
        if not isinstance(pair, AdmissiblePair):
            raise K3BVError("MirrorSplit pair must be an AdmissiblePair")
        lat, m = pair.t.induced_lattice(), pair.m
        p = Sublattice(lat, (pair.e, pair.e_prime))
        m_check = orthogonal_complement(p)
        cross = mo.mat_mul(mo.mat_mul(p.basis, lat.gram), mo.transpose(m_check.basis))
        if any(x for row in cross for x in row):
            raise SplittingError("P and M-check are not orthogonal")
        if p.rank + m_check.rank != lat.rank:
            raise SplittingError("rank(P) + rank(M-check) != rank(T)")
        index = abs(mo.bareiss_det(p.basis + m_check.basis))
        if index != 1:
            raise SplittingError(
                f"splitting index is not 1: |det(E, E', M-check)| = {index}")
        det_t = mo.bareiss_det(lat.gram)
        det_mc = mo.bareiss_det(m_check.gram())
        if det_t != -m * m * det_mc:
            raise SplittingError(
                f"det T = {det_t}, but -m^2 det M-check = {-m * m * det_mc}")
        self.__dict__.update(p=p, m_check=m_check)

    @property
    def t(self) -> Sublattice:
        return self.pair.t

    @property
    def m(self) -> int:
        return self.pair.m

    @property
    def section_class(self) -> Vector:
        return mo.sub_vec(self.pair.e_prime, self.pair.e)

    @cached_property
    def _inverse_columns(self):
        """Nonzeros of the columns of the inverse of the basis (E, E', M-check)
        of T, integral as the split certified its determinant is +-1."""
        basis = (self.pair.e, self.pair.e_prime) + self.m_check.basis
        return mo.nonzeros(mo.transpose(mo.integer_inverse(basis)))

    @cached_property
    def _m_check_columns(self):
        """Nonzeros of the columns of the M-check basis: c -> sum c_i M_i."""
        return mo.nonzeros(mo.transpose(self.m_check.basis) or mo.zeros(self.t.rank, 0))


def check_admissible(t: Sublattice, e: Vector, e_prime: Vector, m: int) -> AdmissiblePair:
    """The admissible pair (E, E', m) in T, which certifies itself."""
    return AdmissiblePair(t, e, e_prime, m)


def construct_mirror(pair: AdmissiblePair) -> MirrorSplit:
    """The certified split T = ZE + ZE' + M-check of an admissible pair."""
    return MirrorSplit(pair)
