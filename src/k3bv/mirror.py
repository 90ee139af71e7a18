"""m-admissible vectors and the mirror-lattice construction.

Everything here works in the coordinates of the transcendental lattice
T, handed in as a Sublattice; its induced Gram matrix is the form used
throughout. Admissibility is decided by exact divisibility arithmetic
rather than vector search, since the pairing values of a lattice vector
form div(E) * Z. M-check is the orthogonal complement of P = ZE + ZE'
in T, and every split T = P + M-check is certified to have index one.
"""

from __future__ import annotations

from functools import cached_property

from . import matrixops as mo
from .errors import AdmissibilityError, DimensionMismatch, NotInLattice, SplittingError
from .lattice import IntegerLattice, Sublattice, orthogonal_complement
from .matrixops import Vector
from .record import Record

__all__ = ["AdmissiblePair", "MirrorSplit", "check_admissible", "construct_mirror"]


class AdmissiblePair(Record):
    """Isotropic vectors E, E' in T with E.E' = m and both of divisibility m."""

    t: Sublattice
    e: Vector
    e_prime: Vector
    m: int


class MirrorSplit(Record):
    """The exact splitting T = P + M-check produced by an admissible pair.

    p and m_check are sublattices of the induced lattice of T (i.e. their
    generators are written in T coordinates). section_class is E' - E.
    The mirror map's fixed matrices, the columns of the M-check basis and of
    the inverse of (E, E', M-check), are kept by their nonzeros on first use.
    """

    pair: AdmissiblePair
    p: Sublattice
    m_check: Sublattice
    section_class: Vector

    @property
    def t(self) -> Sublattice:
        return self.pair.t

    @property
    def m(self) -> int:
        return self.pair.m

    @cached_property
    def _inverse_columns(self):
        """Nonzeros of the columns of the inverse of the basis (E, E', M-check)
        of T, integral as construct_mirror certified its determinant is +-1."""
        basis = (self.pair.e, self.pair.e_prime) + self.m_check.basis
        return mo.nonzeros(mo.transpose(mo.integer_inverse(basis)))

    @cached_property
    def _m_check_columns(self):
        """Nonzeros of the columns of the M-check basis: c -> sum c_i M_i."""
        return mo.nonzeros(mo.transpose(self.m_check.basis) or mo.zeros(self.t.rank, 0))

    def split_coordinates(self, v: Vector, count: int | None = None) -> tuple[int, ...]:
        """(a, b, c_1, ..., c_r) with v = aE + bE' + sum c_i M_i, for an
        integer vector v in T coordinates; only the first `count` if given."""
        if len(v) != self.t.rank:
            raise DimensionMismatch(f"vector has length {len(v)}, rank T is {self.t.rank}")
        return tuple(sum(v[k] * x for k, x in col) for col in self._inverse_columns[:count])


def check_admissible(t: Sublattice, e: Vector, e_prime: Vector, m: int) -> AdmissiblePair:
    """Validate (E, E', m); each failing condition is reported distinctly.

    E and E' are integer vectors in T coordinates, so E is primitive when
    its entries are coprime, and its divisibility is the content of G E.
    The no-small-pairing condition is decided as divisibility(E) >= m;
    E.E' = m then forces divisibility exactly m.
    """
    mo.check_integers("m", (m,))
    if m < 1:
        raise AdmissibilityError(f"m must be a positive integer, got {m}")
    lat = t.induced_lattice()
    (e, d), (e_prime, d_prime) = (mo.clear_denominators(lat.check_vector(v)) for v in (e, e_prime))
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
    if mo.content(e) != 1:
        raise AdmissibilityError("E is not primitive in T")
    if mo.content(e_prime) != 1:
        raise AdmissibilityError("E' is not primitive in T")
    de = mo.content(ge)
    if de != m:
        raise AdmissibilityError(
            f"divisibility of E in T is {de}, expected m = {m}: "
            "some alpha in T has 0 < alpha.E < m")
    dep = mo.content(gep)
    if dep != m:
        raise AdmissibilityError(
            f"divisibility of E' in T is {dep}, expected m = {m}: "
            "some alpha in T has 0 < alpha.E' < m")
    return AdmissiblePair(t, e, e_prime, m)


def construct_mirror(pair: AdmissiblePair) -> MirrorSplit:
    """Build M-check as the orthogonal complement of P = ZE + ZE' in T.

    The paper's M-check is the image of (ZE)-perp under
    a -> a - (a.E'/m) E. That map fixes P-perp and sends (ZE)-perp into
    P-perp, so for an admissible pair the image is exactly P-perp.
    The splitting T = P + M-check is certified to have index one by
    |det(E, E', M-check)| = 1, together with det T = -m^2 det M-check.
    An input failing either is rejected.
    """
    lat = pair.t.induced_lattice()
    p = Sublattice(lat, (pair.e, pair.e_prime))
    m_check = orthogonal_complement(p)
    _verify_split(lat, p, m_check, pair.m)
    return MirrorSplit(pair, p, m_check, mo.sub_vec(pair.e_prime, pair.e))


def _verify_split(lat: IntegerLattice, p: Sublattice, m_check: Sublattice, m: int):
    gram_p = p.gram()
    if gram_p != ((0, m), (m, 0)):
        raise SplittingError(f"P has Gram {gram_p}, expected U({m})")
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
