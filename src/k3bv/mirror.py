"""m-admissible vectors and the mirror-lattice construction.

Everything here works in the coordinates of the transcendental lattice
T, handed in as a Sublattice; its induced Gram matrix is the form used
throughout. Admissibility is decided by exact divisibility arithmetic
rather than vector search, since the pairing values of a lattice vector
form div(E) * Z.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import mul

from . import matrixops as mo
from .errors import AdmissibilityError, SplittingError
from .lattice import (IntegerLattice, Sublattice, det_and_signature, divisibility,
                      is_primitive, pairing, saturation)
from .matrixops import Matrix, Vector
from .record import Record

__all__ = ["AdmissiblePair", "MirrorSplit", "find_isotropic",
           "check_admissible", "construct_mirror"]


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
    def _inverse_columns(self) -> Matrix:
        """Columns of the inverse of the basis (E, E', M-check) of T.

        construct_mirror certified the split to have index one, so this
        basis is unimodular and its inverse is integral. Computed on first
        use, so building a split does not pay for it.
        """
        basis = (self.pair.e, self.pair.e_prime) + self.m_check.basis
        return mo.transpose(mo.integer_inverse(basis))

    def split_coordinates(self, v: Vector) -> tuple[int, ...]:
        """(a, b, c_1, ..., c_r) with v = aE + bE' + sum c_i M_i, for an
        integer vector v in T coordinates."""
        return tuple(sum(map(mul, v, col)) for col in self._inverse_columns)


def find_isotropic(t: Sublattice, height: int = 3) -> list[Vector]:
    """Primitive isotropic vectors of T with coefficients in [-height, height].

    Deduplicated up to sign: the representative has its first nonzero
    coordinate positive. Candidate generator only; admissibility still
    has to be checked separately. A definite nondegenerate T has no
    nonzero isotropic vector, so it returns [] without searching.
    """
    if height < 1:
        raise AdmissibilityError(f"height must be >= 1, got {height}")
    _, (pos, neg, zero) = det_and_signature(t.induced_lattice())
    if zero == 0 and (pos == 0 or neg == 0):
        return []
    gram = t.gram()
    n = t.rank
    span = range(-height, height + 1)
    # A zero prefix, a positive entry, a free tail: one tuple per sign class,
    # longer prefixes first as in lexicographic order.
    candidates = (c for z in reversed(range(n))
                  for c in product(*[(0,)] * z, range(1, height + 1), *[span] * (n - z - 1)))
    return [c for c in candidates
            if mo.content(c) == 1 and mo.dot(c, mo.mat_vec(gram, c)) == 0]


def check_admissible(t: Sublattice, e: Vector, e_prime: Vector, m: int) -> AdmissiblePair:
    """Validate (E, E', m); each failing condition is reported distinctly.

    The no-small-pairing condition is decided as divisibility(E) >= m;
    E.E' = m then forces divisibility exactly m.
    """
    if m < 1:
        raise AdmissibilityError(f"m must be a positive integer, got {m}")
    lat = t.induced_lattice()
    full = Sublattice.full(lat)
    e = tuple(e)
    e_prime = tuple(e_prime)
    ee = pairing(lat, e, e)
    if ee != 0:
        raise AdmissibilityError(f"E is not isotropic: E.E = {ee}")
    epep = pairing(lat, e_prime, e_prime)
    if epep != 0:
        raise AdmissibilityError(f"E' is not isotropic: E'.E' = {epep}")
    eep = pairing(lat, e, e_prime)
    if eep != m:
        raise AdmissibilityError(f"E.E' = {eep}, expected m = {m}")
    if not is_primitive(full, e):
        raise AdmissibilityError("E is not primitive in T")
    if not is_primitive(full, e_prime):
        raise AdmissibilityError("E' is not primitive in T")
    de = divisibility(full, e)
    if de != m:
        raise AdmissibilityError(
            f"divisibility of E in T is {de}, expected m = {m}: "
            "some alpha in T has 0 < alpha.E < m")
    dep = divisibility(full, e_prime)
    if dep != m:
        raise AdmissibilityError(
            f"divisibility of E' in T is {dep}, expected m = {m}: "
            "some alpha in T has 0 < alpha.E' < m")
    return AdmissiblePair(t, e, e_prime, m)


def construct_mirror(pair: AdmissiblePair) -> MirrorSplit:
    """Build M-check as the image of (ZE)-perp under a -> a - (a.E'/m) E.

    The image is saturated in T, and the splitting T = P + M-check is
    certified to have index one via |det P| * |det M-check| = |det T|.
    A failure of that identity means the two formulations of
    admissibility disagree for this input; the input is rejected.
    """
    t = pair.t
    lat = t.induced_lattice()
    n = lat.rank
    gram = lat.gram
    e, ep, m = pair.e, pair.e_prime, pair.m

    # (ZE)-perp inside T: integer kernel of the single pairing condition.
    row_e = mo.mat_vec(gram, e)
    perp = mo.integer_kernel((row_e,))

    image_rows = []
    for alpha in perp:
        a_ep = mo.dot(alpha, mo.mat_vec(gram, ep))
        if a_ep % m != 0:
            raise SplittingError(
                "alpha.E' not divisible by m on (ZE)-perp; "
                "the embedding of M-check into T is not integral")
        image_rows.append(mo.sub_vec(alpha, mo.scale_vec(a_ep // m, e)))
    # E itself maps to 0; drop dependent rows by saturating the rows that
    # are independent of the rows before them.
    independent = mo.independent_rows(image_rows)
    m_check = saturation(Sublattice(lat, independent)) if independent \
        else Sublattice(lat, ())
    p = Sublattice(lat, (e, ep))

    _verify_split(lat, p, m_check, m)
    return MirrorSplit(pair, p, m_check, mo.sub_vec(ep, e))


def _verify_split(lat: IntegerLattice, p: Sublattice, m_check: Sublattice, m: int):
    gram_p = p.gram()
    if gram_p != ((0, m), (m, 0)):
        raise SplittingError(f"P has Gram {gram_p}, expected U({m})")
    for row_p in p.basis:
        for row_m in m_check.basis:
            if pairing(lat, row_p, row_m) != 0:
                raise SplittingError("P and M-check are not orthogonal")
    if p.rank + m_check.rank != lat.rank:
        raise SplittingError("rank(P) + rank(M-check) != rank(T)")
    det_t = mo.bareiss_det(lat.gram)
    combined: Matrix = p.basis + m_check.basis
    det_split = mo.bareiss_det(
        mo.mat_mul(mo.mat_mul(combined, lat.gram), mo.transpose(combined)))
    if det_split != det_t:
        raise SplittingError(
            f"splitting index is not 1: det(P + M-check) = {det_split}, det(T) = {det_t}")
