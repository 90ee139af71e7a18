"""Membership tests for tube domains, period domains, the discriminant
locus and the primed real-codimension-one slices.

All vectors carry exact rational coordinates in the basis of the
sublattice they live over; only rational points are representable. Each
is held as integer numerators over one least denominator, every form is
summed over int from one pass over the Gram's nonzeros, and Fraction
coordinates are views built on first read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional

from . import matrixops as mo
from .errors import DimensionMismatch, K3BVError
from .lattice import Sublattice
from .matrixops import Vector, check_integers, check_rationals
from .mirror import MirrorSplit
from .record import Record

__all__ = ["TubePoint", "PeriodVector", "in_tube", "in_period_domain",
           "in_delta", "in_primed"]


def _check_length(rank: int, v, label: str) -> None:
    if len(v) != rank:
        raise DimensionMismatch(f"{label} has length {len(v)}, lattice rank is {rank}")


class _TwoVectors(Record):
    """A lattice and two rational vectors: the last two fields, named by
    `_labels` in messages. Both constructors set `cleared`, each vector as
    (int numerators, least denominator d > 0); equality and hashing compare
    it. The fields are Fraction views of it: the public constructor keeps the
    vectors it is given, and `_from_cleared` leaves each to its first read."""

    def __post_init__(self):
        if not isinstance(self.lattice, Sublattice):
            raise K3BVError(f"{type(self).__name__} lattice must be a Sublattice")
        cleared = []
        for name, label in zip(self._fields[1:], self._labels):
            (v,) = mo.freeze((self.__dict__[name],))
            _check_length(self.lattice.rank, v, label)
            check_rationals(f"{label} coordinates", v)
            self.__dict__[name] = v
            cleared.append(mo.clear_denominators(v))
        self.__dict__["cleared"] = tuple(cleared)

    @classmethod
    def _from_cleared(cls, lattice: Sublattice, *cleared):
        """The record of n / d for each (n, d) in `cleared`, with int n and
        d > 0, each pair divided by gcd(d, *n)."""
        pairs = []
        for (n, d), label in zip(cleared, cls._labels):
            _check_length(lattice.rank, n, label)
            check_integers(f"{label} numerators", n)
            g = gcd(d, *n)
            pairs.append((tuple(x // g for x in n), d // g))
        self = object.__new__(cls)
        self.__dict__.update(lattice=lattice, cleared=tuple(pairs))
        return self

    @cached_property
    def forms(self) -> tuple[int, int, int]:
        """(n1.n1, n2.n2, n1.n2) for the cleared (n1, d1), (n2, d2), over int."""
        (n1, _), (n2, _) = self.cleared
        g1, g2 = mo.mat_vec_pair(self.lattice.induced_lattice().gram_nonzeros, n1, n2)
        return mo.dot(n1, g1), mo.dot(n2, g2), mo.dot(n1, g2)

    def __getattr__(self, name):
        # Only names missing from __dict__, as the views of _from_cleared are.
        if name not in self._fields[1:]:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n, d = self.cleared[self._fields.index(name) - 1]
        view = self.__dict__[name] = tuple(map(Fraction, n) if d == 1 else
                                           (Fraction(x, d) for x in n))
        return view

    def _values(self) -> tuple:
        return self.lattice, self.cleared


class TubePoint(_TwoVectors):
    """B + i*omega over M or M-check, coordinates in the sublattice basis,
    held as `cleared`; `b` and `omega` are its Fraction views."""

    lattice: Sublattice
    b: Vector
    omega: Vector
    _labels = ("B", "omega")

    def omega_sq(self) -> Fraction:
        return Fraction(self.forms[1], self.cleared[1][1] ** 2)

    def b_sq(self) -> Fraction:
        return Fraction(self.forms[0], self.cleared[0][1] ** 2)

    def b_dot_omega(self) -> Fraction:
        return Fraction(self.forms[2], self.cleared[0][1] * self.cleared[1][1])


class PeriodVector(_TwoVectors):
    """Omega = re + i*im over the transcendental lattice T, held as
    `cleared`; `re` and `im` are its Fraction views."""

    lattice: Sublattice
    re: Vector
    im: Vector
    _labels = ("re", "im")

    def omega_dot_omega(self) -> tuple[Fraction, Fraction]:
        """Omega.Omega as (real, imaginary) parts."""
        (rr, ii, ri), ((_, dr), (_, di)) = self.forms, self.cleared
        return Fraction(rr * di * di - ii * dr * dr, (dr * di) ** 2), Fraction(2 * ri, dr * di)

    def omega_dot_conjugate(self) -> Fraction:
        (rr, ii, _), ((_, dr), (_, di)) = self.forms, self.cleared
        return Fraction(rr * di * di + ii * dr * dr, (dr * di) ** 2)


def in_tube(p: TubePoint) -> bool:
    """omega.omega > 0, exactly."""
    return p.omega_sq() > 0


def in_period_domain(om: PeriodVector) -> bool:
    """Omega.Omega = 0 and Omega.conj(Omega) > 0, exactly."""
    real, imag = om.omega_dot_omega()
    return real == 0 and imag == 0 and om.omega_dot_conjugate() > 0


def in_delta(om: PeriodVector) -> tuple[bool, Optional[Vector]]:
    """Is there a nonzero alpha in T with alpha.Omega = 0?

    Decided by the integer kernel of the two rational linear conditions
    alpha.re = 0, alpha.im = 0 over T; returns a witness when nonempty.
    """
    (nr, _), (ni, _) = om.cleared
    if not any(nr) and not any(ni):
        raise K3BVError("the zero vector is not a period")
    kernel = mo.integer_kernel(mo.mat_vec_pair(om.lattice.induced_lattice().gram_nonzeros, nr, ni))
    return (True, kernel[0]) if kernel else (False, None)


def in_primed(point, split: MirrorSplit) -> bool:
    """Membership in T'_M (tube points: B.omega = 0) or D'_M (period
    vectors: Im Omega in the rational span of M-check).

    Since T = ZE + ZE' + M-check, Im Omega lies in Q M-check exactly when
    its E and E' coordinates vanish, i.e. when Im Omega.E' = Im Omega.E = 0.
    """
    if isinstance(point, TubePoint):
        if point.lattice != split.m_check:
            raise K3BVError("tube point must live over the M-check of the split")
        return point.forms[2] == 0
    if isinstance(point, PeriodVector):
        if point.lattice != split.t:
            raise K3BVError("period vector must live over the T of the split")
        return not any(split.split_coordinates(point.cleared[1][0], 2))
    raise K3BVError(f"expected TubePoint or PeriodVector, got {type(point).__name__}")
