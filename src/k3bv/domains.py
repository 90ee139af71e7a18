"""Membership tests for tube domains, period domains, the discriminant
locus and the primed real-codimension-one slices.

All vectors carry exact rational coordinates in the basis of the
sublattice they live over; only rational points are representable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Optional

from . import matrixops as mo
from .errors import DimensionMismatch, K3BVError
from .lattice import Sublattice
from .matrixops import Vector
from .mirror import MirrorSplit
from .record import Record

__all__ = ["TubePoint", "PeriodVector", "in_tube", "in_period_domain",
           "in_delta", "in_primed"]


def _check_coords(rank: int, v: Vector, what: str) -> Vector:
    if len(v) != rank:
        raise DimensionMismatch(f"{what} has length {len(v)}, lattice rank is {rank}")
    return tuple(Fraction(x) for x in v)


def clear_denominators(v: Vector) -> tuple[tuple[int, ...], int]:
    """(d * v, d) for the least d > 0 that makes d * v integral."""
    d = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v), d


def _form(sub: Sublattice, v: Vector, w: Vector) -> Fraction:
    """v^T G w: evaluated over int, one Fraction at the end."""
    nv, dv = clear_denominators(v)
    nw, dw = clear_denominators(w)
    total = sum(x * sum(map(mul, row, nw)) for x, row in zip(nv, sub.gram()) if x)
    return Fraction(total, dv * dw)


class TubePoint(Record):
    """B + i*omega over M or M-check, coordinates in the sublattice basis."""

    lattice: Sublattice
    b: Vector
    omega: Vector

    def __post_init__(self):
        object.__setattr__(self, "b", _check_coords(self.lattice.rank, self.b, "B"))
        object.__setattr__(self, "omega",
                           _check_coords(self.lattice.rank, self.omega, "omega"))

    def omega_sq(self) -> Fraction:
        return _form(self.lattice, self.omega, self.omega)

    def b_sq(self) -> Fraction:
        return _form(self.lattice, self.b, self.b)

    def b_dot_omega(self) -> Fraction:
        return _form(self.lattice, self.b, self.omega)


class PeriodVector(Record):
    """Omega = re + i*im over the transcendental lattice T."""

    lattice: Sublattice
    re: Vector
    im: Vector

    def __post_init__(self):
        object.__setattr__(self, "re", _check_coords(self.lattice.rank, self.re, "re"))
        object.__setattr__(self, "im", _check_coords(self.lattice.rank, self.im, "im"))

    @cached_property
    def _quadrics(self) -> tuple[Fraction, Fraction, Fraction]:
        """(re.re, im.im, re.im), computed once."""
        return (_form(self.lattice, self.re, self.re), _form(self.lattice, self.im, self.im),
                _form(self.lattice, self.re, self.im))

    def omega_dot_omega(self) -> tuple[Fraction, Fraction]:
        """Omega.Omega as (real, imaginary) parts."""
        rr, ii, ri = self._quadrics
        return rr - ii, 2 * ri

    def omega_dot_conjugate(self) -> Fraction:
        rr, ii, _ = self._quadrics
        return rr + ii


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
    if all(x == 0 for x in om.re) and all(x == 0 for x in om.im):
        raise K3BVError("the zero vector is not a period")
    gram = om.lattice.gram()
    rows = tuple(clear_denominators(mo.mat_vec(gram, vec))[0] for vec in (om.re, om.im))
    kernel = mo.integer_kernel(rows)
    if kernel:
        return True, kernel[0]
    return False, None


def in_primed(point, split: MirrorSplit) -> bool:
    """Membership in T'_M (tube points: B.omega = 0) or D'_M (period
    vectors: Im Omega in the rational span of M-check).

    Since T = ZE + ZE' + M-check, Im Omega lies in Q M-check exactly when
    its E and E' coordinates vanish, i.e. when Im Omega.E' = Im Omega.E = 0.
    """
    if isinstance(point, TubePoint):
        return point.b_dot_omega() == 0
    if isinstance(point, PeriodVector):
        a, b = split.split_coordinates(clear_denominators(point.im)[0])[:2]
        return a == b == 0
    raise K3BVError(f"expected TubePoint or PeriodVector, got {type(point).__name__}")
