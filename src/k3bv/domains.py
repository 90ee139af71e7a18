"""Membership tests for tube domains, period domains, the discriminant
locus and the primed real-codimension-one slices.

All vectors carry exact rational coordinates in the basis of the
sublattice they live over; only rational points are representable. Each
vector is cleared of denominators once and every form is summed over int.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import matrixops as mo
from .errors import DimensionMismatch, K3BVError
from .lattice import Sublattice, _cleared_forms
from .matrixops import Vector, check_rationals
from .mirror import MirrorSplit
from .record import Record

__all__ = ["TubePoint", "PeriodVector", "in_tube", "in_period_domain",
           "in_delta", "in_primed"]


def _check_coords(rank: int, v: Vector, what: str) -> Vector:
    (v,) = mo.freeze((v,))
    if len(v) != rank:
        raise DimensionMismatch(f"{what} has length {len(v)}, lattice rank is {rank}")
    check_rationals(f"{what} coordinates", v)
    return v


class TubePoint(Record):
    """B + i*omega over M or M-check, coordinates in the sublattice basis."""

    lattice: Sublattice
    b: Vector
    omega: Vector

    def __post_init__(self):
        object.__setattr__(self, "b", _check_coords(self.lattice.rank, self.b, "B"))
        object.__setattr__(self, "omega",
                           _check_coords(self.lattice.rank, self.omega, "omega"))

    @cached_property
    def cleared(self):
        """((nb, db), (nw, dw), (bb, ww, bw)) of `_cleared_forms` on B, omega."""
        return _cleared_forms(self.lattice.gram(), self.b, self.omega)

    def omega_sq(self) -> Fraction:
        _, (_, dw), (_, ww, _) = self.cleared
        return Fraction(ww, dw * dw)

    def b_sq(self) -> Fraction:
        (_, db), _, (bb, _, _) = self.cleared
        return Fraction(bb, db * db)

    def b_dot_omega(self) -> Fraction:
        (_, db), (_, dw), (_, _, bw) = self.cleared
        return Fraction(bw, db * dw)


class PeriodVector(Record):
    """Omega = re + i*im over the transcendental lattice T."""

    lattice: Sublattice
    re: Vector
    im: Vector

    def __post_init__(self):
        object.__setattr__(self, "re", _check_coords(self.lattice.rank, self.re, "re"))
        object.__setattr__(self, "im", _check_coords(self.lattice.rank, self.im, "im"))

    @cached_property
    def cleared(self):
        """((nr, dr), (ni, di), (rr, ii, ri)) of `_cleared_forms` on re, im."""
        return _cleared_forms(self.lattice.gram(), self.re, self.im)

    def omega_dot_omega(self) -> tuple[Fraction, Fraction]:
        """Omega.Omega as (real, imaginary) parts."""
        (_, dr), (_, di), (rr, ii, ri) = self.cleared
        return Fraction(rr * di * di - ii * dr * dr, (dr * di) ** 2), Fraction(2 * ri, dr * di)

    def omega_dot_conjugate(self) -> Fraction:
        (_, dr), (_, di), (rr, ii, _) = self.cleared
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
    (nr, _), (ni, _), _ = om.cleared
    if not any(nr) and not any(ni):
        raise K3BVError("the zero vector is not a period")
    kernel = mo.integer_kernel(tuple(mo.mat_vec(om.lattice.gram(), n) for n in (nr, ni)))
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
        return point.cleared[2][2] == 0
    if isinstance(point, PeriodVector):
        a, b = split.split_coordinates(point.cleared[1][0])[:2]
        return a == b == 0
    raise K3BVError(f"expected TubePoint or PeriodVector, got {type(point).__name__}")
