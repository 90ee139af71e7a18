"""The I/J/K rotation table of cohomology classes and phase rotation.

I, J, K are labels on triples of classes, nothing more; the quaternionic
endomorphisms themselves have no lattice home. Phases are rational
points on the unit circle (Pythagorean pairs), keeping everything exact.
"""

from __future__ import annotations

from fractions import Fraction

from . import matrixops as mo
from .errors import K3BVError, NormalizationError
from .lattice import IntegerLattice
from .matrixops import Vector
from .record import Record

__all__ = ["RotationRow", "RotationTable", "UnitPhase", "rotation_table", "phase_rotate"]


class RotationRow(Record):
    """Holomorphic 2-form (as a re/im pair of classes) and Kahler form."""

    holo_re: Vector
    holo_im: Vector
    kahler: Vector


class RotationTable(Record):
    i: RotationRow
    j: RotationRow
    k: RotationRow


class UnitPhase(Record):
    """cos + i*sin with c^2 + s^2 = 1 exactly."""

    c: Fraction
    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "s", Fraction(self.s))
        if self.c * self.c + self.s * self.s != 1:
            raise K3BVError(f"({self.c})^2 + ({self.s})^2 != 1: not a unit phase")

    def compose(self, other: "UnitPhase") -> "UnitPhase":
        return UnitPhase(self.c * other.c - self.s * other.s,
                         self.s * other.c + self.c * other.s)


def _q(gram, v, w) -> Fraction:
    return mo.dot(v, mo.mat_vec(gram, w))


def rotation_table(omega_re: Vector, omega_im: Vector, kahler: Vector,
                   lattice: IntegerLattice) -> RotationTable:
    """Rows I, J, K of holomorphic 2-forms and Kahler forms.

    Requires the exact normalization (Re Omega)^2 = (Im Omega)^2 =
    omega^2 > 0 with all three classes pairwise orthogonal; the failing
    equality is named in the error.
    """
    g = lattice.gram
    re = tuple(Fraction(x) for x in lattice.check_vector(omega_re))
    im = tuple(Fraction(x) for x in lattice.check_vector(omega_im))
    w = tuple(Fraction(x) for x in lattice.check_vector(kahler))
    re2, im2, w2 = _q(g, re, re), _q(g, im, im), _q(g, w, w)
    if re2 != im2:
        raise NormalizationError(f"(ReOmega)^2 = {re2} != (ImOmega)^2 = {im2}")
    if re2 != w2:
        raise NormalizationError(f"(ReOmega)^2 = {re2} != omega^2 = {w2}")
    if w2 <= 0:
        raise NormalizationError(f"omega^2 = {w2} is not positive")
    for name, (a, b) in {"ReOmega.ImOmega": (re, im), "ReOmega.omega": (re, w),
                         "ImOmega.omega": (im, w)}.items():
        val = _q(g, a, b)
        if val != 0:
            raise NormalizationError(f"{name} = {val} != 0")
    return RotationTable(
        i=RotationRow(re, im, w),
        j=RotationRow(w, re, im),
        k=RotationRow(im, w, re),
    )


def phase_rotate(omega_re: Vector, omega_im: Vector, theta: UnitPhase) -> tuple[Vector, Vector]:
    """Multiply Omega by the phase c + i*s: an exact rational rotation."""
    if len(omega_re) != len(omega_im):
        raise K3BVError("re and im parts have different lengths")
    re = tuple(Fraction(x) for x in omega_re)
    im = tuple(Fraction(x) for x in omega_im)
    new_re = tuple(theta.c * r - theta.s * i for r, i in zip(re, im))
    new_im = tuple(theta.s * r + theta.c * i for r, i in zip(re, im))
    return new_re, new_im
