"""The I/J/K rotation table of cohomology classes.

I, J, K are labels on triples of classes, nothing more; the quaternionic
endomorphisms themselves have no lattice home. Omega's phase freedom
needs no code: phi_inverse divides Omega by Omega.E, so multiplying
Omega by a phase does not change its output.
"""

from __future__ import annotations

from .errors import NormalizationError
from .lattice import IntegerLattice, pairing
from .matrixops import Vector
from .record import Record

__all__ = ["RotationRow", "RotationTable", "rotation_table"]


class RotationRow(Record):
    """Holomorphic 2-form (as a re/im pair of classes) and Kahler form."""

    holo_re: Vector
    holo_im: Vector
    kahler: Vector


class RotationTable(Record):
    i: RotationRow
    j: RotationRow
    k: RotationRow


def rotation_table(omega_re: Vector, omega_im: Vector, kahler: Vector,
                   lattice: IntegerLattice) -> RotationTable:
    """Rows I, J, K of holomorphic 2-forms and Kahler forms.

    Requires the exact normalization (Re Omega)^2 = (Im Omega)^2 =
    omega^2 > 0 with all three classes pairwise orthogonal; the failing
    equality is named in the error.
    """
    re, im, w = map(lattice.check_vector, (omega_re, omega_im, kahler))
    re2, im2, w2 = (pairing(lattice, x, x) for x in (re, im, w))
    if re2 != im2:
        raise NormalizationError(f"(ReOmega)^2 = {re2} != (ImOmega)^2 = {im2}")
    if re2 != w2:
        raise NormalizationError(f"(ReOmega)^2 = {re2} != omega^2 = {w2}")
    if w2 <= 0:
        raise NormalizationError(f"omega^2 = {w2} is not positive")
    for name, (a, b) in {"ReOmega.ImOmega": (re, im), "ReOmega.omega": (re, w),
                         "ImOmega.omega": (im, w)}.items():
        val = pairing(lattice, a, b)
        if val != 0:
            raise NormalizationError(f"{name} = {val} != 0")
    return RotationTable(
        i=RotationRow(re, im, w),
        j=RotationRow(w, re, im),
        k=RotationRow(im, w, re),
    )
