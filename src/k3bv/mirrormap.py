"""The explicit K3 mirror map, its inverse, and the elliptic-curve case.

phi sends a complexified Kahler class B + i*omega over M-check to a
period over T:

    re = B + E'/m + ((omega.omega - B.B)/2) E
    im = omega - (omega.B) E

For m > 1 the output has rational coordinates (the E'/m term); the
bilinear form extends rationally without change.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import matrixops as mo
from .cnum import QC
from .domains import PeriodVector, TubePoint, clear_denominators, in_period_domain
from .errors import K3BVError, NormalizationError
from .matrixops import Vector
from .mirror import MirrorSplit
from .record import Record

__all__ = ["EllipticPeriod", "phi", "phi_inverse", "elliptic_phi"]


class EllipticPeriod(Record):
    """Normalized elliptic period s_x + tau * s_y with tau = B + i*omega."""

    sx_coeff: Fraction
    sy_coeff: QC

    def __post_init__(self):
        if self.sy_coeff.im <= 0:
            raise K3BVError("tau must lie in the upper half plane")

    @property
    def tau(self) -> QC:
        return self.sy_coeff


def phi(split: MirrorSplit, p: TubePoint) -> PeriodVector:
    """Mirror map: tube point over M-check to period vector over T."""
    if p.lattice != split.m_check:
        raise K3BVError("tube point must live over the M-check of the split")
    w_sq = p.omega_sq()
    if w_sq <= 0:
        raise K3BVError("point is not in the tube domain: omega.omega <= 0")
    m = split.m
    e, ep = split.pair.e, split.pair.e_prime
    # Coordinates of B and omega inside T, over int: B = nb / db.
    nb, db = clear_denominators(p.b)
    nw, dw = clear_denominators(p.omega)
    b_t = mo.vec_mat(nb, split.m_check.basis)
    w_t = mo.vec_mat(nw, split.m_check.basis)
    b_sq = p.b_sq()
    wb = p.b_dot_omega()
    # re = b_t / db + E' / m + q E and im = w_t / dw - wb E, each over
    # one common denominator d.
    q = (w_sq - b_sq) / 2
    d = lcm(db, m, q.denominator)
    cb, cep, ce = d // db, d // m, q.numerator * (d // q.denominator)
    re = tuple(Fraction(cb * x + cep * y + ce * z, d) for x, y, z in zip(b_t, ep, e))
    d = lcm(dw, wb.denominator)
    cw, ce = d // dw, wb.numerator * (d // wb.denominator)
    im = tuple(Fraction(cw * x - ce * z, d) for x, z in zip(w_t, e))
    return PeriodVector(split.t, re, im)


def phi_inverse(split: MirrorSplit, om: PeriodVector) -> TubePoint:
    """Inverse mirror map: rescale so Omega.E = 1, project onto M-check.

    Raises when Omega.E = 0, which certifies Omega is not in the period
    domain of M-polarized surfaces.
    """
    if om.lattice != split.t:
        raise K3BVError("period vector must live over the T of the split")
    # Omega = (x + i y) / d in the basis (E, E', M-check) of T; the common
    # denominator d cancels in the normalization below.
    num, _ = clear_denominators(om.re + om.im)
    rank = split.t.rank
    x = split.split_coordinates(num[:rank])
    y = split.split_coordinates(num[rank:])
    # E.E = 0, E'.E = m and M-check is orthogonal to E, so
    # Omega.E = m (a + i b) / d with a + i b the E' coordinate.
    a, b = x[1], y[1]
    if a == 0 and b == 0:
        raise NormalizationError(
            "Omega.E = 0: the period cannot be normalized, Omega is not in D_M")
    if not in_period_domain(om):
        raise K3BVError("vector does not satisfy the period-domain conditions")
    # Omega / (Omega.E) = (x + i y)(a - i b) / (m (a^2 + b^2)); keep the
    # M-check coordinates.
    den = split.m * (a * a + b * b)
    pairs = tuple(zip(x[2:], y[2:]))
    return TubePoint(split.m_check,
                     tuple(Fraction(xk * a + yk * b, den) for xk, yk in pairs),
                     tuple(Fraction(yk * a - xk * b, den) for xk, yk in pairs))


def elliptic_phi(b, omega) -> EllipticPeriod:
    """Elliptic-curve mirror map: (B, omega) -> s_x + (B + i*omega) s_y."""
    b = Fraction(b)
    omega = Fraction(omega)
    if omega <= 0:
        raise K3BVError(f"omega must be positive, got {omega}")
    return EllipticPeriod(Fraction(1), QC(b, omega))
