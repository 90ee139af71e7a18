"""The explicit K3 mirror map and its inverse.

phi sends a complexified Kahler class B + i*omega over M-check to a
period over T:

    re = B + E'/m + ((omega.omega - B.B)/2) E
    im = omega - (omega.B) E

For m > 1 the output has rational coordinates (the E'/m term); the
bilinear form extends rationally without change. Both directions work on
integer numerators and build their output as numerators over one
denominator, with no Fraction per coordinate.
"""

from __future__ import annotations

from . import matrixops as mo
from .domains import PeriodVector, TubePoint, in_period_domain
from .errors import K3BVError, NormalizationError
from .mirror import MirrorSplit

__all__ = ["phi", "phi_inverse"]


def phi(split: MirrorSplit, p: TubePoint) -> PeriodVector:
    """Mirror map: tube point over M-check to period vector over T."""
    if p.lattice != split.m_check:
        raise K3BVError("tube point must live over the M-check of the split")
    # B = nb / db, omega = nw / dw, and bb, ww, bw the integer forms.
    (nb, db), (nw, dw) = p.cleared
    bb, ww, bw = p.forms
    if ww <= 0:
        raise K3BVError("point is not in the tube domain: omega.omega <= 0")
    m = split.m
    e, ep = split.pair.e, split.pair.e_prime
    b_t, w_t = mo.mat_vec_pair(split._m_check_columns, nb, nw)
    # re = b_t / db + E' / m + ((ww / dw^2 - bb / db^2) / 2) E over the
    # common denominator 2 m db^2 dw^2, and im = w_t / dw - (B.omega) E =
    # (db w_t - bw E) / (db dw); _from_cleared divides out each gcd.
    cb, cep, ce = 2 * m * db * dw * dw, 2 * (db * dw) ** 2, m * (ww * db * db - bb * dw * dw)
    re = [cb * x + cep * y + ce * z for x, y, z in zip(b_t, ep, e)]
    im = [db * x - bw * z for x, z in zip(w_t, e)]
    return PeriodVector._from_cleared(split.t, (re, m * cep), (im, db * dw))


def phi_inverse(split: MirrorSplit, om: PeriodVector) -> TubePoint:
    """Inverse mirror map: rescale so Omega.E = 1, project onto M-check.

    Raises when Omega.E = 0, which certifies Omega is not in the period
    domain of M-polarized surfaces.
    """
    if om.lattice != split.t:
        raise K3BVError("period vector must live over the T of the split")
    # re = nr / dr and im = ni / di, so Omega = (x + i y) / (dr di) in the
    # basis (E, E', M-check) of T, with x the coordinates of di nr and y
    # those of dr ni; the factor dr di cancels in the normalization below.
    (nr, dr), (ni, di) = om.cleared
    cr, ci = mo.mat_vec_pair(split._inverse_columns, nr, ni)
    x, y = tuple(di * c for c in cr), tuple(dr * c for c in ci)
    # E.E = 0, E'.E = m and M-check is orthogonal to E, so
    # Omega.E = m (a + i b) / (dr di) with a + i b the E' coordinate.
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
    return TubePoint._from_cleared(split.m_check,
                                   ([xk * a + yk * b for xk, yk in pairs], den),
                                   ([yk * a - xk * b for xk, yk in pairs], den))
