"""Singular-fiber census on the three-sphere base.

A census is an abstract multiset of fiber records together with (N, N').
Only counts enter the Euler computation: fixed nodal fibers contribute
-6 (figure eight) or +6 (circle plus point); everything else is 0.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .bv import BVData, mirror_swap
from .errors import CensusError, K3BVError
from .involution import RealFiberType, real_fiber_dual
from .record import Record

__all__ = ["KodairaType", "FiberRecord", "FiberCensus", "BasePoint",
           "validate_census", "census_slack", "fiber_contribution",
           "total_euler", "dualize_census", "base_embed"]


class KodairaType(Enum):
    I1 = "I1"
    II = "II"


class FiberRecord(Record):
    """One singular fiber of the elliptic fibration underneath the census."""

    kodaira: KodairaType
    fixed: bool
    real_type: RealFiberType | None = None

    def __post_init__(self):
        if not self.fixed:
            if self.real_type is not None:
                raise CensusError("non-fixed fibers carry no real type")
            return
        if self.kodaira is KodairaType.I1:
            if self.real_type not in (RealFiberType.FIGURE_EIGHT, RealFiberType.CIRCLE_POINT):
                raise CensusError(
                    "a fixed I1 fiber is a figure eight or a circle plus a point")
        else:
            if self.real_type is not RealFiberType.SINGULAR_CIRCLE:
                raise CensusError("a fixed II fiber has a singular circle as real part")


class FiberCensus(Record):
    records: tuple[FiberRecord, ...]
    bv: BVData

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def count(self, **filters) -> int:
        out = 0
        for r in self.records:
            if all(getattr(r, k) == v for k, v in filters.items()):
                out += 1
        return out


def validate_census(c: FiberCensus) -> FiberCensus:
    """Check every census invariant; the derived slack k is recomputed.

    Invariants: #I1 + 2*#II = 24; fixed circle-point count 2(N-1)+k and
    fixed figure-eight count 2(N'-1)+k for one common k >= 0; non-fixed
    records come in conjugate pairs (even count).
    """
    n_i1 = c.count(kodaira=KodairaType.I1)
    n_ii = c.count(kodaira=KodairaType.II)
    if n_i1 + 2 * n_ii != 24:
        raise CensusError(f"Euler count violated: #I1 + 2#II = {n_i1 + 2 * n_ii} != 24")
    cp = c.count(kodaira=KodairaType.I1, fixed=True, real_type=RealFiberType.CIRCLE_POINT)
    f8 = c.count(kodaira=KodairaType.I1, fixed=True, real_type=RealFiberType.FIGURE_EIGHT)
    k_cp = cp - 2 * (c.bv.n - 1)
    k_f8 = f8 - 2 * (c.bv.n_prime - 1)
    if k_cp != k_f8:
        raise CensusError(
            f"extra fixed fibers unbalanced: circle-point slack {k_cp}, "
            f"figure-eight slack {k_f8} (the two types must occur in equal numbers)")
    if k_cp < 0:
        raise CensusError(
            f"too few fixed fibers: need at least 2(N-1) = {2 * (c.bv.n - 1)} "
            f"circle-point and 2(N'-1) = {2 * (c.bv.n_prime - 1)} figure-eight fibers")
    non_fixed = c.count(fixed=False)
    if non_fixed % 2 != 0:
        raise CensusError(
            f"{non_fixed} non-fixed fibers: fibers over non-real base points "
            "come in conjugate pairs")
    return c


def census_slack(c: FiberCensus) -> int:
    """The common k with circle-point count 2(N-1)+k; census must be valid."""
    validate_census(c)
    cp = c.count(kodaira=KodairaType.I1, fixed=True, real_type=RealFiberType.CIRCLE_POINT)
    return cp - 2 * (c.bv.n - 1)


def fiber_contribution(r: FiberRecord) -> int:
    """Euler contribution: fixed nodal fibers give -6 or +6, all else 0."""
    if r.kodaira is KodairaType.I1 and r.fixed:
        return -6 if r.real_type is RealFiberType.FIGURE_EIGHT else 6
    return 0


def total_euler(c: FiberCensus) -> int:
    """Sum of contributions; certified against 12(N - N')."""
    validate_census(c)
    total = sum(fiber_contribution(r) for r in c.records)
    expected = 12 * (c.bv.n - c.bv.n_prime)
    if total != expected:
        raise CensusError(
            f"census sums to {total} but 12(N - N') = {expected}: inconsistent census")
    return total


def dualize_census(c: FiberCensus) -> FiberCensus:
    """Swap figure eights with circles plus points and (N, N')."""
    validate_census(c)
    new_records = tuple(
        FiberRecord(r.kodaira, r.fixed, real_fiber_dual(r.real_type))
        if r.fixed and r.kodaira is KodairaType.I1 else r
        for r in c.records)
    dual = FiberCensus(new_records, mirror_swap(c.bv))
    return validate_census(dual)


class BasePoint(Record):
    """Exact rational point of S^2 x S^1."""

    x: Fraction
    y: Fraction
    z: Fraction
    u: Fraction
    v: Fraction

    def __post_init__(self):
        for name in ("x", "y", "z", "u", "v"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.x ** 2 + self.y ** 2 + self.z ** 2 != 1:
            raise K3BVError("(x, y, z) is not on the unit two-sphere")
        if self.u ** 2 + self.v ** 2 != 1:
            raise K3BVError("(u, v) is not on the unit circle")

    def involution_image(self) -> "BasePoint":
        """(z, v) -> (-z, -v), the deck transformation of the base quotient."""
        return BasePoint(self.x, self.y, -self.z, self.u, -self.v)


def base_embed(p: BasePoint) -> tuple[Fraction, ...]:
    """Invariant-polynomial model of the quotient base inside R^6.

    Returns (X, Y, Z, U, V, W) = (x, y, z^2, u, v^2, z v); the image
    satisfies X^2 + Y^2 + Z = 1, U^2 + V = 1 and W^2 = Z V with Z, V >= 0.
    """
    return (p.x, p.y, p.z ** 2, p.u, p.v ** 2, p.z * p.v)
