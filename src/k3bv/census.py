"""Singular-fiber census on the three-sphere base.

A census is an abstract multiset of fiber records together with (N, N').
Only counts enter the Euler computation: fixed nodal fibers contribute
-6 (figure eight) or +6 (circle plus point); everything else is 0.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction

from . import matrixops as mo
from .bv import BVData, check_bv_data, euler_characteristic, mirror_swap
from .errors import CensusError, K3BVError
from .involution import RealFiberType, real_fiber_dual
from .record import Record

__all__ = ["KodairaType", "FiberRecord", "FiberCensus", "BasePoint", "census_slack",
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


_KIND = ("kodaira", "fixed", "real_type")
_CP = (KodairaType.I1, True, RealFiberType.CIRCLE_POINT)
_F8 = (KodairaType.I1, True, RealFiberType.FIGURE_EIGHT)


class FiberCensus(Record):
    """Fiber records and (N, N'), with a tally of the records by kind
    (kodaira, fixed, real_type): at most five kinds, built once. Building
    checks every invariant: #I1 + 2*#II = 24; 2(N-1)+k fixed circle-point
    and 2(N'-1)+k fixed figure-eight fibers for one common k >= 0;
    non-fixed records in conjugate pairs (even count)."""

    records: tuple[FiberRecord, ...]
    bv: BVData

    def __post_init__(self):
        check_bv_data(self.bv)
        if not isinstance(self.records, (tuple, list)) or not all(
                isinstance(r, FiberRecord) for r in self.records):
            raise CensusError("census records must be a sequence of FiberRecords")
        object.__setattr__(self, "records", tuple(self.records))
        t = Counter((r.kodaira, r.fixed, r.real_type) for r in self.records)
        object.__setattr__(self, "_tally", t)
        i1, ii = KodairaType.I1, KodairaType.II
        cp, f8 = t[_CP], t[_F8]
        free_i1, free_ii = t[i1, False, None], t[ii, False, None]
        euler = cp + f8 + free_i1 + 2 * (t[ii, True, RealFiberType.SINGULAR_CIRCLE] + free_ii)
        if euler != 24:
            raise CensusError(f"Euler count violated: #I1 + 2#II = {euler} != 24")
        k_cp = cp - 2 * (self.bv.n - 1)
        k_f8 = f8 - 2 * (self.bv.n_prime - 1)
        if k_cp != k_f8:
            raise CensusError(
                f"extra fixed fibers unbalanced: circle-point slack {k_cp}, "
                f"figure-eight slack {k_f8} (the two types must occur in equal numbers)")
        if k_cp < 0:
            raise CensusError(
                f"too few fixed fibers: need at least 2(N-1) = {2 * (self.bv.n - 1)} "
                f"circle-point and 2(N'-1) = {2 * (self.bv.n_prime - 1)} figure-eight fibers")
        non_fixed = free_i1 + free_ii
        if non_fixed % 2 != 0:
            raise CensusError(
                f"{non_fixed} non-fixed fibers: fibers over non-real base points "
                "come in conjugate pairs")

    def count(self, **filters) -> int:
        """Number of records whose fields equal the given values."""
        return sum(n for kind, n in self._tally.items()
                   if all(dict(zip(_KIND, kind))[k] == v for k, v in filters.items()))


def census_slack(c: FiberCensus) -> int:
    """The common k with circle-point count 2(N-1)+k."""
    return c._tally[_CP] - 2 * (c.bv.n - 1)


def total_euler(c: FiberCensus) -> int:
    """6 (#circle-point - #figure-eight) off the tally, certified against 12(N - N')."""
    total = 6 * (c._tally[_CP] - c._tally[_F8])
    expected = euler_characteristic(c.bv)
    if total != expected:
        raise CensusError(
            f"census sums to {total} but 12(N - N') = {expected}: inconsistent census")
    return total


def dualize_census(c: FiberCensus) -> FiberCensus:
    """Swap figure eights with circles plus points and (N, N')."""
    dual = {t: FiberRecord(KodairaType.I1, True, real_fiber_dual(t))
            for t in (RealFiberType.FIGURE_EIGHT, RealFiberType.CIRCLE_POINT)}
    new_records = tuple(dual[r.real_type] if r.fixed and r.kodaira is KodairaType.I1 else r
                        for r in c.records)
    return FiberCensus(new_records, mirror_swap(c.bv))


class BasePoint(Record):
    """Exact rational point of S^2 x S^1."""

    x: Fraction
    y: Fraction
    z: Fraction
    u: Fraction
    v: Fraction

    def __post_init__(self):
        mo.check_rationals("base point coordinates", self._values())
        if self.x * self.x + self.y * self.y + self.z * self.z != 1:
            raise K3BVError("(x, y, z) is not on the unit two-sphere")
        if self.u * self.u + self.v * self.v != 1:
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
