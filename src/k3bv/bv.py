"""Borcea-Voisin Hodge numbers, Euler characteristic, and the mirror swap.

The formulas apply to involutions whose fixed locus is N curves with
exactly one of genus N' and the rest rational. The empty and
two-elliptic-curve fixed loci are self-mirror and carried by a separate
marker type; the numeric operations reject them.
"""

from __future__ import annotations

from enum import Enum

from .errors import K3BVError
from .record import Record

__all__ = ["BVData", "HodgePair", "SelfMirrorLocus", "hodge_numbers",
           "euler_characteristic", "mirror_swap"]


class BVData(Record):
    """N fixed curves, one of genus N' and the others rational."""

    n: int
    n_prime: int

    def __post_init__(self):
        if self.n < 1:
            raise K3BVError(f"N must be >= 1, got {self.n}")
        if self.n_prime < 0:
            raise K3BVError(f"N' must be >= 0, got {self.n_prime}")


class SelfMirrorLocus(Enum):
    """Fixed loci outside the (N, N') family; both are self-mirror."""

    EMPTY = "empty"
    TWO_ELLIPTIC_CURVES = "two_elliptic_curves"


class HodgePair(Record):
    h11: int
    h21: int


def hodge_numbers(d: BVData) -> HodgePair:
    """h^{1,1} = 11 + 5N - N', h^{2,1} = 11 + 5N' - N."""
    if isinstance(d, SelfMirrorLocus):
        raise K3BVError("Hodge formulas do not apply to self-mirror fixed loci")
    h11 = 11 + 5 * d.n - d.n_prime
    h21 = 11 + 5 * d.n_prime - d.n
    if h11 <= 0 or h21 <= 0:
        raise K3BVError(f"(N, N') = ({d.n}, {d.n_prime}) gives a nonpositive Hodge number")
    return HodgePair(h11, h21)


def euler_characteristic(d: BVData) -> int:
    """e(X) = 12(N - N') = 2(h11 - h21)."""
    if isinstance(d, SelfMirrorLocus):
        raise K3BVError("Euler formula does not apply to self-mirror fixed loci")
    return 12 * (d.n - d.n_prime)


def mirror_swap(d: BVData) -> BVData:
    """Interchange N and N'; no mirror family exists when N' = 0."""
    if d.n_prime == 0:
        raise K3BVError("N' = 0: the family has no mirror")
    return BVData(d.n_prime, d.n)
