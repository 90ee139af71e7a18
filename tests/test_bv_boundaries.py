"""The Borcea-Voisin entry points refuse a value of the wrong kind with a
K3BVError: the (N, N') formulas take only a BVData, a census only a
sequence of FiberRecords, the elliptic factor only a pair (B2, omega2), a
tensor period only (key, QC coefficient) pairs with keys on
{E, E', m_0 .. m_{r-1}} x {s_x, s_y} and r an exact int >= 1, and the
tube point, period and admissible-pair records only a Sublattice, a
sublattice and an involution only an IntegerLattice, and a mirror split
only an AdmissiblePair."""

import pytest

from k3bv import (AdmissiblePair, BVData, FiberCensus, FiberRecord, K3BVError,
                  KodairaType, LatticeInvolution, MirrorSplit, QC, PeriodVector,
                  SelfMirrorLocus, Sublattice, TensorPeriod, TubePoint, bv_mirror_period,
                  construct_mirror, euler_characteristic, hodge_numbers, hyperbolic_plane,
                  mirror_swap)

P1 = TubePoint(Sublattice.full(hyperbolic_plane(1)), (0, 0), (1, 1))
NON_FIXED = (FiberRecord(KodairaType.I1, False),) * 24  # a valid census for (1, 1)
ANCHOR = ((("E'", "s_x"), QC(1, 0)),)

CASES = {
    "hodge_numbers tuple": lambda: hodge_numbers((1, 1)),
    "hodge_numbers None": lambda: hodge_numbers(None),
    "euler_characteristic tuple": lambda: euler_characteristic((1, 1)),
    "euler_characteristic None": lambda: euler_characteristic(None),
    "mirror_swap tuple": lambda: mirror_swap((1, 2)),
    "mirror_swap None": lambda: mirror_swap(None),
    "FiberCensus non-record": lambda: FiberCensus((5,), BVData(1, 1)),
    "FiberCensus non-sequence records": lambda: FiberCensus(5, BVData(1, 1)),
    "FiberCensus self-mirror locus": lambda: FiberCensus(NON_FIXED, SelfMirrorLocus.EMPTY),
    "FiberCensus tuple bv": lambda: FiberCensus(NON_FIXED, (1, 1)),
    "bv_mirror_period one-element p2": lambda: bv_mirror_period(P1, (0,)),
    "bv_mirror_period scalar p2": lambda: bv_mirror_period(P1, 5),
    "TensorPeriod label past rank": lambda: TensorPeriod(ANCHOR + ((("m2", "s_x"), QC(1, 0)),), 2),
    "TensorPeriod float rank": lambda: TensorPeriod(ANCHOR, 2.0),
    "TensorPeriod bool rank": lambda: TensorPeriod(ANCHOR, True),
    "TensorPeriod non-pair component": lambda: TensorPeriod((5,), 2),
    "TensorPeriod int coefficient": lambda: TensorPeriod(((("E'", "s_x"), 5),), 1),
    "TensorPeriod str coefficient": lambda: TensorPeriod(((("E'", "s_x"), "1"),), 1),
    "Sublattice int ambient": lambda: Sublattice(5, ((1, 0),)),
    "Sublattice.full int": lambda: Sublattice.full(5),
    "LatticeInvolution Sublattice lattice": lambda: LatticeInvolution(
        Sublattice.full(hyperbolic_plane(1)), ((0, 1), (1, 0))),
    "TubePoint int lattice": lambda: TubePoint(5, (1,), (1,)),
    "PeriodVector None lattice": lambda: PeriodVector(None, (1,), (1,)),
    "AdmissiblePair IntegerLattice t": lambda: AdmissiblePair(
        hyperbolic_plane(1), (1, 0), (0, 1), 1),
    "MirrorSplit str pair": lambda: MirrorSplit("x"),
    "construct_mirror str pair": lambda: construct_mirror("x"),
}


@pytest.mark.parametrize("name", CASES)
def test_wrong_kind_is_a_domain_error(name):
    with pytest.raises(K3BVError):
        CASES[name]()
