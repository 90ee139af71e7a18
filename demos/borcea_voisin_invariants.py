"""Walkthrough: Borcea-Voisin Hodge numbers and the fiber census.

The threefold X is built from a K3 surface with an anti-symplectic
involution whose fixed locus is N curves, one of genus N'. Its Hodge
numbers follow closed formulas, and its Euler characteristic can be
re-derived by counting singular elliptic fibers on the quotient base,
split into fixed and non-fixed ones.
"""

from k3bv import (BVData, FiberCensus, FiberRecord, KodairaType,
                  RealFiberType, dualize_census, euler_characteristic,
                  hodge_numbers, mirror_swap, total_euler)

print("Hodge numbers h11 / h21 on a small (N, N') grid:")
for n in range(1, 6):
    row = []
    for np_ in range(1, 6):
        h = hodge_numbers(BVData(n, np_))
        row.append(f"{h.h11:3d}/{h.h21:3d}")
    print("  " + "  ".join(row))

d = BVData(3, 4)
h = hodge_numbers(d)
e = euler_characteristic(d)
print(f"\n(N, N') = (3, 4): h11 = {h.h11}, h21 = {h.h21}, e = {e}")
s = mirror_swap(d)
hs = hodge_numbers(s)
print(f"mirror (N, N') = ({s.n}, {s.n_prime}): h11 = {hs.h11}, h21 = {hs.h21}, "
      f"e = {euler_characteristic(s)}")

# The same Euler characteristic from fiber bookkeeping: 24 nodal fibers
# in total (counting a type II fiber twice), the fixed ones split into
# 2(N-1) circle-plus-point fibers at +6 and 2(N'-1) figure eights at -6.
I1 = KodairaType.I1
records = (
    [FiberRecord(I1, True, RealFiberType.CIRCLE_POINT)] * 4
    + [FiberRecord(I1, True, RealFiberType.FIGURE_EIGHT)] * 6
    + [FiberRecord(I1, False)] * 14
)
census = FiberCensus(tuple(records), d)
print(f"\ncensus: {census.count(fixed=True)} fixed + "
      f"{census.count(fixed=False)} non-fixed fibers")
print(f"total from contributions: {total_euler(census)} "
      f"(formula says {12 * (d.n - d.n_prime)})")

dual = dualize_census(census)
print(f"dualized census total: {total_euler(dual)}")
print(f"dualizing twice returns the census: {dualize_census(dual) == census}")
