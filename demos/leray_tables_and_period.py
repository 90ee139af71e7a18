"""Walkthrough: spectral tables, degeneration checks, and the
Borcea-Voisin mirror period in the tensor basis."""

from fractions import Fraction

from k3bv import (Sublattice, TubePoint, bv_mirror_period, bv_table,
                  check_degeneration, elliptic_table, filtration_dims,
                  hyperbolic_plane, k3_table, recover_period_inputs,
                  swap_rows, y_betti)


def show(table, rows, cols):
    d = table.as_dict()
    for q in range(rows - 1, -1, -1):
        cells = []
        for p in range(cols):
            dim, label = d.get((p, q), (0, ""))
            cells.append(f"{dim}" + (f" [{label}]" if label else ""))
        print("   " + " | ".join(cells))


print("K3 fibration table (degenerates, sums = Betti numbers of a K3):")
show(k3_table(), 3, 3)
print(f"   antidiagonal sums: {k3_table().antidiagonal_sums()}")

print("\nelliptic curve table; dualizing the fibration swaps the rows:")
show(elliptic_table(), 2, 2)
show(swap_rows(elliptic_table()), 2, 2)

r = 2
print(f"\nthreefold table for rank(M) = {r}:")
show(bv_table(r), 4, 4)
betti = y_betti(r)
print(f"   degenerates against Betti numbers {betti}: "
      f"{check_degeneration(bv_table(r), betti)}")
f = filtration_dims(bv_table(r), 3)
print(f"   degree-3 filtration dims {f.dims}, quotients {f.quotients()}")

# The mirror period of the threefold, expanded over {E, E', m_i} x {s_x, s_y}.
m = Sublattice.full(hyperbolic_plane(1))
p1 = TubePoint(m, (Fraction(1, 2), 0), (1, 1))
tau_data = (Fraction(1, 3), 2)
period = bv_mirror_period(p1, tau_data)

print("\nmirror period components (complex rationals):")
for (label, factor), c in period.components:
    print(f"   {label:3s} (x) {factor}: {c.re} + {c.im} i")

b1, w1, (b2, w2) = recover_period_inputs(period)
print(f"\nrecovered B1 = {b1}, omega1 = {w1}, tau = {b2} + {w2} i")
print(f"matches the input: {(b1, w1, (b2, w2)) == (p1.b, p1.omega, tau_data)}")
