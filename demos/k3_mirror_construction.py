"""Walkthrough: from the K3 lattice to a mirror family and back.

Picks the rank-2 polarizing lattice M = U inside L, builds the
transcendental lattice T, finds an admissible pair, constructs the
mirror lattice M-check, pushes a complexified Kahler class through the
mirror map, and finally mirrors a second time to recover M.
"""

from k3bv import (Sublattice, TubePoint, check_admissible, construct_mirror,
                  coordinates_in, det_and_signature, k3_lattice,
                  orthogonal_complement, phi, phi_inverse, same_sublattice)

L = k3_lattice()
det, sig = det_and_signature(L)
print(f"K3 lattice: rank {L.rank}, even = {L.is_even()}, det = {det}, "
      f"signature = {sig[:2]}")

# Polarize by the first hyperbolic summand.
M = Sublattice(L, ((1,) + (0,) * 21, (0, 1) + (0,) * 20))
T = orthogonal_complement(M)
print(f"\nM = first U, T = M-perp: rank {T.rank}, "
      f"|det T| = {abs(det_and_signature(T.induced_lattice())[0])}")

# The admissible pair lives in the second hyperbolic summand.
e = coordinates_in(T, tuple(1 if i == 2 else 0 for i in range(22)))
ep = coordinates_in(T, tuple(1 if i == 3 else 0 for i in range(22)))
pair = check_admissible(T, e, ep, 1)
split = construct_mirror(pair)
mc_det, mc_sig = det_and_signature(split.m_check.induced_lattice())
print(f"mirror lattice M-check: rank {split.m_check.rank}, det = {mc_det}, "
      f"signature = {mc_sig[:2]}")

# A complexified Kahler class over M-check and its period.
omega = coordinates_in(split.m_check,
                       coordinates_in(T, tuple(1 if i in (4, 5) else 0
                                               for i in range(22))))
p = TubePoint(split.m_check, (0,) * 18, omega)
Om = phi(split, p)
print(f"\nphi(B + i omega) with omega^2 = {p.omega_sq()}:")
re_part, im_part = Om.omega_dot_omega()
print(f"  Omega.Omega       = {re_part} + {im_part} i")
print(f"  Omega.conj(Omega) = {Om.omega_dot_conjugate()}")
back = phi_inverse(split, Om)
print(f"  round trip exact: {back.b == p.b and back.omega == p.omega}")

# Mirror once more: the complement of M-check carries the same pair,
# and the construction lands back on M.
mc_in_l = T.compose(split.m_check)
T2 = orthogonal_complement(mc_in_l)
e2 = coordinates_in(T2, tuple(1 if i == 2 else 0 for i in range(22)))
f2 = coordinates_in(T2, tuple(1 if i == 3 else 0 for i in range(22)))
split2 = construct_mirror(check_admissible(T2, e2, f2, 1))
recovered = T2.compose(split2.m_check)
print(f"\ndouble mirror recovers M: {same_sublattice(recovered, M)}")
