"""Admissible pairs and the mirror-lattice construction."""

import random
from itertools import product

import pytest

from k3bv import (AdmissibilityError, IntegerLattice, Sublattice,
                  check_admissible, construct_mirror, det_and_signature,
                  direct_sum, e8_minus, find_isotropic, hyperbolic_plane,
                  pairing, same_sublattice)
from k3bv import matrixops as mo


class TestFindIsotropic:
    def test_uu_contains_basis_vectors(self, UU):
        found = find_isotropic(Sublattice.full(UU), height=1)
        assert (1, 0, 0, 0) in found
        assert (0, 1, 0, 0) in found

    def test_definite_lattice_empty(self):
        assert find_isotropic(Sublattice.full(e8_minus()), height=2) == []

    def test_semidefinite_lattice_is_searched(self):
        # Gram diag(2, 0) has no negative direction, but e2 spans its radical.
        lat = IntegerLattice(((2, 0), (0, 0)))
        assert find_isotropic(Sublattice.full(lat), height=2) == [(0, 1)]

    def test_negative_semidefinite_sublattice_is_searched(self):
        # Inside E8(-1) + U, span(root, e) is degenerate with radical e.
        lat = direct_sum(e8_minus(), hyperbolic_plane(1))
        root = tuple(int(i == 0) for i in range(10))
        e = tuple(int(i == 8) for i in range(10))
        assert find_isotropic(Sublattice(lat, (root, e)), height=1) == [(0, 1)]

    def test_rank_two_indefinite_diagonal(self):
        lat = IntegerLattice(((2, 0), (0, -2)))
        found = find_isotropic(Sublattice.full(lat), height=1)
        assert sorted(found) == [(1, -1), (1, 1)]

    @pytest.mark.parametrize("height", [1, 2])
    @pytest.mark.parametrize("gram", [
        ((0, 1), (1, 0)),
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
        ((2, 1, 0), (1, 2, 0), (0, 0, 0)),  # positive semidefinite
        ((2, 0, 0), (0, -2, 0), (0, 0, 0)),  # indefinite and degenerate
    ])
    def test_matches_filtered_enumeration(self, gram, height):
        # The reference walks all (2h+1)^n tuples and keeps those whose
        # first nonzero coordinate is positive.
        t = Sublattice.full(IntegerLattice(gram))
        expected = [c for c in product(range(-height, height + 1), repeat=len(gram))
                    if any(c) and next(x for x in c if x) > 0 and mo.content(c) == 1
                    and mo.dot(c, mo.mat_vec(gram, c)) == 0]
        assert find_isotropic(t, height=height) == expected

    def test_sign_dedup_and_primitivity(self, UU):
        found = find_isotropic(Sublattice.full(UU), height=2)
        assert (2, 0, 0, 0) not in found
        assert all(next(c for c in v if c != 0) > 0 for v in found)


class TestCheckAdmissible:
    def test_uu_m1(self, UU):
        pair = check_admissible(Sublattice.full(UU),
                                (1, 0, 0, 0), (0, 1, 0, 0), 1)
        assert pair.m == 1

    def test_u2_block_m2(self):
        t = Sublattice.full(direct_sum(hyperbolic_plane(2), hyperbolic_plane(1)))
        pair = check_admissible(t, (1, 0, 0, 0), (0, 1, 0, 0), 2)
        assert pair.m == 2

    def test_wrong_pairing(self, UU):
        with pytest.raises(AdmissibilityError, match="E.E' = 1"):
            check_admissible(Sublattice.full(UU), (1, 0, 0, 0), (0, 1, 0, 0), 2)

    def test_not_isotropic(self, UU):
        with pytest.raises(AdmissibilityError, match="isotropic"):
            check_admissible(Sublattice.full(UU), (1, 1, 0, 0), (0, 1, 0, 0), 2)

    def test_not_primitive(self, UU):
        with pytest.raises(AdmissibilityError, match="primitive"):
            check_admissible(Sublattice.full(UU), (2, 0, 0, 0), (0, 2, 0, 0), 4)

    def test_divisibility_failure(self):
        # E' = f1 + e2 is isotropic with E.E' = 2, but it pairs to 1 with
        # f2, so its divisibility is 1 rather than 2.
        t = Sublattice.full(direct_sum(hyperbolic_plane(2), hyperbolic_plane(1)))
        with pytest.raises(AdmissibilityError, match="divisibility of E'"):
            check_admissible(t, (1, 0, 0, 0), (0, 1, 1, 0), 2)


class TestConstructMirror:
    def test_uu(self, uu_split):
        second_u = Sublattice(uu_split.t.induced_lattice(),
                              ((0, 0, 1, 0), (0, 0, 0, 1)))
        assert same_sublattice(uu_split.m_check, second_u)
        assert uu_split.section_class == (-1, 1, 0, 0)

    def test_identity_on_second_block(self, uu_split):
        # alpha in the second block has alpha.E' = 0, so i(alpha) = alpha.
        from k3bv.lattice import contains
        for alpha in ((0, 0, 1, 0), (0, 0, 2, -3)):
            assert contains(uu_split.m_check, alpha)

    def test_k3_mirror_block(self, k3_split):
        _, t, split = k3_split
        assert split.m_check.rank == 18
        det_mc, sig_mc = det_and_signature(split.m_check.induced_lattice())
        assert abs(det_mc) == 1
        assert sig_mc == (1, 17, 0)

    def test_double_mirror_recovers_m(self, k3_split):
        from k3bv import coordinates_in, orthogonal_complement
        m, t, split = k3_split
        mc_in_l = t.compose(split.m_check)
        t2 = orthogonal_complement(mc_in_l)
        e = coordinates_in(t2, tuple(1 if i == 2 else 0 for i in range(22)))
        ep = coordinates_in(t2, tuple(1 if i == 3 else 0 for i in range(22)))
        split2 = construct_mirror(check_admissible(t2, e, ep, 1))
        recovered = t2.compose(split2.m_check)
        assert same_sublattice(recovered, m)

    def test_p_gram_is_um(self):
        t = Sublattice.full(direct_sum(hyperbolic_plane(2), hyperbolic_plane(1)))
        split = construct_mirror(
            check_admissible(t, (1, 0, 0, 0), (0, 1, 0, 0), 2))
        assert split.p.gram() == ((0, 2), (2, 0))

    def test_det_relation(self):
        # |det T| = m^2 |det M_check| for an index-one splitting.
        for m in (1, 2, 3):
            t = Sublattice.full(direct_sum(hyperbolic_plane(m), hyperbolic_plane(1)))
            split = construct_mirror(
                check_admissible(t, (1, 0, 0, 0), (0, 1, 0, 0), m))
            det_t = mo.bareiss_det(t.gram())
            det_mc = mo.bareiss_det(split.m_check.gram())
            assert abs(det_t) == m * m * abs(det_mc)

    def test_embedding_is_isometric(self, k3_split):
        _, t, split = k3_split
        lat = t.induced_lattice()
        gram = lat.gram
        e, ep = split.pair.e, split.pair.e_prime
        rng = random.Random(7)
        row_e = mo.mat_vec(gram, e)
        perp = mo.integer_kernel((row_e,))

        def image(alpha):
            a_ep = mo.dot(alpha, mo.mat_vec(gram, ep))
            return mo.sub_vec(alpha, mo.scale_vec(a_ep, e))

        for _ in range(25):
            ca = [rng.randint(-3, 3) for _ in perp]
            cb = [rng.randint(-3, 3) for _ in perp]
            a = tuple(sum(c * row[i] for c, row in zip(ca, perp))
                      for i in range(lat.rank))
            b = tuple(sum(c * row[i] for c, row in zip(cb, perp))
                      for i in range(lat.rank))
            assert pairing(lat, image(a), image(b)) == pairing(lat, a, b)

    def test_orthogonality_and_rank(self, k3_split):
        _, t, split = k3_split
        lat = t.induced_lattice()
        for p_row in split.p.basis:
            for m_row in split.m_check.basis:
                assert pairing(lat, p_row, m_row) == 0
        assert split.p.rank + split.m_check.rank == t.rank
