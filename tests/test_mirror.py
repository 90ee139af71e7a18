"""Admissible pairs and the mirror-lattice construction."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from k3bv import (AdmissibilityError, AdmissiblePair, IntegerLattice, NotInLattice,
                  SplittingError, Sublattice, check_admissible, construct_mirror,
                  det_and_signature, direct_sum, hyperbolic_plane, pairing,
                  same_sublattice)
from k3bv import matrixops as mo


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

    def test_u2_has_empty_m_check(self):
        # Every image row is zero: E' - E spans nothing beyond P.
        t = Sublattice.full(hyperbolic_plane(2))
        split = construct_mirror(check_admissible(t, (1, 0), (0, 1), 2))
        assert split.m_check.basis == ()
        assert split.p.basis == ((1, 0), (0, 1))

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


class TestSplitCertificate:
    """Hand-built pairs that skip check_admissible must still fail the
    index-one certificate."""

    def test_degenerate_t_index_two(self):
        # det T = 0, so det(P + M-check) = det T holds trivially, but
        # |det(E, E', M-check)| = 2.
        t = Sublattice.full(IntegerLattice(((2, 1, 1), (1, 0, 1), (1, 1, 0))))
        pair = AdmissiblePair(t, (0, 1, 0), (1, -1, 1), 2)
        with pytest.raises(SplittingError, match="index is not 1"):
            construct_mirror(pair)

    def test_e_prime_of_divisibility_one(self, UU):
        # E' pairs to 1 with f2, so T is not ZE + ZE' + P-perp.
        pair = AdmissiblePair(Sublattice.full(UU), (1, 0, 0, 0), (0, 2, 1, 0), 2)
        with pytest.raises(SplittingError):
            construct_mirror(pair)


def test_rational_coordinates_rejected(UU):
    with pytest.raises(NotInLattice):
        check_admissible(Sublattice.full(UU), (Fraction(3, 2), 0, 0, 0),
                         (0, Fraction(2, 3), 0, 0), 1)


def reference_m_check(pair):
    """The paper's construction: the saturated image of (ZE)-perp under
    a -> a - (a.E'/m) E."""
    lat = pair.t.induced_lattice()
    gram = lat.gram
    e, ep, m = pair.e, pair.e_prime, pair.m
    image = []
    for alpha in mo.integer_kernel((mo.mat_vec(gram, e),)):
        a_ep = mo.dot(alpha, mo.mat_vec(gram, ep))
        assert a_ep % m == 0
        image.append(mo.sub_vec(alpha, mo.scale_vec(a_ep // m, e)))
    return Sublattice(lat, mo.saturate(image, lat.rank))


@st.composite
def um_grams(draw):
    """U(m) + U(k) for m, k in 1..3, optionally plus a rank-1 block (d),
    |d| <= 4."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    extra = draw(st.lists(st.integers(-4, 4), max_size=1))
    lat = direct_sum(hyperbolic_plane(m), hyperbolic_plane(k))
    if extra:
        lat = direct_sum(lat, IntegerLattice(((extra[0],),)))
    return lat


@settings(max_examples=30, deadline=None)
@given(um_grams())
def test_m_check_matches_saturated_image(lat):
    t = Sublattice.full(lat)
    # Isotropic vectors with entries in {-1, 0, 1}, one of each sign pair;
    # such vectors are primitive.
    found = [c for c in product((-1, 0, 1), repeat=lat.rank)
             if next((x for x in c if x), 0) > 0 and pairing(lat, c, c) == 0]
    checked = 0
    for e, ep in product(found, repeat=2):
        m = pairing(lat, e, ep)
        if m < 0:
            ep, m = mo.scale_vec(-1, ep), -m
        try:
            pair = check_admissible(t, e, ep, m)
        except AdmissibilityError:
            continue
        assert same_sublattice(construct_mirror(pair).m_check, reference_m_check(pair))
        checked += 1
    assert checked > 0
