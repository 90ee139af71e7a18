"""Core lattice arithmetic: pairings, determinants, signatures, Smith
normal form, complements, saturation, divisibility."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from k3bv import (DimensionMismatch, IntegerLattice, NotInLattice, Sublattice,
                  det_and_signature, direct_sum, divisibility, e8_minus,
                  hyperbolic_plane, is_primitive, orthogonal_complement,
                  pairing, same_sublattice, saturation, smith_normal_form)
from k3bv.lattice import contains, coordinates_in, is_saturated
from k3bv import matrixops as mo

E = (1, 0)
F = (0, 1)


def permanent_free_det(a):
    """Independent oracle: determinant by permutation expansion."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= a[i][perm[i]]
        total += sign * prod
    return total


def gauss_det(a):
    """Second independent oracle: plain fraction Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


class TestPairing:
    def test_u_basis(self):
        u = hyperbolic_plane(1)
        assert pairing(u, E, F) == 1
        assert pairing(u, E, E) == 0

    def test_u2(self):
        assert pairing(hyperbolic_plane(2), E, F) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pairing(hyperbolic_plane(1), (1, 0, 0), (0, 1))

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_symmetry(self, a, b, c, d):
        lat = direct_sum(hyperbolic_plane(1), e8_minus())
        v = (a, b, c, d, 0, 0, 1, 0, 0, 0)
        w = (d, c, b, a, 1, 0, 0, 0, 0, 1)
        assert pairing(lat, v, w) == pairing(lat, w, v)


class TestDetAndSignature:
    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_hyperbolic(self, m):
        det, sig = det_and_signature(hyperbolic_plane(m))
        assert det == -m * m
        assert sig == (1, 1, 0)

    def test_k3(self, K3):
        det, sig = det_and_signature(K3)
        assert det == -1
        assert sig == (3, 19, 0)

    def test_e8_minus(self):
        det, sig = det_and_signature(e8_minus())
        assert det == 1
        assert sig == (0, 8, 0)

    def test_e8_det_against_permutation_expansion(self):
        g = e8_minus().gram
        assert permanent_free_det(g) == 1

    def test_e8_negative_definite_by_principal_minors(self):
        # -G positive definite iff all leading principal minors positive.
        g = e8_minus().gram
        neg = [[-x for x in row] for row in g]
        for k in range(1, 9):
            minor = [row[:k] for row in neg[:k]]
            assert gauss_det(minor) > 0

    def test_degenerate_direction_counted(self):
        det, sig = det_and_signature(IntegerLattice(((0, 0), (0, 2))))
        assert det == 0
        assert sig == (1, 0, 1)

    def test_direct_sum_additivity(self):
        a = hyperbolic_plane(3)
        b = e8_minus()
        det_a, sig_a = det_and_signature(a)
        det_b, sig_b = det_and_signature(b)
        det_ab, sig_ab = det_and_signature(direct_sum(a, b))
        assert det_ab == det_a * det_b
        assert sig_ab == tuple(x + y for x, y in zip(sig_a, sig_b))


class TestSmithNormalForm:
    @pytest.mark.parametrize("a,expected", [
        (((0, 1), (1, 0)), (1, 1)),
        (((0, 2), (2, 0)), (2, 2)),
        (((2, 0), (0, 4)), (2, 4)),
    ])
    def test_invariants(self, a, expected):
        assert smith_normal_form(a).invariants == expected

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=2, max_size=4))
    def test_round_trip(self, rows):
        a = tuple(tuple(r) for r in rows)
        snf = smith_normal_form(a)
        assert mo.mat_mul(mo.mat_mul(snf.left, a), snf.right) == snf.diag
        assert abs(mo.bareiss_det(snf.left)) == 1
        assert abs(mo.bareiss_det(snf.right)) == 1
        chain = [d for d in snf.invariants if d != 0]
        assert all(b % a_ == 0 for a_, b in zip(chain, chain[1:]))

    def test_bareiss_matches_gauss(self):
        a = ((2, -1, 0, 3), (1, 4, -2, 0), (0, 5, 1, -1), (3, 0, 0, 2))
        assert mo.bareiss_det(a) == gauss_det(a)


class TestOrthogonalComplement:
    def test_first_u_in_uu(self, UU):
        first = Sublattice(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        second = Sublattice(UU, ((0, 0, 1, 0), (0, 0, 0, 1)))
        assert same_sublattice(orthogonal_complement(first), second)

    def test_isotropic_line(self, U):
        span_e = Sublattice(U, ((1, 0),))
        assert same_sublattice(orthogonal_complement(span_e), span_e)

    def test_e_plus_f(self, U):
        s = Sublattice(U, ((1, 1),))
        assert same_sublattice(orthogonal_complement(s),
                               Sublattice(U, ((1, -1),)))

    def test_always_saturated(self, K3):
        s = Sublattice(K3, ((2, 0) + (0,) * 20, (0, 0, 3, 1) + (0,) * 18))
        assert is_saturated(orthogonal_complement(s))

    def test_rank_additivity_for_nondegenerate(self, K3):
        s = Sublattice(K3, ((1,) + (0,) * 21, (0, 1) + (0,) * 20))
        assert s.rank + orthogonal_complement(s).rank == K3.rank


class TestSaturation:
    @pytest.mark.parametrize("gens,expected", [
        (((2, 0),), ((1, 0),)),
        (((1, 2),), ((1, 2),)),
        (((2, 2),), ((1, 1),)),
    ])
    def test_rank_one(self, U, gens, expected):
        assert same_sublattice(saturation(Sublattice(U, gens)),
                               Sublattice(U, expected))

    def test_idempotent(self, UU):
        s = Sublattice(UU, ((2, 4, 0, 6), (0, 0, 3, 3)))
        sat = saturation(s)
        assert same_sublattice(sat, saturation(sat))


class TestDivisibilityPrimitivity:
    def test_divisibility_in_um(self):
        for m in (1, 2, 5):
            full = Sublattice.full(hyperbolic_plane(m))
            assert divisibility(full, (1, 0)) == m

    def test_divisibility_doubled(self, U):
        assert divisibility(Sublattice.full(U), (2, 0)) == 2

    def test_zero_vector_rejected(self, U):
        with pytest.raises(NotInLattice):
            divisibility(Sublattice.full(U), (0, 0))

    def test_is_primitive(self, U):
        full = Sublattice.full(U)
        assert is_primitive(full, (1, 0))
        assert not is_primitive(full, (2, 0))
        assert is_primitive(full, (1, 1))

    def test_membership_required(self, UU):
        first = Sublattice(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        with pytest.raises(NotInLattice):
            divisibility(first, (0, 0, 1, 0))


class TestDirectSum:
    def test_uu(self, UU):
        assert UU.rank == 4
        assert det_and_signature(UU)[0] == 1

    def test_u_e8(self):
        lat = direct_sum(hyperbolic_plane(1), e8_minus())
        assert lat.rank == 10
        assert det_and_signature(lat)[1] == (1, 9, 0)

    def test_rank_zero_identity(self, U):
        assert direct_sum(U, IntegerLattice(())) == U


class TestSublatticeBasics:
    def test_contains(self, UU):
        first = Sublattice(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        assert contains(first, (3, -2, 0, 0))
        assert not contains(first, (0, 0, 1, 0))

    def test_rank_zero_holds_only_zero(self, U):
        zero = Sublattice(U, ())
        assert coordinates_in(zero, (0, 0)) == ()
        assert coordinates_in(zero, (0, 0), rational=True) == ()
        assert not contains(zero, (1, 0))
        with pytest.raises(NotInLattice):
            coordinates_in(zero, (0, 3), rational=True)

    def test_dependent_rows_rejected(self, UU):
        with pytest.raises(DimensionMismatch):
            Sublattice(UU, ((1, 0, 0, 0), (2, 0, 0, 0)))

    def test_induced_gram(self, UU):
        diag = Sublattice(UU, ((1, 1, 0, 0), (0, 0, 1, -1)))
        assert diag.gram() == ((2, 0), (0, -2))
