"""Tube domains, period domains, the discriminant, primed slices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3bv import (IntegerLattice, K3BVError, PeriodVector, Sublattice, TubePoint,
                  check_admissible, construct_mirror, direct_sum, hyperbolic_plane,
                  in_delta, in_period_domain, in_primed, in_tube, pairing, phi)
from k3bv import matrixops as mo


@pytest.fixture
def m_u(U):
    return Sublattice.full(U)


class TestInTube:
    def test_positive_norm(self, m_u):
        assert in_tube(TubePoint(m_u, (0, 0), (1, 1)))

    def test_isotropic(self, m_u):
        assert not in_tube(TubePoint(m_u, (0, 0), (1, 0)))

    def test_negative_norm(self, m_u):
        assert not in_tube(TubePoint(m_u, (0, 0), (1, -1)))

    def test_rational_coordinates(self, m_u):
        p = TubePoint(m_u, (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 3)))
        assert p.omega_sq() == Fraction(2, 9)
        assert in_tube(p)


class TestInPeriodDomain:
    def test_standard_period(self, UU):
        t = Sublattice.full(UU)
        assert in_period_domain(PeriodVector(t, (1, 1, 0, 0), (0, 0, 1, 1)))

    def test_zero_imaginary_part(self, UU):
        t = Sublattice.full(UU)
        assert not in_period_domain(PeriodVector(t, (1, 0, 0, 0), (0, 0, 0, 0)))

    def test_nonzero_re_dot_im(self, U):
        t = Sublattice.full(U)
        assert not in_period_domain(PeriodVector(t, (1, 0), (0, 1)))


class TestInDelta:
    def test_period_on_first_block(self, UU):
        t = Sublattice.full(UU)
        om = PeriodVector(t, (1, 1, 0, 0), (1, -1, 0, 0))
        hit, witness = in_delta(om)
        assert hit
        assert witness is not None and any(x != 0 for x in witness)
        assert pairing(UU, witness, (1, 1, 0, 0)) == 0
        assert pairing(UU, witness, (1, -1, 0, 0)) == 0

    def test_rank_two_generic_period_misses(self, U):
        t = Sublattice.full(U)
        hit, witness = in_delta(PeriodVector(t, (1, 0), (0, 1)))
        assert not hit and witness is None

    def test_zero_period_rejected(self, U):
        t = Sublattice.full(U)
        with pytest.raises(K3BVError):
            in_delta(PeriodVector(t, (0, 0), (0, 0)))

    def test_rational_periods_over_higher_rank_always_hit(self, UU):
        # Two linear conditions cannot cut Z^4 down to zero, so every
        # rational period of a rank >= 3 lattice has a witness.
        t = Sublattice.full(UU)
        om = PeriodVector(t, (1, 1, 1, 0), (0, 0, 1, 1))
        hit, witness = in_delta(om)
        assert hit and witness is not None


class TestInPrimed:
    def test_zero_b_field(self, uu_split):
        p = TubePoint(uu_split.m_check, (0, 0), (1, 1))
        assert in_primed(p, uu_split)

    def test_period_with_im_in_mcheck(self, uu_split):
        om = PeriodVector(uu_split.t, (1, 1, 0, 0), (0, 0, 1, 1))
        assert in_primed(om, uu_split)

    def test_period_with_im_in_p(self, uu_split):
        om = PeriodVector(uu_split.t, (0, 0, 1, 1), (0, 1, 0, 0))
        assert not in_primed(om, uu_split)

    def test_rejects_a_point_over_another_lattice(self, uu_split):
        # Same ranks as the split's T and M-check, other Grams: each point
        # would pass a length check, and phi / phi_inverse refuse both.
        over_u2_u = Sublattice.full(direct_sum(hyperbolic_plane(2), hyperbolic_plane(1)))
        with pytest.raises(K3BVError, match="^period vector must live over the T of the split$"):
            in_primed(PeriodVector(over_u2_u, (1, 0, 0, 0), (0, 0, 1, 1)), uu_split)
        with pytest.raises(K3BVError,
                           match="^tube point must live over the M-check of the split$"):
            in_primed(TubePoint(Sublattice.full(hyperbolic_plane(3)), (0, 0), (1, 1)), uu_split)

    def test_rejects_other_types(self, uu_split):
        with pytest.raises(K3BVError):
            in_primed((1, 2), uu_split)


def test_phi_lands_in_period_domain(uu_split):
    for b, omega in (((0, 0), (1, 1)), ((1, 0), (2, 1)),
                     ((Fraction(1, 2), Fraction(-1, 3)), (1, 2))):
        p = TubePoint(uu_split.m_check, b, omega)
        assert in_period_domain(phi(uu_split, p))


# --- integer forms against the Fraction reference -----------------------------

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def lattice_and_vectors(draw, count, dense=False):
    """A random symmetric integer Gram (rank 0..6), with no zero entry when
    dense, and rational vectors."""
    n = draw(st.integers(0, 6))
    entry = st.integers(-9, 9).filter(bool) if dense else st.integers(-9, 9)
    entries = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    gram = tuple(tuple(entries[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    vectors = [tuple(draw(st.lists(rationals, min_size=n, max_size=n))) for _ in range(count)]
    return (Sublattice.full(IntegerLattice(gram)),) + tuple(vectors)


def _reference(sub, v, w):
    return mo.dot(v, mo.mat_vec(sub.gram(), w))


@settings(max_examples=100, deadline=None)
@given(st.one_of(lattice_and_vectors(2), lattice_and_vectors(2, dense=True)), st.data())
def test_form_matches_fraction_reference(case, data):
    sub, v, w = case
    # Also v and w cut to complementary supports: each is zero where the
    # other is not, so the one pass over the Gram meets zeros in one vector.
    mask = data.draw(st.lists(st.booleans(), min_size=len(v), max_size=len(v)))
    apart = (tuple(x if keep else 0 for x, keep in zip(v, mask)),
             tuple(0 if keep else x for x, keep in zip(w, mask)))
    for v, w in ((v, w), apart):
        p = TubePoint(sub, v, w)
        (nv, dv), (nw, dw) = p.cleared
        vv, ww, vw = p.forms
        assert (nv, dv) == mo.clear_denominators(v) and (nw, dw) == mo.clear_denominators(w)
        assert Fraction(vv, dv * dv) == _reference(sub, v, v)
        assert Fraction(ww, dw * dw) == _reference(sub, w, w)
        assert Fraction(vw, dv * dw) == _reference(sub, v, w)
        assert TubePoint(sub, v, tuple(0 for _ in v)).forms[1:] == (0, 0)


@settings(max_examples=100, deadline=None)
@given(lattice_and_vectors(2))
def test_pairing_and_tube_forms_match_fraction_reference(case):
    sub, v, w = case
    lattice = sub.induced_lattice()
    value = pairing(lattice, v, w)
    assert value == _reference(sub, v, w)
    assert (type(value) is int) == all(x.denominator == 1 for x in v + w)
    as_ints = tuple(tuple(x.numerator for x in u) for u in (v, w))
    assert type(pairing(lattice, *as_ints)) is int
    p = TubePoint(sub, v, w)
    assert p.b_sq() == _reference(sub, v, v)
    assert p.omega_sq() == _reference(sub, w, w)
    assert p.b_dot_omega() == _reference(sub, v, w)


@settings(max_examples=100, deadline=None)
@given(lattice_and_vectors(2))
def test_period_quadrics_match_fraction_reference(case):
    sub, re, im = case
    om = PeriodVector(sub, re, im)
    rr, ii, ri = (_reference(sub, re, re), _reference(sub, im, im), _reference(sub, re, im))
    assert om.omega_dot_omega() == (rr - ii, 2 * ri)
    assert om.omega_dot_conjugate() == rr + ii


def test_clear_denominators():
    assert mo.clear_denominators((Fraction(1, 2), Fraction(-2, 3), 4)) == ((3, -4, 24), 6)
    assert mo.clear_denominators((0, 0)) == ((0, 0), 1)
    assert mo.clear_denominators(()) == ((), 1)


def test_form_on_rank_zero_m_check(U):
    split = construct_mirror(check_admissible(Sublattice.full(U), (1, 0), (0, 1), 1))
    assert split.m_check.rank == 0
    p = TubePoint(split.m_check, (), ())
    assert (p.cleared, p.forms) == ((((), 1), ((), 1)), (0, 0, 0))
    assert pairing(split.m_check.induced_lattice(), (), ()) == 0
    assert TubePoint(split.m_check, (), ()).omega_sq() == 0
