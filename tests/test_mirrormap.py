"""The explicit mirror map, its inverse, and the elliptic case through the
Borcea-Voisin mirror period."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from k3bv import (DimensionMismatch, K3BVError, NormalizationError, PeriodVector, QC,
                  Sublattice, TubePoint, bv_mirror_period, check_admissible,
                  construct_mirror, coordinates_in, direct_sum, hyperbolic_plane, in_primed,
                  in_tube, k3_lattice, orthogonal_complement, phi, phi_inverse)
from k3bv import domains, lattice, mirrormap
from k3bv import matrixops as mo
from k3bv.verify import _k3_setup


@pytest.fixture(scope="module")
def u2_split():
    t = Sublattice.full(direct_sum(hyperbolic_plane(2), hyperbolic_plane(1)))
    return construct_mirror(check_admissible(t, (1, 0, 0, 0), (0, 1, 0, 0), 2))


class TestPhi:
    def test_zero_b(self, uu_split):
        om = phi(uu_split, TubePoint(uu_split.m_check, (0, 0), (1, 1)))
        # omega^2 = 2, so re = E' + E and im = e2 + f2.
        assert om.re == (1, 1, 0, 0)
        assert om.im == (0, 0, 1, 1)

    def test_nonzero_b(self, uu_split):
        om = phi(uu_split, TubePoint(uu_split.m_check, (1, 0), (1, 1)))
        # B = e2: omega.B = 1, B^2 = 0, so re gains e2 and im loses E.
        assert om.re == (1, 1, 1, 0)
        assert om.im == (-1, 0, 1, 1)

    def test_m2_rational_output(self, u2_split):
        om = phi(u2_split, TubePoint(u2_split.m_check, (0, 0), (1, 1)))
        assert om.re == (1, Fraction(1, 2), 0, 0)
        assert om.im == (0, 0, 1, 1)

    def test_rejects_non_tube_point(self, uu_split):
        with pytest.raises(K3BVError):
            phi(uu_split, TubePoint(uu_split.m_check, (0, 0), (1, -1)))

    def test_quadric_identities(self, uu_split):
        p = TubePoint(uu_split.m_check, (Fraction(2, 3), -1), (2, 1))
        om = phi(uu_split, p)
        assert om.omega_dot_omega() == (0, 0)
        assert om.omega_dot_conjugate() == 2 * p.omega_sq()


class TestPhiInverse:
    def test_round_trip(self, uu_split):
        p = TubePoint(uu_split.m_check, (0, 0), (1, 1))
        back = phi_inverse(uu_split, phi(uu_split, p))
        assert back.b == p.b and back.omega == p.omega

    def test_projection_kills_p_components(self, uu_split):
        om = PeriodVector(uu_split.t, (1, 1, 1, 0), (-1, 0, 1, 1))
        p = phi_inverse(uu_split, om)
        assert p.b == (1, 0)
        assert p.omega == (1, 1)

    def test_omega_dot_e_zero_rejected(self, uu_split):
        om = PeriodVector(uu_split.t, (0, 0, 1, 1), (0, 0, 1, -1))
        with pytest.raises(NormalizationError, match="Omega.E = 0"):
            phi_inverse(uu_split, om)

    def test_normalized_round_trip_other_way(self, uu_split):
        # phi(phi_inverse(Omega)) equals Omega after rescaling to
        # Omega.E = 1; start from a rescaled period to compare directly.
        p = TubePoint(uu_split.m_check, (Fraction(1, 2), 0), (1, 1))
        om = phi(uu_split, p)
        scale = QC(3, 2)
        scaled = PeriodVector(
            uu_split.t,
            tuple((QC(r, i) * scale).re for r, i in zip(om.re, om.im)),
            tuple((QC(r, i) * scale).im for r, i in zip(om.re, om.im)))
        again = phi(uu_split, phi_inverse(uu_split, scaled))
        assert again.re == om.re and again.im == om.im

    def test_m2_round_trip(self, u2_split):
        p = TubePoint(u2_split.m_check, (2, Fraction(-1, 2)), (1, 3))
        back = phi_inverse(u2_split, phi(u2_split, p))
        assert back.b == p.b and back.omega == p.omega

    def test_round_trips_with_unequal_re_and_im_denominators(self, u2_split, k3_split):
        # phi_inverse scales the re and im numerators by each other's
        # denominator; here re and im are cleared by different ones.
        rest = (0,) * 16
        for split, b, omega, denominators in (
                (u2_split, (Fraction(1, 3), 0), (1, 1), (6, 3)),
                (k3_split[2], (Fraction(1, 3), 0) + rest, (Fraction(1, 2), 2) + rest, (3, 6))):
            p = TubePoint(split.m_check, b, omega)
            om = phi(split, p)
            assert (om.cleared[0][1], om.cleared[1][1]) == denominators
            assert phi_inverse(split, om) == p


def test_round_trip_clears_each_vector_once(monkeypatch, k3_split):
    """phi -> quadrics -> phi_inverse -> in_primed on both sides clears
    B, omega, re and im of denominators once each."""
    calls = []
    original = mo.clear_denominators

    def counting(v):
        calls.append(v)
        return original(v)

    for module in (mo, domains, mirrormap, lattice):
        if hasattr(module, "clear_denominators"):
            monkeypatch.setattr(module, "clear_denominators", counting)
    split = k3_split[2]
    rest = (0,) * 16
    p = TubePoint(split.m_check, (Fraction(1, 3), Fraction(-1, 2)) + rest, (1, 2) + rest)
    om = phi(split, p)
    assert om.omega_dot_omega() == (0, 0)
    assert om.omega_dot_conjugate() == 2 * p.omega_sq()
    assert phi_inverse(split, om) == p
    assert in_primed(p, split) == in_primed(om, split) == (p.b_dot_omega() == 0)
    # Only the caller's B and omega: phi and phi_inverse build their
    # outputs as numerators over one denominator.
    assert len(calls) <= 2


def test_split_views_are_lazy_and_built_once(monkeypatch):
    """construct_mirror builds none of the four nonzero views the mirror map
    reads: the Grams of M-check and of T, the columns of the M-check basis
    and those of the inverse of (E, E', M-check). The mirror map builds
    each once, with one integer inverse."""
    calls, views = Counter(), Counter()
    inverse = mo.integer_inverse
    for name in ("integer_inverse", "nonzeros"):
        def counting(a, name=name, original=getattr(mo, name)):
            calls[name] += 1
            if name == "nonzeros":
                views[mo.freeze(a)] += 1
            return original(a)
        monkeypatch.setattr(mo, name, counting)
    split = _k3_setup()[3]
    lattices = (split.m_check.induced_lattice(), split.t.induced_lattice())
    assert not calls and not {"_inverse_columns", "_m_check_columns"} & vars(split).keys()
    assert not any("gram_nonzeros" in vars(lat) for lat in lattices)
    rest = (0,) * 16
    for b in ((Fraction(1, 3), 0) + rest, (0, 1) + rest, (0, 0) + rest):
        p = TubePoint(split.m_check, b, (1, 2) + rest)
        om = phi(split, p)
        assert phi_inverse(split, om) == p
        assert in_primed(p, split) == in_primed(om, split) == (p.b_dot_omega() == 0)
    basis = (split.pair.e, split.pair.e_prime) + split.m_check.basis
    assert calls == {"integer_inverse": 1, "nonzeros": 4}
    assert views == {lattices[0].gram: 1, lattices[1].gram: 1,
                     mo.transpose(split.m_check.basis): 1,
                     mo.transpose(inverse(basis)): 1}


class TestEllipticPhi:
    """The elliptic mirror map (B2, omega2) -> tau = B2 + i*omega2 is the
    E' (x) s_y coefficient of the Borcea-Voisin mirror period."""

    P1 = TubePoint(Sublattice.full(hyperbolic_plane(1)), (0, 0), (1, 1))

    def test_unit_tau(self):
        assert bv_mirror_period(self.P1, (0, 1)).coefficient("E'", "s_y") == QC(0, 1)

    def test_general_tau(self):
        tp = bv_mirror_period(self.P1, (Fraction(1, 2), 3))
        assert tp.coefficient("E'", "s_y") == QC(Fraction(1, 2), 3)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(K3BVError, match="^tau must lie in the upper half plane$"):
            bv_mirror_period(self.P1, (0, 0))
        with pytest.raises(K3BVError, match="^tau must lie in the upper half plane$"):
            bv_mirror_period(self.P1, (1, -2))


# --- splits whose bases are not coordinate-aligned ---------------------------

def _reflect(gram, r, x):
    """s_r(x) = x + (x.r) r, an isometry when r.r = -2."""
    c = mo.dot(x, mo.mat_vec(gram, r))
    return mo.add_vec(x, mo.scale_vec(c, r))


def _skewed_k3_split():
    """The K3 catalog split moved by a product of reflections in -2 vectors
    that mix the U blocks with both E8 blocks; m = 1, rank-18 M-check."""
    lat = k3_lattice()
    n = lat.rank
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = [mo.add_vec(unit[0], unit[6]), mo.add_vec(unit[3], unit[15]),
             mo.add_vec(mo.add_vec(unit[5], unit[9]), unit[2]),
             mo.sub_vec(unit[4], unit[5]), mo.add_vec(unit[1], unit[20])]

    def g(x):
        for r in roots:
            x = _reflect(lat.gram, r, x)
        return x

    t = orthogonal_complement(Sublattice(lat, (g(unit[0]), g(unit[1]))))
    e = coordinates_in(t, g(unit[2]))
    ep = coordinates_in(t, g(unit[3]))
    split = construct_mirror(check_admissible(t, e, ep, 1))
    positive = coordinates_in(split.m_check,
                              coordinates_in(t, g(mo.add_vec(unit[4], unit[5]))))
    return split, positive


def _skewed_u2_split():
    """T = U(2) + U in a unimodular basis that mixes all four coordinates;
    m = 2, rank-2 M-check."""
    lat = direct_sum(hyperbolic_plane(2), hyperbolic_plane(1))
    t = Sublattice(lat, ((1, 2, 0, 1), (0, 1, 1, 0), (1, 2, 1, 4), (0, 1, 1, 1)))
    e = coordinates_in(t, (1, 0, 0, 0))
    ep = coordinates_in(t, (0, 1, 0, 0))
    split = construct_mirror(check_admissible(t, e, ep, 2))
    positive = coordinates_in(split.m_check, coordinates_in(t, (0, 0, 1, 1)))
    return split, positive


@pytest.fixture(scope="module", params=["k3", "u2"])
def skewed(request):
    return {"k3": _skewed_k3_split, "u2": _skewed_u2_split}[request.param]()


def test_skewed_splits_are_not_coordinate_aligned(skewed):
    split, _ = skewed
    assert any(sum(map(abs, row)) > 1 for row in split.m_check.basis)
    assert sum(map(abs, split.pair.e)) > 1


def test_inverse_columns_invert_the_split_basis(skewed):
    split, _ = skewed
    basis = (split.pair.e, split.pair.e_prime) + split.m_check.basis
    n = len(basis)
    # The columns of the inverse of the split basis, the view phi_inverse reads.
    coords = tuple(mo.mat_vec_pair(split._inverse_columns, v, v)[0]
                   for v in basis + mo.identity(n))
    assert coords[:n] == mo.identity(n)
    assert mo.mat_mul(coords[n:], basis) == mo.identity(n)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def tube_points(draw, split, positive):
    """omega = lam * positive + a sparse +-1 perturbation, B free or made
    orthogonal to omega; drawn until omega.omega > 0."""
    rank = split.m_check.rank
    lam = draw(st.integers(2, 4))
    omega = list(mo.scale_vec(lam, positive))
    for i, sign in draw(st.lists(st.tuples(st.integers(0, rank - 1), st.sampled_from((-1, 1))),
                                 max_size=2)):
        omega[i] += sign
    b = tuple(draw(st.lists(rationals, min_size=rank, max_size=rank)))
    p = TubePoint(split.m_check, b, omega)
    assume(in_tube(p))
    if draw(st.booleans()):
        p = TubePoint(split.m_check,
                      mo.sub_vec(p.b, mo.scale_vec(p.b_dot_omega() / p.omega_sq(), p.omega)),
                      omega)
    return p


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_round_trip_and_primed_on_skewed_splits(skewed, data):
    split, positive = skewed
    p = data.draw(tube_points(split, positive))
    om = phi(split, p)
    assert om.omega_dot_omega() == (0, 0)
    assert om.omega_dot_conjugate() == 2 * p.omega_sq()
    assert phi_inverse(split, om) == p
    assert in_primed(p, split) == in_primed(om, split) == (p.b_dot_omega() == 0)


# --- the split's nonzero views against dense products -----------------------

@pytest.fixture(scope="module", params=["catalog", "k3", "u2"])
def any_split(request, k3_split):
    if request.param == "catalog":
        return k3_split[2], (1, 1) + (0,) * 16
    return {"k3": _skewed_k3_split, "u2": _skewed_u2_split}[request.param]()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_from_m_check_matches_the_dense_product(any_split, data):
    """The M-check columns view takes two coordinate vectors c, d to
    sum c_i M_i and sum d_i M_i in one pass."""
    split, _ = any_split
    c, d = (data.draw(st.lists(st.integers(-50, 50), min_size=split.m_check.rank,
                               max_size=split.m_check.rank)) for _ in range(2))
    assert mo.mat_vec_pair(split._m_check_columns, c, d) == (
        mo.vec_mat(c, split.m_check.basis), mo.vec_mat(d, split.m_check.basis))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_phi_matches_its_defining_formula(any_split, data):
    """re = B + E'/m + ((omega.omega - B.B)/2) E and im = omega - (omega.B) E,
    with B and omega in T coordinates by the dense product."""
    split, positive = any_split
    p = data.draw(tube_points(split, positive))
    lat, e = split.t.induced_lattice(), split.pair.e
    b, w = (mo.vec_mat(v, split.m_check.basis) for v in (p.b, p.omega))
    q = Fraction(lattice.pairing(lat, w, w) - lattice.pairing(lat, b, b), 2)
    re = mo.add_vec(mo.add_vec(b, mo.scale_vec(Fraction(1, split.m), split.pair.e_prime)),
                    mo.scale_vec(q, e))
    im = mo.sub_vec(w, mo.scale_vec(lattice.pairing(lat, w, b), e))
    om = phi(split, p)
    assert om.re == re and om.im == im


# --- records built from numerators against the public constructor ------------

def _same_record(built, public):
    assert built == public and hash(built) == hash(public)
    assert built.cleared == public.cleared and repr(built) == repr(public)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_records_built_from_numerators_match_the_public_constructor(any_split, data):
    split, positive = any_split
    p = data.draw(tube_points(split, positive))
    om = phi(split, p)
    back = phi_inverse(split, om)
    _same_record(om, PeriodVector(split.t, om.re, om.im))
    _same_record(back, TubePoint(split.m_check, back.b, back.omega))
    assert back == p and hash(back) == hash(p)
    assert all(type(x) is Fraction for x in om.re + om.im + back.b + back.omega)


def test_phi_divides_out_a_common_denominator_that_is_not_least(u2_split):
    # B = (1/2, 0), omega = (2, 2): im = (2 omega_T - (B.omega) E) / 2 over
    # db dw = 2, and every numerator is even.
    p = TubePoint(u2_split.m_check, (Fraction(1, 2), 0), (2, 2))
    om = phi(u2_split, p)
    assert om.cleared[1] == ((-1, 0, 2, 2), 1)
    assert om.im == (-1, 0, 2, 2)
    _same_record(om, PeriodVector(u2_split.t, om.re, om.im))
    assert phi_inverse(u2_split, om) == p


@pytest.mark.parametrize("cls, over, message", [
    (PeriodVector, "t", "re has length 3, lattice rank is 4"),
    (TubePoint, "m_check", "B has length 3, lattice rank is 2"),
])
def test_record_from_numerators_refuses_a_wrong_length(u2_split, cls, over, message):
    lattice = getattr(u2_split, over)
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        cls._from_cleared(lattice, ((1, 2, 3), 1), ((0,) * lattice.rank, 1))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_in_primed_reads_the_first_two_inverse_columns(skewed, data):
    split, positive = skewed
    n = split.t.rank
    ints = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    c = data.draw(st.lists(st.integers(-9, 9), min_size=n - 2, max_size=n - 2))
    in_m_check = mo.mat_vec_pair(split._m_check_columns, c, c)[0]
    om = phi(split, data.draw(tube_points(split, positive)))
    inverse = mo.integer_inverse((split.pair.e, split.pair.e_prime) + split.m_check.basis)
    for im in (tuple(data.draw(ints)), in_m_check, om.cleared[1][0]):
        primed = mo.vec_mat(im, inverse)[:2] == (0, 0)  # its E and E' coordinates vanish
        assert in_primed(PeriodVector(split.t, tuple(data.draw(ints)), im), split) == primed
    assert in_primed(om, split) == (mo.vec_mat(om.cleared[1][0], inverse)[:2] == (0, 0))
    assert in_primed(PeriodVector(split.t, in_m_check, in_m_check), split)
