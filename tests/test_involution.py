"""Lattice involutions, the mirror involution, the symplectic transpose
identity, and real fiber dualization."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from k3bv import (DimensionMismatch, K3BVError, LatticeInvolution, RealFiberType, Sublattice,
                  SymplecticSpace, coordinates_in, direct_sum, hyperbolic_plane,
                  invariant_sublattices, k3_lattice, mirror_involution,
                  orthogonal_complement, real_fiber_dual, same_sublattice,
                  transpose_defect)
from k3bv import matrixops as mo
from k3bv.involution import reflection_through
from k3bv.mirror import check_admissible, construct_mirror

from conftest import diag_involution, reflection_conjugates


@pytest.fixture(scope="module")
def standard_rho():
    l = k3_lattice()
    return diag_involution(l, (1, 1) + (-1,) * 20)


class TestLatticeInvolution:
    def test_rejects_non_involutive(self, K3):
        bad = tuple(tuple(2 if i == j else 0 for j in range(22)) for i in range(22))
        with pytest.raises(K3BVError, match="square"):
            LatticeInvolution(K3, bad)

    def test_rejects_non_isometry(self, UU):
        # Swapping e1 and e2 does not preserve the block form pairing
        # with f1.
        perm = ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))
        with pytest.raises(K3BVError, match="form"):
            LatticeInvolution(UU, perm)

    def test_isometry_check_on_signed_permutations(self):
        # Every signed-permutation involution of U(3) + U, and its conjugate
        # by a shear: the constructor accepts exactly the a with
        # a^T G a = G, checked here with all three products.
        lattice = direct_sum(hyperbolic_plane(3), hyperbolic_plane(1))
        g = lattice.gram
        shear = ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        unshear = ((1, 0, -1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        candidates = []
        for perm, signs in product(permutations(range(4)), product((1, -1), repeat=4)):
            a = tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(4)) for i in range(4))
            if mo.mat_mul(a, a) == mo.identity(4):
                candidates += [a, mo.mat_mul(mo.mat_mul(shear, a), unshear)]
        accepted = 0
        for a in candidates:
            if mo.mat_mul(mo.mat_mul(mo.transpose(a), g), a) == g:
                assert LatticeInvolution(lattice, a).matrix == a
                accepted += 1
            else:
                with pytest.raises(K3BVError, match="does not preserve the bilinear form"):
                    LatticeInvolution(lattice, a)
        assert len(candidates) == 152 and 0 < accepted < 152

    @pytest.mark.parametrize("entry", [0.0, Fraction(0)])
    def test_rejects_non_int_entries(self, U, entry):
        # A swap of e and f with an inexact zero would otherwise pass both
        # checks.
        with pytest.raises(K3BVError, match="^involution entries must be integers$"):
            LatticeInvolution(U, ((entry, 1), (1, 0)))


class TestInvariantSublattices:
    @settings(max_examples=40, deadline=None)
    @given(reflection_conjugates())
    def test_kernels_of_rho_minus_plus_identity(self, rho):
        # Saturating the columns of rho +- Id gives exactly ker(rho -+ Id).
        plus, minus = invariant_sublattices(rho)
        for s, sub in ((1, plus), (-1, minus)):
            shifted = tuple(tuple(x - s * (i == j) for j, x in enumerate(row))
                            for i, row in enumerate(rho.matrix))
            assert sub.basis == mo.integer_kernel(shifted)
        assert plus.rank + minus.rank == 22

    def test_identity(self, UU):
        rho = diag_involution(UU, (1, 1, 1, 1))
        plus, minus = invariant_sublattices(rho)
        assert plus.rank == 4 and minus.rank == 0

    def test_minus_identity(self, UU):
        rho = diag_involution(UU, (-1, -1, -1, -1))
        plus, minus = invariant_sublattices(rho)
        assert plus.rank == 0 and minus.rank == 4

    def test_block_involution(self, standard_rho, K3):
        plus, minus = invariant_sublattices(standard_rho)
        first_u = Sublattice(K3, ((1,) + (0,) * 21, (0, 1) + (0,) * 20))
        assert same_sublattice(plus, first_u)
        assert same_sublattice(minus, orthogonal_complement(first_u))

    def test_swap_involution_saturated_kernels(self, U):
        rho = LatticeInvolution(U, ((0, 1), (1, 0)))
        plus, minus = invariant_sublattices(rho)
        assert same_sublattice(plus, Sublattice(U, ((1, 1),)))
        assert same_sublattice(minus, Sublattice(U, ((1, -1),)))


class TestMirrorInvolution:
    def test_invariant_is_mcheck(self, standard_rho, k3_split):
        m, t, split = k3_split
        checked = mirror_involution(standard_rho, split)
        plus, minus = invariant_sublattices(checked)
        assert same_sublattice(plus, t.compose(split.m_check))
        p_in_l = t.compose(split.p)
        pm = Sublattice(standard_rho.lattice, p_in_l.basis + m.basis)
        assert same_sublattice(minus, pm)

    def test_squares_to_identity(self, standard_rho, k3_split):
        _, _, split = k3_split
        checked = mirror_involution(standard_rho, split)
        n = checked.lattice.rank
        assert mo.mat_mul(checked.matrix, checked.matrix) == mo.identity(n)

    def test_twice_returns_original(self, standard_rho, k3_split):
        m, t, split = k3_split
        checked = mirror_involution(standard_rho, split)
        # The back-split lives in the anti-invariant lattice of checked,
        # which is P + M, with the same P.
        p_in_l = t.compose(split.p)
        t2 = Sublattice(standard_rho.lattice, p_in_l.basis + m.basis)
        e = coordinates_in(t2, p_in_l.basis[0])
        ep = coordinates_in(t2, p_in_l.basis[1])
        split2 = construct_mirror(check_admissible(t2, e, ep, 1))
        back = mirror_involution(checked, split2)
        assert back.matrix == standard_rho.matrix

    def test_m_not_one_rejected(self, standard_rho):
        from k3bv import direct_sum, hyperbolic_plane
        t = Sublattice.full(direct_sum(hyperbolic_plane(2), hyperbolic_plane(1)))
        split = construct_mirror(check_admissible(t, (1, 0, 0, 0), (0, 1, 0, 0), 2))
        with pytest.raises(K3BVError, match="m = 1, the Borcea-Voisin mirror condition"):
            mirror_involution(standard_rho, split)

    @pytest.mark.parametrize("signs", [(1,) * 6 + (-1,) * 16, (-1, -1, 1, 1) + (-1,) * 18],
                             ids=["rank_mismatch", "wrong_eigenspace"])
    def test_anti_invariant_lattice_must_be_t(self, K3, k3_split, signs):
        # T is the complement of the first U, of rank 20. The first rho has
        # a rank-16 anti-invariant lattice; the second one of rank 20 that
        # is not T.
        _, _, split = k3_split
        with pytest.raises(K3BVError, match="not the T of the split"):
            mirror_involution(diag_involution(K3, signs), split)

    def test_non_saturated_t_accepted(self, K3, standard_rho):
        # T = <e2, f2, 2 e4, ..., 2 e21> spans the -1 eigenspace of rho
        # without being saturated.
        unit = mo.identity(22)
        t = Sublattice(K3, unit[2:4] + tuple(mo.scale_vec(2, row) for row in unit[4:]))
        split = construct_mirror(check_admissible(t, unit[0][:20], unit[1][:20], 1))
        checked = mirror_involution(standard_rho, split)
        assert mo.mat_mul(checked.matrix, checked.matrix) == mo.identity(22)

    def test_reflection_matrix(self, UU):
        p = Sublattice(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        r = reflection_through(p)
        assert r == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))


class TestTransposeDefect:
    def test_dim2_seed(self):
        space = SymplecticSpace.standard(2)
        defect = transpose_defect(space, space, ((1, 0), (0, -1)))
        assert defect == ((0, 0), (0, 0))

    def test_symplectic_map_rejected(self):
        space = SymplecticSpace.standard(2)
        with pytest.raises(K3BVError, match="anti-symplectic"):
            transpose_defect(space, space, ((1, 0), (0, 1)))

    def test_dim4_block_seed(self):
        space = SymplecticSpace.standard(4)
        phi = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
        defect = transpose_defect(space, space, phi)
        assert all(x == 0 for row in defect for x in row)

    def test_form_must_be_skew(self):
        with pytest.raises(K3BVError):
            SymplecticSpace(((1, 0), (0, 1)))

    def test_form_must_be_nondegenerate(self):
        with pytest.raises(K3BVError):
            SymplecticSpace(((0, 0), (0, 0)))

    def test_standard_needs_even_positive_integer_dimension(self):
        for dim in (3, 1, 0, -2):
            with pytest.raises(DimensionMismatch, match="^symplectic form must be square"):
                SymplecticSpace.standard(dim)
        for dim in (2.0, True, "2", None):
            with pytest.raises(DimensionMismatch, match="^dim must be integers$"):
                SymplecticSpace.standard(dim)


class TestRealFiberDual:
    def test_interchange(self):
        assert real_fiber_dual(RealFiberType.FIGURE_EIGHT) is RealFiberType.CIRCLE_POINT
        assert real_fiber_dual(RealFiberType.CIRCLE_POINT) is RealFiberType.FIGURE_EIGHT

    def test_singular_circle_fixed(self):
        assert real_fiber_dual(RealFiberType.SINGULAR_CIRCLE) is RealFiberType.SINGULAR_CIRCLE

    def test_smooth_types_rejected(self):
        with pytest.raises(K3BVError):
            real_fiber_dual(RealFiberType.SMOOTH_ONE_CIRCLE)

    def test_involution(self):
        for t in (RealFiberType.FIGURE_EIGHT, RealFiberType.CIRCLE_POINT,
                  RealFiberType.SINGULAR_CIRCLE):
            assert real_fiber_dual(real_fiber_dual(t)) is t


class TestReflectionThrough:
    def test_zero_sublattice_gives_minus_identity(self, K3):
        r = reflection_through(Sublattice(K3, ()))
        assert r == tuple(tuple(-x for x in row) for row in mo.identity(22))

    def test_full_sublattice_gives_identity(self, UU):
        assert reflection_through(Sublattice.full(UU)) == mo.identity(4)

    @pytest.mark.parametrize("row", [(1, -2, 0, 0), (1, 0, 0, 0)],
                             ids=["minus_four", "isotropic"])
    def test_non_splitting_line_rejected(self, UU, row):
        # A norm -4 vector e - 2f gives 2 pi_P with entries 1/2; an
        # isotropic vector has G_P = 0.
        with pytest.raises(K3BVError, match="not integral"):
            reflection_through(Sublattice(UU, (row,)))

    def test_minus_two_root_gives_minus_its_reflection(self, UU):
        # For r.r = -2, 2 pi_P x = -(x.r) r is integral though L is not
        # P + P-perp: r_P = -s_r, with s_r x = x + (x.r) r.
        r = reflection_through(Sublattice(UU, ((1, -1, 0, 0),)))
        assert r == ((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))

    def test_u2_gives_an_involution(self, K3):
        # P = U(2) spanned by e2 - e3 and f2 - f3: G_P^-1 has entries 1/2,
        # so 2 pi_P is integral as L is unimodular.
        unit = mo.identity(22)
        p = Sublattice(K3, (mo.sub_vec(unit[2], unit[4]), mo.sub_vec(unit[3], unit[5])))
        assert p.gram() == ((0, 2), (2, 0))
        plus, minus = invariant_sublattices(LatticeInvolution(K3, reflection_through(p)))
        assert same_sublattice(plus, p)
        assert same_sublattice(minus, orthogonal_complement(p))

    def test_u3_rejected(self, K3):
        unit = mo.identity(22)
        p = Sublattice(K3, (mo.add_vec(mo.add_vec(unit[0], unit[2]), unit[4]),
                            mo.add_vec(mo.add_vec(unit[1], unit[3]), unit[5])))
        assert p.gram() == ((0, 3), (3, 0))
        with pytest.raises(K3BVError, match="not integral"):
            reflection_through(p)


def reference_reflection(p):
    """r_P from the basis of P followed by a basis of its complement:
    columns * diag(1, ..., -1, ...) * columns^-1 over Q, raised unless it
    is integral."""
    perp = orthogonal_complement(p)
    columns = mo.transpose(p.basis + perp.basis)
    n = len(columns)
    signs = tuple(tuple((1 if i < p.rank else -1) if i == j else 0 for j in range(n))
                  for i in range(n))
    y, d = mo._inverse(columns)
    r = mo.mat_mul(mo.mat_mul(columns, signs), y)
    if any(x % d for row in r for x in row):
        raise K3BVError("r_P is not integral")
    return tuple(tuple(x // d for x in row) for row in r)


K3_UNIT = mo.identity(22)
# Norm -2 vectors of the K3 lattice: e_i - f_i in each U, the E8 simple
# roots, and U vectors plus an E8 root, which mix the blocks.
K3_ROOTS = ([mo.sub_vec(K3_UNIT[i], K3_UNIT[i + 1]) for i in (0, 2, 4)]
            + [K3_UNIT[i] for i in range(6, 22)]
            + [mo.add_vec(K3_UNIT[i], K3_UNIT[j]) for i, j in ((0, 6), (3, 15), (5, 20))])
# Sublattices to conjugate: the second U (P of the catalog split), U + U,
# U + E8, and the non-unimodular span(e2, 2 f2), span(e2 + f2), U(2) and
# U(3); r_P is integral for all but U(3).
K3_PIECES = (K3_UNIT[2:4], K3_UNIT[:4], K3_UNIT[2:4] + K3_UNIT[6:14],
             (K3_UNIT[2], mo.scale_vec(2, K3_UNIT[3])), (mo.add_vec(K3_UNIT[2], K3_UNIT[3]),),
             (mo.sub_vec(K3_UNIT[2], K3_UNIT[4]), mo.sub_vec(K3_UNIT[3], K3_UNIT[5])),
             (mo.add_vec(mo.add_vec(K3_UNIT[0], K3_UNIT[2]), K3_UNIT[4]),
              mo.add_vec(mo.add_vec(K3_UNIT[1], K3_UNIT[3]), K3_UNIT[5])))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(K3_ROOTS), min_size=1, max_size=12),
       st.sampled_from(K3_PIECES))
def test_reflection_matches_complement_formula(roots, piece):
    k3 = k3_lattice()

    def g(x):
        for r in roots:
            x = mo.add_vec(x, mo.scale_vec(mo.dot(x, mo.mat_vec(k3.gram, r)), r))
        return x

    p = Sublattice(k3, tuple(g(row) for row in piece))
    try:
        expected = reference_reflection(p)
    except K3BVError:
        with pytest.raises(K3BVError):
            reflection_through(p)
        return
    assert reflection_through(p) == expected
