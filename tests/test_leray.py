"""Spectral tables, degeneration checks, filtrations, and the
Borcea-Voisin mirror period."""

from fractions import Fraction

import pytest

from k3bv import (IntegerLattice, K3BVError, PeriodVector, QC, Sublattice, TubePoint,
                  bv_mirror_period, bv_table, check_degeneration, direct_sum,
                  elliptic_table, filtration_dims, hyperbolic_plane,
                  in_period_domain, k3_table, recover_period_inputs,
                  swap_rows, y_betti)
from k3bv import jsonio
from k3bv.leray import Filtration, SpectralTable


class TestK3Table:
    def test_middle_dimension(self):
        assert k3_table().dimension(1, 1) == 20

    def test_antidiagonal_sums(self):
        assert k3_table().antidiagonal_sums() == [1, 0, 22, 0, 1]

    def test_corner_labels(self):
        d = k3_table().as_dict()
        assert "E" in d[(2, 0)][1]
        assert "E'" in d[(0, 2)][1]


class TestEllipticTable:
    def test_sums(self):
        assert elliptic_table().antidiagonal_sums() == [1, 2, 1]

    def test_sx_label(self):
        assert elliptic_table().as_dict()[(0, 1)][1] == "Qs_x"

    def test_row_swap_involution(self):
        et = elliptic_table()
        swapped = swap_rows(et)
        assert swapped.antidiagonal_sums() == et.antidiagonal_sums()
        assert swap_rows(swapped).as_dict() == et.as_dict()

    def test_row_swap_only_for_two_rows(self):
        with pytest.raises(K3BVError):
            swap_rows(k3_table())


class TestBVTable:
    def test_r2_dimensions(self):
        t = bv_table(2)
        assert t.dimension(1, 1) == 3
        assert t.dimension(1, 2) == 19

    @pytest.mark.parametrize("r", range(1, 20))
    def test_middle_antidiagonal(self, r):
        assert bv_table(r).antidiagonal_sums()[3] == 44 - 2 * r

    def test_21_labels(self):
        d = bv_table(4).as_dict()
        assert "Mcheck_Q (x) s_y" in d[(2, 1)][1]
        assert "QE (x) s_x" in d[(2, 1)][1]

    @pytest.mark.parametrize("r", range(1, 20))
    def test_degeneration(self, r):
        assert check_degeneration(bv_table(r), y_betti(r))

    def test_perturbed_entry_fails(self):
        t = bv_table(3)
        entries = tuple(((p, q), (dim + (1 if (p, q) == (1, 1) else 0), lab))
                        for (p, q), (dim, lab) in t.entries)
        assert not check_degeneration(SpectralTable(entries), y_betti(3))

    def test_range(self):
        with pytest.raises(K3BVError):
            bv_table(20)


class TestYBetti:
    def test_r2(self):
        assert y_betti(2) == (1, 0, 3, 40, 3, 0, 1)

    @pytest.mark.parametrize("r", range(1, 20))
    def test_symmetry(self, r):
        b = y_betti(r)
        assert b == tuple(reversed(b))
        assert b[3] % 2 == 0


class TestFiltration:
    def test_quotients_match_antidiagonal(self):
        for r in (1, 5, 19):
            f = filtration_dims(bv_table(r), 3)
            assert f.quotients() == (1, 21 - r, 21 - r, 1)

    def test_monotone_required(self):
        with pytest.raises(K3BVError):
            Filtration((2, 1))

    def test_negative_degree_is_named(self):
        with pytest.raises(K3BVError, match="^total degree must be >= 0, got -1$"):
            filtration_dims(k3_table(), -1)


@pytest.mark.parametrize("call", [
    lambda: filtration_dims(k3_table(), -1).quotients(),
    lambda: Filtration(()).quotients(),
    lambda: SpectralTable(((1, 2),)),
    lambda: Filtration(5),
    lambda: jsonio.lattice_by_name(3),
    lambda: jsonio.parse_coords(5),
], ids=["negative-degree", "empty-filtration", "flat-table-entry", "scalar-filtration",
        "non-text-catalog-name", "non-text-coordinates"])
def test_malformed_shapes_are_domain_errors(call):
    with pytest.raises(K3BVError):
        call()


@pytest.fixture(scope="module")
def m_u():
    return Sublattice.full(hyperbolic_plane(1))


class TestBVMirrorPeriod:
    def test_worked_expansion(self, m_u):
        p1 = TubePoint(m_u, (0, 0), (1, 1))
        tp = bv_mirror_period(p1, (0, 1))
        assert tp.coefficient("E'", "s_x") == QC(1, 0)
        assert tp.coefficient("E", "s_x") == QC(1, 0)
        assert tp.coefficient("m0", "s_x") == QC(0, 1)
        assert tp.coefficient("m1", "s_x") == QC(0, 1)
        assert tp.coefficient("E'", "s_y") == QC(0, 1)
        assert tp.coefficient("E", "s_y") == QC(0, 1)
        assert tp.coefficient("m0", "s_y") == QC(-1, 0)

    def test_anchor_always_one(self, m_u):
        p1 = TubePoint(m_u, (Fraction(1, 2), -2), (3, 1))
        tp = bv_mirror_period(p1, (Fraction(-5, 3), Fraction(1, 2)))
        assert tp.coefficient("E'", "s_x") == QC(1, 0)

    def test_recovery(self, m_u):
        # On M = U + <-2> with zero third coordinates the period has no m2
        # component, and recovery still returns all three coordinates.
        m_u_a1 = Sublattice.full(direct_sum(hyperbolic_plane(1), IntegerLattice(((-2,),))))
        for p1 in (TubePoint(m_u, (Fraction(1, 2), -2), (3, 1)),
                   TubePoint(m_u_a1, (0, 0, 0), (1, 1, 0))):
            tp = bv_mirror_period(p1, (Fraction(-5, 3), Fraction(1, 2)))
            b1, w1, (b2, w2) = recover_period_inputs(tp)
            assert b1 == p1.b and w1 == p1.omega
            assert (b2, w2) == (Fraction(-5, 3), Fraction(1, 2))
        assert len(b1) == 3 and "m2" not in {label for (label, _), _ in tp.components}

    def test_k3_factor_is_a_period(self, uu_split, m_u):
        # Reassembling the K3 coefficients of the tensor period gives a
        # vector in the period domain of T, and tau is in the upper half
        # plane by construction.
        p1 = TubePoint(m_u, (1, 0), (2, 3))
        tp = bv_mirror_period(p1, (4, 5))
        basis = {"E": uu_split.pair.e, "E'": uu_split.pair.e_prime,
                 "m0": uu_split.m_check.basis[0], "m1": uu_split.m_check.basis[1]}
        re = [Fraction(0)] * 4
        im = [Fraction(0)] * 4
        for label, vec in basis.items():
            c = tp.coefficient(label, "s_x")
            for i, x in enumerate(vec):
                re[i] += c.re * x
                im[i] += c.im * x
        assert in_period_domain(PeriodVector(uu_split.t, tuple(re), tuple(im)))

    def test_tube_violation(self, m_u):
        with pytest.raises(K3BVError):
            bv_mirror_period(TubePoint(m_u, (0, 0), (1, -1)), (0, 1))
        p1 = TubePoint(m_u, (0, 0), (1, 1))
        with pytest.raises(K3BVError):
            bv_mirror_period(p1, (0, 0))

    def test_recovery_needs_anchor(self):
        from k3bv.leray import TensorPeriod
        with pytest.raises(K3BVError):
            recover_period_inputs(TensorPeriod(((("E", "s_x"), QC(1, 0)),), 2))
