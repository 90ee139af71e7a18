"""Singular-fiber census accounting and the quotient base model."""

from fractions import Fraction

import pytest

from k3bv import (BVData, BasePoint, CensusError, FiberCensus, FiberRecord,
                  K3BVError, KodairaType, RealFiberType, base_embed,
                  census_slack, dualize_census, total_euler)

I1, II = KodairaType.I1, KodairaType.II
F8 = RealFiberType.FIGURE_EIGHT
CP = RealFiberType.CIRCLE_POINT
SC = RealFiberType.SINGULAR_CIRCLE


def make_census(n, np_, k=0, n_ii=0, fixed_ii=0):
    cp = 2 * (n - 1) + k
    f8 = 2 * (np_ - 1) + k
    non_fixed_i1 = 24 - 2 * n_ii - cp - f8
    records = (
        [FiberRecord(I1, True, CP)] * cp
        + [FiberRecord(I1, True, F8)] * f8
        + [FiberRecord(I1, False)] * non_fixed_i1
        + [FiberRecord(II, True, SC)] * fixed_ii
        + [FiberRecord(II, False)] * (n_ii - fixed_ii)
    )
    return FiberCensus(tuple(records), BVData(n, np_))


class TestFiberRecord:
    def test_non_fixed_carries_no_real_type(self):
        with pytest.raises(CensusError):
            FiberRecord(I1, False, F8)

    def test_fixed_ii_must_be_singular_circle(self):
        with pytest.raises(CensusError):
            FiberRecord(II, True, F8)
        FiberRecord(II, True, SC)

    def test_fixed_i1_real_types(self):
        with pytest.raises(CensusError):
            FiberRecord(I1, True, SC)


class TestValidateCensus:
    def test_three_four_census(self):
        c = make_census(3, 4)
        assert census_slack(c) == 0

    def test_count_violation(self):
        records = [FiberRecord(I1, False)] * 23 + [FiberRecord(II, False)]
        with pytest.raises(CensusError, match="24"):
            FiberCensus(tuple(records), BVData(1, 1))

    def test_unbalanced_slack(self):
        c = make_census(3, 4)
        extra = c.records + (FiberRecord(I1, True, CP),)
        with pytest.raises(CensusError, match="unbalanced"):
            FiberCensus(extra[:-2] + (FiberRecord(I1, True, CP),), c.bv)

    def test_odd_non_fixed_rejected(self):
        # One unpaired non-fixed type II fiber breaks conjugate pairing.
        with pytest.raises(CensusError, match="conjugate"):
            make_census(3, 4, n_ii=1, fixed_ii=0)

    def test_slack_with_extras(self):
        c = make_census(2, 3, k=2)
        assert census_slack(c) == 2


class TestContributions:
    """Through total_euler: a fixed figure eight counts -6, a fixed circle
    plus point +6, and every other fiber 0."""

    def test_fixed_figure_eight(self):
        c = make_census(1, 3)
        assert c.count(real_type=F8) == 4 and c.count(real_type=CP) == 0
        assert total_euler(c) == 4 * -6

    def test_fixed_circle_point(self):
        c = make_census(3, 1)
        assert c.count(real_type=CP) == 4 and c.count(real_type=F8) == 0
        assert total_euler(c) == 4 * 6

    def test_everything_else_zero(self):
        # 4 circle-point and 6 figure-eight fibers; non-fixed I1 fibers fill
        # the count of 24, and fixed or non-fixed II fibers change nothing.
        for n_ii, fixed_ii in ((0, 0), (2, 0), (2, 2), (4, 2), (3, 1)):
            c = make_census(3, 4, n_ii=n_ii, fixed_ii=fixed_ii)
            assert c.count(kodaira=I1, fixed=False) == 14 - 2 * n_ii
            assert total_euler(c) == 6 * (4 - 6)


class TestTotalEuler:
    def test_three_four(self):
        assert total_euler(make_census(3, 4)) == -12

    def test_trivial_balanced(self):
        assert total_euler(make_census(1, 1)) == 0

    def test_five_two_with_slack(self):
        assert total_euler(make_census(5, 2, k=1)) == 36

    def test_inconsistent_census_rejected(self):
        c = make_census(3, 4)
        # Flip one fixed fiber's type without adjusting the bookkeeping.
        records = list(c.records)
        idx = records.index(FiberRecord(I1, True, CP))
        records[idx] = FiberRecord(I1, True, F8)
        with pytest.raises(CensusError):
            FiberCensus(tuple(records), c.bv)


class TestDualize:
    def test_three_four(self):
        d = dualize_census(make_census(3, 4))
        assert d.bv == BVData(4, 3)
        assert d.count(kodaira=I1, fixed=True, real_type=CP) == 6
        assert d.count(kodaira=I1, fixed=True, real_type=F8) == 4

    def test_negates_total(self):
        c = make_census(3, 4)
        assert total_euler(dualize_census(c)) == -total_euler(c)

    def test_involution(self):
        c = make_census(2, 5, k=1, n_ii=2, fixed_ii=0)
        assert dualize_census(dualize_census(c)) == c

    def test_nprime_zero_rejected(self):
        c = make_census(2, 0, k=2)
        with pytest.raises(K3BVError):
            dualize_census(c)


class TestBaseModel:
    def test_substitution(self):
        p = BasePoint(0, 0, 1, 1, 0)
        assert base_embed(p) == (0, 0, 1, 1, 0, 0)

    def test_involution_invariance(self):
        p = BasePoint(Fraction(3, 5), 0, Fraction(4, 5), 0, 1)
        assert base_embed(p) == base_embed(p.involution_image())

    def test_rational_pythagorean_point(self):
        p = BasePoint(Fraction(3, 5), 0, Fraction(4, 5), 0, 1)
        X, Y, Z, U, V, W = base_embed(p)
        assert (X, Y, Z, U, V, W) == (Fraction(3, 5), 0, Fraction(16, 25), 0, 1, Fraction(4, 5))
        assert X * X + Y * Y + Z == 1
        assert U * U + V == 1
        assert W * W == Z * V

    def test_off_sphere_rejected(self):
        with pytest.raises(K3BVError):
            BasePoint(1, 1, 1, 1, 0)
        with pytest.raises(K3BVError):
            BasePoint(0, 0, 1, 1, 1)
