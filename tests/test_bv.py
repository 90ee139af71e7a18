"""Hodge numbers, Euler characteristic, and the mirror swap."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from k3bv import (BVData, K3BVError, SelfMirrorLocus, euler_characteristic,
                  hodge_numbers, mirror_swap)


class TestHodgeNumbers:
    def test_five_two(self):
        h = hodge_numbers(BVData(5, 2))
        assert (h.h11, h.h21) == (34, 16)

    def test_one_one(self):
        h = hodge_numbers(BVData(1, 1))
        assert (h.h11, h.h21) == (15, 15)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_diagonal_is_self_mirror(self, n):
        h = hodge_numbers(BVData(n, n))
        assert h.h11 == h.h21

    def test_self_mirror_marker_rejected(self):
        with pytest.raises(K3BVError):
            hodge_numbers(SelfMirrorLocus.EMPTY)
        with pytest.raises(K3BVError):
            euler_characteristic(SelfMirrorLocus.TWO_ELLIPTIC_CURVES)

    def test_nonpositive_range_rejected(self):
        with pytest.raises(K3BVError):
            hodge_numbers(BVData(1, 17))


class TestEulerCharacteristic:
    @pytest.mark.parametrize("n,np_,expected", [(5, 2, 36), (2, 2, 0), (3, 4, -12)])
    def test_values(self, n, np_, expected):
        assert euler_characteristic(BVData(n, np_)) == expected


class TestMirrorSwap:
    def test_swap(self):
        assert mirror_swap(BVData(3, 4)) == BVData(4, 3)

    def test_involution(self):
        d = BVData(6, 2)
        assert mirror_swap(mirror_swap(d)) == d

    @pytest.mark.parametrize("marker", list(SelfMirrorLocus))
    def test_self_mirror_marker_is_its_own_mirror(self, marker):
        assert mirror_swap(marker) is marker

    def test_no_mirror_when_nprime_zero(self):
        with pytest.raises(K3BVError, match="N' = 0"):
            mirror_swap(BVData(2, 0))


class TestValidation:
    def test_n_must_be_positive(self):
        with pytest.raises(K3BVError):
            BVData(0, 1)

    def test_nprime_nonnegative(self):
        with pytest.raises(K3BVError):
            BVData(1, -1)
        assert BVData(1, 0).n_prime == 0

    @pytest.mark.parametrize("n,np_", [(1.5, 2), (2, 2.0), (Fraction(3), 1), ("2", 1)])
    def test_non_int_fields_rejected(self, n, np_):
        # 1.5 would give the Hodge pair (16.5, 19.5).
        with pytest.raises(K3BVError, match="^N and N' must be integers$"):
            hodge_numbers(BVData(n, np_))


@given(st.integers(1, 11), st.integers(1, 11))
def test_duality_grid(n, np_):
    d = BVData(n, np_)
    h = hodge_numbers(d)
    s = mirror_swap(d)
    hs = hodge_numbers(s)
    assert (hs.h11, hs.h21) == (h.h21, h.h11)
    assert euler_characteristic(d) == 2 * (h.h11 - h.h21) == 12 * (n - np_)
    assert euler_characteristic(s) == -euler_characteristic(d)
