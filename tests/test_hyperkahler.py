"""Rotation table of cohomology classes."""

import pytest

from k3bv import NormalizationError, direct_sum, hyperbolic_plane, pairing, rotation_table


def u3():
    u = hyperbolic_plane(1)
    return direct_sum(direct_sum(u, u), u)


RE = (1, 1, 0, 0, 0, 0)
IM = (0, 0, 1, 1, 0, 0)
W = (0, 0, 0, 0, 1, 1)


class TestRotationTable:
    def test_k_row(self):
        table = rotation_table(RE, IM, W, u3())
        assert table.k.holo_re == IM
        assert table.k.holo_im == W
        assert table.k.kahler == RE

    def test_i_row_is_input(self):
        table = rotation_table(RE, IM, W, u3())
        assert table.i.holo_re == RE
        assert table.i.holo_im == IM
        assert table.i.kahler == W

    def test_norm_mismatch_named(self):
        with pytest.raises(NormalizationError, match="omega"):
            rotation_table(RE, IM, (0, 0, 0, 0, 2, 1), u3())

    def test_orthogonality_failure_named(self):
        bad_im = (1, 1, 0, 0, 0, 0)
        with pytest.raises(NormalizationError):
            rotation_table(RE, bad_im, W, u3())

    def test_rows_satisfy_period_conditions(self):
        lat = u3()
        table = rotation_table(RE, IM, W, lat)
        for row in (table.i, table.j, table.k):
            re2 = pairing(lat, row.holo_re, row.holo_re)
            im2 = pairing(lat, row.holo_im, row.holo_im)
            assert re2 == im2 > 0
            assert pairing(lat, row.holo_re, row.holo_im) == 0

    def test_permuted_input_k_row_matches_j_pattern(self):
        original = rotation_table(RE, IM, W, u3())
        permuted = rotation_table(IM, W, RE, u3())
        assert permuted.k == original.j
