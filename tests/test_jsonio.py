"""JSON schemas and canonical rendering."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3bv import K3BVError, KodairaType, RealFiberType, k3_lattice
from k3bv.jsonio import (census_from_json, census_to_json, cleared_to_json, dumps,
                         int_from_json, involution_from_json, lattice_from_json,
                         lattice_to_json, parse_coords, rational_from_str,
                         sublattice_from_json, sublattice_to_json)


class TestRationals:
    @pytest.mark.parametrize("value,text", [
        (Fraction(1, 2), "1/2"),
        (Fraction(-3, 4), "-3/4"),
        (Fraction(5), "5"),
        (Fraction(2, 4), "1/2"),
    ])
    def test_round_trip(self, value, text):
        assert dumps(value) == f'"{text}"'
        assert rational_from_str(text) == value

    def test_negative_denominator_rejected(self):
        # only canonical "p/q" with q > 0 is accepted
        with pytest.raises(K3BVError):
            rational_from_str("3/-6")

    def test_garbage_rejected(self):
        with pytest.raises(K3BVError):
            rational_from_str("one half")
        with pytest.raises(K3BVError):
            rational_from_str("1/0")
        with pytest.raises(K3BVError):
            rational_from_str(0.1)

    def test_parse_coords(self):
        assert parse_coords("1,0,3/2,-1") == (1, 0, Fraction(3, 2), -1)
        assert parse_coords("") == ()


class TestIntegers:
    @pytest.mark.parametrize("value,expected", [
        (3, 3), (-7, -7), ("12", 12), ("6/3", 2), ("-4/2", -2), (Fraction(8, 4), 2),
    ])
    def test_integral(self, value, expected):
        assert int_from_json(value) == expected
        assert type(int_from_json(value)) is int

    @pytest.mark.parametrize("value", [1.0, 1.7, True, False, "3/2", Fraction(1, 3),
                                       "x", None, [1], "1/0"])
    def test_rejected(self, value):
        with pytest.raises(K3BVError):
            int_from_json(value)

    def test_matrices_are_strict(self):
        with pytest.raises(K3BVError):
            lattice_from_json({"gram": [[2.0]]})
        with pytest.raises(K3BVError):
            sublattice_from_json({"ambient": "U", "basis": [[1, False]]})
        with pytest.raises(K3BVError):
            involution_from_json({"lattice": "U", "matrix": [[0, 1], [1, 0.0]]})


class TestLatticeJson:
    def test_round_trip(self, UU):
        assert lattice_from_json(lattice_to_json(UU)) == UU

    def test_catalog_name(self):
        assert lattice_from_json("K3") == k3_lattice()

    def test_rank_consistency_checked(self):
        with pytest.raises(K3BVError):
            lattice_from_json({"rank": 3, "gram": [[0, 1], [1, 0]]})

    def test_missing_gram(self):
        with pytest.raises(K3BVError):
            lattice_from_json({"rank": 2})


class TestSublatticeJson:
    def test_round_trip(self, UU):
        from k3bv import Sublattice
        s = Sublattice(UU, ((1, 0, 0, 0), (0, 0, 1, 1)))
        assert sublattice_from_json(sublattice_to_json(s)) == s

    def test_bare_lattice_means_full(self):
        s = sublattice_from_json("U")
        assert s.rank == 2 and s.basis == ((1, 0), (0, 1))


class TestInvolutionJson:
    def test_build(self):
        inv = involution_from_json({"lattice": "U", "matrix": [[0, 1], [1, 0]]})
        assert inv.apply((1, 0)) == (0, 1)


class TestCensusJson:
    def test_round_trip(self):
        obj = {"n": 2, "nprime": 1, "fibers": (
            [{"kodaira": "I1", "fixed": True, "real": "circle_point"}] * 2
            + [{"kodaira": "I1", "fixed": False}] * 22)}
        c = census_from_json(obj)
        assert c.bv.n == 2
        assert c.records[0].real_type is RealFiberType.CIRCLE_POINT
        assert c.records[-1].kodaira is KodairaType.I1
        assert census_from_json(census_to_json(c)) == c

    def test_bad_field(self):
        with pytest.raises(K3BVError):
            census_from_json({"n": 1, "fibers": []})


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [Fraction is None]})
    b = dumps({"a": [False], "b": 1})
    assert a == b


@pytest.mark.parametrize("value", [object(), 1j, {1}, k3_lattice()])
def test_dumps_refuses_other_objects(value):
    # Only Fractions are rendered as text; anything else JSON cannot hold is an error.
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps({"a": [value]})


@given(st.lists(st.integers(-10**6, 10**6), max_size=6), st.integers(1, 10**4))
def test_cleared_to_json_writes_each_entry_as_dumps_writes_its_fraction(n, d):
    texts = cleared_to_json((n, d))
    assert dumps(texts) == dumps([Fraction(x, d) for x in n])
