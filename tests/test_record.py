"""The immutable record base shared by the package's value types."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import k3bv
from k3bv import (BVData, FiberRecord, HodgePair, IntegerLattice, KodairaType, QC,
                  RealFiberType, Sublattice, hyperbolic_plane)
from k3bv.involution import LatticeInvolution


class TestValueSemantics:
    def test_equal_values_are_equal_and_hash_alike(self):
        assert HodgePair(3, 4) == HodgePair(3, 4)
        assert hash(HodgePair(3, 4)) == hash(HodgePair(3, 4))
        assert HodgePair(3, 4) != HodgePair(4, 3)
        assert len({QC(1, 2), QC(Fraction(2, 2), 2), QC(2, 1)}) == 2

    def test_classes_with_equal_fields_differ(self):
        assert BVData(3, 4) != HodgePair(3, 4)
        assert HodgePair(3, 4) != (3, 4)

    def test_cache_is_not_a_field(self, U):
        s = Sublattice(U, ((1, 0),))
        s.gram()
        assert s == Sublattice(U, ((1, 0),))
        assert repr(s) == repr(Sublattice(U, ((1, 0),)))


class TestImmutability:
    def test_assignment_raises(self):
        p = HodgePair(3, 4)
        with pytest.raises(AttributeError):
            p.h11 = 5
        with pytest.raises(AttributeError):
            p.other = 5
        assert p == HodgePair(3, 4)

    def test_deletion_raises(self):
        p = HodgePair(3, 4)
        with pytest.raises(AttributeError):
            del p.h11
        assert p.h11 == 3


class TestConstruction:
    def test_defaults(self):
        assert QC() == QC(0, 0)
        assert QC(im=1) == QC(0, 1)
        assert FiberRecord(KodairaType.I1, False).real_type is None

    def test_keywords(self):
        assert HodgePair(h21=4, h11=3) == HodgePair(3, 4)
        assert BVData(2, n_prime=1) == BVData(2, 1)

    @pytest.mark.parametrize("args, kwargs", [
        ((3,), {}),
        ((3, 4, 5), {}),
        ((3, 4), {"h11": 3}),
        ((), {"h11": 3, "h21": 4, "h31": 5}),
    ])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            HodgePair(*args, **kwargs)

    def test_post_init_normalises(self):
        lat = IntegerLattice([[0, 1], [1, 0]])
        assert lat.gram == ((0, 1), (1, 0))
        assert isinstance(lat.gram, tuple) and isinstance(lat.gram[0], tuple)
        assert lat == hyperbolic_plane(1)
        assert QC(1, 2).re.__class__ is Fraction

    def test_post_init_is_looked_up_on_the_instance(self, monkeypatch, U):
        calls = []
        original = LatticeInvolution.__post_init__

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(LatticeInvolution, "__post_init__", counted)
        LatticeInvolution(U, ((0, 1), (1, 0)))
        assert len(calls) == 1


def test_repr_keeps_field_format():
    record = FiberRecord(KodairaType.I1, True, RealFiberType.FIGURE_EIGHT)
    assert repr(record) == ("FiberRecord(kodaira=<KodairaType.I1: 'I1'>, fixed=True, "
                            "real_type=<RealFiberType.FIGURE_EIGHT: 'figure_eight'>)")
    assert repr(Sublattice(hyperbolic_plane(1), ((1, 0),))) == (
        "Sublattice(ambient=IntegerLattice(gram=((0, 1), (1, 0))), basis=((1, 0),))")


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3bv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, k3bv.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    # -S: a site .pth file may import modules of its own.
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
