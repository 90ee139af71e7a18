"""One exact-number rule at every boundary: an exact integer is an int that
is not a bool, an exact rational is one of those or a Fraction, and
anything else is refused with a DimensionMismatch naming the input."""

from fractions import Fraction

import pytest

from k3bv import (BasePoint, BVData, DimensionMismatch, IntegerLattice,
                  LatticeInvolution, PeriodVector, Sublattice, SymplecticSpace,
                  TubePoint, bv_mirror_period, bv_table, check_admissible,
                  coordinates_in, divisibility, hyperbolic_plane, is_primitive,
                  pairing, rotation_table, transpose_defect, y_betti)
from k3bv import matrixops as mo
from k3bv.cnum import QC

U = hyperbolic_plane(1)
UU = IntegerLattice(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
FULL_U, FULL_UU = Sublattice.full(U), Sublattice.full(UU)
I3 = IntegerLattice(mo.identity(3))
STD2 = SymplecticSpace.standard(2)
INTS = "must be integers"
RATIONALS = "must be integers or fractions"

# name -> (call with the value x in one place, the message it must raise).
# Each call is valid with x = 0, or x = 1 for INTEGER_PLACES, so only the
# type of x can make it fail.
BOUNDARIES = {
    "IntegerLattice": (lambda x: IntegerLattice(((0, x), (x, 0))), f"Gram entries {INTS}"),
    "Sublattice": (lambda x: Sublattice(U, ((1, x),)), f"generator entries {INTS}"),
    "pairing": (lambda x: pairing(U, (x, 0), (0, 1)), f"vector entries {RATIONALS}"),
    "coordinates_in": (lambda x: coordinates_in(FULL_U, (x, 0)), f"vector entries {RATIONALS}"),
    "check_admissible E": (lambda x: check_admissible(FULL_UU, (1, x, 0, 0), (0, 1, 0, 0), 1),
                           f"vector entries {RATIONALS}"),
    "check_admissible E'": (lambda x: check_admissible(FULL_UU, (1, 0, 0, 0), (x, 1, 0, 0), 1),
                            f"vector entries {RATIONALS}"),
    "LatticeInvolution": (lambda x: LatticeInvolution(U, ((0, 1), (1, x))),
                          f"involution entries {INTS}"),
    "SymplecticSpace": (lambda x: SymplecticSpace(((x, 1), (-1, 0))),
                        f"matrix entries {RATIONALS}"),
    "transpose_defect": (lambda x: transpose_defect(STD2, STD2, ((1, 0), (x, -1))),
                         f"matrix entries {RATIONALS}"),
    "bareiss_det": (lambda x: mo.bareiss_det(((1, 0), (0, x))), f"determinant entries {INTS}"),
    "smith_normal_form": (lambda x: mo.smith_normal_form(((2, 4), (6, x))),
                          f"Smith form entries {INTS}"),
    "hermite_normal_form": (lambda x: mo.hermite_normal_form(((2, 4), (6, x))),
                            f"Hermite form entries {INTS}"),
    "integer_kernel": (lambda x: mo.integer_kernel(((1, 2), (3, x))),
                       f"kernel matrix entries {INTS}"),
    "integer_inverse": (lambda x: mo.integer_inverse(((1, 0), (x, 1))),
                        f"inverse matrix entries {INTS}"),
    "rational_inverse": (lambda x: mo.rational_inverse(((1, 0), (x, 1))),
                         f"inverse matrix entries {RATIONALS}"),
    "rank_rational": (lambda x: mo.rank_rational(((1, x),)), f"rank matrix entries {RATIONALS}"),
    "solve_rational a": (lambda x: mo.solve_rational(((1, x),), (1,)),
                         f"system entries {RATIONALS}"),
    "solve_rational b": (lambda x: mo.solve_rational(((1, 0),), (x,)),
                         f"right-hand side entries {RATIONALS}"),
    "mat_vec a": (lambda x: mo.mat_vec(((1, x),), (1, 1)), f"matrix entries {RATIONALS}"),
    "mat_vec v": (lambda x: mo.mat_vec(((1, 2),), (x, 1)), f"vector entries {RATIONALS}"),
    "TubePoint B": (lambda x: TubePoint(FULL_U, (x, 0), (1, 1)), f"B coordinates {RATIONALS}"),
    "TubePoint omega": (lambda x: TubePoint(FULL_U, (0, 0), (1, x)),
                        f"omega coordinates {RATIONALS}"),
    "PeriodVector": (lambda x: PeriodVector(FULL_UU, (1, x, 0, 0), (0, 0, 1, 1)),
                     f"re coordinates {RATIONALS}"),
    "QC": (lambda x: QC(x, 1), f"real and imaginary parts {RATIONALS}"),
    "BasePoint": (lambda x: BasePoint(1, 0, x, 1, 0), f"base point coordinates {RATIONALS}"),
    "rotation_table": (lambda x: rotation_table((1, x, 0), (0, 1, 0), (0, 0, 1), I3),
                       f"vector entries {RATIONALS}"),
    "bv_mirror_period": (lambda x: bv_mirror_period(TubePoint(FULL_U, (0, 0), (1, 1)), (x, 1)),
                         f"real and imaginary parts {RATIONALS}"),
    "BVData": (lambda x: BVData(2, x), f"N and N' {INTS}"),
    "check_admissible m": (lambda x: check_admissible(FULL_UU, (1, 0, 0, 0), (0, 1, 0, 0), x),
                           f"m {INTS}"),
    "hyperbolic_plane": (lambda x: hyperbolic_plane(x), f"m {INTS}"),
    "bv_table": (lambda x: bv_table(x), f"rank of M {INTS}"),
    "y_betti": (lambda x: y_betti(x), f"rank of M {INTS}"),
}
INTEGER_PLACES = ("check_admissible m", "hyperbolic_plane", "bv_table", "y_betti")


@pytest.mark.parametrize("name", BOUNDARIES)
@pytest.mark.parametrize("value", [True, 0.5, 2.0, "1", None], ids=repr)
def test_inexact_value_is_refused(name, value):
    call, message = BOUNDARIES[name]
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        call(value)


# name -> a call that passes a non-sequence where rows or a vector go.
NON_SEQUENCES = {
    "IntegerLattice int": lambda: IntegerLattice(5),
    "IntegerLattice int rows": lambda: IntegerLattice((1, 2)),
    "Sublattice int rows": lambda: Sublattice(U, (1, 0)),
    "LatticeInvolution": lambda: LatticeInvolution(U, 5),
    "SymplecticSpace": lambda: SymplecticSpace(5),
    "TubePoint B": lambda: TubePoint(FULL_U, 5, (1, 1)),
    "PeriodVector re": lambda: PeriodVector(FULL_U, None, (1, 1)),
    "coordinates_in": lambda: coordinates_in(FULL_U, None),
    "pairing": lambda: pairing(U, 5, (1, 0)),
    "divisibility": lambda: divisibility(FULL_U, None),
    "is_primitive": lambda: is_primitive(FULL_U, 5),
    "smith_normal_form": lambda: mo.smith_normal_form(5),
    "smith_normal_form int rows": lambda: mo.smith_normal_form((1, 2)),
    "hermite_normal_form": lambda: mo.hermite_normal_form(5),
    "integer_kernel int rows": lambda: mo.integer_kernel((1, 2)),
    "solve_rational": lambda: mo.solve_rational(5, (1,)),
    "solve_rational b": lambda: mo.solve_rational(((1, 0),), 5),
    "mat_vec int rows": lambda: mo.mat_vec((1, 2), (1,)),
    "mat_vec v": lambda: mo.mat_vec(((1, 0),), None),
}


@pytest.mark.parametrize("name", NON_SEQUENCES)
def test_non_sequence_is_refused(name):
    with pytest.raises(DimensionMismatch, match="^rows and vectors must be sequences$"):
        NON_SEQUENCES[name]()


# name -> (the function, the name its error gives its matrix).
MATRIX_INPUTS = {
    "smith_normal_form": (mo.smith_normal_form, "Smith form"),
    "hermite_normal_form": (mo.hermite_normal_form, "Hermite form"),
    "integer_kernel": (mo.integer_kernel, "kernel matrix"),
    "solve_rational": (lambda a: mo.solve_rational(a, (1, 1)), "system"),
    "mat_vec": (lambda a: mo.mat_vec(a, (1, 1)), "matrix"),
    "transpose": (mo.transpose, "matrix"),
    "vec_mat": (lambda a: mo.vec_mat((1, 1), a), "matrix"),
    "integer_inverse": (mo.integer_inverse, "inverse matrix"),
    "rational_inverse": (mo.rational_inverse, "inverse matrix"),
    "rank_rational": (mo.rank_rational, "rank matrix"),
}


@pytest.mark.parametrize("name", MATRIX_INPUTS)
@pytest.mark.parametrize("a", [((1, 2), (3,)), ((1,), (2, 3)), ((), (1,))], ids=repr)
def test_ragged_rows_are_refused(name, a):
    # Each would take the first row's length for every row's, and drop, pad
    # or misplace the other rows' entries or fail on an index.
    call, what = MATRIX_INPUTS[name]
    with pytest.raises(DimensionMismatch, match=f"^{what} rows must have equal length$"):
        call(a)


@pytest.mark.parametrize("name", BOUNDARIES)
def test_exact_value_is_taken(name):
    call, message = BOUNDARIES[name]
    valid = 1 if name in INTEGER_PLACES else 0
    call(valid)
    if message.endswith(RATIONALS):
        call(Fraction(valid))
    else:
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            call(Fraction(valid))


def test_exact_values_pass_through_unchanged():
    half = Fraction(1, 2)
    p = TubePoint(FULL_U, (half, 1), (1, 1))
    assert p.b[0] is half and type(p.b[1]) is int

