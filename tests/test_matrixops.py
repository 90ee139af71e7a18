"""The Hermite-form elimination kernel and Hermite-form lattice equality,
checked against a plain Fraction Gauss-Jordan reference."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from k3bv import (DimensionMismatch, IntegerLattice, K3BVError, Sublattice,
                  SymplecticSpace, direct_sum, e8_minus, hyperbolic_plane,
                  same_sublattice, transpose_defect)
from k3bv import matrixops as mo
from k3bv.lattice import contains

from conftest import basis_vector


# --- Fraction reference ------------------------------------------------------

def ref_rref(a, width):
    """Reduced row echelon form over Q, pivots searched in the first width
    columns (first nonzero row below the pivots), and its pivot columns."""
    rows = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def ncols(a):
    return len(a[0]) if a else 0


def ref_rank(a):
    return len(ref_rref(a, ncols(a))[1])


def ref_solve(a, b):
    n = ncols(a)
    rows, pivots = ref_rref([list(row) + [bv] for row, bv in zip(a, b)], n)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return tuple(x)


def ref_inverse(a):
    n = len(a)
    rows, pivots = ref_rref([list(row) + list(e) for row, e in zip(a, mo.identity(n))], n)
    if len(pivots) < n:
        return None
    return tuple(tuple(row[n:]) for row in rows)


def ref_det(a):
    rows = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


# U(2) + U(3) + E8(-1)^2 + [[-2, 1], [1, 4]], 11% nonzero, with rows and
# columns taken in the order 5i mod 22: many rows stay zero-led for several
# steps under different pivots.
_GRAM = direct_sum(direct_sum(direct_sum(hyperbolic_plane(2), hyperbolic_plane(3)),
                              direct_sum(e8_minus(), e8_minus())),
                   IntegerLattice(((-2, 1), (1, 4)))).gram
SPARSE_GRAM = tuple(tuple(_GRAM[5 * i % 22][5 * j % 22] for j in range(22)) for i in range(22))


# --- strategies --------------------------------------------------------------

ints = st.integers(-4, 4)
rationals = st.one_of(ints, st.fractions(min_value=-4, max_value=4, max_denominator=4))


@st.composite
def matrices(draw, entries=rationals, square=False):
    """Small matrices, including 0 x n and n x 0 shapes, with rows that
    repeat combinations of earlier rows and with all-zero columns."""
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(2, m):
        if draw(st.booleans()):
            c1, c2 = draw(ints), draw(ints)
            rows[i] = [c1 * x + c2 * y for x, y in zip(rows[i - 1], rows[i - 2])]
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return mo.freeze(rows)


@st.composite
def unimodular(draw, n):
    """Products of elementary integer row operations (add, negate, swap)."""
    u = [list(row) for row in mo.identity(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        elif draw(st.booleans()):
            u[i], u[j] = u[j], u[i]
        else:
            c = draw(st.integers(-2, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return mo.freeze(u)


@st.composite
def zero_heavy(draw):
    """Mostly zero square int matrices: a permuted triangular matrix (its
    pivots sit at odd and even distances below the diagonal) or a sparse
    one, sometimes with a zero column, so singular cases occur."""
    n = draw(st.integers(1, 7))
    sparse = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 3))
    if draw(st.booleans()):
        rows = [[draw(sparse) if j > i else draw(st.sampled_from((1, -1, 2, -3))) if j == i
                 else 0 for j in range(n)] for i in range(n)]
    else:
        rows = [[draw(sparse) for _ in range(n)] for _ in range(n)]
    rows = [rows[i] for i in draw(st.permutations(range(n)))]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return mo.freeze(rows)


@st.composite
def independent_bases(draw):
    """(n, B): an r x n integer matrix with linearly independent rows."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=r, max_size=r))
    if ref_rank(rows) < r:
        # Fall back to a unimodular image of coordinate vectors.
        rows = mo.mat_mul(mo.identity(n)[:r], draw(unimodular(n)))
    return n, mo.freeze(rows)


# --- the product against the triple sum --------------------------------------

nonzero_entries = {
    "int": st.integers(-4, 4).filter(bool),
    "Fraction": st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool),
    "mixed": rationals.filter(bool),
}


@st.composite
def sparse_rows(draw, m, n, entries):
    """m rows of length n, each with a drawn number of zeros (0 to n, so
    all-zero, exactly half zero and fully dense rows all occur), each row a
    list or a tuple."""
    rows = []
    for _ in range(m):
        row = [draw(entries) for _ in range(n)]
        for j in draw(st.permutations(range(n)))[:draw(st.integers(0, n))]:
            row[j] = 0
        rows.append(tuple(row) if draw(st.booleans()) else row)
    return rows


@st.composite
def products(draw):
    """(a, b) with a m x k and b k x n, 0 <= m, k, n <= 6, square or not."""
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    if draw(st.booleans()):
        k = n = m
    entries = nonzero_entries[draw(st.sampled_from(sorted(nonzero_entries)))]
    return draw(sparse_rows(m, k, entries)), draw(sparse_rows(k, n, entries))


def triple_sum(a, b):
    n = len(b[0]) if b else 0
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(n))
                 for i in range(len(a)))


class TestProduct:
    @settings(max_examples=300, deadline=None)
    @given(products())
    # Empty shapes, and rows exactly half zero given as lists and tuples.
    @example(((), ((1, 2),)))
    @example((((), ()), ()))
    @example((((1,), (2,)), ((),)))
    @example((((0, 2, 0, -1), [3, 0, Fraction(1, 2), 0], (1, 1, 1, 0)),
              [[1, 0], (0, 1), [2, Fraction(-1, 3)], (1, 1)]))
    # All-zero rows of b, used and unused; Fraction results, one of them 0.
    @example((((1, 2, 3), (0, 4, 0)), ((0, 0), (5, -1), (0, 0))))
    @example((((Fraction(1, 2), 0, 3), (0, 0, 0)),
              ((Fraction(2, 3), 1), (0, 0), (1, Fraction(-1, 6)))))
    def test_matches_triple_sum(self, ab):
        a, b = ab
        out = mo.mat_mul(a, b)
        assert type(out) is tuple and all(type(row) is tuple for row in out)
        assert out == triple_sum(a, b)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.data())
    def test_dimension_mismatch(self, m, k, k2, n, data):
        if k2 == k:
            k2 += 1
        a = data.draw(sparse_rows(m, k, nonzero_entries["mixed"]))
        b = data.draw(sparse_rows(k2, n, nonzero_entries["mixed"]))
        with pytest.raises(DimensionMismatch, match=f"^cannot multiply {m}x{k} by {k2}x{n}$"):
            mo.mat_mul(a, b)


@st.composite
def pair_products(draw):
    """(a, v, w): a m x n with 0 <= m, n <= 6, sparse or dense rows and a
    drawn set of zero columns, and two rational vectors of length n."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = nonzero_entries[draw(st.sampled_from(sorted(nonzero_entries)))]
    zero_columns = draw(st.sets(st.integers(0, n - 1))) if n else set()
    a = [tuple(0 if j in zero_columns else x for j, x in enumerate(row))
         for row in draw(sparse_rows(m, n, entries))]
    v, w = (tuple(draw(st.lists(rationals, min_size=n, max_size=n))) for _ in range(2))
    return a, v, w


class TestProductPair:
    @settings(max_examples=300, deadline=None)
    @given(pair_products())
    # No rows; rows of no entries; a zero row, a zero column and a dense row.
    @example(((), (1, 2), (3, 4)))
    @example((((), ()), (), ()))
    @example((((0, 0, 0), (0, 5, -1), (2, 0, 3)), (1, 2, 3), (Fraction(1, 2), 0, -1)))
    def test_matches_two_products(self, avw):
        a, v, w = avw
        av, aw = mo.mat_vec_pair(mo.nonzeros(a), v, w)
        assert (av, aw) == (mo.mat_vec(a, v), mo.mat_vec(a, w))
        assert type(av) is tuple and type(aw) is tuple


# --- the kernel against the reference ---------------------------------------

class TestKernelAgainstReference:
    @given(matrices())
    def test_rank(self, a):
        assert mo.rank_rational(a) == ref_rank(a)

    @given(matrices(), st.data())
    def test_solve(self, a, data):
        n = ncols(a)
        if data.draw(st.booleans()):
            x = data.draw(st.lists(rationals, min_size=n, max_size=n))
            b = mo.mat_vec(a, tuple(x)) if a else ()
        else:
            b = tuple(data.draw(st.lists(rationals, min_size=len(a), max_size=len(a))))
        sol = mo.solve_rational(a, b)
        assert sol == ref_solve(a, b)
        if sol is not None:
            assert all(isinstance(x, Fraction) for x in sol)
            assert mo.mat_vec(a, sol) == tuple(b) or not a

    def test_solve_inconsistent(self):
        a = ((1, 2), (2, 4))
        assert mo.solve_rational(a, (1, 3)) is None
        assert mo.solve_rational(((0, 0),), (1,)) is None
        assert mo.solve_rational(((), ()), (0, 1)) is None

    def test_solve_free_variables_are_zero(self):
        assert mo.solve_rational(((0, 2, 4),), (6,)) == (0, 3, 0)

    @given(matrices(square=True))
    def test_rational_inverse(self, a):
        expected = ref_inverse(a)
        if expected is None:
            with pytest.raises(DimensionMismatch):
                mo.rational_inverse(a)
        else:
            inv = mo.rational_inverse(a)
            assert inv == expected
            assert all(isinstance(x, Fraction) for row in inv for x in row)

    @given(st.sampled_from(sorted(nonzero_entries)).flatmap(
        lambda kind: matrices(entries=st.one_of(st.just(0), nonzero_entries[kind]), square=True)))
    @example(((0, 2), (3, 1)))
    @example(((Fraction(1, 2), 0), (1, Fraction(-2, 3))))
    def test_inverse_contract(self, a):
        # a^-1 = Y / d with d > 0, and d = |det a| for an integer a.
        if ref_det(a) == 0:
            with pytest.raises(DimensionMismatch, match="^matrix is singular over Q$"):
                mo._inverse(a)
            return
        y, d = mo._inverse(a)
        assert type(d) is int and d > 0
        assert all(type(x) is int for row in y for x in row)
        if all(type(x) is int for row in a for x in row):
            assert d == abs(mo.bareiss_det(a))
        inv = mo.freeze((Fraction(x, d) for x in row) for row in y)
        assert mo.mat_mul(inv, a) == mo.identity(len(a))

    @given(st.integers(0, 6).flatmap(unimodular))
    def test_integer_inverse_of_unimodular(self, u):
        inv = mo.integer_inverse(u)
        assert inv == ref_inverse(u)
        assert all(type(x) is int for row in inv for x in row)
        assert mo.mat_mul(u, inv) == mo.identity(len(u))

    @given(matrices(entries=ints, square=True))
    def test_integer_inverse_rejects_non_unimodular(self, a):
        det = ref_det(a)
        if abs(det) == 1:
            assert mo.integer_inverse(a) == ref_inverse(a)
        else:
            with pytest.raises(DimensionMismatch):
                mo.integer_inverse(a)

    @given(st.one_of(matrices(entries=ints, square=True), zero_heavy()))
    @example(((0, 1), (1, 0)))
    @example(((0, 0, 2), (3, 0, 0), (0, 5, 0)))
    @example(((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))
    @example(((0, 2, 0), (0, 0, 3), (0, 1, 0)))
    def test_det(self, a):
        assert mo.bareiss_det(a) == ref_det(a)

    @pytest.mark.parametrize("a,det", [
        # Row 1 stays zero-led under pivots 2 and 5, then is the pivot; rows
        # 2 and 3 stay zero-led for two and three steps, then are updated.
        (((2, -1, 0, -1, 1), (0, 0, 3, 0, 3), (0, 0, 2, 3, 0), (0, 0, 0, 1, 0),
          (3, 1, 0, 0, 0)), -30),
        # Row 2 stays zero-led under pivots 3, 6 and 12, then is the pivot.
        (((0, 2, 2, 0, 0), (0, -1, 1, 3, 3), (0, 0, 0, 2, 3), (0, 0, 3, 0, 3),
          (3, 1, 3, 0, 0)), 126),
        (SPARSE_GRAM, -324),
    ], ids=("two-steps", "three-steps", "sparse-gram"))
    def test_det_of_rows_left_zero_led(self, a, det):
        assert mo.bareiss_det(a) == ref_det(a) == det

    @pytest.mark.parametrize("a", [((Fraction(1, 2),),), ((1, 0), (0, Fraction(2))),
                                   ((1.0, 0), (0, 1)), ((0, 1), (1, "2"))])
    def test_det_rejects_non_int_entries(self, a):
        # Clearing denominators row by row would scale the determinant.
        with pytest.raises(DimensionMismatch, match="^determinant entries must be integers$"):
            mo.bareiss_det(a)

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            mo.rational_inverse(((1, 2),))
        with pytest.raises(DimensionMismatch):
            mo.bareiss_det(((1, 2),))

    def test_empty(self):
        assert mo.rank_rational(()) == 0
        assert mo.rank_rational(((), ())) == 0
        assert mo.rational_inverse(()) == ()
        assert mo.integer_inverse(()) == ()
        assert mo.bareiss_det(()) == 1
        assert mo.integer_kernel(()) == ()
        assert mo.saturate((), 0) == ()


class TestFractionEntryPaths:
    def test_symplectic_form_with_fractions(self):
        half = Fraction(1, 2)
        assert SymplecticSpace(((0, half), (-half, 0))).dim == 2
        with pytest.raises(K3BVError):
            SymplecticSpace(((0, half, 0, 0), (-half, 0, 0, 0),
                             (0, 0, 0, 0), (0, 0, 0, 0)))

    def test_transpose_defect_with_fractions(self):
        half = Fraction(1, 2)
        v = SymplecticSpace(((0, half), (-half, 0)))
        # det(phi) = -1, so phi^T F phi = -F for every 2 x 2 skew F.
        phi = ((3, 1), (Fraction(1, 3), Fraction(-2, 9)))
        assert transpose_defect(v, v, phi) == ((0, 0), (0, 0))

    def test_float_form_entries_read_exactly(self):
        # A float is not an exact rational, even when it is integral or a
        # dyadic fraction that binary reads without rounding.
        message = "^matrix entries must be integers or fractions$"
        for form in (((0, 0.5), (-0.5, 0)), ((0, 1.0), (-1.0, 0))):
            with pytest.raises(DimensionMismatch, match=message):
                SymplecticSpace(form)
        form = SymplecticSpace(((0, Fraction(1)), (Fraction(-1), 0))).form
        assert form == ((0, 1), (-1, 0)) and all(type(x) is int for row in form for x in row)

    def test_transpose_defect_with_float_entry(self):
        # det(phi) = -1, so phi is anti-symplectic for the standard form;
        # with 1/2 as a float it is refused before any arithmetic.
        v = SymplecticSpace.standard(2)
        message = "^matrix entries must be integers or fractions$"
        with pytest.raises(DimensionMismatch, match=message):
            transpose_defect(v, v, ((1, 0), (0.5, -1)))


# --- Hermite-form equality ---------------------------------------------------

class TestHermiteEquality:
    @given(independent_bases(), st.data())
    def test_unimodular_change_of_basis(self, nb, data):
        n, b = nb
        u = data.draw(unimodular(len(b)))
        lat = IntegerLattice(mo.identity(n))
        s, s2 = Sublattice(lat, b), Sublattice(lat, mo.mat_mul(u, b))
        assert all(contains(s, row) for row in s2.basis)
        assert all(contains(s2, row) for row in s.basis)
        assert same_sublattice(s, s2)
        assert mo.hermite_normal_form(b) == mo.hermite_normal_form(s2.basis)

    @given(independent_bases(), st.data())
    def test_index_two(self, nb, data):
        n, b = nb
        u = data.draw(unimodular(len(b)))
        half = (tuple(2 * x for x in b[0]),) + b[1:]
        lat = IntegerLattice(mo.identity(n))
        s, s2 = Sublattice(lat, b), Sublattice(lat, mo.mat_mul(u, half))
        assert all(contains(s, row) for row in s2.basis)
        assert not all(contains(s2, row) for row in s.basis)
        assert not same_sublattice(s, s2)
        assert not same_sublattice(s2, s)

    def test_form(self):
        assert mo.hermite_normal_form(((2, 3), (4, 5))) == ((2, 0), (0, 1))
        assert mo.hermite_normal_form(((1, 7), (0, -3))) == ((1, 1), (0, 3))
        assert mo.hermite_normal_form(((0, -3), (0, 6))) == ((0, 3), (0, 0))

    def test_half_zero_pivot_rows(self):
        # The first pivot row (2, 0, 3, 0) updates the rows below in place
        # at its two nonzero positions, the second, (0, 1, -6, 5), at its
        # three. |det| = 2 * 1 * 2 * 55.
        a = ((2, 0, 3, 0), (4, 1, 0, 5), (6, 2, 1, 1), (0, 3, 0, 2))
        h = ((2, 0, 1, 32), (0, 1, 0, 19), (0, 0, 2, 23), (0, 0, 0, 55))
        assert mo.hermite_normal_form(a) == h
        assert abs(mo.bareiss_det(a)) == 220 and spans_within(a, h)


# --- kernels and saturation from the Hermite form ---------------------------

def snf_is_trivial(rows):
    """A basis spans a saturated lattice exactly when its Smith invariants
    are all 1."""
    return all(d == 1 for d in mo.smith_normal_form(rows).invariants)


def spans_within(rows, basis):
    """Every row lies in the Z-span of basis: appending the rows leaves the
    Hermite form of basis unchanged apart from zero rows."""
    h = mo.hermite_normal_form(tuple(basis) + tuple(rows))
    return h[:len(basis)] == tuple(basis) and not any(any(row) for row in h[len(basis):])


def kernel_of(a, n):
    """Basis of {v in Z^n : a v = 0}: the right parts of the rows of the HNF
    of [a^T | I] whose left part is zero, since an echelon basis of a
    lattice meets 0 x Z^n in a basis of that intersection."""
    m = len(a)
    h = mo.hermite_normal_form(tuple(tuple(row[j] for row in a) + e
                                     for j, e in enumerate(mo.identity(n))))
    return tuple(row[m:] for row in h if not any(row[:m]))


@st.composite
def spanning_rows(draw):
    """(rows, n): up to 8 rows in Z^n, n <= 5, so more rows than columns
    occur; a row may be drawn, zero, a combination of the two before it,
    or a multiple c * row with 2 <= |c| <= 4."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=8))
    for i, row in enumerate(rows):
        kind = draw(st.sampled_from(("drawn", "zero", "combination", "scaled")))
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "combination" and i >= 2:
            c1, c2 = draw(ints), draw(ints)
            rows[i] = [c1 * x + c2 * y for x, y in zip(rows[i - 1], rows[i - 2])]
        elif kind == "scaled":
            c = draw(st.sampled_from((2, 3, 4, -2, -3, -4)))
            rows[i] = [c * x for x in row]
    return mo.freeze(rows), n


class TestHermiteKernels:
    @given(matrices(entries=ints))
    def test_integer_kernel(self, a):
        k = mo.integer_kernel(a)
        assert type(k) is tuple and all(type(row) is tuple for row in k)
        s = Sublattice(IntegerLattice(mo.identity(ncols(a))), k)
        assert s._hnf is s.basis
        assert len(k) == ncols(a) - ref_rank(a)
        assert all(not any(mo.mat_vec(a, v)) for v in k)
        assert k == mo.hermite_normal_form(k)
        assert snf_is_trivial(k)

    @given(matrices(entries=ints))
    def test_two_pass_kernel_is_the_one_pass_form(self, a):
        # The reference is one _hermite pass over all m + n columns of
        # [a^T | I]: the right parts of its rows with zero left part are
        # echelon and reduced, so they are the kernel's HNF. integer_kernel
        # eliminates only the m columns of a^T and then takes the HNF of the
        # kernel rows in a second pass; by uniqueness the rows must agree.
        m, n = len(a), ncols(a)
        rows = mo._hermite([[row[j] for row in a] + list(e)
                            for j, e in enumerate(mo.identity(n))], m + n)
        one_pass = tuple(tuple(row[m:]) for row in rows if not any(row[:m]))
        assert mo.integer_kernel(a) == one_pass
        h = mo.hermite_normal_form(a)
        assert mo.hermite_normal_form(h) == h

    @given(matrices(entries=ints), st.integers(1, 3))
    def test_saturate(self, a, c):
        n = ncols(a)
        sat = mo.saturate(a, n)
        assert len(sat) == ref_rank(a)
        assert sat == mo.hermite_normal_form(sat)
        assert snf_is_trivial(sat)
        assert spans_within(a, sat)
        assert mo.saturate(tuple(tuple(c * x for x in row) for row in a), n) == sat

    @settings(max_examples=300, deadline=None)
    @given(spanning_rows())
    def test_saturate_is_kernel_of_kernel(self, rn):
        rows, n = rn
        assert mo.saturate(rows, n) == mo.hermite_normal_form(kernel_of(kernel_of(rows, n), n))

    def test_kernel_of_zero_row_is_everything(self):
        assert mo.integer_kernel(((0, 0, 0),)) == mo.identity(3)
        assert mo.saturate(((0, 0, 0),), 3) == ()
        assert mo.saturate((), 2) == ()

    def test_full_rank_saturates_to_identity(self):
        assert mo.integer_kernel(((2, 0), (0, 3))) == ()
        assert mo.saturate(((2, 0), (0, 3)), 2) == mo.identity(2)


# --- returned bases are pinned -----------------------------------------------

class TestPinnedBases:
    def test_uu_split(self, uu_split):
        assert uu_split.m_check.basis == ((0, 0, 1, 0), (0, 0, 0, 1))

    def test_k3_split(self, k3_split):
        _, t, split = k3_split
        assert split.m_check.basis == tuple(basis_vector(20, i) for i in range(2, 20))

    def test_skewed_splits(self):
        from test_mirrormap import _skewed_k3_split, _skewed_u2_split

        digests = []
        for make in (_skewed_k3_split, _skewed_u2_split):
            split, _ = make()
            digests.append(hashlib.sha256(
                repr((split.t.basis, split.m_check.basis)).encode()).hexdigest())
        assert digests == [
            "f3e240c62bab08fc502d7106aa3e1a60bc88d2f23f873d04176376fc0edcaedd",
            "b4b56ac5efa66d755487fa963d9804dbb15ff1b2322f8ba147b908dd18e072bd"]
