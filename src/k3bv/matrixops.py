"""Exact matrix arithmetic over Z and Q.

Matrices are tuples of tuples (rows); vectors are tuples. Entries are
Python ints or fractions.Fraction. Rank, determinant, solutions and
inverses all come from one fraction-free (Bareiss) Gauss-Jordan kernel
over int; a Fraction is built only for a result. Lattice equality uses
the row Hermite normal form. Ranks in this package never exceed 22.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch

Matrix = tuple[tuple, ...]
Vector = tuple


def freeze(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(m: int, n: int) -> Matrix:
    return tuple((0,) * n for _ in range(m))


def transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    return tuple(zip(*a))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a and len(a[0]) != len(v):
        raise DimensionMismatch(f"matrix has {len(a[0])} columns, vector has {len(v)}")
    return tuple(sum(map(mul, row, v)) for row in a)


def vec_mat(v: Vector, a: Matrix) -> Vector:
    return mat_vec(transpose(a), v)


def dot(v: Vector, w: Vector) -> object:
    if len(v) != len(w):
        raise DimensionMismatch(f"vectors of length {len(v)} and {len(w)}")
    return sum(map(mul, v, w))


def scale_vec(c, v: Vector) -> Vector:
    return tuple(c * x for x in v)


def add_vec(v: Vector, w: Vector) -> Vector:
    if len(v) != len(w):
        raise DimensionMismatch(f"vectors of length {len(v)} and {len(w)}")
    return tuple(x + y for x, y in zip(v, w))


def sub_vec(v: Vector, w: Vector) -> Vector:
    return add_vec(v, scale_vec(-1, w))


def is_symmetric(a: Matrix) -> bool:
    return all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(i))


def bareiss_det(a: Matrix) -> int:
    """Exact determinant of an integer matrix: the last pivot of the
    fraction-free elimination, zero when a pivot is missing."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("determinant of a non-square matrix")
    _, pivots, d = _echelon(a, n)
    return d if len(pivots) == n else 0


def _echelon(a: Matrix, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the rows of a.

    Each row is first multiplied by the lcm of its denominators, which
    keeps its span. Column by column over the first ncols columns, the
    first remaining row with a nonzero entry becomes the pivot row and
    every other row is updated as (p * row - f * pivot_row) / prev, an
    exact division by the previous pivot. A row swap also negates a row,
    so for a square integer matrix of full rank d is its determinant.
    Returns the integer rows (pivot rows first, in column order), the
    pivot columns and the last pivot d; the pivot columns then read d
    times the identity.
    """
    rows = []
    for row in a:
        den = lcm(*{x.denominator for x in row})
        rows.append([x.numerator * (den // x.denominator) for x in row] if den > 1
                    else [x.numerator for x in row])
    m = len(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], [-x for x in rows[r]]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif not f and p != prev:
                rows[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
    return rows, pivots, prev


def _inverse(a: Matrix) -> tuple[list[list[int]], int]:
    """(Y, d) with a^-1 = Y / d; raises on non-square or singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("inverse of a non-square matrix")
    rows, pivots, d = _echelon([tuple(row) + e for row, e in zip(a, identity(n))], n)
    if len(pivots) < n:
        raise DimensionMismatch("matrix is singular over Q")
    return [row[n:] for row in rows], d


def rational_inverse(a: Matrix) -> Matrix:
    """Inverse over Q; raises on singular input."""
    y, d = _inverse(a)
    return freeze((Fraction(x, d) for x in row) for row in y)


def integer_inverse(a: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, returned over Z."""
    y, d = _inverse(a)
    if abs(d) != 1:
        raise DimensionMismatch("matrix is not unimodular")
    return freeze((x * d for x in row) for row in y)


def solve_rational(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b over Q, or None if inconsistent.

    `a` is m x n acting on column vectors; free variables are set to 0.
    """
    n = len(a[0]) if a else 0
    rows, pivots, d = _echelon([tuple(row) + (bv,) for row, bv in zip(a, b)], n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[n], d)
    return tuple(x)


def rank_rational(a: Matrix) -> int:
    return len(_echelon(a, len(a[0]) if a else 0)[1])


def independent_rows(a: Matrix) -> Matrix:
    """The rows of a that lie outside the rational span of the rows before
    them: the pivot columns of the transpose."""
    pivots = _echelon(transpose(a), len(a))[1]
    return tuple(tuple(a[i]) for i in pivots)


def hermite_normal_form(a: Matrix) -> Matrix:
    """Row Hermite normal form of an integer matrix.

    Euclid's algorithm on pairs of rows (unimodular row operations)
    clears each column below its pivot; pivots are made positive and the
    entries above them reduced into [0, pivot). Zero rows end up last.
    Two matrices generate the same lattice exactly when their forms agree
    (Cohen, Sec. 2.4.2).
    """
    rows = [list(row) for row in a]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            break
        for i in range(r + 1, len(rows)):
            while rows[i][c]:
                q = rows[r][c] // rows[i][c]
                rows[r], rows[i] = rows[i], [x - q * y for x, y in zip(rows[r], rows[i])]
        if rows[r][c] == 0:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return freeze(rows)


@dataclass(frozen=True)
class SmithDecomposition:
    """left * a * right = diag, with left and right unimodular.

    diag is rectangular-diagonal with nonnegative entries satisfying the
    divisibility chain d1 | d2 | ... on its nonzero part.
    """

    left: Matrix
    diag: Matrix
    right: Matrix

    @property
    def invariants(self) -> tuple[int, ...]:
        k = min(len(self.diag), len(self.diag[0]) if self.diag else 0)
        return tuple(self.diag[i][i] for i in range(k))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariants if d != 0)


def smith_normal_form(a: Matrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix with transform matrices."""
    m = len(a)
    n = len(a[0]) if m else 0
    A = [[int(x) for x in row] for row in a]
    L = [list(row) for row in identity(m)]
    R = [list(row) for row in identity(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        L[i], L[j] = L[j], L[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in R:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row dst += c * row src
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        L[dst] = [x + c * y for x, y in zip(L[dst], L[src])]

    def add_col(dst, src, c):
        for row in A:
            row[dst] += c * row[src]
        for row in R:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        L[i] = [-x for x in L[i]]

    t = 0
    while t < min(m, n):
        # Find a pivot: the nonzero entry of smallest absolute value.
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # Clear row and column t; restart whenever a remainder shrinks the pivot.
        while True:
            if A[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # Divisibility: pivot must divide every remaining entry.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    return SmithDecomposition(freeze(L), freeze(A), freeze(R))


def integer_kernel(a: Matrix) -> Matrix:
    """Basis (rows) of {v in Z^n : a v = 0}; the basis is saturated."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return ()
    if m == 0:
        return identity(n)
    snf = smith_normal_form(a)
    r = snf.rank
    cols = transpose(snf.right)
    return cols[r:]


def content(v: Vector) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g
