"""Exact matrix arithmetic over Z and Q.

Matrices are tuples of tuples (rows); vectors are tuples. Entries are
exact: an int that is not a bool, or a fractions.Fraction; check_integers
and check_rationals refuse anything else, even 2.0. One row Hermite
normal form routine is the elimination kernel: ranks, solutions and
inverses are read off the form of the denominator-cleared rows of
[a | rhs] by one integer back-substitution, a Fraction is built only for
a result, and integer kernels and the Smith normal form come from it too.
A saturation is one form of the columns, with no transform carried, and
an exact forward substitution. Kernel and saturation bases come back in
that form, a kernel from one pass over [a^T | I]. Lattice equality
compares Hermite normal forms. A determinant eliminates forward only.
Ranks in this package never exceed 22. Zeros cost nothing: a product
reads a and the used rows of b by their nonzeros, a Hermite step updates
rows in place at the nonzeros of the pivot row when their quotient is not
0, a determinant leaves zero-led rows unscaled, and mat_vec_pair applies a
matrix, kept as its nonzeros, to two vectors in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm, prod
from operator import mul

from .errors import DimensionMismatch
from .record import Record

Matrix = tuple[tuple, ...]
Vector = tuple


def check_integers(what: str, *rows) -> None:
    """Raise unless type(x) is int for every entry x of the rows."""
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        raise DimensionMismatch(f"{what} must be integers")


def check_rationals(what: str, *rows) -> None:
    """Raise unless type(x) is int or Fraction for every entry x of the rows."""
    if not {int, Fraction}.issuperset(map(type, chain.from_iterable(rows))):
        raise DimensionMismatch(f"{what} must be integers or fractions")


def freeze(rows) -> Matrix:
    try:
        return tuple(tuple(row) for row in rows)
    except TypeError:
        raise DimensionMismatch("rows and vectors must be sequences") from None


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
    n, views, out = len(b[0]) if b else 0, [None] * len(b), []
    for row in a:
        acc = [0] * n
        for k in compress(range(len(b)), row):
            if (view := views[k]) is None:
                view = views[k] = [(j, y) for j, y in enumerate(b[k]) if y]
            x = row[k]
            for j, y in view:
                acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a and len(a[0]) != len(v):
        raise DimensionMismatch(f"matrix has {len(a[0])} columns, vector has {len(v)}")
    return tuple(sum(map(mul, row, v)) for row in a)


def vec_mat(v: Vector, a: Matrix) -> Vector:
    return mat_vec(transpose(a), v)


def nonzeros(a: Matrix) -> tuple[tuple[tuple[int, object], ...], ...]:
    """Each row of a as the (index, entry) pairs of its nonzero entries."""
    return tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in a)


def mat_vec_pair(rows, v: Vector, w: Vector) -> tuple[Vector, Vector]:
    """(a v, a w) for a given as nonzeros(a), in one pass over its entries."""
    av, aw = [], []
    for row in rows:
        s = t = 0
        for k, x in row:
            s, t = s + x * v[k], t + x * w[k]
        av.append(s)
        aw.append(t)
    return tuple(av), tuple(aw)


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


def bareiss_det(a: Matrix) -> int:
    """Exact determinant of an integer matrix by forward-only fraction-free
    elimination (Bareiss; Cohen, Sec. 2.2). Step k splits off a pivot row y
    and the first column; each row r left becomes (p_k r - r_0 y) / p_(k-1),
    with p_k the pivot and p_0 = 1, and every entry is a minor of a. As a
    zero-led row is only scaled, by p_k / p_(k-1), a row is kept as x with the
    pivot s it was last divided by, its true entries x p_(k-1) / s: a zero-led
    row drops its leading entry, the pivot row is brought up to date as
    x p_(k-1) // s, and any other becomes (p_k x - x_0 y) // s, divided by p_k.
    Each quotient is a minor, so every division is exact. The last pivot is
    the determinant, negated once per odd move of a pivot row up."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("determinant of a non-square matrix")
    check_integers("determinant entries", *a)
    rows, sign, prev = [(row, 1) for row in a], 1, 1
    while rows:
        k = next((i for i, (row, _) in enumerate(rows) if row[0]), None)
        if k is None:
            return 0
        prow, s = rows.pop(k)
        p, *tail = (x * prev // s for x in prow) if s != prev else prow
        sign = -sign if k % 2 else sign
        rows = [([(p * x - row[0] * y) // s for x, y in zip(row[1:], tail)], p)
                if row[0] else (row[1:], s) for row, s in rows]
        prev = p
    return sign * prev


def clear_denominators(v: Vector) -> tuple[tuple[int, ...], int]:
    """(d * v, d) for the least d > 0 that makes d * v integral."""
    d = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v), d


def _solve(a: Matrix, rhs) -> tuple[list[int], list[list[int]], int] | None:
    """(pivot columns c, X, d) for a x = rhs, or None if it is inconsistent.
    h is the row HNF of the denominator-cleared rows of [a | rhs] over the
    columns of a; a zero row of a beside a nonzero rhs has no solution. With
    d the product of the pivots, X_i = (d rhs_i - sum_(k > i) h_i[c_k] X_k) /
    h_i[c_i] is exact bottom-up, and x_(c_i) = X_i / d, others 0, solves it."""
    n = len(a[0]) if a else 0
    rows = _hermite([list(clear_denominators((*row, *r))[0]) for row, r in zip(a, rhs)], n)
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows if any(row[:n])]
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None
    d = prod(row[c] for row, c in zip(rows, pivots))
    for i in reversed(range(len(pivots))):
        row = rows[i]
        later = [(row[c], x) for c, x in zip(pivots[i + 1:], rows[i + 1:]) if row[c]]
        row[n:] = [(d * y - sum(h * x[j] for h, x in later)) // row[pivots[i]]
                   for j, y in enumerate(row[n:], n)]
    return pivots, [row[n:] for row in rows[:len(pivots)]], d


def _inverse(a: Matrix) -> tuple[list[list[int]], int]:
    """(Y, d) with a^-1 = Y / d and d > 0, d = |det a| for integer a;
    raises on non-square or singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("inverse of a non-square matrix")
    solved = _solve(a, identity(n))
    if solved is None:
        raise DimensionMismatch("matrix is singular over Q")
    return solved[1:]


def rational_inverse(a: Matrix) -> Matrix:
    """Inverse over Q; raises on singular input."""
    y, d = _inverse(a)
    return freeze((Fraction(x, d) for x in row) for row in y)


def integer_inverse(a: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, returned over Z: with d = 1
    the Hermite form of a is I, and Y is its transform."""
    y, d = _inverse(a)
    if d != 1:
        raise DimensionMismatch("matrix is not unimodular")
    return freeze(y)


def solve_rational(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b over Q, or None if inconsistent.

    `a` is m x n acting on column vectors; free variables are set to 0.
    """
    solved = _solve(a, ((x,) for x in b))
    if solved is None:
        return None
    pivots, xs, d = solved
    x = [Fraction(0)] * (len(a[0]) if a else 0)
    for c, (xc,) in zip(pivots, xs):
        x[c] = Fraction(xc, d)
    return tuple(x)


def rank_rational(a: Matrix) -> int:
    return len(_solve(a, ((),) * len(a))[0])


def _hermite(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Row Hermite normal form of the first ncols columns, in place.

    Euclid's algorithm across rows (unimodular row operations) clears
    each column below its pivot: the row with the smallest nonzero entry
    reduces the others until one is left. Taking the smallest entry keeps
    the carried columns small. Pivots are made positive and the entries
    above them reduced into [0, pivot). Zero rows end up last. Columns
    past ncols are carried along, so with an identity appended they
    record the unimodular transform.
    """
    r = 0
    for c in range(ncols):
        live = [i for i in range(r, len(rows)) if rows[i][c]]
        while len(live) > 1:
            p = min(live, key=lambda i: abs(rows[i][c]))
            _reduce(rows, [i for i in live if i != p], rows[p], c)
            live = [i for i in live if rows[i][c]]
        if not live:
            continue
        rows[r], rows[live[0]] = rows[live[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        _reduce(rows, range(r), rows[r], c)
        r += 1
    return rows


def _reduce(rows: list[list[int]], targets, prow: list[int], c: int) -> None:
    """rows[i] -= (rows[i][c] // prow[c]) * prow for each i in targets, in
    place at the nonzero positions of prow. Each q is computed first, and
    those positions are listed once, for the first q that is not 0."""
    p, nonzero = prow[c], None
    for i in targets:
        if q := rows[i][c] // p:
            if nonzero is None:
                nonzero = [(j, y) for j, y in enumerate(prow) if y]
            row = rows[i]
            for j, y in nonzero:
                row[j] -= q * y


def hermite_normal_form(a: Matrix) -> Matrix:
    """Row Hermite normal form of an integer matrix, from one _hermite pass.
    Two matrices generate the same lattice exactly when their forms agree
    (Cohen, Sec. 2.4.2)."""
    return freeze(_hermite([list(row) for row in a], len(a[0]) if a else 0))


def integer_kernel(a: Matrix) -> Matrix:
    """Basis (rows) of {v in Z^n : a v = 0}, saturated, in Hermite normal
    form. One _hermite pass over all m + n columns of [a^T | I] ends in
    the rows with zero left part (Cohen, Sec. 2.4.3); their right parts
    are echelon, with positive pivots and reduced entries above them, so
    by uniqueness they are already the kernel's HNF."""
    m, n = len(a), len(a[0]) if a else 0
    rows = _hermite([[row[j] for row in a] + [int(i == j) for i in range(n)]
                     for j in range(n)], m + n)
    return freeze(row[m:] for row in rows if not any(row[:m]))


def saturate(rows: Matrix, n: int) -> Matrix:
    """HNF basis of the integer points of the rational span of rows in Z^n,
    from one HNF h = U rows^T with no transform carried. As rows^T =
    U^-1 h with U unimodular, the first r columns W_i of U^-1 are a
    primitive basis of the span; with c_i the pivot columns of h they
    are W_i = (rows[c_i] - sum_(k < i) h_k[c_i] W_k) / h_i[c_i], exact
    forward. The rows need not be independent."""
    h = _hermite([[row[j] for row in rows] for j in range(n)], len(rows))
    w = []
    for hrow in h:
        c = next((j for j, x in enumerate(hrow) if x), None)
        if c is None:
            break
        v = rows[c]
        for hk, wk in zip(h, w):
            if f := hk[c]:
                v = [x - f * y for x, y in zip(v, wk)]
        w.append([x // hrow[c] for x in v])
    return hermite_normal_form(freeze(w))


class SmithDecomposition(Record):
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
    """Smith normal form of an integer matrix with transform matrices.

    Row HNFs of [d | left] and of [d^T | right^T] alternate until d is
    diagonal, its nonzero entries first; where d_i does not divide
    d_(i+1), column i+1 is added to column i and the loop goes on.
    """
    a = freeze(a)
    m, n = len(a), len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise DimensionMismatch("Smith form rows must have equal length")
    check_integers("Smith form entries", *a)
    d = [list(row) for row in a]
    left = [list(row) for row in identity(m)]
    right = [list(row) for row in identity(n)]
    while True:
        rows = _hermite([d[i] + left[i] for i in range(m)], n)
        d, left = [row[:n] for row in rows], [row[n:] for row in rows]
        cols = _hermite([[row[j] for row in d] + [row[j] for row in right]
                         for j in range(n)], m)
        d = [[col[i] for col in cols] for i in range(m)]
        right = [[col[m + i] for col in cols] for i in range(n)]
        if any(d[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        diag = [d[i][i] for i in range(min(m, n)) if d[i][i]]
        i = next((i for i in range(len(diag) - 1) if diag[i + 1] % diag[i]), None)
        if i is None:
            return SmithDecomposition(freeze(left), freeze(d), freeze(right))
        for row in d + right:
            row[i] += row[i + 1]


def content(v: Vector) -> int:
    return gcd(*v)
