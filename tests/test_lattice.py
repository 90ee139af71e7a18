"""Core lattice arithmetic: pairings, determinants, signatures, Smith
normal form, complements, saturation, divisibility."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from k3bv import (DimensionMismatch, IntegerLattice, NotInLattice, Sublattice,
                  det_and_signature, direct_sum, divisibility, e8_minus,
                  hyperbolic_plane, invariant_sublattices, is_primitive, k3_lattice,
                  orthogonal_complement, pairing, same_sublattice, saturation)
from k3bv.lattice import contains, coordinates_in, is_saturated
from k3bv import matrixops as mo
from k3bv.matrixops import smith_normal_form

from conftest import reflection_conjugates

E = (1, 0)
F = (0, 1)


def permanent_free_det(a):
    """Independent oracle: determinant by permutation expansion."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= a[i][perm[i]]
        total += sign * prod
    return total


def gauss_det(a):
    """Second independent oracle: plain fraction Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


class TestPairing:
    def test_u_basis(self):
        u = hyperbolic_plane(1)
        assert pairing(u, E, F) == 1
        assert pairing(u, E, E) == 0

    def test_u2(self):
        assert pairing(hyperbolic_plane(2), E, F) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pairing(hyperbolic_plane(1), (1, 0, 0), (0, 1))

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_symmetry(self, a, b, c, d):
        lat = direct_sum(hyperbolic_plane(1), e8_minus())
        v = (a, b, c, d, 0, 0, 1, 0, 0, 0)
        w = (d, c, b, a, 1, 0, 0, 0, 0, 1)
        assert pairing(lat, v, w) == pairing(lat, w, v)


@st.composite
def congruent_grams(draw):
    """(G, D, inertia of D): D a direct sum of nonzero diagonal entries of
    both signs, zeros and U(m) blocks; G = A^T D A for a unimodular A made
    from elementary operations, so G is dense."""
    blocks = draw(st.lists(st.sampled_from(["pos", "neg", "zero", "U"]), max_size=8))
    n = sum(2 if b == "U" else 1 for b in blocks)
    d = [[0] * n for _ in range(n)]
    i = 0
    for b in blocks:
        if b == "U":
            d[i][i + 1] = d[i + 1][i] = draw(st.integers(1, 4))
            i += 2
            continue
        if b != "zero":
            d[i][i] = draw(st.integers(1, 5)) * (1 if b == "pos" else -1)
        i += 1
    inertia = (blocks.count("pos") + blocks.count("U"),
               blocks.count("neg") + blocks.count("U"), blocks.count("zero"))
    a = [list(row) for row in mo.identity(n)]
    for _ in range(draw(st.integers(0, 4 * n)) if n > 1 else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            a[i] = [-x for x in a[i]]
        else:
            c = draw(st.integers(-3, 3))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    g = mo.mat_mul(mo.mat_mul(mo.transpose(a), mo.freeze(d)), mo.freeze(a))
    return g, mo.freeze(d), inertia


def content_inertia(gram):
    """Reference inertia: symmetric elimination that splits off a pivot p,
    replaces the rest by |p| g_rc - sign(p) g_rk g_kc (a positive multiple
    of the Schur complement) and divides by its content."""
    g = [list(row) for row in gram]
    pos = neg = 0
    while g:
        n = len(g)
        k = next((i for i in range(n) if g[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if g[i][j]), None)
            if pair is None:
                break
            k, j = pair
            g[k] = [x + y for x, y in zip(g[k], g[j])]
            for row in g:
                row[k] += row[j]
        p = g[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        pk = g.pop(k)
        del pk[k]
        rest = []
        for row in g:
            f = row.pop(k) if p > 0 else -row.pop(k)
            rest.append([abs(p) * x - f * y for x, y in zip(row, pk)])
        c = gcd(*(x for row in rest for x in row))
        g = [[x // c for x in row] for row in rest] if c > 1 else rest
    return pos, neg, len(g)


@st.composite
def symmetric_grams(draw):
    """Random symmetric Grams: dense, zero-diagonal or low-rank B^T D B,
    with small or moderate entries."""
    n = draw(st.integers(0, 9))
    bound = draw(st.sampled_from([3, 50]))
    entry = st.integers(-bound, bound)
    kind = draw(st.sampled_from(["dense", "zero_diagonal", "low_rank"]))
    if kind == "low_rank":
        r = draw(st.integers(0, max(n - 1, 0)))
        b = [[draw(entry) for _ in range(n)] for _ in range(r)]
        d = [draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for _ in range(r)]
        return tuple(tuple(sum(b[k][i] * d[k] * b[k][j] for k in range(r)) for j in range(n))
                     for i in range(n))
    upper = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return tuple(tuple(0 if i == j and kind == "zero_diagonal" else upper[min(i, j)][max(i, j)]
                       for j in range(n)) for i in range(n))


class TestDetAndSignature:
    @settings(max_examples=300, deadline=None)
    @given(symmetric_grams())
    def test_matches_content_dividing_reference(self, g):
        assert det_and_signature(IntegerLattice(g)) == (mo.bareiss_det(g), content_inertia(g))

    def test_congruence_after_non_unit_pivot(self):
        # Pivot 3 leaves [[0, 6], [6, 0]]; the congruence step then pivots
        # on 12 and divides by 3.
        g = ((3, 3, 0), (3, 3, 2), (0, 2, 0))
        assert det_and_signature(IntegerLattice(g)) == (-12, (2, 1, 0))

    def test_rank_zero(self):
        assert det_and_signature(IntegerLattice(())) == (1, (0, 0, 0))

    def test_rank_20_with_40_bit_entries(self):
        rng = random.Random(20)
        upper = [[rng.randint(-2**40, 2**40) for _ in range(20)] for _ in range(20)]
        g = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(20)) for i in range(20))
        det, sig = det_and_signature(IntegerLattice(g))
        assert det == mo.bareiss_det(g) != 0
        assert sig == content_inertia(g)

    @settings(max_examples=150, deadline=None)
    @given(congruent_grams())
    def test_sylvester_law_on_dense_congruent_grams(self, case):
        g, d, inertia = case
        det, sig = det_and_signature(IntegerLattice(g))
        assert sig == inertia
        assert det == mo.bareiss_det(g) == mo.bareiss_det(d)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_hyperbolic(self, m):
        det, sig = det_and_signature(hyperbolic_plane(m))
        assert det == -m * m
        assert sig == (1, 1, 0)

    def test_k3(self, K3):
        det, sig = det_and_signature(K3)
        assert det == -1
        assert sig == (3, 19, 0)

    def test_e8_minus(self):
        det, sig = det_and_signature(e8_minus())
        assert det == 1
        assert sig == (0, 8, 0)

    def test_e8_det_against_permutation_expansion(self):
        g = e8_minus().gram
        assert permanent_free_det(g) == 1

    def test_e8_negative_definite_by_principal_minors(self):
        # -G positive definite iff all leading principal minors positive.
        g = e8_minus().gram
        neg = [[-x for x in row] for row in g]
        for k in range(1, 9):
            minor = [row[:k] for row in neg[:k]]
            assert gauss_det(minor) > 0

    def test_degenerate_direction_counted(self):
        det, sig = det_and_signature(IntegerLattice(((0, 0), (0, 2))))
        assert det == 0
        assert sig == (1, 0, 1)

    def test_direct_sum_additivity(self):
        a = hyperbolic_plane(3)
        b = e8_minus()
        det_a, sig_a = det_and_signature(a)
        det_b, sig_b = det_and_signature(b)
        det_ab, sig_ab = det_and_signature(direct_sum(a, b))
        assert det_ab == det_a * det_b
        assert sig_ab == tuple(x + y for x, y in zip(sig_a, sig_b))


class TestSmithNormalForm:
    @pytest.mark.parametrize("a,expected", [
        (((0, 1), (1, 0)), (1, 1)),
        (((0, 2), (2, 0)), (2, 2)),
        (((2, 0), (0, 4)), (2, 4)),
    ])
    def test_invariants(self, a, expected):
        assert smith_normal_form(a).invariants == expected

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=2, max_size=4))
    def test_round_trip(self, rows):
        a = tuple(tuple(r) for r in rows)
        snf = smith_normal_form(a)
        assert mo.mat_mul(mo.mat_mul(snf.left, a), snf.right) == snf.diag
        assert abs(mo.bareiss_det(snf.left)) == 1
        assert abs(mo.bareiss_det(snf.right)) == 1
        chain = [d for d in snf.invariants if d != 0]
        assert all(b % a_ == 0 for a_, b in zip(chain, chain[1:]))

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_invariants_are_determinantal_divisors(self, m, n, data):
        # d_1 * ... * d_k is the gcd of the k x k minors.
        a = tuple(tuple(data.draw(st.integers(-6, 6)) for _ in range(n)) for _ in range(m))
        snf = smith_normal_form(a)
        assert len(snf.diag) == m and all(len(row) == n for row in snf.diag)
        assert all(snf.diag[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        assert mo.mat_mul(mo.mat_mul(snf.left, a), snf.right) == snf.diag
        assert abs(mo.bareiss_det(snf.left)) == 1 and abs(mo.bareiss_det(snf.right)) == 1
        prod = 1
        for k, d in enumerate(snf.invariants, start=1):
            prod *= d
            g = 0
            for rows in combinations(range(m), k):
                for cols in combinations(range(n), k):
                    g = gcd(g, mo.bareiss_det(tuple(tuple(a[i][j] for j in cols)
                                                    for i in rows)))
            assert prod == g

    @pytest.mark.parametrize("a", [((), ()), ((0, 0, 0), (0, 0, 0)), ((0, 0),) * 3])
    def test_shape_kept(self, a):
        m, n = len(a), len(a[0])
        snf = smith_normal_form(a)
        assert snf.diag == mo.zeros(m, n)
        assert snf.left == mo.identity(m) and snf.right == mo.identity(n)

    def test_bareiss_matches_gauss(self):
        a = ((2, -1, 0, 3), (1, 4, -2, 0), (0, 5, 1, -1), (3, 0, 0, 2))
        assert mo.bareiss_det(a) == gauss_det(a)


class TestOrthogonalComplement:
    def test_first_u_in_uu(self, UU):
        first = Sublattice(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        second = Sublattice(UU, ((0, 0, 1, 0), (0, 0, 0, 1)))
        assert same_sublattice(orthogonal_complement(first), second)

    def test_isotropic_line(self, U):
        span_e = Sublattice(U, ((1, 0),))
        assert same_sublattice(orthogonal_complement(span_e), span_e)

    def test_e_plus_f(self, U):
        s = Sublattice(U, ((1, 1),))
        assert same_sublattice(orthogonal_complement(s),
                               Sublattice(U, ((1, -1),)))

    def test_always_saturated(self, K3):
        s = Sublattice(K3, ((2, 0) + (0,) * 20, (0, 0, 3, 1) + (0,) * 18))
        assert is_saturated(orthogonal_complement(s))

    def test_rank_additivity_for_nondegenerate(self, K3):
        s = Sublattice(K3, ((1,) + (0,) * 21, (0, 1) + (0,) * 20))
        assert s.rank + orthogonal_complement(s).rank == K3.rank

    def test_zero_sublattice_has_full_complement(self, K3):
        comp = orthogonal_complement(Sublattice(K3, ()))
        assert comp.rank == 22
        assert same_sublattice(comp, Sublattice.full(K3))


class TestSaturation:
    @pytest.mark.parametrize("gens,expected", [
        (((2, 0),), ((1, 0),)),
        (((1, 2),), ((1, 2),)),
        (((2, 2),), ((1, 1),)),
    ])
    def test_rank_one(self, U, gens, expected):
        assert same_sublattice(saturation(Sublattice(U, gens)),
                               Sublattice(U, expected))

    def test_idempotent(self, UU):
        s = Sublattice(UU, ((2, 4, 0, 6), (0, 0, 3, 3)))
        sat = saturation(s)
        assert same_sublattice(sat, saturation(sat))


K3_LATTICE = k3_lattice()


@st.composite
def k3_sublattices(draw):
    """Random sublattices of the K3 lattice of rank 1-14, entries in [-3, 3]."""
    r = draw(st.integers(1, 14))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=22, max_size=22)) for _ in range(r)]
    if mo.rank_rational(rows) < r:
        # Unit upper-triangular rows are independent and keep the entry range.
        rows = [[0] * i + [1] + row[i + 1:] for i, row in enumerate(rows)]
    return Sublattice(K3_LATTICE, rows)


class TestHermiteBases:
    """Complements and saturations come back as saturated canonical HNF
    bases with bounded entries: an HNF entry is at most the covolume,
    below (15 * sqrt(22))^14 < 2^87 by Hadamard's inequality."""

    @settings(max_examples=40, deadline=None)
    @given(k3_sublattices())
    def test_random_k3_sublattice(self, s):
        comp = orthogonal_complement(s)
        sat = saturation(s)
        assert comp.rank == 22 - s.rank
        assert not any(any(row) for row in mo.mat_mul(
            mo.mat_mul(comp.basis, K3_LATTICE.gram), mo.transpose(s.basis)))
        assert sat.rank == s.rank
        assert same_sublattice(s, sat) == (smith_normal_form(s.basis).invariants
                                           == (1,) * s.rank)
        assert mo.hermite_normal_form(sat.basis + s.basis)[:s.rank] == sat.basis
        for b in (comp.basis, sat.basis):
            assert b == mo.hermite_normal_form(b)
            assert all(d == 1 for d in smith_normal_form(b).invariants)
            assert all(abs(x) < 2 ** 128 for row in b for x in row)

    def test_index_six_saturates_to_full(self, U):
        assert saturation(Sublattice(U, ((2, 0), (0, 3)))).basis == mo.identity(2)


def skewed(data, s: Sublattice) -> Sublattice:
    """S under a random unimodular change of basis (elementary row
    operations), with its first row negated if that left an HNF."""
    rows = [list(row) for row in s.basis]
    for _ in range(data.draw(st.integers(1, 3 * len(rows)))):
        i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            c = data.draw(st.integers(-2, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    if mo.hermite_normal_form(rows) == mo.freeze(rows):
        rows[0] = [-x for x in rows[0]]
    return Sublattice(s.ambient, rows)


def not_in_lattice(message):
    return pytest.raises(NotInLattice, match=f"^vector is {message}$")


class TestHermiteKey:
    """A basis already in HNF is its own key, and coordinates on it are
    read off pivot by pivot; every answer matches a skewed basis of the
    same lattice, which takes the rational solve."""

    @settings(max_examples=30, deadline=None)
    @given(k3_sublattices(), st.data())
    def test_hnf_and_skewed_bases_agree(self, s, data):
        comp = orthogonal_complement(s)
        # Doubling an HNF gives an HNF that misses the vectors of comp with
        # an odd coordinate; comp is saturated, so its own such vectors
        # have half-integer entries.
        twice = Sublattice(K3_LATTICE, tuple(tuple(2 * x for x in row) for row in comp.basis))
        gs = mo.mat_vec(K3_LATTICE.gram, s.basis[0])
        j = next(j for j, y in enumerate(gs) if y)
        outside = tuple(int(i == j) for i in range(22))  # pairs nonzero with S
        for h, half in ((comp, Fraction(1, 2)), (twice, 1)):
            sk = skewed(data, h)
            assert h._hnf is h.basis and h._hnf == mo.hermite_normal_form(h.basis)
            assert mo.hermite_normal_form(sk.basis) != sk.basis
            assert sk._hnf is not sk.basis and same_sublattice(h, sk)
            x = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=h.rank,
                                         max_size=h.rank)))
            v = mo.vec_mat(x, h.basis)
            assert coordinates_in(h, v) == x
            assert mo.vec_mat(coordinates_in(sk, v), sk.basis) == v
            q_not_z = tuple(a + half * b for a, b in zip(v, comp.basis[0]))
            for b in (h, sk):
                assert contains(b, v)
                assert not contains(b, q_not_z) and not contains(b, mo.add_vec(v, outside))
                with not_in_lattice("in the rational span but not in the sublattice"):
                    coordinates_in(b, q_not_z)
                with not_in_lattice("not in the rational span of the sublattice"):
                    coordinates_in(b, mo.add_vec(v, outside))
            if any(v):
                assert divisibility(h, v) == divisibility(sk, v)
                assert is_primitive(h, v) == is_primitive(sk, v)

    @pytest.mark.parametrize("rows", [
        ((1, 0, 0, 0), (0, -1, 0, 0)),   # a negative pivot
        ((1, 2, 0, 0), (0, 2, 0, 0)),    # an entry above a pivot equal to it
        ((0, 1, 0, 1), (0, 1, 1, 0)),    # two rows with one leading column
        ((1, 5, 0, 0), (0, 2, 0, 0)),    # an entry above a pivot beyond it
        ((1, -1, 0, 0), (0, 2, 0, 0)),   # a negative entry above a pivot
        ((0, 1, 0, 0), (1, 0, 0, 0)),    # pivots that decrease
        ((0, 0, 1, 0), (0, 1, 0, 1)),    # pivots that decrease, not by one
    ])
    def test_near_hnf_bases_are_reduced(self, UU, rows):
        s = Sublattice(UU, rows)
        assert mo.hermite_normal_form(rows) != rows
        assert s._hnf is not s.basis and s._hnf == mo.hermite_normal_form(rows)
        v = mo.add_vec(mo.scale_vec(3, rows[0]), mo.scale_vec(-2, rows[1]))
        assert coordinates_in(s, v) == (3, -2)

    @pytest.mark.parametrize("rows", [
        ((0, 0, 0, 0), (1, 0, 0, 0)),
        ((1, 0, 0, 0), (0, 0, 0, 0)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)),
        ((0, 0, 0, 0),),
    ])
    def test_zero_row_is_refused(self, UU, rows):
        with pytest.raises(DimensionMismatch, match="linearly independent"):
            Sublattice(UU, rows)

    def test_hnf_bases_take_no_hermite_pass(self, K3, monkeypatch):
        # Handed to the public constructor, the HNF bases that integer_kernel,
        # saturate and identity return pass its scan as their own keys with
        # no _hermite call; a basis out of HNF takes one _hermite pass.
        m = ((1, 2, 0, 0, -1, 3) + (0,) * 16, (0, 1, 1, 0, 2, 0, -2) + (0,) * 15)
        kernel = mo.integer_kernel(mo.mat_mul(m, K3.gram))
        saturated = mo.saturate(mo.freeze(mo.scale_vec(2, row) for row in m), 22)
        calls = []
        hermite = mo._hermite
        monkeypatch.setattr(mo, "_hermite", lambda *args: calls.append(1) or hermite(*args))
        for basis in (kernel, saturated, mo.identity(22)):
            s = Sublattice(K3, basis)
            assert s._hnf is s.basis and s.basis == basis
        assert calls == []
        s = Sublattice(K3, (saturated[1], saturated[0]))
        assert calls == [1] and s._hnf == saturated

    def test_kernel_basis_takes_the_triangular_path(self, K3, monkeypatch):
        # integer_kernel hands back HNF rows, which orthogonal_complement
        # keeps as its basis and its key, so coordinates go pivot by pivot.
        comp = orthogonal_complement(Sublattice(K3, (mo.identity(22)[0],)))
        assert comp._hnf is comp.basis

        def no_solve(a, b):
            raise AssertionError("solve_rational called on an HNF basis")

        monkeypatch.setattr(mo, "solve_rational", no_solve)
        x = tuple(range(-10, 11))
        assert coordinates_in(comp, mo.vec_mat(x, comp.basis)) == x

    @settings(max_examples=20, deadline=None)
    @given(k3_sublattices(), reflection_conjugates())
    def test_library_hnf_results_take_no_checks(self, s, rho):
        # orthogonal_complement, saturation and invariant_sublattices build
        # their HNF bases through Sublattice._from_hnf. integer_kernel checks
        # its input through exact_matrix, whose check was bound at import, so
        # the counter sees only the calls made by name, as Sublattice makes.
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("hermite_normal_form", "check_integers"):
                original = getattr(mo, name)
                mp.setattr(mo, name, lambda *args, f=original, name=name:
                           calls.append(name) or f(*args))
            results = (orthogonal_complement(s), saturation(s), *invariant_sublattices(rho))
            assert calls == []
            for r in results:
                public = Sublattice(r.ambient, r.basis)
                assert r._hnf is r.basis and public._hnf is public.basis
                assert public == r and hash(public) == hash(r)
        # The public constructor checks each basis and finds it in HNF.
        assert calls == ["check_integers"] * len(results)

    def test_induced_lattice_is_cached(self, UU):
        s = Sublattice(UU, ((1, 1, 0, 0), (0, 0, 1, -1)))
        assert s.induced_lattice() is s.induced_lattice()
        assert s.induced_lattice() == IntegerLattice(((2, 0), (0, -2)))


class TestDivisibilityPrimitivity:
    def test_divisibility_in_um(self):
        for m in (1, 2, 5):
            full = Sublattice.full(hyperbolic_plane(m))
            assert divisibility(full, (1, 0)) == m

    def test_divisibility_doubled(self, U):
        assert divisibility(Sublattice.full(U), (2, 0)) == 2

    def test_integral_fraction_entries(self, U):
        # Integral Fractions pair to ints, so the gcd takes them.
        full = Sublattice.full(U)
        assert divisibility(full, (Fraction(2), Fraction(0))) == 2
        assert not is_primitive(full, (Fraction(2), 0))

    @pytest.mark.parametrize("v", [(1.0, 0), (0, 0.5), (2, float("nan"))])
    def test_float_entries_rejected(self, UU, v):
        s = Sublattice(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        v = v + (0, 0)
        message = "^vector entries must be integers or fractions$"
        with pytest.raises(DimensionMismatch, match=message):
            coordinates_in(s, v)
        with pytest.raises(DimensionMismatch, match=message):
            divisibility(s, v)

    def test_zero_vector_rejected(self, U):
        with pytest.raises(NotInLattice):
            divisibility(Sublattice.full(U), (0, 0))

    def test_is_primitive(self, U):
        full = Sublattice.full(U)
        assert is_primitive(full, (1, 0))
        assert not is_primitive(full, (2, 0))
        assert is_primitive(full, (1, 1))

    def test_membership_required(self, UU):
        first = Sublattice(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        with pytest.raises(NotInLattice):
            divisibility(first, (0, 0, 1, 0))


class TestDirectSum:
    def test_uu(self, UU):
        assert UU.rank == 4
        assert det_and_signature(UU)[0] == 1

    def test_u_e8(self):
        lat = direct_sum(hyperbolic_plane(1), e8_minus())
        assert lat.rank == 10
        assert det_and_signature(lat)[1] == (1, 9, 0)

    def test_rank_zero_identity(self, U):
        assert direct_sum(U, IntegerLattice(())) == U


class TestSublatticeBasics:
    def test_contains(self, UU):
        first = Sublattice(UU, ((1, 0, 0, 0), (0, 1, 0, 0)))
        assert contains(first, (3, -2, 0, 0))
        assert not contains(first, (0, 0, 1, 0))

    def test_rank_zero_holds_only_zero(self, U):
        zero = Sublattice(U, ())
        assert coordinates_in(zero, (0, 0)) == ()
        assert not contains(zero, (1, 0))
        with pytest.raises(NotInLattice, match="not in the rational span"):
            coordinates_in(zero, (0, 3))

    def test_dependent_rows_rejected(self, UU):
        with pytest.raises(DimensionMismatch):
            Sublattice(UU, ((1, 0, 0, 0), (2, 0, 0, 0)))
        with pytest.raises(DimensionMismatch):
            Sublattice(UU, ((1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)))
        with pytest.raises(DimensionMismatch):
            Sublattice(UU, ((1, 0, 0, 0), (0, 0, 0, 0)))

    def test_induced_gram(self, UU):
        diag = Sublattice(UU, ((1, 1, 0, 0), (0, 0, 1, -1)))
        assert diag.gram() == ((2, 0), (0, -2))
