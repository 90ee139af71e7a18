"""The full acceptance suite, runnable as a library.

Each criterion is an exact check (tolerance zero). `run_all` returns one
record per criterion; the CLI's `verify all` and the pytest acceptance
module both delegate here. All randomness is seeded, so reruns are
byte-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from . import matrixops as mo
from .bv import BVData, euler_characteristic, hodge_numbers, mirror_swap
from .catalog import hyperbolic_plane, k3_lattice
from .census import (BasePoint, FiberCensus, FiberRecord, KodairaType,
                     base_embed, census_slack, dualize_census, total_euler,
                     validate_census)
from .cnum import QC
from .domains import TubePoint, in_primed, in_tube
from .errors import K3BVError
from .involution import (LatticeInvolution, RealFiberType, SymplecticSpace,
                         transpose_defect)
from .involution import invariant_sublattices, mirror_involution
from .lattice import (IntegerLattice, Sublattice, coordinates_in,
                      det_and_signature, direct_sum, orthogonal_complement,
                      pairing, same_sublattice, saturation)
from .leray import (bv_mirror_period, bv_table, check_degeneration,
                    elliptic_table, k3_table, recover_period_inputs,
                    swap_rows, y_betti)
from .mirror import MirrorSplit, check_admissible, construct_mirror
from .mirrormap import phi, phi_inverse
from .record import Record

SEED = 20260823


class CriterionResult(Record):
    number: int
    name: str
    passed: bool
    detail: str


def _k3_setup() -> tuple[IntegerLattice, Sublattice, Sublattice, MirrorSplit]:
    """Shared fixture: L, M = first U, T = M-perp, m = 1 split in the
    second U."""
    l = k3_lattice()
    m = Sublattice(l, ((1,) + (0,) * 21, (0, 1) + (0,) * 20))
    t = orthogonal_complement(m)
    e2 = tuple(1 if i == 2 else 0 for i in range(22))
    e3 = tuple(1 if i == 3 else 0 for i in range(22))
    e = coordinates_in(t, e2)
    ep = coordinates_in(t, e3)
    split = construct_mirror(check_admissible(t, e, ep, 1))
    return l, m, t, split


def criterion_1() -> str:
    """K3 lattice certificate."""
    l = k3_lattice()
    det, (p, n, z) = det_and_signature(l)
    assert l.rank == 22, f"rank {l.rank}"
    assert l.is_even(), "not even"
    assert det == -1, f"det {det}"
    assert (p, n, z) == (3, 19, 0), f"signature {(p, n, z)}"
    return "even, det = -1, signature (3,19)"


def criterion_2() -> str:
    """Mirror-lattice splitting and the m = 1 double mirror."""
    l, m, t, split = _k3_setup()
    assert split.m_check.rank == 18, f"rank M-check = {split.m_check.rank}"
    det_t = mo.bareiss_det(t.gram())
    det_mc = mo.bareiss_det(split.m_check.gram())
    assert abs(det_t) == abs(det_mc), f"|det T| = {abs(det_t)}, |det M-check| = {abs(det_mc)}"
    # Double mirror: repeat inside the complement of M-check.
    mc_in_l = t.compose(split.m_check)
    t2 = orthogonal_complement(mc_in_l)
    assert t2.rank == 4
    e2 = coordinates_in(t2, tuple(1 if i == 2 else 0 for i in range(22)))
    e3 = coordinates_in(t2, tuple(1 if i == 3 else 0 for i in range(22)))
    split2 = construct_mirror(check_admissible(t2, e2, e3, 1))
    gram2 = _normalize_hyperbolic(split2.m_check.gram())
    assert gram2 == m.gram(), f"double-mirror Gram {gram2} != {m.gram()}"
    return "rank 18, |det| match, double mirror recovers M"


def _normalize_hyperbolic(gram):
    """Flip a generator sign if a rank-2 hyperbolic Gram came out negated."""
    if len(gram) == 2 and gram[0][0] == gram[1][1] == 0 and gram[0][1] < 0:
        d = -gram[0][1]
        return ((0, d), (d, 0))
    return gram


def _random_tube_points(split: MirrorSplit, count: int, rng: random.Random,
                        orthogonal_b: str = "mixed") -> list[TubePoint]:
    """Random rational tube points over M-check, coefficients bounded by 10.

    A known positive-norm direction (image of e4 + f4 of L) anchors the
    Kahler cone; rejection sampling keeps everything exact.
    """
    t = split.t
    amb = tuple(1 if i in (4, 5) else 0 for i in range(22))
    w_t = coordinates_in(t, amb)
    w_mc = coordinates_in(split.m_check, w_t)
    points = []
    rank = split.m_check.rank
    while len(points) < count:
        lam = rng.randint(2, 4)
        # A sparse perturbation keeps omega^2 > 0 likely; the bulk of the
        # lattice is negative definite.
        pert = [0] * rank
        for _ in range(rng.randint(0, 2)):
            pert[rng.randrange(rank)] = rng.choice((-1, 1))
        omega = mo.add_vec(mo.scale_vec(lam, w_mc), tuple(pert))
        if any(abs(c) > 10 for c in omega):
            continue
        den = rng.choice((1, 1, 2, 3))
        b = tuple(Fraction(rng.randint(-6, 6), den) for _ in range(split.m_check.rank))
        p = TubePoint(split.m_check, b, omega)
        if not in_tube(p):
            continue
        mode = orthogonal_b if orthogonal_b != "mixed" else rng.choice(("free", "orth", "zero"))
        if mode == "zero":
            p = TubePoint(split.m_check, (0,) * split.m_check.rank, omega)
        elif mode == "orth":
            corr = p.b_dot_omega() / p.omega_sq()
            b_orth = mo.sub_vec(p.b, mo.scale_vec(corr, p.omega))
            p = TubePoint(split.m_check, b_orth, omega)
        points.append(p)
    return points


def criterion_3() -> str:
    """Mirror map quadric identities and exact round trip."""
    _, _, _, split = _k3_setup()
    rng = random.Random(SEED)
    pts = _random_tube_points(split, 100, rng, orthogonal_b="free")
    for p in pts:
        om = phi(split, p)
        real, imag = om.omega_dot_omega()
        assert real == 0 and imag == 0, "Omega.Omega != 0"
        assert om.omega_dot_conjugate() == 2 * p.omega_sq(), "Omega.conj != 2 omega^2"
        back = phi_inverse(split, om)
        assert back.b == p.b and back.omega == p.omega, "round trip failed"
    return "100 random points: quadrics exact, round trip exact"


def criterion_4() -> str:
    """Primed-slice correspondence under phi."""
    _, _, _, split = _k3_setup()
    rng = random.Random(SEED + 1)
    pts = _random_tube_points(split, 100, rng, orthogonal_b="mixed")
    n_primed = 0
    for p in pts:
        om = phi(split, p)
        lhs = in_primed(p, split)
        rhs = in_primed(om, split)
        assert lhs == rhs, "primed membership disagrees across phi"
        n_primed += lhs
    assert 0 < n_primed < 100, "sample missed one side of the correspondence"
    return f"100 points ({n_primed} on the primed slice): equivalence exact"


def criterion_5() -> str:
    """Mirror involution H(iota-check) = r_P o H(iota)."""
    l, m, t, split = _k3_setup()
    rho_matrix = tuple(tuple((1 if i < 2 else -1) if i == j else 0 for j in range(22))
                       for i in range(22))
    rho = LatticeInvolution(l, rho_matrix)
    plus, minus = invariant_sublattices(rho)
    assert same_sublattice(plus, m)
    assert same_sublattice(minus, t)
    checked = mirror_involution(rho, split)  # constructor enforces square + isometry
    plus_c, minus_c = invariant_sublattices(checked)
    mc_in_l = t.compose(split.m_check)
    assert same_sublattice(plus_c, mc_in_l), "invariant lattice is not M-check"
    p_in_l = t.compose(split.p)
    pm = saturation(Sublattice(l, p_in_l.basis + m.basis))
    assert same_sublattice(minus_c, pm), "anti-invariant lattice is not P + M"
    return "square, isometry, invariant = M-check, anti-invariant = P + M"


def _random_symplectic(space: SymplecticSpace, rng: random.Random):
    """Product of shear matrices [[I,S],[0,I]] / [[I,0],[S,I]], S symmetric."""
    k = space.dim // 2
    out = mo.identity(space.dim)
    for _ in range(3):
        s = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                s[i][j] = s[j][i] = rng.randint(-2, 2)
        upper = rng.random() < 0.5
        shear = [[0] * space.dim for _ in range(space.dim)]
        for i in range(space.dim):
            shear[i][i] = 1
        for i in range(k):
            for j in range(k):
                if upper:
                    shear[i][k + j] = s[i][j]
                else:
                    shear[k + i][j] = s[i][j]
        out = mo.mat_mul(out, mo.freeze(shear))
    return out


def criterion_6() -> str:
    """Transpose identity for anti-symplectic maps (200 cases, dims 2,4,6)."""
    rng = random.Random(SEED + 2)
    cases = 0
    for dim, reps in ((2, 67), (4, 67), (6, 66)):
        space = SymplecticSpace.standard(dim)
        k = dim // 2
        seed_map = tuple(tuple((1 if i < k else -1) if i == j else 0 for j in range(dim))
                         for i in range(dim))
        for _ in range(reps):
            u = _random_symplectic(space, rng)
            v = _random_symplectic(space, rng)
            anti = mo.mat_mul(mo.mat_mul(u, seed_map), v)
            defect = transpose_defect(space, space, anti)
            assert all(x == 0 for row in defect for x in row), "nonzero defect"
            cases += 1
    assert cases == 200
    return "200 anti-symplectic maps in dims 2, 4, 6: defect = 0"


def criterion_7() -> str:
    """Borcea-Voisin Hodge duality on the full (N, N') grid."""
    for n in range(1, 12):
        for np_ in range(1, 12):
            d = BVData(n, np_)
            h = hodge_numbers(d)
            e = euler_characteristic(d)
            assert e == 12 * (n - np_) == 2 * (h.h11 - h.h21)
            s = mirror_swap(d)
            hs = hodge_numbers(s)
            assert (hs.h11, hs.h21) == (h.h21, h.h11)
            assert euler_characteristic(s) == -e
    return "all 121 pairs: swap and Euler identities exact"


def _random_census(rng: random.Random) -> FiberCensus:
    while True:
        n = rng.randint(1, 8)
        np_ = rng.randint(1, 8)
        base = 2 * (n - 1) + 2 * (np_ - 1)
        if base <= 24:
            break
    k_max = (24 - base) // 2
    k = rng.randint(0, k_max)
    fixed_i1 = base + 2 * k
    ii_max = (24 - fixed_i1) // 2
    n_ii = rng.randint(0, ii_max)
    non_fixed_i1 = 24 - 2 * n_ii - fixed_i1
    fixed_ii = rng.randint(0, n_ii)
    if (n_ii - fixed_ii) % 2 != 0:
        fixed_ii += 1  # keep the non-fixed count even
    records = []
    records += [FiberRecord(KodairaType.I1, True, RealFiberType.CIRCLE_POINT)] \
        * (2 * (n - 1) + k)
    records += [FiberRecord(KodairaType.I1, True, RealFiberType.FIGURE_EIGHT)] \
        * (2 * (np_ - 1) + k)
    records += [FiberRecord(KodairaType.I1, False)] * non_fixed_i1
    records += [FiberRecord(KodairaType.II, True, RealFiberType.SINGULAR_CIRCLE)] * fixed_ii
    records += [FiberRecord(KodairaType.II, False)] * (n_ii - fixed_ii)
    return FiberCensus(tuple(records), BVData(n, np_))


def criterion_8() -> str:
    """Randomized census accounting and dualization."""
    rng = random.Random(SEED + 3)
    for _ in range(1000):
        c = _random_census(rng)
        validate_census(c)
        e = total_euler(c)
        assert e == 12 * (c.bv.n - c.bv.n_prime)
        d = dualize_census(c)
        assert total_euler(d) == -e
        assert dualize_census(d) == c, "dualize is not an involution"
    return "1000 random censuses: totals, negation, involution exact"


def criterion_9() -> str:
    """Leray degeneration cross-checks."""
    for r in range(1, 20):
        assert check_degeneration(bv_table(r), y_betti(r)), f"bv_table({r})"
    sums = k3_table(1).antidiagonal_sums()
    assert sums == [1, 0, 22, 0, 1], f"k3 sums {sums}"
    et = elliptic_table()
    swapped = swap_rows(et)
    assert swapped.antidiagonal_sums() == et.antidiagonal_sums(), "row swap changed sums"
    assert swap_rows(swapped).as_dict() == et.as_dict(), "row swap is not an involution"
    return "bv tables r = 1..19, K3 sums, elliptic row swap exact"


def criterion_10() -> str:
    """Borcea-Voisin mirror period: anchor coefficient and recovery."""
    u = hyperbolic_plane(1)
    t = Sublattice.full(direct_sum(u, u))
    split = construct_mirror(check_admissible(t, (1, 0, 0, 0), (0, 1, 0, 0), 1))
    m = Sublattice.full(u)
    rng = random.Random(SEED + 4)
    for _ in range(50):
        a = rng.randint(1, 8)
        b = rng.randint(1, 8)
        omega1 = (a, b)  # a*b > 0 so omega1^2 = 2ab > 0 in U
        b1 = (Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
              Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
        p1 = TubePoint(m, b1, omega1)
        b2 = Fraction(rng.randint(-9, 9), rng.choice((1, 2)))
        w2 = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
        tp = bv_mirror_period(split, m, p1, (b2, w2))
        assert tp.coefficient("E'", "s_x") == QC(1, 0), "anchor coefficient != 1"
        rb1, rw1, (rb2, rw2) = recover_period_inputs(tp, 2)
        assert rb1 == p1.b and rw1 == p1.omega
        assert (rb2, rw2) == (b2, w2)
    return "50 random inputs: anchor = 1, recovery exact"


def _circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def criterion_11() -> str:
    """Invariant-polynomial base model on random rational points."""
    rng = random.Random(SEED + 5)
    for _ in range(1000):
        t1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t3 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        a, b = _circle_point(t1)
        c, s = _circle_point(t2)
        u, v = _circle_point(t3)
        p = BasePoint(a * c, a * s, b, u, v)
        X, Y, Z, U, V, W = base_embed(p)
        assert X * X + Y * Y + Z == 1
        assert U * U + V == 1
        assert W * W == Z * V
        assert Z >= 0 and V >= 0
        assert base_embed(p.involution_image()) == (X, Y, Z, U, V, W)
    return "1000 rational points: all three equations and invariance exact"


CRITERIA: tuple[tuple[int, str, Callable[[], str]], ...] = (
    (1, "K3 lattice certificate", criterion_1),
    (2, "mirror-lattice splitting and double mirror", criterion_2),
    (3, "mirror map identities", criterion_3),
    (4, "primed-slice correspondence", criterion_4),
    (5, "mirror involution", criterion_5),
    (6, "anti-symplectic transpose identity", criterion_6),
    (7, "Borcea-Voisin Hodge duality", criterion_7),
    (8, "census accounting", criterion_8),
    (9, "Leray degeneration", criterion_9),
    (10, "Borcea-Voisin mirror period", criterion_10),
    (11, "base quotient model", criterion_11),
)


def run_all() -> list[CriterionResult]:
    results = []
    for number, name, fn in CRITERIA:
        try:
            detail = fn()
            results.append(CriterionResult(number, name, True, detail))
        except AssertionError as exc:
            results.append(CriterionResult(number, name, False, str(exc) or "assertion failed"))
        except K3BVError as exc:
            results.append(CriterionResult(number, name, False, f"{type(exc).__name__}: {exc}"))
    return results
