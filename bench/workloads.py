"""The four benchmark workloads: seeded inputs, the timed op, and its check.

Each workload is a closed loop with one client. ``make_pool`` turns a
seed into the list of inputs the loop cycles through; it uses only
``random.Random(seed)`` and the benchmark's own arithmetic, so the pool
(and its digest) is a pure function of the seed and never depends on a
basis the program under test happened to return. ``setup`` hands those
inputs to the program and warms what users would have warm; ``op`` is
the timed region; ``check`` runs after it, untimed, and raises
``CheckFailed`` on any inexact or wrong result.

Ops call k3bv through module attributes (``mirrormap.phi``, not a name
imported from it), so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

from k3bv import cli, domains, involution, lattice, mirror, mirrormap
from k3bv import matrixops as mo
from k3bv.catalog import k3_lattice
from k3bv.domains import TubePoint
from k3bv.involution import LatticeInvolution
from k3bv.lattice import Sublattice
from metrics import CLI_COMMANDS

N = 22
E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


class CheckFailed(Exception):
    """An op returned a result that is not exactly the expected one."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# --- the benchmark's own exact arithmetic (independent of k3bv) -------------

def k3_gram() -> tuple:
    """U + U + U + E8(-1) + E8(-1) in the coordinate order of k3bv.catalog."""
    g = [[0] * N for _ in range(N)]
    for b in range(3):
        g[2 * b][2 * b + 1] = g[2 * b + 1][2 * b] = 1
    for off in (6, 14):
        for i in range(8):
            g[off + i][off + i] = -2
        for i, j in E8_EDGES:
            g[off + i][off + j] = g[off + j][off + i] = 1
    return tuple(tuple(row) for row in g)


GRAM = k3_gram()
GRAM_ROWS = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in GRAM)


def unit(i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(N))


def form(v, w) -> object:
    return sum(v[i] * x * w[j] for i in range(N) if v[i] for j, x in GRAM_ROWS[i])


def matmul(a, b) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def det(a) -> int:
    """Fraction-free determinant of a small integer matrix."""
    m = [list(row) for row in a]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def hnf(rows) -> tuple:
    """Row Hermite normal form of an integer matrix: a canonical basis of
    the lattice its rows generate, so two lattices are equal exactly when
    their forms are."""
    a = [list(row) for row in rows]
    n = len(a[0]) if a else 0
    r = 0
    for c in range(n):
        for i in range(r + 1, len(a)):
            if a[i][c]:
                x, y = a[r][c], a[i][c]
                g, s, t = ext_gcd(x, y)
                # The 2x2 step [[s, t], [-y/g, x/g]] has determinant 1.
                a[r], a[i] = ([s * p + t * q for p, q in zip(a[r], a[i])],
                              [(x // g) * q - (y // g) * p for p, q in zip(a[r], a[i])])
        if r == len(a) or a[r][c] == 0:
            continue
        if a[r][c] < 0:
            a[r] = [-p for p in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [p - q * z for p, z in zip(a[i], a[r])]
        r += 1
    return tuple(tuple(row) for row in a if any(row))


def ext_gcd(x: int, y: int) -> tuple:
    """(g, s, t) with s x + t y = g = gcd(x, y) > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (x, s0, t0) if x > 0 else (-x, -s0, -t0)


def digest(obj) -> str:
    """Short, order-sensitive hash of a pool rendered as canonical JSON."""
    text = json.dumps(obj, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def blocks(rng: random.Random, kinds: list, count: int) -> list:
    """``count`` items cycling through ``kinds`` once per block (a kind
    listed twice comes twice), in a seeded order: every run that covers
    whole blocks sees the same mix."""
    out = []
    while len(out) < count:
        block = list(kinds)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def random_tube_point(rng: random.Random, mode: str) -> tuple:
    """(B, omega) in ambient coordinates, supported on coordinates 4..21.

    omega = lambda (e4 + f4) plus a sparse +-1 perturbation, with
    omega^2 > 0; B has entries in [-6, 6] over denominators 1 to 3 and is
    free, orthogonal to omega, or zero, as in acceptance criteria 3 and 4.
    """
    while True:
        omega = [0] * N
        lam = rng.randint(2, 4)
        omega[4] = omega[5] = lam
        for _ in range(rng.randint(0, 2)):
            omega[rng.randrange(4, N)] += rng.choice((-1, 1))
        w2 = form(omega, omega)
        if w2 > 0:
            break
    den = rng.randint(1, 3)
    b = [Fraction(0)] * 4 + [Fraction(rng.randint(-6, 6), den) for _ in range(4, N)]
    if mode == "zero":
        b = [Fraction(0)] * N
    elif mode == "orth":
        c = Fraction(form(b, omega), w2)
        b = [x - c * y for x, y in zip(b, omega)]
    return tuple(b), tuple(Fraction(x) for x in omega)


def ambient_to_mcheck(split):
    """Map from ambient vectors on coordinates 4..21 to the M-check
    coordinates of the catalog split, whose M-check is spanned by e4..e21."""
    mc_in_l = mo.mat_mul(split.m_check.basis, split.t.basis)
    require(all(x == 0 for row in mc_in_l for x in row[:4]), "M-check leaves e4..e21")
    inv = mo.integer_inverse(tuple(row[4:] for row in mc_in_l))
    cols = tuple(zip(*inv))

    def convert(v):
        require(all(x == 0 for x in v[:4]), "tube vector leaves coordinates 4..21")
        den = lcm(*(Fraction(x).denominator for x in v))
        vi = [int(x * den) for x in v[4:]]
        return tuple(Fraction(sum(a * b for a, b in zip(vi, col)), den) for col in cols)

    return convert


def catalog_split():
    """K3 lattice, M = first U, E = e2, E' = f2, m = 1 (rank-18 M-check)."""
    lat = k3_lattice()
    require(lat.gram == GRAM, "catalog K3 Gram differs from the reference")
    t = lattice.orthogonal_complement(Sublattice(lat, (unit(0), unit(1))))
    e = lattice.coordinates_in(t, unit(2))
    ep = lattice.coordinates_in(t, unit(3))
    pair = mirror.check_admissible(t, e, ep, 1)
    return mirror.construct_mirror(pair)


class Workload:
    name = ""
    pool_size = 0
    block = 1  # traced op counts are rounded up to whole blocks

    def make_pool(self, seed: int) -> list:
        raise NotImplementedError

    def setup(self, pool: list) -> list:
        """Turn the pool into program inputs; returns the op arguments."""
        return pool

    def op(self, x):
        raise NotImplementedError

    def check(self, x, out) -> None:
        raise NotImplementedError

    def traced_op(self, x):
        """The op as the traced run wraps it (in-process)."""
        return self.op(x)


# --- mirror_map -------------------------------------------------------------

class MirrorMap(Workload):
    """Round trip phi -> quadrics -> phi_inverse -> in_primed on the
    catalog split. Fraction-bound; almost no Smith-form work."""

    name = "mirror_map"
    pool_size = 60
    block = 3

    def make_pool(self, seed):
        rng = random.Random(seed)
        return [(mode,) + random_tube_point(rng, mode)
                for mode in blocks(rng, ["free", "orth", "zero"], self.pool_size)]

    def setup(self, pool):
        self.split = catalog_split()
        self.split.t.gram()  # cached Gram matrices that every op reads
        self.split.m_check.gram()
        convert = ambient_to_mcheck(self.split)
        out = []
        for _, b, w in pool:
            p = TubePoint(self.split.m_check, convert(b), convert(w))
            out.append((p, form(b, b), form(w, w), form(b, w)))
        return out

    def op(self, x):
        p = x[0]
        om = mirrormap.phi(self.split, p)
        quad = om.omega_dot_omega()
        conj = om.omega_dot_conjugate()
        back = mirrormap.phi_inverse(self.split, om)
        return (om, quad, conj, back,
                domains.in_primed(p, self.split), domains.in_primed(om, self.split))

    def check(self, x, out):
        p, b2, w2, bw = x
        om, quad, conj, back, primed_p, primed_om = out
        require(quad == (0, 0), "Omega.Omega != 0")
        require(conj == 2 * w2, "Omega.conj(Omega) != 2 omega^2")
        require(p.omega_sq() == w2 and p.b_sq() == b2, "tube point form changed")
        require(back.b == p.b and back.omega == p.omega, "round trip did not return B, omega")
        require(primed_p == primed_om == (bw == 0), "primed membership disagrees")


# --- lattice_growth ---------------------------------------------------------

class LatticeGrowth(Workload):
    """Random dense sublattices M of the K3 lattice, ranks 2..7, entries
    in [-3, 3], coordinates 2 and 3 zero (so e2, f2 lie in T = M-perp).
    Ranks 8 and up have a tail of multi-second ops (see bench/README.md)."""

    name = "lattice_growth"
    ranks = tuple(range(2, 8))
    pool_size = 240
    block = len(ranks)

    def make_pool(self, seed):
        rng = random.Random(seed)
        pool = []
        for r in blocks(rng, list(self.ranks), self.pool_size):
            while True:
                rows = tuple(tuple(0 if j in (2, 3) else rng.randint(-3, 3) for j in range(N))
                             for _ in range(r))
                # Nondegenerate M has linearly independent rows and T = M-perp
                # meets M only in 0, so every op has a genuine split.
                if det(matmul(matmul(rows, GRAM), tuple(zip(*rows)))) != 0:
                    break
            pool.append(rows)
        return pool

    def setup(self, pool):
        self.k3 = k3_lattice()
        require(self.k3.gram == GRAM, "catalog K3 Gram differs from the reference")
        return pool

    def op(self, rows):
        m = Sublattice(self.k3, rows)
        t = lattice.orthogonal_complement(m)
        m_sat = lattice.saturation(m)
        e = lattice.coordinates_in(t, unit(2))
        ep = lattice.coordinates_in(t, unit(3))
        split = mirror.construct_mirror(mirror.check_admissible(t, e, ep, 1))
        return t, m_sat, e, ep, split

    def check(self, rows, out):
        t, m_sat, e, ep, split = out
        r = len(rows)
        require(t.rank == N - r, f"rank T = {t.rank}, expected {N - r}")
        require(all(x == 0 for row in matmul(matmul(t.basis, GRAM), tuple(zip(*rows)))
                    for x in row), "B_T G B_M^T != 0")
        require(mo.vec_mat(e, t.basis) == unit(2) and mo.vec_mat(ep, t.basis) == unit(3),
                "coordinates of e2, f2 in T are wrong")
        require(m_sat.rank == r, "saturation changed the rank of M")
        det_t = mo.bareiss_det(t.gram())
        det_mc = mo.bareiss_det(split.m_check.gram())
        require(abs(det_t) == split.m ** 2 * abs(det_mc),
                f"|det T| = {abs(det_t)} != m^2 |det M-check| = {abs(det_mc)}")


# --- mirror_involution ------------------------------------------------------

# (coordinates of M, the U block holding E, E') for M = g(U), g(U+U),
# g(U+E8), g(U+U+E8), g(U+E8+E8).
INVOLUTION_KINDS = {
    "U": ((0, 1), 2),
    "UU": ((0, 1, 2, 3), 4),
    "UE8": ((0, 1) + tuple(range(6, 14)), 2),
    "UUE8": ((0, 1, 2, 3) + tuple(range(6, 14)), 4),
    "UE8E8": ((0, 1) + tuple(range(6, 22)), 2),
}


def minus_two_vectors() -> list:
    """E8 chain roots, e_i + root, and e_i - f_i: all of norm -2."""
    roots = [unit(k) for k in range(6, N)]
    out = list(roots)
    for i in range(6):
        for k in (6, 14):
            out.append(tuple(a + b for a, b in zip(unit(i), unit(k))))
    for b in range(3):
        out.append(tuple(a - c for a, c in zip(unit(2 * b), unit(2 * b + 1))))
    return out


def random_isometry(rng: random.Random, vectors: list, count: int) -> tuple:
    """g = s_1 ... s_count and g^-1 = s_count ... s_1 for reflections
    s(x) = x + (x.v) v in random norm -2 vectors v, by rank-one updates."""
    g = [list(unit(i)) for i in range(N)]
    g_inv = [list(unit(i)) for i in range(N)]
    for _ in range(count):
        v = rng.choice(vectors)
        nz = [k for k in range(N) if v[k]]
        gv = [sum(x * v[j] for j, x in GRAM_ROWS[i]) for i in range(N)]
        # g <- g s adds (g v) (G v)^T.
        for row in g:
            c = sum(row[k] * v[k] for k in nz)
            if c:
                row[:] = [a + c * b for a, b in zip(row, gv)]
        # g^-1 <- s g^-1 adds v ((G v)^T g^-1).
        w = [0] * N
        for k in range(N):
            if gv[k]:
                w = [a + gv[k] * b for a, b in zip(w, g_inv[k])]
        for k in nz:
            g_inv[k] = [a + v[k] * b for a, b in zip(g_inv[k], w)]
    return g, g_inv


def conjugated_involution(g: list, g_inv: list, plus: tuple) -> tuple:
    """g D g^-1 for D = +1 on the coordinates in ``plus``, -1 elsewhere,
    as 2 g P g^-1 - I or I - 2 g Q g^-1 (P, Q the coordinate projections),
    whichever sums fewer rank-one terms."""
    if len(plus) <= N // 2:
        terms, scale = plus, 2
    else:
        terms, scale = [k for k in range(N) if k not in plus], -2
    rho = []
    for i in range(N):
        row = [-scale // 2 if j == i else 0 for j in range(N)]
        for k in terms:
            c = scale * g[i][k]
            if c:
                row = [a + c * b for a, b in zip(row, g_inv[k])]
        rho.append(tuple(row))
    return tuple(rho)


class MirrorInvolution(Workload):
    """Conjugated unimodular splits: M = g(U ...) for a random isometry g
    and rho = g diag(+-1) g^-1; many small eliminations on 22x22
    matrices whose entries stay at a few bits.

    U and U+U (rank-18 and rank-16 M-check, about 150-230 ms an op)
    come eight times as often as the three kinds with an E8 in M
    (45-115 ms), so the 90th percentile lies inside one cost class and
    follows the host's slow spells, not the mix of kinds (see
    bench/README.md)."""

    name = "mirror_involution"
    mix = ("U",) * 8 + ("UU",) * 8 + ("UE8", "UUE8", "UE8E8")
    pool_size = 8 * len(mix)
    block = len(mix)
    reflections = 20

    def make_pool(self, seed):
        rng = random.Random(seed)
        vectors = minus_two_vectors()
        pool = []
        for kind in blocks(rng, list(self.mix), self.pool_size):
            while True:
                g, g_inv = random_isometry(rng, vectors, self.reflections)
                # Small sparse input: entries of g within 3 bits (about 3 in
                # 4 draws); dense growth is lattice_growth's job.
                if max(abs(x) for row in g for x in row) <= 7:
                    break
            coords, u = INVOLUTION_KINDS[kind]
            rho = conjugated_involution(g, g_inv, coords)
            cols = tuple(zip(*g))
            # g is unimodular, so the images of coordinate sublattices are
            # saturated: M-check = g(the rest), P + M = g(M coordinates + U).
            rest = [k for k in range(N) if k not in coords and k not in (u, u + 1)]
            pool.append({"kind": kind, "m": tuple(cols[k] for k in coords),
                         "e": cols[u], "eprime": cols[u + 1], "rho": rho,
                         "m_check": tuple(cols[k] for k in rest),
                         "p_plus_m": tuple(cols[k] for k in coords + (u, u + 1))})
        return pool

    def setup(self, pool):
        self.k3 = k3_lattice()
        require(self.k3.gram == GRAM, "catalog K3 Gram differs from the reference")
        return pool

    def op(self, x):
        t = lattice.orthogonal_complement(Sublattice(self.k3, x["m"]))
        e = lattice.coordinates_in(t, x["e"])
        ep = lattice.coordinates_in(t, x["eprime"])
        split = mirror.construct_mirror(mirror.check_admissible(t, e, ep, 1))
        rho = LatticeInvolution(self.k3, x["rho"])
        involution.invariant_sublattices(rho)
        checked = involution.mirror_involution(rho, split)
        return split, involution.invariant_sublattices(checked)

    def check(self, x, out):
        """Criterion 5, with lattice equality decided by Hermite forms."""
        split, (plus_c, minus_c) = out
        m_check = hnf(x["m_check"])
        require(hnf(mo.mat_mul(split.m_check.basis, split.t.basis)) == m_check,
                "M-check is not g(the rest)")
        require(hnf(plus_c.basis) == m_check, "invariant lattice is not M-check")
        require(hnf(minus_c.basis) == hnf(x["p_plus_m"]), "anti-invariant lattice is not P + M")


# --- cli_cold ---------------------------------------------------------------

def csv(v) -> str:
    return ",".join(str(Fraction(x)) for x in v)


def random_census(rng: random.Random) -> dict:
    """A valid fiber census: 24 nodal fibers, balanced fixed types."""
    while True:
        n, np_ = rng.randint(1, 8), rng.randint(1, 8)
        base = 2 * (n - 1) + 2 * (np_ - 1)
        if base <= 24:
            break
    k = rng.randint(0, (24 - base) // 2)
    fixed_i1 = base + 2 * k
    n_ii = rng.randint(0, (24 - fixed_i1) // 2)
    fixed_ii = rng.randint(0, n_ii)
    if (n_ii - fixed_ii) % 2:
        fixed_ii += 1
    fibers = ([{"kodaira": "I1", "fixed": True, "real": "circle_point"}] * (2 * (n - 1) + k)
              + [{"kodaira": "I1", "fixed": True, "real": "figure_eight"}] * (2 * (np_ - 1) + k)
              + [{"kodaira": "I1", "fixed": False}] * (24 - 2 * n_ii - fixed_i1)
              + [{"kodaira": "II", "fixed": True, "real": "singular_circle"}] * fixed_ii
              + [{"kodaira": "II", "fixed": False}] * (n_ii - fixed_ii))
    return {"n": n, "nprime": np_, "fibers": fibers}


def cli_env(root: str) -> dict:
    """Child environment: k3bv from the checkout, bytecode cache on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_in_process(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


class CliCold(Workload):
    """One fresh ``python -m k3bv.cli`` process per op, over a seeded mix
    of the eight commands; the only workload that measures cli, jsonio
    and interpreter plus import start-up."""

    name = "cli_cold"
    pool_size = 64
    block = len(CLI_COMMANDS)

    def __init__(self, root: str):
        self.root = root
        self.env = cli_env(root)
        self.expected = {}

    def make_pool(self, seed):
        rng = random.Random(seed)
        pool = []
        for cmd in blocks(rng, list(CLI_COMMANDS), self.pool_size):
            if cmd == "lattice.info":
                spec = {}
            elif cmd == "mirror.construct":
                a = rng.randrange(3)
                b = rng.choice([x for x in range(3) if x != a])
                keep = [i for i in range(N) if i not in (2 * a, 2 * a + 1)]
                spec = {"basis": [list(unit(i)) for i in keep],
                        "e": keep.index(2 * b), "eprime": keep.index(2 * b + 1)}
            elif cmd in ("mirror.phi", "mirror.phi-inverse"):
                b, w = random_tube_point(rng, rng.choice(("free", "orth", "zero")))
                spec = {"b": b, "omega": w}
            elif cmd == "bv.hodge":
                spec = {"n": rng.randint(1, 11), "nprime": rng.randint(1, 11)}
            elif cmd == "census.check":
                spec = {"census": random_census(rng)}
            elif cmd == "leray.bv":
                spec = {"rank": rng.randint(1, 19)}
            else:
                blocks_u = [0, 1, 2]
                rng.shuffle(blocks_u)
                k = rng.randint(1, 6)
                spec = {"vectors": [[(1 if i == 2 * u else k if i == 2 * u + 1 else 0)
                                     for i in range(N)] for u in blocks_u]}
            pool.append((cmd, spec))
        return pool

    def setup(self, pool):
        # The split JSON is what `mirror construct` prints for the catalog
        # split; phi-inverse takes the period that phi gives for the point.
        split = catalog_split()
        t_json = json.dumps({"ambient": "K3", "basis": [list(unit(i)) for i in range(2, N)]})
        code, split_json = run_in_process(
            ["mirror", "construct", "--lattice", t_json, "--e", csv(unit(0)[:20]),
             "--eprime", csv(unit(1)[:20]), "--m", "1"])
        require(code == 0, "mirror construct failed during setup")
        split_json = split_json.strip()
        convert = ambient_to_mcheck(split)
        argvs = []
        for cmd, spec in pool:
            group, verb = cmd.split(".")
            if cmd == "lattice.info":
                args = ["--spec", "K3"]
            elif cmd == "mirror.construct":
                lat = json.dumps({"ambient": "K3", "basis": spec["basis"]})
                args = ["--lattice", lat, "--e=" + csv(unit(spec["e"])[:20]),
                        "--eprime=" + csv(unit(spec["eprime"])[:20]), "--m", "1"]
            elif cmd == "mirror.phi":
                args = ["--split", split_json, "--b=" + csv(convert(spec["b"])),
                        "--omega=" + csv(convert(spec["omega"]))]
            elif cmd == "mirror.phi-inverse":
                om = mirrormap.phi(split, TubePoint(split.m_check, convert(spec["b"]),
                                          convert(spec["omega"])))
                args = ["--split", split_json, "--re=" + csv(om.re), "--im=" + csv(om.im)]
            elif cmd == "bv.hodge":
                args = ["--n", str(spec["n"]), "--nprime", str(spec["nprime"])]
            elif cmd == "census.check":
                args = ["--census", json.dumps(spec["census"])]
            elif cmd == "leray.bv":
                args = ["--rank", str(spec["rank"])]
            else:
                re, im, w = spec["vectors"]
                args = ["--lattice", "K3", "--omega-re=" + csv(re),
                        "--omega-im=" + csv(im), "--kahler=" + csv(w)]
            argvs.append((cmd, [group, verb] + args))
        # Warm the bytecode cache: users run an installed, compiled package.
        self.spawn(["lattice", "info", "--spec", "K3"])
        return argvs

    def spawn(self, argv: list) -> tuple:
        proc = subprocess.run([sys.executable, "-m", "k3bv.cli"] + argv, cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def op(self, x):
        return self.spawn(x[1])

    def traced_op(self, x):
        return run_in_process(x[1])

    def check(self, x, out):
        key = tuple(x[1])
        if key not in self.expected:
            self.expected[key] = run_in_process(x[1])
        code, stdout = out
        exp_code, exp_out = self.expected[key]
        require(exp_code == 0, f"in-process {x[0]} exited {exp_code}")
        require(code == 0, f"{x[0]} exited {code}")
        require(stdout == exp_out, f"{x[0]} stdout differs from in-process cli.run")


def workload(name: str, root: str) -> Workload:
    if name == "cli_cold":
        return CliCold(root)
    return {w.name: w for w in (MirrorMap, LatticeGrowth, MirrorInvolution)}[name]()

