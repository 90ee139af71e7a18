"""Spectral tables, degeneration cross-checks, and the filtration-based
Borcea-Voisin mirror period.

Tables record dimensions plus symbolic summand labels keyed by (p, q);
all checks are dimension checks, so subspaces are never embedded.
The tensor period lives in the factored basis
{E, E', basis of M} x {s_x, s_y}.
"""

from __future__ import annotations

from fractions import Fraction

from . import matrixops as mo
from .cnum import QC
from .domains import TubePoint, in_tube
from .errors import K3BVError
from .lattice import Sublattice
from .mirror import MirrorSplit
from .record import Record

__all__ = ["SpectralTable", "Filtration", "TensorPeriod", "k3_table",
           "elliptic_table", "bv_table", "y_betti", "check_degeneration",
           "swap_rows", "filtration_dims", "bv_mirror_period",
           "recover_period_inputs"]


class SpectralTable(Record):
    """E2 entries: (p, q) -> (dimension, symbolic label)."""

    entries: tuple[tuple[tuple[int, int], tuple[int, str]], ...]

    def as_dict(self) -> dict[tuple[int, int], tuple[int, str]]:
        return dict(self.entries)

    def dimension(self, p: int, q: int) -> int:
        return self.as_dict().get((p, q), (0, ""))[0]

    def antidiagonal_sums(self) -> list[int]:
        d = self.as_dict()
        if not d:
            return []
        top = max(p + q for p, q in d)
        sums = [0] * (top + 1)
        for (p, q), (dim, _) in d.items():
            sums[p + q] += dim
        return sums


class Filtration(Record):
    """Increasing dimensions whose quotients match antidiagonal entries."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if any(b < a for a, b in zip(self.dims, self.dims[1:])):
            raise K3BVError("filtration dimensions must be non-decreasing")

    def quotients(self) -> tuple[int, ...]:
        return (self.dims[0],) + tuple(b - a for a, b in zip(self.dims, self.dims[1:]))


def k3_table(r: int) -> SpectralTable:
    """E2 table of the elliptic fibration on a K3; independent of r."""
    if not 1 <= r <= 20:
        raise K3BVError(f"rank of M must be in 1..20, got {r}")
    return SpectralTable((
        ((0, 0), (1, "Q")),
        ((2, 0), (1, "QE")),
        ((0, 2), (1, "Qsigma = QE'")),
        ((2, 2), (1, "Q")),
        ((1, 1), (20, "H1(S2, R1f_*Q)")),
    ))


def elliptic_table() -> SpectralTable:
    """E2 table of the circle fibration on an elliptic curve."""
    return SpectralTable((
        ((0, 0), (1, "Q")),
        ((1, 0), (1, "Qs_y")),
        ((0, 1), (1, "Qs_x")),
        ((1, 1), (1, "Q")),
    ))


def swap_rows(t: SpectralTable) -> SpectralTable:
    """Interchange the q = 0 and q = 1 rows (dualizing the fibration)."""
    out = []
    for (p, q), val in t.entries:
        if q not in (0, 1):
            raise K3BVError("row swap is defined for two-row tables only")
        out.append(((p, 1 - q), val))
    return SpectralTable(tuple(sorted(out)))


def bv_table(r: int) -> SpectralTable:
    """E2 table of the three-torus fibration on Y = S x A / involution."""
    if not 1 <= r <= 19:
        raise K3BVError(f"rank of M must be in 1..19, got {r}")
    return SpectralTable((
        ((0, 0), (1, "Q")),
        ((3, 0), (1, "Q")),
        ((0, 3), (1, "QE' (x) s_x")),
        ((3, 3), (1, "Q")),
        ((1, 1), (r + 1, "M_Q + Q")),
        ((2, 2), (r + 1, "M_Q + Q")),
        ((1, 2), (21 - r, "QE' (x) s_y + Mcheck_Q (x) s_x")),
        ((2, 1), (21 - r, "Mcheck_Q (x) s_y + QE (x) s_x")),
    ))


def y_betti(r: int) -> tuple[int, ...]:
    """Betti numbers of Y from the invariant part of the Kunneth formula."""
    if not 1 <= r <= 19:
        raise K3BVError(f"rank of M must be in 1..19, got {r}")
    return (1, 0, r + 1, 2 * (22 - r), r + 1, 0, 1)


def check_degeneration(t: SpectralTable, betti) -> bool:
    """True iff every antidiagonal sum equals the matching Betti number."""
    sums = t.antidiagonal_sums()
    sums += [0] * (len(betti) - len(sums))
    return tuple(sums) == tuple(betti)


def filtration_dims(t: SpectralTable, n: int) -> Filtration:
    """Filtration of total degree n: d_i = sum of E2^{n-j,j} for j <= i."""
    running = 0
    dims = []
    for i in range(n + 1):
        running += t.dimension(n - i, i)
        dims.append(running)
    return Filtration(tuple(dims))


class TensorPeriod(Record):
    """Finite complex-rational coefficients on {E, E', m_i} x {s_x, s_y}.

    Labels "E" and "E'" name the hyperbolic basis of P; "m<i>" names the
    i-th generator of M.
    """

    components: tuple[tuple[tuple[str, str], QC], ...]

    def coefficient(self, label: str, factor: str) -> QC:
        for key, val in self.components:
            if key == (label, factor):
                return val
        return QC(0, 0)


def bv_mirror_period(split: MirrorSplit, m_lattice: Sublattice,
                     p1: TubePoint, p2: tuple) -> TensorPeriod:
    """Expand (B1 + E' + ((w1^2 - B1^2)/2) E + i w1) (x) (s_x + tau s_y).

    p1 is a tube point over M; p2 = (B2, omega2) is the elliptic factor,
    tau = B2 + i omega2. The coefficient of E' (x) s_x is exactly 1, and
    the input is recoverable from the components modulo the span of
    E (x) s_x and E (x) s_y.
    """
    if split.m != 1:
        raise K3BVError("the Borcea-Voisin mirror period needs an m = 1 split")
    if p1.lattice != m_lattice:
        raise K3BVError("p1 must be a tube point over the given M")
    if not in_tube(p1):
        raise K3BVError("p1 is not in the tube domain")
    b2, w2 = Fraction(p2[0]), Fraction(p2[1])
    if w2 <= 0:
        raise K3BVError("the elliptic Kahler parameter omega2 must be positive")
    tau = QC(b2, w2)
    w_sq = p1.omega_sq()
    b_sq = p1.b_sq()
    # Complex coefficients of Omega_S in the basis {E, E', m_0, ...}.
    # The E coefficient carries the -(omega.B) imaginary correction of
    # the mirror map, so the K3 factor is an honest period; it lies in
    # the span of E (x) {s_x, s_y}, which recovery quotients out anyway.
    omega_s: list[tuple[str, QC]] = [
        ("E", QC((w_sq - b_sq) / 2, -p1.b_dot_omega())),
        ("E'", QC(1, 0)),
    ]
    for i, (b_c, w_c) in enumerate(zip(p1.b, p1.omega)):
        omega_s.append((f"m{i}", QC(b_c, w_c)))
    components = []
    for label, coeff in omega_s:
        if not coeff.is_zero():
            components.append(((label, "s_x"), coeff))
        prod = coeff * tau
        if not prod.is_zero():
            components.append(((label, "s_y"), prod))
    return TensorPeriod(tuple(components))


def recover_period_inputs(tp: TensorPeriod, m_rank: int) -> tuple[tuple, tuple, tuple]:
    """Read (B1, omega1) and (B2, omega2) back off a tensor period.

    Works modulo the filtration span of E (x) s_x and E (x) s_y: only the
    E' and M components are consulted.
    """
    anchor = tp.coefficient("E'", "s_x")
    if anchor.is_zero():
        raise K3BVError("period has no E' (x) s_x component; not a mirror period")
    tau = tp.coefficient("E'", "s_y") / anchor
    b1, w1 = [], []
    for i in range(m_rank):
        coeff = tp.coefficient(f"m{i}", "s_x") / anchor
        b1.append(coeff.re)
        w1.append(coeff.im)
    return tuple(b1), tuple(w1), (tau.re, tau.im)
