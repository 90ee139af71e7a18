import pytest
from hypothesis import strategies as st

from k3bv import (LatticeInvolution, Sublattice, check_admissible, construct_mirror,
                  direct_sum, hyperbolic_plane, k3_lattice)
from k3bv import matrixops as mo
from k3bv.verify import _k3_setup


@pytest.fixture(scope="session")
def U():
    return hyperbolic_plane(1)


@pytest.fixture(scope="session")
def UU():
    u = hyperbolic_plane(1)
    return direct_sum(u, u)


@pytest.fixture(scope="session")
def K3():
    return k3_lattice()


@pytest.fixture(scope="session")
def uu_split(UU):
    """The m = 1 split of T = U + U with E = e1, E' = f1."""
    t = Sublattice.full(UU)
    return construct_mirror(check_admissible(t, (1, 0, 0, 0), (0, 1, 0, 0), 1))


@pytest.fixture(scope="session")
def k3_split():
    """M = first U of the K3 lattice; the admissible pair sits in the
    second U with m = 1."""
    _, m, t, split = _k3_setup()
    return m, t, split


def basis_vector(n: int, i: int, c: int = 1) -> tuple:
    return tuple(c if j == i else 0 for j in range(n))


def diag_involution(lattice, signs):
    matrix = tuple(tuple(signs[i] if i == j else 0 for j in range(lattice.rank))
                   for i in range(lattice.rank))
    return LatticeInvolution(lattice, matrix)


@st.composite
def reflection_conjugates(draw):
    """s_k ... s_1 rho_0 s_1 ... s_k on K3, for rho_0 = +-1 on each U and
    each E8(-1) block and s(x) = x - 2 (x.v) / (v.v) v the reflection
    through a root v, v.v = +-2: either (a, b, c, d, 1, t - ab - cd, 0, ...)
    with t = +-1, or a e_1 plus a simple root of an E8(-1) block."""
    k3 = k3_lattice()
    g = k3.gram
    signs = [draw(st.sampled_from((1, -1))) for _ in range(5)]
    rho = diag_involution(k3, [signs[i // 2] for i in range(6)]
                          + [signs[3]] * 8 + [signs[4]] * 8).matrix
    for _ in range(draw(st.integers(1, 3))):
        a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
        if draw(st.booleans()):
            t = draw(st.sampled_from((1, -1)))
            v = (a, b, c, d, 1, t - a * b - c * d) + (0,) * 16
        else:
            j = draw(st.integers(6, 21))
            v = tuple(a if i == 0 else int(i == j) for i in range(22))
        gv = mo.mat_vec(g, v)
        f = 2 // mo.dot(v, gv)
        s = tuple(tuple(int(i == j) - f * v[i] * gv[j] for j in range(22)) for i in range(22))
        rho = mo.mat_mul(mo.mat_mul(s, rho), s)
    return LatticeInvolution(k3, rho)
