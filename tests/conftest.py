import pytest

from k3bv import (Sublattice, check_admissible, construct_mirror, direct_sum,
                  hyperbolic_plane, k3_lattice)
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
