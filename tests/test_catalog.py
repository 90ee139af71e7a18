"""Named lattices: U(m), E8(-1), K3."""

import pytest

from k3bv import (K3BVError, det_and_signature, e8_minus, hyperbolic_plane,
                  k3_lattice, lattice_by_name)


def test_u1_gram():
    assert hyperbolic_plane(1).gram == ((0, 1), (1, 0))


def test_u2_gram():
    assert hyperbolic_plane(2).gram == ((0, 2), (2, 0))


@pytest.mark.parametrize("m", range(1, 51))
def test_um_even_det_signature(m):
    lat = hyperbolic_plane(m)
    assert lat.is_even()
    det, sig = det_and_signature(lat)
    assert det == -m * m
    assert sig == (1, 1, 0)


def test_um_rejects_nonpositive():
    with pytest.raises(K3BVError):
        hyperbolic_plane(0)


def test_e8_diagonal():
    g = e8_minus().gram
    assert all(g[i][i] == -2 for i in range(8))


def test_e8_certificate():
    lat = e8_minus()
    assert lat.rank == 8
    assert lat.is_even()
    det, sig = det_and_signature(lat)
    assert det == 1
    assert sig == (0, 8, 0)


def test_e8_edge_count():
    # The E8 diagram is a tree on 8 nodes: exactly 7 edges.
    g = e8_minus().gram
    ones = sum(1 for i in range(8) for j in range(i + 1, 8) if g[i][j] == 1)
    assert ones == 7
    assert all(g[i][j] in (0, 1) for i in range(8) for j in range(8) if i != j)


def test_k3_certificate():
    lat = k3_lattice()
    assert lat.rank == 22
    assert lat.is_even()
    det, sig = det_and_signature(lat)
    assert abs(det) == 1
    assert sig == (3, 19, 0)


def test_k3_block_structure():
    g = k3_lattice().gram
    assert g[0][1] == 1 and g[0][0] == 0
    assert g[4][5] == 1
    assert g[6][6] == -2  # first E8 block starts at index 6
    assert g[5][6] == 0   # no cross terms between summands


@pytest.mark.parametrize("name,rank", [("K3", 22), ("E8-", 8), ("U", 2), ("U:3", 2)])
def test_lattice_by_name(name, rank):
    assert lattice_by_name(name).rank == rank


def test_lattice_by_name_rejects_unknown():
    with pytest.raises(K3BVError):
        lattice_by_name("Leech")
    with pytest.raises(K3BVError):
        lattice_by_name("U:x")


def _readme_catalog_names():
    """Backquoted names in the README sentence that lists catalog names;
    the pattern `U:m` stands for U:1 .. U:3."""
    import re
    from pathlib import Path
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    sentence = re.search(r"a catalog name \(([^)]*\))", text).group(1)
    names = []
    for name in re.findall(r"`([^`]+)`", sentence):
        names += [f"U:{m}" for m in (1, 2, 3)] if name == "U:m" else [name]
    return names


def test_readme_catalog_names_resolve():
    names = _readme_catalog_names()
    assert {"K3", "E8-", "U"} <= set(names)
    for name in names:
        lattice_by_name(name)
