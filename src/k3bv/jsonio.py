"""JSON schemas, catalog names and canonical rendering: the one module
that turns text into exact values and back.

Rationals travel as strings "p/q" in lowest terms with q > 0 (or "p"
when integral), as `dumps` writes every Fraction and `cleared_to_json`
each of n / d; integer arrays are row-major. Number text is read by
`rational_from_str` alone, which takes only "p" or "p/q": ASCII digits,
an optional leading "-" and q not zero.
Catalog names ("K3", "E8-", "U", "U:m") are accepted anywhere a lattice
object is. A reader passes on a K3BVError unchanged.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from math import gcd

from .bv import BVData
from .catalog import e8_minus, hyperbolic_plane, k3_lattice
from .census import FiberCensus, FiberRecord, KodairaType
from .errors import K3BVError
from .involution import LatticeInvolution, RealFiberType
from .lattice import IntegerLattice, Sublattice
from .mirror import MirrorSplit, check_admissible, construct_mirror

__all__ = [
    "rational_from_str", "int_from_json", "parse_coords",
    "lattice_by_name", "lattice_to_json", "lattice_from_json",
    "sublattice_to_json", "sublattice_from_json",
    "split_to_json", "split_from_json",
    "involution_from_json", "census_to_json", "census_from_json",
    "load_json_arg", "cleared_to_json", "dumps",
]

_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def rational_from_str(s) -> Fraction:
    """Read "p" or "p/q": ASCII digits, an optional leading "-", q not zero."""
    if not (isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise K3BVError(f"cannot parse rational {s!r}")
    return Fraction(s)


def int_from_json(x) -> int:
    """An int, or a rational (or "p/q" string) that is integral; floats,
    bools and non-integral values raise K3BVError."""
    f = rational_from_str(x) if isinstance(x, str) else x
    if type(f) not in (int, Fraction) or f.denominator != 1:
        raise K3BVError(f"expected an integer, got {x}")
    return f.numerator


def _int_matrix(rows) -> tuple[tuple[int, ...], ...]:
    if not isinstance(rows, (list, tuple)) or \
            not all(isinstance(row, (list, tuple)) for row in rows):
        raise K3BVError(f"expected a list of integer rows, got {rows!r}")
    return tuple(tuple(int_from_json(x) for x in row) for row in rows)


def parse_coords(s: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals, e.g. "1,0,3/2,-1"."""
    if not isinstance(s, str):
        raise K3BVError(f"expected comma-separated rationals, got {s!r}")
    parts = [p.strip() for p in s.split(",")] if s.strip() else []
    return tuple(rational_from_str(p) for p in parts)


def lattice_by_name(name: str) -> IntegerLattice:
    """Resolve a catalog name: "K3", "E8-", or "U:m" (U alone means U:1)."""
    if not isinstance(name, str):
        raise K3BVError(f"expected a catalog name, got {name!r}")
    tag = name.strip()
    if tag == "K3":
        return k3_lattice()
    if tag == "E8-":
        return e8_minus()
    if tag == "U":
        return hyperbolic_plane(1)
    if tag.startswith("U:"):
        try:
            m = int_from_json(tag[2:])
        except K3BVError:
            raise K3BVError(f"bad hyperbolic-plane scale in {name!r}") from None
        return hyperbolic_plane(m)
    raise K3BVError(f"unknown catalog lattice {name!r}")


def lattice_to_json(lat: IntegerLattice) -> dict:
    return {"rank": lat.rank, "gram": [list(row) for row in lat.gram]}


def lattice_from_json(obj) -> IntegerLattice:
    if isinstance(obj, str):
        return lattice_by_name(obj)
    if not isinstance(obj, dict) or "gram" not in obj:
        raise K3BVError("lattice JSON needs a 'gram' field or a catalog name")
    lat = IntegerLattice(_int_matrix(obj["gram"]))
    if "rank" in obj and int_from_json(obj["rank"]) != lat.rank:
        raise K3BVError(f"declared rank {obj['rank']} does not match Gram size {lat.rank}")
    return lat


def sublattice_to_json(s: Sublattice) -> dict:
    return {"ambient": lattice_to_json(s.ambient),
            "basis": [list(row) for row in s.basis]}


def sublattice_from_json(obj) -> Sublattice:
    if not isinstance(obj, dict) or "basis" not in obj:
        lat = lattice_from_json(obj)
        return Sublattice.full(lat)
    lat = lattice_from_json(obj.get("ambient"))
    return Sublattice(lat, _int_matrix(obj["basis"]))


def split_to_json(split: MirrorSplit) -> dict:
    return {
        "t": sublattice_to_json(split.t),
        "e": list(split.pair.e),
        "eprime": list(split.pair.e_prime),
        "m": split.m,
        "p_basis": [list(r) for r in split.p.basis],
        "mcheck_basis": [list(r) for r in split.m_check.basis],
        "mcheck_gram": [list(r) for r in split.m_check.gram()],
        "section_class": list(split.section_class),
    }


def split_from_json(obj) -> MirrorSplit:
    """Rebuild a split by re-running the certified construction."""
    if not isinstance(obj, dict):
        raise K3BVError("split JSON must be an object")
    try:
        t = sublattice_from_json(obj["t"])
        e = tuple(int_from_json(x) for x in obj["e"])
        ep = tuple(int_from_json(x) for x in obj["eprime"])
        m = int_from_json(obj["m"])
    except (KeyError, TypeError) as exc:
        raise K3BVError(f"bad split JSON: {exc}") from None
    return construct_mirror(check_admissible(t, e, ep, m))


def involution_from_json(obj) -> LatticeInvolution:
    try:
        lat, matrix = lattice_from_json(obj["lattice"]), _int_matrix(obj["matrix"])
    except (KeyError, TypeError) as exc:
        raise K3BVError(f"bad involution JSON: {exc}") from None
    return LatticeInvolution(lat, matrix)


def census_to_json(c: FiberCensus) -> dict:
    fibers = []
    for r in c.records:
        rec = {"kodaira": r.kodaira.value, "fixed": r.fixed}
        if r.real_type is not None:
            rec["real"] = r.real_type.value
        fibers.append(rec)
    return {"n": c.bv.n, "nprime": c.bv.n_prime, "fibers": fibers}


def census_from_json(obj) -> FiberCensus:
    try:
        bv = BVData(int_from_json(obj["n"]), int_from_json(obj["nprime"]))
        records = []
        for rec in obj["fibers"]:
            real = rec.get("real")
            if not isinstance(rec["fixed"], bool):
                raise TypeError(f"'fixed' must be true or false, got {rec['fixed']!r}")
            records.append(FiberRecord(
                KodairaType(rec["kodaira"]),
                rec["fixed"],
                RealFiberType(real) if real is not None else None,
            ))
    except K3BVError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise K3BVError(f"bad census JSON: {exc}") from None
    return FiberCensus(tuple(records), bv)


def load_json_arg(value: str):
    """Inline JSON if the argument looks like JSON, else a file path,
    else a bare catalog name."""
    v = value.strip()
    try:
        if v.startswith("{") or v.startswith("["):
            return json.loads(v)
        if os.path.exists(v):
            with open(v, "r", encoding="utf-8") as fh:
                return json.load(fh)
    except (OSError, ValueError) as exc:
        raise K3BVError(f"cannot read JSON argument: {exc}") from None
    return v


def cleared_to_json(cleared) -> list[str]:
    """The "p/q" text of each n_i / d for (n, d) = cleared, d > 0, as `dumps`
    writes its Fraction, built without one."""
    n, d = cleared
    return [str(x // d) if (g := gcd(x, d)) == d else f"{x // g}/{d // g}" for x in n]


def _fraction_text(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """Canonical, byte-stable rendering; a Fraction becomes its "p/q" text."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), default=_fraction_text)
