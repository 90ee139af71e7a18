"""Command-line front-end.

Every verb returns a payload, exact rationals included, and `run` alone
prints it: as canonical JSON, or through the verb's table renderer under
--output table (`leray bv` and `verify all` only). The exit code is 0 on
success, 1 on a domain error, printed as a machine-readable error object,
or a failed acceptance criterion, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys

from .bv import BVData, euler_characteristic, hodge_numbers
from .census import census_slack, dualize_census, total_euler
from .domains import TubePoint, PeriodVector
from .errors import K3BVError
from .hyperkahler import rotation_table
from .jsonio import (census_from_json, census_to_json, cleared_to_json, dumps,
                     int_from_json, lattice_from_json, load_json_arg, parse_coords,
                     split_from_json, split_to_json, sublattice_from_json)
from .lattice import Sublattice, det_and_signature
from .leray import bv_mirror_period, bv_table
from .mirror import check_admissible, construct_mirror
from .mirrormap import phi, phi_inverse

__all__ = ["main", "run"]


def _cmd_lattice_info(args) -> dict:
    lat = lattice_from_json(load_json_arg(args.spec))
    det, (p, n, z) = det_and_signature(lat)
    return {"rank": lat.rank, "signature": [p, n] if z == 0 else [p, n, z],
            "even": lat.is_even(), "det": det}


def _cmd_mirror_construct(args) -> dict:
    t = sublattice_from_json(load_json_arg(args.lattice))
    pair = check_admissible(t, tuple(map(int_from_json, parse_coords(args.e))),
                            tuple(map(int_from_json, parse_coords(args.eprime))), args.m)
    return split_to_json(construct_mirror(pair))


def _cmd_mirror_phi(args) -> dict:
    split = split_from_json(load_json_arg(args.split))
    p = TubePoint(split.m_check, parse_coords(args.b), parse_coords(args.omega))
    om = phi(split, p)
    real, imag = om.omega_dot_omega()
    re, im = map(cleared_to_json, om.cleared)
    return {"re": re, "im": im, "report": {
        "omega_dot_omega": [real, imag],
        "omega_dot_conjugate": om.omega_dot_conjugate(),
        "two_omega_sq": 2 * p.omega_sq(),
        "quadrics_hold": real == 0 and imag == 0
        and om.omega_dot_conjugate() == 2 * p.omega_sq()}}


def _cmd_mirror_phi_inverse(args) -> dict:
    split = split_from_json(load_json_arg(args.split))
    om = PeriodVector(split.t, parse_coords(args.re), parse_coords(args.im))
    b, omega = map(cleared_to_json, phi_inverse(split, om).cleared)
    return {"b": b, "omega": omega}


def _cmd_hk_table(args) -> dict:
    lat = lattice_from_json(load_json_arg(args.lattice))
    table = rotation_table(parse_coords(args.omega_re), parse_coords(args.omega_im),
                           parse_coords(args.kahler), lat)
    return {name: {"holo_re": row.holo_re, "holo_im": row.holo_im, "kahler": row.kahler}
            for name, row in (("I", table.i), ("J", table.j), ("K", table.k))}


def _cmd_bv_hodge(args) -> dict:
    d = BVData(args.n, args.nprime)
    h = hodge_numbers(d)
    return {"h11": h.h11, "h21": h.h21, "euler": euler_characteristic(d)}


def _cmd_census_check(args) -> dict:
    c = census_from_json(load_json_arg(args.census))
    return {"valid": True, "euler": total_euler(c), "slack": census_slack(c)}


def _cmd_census_dualize(args) -> dict:
    c = census_from_json(load_json_arg(args.census))
    return census_to_json(dualize_census(c))


def _cmd_leray_bv(args) -> dict:
    t = bv_table(args.rank)
    return {"entries": [{"p": p, "q": q, "dim": dim, "label": label}
                        for (p, q), (dim, label) in t.entries]}


def _leray_bv_table_text(payload) -> str:
    cells = {(e["p"], e["q"]): e for e in payload["entries"]}
    lines = []
    for q in range(3, -1, -1):
        row = []
        for p in range(4):
            e = cells.get((p, q))
            row.append(f"{e['dim']} [{e['label']}]" if e else "0")
        lines.append(f"q={q} | " + " | ".join(row))
    lines.append("      " + " | ".join(f"p={p}" for p in range(4)))
    return "\n".join(lines)


def _cmd_leray_bv_period(args) -> dict:
    m_lat = Sublattice.full(lattice_from_json(load_json_arg(args.m)))
    p1 = TubePoint(m_lat, parse_coords(args.b1), parse_coords(args.omega1))
    b2 = parse_coords(args.b2)
    w2 = parse_coords(args.omega2)
    if len(b2) != 1 or len(w2) != 1:
        raise K3BVError("--b2 and --omega2 take a single rational each")
    tp = bv_mirror_period(p1, (b2[0], w2[0]))
    return {"components": [
        {"label": label, "factor": factor, "re": c.re, "im": c.im}
        for (label, factor), c in tp.components]}


def _cmd_verify_all(args) -> dict:
    # Imported here: only this command needs the acceptance criteria.
    from .verify import run_all
    results = run_all()
    return {"results": [
        {"criterion": r.number, "name": r.name,
         "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results)}


def _verify_table_text(payload) -> str:
    results = payload["results"]
    width = max(len(r["name"]) for r in results)
    return "\n".join(f"{r['criterion']:2d}  {r['name']:<{width}}  "
                     f"{'PASS' if r['passed'] else 'FAIL'}  {r['detail']}" for r in results)


def _int_option(text: str) -> int:
    """An integer option; argparse prints the message as the usage error."""
    try:
        return int_from_json(text)
    except K3BVError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text}") from None


class _Parser(argparse.ArgumentParser):
    """Reads "--flag -1,0" as "--flag=-1,0": argparse alone takes a spaced
    value that starts with a single "-" for an option. Every option but
    --help takes a value."""

    def parse_args(self, args=None, namespace=None):
        out: list[str] = []
        for token in sys.argv[1:] if args is None else args:
            prev = out[-1] if out else ""
            if token.startswith("-") and not token.startswith("--") and prev.startswith("--") \
                    and "=" not in prev and not "--help".startswith(prev):
                out[-1] = f"{prev}={token}"
            else:
                out.append(token)
        return super().parse_args(out, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="k3bv",
                     description="Exact K3 mirror symmetry and Borcea-Voisin invariants")
    sub = parser.add_subparsers(dest="group", required=True)

    def add(group_parser, name, fn, table_renderer=None, _output="json"):
        p = group_parser.add_parser(name)
        p.set_defaults(fn=fn, table_renderer=table_renderer)
        if table_renderer is not None:
            p.add_argument("--output", choices=("json", "table"), default=_output)
        return p

    lattice = sub.add_parser("lattice").add_subparsers(dest="verb", required=True)
    p = add(lattice, "info", _cmd_lattice_info)
    p.add_argument("--spec", required=True,
                   help="lattice JSON, a file path, or a catalog name (K3, E8-, U:m)")

    mirror = sub.add_parser("mirror").add_subparsers(dest="verb", required=True)
    p = add(mirror, "construct", _cmd_mirror_construct)
    p.add_argument("--lattice", required=True, help="sublattice or lattice JSON for T")
    p.add_argument("--e", required=True, help="coordinates of E, comma separated")
    p.add_argument("--eprime", required=True, help="coordinates of E'")
    p.add_argument("--m", type=_int_option, required=True)
    p = add(mirror, "phi", _cmd_mirror_phi)
    p.add_argument("--split", required=True, help="MirrorSplit JSON (as printed by construct)")
    p.add_argument("--b", required=True)
    p.add_argument("--omega", required=True)
    p = add(mirror, "phi-inverse", _cmd_mirror_phi_inverse)
    p.add_argument("--split", required=True)
    p.add_argument("--re", required=True)
    p.add_argument("--im", required=True)

    hk = sub.add_parser("hk").add_subparsers(dest="verb", required=True)
    p = add(hk, "table", _cmd_hk_table)
    p.add_argument("--lattice", required=True)
    p.add_argument("--omega-re", dest="omega_re", required=True)
    p.add_argument("--omega-im", dest="omega_im", required=True)
    p.add_argument("--kahler", required=True)

    bv = sub.add_parser("bv").add_subparsers(dest="verb", required=True)
    p = add(bv, "hodge", _cmd_bv_hodge)
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--nprime", type=_int_option, required=True)

    census = sub.add_parser("census").add_subparsers(dest="verb", required=True)
    p = add(census, "check", _cmd_census_check)
    p.add_argument("--census", required=True, help="census JSON or a file path")
    p = add(census, "dualize", _cmd_census_dualize)
    p.add_argument("--census", required=True)

    leray = sub.add_parser("leray").add_subparsers(dest="verb", required=True)
    p = add(leray, "bv", _cmd_leray_bv, table_renderer=_leray_bv_table_text)
    p.add_argument("--rank", type=_int_option, required=True)
    p = add(leray, "bv-period", _cmd_leray_bv_period)
    p.add_argument("--m", default="U", help="Gram of M (JSON or catalog name)")
    p.add_argument("--b1", required=True, help="B over M, comma separated rationals")
    p.add_argument("--omega1", required=True, help="omega over M")
    p.add_argument("--b2", required=True, help="elliptic B (one rational)")
    p.add_argument("--omega2", required=True, help="elliptic omega (one rational, > 0)")

    verify = sub.add_parser("verify").add_subparsers(dest="verb", required=True)
    add(verify, "all", _cmd_verify_all, _verify_table_text, _output="table")

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.fn(args)
    except K3BVError as exc:
        print(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    table = args.table_renderer is not None and args.output == "table"
    print(args.table_renderer(payload) if table else dumps(payload))
    return 0 if payload.get("all_passed", True) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
