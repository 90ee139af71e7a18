"""One grammar for number text: "p" or "p/q", ASCII digits and an optional
leading "-", read by jsonio.rational_from_str alone. Every text entry
point, in the library and on the command line, refuses anything else."""

import contextlib
import io
import json

import pytest

from k3bv import K3BVError, cli, lattice_by_name
from k3bv.jsonio import int_from_json, lattice_from_json, rational_from_str

UU = '{"gram": [[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]}'
U2U = '{"gram": [[0,2,0,0],[2,0,0,0],[0,0,0,1],[0,0,1,0]]}'


class Refused(Exception):
    """The CLI exited 1 (domain error) or 2 (usage error)."""


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    if code in (1, 2):
        raise Refused(code)
    assert code == 0
    return json.loads(out.getvalue())


# name -> (read the text, or raise K3BVError or Refused; does the entry
# point strip spaces; well-formed text -> canonical text it must read as).
ENTRY_POINTS = {
    "rational_from_str": (rational_from_str, False, {"-3": "-3", "3/6": "1/2", "6/3": "2"}),
    "int_from_json": (int_from_json, False, {"-3": "-3", "6/3": "2"}),
    "lattice_by_name": (lambda s: lattice_by_name("U:" + s), True, {"6/3": "2"}),
    "JSON Gram entry": (lambda s: lattice_from_json({"gram": [[s]]}), False,
                        {"-3": "-3", "6/3": "2"}),
    "--m": (lambda s: run_cli("mirror", "construct", "--lattice", U2U, "--e", "1,0,0,0",
                              "--eprime", "0,1,0,0", "--m", s), False, {"6/3": "2"}),
    "--n": (lambda s: run_cli("bv", "hodge", "--n", s, "--nprime", "0"), False, {"6/3": "2"}),
    "--rank": (lambda s: run_cli("leray", "bv", "--rank", s), False, {"6/3": "2"}),
    "--e": (lambda s: run_cli("mirror", "construct", "--lattice", UU, "--e", f"{s},0,1,0",
                              "--eprime", "0,0,0,1", "--m", "1"), True,
            {"-3": "-3", "6/3": "2"}),
}
MALFORMED = ["1.5", "1e3", "1_0", "+3", "٣", "0x10", "3/-6", "1/0"]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_one_grammar_at_every_entry_point(name):
    read, strips_spaces, well_formed = ENTRY_POINTS[name]
    for text in MALFORMED + ([] if strips_spaces else [" 3"]):
        with pytest.raises((K3BVError, Refused)):
            read(text)
    for text, canonical in well_formed.items():
        assert read(text) == read(canonical), (name, text)
    if name != "rational_from_str":
        with pytest.raises((K3BVError, Refused)):
            read("3/6")
