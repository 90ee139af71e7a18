"""Fuzzing of the in-process CLI: random argv, random JSON and random
coordinate strings for every command group.

Whatever the input, `run` returns 0, 1 or 2, prints JSON on stdout for
exit codes 0 and 1 (except where a table was asked for), and never lets a
traceback out.
"""

import contextlib
import functools
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from k3bv import cli, verify

UU = {"ambient": {"gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]},
      "basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
SPLIT = {"t": UU, "e": [1, 0, 0, 0], "eprime": [0, 1, 0, 0], "m": 1}
CENSUS = {"n": 3, "nprime": 4, "fibers": (
    [{"kodaira": "I1", "fixed": True, "real": "circle_point"}] * 4
    + [{"kodaira": "I1", "fixed": True, "real": "figure_eight"}] * 6
    + [{"kodaira": "I1", "fixed": False}] * 14)}
NAMES = ["K3", "U", "U:2", "U:0", "U:-1", "U:x", "E8-", "I1", "II", "circle_point",
         "figure_eight", "singular_circle", "1/2", "-3", "2/2"]
KEYS = ["gram", "rank", "basis", "ambient", "t", "e", "eprime", "m", "n", "nprime",
        "fibers", "kodaira", "fixed", "real"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats(-4, 4)
    | st.sampled_from(NAMES) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), children, max_size=4),
    max_leaves=16)


@st.composite
def mutated(draw, obj):
    """obj unchanged, replaced, or with one field dropped or mutated."""
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return obj
    if choice == 1 or not isinstance(obj, (dict, list)) or not obj:
        return draw(json_values)
    if isinstance(obj, dict):
        key = draw(st.sampled_from(sorted(obj)))
        out = dict(obj)
        if draw(st.booleans()):
            del out[key]
        else:
            out[key] = draw(mutated(obj[key]))
        return out
    i = draw(st.integers(0, len(obj) - 1))
    return obj[:i] + [draw(mutated(obj[i]))] + obj[i + 1:]


def json_arg(*valid):
    """Inline JSON built around valid inputs, catalog names, or junk text."""
    return st.one_of(st.sampled_from(valid).map(json.dumps),
                     st.sampled_from(valid).flatmap(mutated).map(json.dumps),
                     json_values.map(json.dumps), st.sampled_from(NAMES),
                     st.text(max_size=6))


UUU = {"gram": [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
               [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0]]}
entry = st.one_of(st.integers(-3, 3).map(str),
                  st.fractions(-3, 3, max_denominator=4).map(str),
                  st.sampled_from(["", " ", "1.5", "nan", "x", "1/0", "True",
                                   "1_0", "1e3", "٣"]),
                  st.text(max_size=3))


def coords(*valid):
    """Comma-separated entries: a valid vector, a mutated one, or junk."""
    return st.one_of(st.sampled_from(valid),
                     st.sampled_from(valid).flatmap(lambda v: st.lists(
                         st.sampled_from(v.split(",")) | entry, min_size=len(v.split(",")) - 1,
                         max_size=len(v.split(",")) + 1)).map(",".join),
                     st.lists(entry, max_size=6).map(",".join))


def ints(*valid):
    return st.one_of(st.sampled_from(valid).map(str), st.integers(-25, 25).map(str),
                     st.text(max_size=3))


# Only the verbs with a table renderer declare --output.
outputs = st.sampled_from(["json", "table", "json", "table", "x"])
lattices = json_arg(UU, UU["ambient"], UUU, {"gram": [[2]]},
                    {"rank": 2, "gram": [[0, 2], [2, 0]]})

COMMANDS = {
    ("lattice", "info"): {"--spec": lattices},
    ("mirror", "construct"): {"--lattice": lattices, "--e": coords("1,0,0,0", "0,0,1,0"),
                              "--eprime": coords("0,1,0,0", "0,0,0,1"), "--m": ints(1, 2)},
    ("mirror", "phi"): {"--split": json_arg(SPLIT), "--b": coords("0,0", "1/2,-1"),
                        "--omega": coords("1,1", "2,3")},
    ("mirror", "phi-inverse"): {"--split": json_arg(SPLIT), "--re": coords("1,1,1,-1"),
                                "--im": coords("0,0,1,1", "1,-1,0,0")},
    ("hk", "table"): {"--lattice": lattices, "--omega-re": coords("1,1,0,0,0,0"),
                      "--omega-im": coords("0,0,1,1,0,0"), "--kahler": coords("0,0,0,0,1,1")},
    ("bv", "hodge"): {"--n": ints(1, 3, 10), "--nprime": ints(0, 4, 10)},
    ("census", "check"): {"--census": json_arg(CENSUS)},
    ("census", "dualize"): {"--census": json_arg(CENSUS)},
    ("leray", "bv"): {"--rank": ints(1, 2, 19), "--output": outputs},
    ("leray", "bv-period"): {"--m": lattices, "--b1": coords("0,0"), "--omega1": coords("1,1"),
                             "--b2": coords("0", "1/3"), "--omega2": coords("1", "2")},
    ("verify", "all"): {"--output": outputs},
}


def not_help(token: str) -> bool:
    # argparse answers -h, --help and its abbreviations with text and exit 0.
    return not token.startswith(("-h", "--h"))


@st.composite
def argvs(draw):
    group, verb = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[(group, verb)]
    argv = [group, verb]
    for flag in sorted(options):
        if draw(st.integers(0, 19)):  # most flags are given, some are missing
            value = draw(options[flag])
            # Both forms pass values that start with "-"; the parser joins
            # a spaced one to its flag.
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=6)))
    if draw(st.integers(0, 19)) == 0:
        argv[draw(st.integers(0, 1))] = draw(st.text(max_size=6))
    return [token for token in argv if not_help(token)]


@pytest.fixture(scope="module", autouse=True)
def run_all_once():
    """verify all is deterministic and takes seconds; run it once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run_all", functools.cache(verify.run_all))
        yield


def prints_table(argv) -> bool:
    """--output table on a verb that declares --output."""
    return vars(cli._build_parser().parse_args(argv)).get("output") == "table"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        return
    payload = out.getvalue()
    if prints_table(argv) and (code == 0 or argv[0] == "verify"):
        assert payload.strip()
    else:
        json.loads(payload)
    if code == 1 and argv[0] != "verify":
        assert "error" in json.loads(payload), (argv, payload)
