"""CLI grammar, exit codes, and byte-stable JSON output."""

import json
import os
import subprocess
import sys

import pytest

import k3bv
from k3bv import K3BVError
from k3bv.cli import run
from k3bv.jsonio import involution_from_json

UU_JSON = ('{"ambient":{"gram":[[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]},'
           '"basis":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}')


LERAY_BV_TABLE = (
    "q=3 | 1 [QE' (x) s_x] | 0 | 0 | 1 [Q]\n"
    "q=2 | 0 | 19 [QE' (x) s_y + Mcheck_Q (x) s_x] | 3 [M_Q + Q] | 0\n"
    "q=1 | 0 | 3 [M_Q + Q] | 19 [Mcheck_Q (x) s_y + QE (x) s_x] | 0\n"
    "q=0 | 1 [Q] | 0 | 0 | 1 [Q]\n"
    "      p=0 | p=1 | p=2 | p=3\n")
BV_PERIOD = (
    '{"components": [{"factor": "s_x", "im": "0", "label": "E", "re": "1"}, '
    '{"factor": "s_y", "im": "1", "label": "E", "re": "0"}, '
    '{"factor": "s_x", "im": "0", "label": "E\'", "re": "1"}, '
    '{"factor": "s_y", "im": "1", "label": "E\'", "re": "0"}, '
    '{"factor": "s_x", "im": "1", "label": "m0", "re": "0"}, '
    '{"factor": "s_y", "im": "0", "label": "m0", "re": "-1"}, '
    '{"factor": "s_x", "im": "1", "label": "m1", "re": "0"}, '
    '{"factor": "s_y", "im": "0", "label": "m1", "re": "-1"}]}\n')
VERIFY_ALL_JSON = (
    '{"all_passed": true, "results": ['
    '{"criterion": 1, "detail": "even, det = -1, signature (3,19)"'
    ', "name": "K3 lattice certificate", "passed": true}, '
    '{"criterion": 2, "detail": "rank 18, |det| match, double mirror recovers M"'
    ', "name": "mirror-lattice splitting and double mirror", "passed": true}, '
    '{"criterion": 3, "detail": "100 random points: quadrics exact, round trip exact"'
    ', "name": "mirror map identities", "passed": true}, '
    '{"criterion": 4, "detail": "100 points (64 on the primed slice): equivalence exact"'
    ', "name": "primed-slice correspondence", "passed": true}, '
    '{"criterion": 5, "detail": "square, isometry, invariant = M-check, anti-invariant = P + M"'
    ', "name": "mirror involution", "passed": true}, '
    '{"criterion": 6, "detail": "200 anti-symplectic maps in dims 2, 4, 6: defect = 0"'
    ', "name": "anti-symplectic transpose identity", "passed": true}, '
    '{"criterion": 7, "detail": "all 121 pairs: swap and Euler identities exact"'
    ', "name": "Borcea-Voisin Hodge duality", "passed": true}, '
    '{"criterion": 8, "detail": "1000 random censuses: totals, negation, involution exact"'
    ', "name": "census accounting", "passed": true}, '
    '{"criterion": 9, "detail": "bv tables r = 1..19, K3 sums, elliptic row swap exact"'
    ', "name": "Leray degeneration", "passed": true}, '
    '{"criterion": 10, "detail": "50 random inputs: anchor = 1, recovery exact"'
    ', "name": "Borcea-Voisin mirror period", "passed": true}, '
    '{"criterion": 11, "detail": "1000 rational points: all three equations and invariance exact"'
    ', "name": "base quotient model", "passed": true}]}\n')


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestLatticeInfo:
    def test_k3(self, capsys):
        code, out = invoke(capsys, "lattice", "info", "--spec", "K3")
        assert code == 0
        assert json.loads(out) == {"rank": 22, "signature": [3, 19],
                                   "even": True, "det": -1}

    def test_unknown_name_is_domain_error(self, capsys):
        code, out = invoke(capsys, "lattice", "info", "--spec", "Leech")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "K3BVError"

    def test_usage_error(self, capsys):
        assert run(["lattice", "info"]) == 2


def test_cold_import_leaves_verify_unloaded():
    """Only `verify all` needs the acceptance criteria; every other
    command starts without importing them."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3bv.__file__)))
    code = "import sys, k3bv.cli; print('k3bv.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


class TestBVHodge:
    def test_values(self, capsys):
        code, out = invoke(capsys, "bv", "hodge", "--n", "5", "--nprime", "2")
        assert code == 0
        assert json.loads(out) == {"h11": 34, "h21": 16, "euler": 36}

    def test_byte_stability(self, capsys):
        _, first = invoke(capsys, "bv", "hodge", "--n", "3", "--nprime", "4")
        _, second = invoke(capsys, "bv", "hodge", "--n", "3", "--nprime", "4")
        assert first == second


class TestMirrorRoundTrip:
    def test_construct_phi_inverse(self, capsys):
        code, out = invoke(capsys, "mirror", "construct", "--lattice", UU_JSON,
                           "--e", "1,0,0,0", "--eprime", "0,1,0,0", "--m", "1")
        assert code == 0
        split_json = out.strip()
        assert json.loads(split_json)["mcheck_gram"] == [[0, 1], [1, 0]]

        code, out = invoke(capsys, "mirror", "phi", "--split", split_json,
                           "--b", "1/2,0", "--omega", "1,1")
        assert code == 0
        period = json.loads(out)
        assert period["report"]["quadrics_hold"] is True

        # "--flag=value" form: coordinate strings may start with a minus.
        code, out = invoke(capsys, "mirror", "phi-inverse", "--split", split_json,
                           "--re=" + ",".join(period["re"]),
                           "--im=" + ",".join(period["im"]))
        assert code == 0
        assert json.loads(out) == {"b": ["1/2", "0"], "omega": ["1", "1"]}

    def test_spaced_negative_coordinates(self, capsys):
        # A spaced value that starts with "-" is a value, not an option.
        spaced = invoke(capsys, "mirror", "construct", "--lattice", UU_JSON,
                        "--e", "-1,0,0,0", "--eprime", "0,-1,0,0", "--m", "1")
        joined = invoke(capsys, "mirror", "construct", "--lattice", UU_JSON,
                        "--e=-1,0,0,0", "--eprime=0,-1,0,0", "--m", "1")
        assert spaced[0] == 0
        assert spaced == joined

    def test_inadmissible_input(self, capsys):
        code, out = invoke(capsys, "mirror", "construct", "--lattice", UU_JSON,
                           "--e", "1,0,0,0", "--eprime", "0,1,0,0", "--m", "2")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "AdmissibilityError"


class TestHkTable:
    def test_table(self, capsys):
        lat = ('{"gram":[[0,1,0,0,0,0],[1,0,0,0,0,0],[0,0,0,1,0,0],'
               '[0,0,1,0,0,0],[0,0,0,0,0,1],[0,0,0,0,1,0]]}')
        code, out = invoke(capsys, "hk", "table", "--lattice", lat,
                           "--omega-re", "1,1,0,0,0,0",
                           "--omega-im", "0,0,1,1,0,0",
                           "--kahler", "0,0,0,0,1,1")
        assert code == 0
        table = json.loads(out)
        assert table["K"]["holo_re"] == ["0", "0", "1", "1", "0", "0"]
        assert table["K"]["kahler"] == ["1", "1", "0", "0", "0", "0"]


class TestCensus:
    CENSUS = json.dumps({"n": 3, "nprime": 4, "fibers": (
        [{"kodaira": "I1", "fixed": True, "real": "circle_point"}] * 4
        + [{"kodaira": "I1", "fixed": True, "real": "figure_eight"}] * 6
        + [{"kodaira": "I1", "fixed": False}] * 14)})

    def test_check(self, capsys):
        code, out = invoke(capsys, "census", "check", "--census", self.CENSUS)
        assert code == 0
        assert json.loads(out) == {"valid": True, "euler": -12, "slack": 0}

    def test_dualize(self, capsys):
        code, out = invoke(capsys, "census", "dualize", "--census", self.CENSUS)
        assert code == 0
        dual = json.loads(out)
        assert (dual["n"], dual["nprime"]) == (4, 3)
        fixed = [f for f in dual["fibers"] if f["fixed"]]
        assert sum(f["real"] == "circle_point" for f in fixed) == 6

    def test_invalid_census(self, capsys):
        bad = json.dumps({"n": 1, "nprime": 1,
                          "fibers": [{"kodaira": "I1", "fixed": False}] * 23})
        code, out = invoke(capsys, "census", "check", "--census", bad)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "CensusError"


class TestLeray:
    def test_bv_json(self, capsys):
        code, out = invoke(capsys, "leray", "bv", "--rank", "2")
        assert code == 0
        entries = {(e["p"], e["q"]): e["dim"] for e in json.loads(out)["entries"]}
        assert entries[(1, 1)] == 3
        assert entries[(2, 1)] == 19

    def test_bv_table_output(self, capsys):
        code, out = invoke(capsys, "leray", "bv", "--rank", "2",
                           "--output", "table")
        assert code == 0
        assert out == LERAY_BV_TABLE

    def test_bv_period(self, capsys):
        code, out = invoke(capsys, "leray", "bv-period", "--b1", "0,0",
                           "--omega1", "1,1", "--b2", "0", "--omega2", "1")
        assert code == 0
        comps = {(c["label"], c["factor"]): (c["re"], c["im"])
                 for c in json.loads(out)["components"]}
        assert comps[("E'", "s_x")] == ("1", "0")
        assert comps[("m0", "s_y")] == ("-1", "0")
        assert out == BV_PERIOD

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(UU_JSON)
        code, out = invoke(capsys, "mirror", "construct", "--lattice", str(path),
                           "--e", "1,0,0,0", "--eprime", "0,1,0,0", "--m", "1")
        assert code == 0
        assert json.loads(out)["m"] == 1


class TestOutputOption:
    """Only the verbs with a table renderer take --output."""

    @pytest.mark.parametrize("argv", [
        ["lattice", "info", "--spec", "K3"],
        ["mirror", "construct", "--lattice", UU_JSON, "--e", "1,0,0,0",
         "--eprime", "0,1,0,0", "--m", "1"],
        ["mirror", "phi", "--split", "{}", "--b", "0,0", "--omega", "1,1"],
        ["mirror", "phi-inverse", "--split", "{}", "--re", "0", "--im", "0"],
        ["hk", "table", "--lattice", "U", "--omega-re", "1,1", "--omega-im", "1,-1",
         "--kahler", "1,1"],
        ["bv", "hodge", "--n", "2", "--nprime", "10"],
        ["census", "check", "--census", "{}"],
        ["census", "dualize", "--census", "{}"],
        ["leray", "bv-period", "--b1", "0,0", "--omega1", "1,1", "--b2", "0",
         "--omega2", "1"],
    ], ids=lambda argv: "-".join(argv[:2]))
    @pytest.mark.parametrize("value", ["json", "table"])
    def test_usage_error_without_a_renderer(self, capsys, argv, value):
        assert run(argv + ["--output", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --output" in captured.err
        assert "Traceback" not in captured.err

    def test_verify_all_json(self, capsys):
        code, out = invoke(capsys, "verify", "all", "--output", "json")
        assert code == 0
        assert out == VERIFY_ALL_JSON


class TestStrictInput:
    """Inputs that are not exact integers, or not JSON, are domain errors:
    exit 1 with an error payload on stdout and nothing on stderr."""

    def assert_domain_error(self, capsys, *argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["type"] == "K3BVError"
        assert captured.err == ""
        return json.loads(captured.out)["error"]["message"]

    @pytest.mark.parametrize("spec", [
        '{"gram":[[1.7]]}',
        '{"gram":[[true]]}',
        '{"gram":[["1/2"]]}',
        '{"gram":[["a"]]}',
        '{"gram":[5]}',
        '{bad',
        '[1,',
        '{"rank":1.0,"gram":[[2]]}',
        '{"rank":true,"gram":[[2]]}',
    ])
    def test_bad_lattice_spec(self, capsys, spec):
        self.assert_domain_error(capsys, "lattice", "info", "--spec", spec)

    @pytest.mark.parametrize("lattice", ['{"basis":[[1,0]]}', '[[0,1],[1,0]]'])
    def test_bad_sublattice_spec(self, capsys, lattice):
        self.assert_domain_error(capsys, "mirror", "construct", "--lattice", lattice,
                                 "--e", "1,0", "--eprime", "0,1", "--m", "1")

    def test_integral_rational_string_accepted(self, capsys):
        code, out = invoke(capsys, "lattice", "info", "--spec", '{"gram":[["6/3"]]}')
        assert code == 0
        assert json.loads(out) == {"rank": 1, "signature": [1, 0], "even": True, "det": 2}

    def test_bad_json_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        self.assert_domain_error(capsys, "lattice", "info", "--spec", str(path))

    @pytest.mark.parametrize("flag", ["--e", "--eprime"])
    def test_non_integral_coordinates(self, capsys, flag):
        args = {"--e": "1,0,0,0", "--eprime": "0,1,0,0"}
        args[flag] = "3/2,0,0,0" if flag == "--e" else "0,3/2,0,0"
        message = self.assert_domain_error(
            capsys, "mirror", "construct", "--lattice", UU_JSON,
            "--e", args["--e"], "--eprime", args["--eprime"], "--m", "1")
        assert "3/2" in message

    def test_integral_coordinates_accepted(self, capsys):
        code, out = invoke(capsys, "mirror", "construct", "--lattice", UU_JSON,
                           "--e", "2/2,0,0,0", "--eprime", "0,1,0,0", "--m", "1")
        assert code == 0
        assert json.loads(out)["e"] == [1, 0, 0, 0]

    @pytest.mark.parametrize("field,value", [("e", [1.0, 0, 0, 0]), ("m", True),
                                             ("eprime", ["0", "1/2", 0, 0])])
    def test_bad_split_json(self, capsys, field, value):
        split = {"t": json.loads(UU_JSON), "e": [1, 0, 0, 0],
                 "eprime": [0, 1, 0, 0], "m": 1}
        split[field] = value
        self.assert_domain_error(capsys, "mirror", "phi", "--split", json.dumps(split),
                                 "--b", "0,0", "--omega", "1,1")

    @pytest.mark.parametrize("n,nprime", [(1.5, 2), (True, 2), (3, "9/2")])
    def test_bad_census_counts(self, capsys, n, nprime):
        census = json.dumps({"n": n, "nprime": nprime, "fibers": []})
        self.assert_domain_error(capsys, "census", "check", "--census", census)

    @pytest.mark.parametrize("census", ['{"n": 1, "nprime": 1, "fibers": [5]}',
                                        '{"n": 1, "nprime": 1, "fibers": 5}', '[1]'])
    def test_bad_census_shape(self, capsys, census):
        self.assert_domain_error(capsys, "census", "check", "--census", census)

    @pytest.mark.parametrize("obj", ["x", [1], {}, {"lattice": "U"}])
    def test_bad_involution_json(self, obj):
        with pytest.raises(K3BVError, match="bad involution JSON"):
            involution_from_json(obj)

    @pytest.mark.parametrize("flag,argv", [
        ("--n", ["bv", "hodge", "--nprime", "2", "--n"]),
        ("--m", ["mirror", "construct", "--lattice", "U", "--e", "1,0", "--eprime", "0,1",
                 "--m"]),
        ("--rank", ["leray", "bv", "--rank"]),
    ])
    @pytest.mark.parametrize("value", ["x", "3/2", "1_0"])
    def test_integer_option_message(self, capsys, flag, argv, value):
        assert run(argv + [value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: expected an integer, got {value}\n" in captured.err
        assert "int_from_json" not in captured.err

    @pytest.mark.parametrize("fixed", ["false", 0, 1, None])
    def test_fixed_must_be_a_json_bool(self, capsys, fixed):
        census = json.dumps({"n": 1, "nprime": 1, "fibers": (
            [{"kodaira": "I1", "fixed": False}] * 22
            + [{"kodaira": "II", "fixed": fixed, "real": "singular_circle"}])})
        message = self.assert_domain_error(capsys, "census", "check", "--census", census)
        assert "fixed" in message


class TestReaderErrorTypes:
    """A domain error raised while a reader builds its values keeps its type
    and message; only the reader's own schema failures are relabelled."""

    def test_fiber_error_is_a_census_error(self, capsys):
        census = json.dumps({"n": 1, "nprime": 1, "fibers": (
            [{"kodaira": "I1", "fixed": False, "real": "figure_eight"}]
            + [{"kodaira": "I1", "fixed": False}] * 23)})
        for verb in ("check", "dualize"):
            code, out = invoke(capsys, "census", verb, "--census", census)
            assert code == 1
            assert json.loads(out) == {"error": {
                "type": "CensusError", "message": "non-fixed fibers carry no real type"}}

    def test_dependent_split_rows_are_a_dimension_mismatch(self, capsys):
        t = json.loads(UU_JSON)
        t["basis"][2] = [1, 0, 0, 0]
        split = json.dumps({"t": t, "e": [1, 0, 0, 0], "eprime": [0, 1, 0, 0], "m": 1})
        code, out = invoke(capsys, "mirror", "phi", "--split", split,
                           "--b", "0,0", "--omega", "1,1")
        assert code == 1
        assert json.loads(out) == {"error": {
            "type": "DimensionMismatch",
            "message": "generator rows must be linearly independent over Q"}}

    def test_schema_errors_are_still_named(self, capsys):
        code, out = invoke(capsys, "census", "check", "--census",
                           '{"n": 1, "nprime": 1, "fibers": [{"kodaira": "I3", "fixed": false}]}')
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "K3BVError", "message": "bad census JSON: 'I3' is not a valid KodairaType"}
