"""verify.run_all records a failing criterion instead of aborting."""

import json
import os
import subprocess
import sys

from k3bv import verify
from k3bv.cli import run
from k3bv.errors import SplittingError


def _raises():
    raise SplittingError("no split here")


def _criteria():
    return ((1, "first", lambda: "fine"), (2, "raises", _raises),
            (3, "after", lambda: "also fine"))


def test_domain_error_is_a_fail_record(monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", _criteria())
    results = verify.run_all()
    assert [(r.number, r.passed) for r in results] == [(1, True), (2, False), (3, True)]
    assert results[1].detail == "SplittingError: no split here"


def test_verify_all_prints_fail_line(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CRITERIA", _criteria())
    assert run(["verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines] == ["PASS", "FAIL", "PASS"]
    assert lines[1].endswith("FAIL  SplittingError: no split here")
    assert run(["verify", "all", "--output", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False
    assert [r["passed"] for r in payload["results"]] == [True, False, True]


def test_sabotaged_criterion_fails_under_python_O():
    # python -O strips assert statements; the criteria must check without them.
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    code = ("import sys; from k3bv import verify; from k3bv.cli import run; "
            "verify.euler_characteristic = lambda d: 999; sys.exit(run(['verify', 'all']))")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines if "FAIL" in line] == ["7"]
    assert lines[6].endswith("FAIL  assertion failed")
