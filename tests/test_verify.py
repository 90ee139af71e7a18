"""verify.run_all records a failing criterion instead of aborting."""

import json

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
