"""The judging rules of scripts/report_digest.py --compare."""

import importlib.util
import json
import os
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"


@pytest.fixture(scope="module")
def digest():
    # the script pins BLAS in os.environ and puts src/ and perfbench/ on
    # sys.path when loaded; keep both out of the other tests
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _record(code=0, **report):
    base = {"schema": "planarep/4", "dims": {"h1": 4}, "classes": [{"id": "1/3"}],
            "solve_residual": 1e-11, "result": {"restarts_used": 1},
            "degeneracy": {"angle": 0.5}}
    base.update(report)
    return {"code": code, "stdout": json.dumps(base) if code == 0 else ""}


def _compare(digest, old, new, tol=1e-6):
    worst, schemas = {}, Counter()
    lines = digest.compare(old, new, tol, "w 0 slot", worst, schemas)
    return lines, worst, schemas


def test_equal_reports_have_no_difference(digest):
    lines, worst, schemas = _compare(digest, _record(), _record())
    assert lines == [] and worst == {} and not schemas


def test_judged_fields_must_be_equal(digest):
    assert _compare(digest, _record(), _record(3))[0] == ["DIFF w 0 slot exit 0 -> 3"]
    lines = _compare(digest, _record(), _record(dims={"h1": 5}))[0]
    assert lines == ["DIFF w 0 slot dims.h1: 4 -> 5"]
    lines = _compare(digest, _record(), _record(classes=[{"id": "2/3"}]))[0]
    assert lines == ["DIFF w 0 slot classes.id: '1/3' -> '2/3'"]
    assert _compare(digest, _record(), _record(extra=1))[0] == ["DIFF w 0 slot report keys differ"]


def test_floats_agree_to_the_tolerance(digest):
    lines, worst, _ = _compare(digest, _record(), _record(degeneracy={"angle": 0.5 + 3e-8}))
    assert lines == [] and worst["degeneracy.angle"][0] == pytest.approx(3e-8, rel=1e-6)
    lines, _, _ = _compare(digest, _record(), _record(degeneracy={"angle": 0.6}))
    assert len(lines) == 1 and lines[0].startswith("DIFF w 0 slot degeneracy.angle")


def test_path_fields_are_exempt_and_schema_is_counted(digest):
    new = _record(schema="planarep/5", solve_residual=0.5, result={"restarts_used": 2})
    lines, worst, schemas = _compare(digest, _record(), new)
    assert lines == ["EXEMPT w 0 slot result.restarts_used: 1 -> 2"]
    assert "solve_residual" in worst
    assert schemas == Counter({"planarep/4 -> planarep/5": 1})


def test_keys_may_change_across_a_schema_bump(digest):
    # a bump prints the key paths it adds and removes, and still judges
    # every shared leaf; within one schema a key change stays a difference
    old = _record(degeneracy={"angle": 0.5, "max_principal_angle": 1e-9})
    new = _record(schema="planarep/5", degeneracy={"angle": 0.6, "identity_residual": 1e-15})
    lines, worst, schemas = _compare(digest, old, new)
    assert lines == ["KEYS w 0 slot removed degeneracy.max_principal_angle",
                     "KEYS w 0 slot added degeneracy.identity_residual",
                     "DIFF w 0 slot degeneracy.angle: 0.5 -> 0.6 (relative 1.0e-01)"]
    assert set(worst) == {"degeneracy.angle"}  # the shared float was judged
    assert schemas == Counter({"planarep/4 -> planarep/5": 1})
    same = _record(degeneracy={"angle": 0.5, "identity_residual": 1e-15})
    assert _compare(digest, old, same)[0] == ["DIFF w 0 slot report keys differ"]
    # a bump that only adds a key differs by its KEYS line alone
    assert _compare(digest, _record(), _record(schema="planarep/5", x=1))[0] == \
        ["KEYS w 0 slot added x"]


def test_seed_and_round_lists(digest):
    assert digest._ints("1-3,7") == [1, 2, 3, 7]
    assert digest._ints("0") == [0]


def test_check_judges_every_request(digest, capsys):
    reqs = list(digest.requests(["moment-batch"], [0], [1]))
    assert digest.check_all(iter(reqs), digest.load_checker().check) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"# moment-batch: {len(reqs)} requests, 0 failed (0 probes)" in out[0]
    slots = sorted(r.slot for _, _, _, r in reqs if r.command == "momenttest" and not r.probe)
    worst = [line.split(" in ")[1].split(" (")[0] for line in out[1:]]
    assert worst == slots


def test_check_prints_each_failure_with_its_argv(digest, capsys):
    reqs = list(digest.requests(["moment-batch"], [0], [1]))
    analyze = next(r for _, _, _, r in reqs if r.slot == "analyze")

    def check(req, code, stdout):
        return "wrong report: stub" if req.slot == "analyze" else None

    assert digest.check_all(iter(reqs), check) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["FAIL moment-batch seed 1 round 0 analyze: wrong report: stub",
                       "  argv: " + " ".join(analyze.argv)]
    assert f"# moment-batch: {len(reqs)} requests, 1 failed (0 probes)" in out[2]


def test_digest_takes_seed_lists(digest, capsys):
    # one line per request, led by its seed: a list of seeds digests each
    # seed in turn, as separate runs would
    def lines(seeds):
        argv = ["--workload", "component-scan", "--rounds", "0", "--seed", seeds]
        assert digest.main(argv) == 0
        return capsys.readouterr().out.splitlines()

    one, two = lines("1"), lines("2")
    assert lines("1,2") == lines("1-2") == one + two
    assert {line.split()[0] for line in one} == {"1"} and {line.split()[0] for line in two} == {"2"}
    reqs = list(digest.requests(["component-scan"], [0], [1]))
    assert [line.split()[1:4] for line in one] == [["component-scan", "0", r.slot] for _, _, _, r in reqs]


def test_dump_and_compare_take_one_seed(digest, tmp_path):
    with pytest.raises(SystemExit):
        digest.main(["--workload", "component-scan", "--seed", "1,2",
                     "--dump", str(tmp_path / "out.jsonl")])
    assert not (tmp_path / "out.jsonl").exists()
