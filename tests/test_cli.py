import argparse
import json

import numpy as np
import pytest

import planarep.cli
from planarep.cli import main
from planarep.errors import PlanarepError


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_schema(capsys):
    code, out = _run(capsys, "analyze", "--genus", "0", "--torsion", "2,3,7",
                     "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "planarep/3"
    assert report["measure"] == "1/42"
    assert report["lcm"] == 42
    assert report["fundamental_cycle"] == ["42", "-21", "-14", "-6"]


def test_reproducibility_identical_json(capsys):
    args = ("cohomology", "--group", "SU2", "--genus", "1", "--torsion", "3",
            "--seed", "4", "--no-timestamp")
    code1, out1 = _run(capsys, *args)
    code2, out2 = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_timestamp_present_by_default(capsys):
    code, out = _run(capsys, "analyze", "--genus", "1")
    assert code == 0
    assert "timestamp" in json.loads(out)


def test_cohomology_report(capsys):
    code, out = _run(capsys, "cohomology", "--group", "U1", "--genus", "2",
                     "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == {"h0": 1, "h1": 4, "h2": 1}
    assert report["euler"] == report["euler_expected"]
    assert report["poincare_duality"]


def test_components_report(capsys):
    code, out = _run(capsys, "components", "--group", "SU2", "--genus", "0",
                     "--torsion", "5", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["torsion_classes"][0]["count"] == 3  # floor(5/2)+1


def test_solve_report(capsys):
    code, out = _run(capsys, "solve", "--group", "SU2", "--genus", "0",
                     "--torsion", "3,3,3", "--seed", "7", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["residual"] < 1e-8
    assert len(report["component"]["labels"]) == 3


def test_momenttest_passes(capsys):
    code, out = _run(capsys, "momenttest", "--group", "SU2", "--genus", "1",
                     "--torsion", "3", "--seed", "2", "--trials", "3",
                     "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert report["max_relative_residual"] < 1e-8


def test_symplectic_report(capsys):
    code, out = _run(capsys, "symplectic", "--group", "SU2", "--genus", "1",
                     "--torsion", "3", "--seed", "2", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["degeneracy"]["nondegenerate"]


def test_exit_code_parse_error(capsys):
    code, _ = _run(capsys, "analyze", "--torsion", "nope")
    assert code == 2


def test_exit_code_infeasible(capsys):
    code, _ = _run(capsys, "solve", "--group", "SU2", "--genus", "0",
                   "--torsion", "2,3,7", "--no-timestamp")
    assert code == 3


def test_json_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = _run(capsys, "analyze", "--genus", "1", "--no-timestamp",
                     "--json-out", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_unwritable_json_out_exits_2(tmp_path, capsys, where):
    path = tmp_path / "missing" / "report.json" if where == "missing-parent" else tmp_path
    code, out = _run(capsys, "analyze", "--genus", "1", "--no-timestamp",
                     "--json-out", str(path))
    assert code == 2
    assert out == ""


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    argvs = [("analyze", "--genus", "0", "--torsion", "2,3,7", "--no-timestamp"),
             ("solve", "--torsion", "3", "--classes", "1", "--no-timestamp")]
    before = [_run(capsys, *argv) for argv in argvs]
    assert [code for code, _ in before] == [0, 0]

    def no_new_parser(self, *args, **kwargs):
        raise AssertionError("main built a second argument parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_new_parser)
    assert [_run(capsys, *argv) for argv in argvs] == before


def test_reused_parser_carries_no_state(tmp_path, capsys):
    # each argv sets or omits an option its neighbour omits or sets, so an
    # option that stuck to the parser would change the output in one order
    path = tmp_path / "report.json"
    u2 = ("--group", "U2", "--torsion", "3", "--no-timestamp")
    argvs = [("components", *u2, "--with-point", "--json-out", str(path)),
             ("components", *u2),
             ("analyze", "--seed", "-1", "--no-timestamp"),
             ("solve", *u2, "--classes=1", "--target=e"),
             ("not-a-command",),
             ("solve", *u2)]
    forward = [_run(capsys, *argv) for argv in argvs]
    assert path.read_text() == forward[0][1]
    backward = [_run(capsys, *argv) for argv in reversed(argvs)]
    assert [code for code, _ in forward] == [0, 0, 2, 3, 2, 0]
    assert backward[::-1] == forward
    assert forward[0][1] != forward[1][1]


def test_argparse_exit_code():
    # main() converts argparse's SystemExit into the parse exit code
    assert main(["not-a-command"]) == 2


def test_bad_input_exits_2(capsys):
    # a torsion order below 2, a group without finite class enumeration and
    # a tolerance that is not positive
    assert main(["analyze", "--torsion", "1"]) == 2
    assert main(["solve", "--group", "SL2R", "--torsion", "3"]) == 2
    assert main(["analyze", "--tol-rank", "0"]) == 2
    # a negative seed, and tolerances that cannot decide anything: not
    # finite, a relative rank cut at or above the largest singular value, or
    # a relator tolerance that lets a point missing the relator pass
    for flag, value in [("--seed", "-1"), ("--tol-rank", "inf"),
                        ("--tol-rank", "nan"), ("--tol-rank", "1"),
                        ("--tol-grp", "nan"), ("--tol-grp", "inf"),
                        ("--tol-grp", "1"), ("--tol-grp", "1e6")]:
        capsys.readouterr()
        assert main(["solve", "--torsion", "3", "--classes", "1",
                     flag, value]) == 2, flag + " " + value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
    assert main(["analyze", "--seed", "-1"]) == 2


@pytest.mark.parametrize("seed", [3, 8, 18, 37, 55, 107, 113])
def test_sl2r_seeds_with_singular_trial_steps(capsys, seed):
    # trial steps at these seeds overflow to singular generators; they are
    # rejected, so the solve either verifies r(phi) = e or reports not found
    code, out = _run(capsys, "solve", "--group", "SL2R", "--genus", "2",
                     "--seed", str(seed), "--no-timestamp")
    assert code in (0, 3)
    if code == 0:
        gens = [np.array([[complex(re, im) for re, im in row] for row in g])
                for g in json.loads(out)["result"]["generators"]]
        r = np.eye(2)
        for s in (1, 2, -1, -2, 3, 4, -3, -4):
            g = gens[abs(s) - 1]
            r = r @ (g if s > 0 else np.linalg.inv(g))
        assert np.linalg.norm(r - np.eye(2)) < 1e-6


@pytest.mark.parametrize("group, class_id", [("U2", "U2|m=3|[1/3,2/3]"),
                                             ("U3", "U3|m=3|[0,1/3,2/3]")])
def test_default_class_passes_det_test(capsys, group, class_id):
    # without --classes, U(n) takes the first nontrivial class whose
    # determinant is det(zeta) = 1, not a class the det test certifies empty
    code, out = _run(capsys, "solve", "--group", group, "--genus", "1",
                     "--torsion", "3", "--no-timestamp")
    assert code == 0
    assert [c["id"] for c in json.loads(out)["spec"]["classes"]] == [class_id]


def test_default_classes_unchanged_for_su2(capsys):
    code, out = _run(capsys, "solve", "--group", "SU2", "--genus", "0",
                     "--torsion", "3,4,5", "--seed", "1", "--no-timestamp")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["spec"]["classes"]]
    assert ids == ["SU2|m=3|[1/3,2/3]", "SU2|m=4|[1/4,3/4]", "SU2|m=5|[1/5,4/5]"]


def test_default_class_without_det_compatible_tuple_is_certified(capsys):
    # det(-e) = -1 in U(3) is no product of cube roots of unity
    code, _ = _run(capsys, "solve", "--group", "U3", "--genus", "1",
                   "--torsion", "3", "--target=-e", "--no-timestamp")
    assert code == 3


@pytest.mark.parametrize("group, torsion, classes", [("SU2", "3,3,3,3", "1,0,0,0"),
                                                    ("U2", "3,3", "1,3")])
def test_empty_genus0_tuple_is_certified(capsys, group, torsion, classes):
    # the rank-2 class rule certifies these empty; no restart is spent
    code = main(["solve", "--group", group, "--genus", "0", "--torsion=" + torsion,
                 "--classes=" + classes, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "certified infeasible" in captured.err


@pytest.mark.parametrize("extra", [("--trials", "0"), ("--trials", "-1"),
                                   ("--threshold", "-1"), ("--threshold", "0"),
                                   ("--threshold", "nan")])
def test_momenttest_bad_trials_or_threshold_exits_2(capsys, extra):
    code, out = _run(capsys, "momenttest", "--group", "SU2", "--genus", "1",
                     "--torsion", "3", "--no-timestamp", *extra)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command", ["solve", "cohomology", "symplectic",
                                     "momenttest", "components"])
def test_empty_presentation_exits_2(capsys, command):
    extra = ("--with-point",) if command == "components" else ()
    code, out = _run(capsys, command, "--genus", "0", "--torsion=",
                     "--no-timestamp", *extra)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("torsion, classes", [("3,3,3", "a,1,1"), ("", "1")])
def test_bad_class_index_exits_2(capsys, torsion, classes):
    # a class index that is no integer, or one for a torsion generator the
    # presentation does not have
    code, _ = _run(capsys, "solve", "--genus", "1", "--torsion=" + torsion,
                   "--classes=" + classes, "--no-timestamp")
    assert code == 2


def test_relator_at_the_log_branch_cut_exits_4(capsys):
    # r(phi) = -e in SU(2) has both eigenvalue arguments at pi: the
    # extended point is refused as a tolerance failure, not an internal error
    code, out = _run(capsys, "momenttest", "--group", "SU2", "--genus", "1",
                     "--target=-e", "--seed", "0", "--no-timestamp")
    assert code == 4
    assert out == ""


@pytest.mark.parametrize("command", ["symplectic", "momenttest"])
def test_form_reports_carry_no_calibration(capsys, command):
    # the conventions omega = cup - B and mu = -<Lam, .> are fixed, so no
    # fitted sign/scale record is reported
    code, out = _run(capsys, command, "--group", "SU2", "--genus", "1",
                     "--torsion", "3", "--seed", "2", "--no-timestamp")
    assert code == 0
    assert "calibration" not in json.loads(out)


def test_symplectic_near_the_log_branch_cut_exits_4(capsys):
    # the solved r(phi) sits about 1e-9 from -e, inside the solve tolerance
    # tau_grp = 1e-8: the extended point is refused, not reported with a
    # wrong full rank
    code, out = _run(capsys, "symplectic", "--group", "SU2", "--genus", "2",
                     "--target=-e", "--seed", "0", "--no-timestamp")
    assert code == 4
    assert out == ""


# the exit code of each error type, written out here rather than read from
# ``exit_code``; "RuntimeError" stands for any exception that is not a
# package error
EXIT_CODES = {
    "PlanarepError": 5,
    "MalformedInput": 2,
    "TorsionOrderTooSmall": 2,
    "UnsupportedModel": 2,
    "FillVerificationFailed": 5,
    "ToleranceExceeded": 4,
    "LogBranchFailure": 4,
    "SingularDexp": 4,
    "OutsideStarDomain": 4,
    "RelatorConstraintViolated": 5,
    "NotACocycle": 5,
    "ClassResolutionFailed": 5,
    "NotFound": 3,
    "InfeasibleSpec": 3,
    "RuntimeError": 5,
}


def _error_types(cls=PlanarepError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


@pytest.mark.parametrize("error", [*_error_types(), RuntimeError],
                         ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error_type(capsys, monkeypatch, error):
    # an error type missing from EXIT_CODES fails here with a KeyError
    expected = EXIT_CODES[error.__name__]

    def raise_error(spec):
        raise error("planted")

    monkeypatch.setattr(planarep.cli, "solve_relator", raise_error)
    code = main(["solve", "--torsion", "3", "--classes", "1", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert captured.err.startswith("internal error:" if expected == 5 else "error:")


@pytest.mark.parametrize("argv", [("components", "--classes=a"),
                                  ("components", "--target=x"),
                                  ("solve", "--target=x"),
                                  ("solve", "--classes=,")])
def test_lists_and_target_are_checked_at_parse_time(capsys, argv):
    # checked even where no point is solved: components without --with-point
    code, out = _run(capsys, *argv, "--no-timestamp")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("torsion", ["", "3"])
def test_blank_class_list_means_default_classes(capsys, torsion):
    argv = ("solve", "--torsion=" + torsion, "--no-timestamp")
    blank = _run(capsys, *argv, "--classes= ")
    default = _run(capsys, *argv)
    assert blank[0] == 0
    assert blank == default
