import argparse
import json
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

import planarep.cli
from planarep import cohomology, symplectic
from planarep.cli import main
from planarep.components import finite_order_classes
from planarep.errors import PlanarepError
from planarep.liegroup import get_model
from planarep.presentations import PlanarPresentation
from planarep.solver import SolveSpec, _feasibility_oracle

from oracles import det_certificate


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_schema(capsys):
    code, out = _run(capsys, "analyze", "--genus", "0", "--torsion", "2,3,7",
                     "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "planarep/6"
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


@pytest.mark.parametrize("argv", [
    ("analyze", "--genus", "0", "--torsion", "2,3,7"),
    ("cohomology", "--group", "SU2", "--genus", "1", "--torsion", "3", "--seed", "4"),
    ("symplectic", "--group", "SU2", "--genus", "1", "--torsion", "3", "--seed", "2"),
    ("components", "--group", "U2", "--genus", "0", "--torsion", "3,3", "--with-point"),
    ("solve", "--group", "SL2R", "--genus", "1", "--torsion=", "--classes=", "--seed", "0"),
    ("momenttest", "--group", "SU2", "--genus", "1", "--torsion", "3", "--trials", "2"),
])
def test_report_is_one_line_from_the_c_encoder(capsys, argv):
    # one line L per report, exactly what json.dumps prints with its default
    # separators, and the same bytes on a rerun
    code, out = _run(capsys, *argv, "--no-timestamp")
    assert code == 0
    line, end = out[:-1], out[-1]
    assert end == "\n" and "\n" not in line
    assert line == json.dumps(json.loads(line))
    assert _run(capsys, *argv, "--no-timestamp") == (0, out)


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


@pytest.mark.parametrize("seed", range(6))
def test_sl2r_genus16_momenttest_refuses_without_an_internal_error(capsys, seed):
    # at strongly hyperbolic SL(2,R) points the chain identity behind the
    # action field is lost to rounding: seed 3 reaches that check, which
    # refuses with exit 4; no seed ends in an internal error (exit 5)
    code = main(["momenttest", "--group", "SL2R", "--genus", "16", "--torsion=",
                 "--classes=", "--seed", str(seed), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code in (0, 3, 4)
    if seed == 3:
        assert code == 4
        assert err == "error: action field V inconsistent with D^-1 delta1 u\n"


@pytest.mark.parametrize("genus", [8, 16])
@pytest.mark.parametrize("seed", range(10))
def test_sl2r_symplectic_refuses_instead_of_a_false_verdict(capsys, genus, seed):
    # at strongly hyperbolic SL(2,R) points the extended Gram's rank cut
    # lands among singular values that float64 does not resolve: the report
    # refuses (exit 4) rather than print a false verdict, and no seed ends in
    # an internal error (exit 5); g16 seed 0 cuts rank 86 of 96
    code, out = _run(capsys, "symplectic", "--group", "SL2R", "--genus", str(genus),
                     "--torsion=", "--classes=", "--seed", str(seed), "--no-timestamp")
    assert code in (0, 3, 4)
    if code == 0:
        deg = json.loads(out)["degeneracy"]
        assert deg["nondegenerate"] and deg["nullspace_matches_B1"]
    if (genus, seed) == (16, 0):
        assert code == 4


def test_symplectic_refuses_ranks_that_break_the_complex(capsys):
    # U3 g0 t(3,3,3) at the default classes: the solver stops about 1e-10 from
    # a reducible point, and the cut counts delta0 and delta1 singular values
    # near 1e-5 as rank, so h1 would read -2; the dims refuse, so no report
    # derives rank_on_Z1 = -2 from them
    code, out = _run(capsys, "symplectic", "--group", "U3", "--genus", "0",
                     "--torsion=3,3,3", "--seed", "0", "--no-timestamp")
    assert code == 4
    assert out == ""


@pytest.mark.parametrize("command", [("cohomology",), ("solve",),
                                     ("components", "--with-point"), ("momenttest",)])
def test_ranks_that_break_the_complex_exit_4(capsys, command):
    # the same U3 point as above: rank delta0 + rank delta1 = 14 > dim C^1 = 12
    # would read h1 = -2, so the dims refuse for every command that reads them
    code, out = _run(capsys, *command, "--group", "U3", "--genus", "0",
                     "--torsion=3,3,3", "--seed", "0", "--no-timestamp")
    assert code == 4
    assert out == ""


def test_symplectic_report(capsys):
    code, out = _run(capsys, "symplectic", "--group", "SU2", "--genus", "1",
                     "--torsion", "3", "--seed", "2", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["degeneracy"]["nondegenerate"]
    assert "max_principal_angle" not in report["degeneracy"]
    assert report["degeneracy"]["identity_residual"] <= report["tolerances"]["rank_rel"]


@pytest.mark.parametrize("command", ["symplectic", "momenttest"])
@pytest.mark.parametrize("group, classes", [("SU2", "1"), ("U3", "4")])
def test_request_builds_one_projective_complex(capsys, monkeypatch, command, group, classes):
    # the dims, the Grams and the tangent vectors all read the extended
    # point's complex: one cut of the blocks and one E_r Q per request,
    # counted under every module name that could call them
    calls = []
    for name in ("projective_subspace", "delta1_projective"):
        f = getattr(cohomology, name)
        for module in (cohomology, symplectic, planarep.cli):
            monkeypatch.setattr(module, name, lambda *a, f=f: calls.append(f.__name__) or f(*a),
                                raising=False)
    code, _ = _run(capsys, command, "--group", group, "--genus", "1", "--torsion", "3",
                   "--classes", classes, "--seed", "2", "--no-timestamp")
    assert code == 0
    assert sorted(calls) == ["delta1_projective", "projective_subspace"]


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
    assert path.read_text() == out


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


@pytest.mark.parametrize("command", ["analyze", "components", "cohomology"])
def test_invalid_presentation_is_refused_on_every_call(capsys, command):
    # presentations are cached per process; one that raises is not, so the
    # same bad input exits 2 again, and a good one is built once
    for flag in ("--genus=-1", "--torsion=1"):
        for _ in range(2):
            capsys.readouterr()
            assert main([command, flag]) == 2, flag
            assert "error:" in capsys.readouterr().err
    pres = planarep.cli._presentation(2, (3,))
    assert planarep.cli._presentation(2, (3,)) is pres


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
    # determinant is det e = 1, not a class the det test certifies empty
    code, out = _run(capsys, "solve", "--group", group, "--genus", "1",
                     "--torsion", "3", "--no-timestamp")
    assert code == 0
    assert [c["id"] for c in json.loads(out)["spec"]["classes"]] == [class_id]


@pytest.mark.parametrize("group", ["U1", "U2", "U3"])
def test_default_tuple_passes_the_det_test_whenever_one_does(group):
    # the CLI's default tuple and the solver's certificate read one target
    # phase: against the float determinants, the default tuple passes the
    # determinant test exactly when some tuple does, and at genus 1, where
    # that test is the whole certificate, it is certified feasible
    model = get_model(group)
    for genus, target, k in product((0, 1), ("e", "-e"), (1, 2, 3)):
        for torsion in combinations_with_replacement(range(2, 6), k):
            pres = PlanarPresentation(genus, torsion)
            picked = planarep.cli._pick_classes(model, pres, (), target)
            spec = SolveSpec(pres, model, picked, minus=target == "-e")
            dets = [{complex(np.round(np.linalg.det(c.representative), 9))
                     for c in finite_order_classes(model, m)} for m in torsion]
            passes = any(abs(np.prod(ds) - np.linalg.det(spec.zeta)) <= 1e-9
                         for ds in product(*dets))
            assert det_certificate(picked, spec.zeta) == passes, (genus, target, torsion)
            if genus:
                assert _feasibility_oracle(spec) == passes, (target, torsion)


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


# seed 0 at the central target -e: the log refuses r(phi) at the branch cut
# (exit 4), or the solve ends without a point (exit 3); never a report or an
# internal error.  SL2R g1 is certified empty (exit 3)
MINUS_E = [
    pytest.param("SU2", "1", "3", "1", 4, id="SU2-g1-t3-c1"),
    pytest.param("U2", "1", "3", "4", 4, id="U2-g1-t3-c4"),
    pytest.param("SL2R", "1", "", "", 3, id="SL2R-g1"),
    pytest.param("SL2R", "2", "", "", 4, id="SL2R-g2"),
    pytest.param("U3", "1", "3", "4", 3, id="U3-g1-t3-c4"),
    pytest.param("U1", "1", "", "", 3, id="U1-g1"),
]


@pytest.mark.parametrize("command", ["symplectic", "momenttest"])
@pytest.mark.parametrize("group, genus, torsion, classes, expected", MINUS_E)
def test_minus_e_exit_codes(capsys, command, group, genus, torsion, classes, expected):
    code, out = _run(capsys, command, "--group", group, "--genus", genus,
                     "--torsion=" + torsion, "--classes=" + classes,
                     "--target=-e", "--seed", "0", "--no-timestamp")
    assert code == expected
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
    "ActionFieldInconsistent": 4,
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


@pytest.mark.parametrize("classes", ["0,1,1,1", "1,0,1,1", "1,1,0,1", "1,1,1,0"])
def test_boundary_tuple_reports_the_reducible_stratum(capsys, classes):
    # these tuples sit on the boundary of the rank-2 rule, where every
    # solution is reducible: the point is built (no restart), and its
    # stabilizer is the maximal torus
    code, out = _run(capsys, "solve", "--group", "SU2", "--genus", "0", "--torsion=3,3,3,3",
                     "--classes=" + classes, "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["restarts_used"] == 0
    component = report["component"]
    assert (component["stabilizer_dim"], component["h1"], component["orbit_dim"]) == (1, 2, 2)
