"""The names perfbench/ reads from planarep.

perfbench/spans.py wraps functions and methods by name for ``--trace 1``, and
perfbench/setup_probe.py builds what a benchmark process needs before its
first request.  Both live outside src/, so deleting or renaming something
they use would break the benchmark without failing any other test.
"""

import importlib.util
import sys
from importlib import import_module
from pathlib import Path

import pytest

import planarep.cli  # loads every module the spans patch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load("spans")
    for name, where in spans.TARGETS.items():
        owner = import_module(where[0])
        if len(where) == 3:
            assert where[2] in vars(getattr(owner, where[1])), name
        else:
            assert callable(getattr(owner, where[1], None)), name
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_setup_probe_ready():
    _load("setup_probe").ready(["SU2"])


def test_tracer_sees_calls_through_a_parser_built_before_it(capsys):
    # the parser is built once per process, before a benchmark installs its
    # tracer; the command it dispatches to must still call the patched names
    argv = ["solve", "--torsion", "3", "--classes", "1", "--no-timestamp"]
    assert planarep.cli.main(argv) == 0
    spans = _load("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_request(0)
        assert tracer.call(spans.ROOT, planarep.cli.main, argv) == 0
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert tracer.totals["cli.emit"].calls == 1
    assert tracer.totals["solver.solve_relator"].calls == 1


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("workload", ["long-relator", "degeneracy", "moment-batch",
                                      "component-scan"])
def test_checker_accepts_every_report_of_a_run(capsys, workload):
    # the benchmark's independent checker judges every request of a seed-1
    # run, so a wrong report or exit code fails here and not only there
    workloads, check = _load("workloads"), _load("check")
    failures = []
    for req in workloads.run_requests(workload, 1):
        code = planarep.cli.main(list(req.argv))
        reason = check.check(req, code, capsys.readouterr().out)
        if reason is not None:
            failures.append(f"{req.slot} {' '.join(req.argv)}: {reason}")
    assert failures == []
