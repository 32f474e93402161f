"""Smoke test of scripts/bench_scaling.py at two small genera, one sweep."""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_scaling.py"


def test_bench_scaling_fits_slopes_for_every_model():
    # the script pins BLAS in os.environ and puts src/ on sys.path when
    # loaded; keep both out of the other tests
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec = importlib.util.spec_from_file_location("bench_scaling", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    record = module.record([1, 2], 1, 1)
    json.dumps(record)  # what main writes must serialise
    assert record["relator_lengths"] == [6, 10]
    assert set(record["rows"]) == {"per_handle", "walk", "Ad_matrix", "jacobian",
                                   "cohomology_data", "cup_matrix"}
    for row in record["rows"]:
        assert set(record["rows"][row]) == set(module.MODELS)
        for r in record["rows"][row].values():
            assert len(r["times_s"]) == 2 and all(t > 0 for t in r["times_s"])
            assert isinstance(r["slope"], float)
            assert r["sweep_slopes"] == [r["slope"]] and r["slope_spread"] == 0.0
    assert all(name.split("/")[0] in record["rows"] for name in record["superlinear"])
    # the retraction kernels on the 2l + n stack, every model
    retraction = record["retraction"]
    assert retraction["genera"] == [1, 2] and retraction["stack"] == [4, 6]
    for name in module.MODELS:
        for kind in ("cayley", "exp", "solve"):
            r = retraction[name][kind]
            assert len(r["times_s"]) == 2 and all(t > 0 for t in r["times_s"])
            assert isinstance(r["slope"], float)
    assert all(len(s) == 2 and all(isinstance(x, float) for x in s)
               for s in retraction["slope_in_d"].values())
    # genus 0: the boundary tuple is built, the interior one searched
    solve = record["solve_genus0"]
    assert solve["ks"] == list(range(3, 13))
    assert solve["boundary"]["restarts_used"] == [0] * 10
    assert all(n >= 1 for n in solve["interior"]["restarts_used"])
    for r in (solve["boundary"], solve["interior"]):
        assert len(r["times_s"]) == 10 and isinstance(r["slope"], float)
    # spec set-up per class tuple, with a cold class cache and a warm one
    setup = record["spec_setup"]
    assert setup["ks"] == list(range(2, 9))
    assert set(setup) - {"torsion_order", "ks"} == set(module.SETUP_GROUPS)
    for name in module.SETUP_GROUPS:
        assert set(setup[name]) == {"cold", "warm"}
        for r in setup[name].values():
            assert len(r["times_s"]) == 7 and all(t > 0 for t in r["times_s"])
            assert isinstance(r["slope"], float)
    assert setup["SU2"]["warm"]["tuples"] == [6] * 7
    assert setup["U2"]["warm"]["tuples"] == [14] * 7
    # end to end through the CLI: every request of the rows succeeds
    cli = record["cli"]
    assert cli["genera"] == [1, 2]
    assert set(cli) - {"genera", "analyze"} == set(module.CLI_COMMANDS)
    for command in module.CLI_COMMANDS:
        assert set(cli[command]) == set(module.CLI_CASES)
        for r in cli[command].values():
            assert r["exit_codes"] == [0, 0]
            assert len(r["times_s"]) == 2 and all(t > 0 for t in r["times_s"])
            assert r["spread_s"] == [0.0, 0.0] and isinstance(r["slope"], float)
    # analyze on t(3,5) at its own genera, with a slope in 4l + n
    analyze = cli["analyze"]
    n = len(module.ANALYZE_GENERA)
    assert analyze["genera"] == list(module.ANALYZE_GENERA) and analyze["torsion"] == [3, 5]
    assert analyze["exit_codes"] == [0] * n
    assert len(analyze["times_s"]) == n and all(t > 0 for t in analyze["times_s"])
    assert analyze["spread_s"] == [0.0] * n and isinstance(analyze["slope"], float)
    # degeneracy_report alone, on the cli rows' cases and genera
    degeneracy = record["degeneracy_report"]
    assert degeneracy["genera"] == [1, 2]
    assert set(degeneracy) - {"genera"} == set(module.CLI_CASES)
    for group, r in degeneracy.items():
        if group != "genera":
            assert (tuple(r["torsion"]), tuple(r["classes"])) == module.CLI_CASES[group]
            assert len(r["times_s"]) == 2 and all(t > 0 for t in r["times_s"])
            assert r["spread_s"] == [0.0, 0.0] and isinstance(r["slope"], float)
