#!/usr/bin/env python3
"""planarep CLI benchmark: one client, one process, one request at a time.

    python3 perfbench/run.py --workload long-relator --seed 1 --seconds 20 --trace 0

Each request calls ``planarep.cli.main(argv)`` in this process with stdout
captured, and every outcome goes through the independent checker in
``check.py``.  A run's request list (``workloads.py``) depends only on the
workload and the seed.  The run executes the whole list, then goes through it
again from the top until ``--seconds`` have passed; ``attempted`` and
``failed`` count requests of the list, so they do not depend on host speed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs round 0 once with spans around every layer (``spans.py``) and once
without, and prints the per-layer metrics; its counts depend only on the seed.
The last line of stdout is one JSON object; a copy of the results, with the
environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# pin BLAS before numpy is imported, here and in the set-up subprocesses
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)
os.environ.pop("PLANAREP_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

from check import check  # noqa: E402
from setup_probe import ready  # noqa: E402
from speed import Speed  # noqa: E402
from spans import ROOT as ROOT_SPAN, Totals, Tracer  # noqa: E402
from workloads import WORKLOADS, round_requests, run_requests  # noqa: E402


@dataclass
class Outcome:
    index: int  # position of the request in the run's list
    req: object
    exit_code: int
    start_s: float
    wall_s: float
    failure: str | None
    ambiguous: int  # ToleranceAmbiguity warnings raised by the request
    scaled_s: float = 0.0  # wall_s at reference speed (speed.py)


def run_request(cli, index, req, tracer=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        t0 = perf_counter()
        if tracer is None:
            code = cli.main(list(req.argv))
        else:
            code = tracer.call(ROOT_SPAN, cli.main, list(req.argv))
        wall = perf_counter() - t0
    ambiguous = sum(w.category.__name__ == "ToleranceAmbiguity" for w in caught)
    return Outcome(index, req, code, t0, wall, check(req, code, out.getvalue()), ambiguous)


def time_setup(groups, speed) -> list[tuple[float, float]]:
    """(wall, at reference speed) of fresh interpreters that set up and
    exit.  Call after this process has set up, so the .pyc files exist."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *groups]
    runs = []
    speed.reset()
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdin=subprocess.DEVNULL)
        runs.append((t0, perf_counter() - t0))
    speed.sample()
    return speed.scaled(runs)


def measure(cli, requests, seconds, speed) -> list[Outcome]:
    """Every request of the list once, then the list again from the top
    until the next request, timed as it was last time, would end after
    ``seconds``.  The host speed is sampled before every request, inside
    requests and after the last one."""
    outcomes, last = [], {}
    speed.reset()
    start = perf_counter()
    with speed.ticking():
        for i in itertools.count():
            k = i % len(requests)
            if i >= len(requests) and perf_counter() - start + last[k] > seconds:
                break
            speed.sample()
            outcomes.append(run_request(cli, k, requests[k]))
            last[k] = outcomes[-1].wall_s
        speed.sample()
    scaled = speed.scaled([(o.start_s, o.wall_s) for o in outcomes])
    for o, (wall, at_ref) in zip(outcomes, scaled):
        o.wall_s, o.scaled_s = wall, at_ref
    return outcomes


def first_failures(outcomes) -> dict[int, Outcome]:
    """The first failed execution of each request that failed."""
    failed: dict[int, Outcome] = {}
    for o in outcomes:
        if o.failure is not None:
            failed.setdefault(o.index, o)
    return failed


def slot_times(requests, outcomes, attr) -> dict[str, float]:
    """Per slot, the mean over its requests of each request's median time:
    the median damps host noise, the mean averages the inputs."""
    runs: dict[int, list[float]] = {}
    for o in outcomes:
        runs.setdefault(o.index, []).append(getattr(o, attr))
    by_slot: dict[str, list[float]] = {}
    for k, times in runs.items():
        by_slot.setdefault(requests[k].slot, []).append(statistics.median(times))
    return {slot: statistics.fmean(t) for slot, t in by_slot.items()}


def end_to_end(requests, outcomes, n_failed, setup_times, attr="scaled_s") -> dict:
    """Times are at reference speed (``attr="wall_s"`` gives the raw
    figures).  ``reports_per_s`` is for a round, one request per slot."""
    med = list(slot_times(requests, outcomes, attr).values())
    correct_share = 1 - n_failed / len(requests)
    setup = [t[0] if attr == "wall_s" else t[1] for t in setup_times]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "reports_per_s": (correct_share * len(med) / sum(med), "1/s"),
        "report_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in med)), "s"),
        "correct_share": (correct_share, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _slope(points) -> float:
    """Least-squares slope of log t against log length; 0.0 with fewer than
    two distinct lengths."""
    pts = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


CALLS_AND_SELF = [
    "foxcalc.fox_derivative", "foxcalc.relator_filling_chain",
    "cohomology.cohomology_data", "cohomology.projective_subspace",
    "cohomology.delta1_projective", "cohomology.cocycle_extend",
    "cohomology.RepPoint.ring_matrix", "cohomology.RepPoint.ad_value",
    "solver.solve_relator",
    "symplectic.bform_O", "symplectic.cup_eval", "symplectic.gram_extended",
    "symplectic.gram_on_cocycles", "symplectic.degeneracy_report",
    "symplectic.extend_point", "symplectic.check_moment_identity",
    "symplectic.action_field", "symplectic.tangent_from_u",
    "components.finite_order_classes", "components.stratum_report",
]
CALLS_ONLY = ["words.w_mul"] + [
    f"liegroup.{n}" for n in
    ("dexp_matrix", "ad_matrix", "Ad_matrix", "exp", "log_principal", "vec", "unvec")
]
SELF_ONLY = ["liegroup.dexp_matrix", "solver.jacobian", "cli.request", "cli.emit"]


def per_layer(tracer, traced, plain, traced_wall, plain_wall) -> dict:
    tot = lambda name: tracer.totals.get(name, Totals())  # noqa: E731
    m = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        m[f"{name}.calls"] = (tot(name).calls, "count")
    for name in CALLS_AND_SELF + SELF_ONLY:
        m[f"{name}.self_s"] = (tot(name).self_s, "s")
    solve = tot("solver.solve_relator")
    restarts = tot("solver.restarts").calls
    solved = solve.calls - sum(solve.outcomes.values())
    m.update({
        "cohomology.rank_decisions.calls": (
            tot("cohomology.rank_decisions").calls + tot("symplectic.rank_decisions").calls,
            "count"),
        "cohomology.rank_decisions.ambiguous": (sum(o.ambiguous for o in traced), "count"),
        "solver.restarts": (restarts, "count"),
        "solver.iterations": (tot("solver.jacobian").calls, "count"),
        "solver.residual_evals": (tot("solver.residual_evals").calls, "count"),
        "solver.certified_infeasible": (solve.outcomes.get("InfeasibleSpec", 0), "count"),
        "solver.not_found": (solve.outcomes.get("NotFound", 0), "count"),
        "solver.useful_restart_ratio": (solved / restarts if restarts else 0.0, "ratio"),
        "solver.not_found_share": (solve.outcome_s.get("NotFound", 0.0) / traced_wall, "ratio"),
        "share.bform_O": (tot("symplectic.bform_O").total_s / traced_wall, "ratio"),
        "trace.overhead_ratio": (traced_wall / plain_wall, "ratio"),
    })
    # the longest relator of the round: share of Fox derivatives and their
    # evaluation through Ad (ROADMAP: superlinear in relator length)
    longest = max(range(len(traced)), key=lambda i: traced[i].req.relator_length)
    totals = tracer.per_request[longest]
    fox_ring = (totals.get("foxcalc.fox_derivative", 0.0)
                + totals.get("cohomology.RepPoint.ring_matrix", 0.0))
    m["share.fox_ring_longest"] = (fox_ring / totals[ROOT_SPAN], "ratio")
    # log-log slopes against relator length 4l + n, over the SU2 requests
    su2 = [i for i, o in enumerate(plain) if o.req.group == "SU2" and o.failure is None]
    m["scaling.report_length_exp"] = (
        _slope([(plain[i].req.relator_length, plain[i].wall_s) for i in su2]), "slope")
    m["scaling.fox_derivative_length_exp"] = (_slope([
        (traced[i].req.relator_length,
         tracer.per_request[i].get("foxcalc.fox_derivative", 0.0)) for i in su2]), "slope")
    return m


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_pin": PINNED,
        "PLANAREP_THREADS": None,
    }


def _selected(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def run_traced(cli, requests):
    """``requests`` (round 0) with spans, then again without them for the
    overhead ratio."""
    tracer = Tracer()
    tracer.install()
    traced = []
    t0 = perf_counter()
    for i, req in enumerate(requests):
        tracer.begin_request(i)
        traced.append(run_request(cli, i, req, tracer))
        tracer.end_request()
    traced_wall = perf_counter() - t0
    tracer.uninstall()
    t0 = perf_counter()
    plain = [run_request(cli, i, req) for i, req in enumerate(requests)]
    plain_wall = perf_counter() - t0
    return traced + plain, per_layer(tracer, traced, plain, traced_wall, plain_wall)


def write_record(args, outcomes, failures, setup_times, result, raw, kernel) -> dict:
    """Results with the environment, deterministic apart from the timings."""
    by_slot: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_slot.setdefault(o.req.slot, []).append(o)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup_times_s": [wall for wall, _ in setup_times],
        "raw_metrics": {n: v[0] for n, v in raw.items()},
        "kernel_s": kernel,
        "slots": [{"slot": slot, "argv_round0": list(v[0].req.argv),
                   "requests": [o.index for o in v],
                   "walls_s": [o.wall_s for o in v],
                   "scaled_s": [o.scaled_s for o in v],
                   "median_s": statistics.median(o.wall_s for o in v)}
                  for slot, v in sorted(by_slot.items())],
        "result": result,
        "failures": [{"slot": o.req.slot, "argv": list(o.req.argv), "exit": o.exit_code,
                      "defect": o.req.defect, "reason": o.failure} for o in failures],
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "planarep" / "__init__.py").is_file():
        print(f"perfbench: no planarep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        requests = round_requests(args.workload, args.seed, 0)
    else:
        requests = run_requests(args.workload, args.seed)
    groups = sorted({r.group for r in requests})
    ready(groups)
    import planarep.cli as cli

    setup_times, raw, speed = [], {}, None
    if args.trace:
        outcomes, computed = run_traced(cli, requests)
        names = _selected("per_layer")
    else:
        speed = Speed()
        setup_times = time_setup(groups, speed)
        outcomes = measure(cli, requests, args.seconds, speed)
        n_failed = len(first_failures(outcomes))
        computed = end_to_end(requests, outcomes, n_failed, setup_times)
        raw = {n: v for n, v in
               end_to_end(requests, outcomes, n_failed, setup_times, "wall_s").items()
               if v[1] in ("s", "1/s")}
        names = _selected("end_to_end")
    failures = list(first_failures(outcomes).values())
    result = {
        # failures of probes of a listed known defect do not make the run
        # incorrect; they still count in `failed`
        "correct": all(o.req.defect for o in failures),
        "attempted": len(requests),
        "failed": len(failures),
        "metrics": {n: {"value": computed[n][0], "unit": computed[n][1]} for n in names},
    }
    record = write_record(args, outcomes, failures, setup_times, result, raw,
                          speed.samples if not args.trace else [])

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']['name']} threads=1")
    for s in record["slots"]:
        print(f"#   {s['slot']:<32} n={len(s['walls_s']):<3} median {s['median_s']:.4f} s")
    seen = Counter((o.req.slot, o.req.defect, o.failure) for o in failures)
    for (slot, defect, reason), n in sorted(seen.items()):
        tag = f"known defect ({defect})" if defect else "FAILURE"
        print(f"# {tag}: {slot} x{n} -> {reason}")
    print(f"# failed_share {len(failures) / len(requests):.4f} "
          f"({len(failures)} of {len(requests)} requests, {len(outcomes)} executions)")
    for n, v in result["metrics"].items():
        extra = f"  (from raw wall times: {raw[n][0]:.6g})" if n in raw else ""
        print(f"# {n:<44} {v['value']:.6g} {v['unit']}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
