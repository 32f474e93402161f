#!/usr/bin/env python3
"""Digest the CLI reports of benchmark rounds, one line per request.

Runs the requests of the chosen rounds of a perfbench workload in this
process, as perfbench/run.py does, at each seed of --seed (a list or range,
e.g. 1,2), and prints for each request its seed, workload, round, slot, exit
code and the sha256 of its stdout.  Run it in two checkouts and diff the
outputs: equal lines mean byte-identical reports and exit codes (the
requests pass --no-timestamp).  It uses the src/ and
perfbench/ next to this script, so each checkout digests its own code.

A change that alters float bits is checked with --dump and --compare instead.
--dump FILE writes each request's exit code and report as JSON lines.
--compare FILE, run in the other checkout on the same workload, seed and
rounds, compares its own requests against that file and prints every
difference (both modes take one seed):

- exit codes, integers, booleans, strings (class ids among them), dims and
  ranks must be equal;
- floats must agree to TOL relative to max(1, |a|, |b|);
- the solver's path fields (EXEMPT) may differ, because the solver may reach
  another point of the same fiber; perfbench/check.py verifies those points;
- the schema tag is reported but not judged, since a compare is run to check
  a schema bump.

It exits 1 if any judged field differs, and ends with the largest float
difference per field.

--check SEEDS judges every request of the chosen workloads and rounds at each
of the seeds (a list or range, e.g. 1-100) with perfbench/check.py, the
benchmark's independent checker, loaded by path.  It prints each failure with
its argv, then per workload the count of requests, failures and exit codes,
and the worst max_relative_residual per momenttest slot, and exits 1 on any
failure.

Usage: python scripts/report_digest.py --workload all --seed 1,2 --rounds 0,1
       python scripts/report_digest.py ... --dump parent.jsonl
       python scripts/report_digest.py ... --compare parent.jsonl
       python scripts/report_digest.py --workload moment-batch --rounds all --check 1-100
"""

import os
import sys

# pin BLAS before numpy is imported, as perfbench/run.py does
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import ROUNDS, WORKLOADS, round_requests  # noqa: E402

import planarep.cli as cli  # noqa: E402

# report fields that follow the solver's path: dotted keys, list indices dropped
EXEMPT = ("result.generators", "result.residual", "result.restarts_used", "solve_residual")
# relative float tolerance of --compare
TOL = 1e-6


def run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    return code, out.getvalue()


def leaves(value, path=""):
    """(dotted path, leaf) pairs of a parsed report, list indices dropped."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for v in value:
            yield from leaves(v, path)
    else:
        yield path, value


def compare(old: dict, new: dict, tol: float, where: str,
            worst: dict, schemas: Counter) -> list[str]:
    """Difference lines between two dump records of one request: DIFF for a
    judged field, EXEMPT for a path field that is not a float.  ``worst``
    keeps the largest float difference per path, ``schemas`` counts changes
    of the schema tag."""
    if old["code"] != new["code"]:
        return [f"DIFF {where} exit {old['code']} -> {new['code']}"]
    try:
        a, b = json.loads(old["stdout"]), json.loads(new["stdout"])
    except json.JSONDecodeError:
        same = old["stdout"] == new["stdout"]
        return [] if same else [f"DIFF {where} stdout is not JSON and differs"]
    la, lb = list(leaves(a)), list(leaves(b))
    if [p for p, _ in la] != [p for p, _ in lb]:
        return [f"DIFF {where} report keys differ"]
    lines = []
    for (path, x), (_, y) in zip(la, lb):
        if path == "schema":
            if x != y:
                schemas[f"{x} -> {y}"] += 1
        elif isinstance(x, float) and isinstance(y, float):
            gap = abs(x - y) / max(1.0, abs(x), abs(y))
            if gap > worst.get(path, (0.0,))[0]:
                worst[path] = (gap, where)
            if not gap <= tol and path not in EXEMPT:
                lines.append(f"DIFF {where} {path}: {x!r} -> {y!r} (relative {gap:.1e})")
        elif type(x) is not type(y) or x != y:
            kind = "EXEMPT" if path in EXEMPT else "DIFF"
            lines.append(f"{kind} {where} {path}: {x!r} -> {y!r}")
    return lines


def requests(names: list[str], rounds: list[int] | None, seeds: list[int]):
    """(seed, workload, round, request) for every request of the chosen
    workloads, rounds (None: all rounds of a run) and seeds."""
    for seed in seeds:
        for name in names:
            for index in range(ROUNDS[name]) if rounds is None else rounds:
                for req in round_requests(name, seed, index):
                    yield seed, name, index, req


def records(names: list[str], rounds: list[int] | None, seeds: list[int]):
    """One dump record per request of the chosen workloads, rounds and seeds."""
    for seed, name, index, req in requests(names, rounds, seeds):
        code, stdout = run(list(req.argv))
        yield {"seed": seed, "workload": name, "round": index, "slot": req.slot,
               "argv": list(req.argv), "code": code, "stdout": stdout}


def load_checker():
    """perfbench/check.py, loaded by path: it imports nothing from planarep."""
    spec = importlib.util.spec_from_file_location("perfbench_check", ROOT / "perfbench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_all(reqs, check) -> int:
    """Run each (seed, workload, round, request) and judge it with
    ``check(req, exit_code, stdout)``; print every failure with its argv,
    then the counts per workload and the worst momentum-identity residual
    per momenttest slot.  1 on any failure."""
    counts: dict[str, Counter] = {}
    worst: dict[str, tuple[float, int, int]] = {}
    for seed, name, index, req in reqs:
        code, stdout = run(list(req.argv))
        tally = counts.setdefault(name, Counter())
        tally["requests"] += 1
        tally[f"exit {code}"] += 1
        reason = check(req, code, stdout)
        if reason is not None:
            tally["failed"] += 1
            tally["probes failed"] += req.probe
            probe = " (probe)" if req.probe else ""
            print(f"FAIL {name} seed {seed} round {index} {req.slot}{probe}: {reason}\n"
                  f"  argv: {' '.join(req.argv)}", flush=True)
        if req.command == "momenttest" and code == 0:
            resid = json.loads(stdout)["max_relative_residual"]
            if resid >= worst.get(req.slot, (-1.0,))[0]:
                worst[req.slot] = (resid, seed, index)
    failed = sum(tally["failed"] for tally in counts.values())
    for name, tally in counts.items():
        exits = ", ".join(f"{k} {v}" for k, v in sorted(tally.items()) if k.startswith("exit"))
        print(f"# {name}: {tally['requests']} requests, {tally['failed']} failed "
              f"({tally['probes failed']} probes); {exits}")
    for slot, (resid, seed, index) in sorted(worst.items()):
        print(f"# worst max_relative_residual {resid:.2e} in {slot} (seed {seed} round {index})")
    return 1 if failed else 0


def _ints(text: str) -> list[int]:
    """Integers from a comma-separated list of values and ranges a-b."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def compare_all(recs, path: Path) -> int:
    """Compare each record against the one of the same request in a dump
    file and print the differences and a summary; 1 on a judged one."""
    with open(path) as fh:
        old = {(r["workload"], r["round"], r["slot"]): r for r in map(json.loads, fh)}
    seen = set()
    failed, worst, schemas = 0, {}, Counter()
    for rec in recs:
        key = (rec["workload"], rec["round"], rec["slot"])
        where = " ".join(map(str, key))
        seen.add((rec["workload"], rec["round"]))
        ref = old.pop(key, None)
        if ref is None or ref["argv"] != rec["argv"]:
            lines = [f"DIFF {where} request not in {path}"]
        else:
            lines = compare(ref, rec, TOL, where, worst, schemas)
        failed += sum(line.startswith("DIFF") for line in lines)
        for line in lines:
            print(line, flush=True)
    for key in old:
        if key[:2] in seen:
            print(f"DIFF {' '.join(map(str, key))} request missing here")
            failed += 1
    print(f"# {failed} judged differences; float tolerance {TOL:g}")
    for change, count in schemas.items():
        print(f"# schema {change} in {count} reports")
    for field, (gap, where) in sorted(worst.items(), key=lambda kv: -kv[1][0]):
        tag = " (exempt)" if field in EXEMPT else ""
        print(f"# largest float difference {gap:.1e} in {field}{tag} ({where})")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["all", *sorted(WORKLOADS)],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", default="1",
                    help="workload seeds, a list or ranges (1,2 or 1-3)")
    ap.add_argument("--rounds", default="0,1",
                    help="round indices and ranges (0,1 or 0-3), or all")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--dump", type=Path, help="write exit codes and reports as JSON lines")
    mode.add_argument("--compare", type=Path, help="compare against a --dump file")
    mode.add_argument("--check", metavar="SEEDS",
                      help="judge every request at these seeds (1-100 or 1,5) with "
                           "perfbench/check.py; --seed is then unused")
    args = ap.parse_args(argv)
    try:
        rounds = None if args.rounds == "all" else _ints(args.rounds)
        seeds = _ints(args.seed if args.check is None else args.check)
    except ValueError:
        ap.error(f"bad round or seed list: {args.rounds!r}, {args.seed!r}, {args.check!r}")
    if rounds == [] or seeds == []:
        ap.error("empty round or seed range")  # a check of nothing would pass
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.check is not None:
        return check_all(requests(names, rounds, seeds), load_checker().check)
    if (args.dump or args.compare) and len(seeds) > 1:
        ap.error("--dump and --compare take one seed")  # records are keyed without it
    recs = records(names, rounds, seeds)
    if args.compare:
        return compare_all(recs, args.compare)
    if args.dump:
        with open(args.dump, "w") as fh:
            for rec in recs:
                fh.write(json.dumps(rec) + "\n")
        return 0
    for rec in recs:
        sha = hashlib.sha256(rec["stdout"].encode()).hexdigest()
        print(f"{rec['seed']} {rec['workload']} {rec['round']} {rec['slot']} {rec['code']} {sha}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
