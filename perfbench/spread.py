#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every end-to-end metric by
name, with its unit, per workload: median, quartiles and the quartile spread
as a share of the median, next to the bound in BENCHMARK.json and the spread
the same metric has when computed from raw wall times.

    python3 perfbench/spread.py --seeds 1-10                  # every workload
    python3 perfbench/spread.py --workloads degeneracy --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/seed_state.json
    python3 perfbench/spread.py --trace-check --seeds 3       # traced counts repeat?

Runs are sequential, from the repository root, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def seed_list(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def trace_check(workloads, seeds, seconds) -> int:
    """Two traced runs per seed must give exactly the same counts."""
    bad = 0
    for w in workloads:
        for s in seeds:
            a, _ = run(w, s, seconds, 1)
            b, _ = run(w, s, seconds, 1)
            counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
            diff = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            bad += bool(diff)
            print(f"{w} seed {s}: {'counts repeat' if not diff else 'DIFFER: ' + ', '.join(diff)}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    ap.add_argument("--trace-check", action="store_true")
    args = ap.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seeds = seed_list(args.seeds)
    if args.trace_check:
        return trace_check(workloads, seeds, args.seconds)

    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        results, walls, raws = [], [], []
        for s in seeds:
            res, wall = run(w, s, args.seconds, 0)
            results.append(res)
            walls.append(wall)
            out = json.loads((HERE / "out" / f"{w}-seed{s}-trace0.json").read_text())
            raws.append(out["raw_metrics"])
            print(f"  {w} seed {s}: {wall:.1f} s, correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        entry = {"run_wall_s": walls, "correct": [r["correct"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "attempted": [r["attempted"] for r in results], "metrics": {}}
        for m in SPEC["end_to_end"]:
            st = summarize([r["metrics"][m["name"]]["value"] for r in results])
            st.update(unit=m["unit"], bound=m["bound"])
            if m["name"] in raws[0]:
                st["raw"] = summarize([r[m["name"]] for r in raws])
            entry["metrics"][m["name"]] = st
        summary["workloads"][w] = entry

    print(f"{'workload':<15} {'metric':<17} {'unit':<6} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6} {'raw spread':>10}")
    for w, entry in summary["workloads"].items():
        for name, st in entry["metrics"].items():
            raw = f"{st['raw']['spread']:>10.3f}" if "raw" in st else " " * 10
            flag = "" if st["spread"] <= st["bound"] / 3 else "  > bound/3"
            print(f"{w:<15} {name:<17} {st['unit']:<6} {st['median']:>10.4g} "
                  f"{st['q1']:>10.4g} {st['q3']:>10.4g} {st['spread']:>7.3f} "
                  f"{st['bound']:>6} {raw}{flag}")
    if args.out:
        env_file = HERE / "out" / f"{workloads[0]}-seed{seeds[0]}-trace0.json"
        summary["environment"] = json.loads(env_file.read_text())["environment"]
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
