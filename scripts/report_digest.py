#!/usr/bin/env python3
"""Digest the CLI reports of benchmark rounds, one line per request.

Runs the requests of the chosen rounds of a perfbench workload in this
process, as perfbench/run.py does, and prints for each request its
workload, round, slot, exit code and the sha256 of its stdout.  Run it in two
checkouts and diff the outputs: equal lines mean byte-identical reports and
exit codes (the requests pass --no-timestamp).  It uses the src/ and
perfbench/ next to this script, so each checkout digests its own code.

Usage: python scripts/report_digest.py --workload all --seed 1 --rounds 0,1
"""

import os
import sys

# pin BLAS before numpy is imported, as perfbench/run.py does
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, round_requests  # noqa: E402

import planarep.cli as cli  # noqa: E402


def digest(argv: list[str]) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one in-process CLI call."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["all", *sorted(WORKLOADS)],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", default="0,1", help="comma-separated round indices")
    args = ap.parse_args()
    try:
        rounds = [int(r) for r in args.rounds.split(",")]
    except ValueError:
        ap.error(f"bad round list: {args.rounds!r}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for index in rounds:
            for req in round_requests(name, args.seed, index):
                code, sha = digest(list(req.argv))
                print(f"{name} {index} {req.slot} {code} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
