#!/usr/bin/env python3
"""Time the long relator's Fox row and value, Ad, the solver Jacobian,
cohomology_data, the cup matrix and the solver's retraction against the
genus, and fit the log-log slope of each in the relator length 4l + n.

Six rows are timed for each model (U1, SU2, SL2R, U2, U3) and genus l, on
one random point per (model, l) with torsion (3, 5):

- per_handle: RepPoint.long_row plus RepPoint.long_relator_value, the
  per-handle closed forms the commands use;
- walk: RepPoint.walk plus RepPoint.value along the long relator, the
  letter-by-letter reference;
- Ad_matrix: LieModel.Ad_matrix on the stack of the 2l + n generators;
- jacobian: the solver's Jacobian at the point, target e, with the row and
  value already built, as at an iterate of a solve;
- cohomology_data: the dims of H^0, H^1, H^2, with the row and value built
  again in each call, at a point of Hom(pi, G) made from the same draws:
  y_j = x_j^2, so every commutator is e, and z_j = e;
- cup_matrix: symplectic.cup_matrix with the row already built; it does not
  read or fill the copy cached on the point (RepPoint.cup).  Its output is
  N x N, so its slope tends to 2 as the genus grows, and it is listed as
  superlinear.

The retraction row times the solver's trial retraction on the stack of
2l + n algebra elements that one LM step moves, for every model and genus:
LieModel.cayley, which the solver takes, against LieModel.exp, and against
one stacked np.linalg.solve of (I - X/2) C = I + X/2, the other closed form
of the same map.  The stack is 0.3 times standard normal coordinates.  Each
kernel records its slope in 4l + n and, at each genus, its slope in
d = dim G over the five models.

A seventh row, solve_genus0, times solve_relator end to end on SU(2)
t(3^k), k = 3 ... 12 (relator length k), for two class tuples per k, built
from class 0 (e) and class 1 (rotation angle 2 pi / 3):

- boundary: (1, 1, 1, 0, ..., 0) with target e, on the boundary of the
  rank-2 product rule, so every solution is reducible and the point is
  built, not searched (restarts_used 0);
- interior: (1, ..., 1) with target -e, strictly inside the rule, searched
  by the Levenberg-Marquardt restarts from seed 0.

An eighth row, spec_setup, times the set-up of a solve request per class
tuple on SU(2) and U(2) t(3^k), k = 2 ... 8: the CLI's _pick_classes, the
SolveSpec and the exact certificate (solver._feasibility_oracle), for every
class index i as the tuple (i, ..., i) and for the default tuple (no
indices), each with target e and -e.  It is timed with a cold class cache,
emptied before every tuple, and with a warm one.

The cli rows time whole CLI requests, in process, for the subcommands
symplectic and momenttest on SU(2) t(3,5) classes (1, 2) and U(3) t(3)
class 4, at the genera of the run up to CLI_MAX_GENUS, with each report
discarded.  They call nothing but planarep.cli.main, so this script, copied
into an older checkout, times that checkout's commands the same way.  The
analyze row times the analyze request on t(3,5) at genus 4 ... 1024
(ANALYZE_GENERA), past the other rows, since the exact chains are cheap
enough to go that far; its slope in 4l + n says whether the abelianized
boundary and the fundamental cycle stay linear in the relator length.

The degeneracy_report row times symplectic.degeneracy_report alone on the
cases of the cli rows (SU(2) t(3,5) classes (1, 2), U(3) t(3) class 4), at
the same genera, on the extended point of a solution from seed 0 whose
complex (dims, delta0_proj, E_r Q and Q^T C Q) is already built: the
extended Gram, its values-only SVD and the momentum identity's residual.

Each time is the median over SWEEPS interleaved sweeps (each sweep times
every row, model and genus once more) of the best of REPEATS calls, with the
point's Ad matrices and inverses already built.  Each row also records the
slope of every sweep and their spread (max - min), against which a later
slope change is judged.  A row whose slope in 4l + n is above 1 is listed
as superlinear.  BLAS is pinned to one thread, as perfbench/run.py pins it.

With --paired PARENT, the script instead runs perfbench/run.py of the
checkout PARENT and of this one, --pairs times each on one workload and
seed, alternating which side runs first, for the run length BENCHMARK.json
sets.  It records every run's end-to-end metrics, their medians and
quartiles per side and, per metric, how many pairs this checkout won,
under "perfbench" / "<workload>/seed<seed>" in the same file.  A plain run
keeps those entries; a paired run keeps the rows.

Usage: python scripts/bench_scaling.py   (writes BENCH_28.json at the repo root)
       python scripts/bench_scaling.py --paired ../parent --pairs 10 \
           --workload component-scan --seed 1
"""

import os
import sys

# pin BLAS before numpy is imported, as perfbench/run.py does
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import planarep.cli as cli  # noqa: E402
from planarep.cli import _pick_classes  # noqa: E402
from planarep.cohomology import RepPoint, cohomology_data  # noqa: E402
from planarep.components import finite_order_classes  # noqa: E402
from planarep.liegroup import get_model  # noqa: E402
from planarep.presentations import PlanarPresentation  # noqa: E402
from planarep.solver import SolveSpec, _feasibility_oracle, _jacobian, solve_relator  # noqa: E402
from planarep.symplectic import cup_matrix, degeneracy_report, extend_point  # noqa: E402

MODELS = ("U1", "SU2", "SL2R", "U2", "U3")
TORSION = (3, 5)
GENERA = (4, 8, 16, 32, 64, 128)
REPEATS = 9
SWEEPS = 3
SOLVE_KS = tuple(range(3, 13))
SETUP_KS = tuple(range(2, 9))
SETUP_GROUPS = ("SU2", "U2")
CLI_COMMANDS = ("symplectic", "momenttest")
CLI_CASES = {"SU2": ((3, 5), (1, 2)), "U3": ((3,), (4,))}  # group -> (torsion, classes)
CLI_MAX_GENUS = 64
ANALYZE_GENERA = (4, 16, 64, 256, 1024)
OUT = ROOT / "BENCH_28.json"


def _drop_row_and_value(pt: RepPoint) -> None:
    for name in ("handle_ads", "long_row", "long_relator_value"):
        pt.__dict__.pop(name, None)  # drop the cached copies


def per_handle(pt: RepPoint) -> tuple:
    _drop_row_and_value(pt)
    return pt.long_row, pt.long_relator_value


def walk(pt: RepPoint) -> tuple:
    return pt.walk(pt.pres.long_relator)[0], pt.value(pt.pres.long_relator)


def ad_matrix(pt: RepPoint) -> np.ndarray:
    return pt.model.Ad_matrix(pt.gens)


def jacobian(pt: RepPoint) -> np.ndarray:
    # of a solve spec, the Jacobian reads the model, the presentation and
    # zeta; SL(2,R) has no torsion classes to build a SolveSpec from
    spec = SimpleNamespace(model=pt.model, pres=pt.pres, zeta=pt.model.identity)
    return _jacobian(spec, pt)


def cohomology(pt: RepPoint):
    _drop_row_and_value(pt)
    return cohomology_data(pt)


def hom_point(pt: RepPoint) -> RepPoint:
    """A point of Hom(pi, G) from pt's draws, for cohomology_data: the x_j
    of pt, y_j = x_j^2 and z_j = e."""
    p, g = pt.pres, np.array(pt.gens)
    x = g[0 : 2 * p.genus : 2]
    g[1 : 2 * p.genus : 2] = x @ x
    g[2 * p.genus :] = pt.model.identity
    return RepPoint(p, pt.model, g)


ROWS = {"per_handle": per_handle, "walk": walk, "Ad_matrix": ad_matrix, "jacobian": jacobian,
        "cohomology_data": cohomology, "cup_matrix": cup_matrix}


def best_of(fn, arg, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn(arg)
        best = min(best, perf_counter() - t0)
    return best


def _slope(lengths: list[int], times: list[float]) -> float | None:
    if len(lengths) < 2:
        return None
    return float(np.polyfit(np.log(lengths), np.log(times), 1)[0])


def measure(genera: list[int], repeats: int, sweeps: int) -> dict:
    points = []  # (model name, point, Hom(pi, G) point) by model, then genus
    for name in MODELS:
        model = get_model(name)
        for genus in genera:
            pres = PlanarPresentation(genus, TORSION)
            rng = np.random.default_rng(genus)
            gens = np.array([model.random_element(rng) for _ in range(pres.num_generators)])
            pt = RepPoint(pres, model, gens)
            hom = hom_point(pt)
            for warm in ("ad_gens", "ad_gens_inv", "gens_inv", "long_row", "long_relator_value"):
                getattr(pt, warm)
            cohomology_data(hom)  # builds its Ad matrices, inverses and torsion values
            points.append((name, pt, hom))
    # times[row][name][sweep] lists one best-of time per genus
    times = {row: {name: [[] for _ in range(sweeps)] for name in MODELS} for row in ROWS}
    for sweep in range(sweeps):
        for name, pt, hom in points:
            for row, fn in ROWS.items():
                t = best_of(fn, hom if fn is cohomology else pt, repeats)
                times[row][name][sweep].append(t)
    lengths = [4 * g + len(TORSION) for g in genera]
    rows = {row: {} for row in ROWS}
    for row, by in times.items():
        for name, per_sweep in by.items():
            median = np.median(per_sweep, axis=0).tolist()
            slopes = [_slope(lengths, ts) for ts in per_sweep]
            spread = None if slopes[0] is None else max(slopes) - min(slopes)
            rows[row][name] = {"d": get_model(name).d, "times_s": median,
                               "slope": _slope(lengths, median),
                               "sweep_slopes": slopes, "slope_spread": spread}
    return rows


RETRACTIONS = {
    "cayley": lambda model, X: model.cayley(X),
    "exp": lambda model, X: model.exp(X),
    "solve": lambda model, X: np.linalg.solve(model.identity - 0.5 * X, model.identity + 0.5 * X),
}


def measure_retraction(genera: list[int], repeats: int, sweeps: int) -> dict:
    steps = []  # (model, stack of 2l + n algebra elements) by model, then genus
    for name in MODELS:
        model = get_model(name)
        for genus in genera:
            v = 0.3 * np.random.default_rng(genus).standard_normal((2 * genus + len(TORSION), model.d))
            steps.append((model, model.unvec(v)))
    times = {(name, kind): [[] for _ in range(sweeps)] for name in MODELS for kind in RETRACTIONS}
    for sweep in range(sweeps):
        for model, X in steps:
            for kind, fn in RETRACTIONS.items():
                times[model.name, kind][sweep].append(best_of(lambda X: fn(model, X), X, repeats))
    lengths = [4 * g + len(TORSION) for g in genera]
    medians = {key: np.median(per_sweep, axis=0) for key, per_sweep in times.items()}
    ds = [get_model(name).d for name in MODELS]
    out = {"stack": [2 * g + len(TORSION) for g in genera]}
    for name in MODELS:
        out[name] = {"d": get_model(name).d}
        for kind in RETRACTIONS:
            out[name][kind] = {"times_s": medians[name, kind].tolist(),
                               "slope": _slope(lengths, medians[name, kind])}
    out["slope_in_d"] = {kind: [_slope(ds, [medians[name, kind][i] for name in MODELS])
                                for i in range(len(genera))]
                         for kind in RETRACTIONS}
    return out


def genus0_specs(k: int) -> dict[str, SolveSpec]:
    """The boundary and the interior tuple of SU(2) t(3^k) (module docstring)."""
    model, pres = get_model("SU2"), PlanarPresentation(0, (3,) * k)
    e, c = finite_order_classes(model, 3)
    return {"boundary": SolveSpec(pres, model, [c] * 3 + [e] * (k - 3)),
            "interior": SolveSpec(pres, model, [c] * k, minus=True)}


def measure_solve(ks: list[int], repeats: int, sweeps: int) -> dict:
    specs = [genus0_specs(k) for k in ks]
    times = {kind: [[] for _ in range(sweeps)] for kind in specs[0]}
    for sweep in range(sweeps):
        for by_kind in specs:
            for kind, spec in by_kind.items():
                times[kind][sweep].append(best_of(solve_relator, spec, repeats))
    return {kind: {"times_s": np.median(per_sweep, axis=0).tolist(),
                   "restarts_used": [solve_relator(by[kind]).restarts_used for by in specs],
                   "slope": _slope(ks, np.median(per_sweep, axis=0))}
            for kind, per_sweep in times.items()}


def setup_requests(name: str, k: int) -> list[tuple]:
    """(model, presentation, class indices, target) of every tuple that
    spec_setup times on t(3^k) (module docstring)."""
    model, pres = get_model(name), PlanarPresentation(0, (3,) * k)
    tuples = [(i,) * k for i in range(len(finite_order_classes(model, 3)))] + [()]
    return [(model, pres, idxs, target) for idxs in tuples for target in ("e", "-e")]


def spec_setup(requests: list[tuple], cold: bool) -> None:
    for model, pres, idxs, target in requests:
        if cold:
            finite_order_classes.cache_clear()
        classes = _pick_classes(model, pres, idxs, target)
        _feasibility_oracle(SolveSpec(pres, model, classes, minus=target == "-e"))


def measure_setup(ks: list[int], repeats: int, sweeps: int) -> dict:
    cases = [(name, [setup_requests(name, k) for k in ks]) for name in SETUP_GROUPS]
    times = {(name, mode): [[] for _ in range(sweeps)] for name, _ in cases
             for mode in ("cold", "warm")}
    for sweep in range(sweeps):
        for name, per_k in cases:
            for requests in per_k:
                for mode in ("cold", "warm"):
                    t = best_of(lambda r: spec_setup(r, mode == "cold"), requests, repeats)
                    times[name, mode][sweep].append(t / len(requests))
    medians = {key: np.median(per_sweep, axis=0).tolist() for key, per_sweep in times.items()}
    return {name: {mode: {"tuples": [len(r) for r in per_k], "times_s": medians[name, mode],
                          "slope": _slope(ks, medians[name, mode])}
                   for mode in ("cold", "warm")}
            for name, per_k in cases}


def cli_argv(command: str, group: str, genus: int) -> list[str]:
    torsion, classes = (",".join(map(str, t)) for t in CLI_CASES[group])
    return [command, "--group", group, "--genus", str(genus), f"--torsion={torsion}",
            f"--classes={classes}", "--no-timestamp"]


def run_cli(argv: list[str]) -> int:
    """Exit code of one in-process CLI request; its report and warnings are
    discarded."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        return cli.main(argv)


def measure_cli(genera: list[int], repeats: int, sweeps: int) -> dict:
    cases = [(command, group) for command in CLI_COMMANDS for group in CLI_CASES]
    # one untimed request per case and genus first: it builds the process
    # caches (presentations, class tables) that a stream of requests shares
    codes = {case: [run_cli(cli_argv(*case, g)) for g in genera] for case in cases}
    times = {case: [[] for _ in range(sweeps)] for case in cases}
    for sweep in range(sweeps):
        for case in cases:
            for g in genera:
                times[case][sweep].append(best_of(run_cli, cli_argv(*case, g), repeats))
    out = {command: {} for command in CLI_COMMANDS}
    for (command, group), per_sweep in times.items():
        torsion, classes = CLI_CASES[group]
        median = np.median(per_sweep, axis=0)
        out[command][group] = {
            "torsion": list(torsion), "classes": list(classes), "exit_codes": codes[command, group],
            "times_s": median.tolist(), "spread_s": np.ptp(per_sweep, axis=0).tolist(),
            "slope": _slope([4 * g + len(torsion) for g in genera], median)}
    return out


def measure_analyze(genera: list[int], repeats: int, sweeps: int) -> dict:
    argvs = [["analyze", "--genus", str(g), f"--torsion={','.join(map(str, TORSION))}",
              "--no-timestamp"] for g in genera]
    codes = [run_cli(argv) for argv in argvs]  # untimed: builds the presentations
    per_sweep = [[best_of(run_cli, argv, repeats) for argv in argvs] for _ in range(sweeps)]
    median = np.median(per_sweep, axis=0)
    return {"genera": list(genera), "torsion": list(TORSION), "exit_codes": codes,
            "times_s": median.tolist(), "spread_s": np.ptp(per_sweep, axis=0).tolist(),
            "slope": _slope([4 * g + len(TORSION) for g in genera], median)}


def degeneracy_point(group: str, genus: int):
    """The extended point of the cli rows' case at this genus, solved from
    seed 0, with its complex built as a symplectic request builds it."""
    model, (torsion, classes) = get_model(group), CLI_CASES[group]
    pres = PlanarPresentation(genus, torsion)
    spec = SolveSpec(pres, model, _pick_classes(model, pres, classes, "e"), seed=0)
    pt = extend_point(solve_relator(spec).point)
    pt.data.dims, pt.data.cup  # built here, not in the timed reports
    return pt


def measure_degeneracy(genera: list[int], repeats: int, sweeps: int) -> dict:
    points = {group: [degeneracy_point(group, g) for g in genera] for group in CLI_CASES}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        per_sweep = {group: [[best_of(degeneracy_report, pt, repeats) for pt in pts]
                             for _ in range(sweeps)] for group, pts in points.items()}
    out = {}
    for group, times in per_sweep.items():
        torsion, classes = CLI_CASES[group]
        median = np.median(times, axis=0)
        out[group] = {"torsion": list(torsion), "classes": list(classes),
                      "times_s": median.tolist(), "spread_s": np.ptp(times, axis=0).tolist(),
                      "slope": _slope([4 * g + len(torsion) for g in genera], median)}
    return out


def record(genera: list[int], repeats: int, sweeps: int = SWEEPS) -> dict:
    rows = measure(genera, repeats, sweeps)
    cli_genera = [g for g in genera if g <= CLI_MAX_GENUS]
    return {
        "script": "scripts/bench_scaling.py",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
        },
        "torsion": list(TORSION),
        "genera": list(genera),
        "relator_lengths": [4 * g + len(TORSION) for g in genera],
        "repeats": repeats,
        "sweeps": sweeps,
        "rows": rows,
        "superlinear": [f"{row}/{name}" for row, by in rows.items()
                        for name, r in by.items() if r["slope"] is not None and r["slope"] > 1],
        "retraction": {"genera": list(genera), **measure_retraction(genera, repeats, sweeps)},
        "solve_genus0": {"group": "SU2", "torsion_order": 3, "ks": list(SOLVE_KS),
                         **measure_solve(list(SOLVE_KS), repeats, sweeps)},
        "spec_setup": {"torsion_order": 3, "ks": list(SETUP_KS),
                       **measure_setup(list(SETUP_KS), repeats, sweeps)},
        "cli": {"genera": cli_genera, **measure_cli(cli_genera, repeats, sweeps),
                "analyze": measure_analyze(list(ANALYZE_GENERA), repeats, sweeps)},
        "degeneracy_report": {"genera": cli_genera,
                              **measure_degeneracy(cli_genera, repeats, sweeps)},
    }


def paired(parent: Path, pairs: int, workload: str, seed: int) -> dict:
    """perfbench/run.py of PARENT and of this checkout, ``pairs`` times each,
    alternating which side runs first, for the benchmark's run length."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = [("parent", parent), ("change", ROOT)]
        for side, root in order if i % 2 == 0 else order[::-1]:
            argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds)]
            out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
            metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
            runs[side].append({n: m["value"] for n, m in metrics.items()})
    summary = {}
    for m in bench["end_to_end"]:
        sign = 1 if m["better"] == "higher" else -1
        values = {side: [r[m["name"]] for r in rs] for side, rs in runs.items()}
        summary[m["name"]] = {
            **{side: {"median": float(np.median(v)),
                      "quartiles": np.percentile(v, [25, 75]).tolist()}
               for side, v in values.items()},
            "better": m["better"],
            "pairs_won": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
        }
    return {"workload": workload, "seed": seed, "seconds": seconds, "pairs": pairs,
            "runs": runs, "metrics": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paired", type=Path, metavar="PARENT")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="component-scan")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    if args.paired:
        run = paired(args.paired.resolve(), args.pairs, args.workload, args.seed)
        rec = {**old, "perfbench": {**old.get("perfbench", {}),
                                    f"{args.workload}/seed{args.seed}": run}}
        for name, m in run["metrics"].items():
            print(f"{name:18s} parent {m['parent']['median']:.6g} -> change "
                  f"{m['change']['median']:.6g}, {m['pairs_won']} of {args.pairs} pairs won")
    else:
        rec = record(GENERA, REPEATS)
        if "perfbench" in old:
            rec["perfbench"] = old["perfbench"]
        for row, by in rec["rows"].items():
            for name, r in by.items():
                slope = "-" if r["slope"] is None else f"{r['slope']:.2f} +- {r['slope_spread']:.2f}"
                print(f"{row:10s} {name:5s} slope {slope}  "
                      + " ".join(f"{t * 1e3:.3f}" for t in r["times_s"]) + " ms")
        for name in MODELS:
            for kind in RETRACTIONS:
                r = rec["retraction"][name][kind]
                print(f"retraction {name:5s} {kind:6s} slope {r['slope']:.2f}  "
                      + " ".join(f"{t * 1e6:.1f}" for t in r["times_s"]) + " us")
        for kind in ("boundary", "interior"):
            r = rec["solve_genus0"][kind]
            print(f"solve_genus0 {kind:8s} slope {r['slope']:.2f}  "
                  + " ".join(f"{t * 1e3:.3f}" for t in r["times_s"]) + " ms")
        for name in SETUP_GROUPS:
            for mode, r in rec["spec_setup"][name].items():
                print(f"spec_setup {name:4s} {mode} slope {r['slope']:.2f}  "
                      + " ".join(f"{t * 1e6:.1f}" for t in r["times_s"]) + " us per tuple")
        for command in CLI_COMMANDS:
            for group, r in rec["cli"][command].items():
                print(f"cli {command:10s} {group:4s} slope {r['slope']:.2f}  "
                      + " ".join(f"{t * 1e3:.2f} +- {s * 1e3:.2f}"
                                 for t, s in zip(r["times_s"], r["spread_s"])) + " ms")
        r = rec["cli"]["analyze"]
        print(f"cli analyze    slope {r['slope']:.2f}  "
              + " ".join(f"{t * 1e3:.2f}" for t in r["times_s"]) + " ms")
        for group in CLI_CASES:
            r = rec["degeneracy_report"][group]
            print(f"degeneracy_report {group:4s} slope {r['slope']:.2f}  "
                  + " ".join(f"{t * 1e3:.2f} +- {s * 1e3:.2f}"
                             for t, s in zip(r["times_s"], r["spread_s"])) + " ms")
    OUT.write_text(json.dumps(rec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
