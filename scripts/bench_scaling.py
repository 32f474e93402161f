#!/usr/bin/env python3
"""Time the long relator's Fox row and value, Ad, the solver Jacobian,
cohomology_data and the cup matrix against the genus, and fit the log-log
slope of each in the relator length 4l + n.

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

Each time is the median over SWEEPS interleaved sweeps (each sweep times
every row, model and genus once more) of the best of REPEATS calls, with the
point's Ad matrices and inverses already built.  Each row also records the
slope of every sweep and their spread (max - min), against which a later
slope change is judged.  A row whose slope in 4l + n is above 1 is listed
as superlinear.  BLAS is pinned to one thread, as perfbench/run.py pins it.

Usage: python scripts/bench_scaling.py   (writes BENCH_20.json at the repo root)
"""

import os
import sys

# pin BLAS before numpy is imported, as perfbench/run.py does
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from planarep.cohomology import RepPoint, cohomology_data  # noqa: E402
from planarep.liegroup import get_model  # noqa: E402
from planarep.presentations import PlanarPresentation  # noqa: E402
from planarep.solver import _jacobian  # noqa: E402
from planarep.symplectic import cup_matrix  # noqa: E402

MODELS = ("U1", "SU2", "SL2R", "U2", "U3")
TORSION = (3, 5)
GENERA = (4, 8, 16, 32, 64, 128)
REPEATS = 9
SWEEPS = 3
OUT = ROOT / "BENCH_20.json"


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
    # zeta^-1; SL(2,R) has no torsion classes to build a SolveSpec from
    spec = SimpleNamespace(model=pt.model, pres=pt.pres, zeta_inv=pt.model.identity)
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


def best_of(fn, pt: RepPoint, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn(pt)
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


def record(genera: list[int], repeats: int, sweeps: int = SWEEPS) -> dict:
    rows = measure(genera, repeats, sweeps)
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
    }


def main() -> int:
    rec = record(GENERA, REPEATS)
    OUT.write_text(json.dumps(rec, indent=2) + "\n")
    for row, by in rec["rows"].items():
        for name, r in by.items():
            slope = "-" if r["slope"] is None else f"{r['slope']:.2f} +- {r['slope_spread']:.2f}"
            print(f"{row:10s} {name:5s} slope {slope}  "
                  + " ".join(f"{t * 1e3:.3f}" for t in r["times_s"]) + " ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
