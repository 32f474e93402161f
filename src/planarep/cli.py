"""Command line interface.

Every subcommand emits a single JSON report with a stable schema tag, so runs
can be diffed and archived.  argparse checks the torsion and class lists and
the target, so malformed values exit 2 before any work.  Each error type in
``errors`` carries its exit code: 0 success, 2 malformed input, 3 certified
infeasible / not found, 4 tolerance failure or a point on a singular locus
(a relator value whose logarithm has spectral margin below --tol-grp, which
also guards the regular domain of exp), 5 internal error, which is also the
code of any other exception.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from functools import cache

import numpy as np

from .cohomology import cohomology_data, euler_characteristic_expected
from .components import finite_order_classes, stratum_report, weight_dictionary
from .config import Tolerances
from .errors import MalformedInput, PlanarepError, ToleranceExceeded
from .foxcalc import fundamental_cycle
from .liegroup import get_model
from .presentations import PlanarPresentation
from .solver import SolveSpec, common_den, numerators_over, solve_relator, target_phase
from .symplectic import (
    check_moment_identity,
    degeneracy_report,
    extend_point,
    tangent_from_u,
)

SCHEMA = "planarep/5"


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; a blank string is the empty list."""
    try:
        return tuple(int(t) for t in text.split(",")) if text.strip() else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--group", default="SU2",
                     help="matrix group model: SU2, U1, U2, U3, SL2R")
    sub.add_argument("--genus", type=int, default=1)
    sub.add_argument("--torsion", type=_int_list, default="",
                     help="comma-separated torsion orders, e.g. 2,3,7")
    sub.add_argument("--seed", type=_nonnegative_int, default=0)
    sub.add_argument("--tol-rank", type=float, default=1e-8)
    sub.add_argument("--tol-grp", type=float, default=1e-8)
    sub.add_argument("--json-out", default=None, help="also write report to this file")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit timestamp for byte-reproducible reports")


def _add_solve(sub: argparse.ArgumentParser) -> None:
    """Options of the commands backed by a solved point."""
    _add_common(sub)
    sub.add_argument("--classes", type=_int_list, default="",
                     help="class indices, e.g. 1,1,2")
    sub.add_argument("--target", choices=("e", "-e"), default="e",
                     help="central target: e or -e (write --target=-e)")


def _tolerances(args) -> Tolerances:
    try:
        return Tolerances(rank_rel=args.tol_rank, tau_grp=args.tol_grp)
    except ValueError as e:
        raise MalformedInput(str(e)) from None


def _pick_classes(model, pres, idxs: tuple[int, ...], target: str):
    """Class per torsion generator from its index, or _default_classes
    without indices."""
    per_gen = [finite_order_classes(model, m) for m in pres.torsion]
    if not idxs:
        return _default_classes(model, per_gen, target)
    if len(idxs) != pres.n_torsion:
        raise MalformedInput("need one class index per torsion generator")
    out = []
    for classes, m, i in zip(per_gen, pres.torsion, idxs):
        if not 0 <= i < len(classes):
            raise MalformedInput(
                f"class index {i} out of range for order {m} ({len(classes)} classes)"
            )
        out.append(classes[i])
    return out


def _default_classes(model, per_gen, target: str):
    """The first class tuple, taking each order's first nontrivial class
    first, that the solver's determinant test lets through.

    Only U(n) has that test: a tuple passes when its classes' phases add up
    to the target's, target_phase, over L = 2 lcm(orders).  When no tuple
    passes, the first one is returned and the solver certifies it empty."""
    prefs = [classes[1:] + classes[:1] for classes in per_gen]
    if model.kind != "U":
        return [p[0] for p in prefs]
    L = common_den(classes[0].order for classes in per_gen)
    phases = [[sum(ks) % L for ks in numerators_over(p, L)] for p in prefs]
    need, full = target_phase(model.n, target == "-e", L), (1 << L) - 1
    # reach[j]: bit r is set when the classes of generators j, j+1, ... can
    # add up to the phase r over L; each class rotates the next set by its own
    reach = [1]
    for ps in reversed(phases):
        rest, acc = reach[0], 0
        for q in ps:
            acc |= (rest << q | rest >> (L - q)) & full
        reach.insert(0, acc)
    if not reach[0] >> need & 1:
        return [p[0] for p in prefs]
    out = []
    for p, ps, rest in zip(prefs, phases, reach[1:]):
        i = next(i for i, q in enumerate(ps) if rest >> (need - q) % L & 1)
        out.append(p[i])
        need = (need - ps[i]) % L
    return out


@cache
def _presentation(genus: int, torsion: tuple[int, ...]) -> PlanarPresentation:
    """The presentation of (genus, torsion), built once per process, so its
    long relator, names, measure and torsion relators are too.  A call that
    raises caches nothing: invalid input is refused on every request."""
    return PlanarPresentation(genus, torsion)


def _solved_point(args, tol):
    model = get_model(args.group)
    pres = _presentation(args.genus, args.torsion)
    if pres.num_generators == 0:
        raise MalformedInput("the presentation has no generators: nothing to solve")
    classes = _pick_classes(model, pres, args.classes, args.target)
    spec = SolveSpec(pres, model, classes, minus=args.target == "-e",
                     seed=args.seed, tol=tol.tau_grp)
    return solve_relator(spec), spec


def _emit(args, command: str, payload: dict, tol: Tolerances) -> None:
    report = {"schema": SCHEMA, "command": command}
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["tolerances"] = tol.to_json()
    report.update(payload)
    text = json.dumps(report, indent=2)
    if args.json_out:
        try:
            with open(args.json_out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise MalformedInput(f"cannot write --json-out: {e}") from None
    print(text)


# --- subcommands ---------------------------------------------------------------


def cmd_analyze(args, tol: Tolerances) -> None:
    pres = _presentation(args.genus, args.torsion)
    b, kappa, bd = fundamental_cycle(pres)
    payload = {
        "presentation": pres.to_json(),
        "rendering": pres.render(),
        "measure": str(pres.measure),
        "measure_float": float(pres.measure),
        "lcm": pres.lcm,
        "abelianized_boundary": [[str(q) for q in row] for row in bd],
        "fundamental_cycle": [str(q) for q in b],
        "fundamental_class": [str(q) for q in kappa],
    }
    _emit(args, "analyze", payload, tol)


def cmd_cohomology(args, tol: Tolerances) -> None:
    res, spec = _solved_point(args, tol)
    data = cohomology_data(res.point, tol)
    expected = euler_characteristic_expected(res.point, data.f_j)
    payload = {
        "group": spec.model.name,
        "presentation": spec.pres.to_json(),
        "classes": [c.to_json() for c in spec.classes],
        "solve_residual": res.residual,
        "dims": {"h0": data.h0, "h1": data.h1, "h2": data.h2},
        "fixed_dims": data.f_j,
        "euler": data.h0 - data.h1 + data.h2,
        "euler_expected": expected,
        "poincare_duality": data.h0 == data.h2,
    }
    _emit(args, "cohomology", payload, tol)


def cmd_symplectic(args, tol: Tolerances) -> None:
    res, spec = _solved_point(args, tol)
    pt = extend_point(res.point, tol)
    report = degeneracy_report(pt)
    payload = {
        "group": spec.model.name,
        "presentation": spec.pres.to_json(),
        "classes": [c.to_json() for c in spec.classes],
        "solve_residual": res.residual,
        "degeneracy": report,
    }
    _emit(args, "symplectic", payload, tol)


def cmd_components(args, tol: Tolerances) -> None:
    model = get_model(args.group)
    pres = _presentation(args.genus, args.torsion)
    per_gen = []
    for m in pres.torsion:
        classes = finite_order_classes(model, m)
        per_gen.append({
            "order": m,
            "count": len(classes),
            "classes": [
                {**c.to_json(), "weights": weight_dictionary(c)} for c in classes
            ],
        })
    payload = {
        "group": model.name,
        "presentation": pres.to_json(),
        "torsion_classes": per_gen,
    }
    if args.with_point:
        res, _ = _solved_point(args, tol)
        payload["point_stratum"] = stratum_report(res.point, tol)
    _emit(args, "components", payload, tol)


def cmd_solve(args, tol: Tolerances) -> None:
    res, spec = _solved_point(args, tol)
    payload = {
        "group": spec.model.name,
        "presentation": spec.pres.to_json(),
        "spec": spec.to_json(),
        "result": res.to_json(),
        "component": stratum_report(res.point, tol),
    }
    _emit(args, "solve", payload, tol)


def cmd_momenttest(args, tol: Tolerances) -> None:
    if args.trials < 1:
        raise MalformedInput(f"--trials must be at least 1, got {args.trials}")
    if not 0 < args.threshold < float("inf"):
        raise MalformedInput(f"--threshold must be positive and finite, got {args.threshold}")
    res, spec = _solved_point(args, tol)
    pt = extend_point(res.point, tol)
    model, pres = spec.model, spec.pres
    pt.data.dims  # refuses a point that cohomology refuses, before any trial
    dim = pt.data.delta1_proj.shape[1]
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        X = model.random_alg(rng)
        coords = rng.standard_normal(dim)
        t = tangent_from_u(pt, coords)
        scale = max(abs(model.pairing(model.unvec(t.V), X)), np.linalg.norm(coords), 1.0)
        worst = max(worst, check_moment_identity(pt, X, t) / scale)
    payload = {
        "group": model.name,
        "presentation": pres.to_json(),
        "solve_residual": res.residual,
        "trials": args.trials,
        "max_relative_residual": worst,
        "threshold": args.threshold,
        "passed": bool(worst < args.threshold),
    }
    _emit(args, "momenttest", payload, tol)
    if worst >= args.threshold:
        raise ToleranceExceeded(
            f"momentum identity residual {worst:.3e} exceeds {args.threshold:.3e}"
        )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The planarep parser, built at the first call and cached, so the
    command functions are bound then; they read ``_emit``, ``solve_relator``
    and the other helpers as module globals when they run."""
    parser = argparse.ArgumentParser(
        prog="planarep",
        description="representation varieties of cocompact planar groups",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="presentation invariants and exact chains")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("cohomology", help="twisted cohomology at a solved point")
    _add_solve(p)
    p.set_defaults(func=cmd_cohomology)

    p = subs.add_parser("symplectic", help="pairing rank / degeneracy report")
    _add_solve(p)
    p.set_defaults(func=cmd_symplectic)

    p = subs.add_parser("components", help="torsion class enumeration and weights")
    _add_solve(p)
    p.add_argument("--with-point", action="store_true",
                   help="also solve for a point and report its stratum")
    p.set_defaults(func=cmd_components)

    p = subs.add_parser("solve", help="find a representation in prescribed classes")
    _add_solve(p)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("momenttest", help="verify the momentum identity numerically")
    _add_solve(p)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.set_defaults(func=cmd_momenttest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return MalformedInput.exit_code if e.code not in (0, None) else 0
    try:
        args.func(args, _tolerances(args))
        return 0
    except PlanarepError as e:
        internal = "internal " if e.exit_code == PlanarepError.exit_code else ""
        print(f"{internal}error: {e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return PlanarepError.exit_code


if __name__ == "__main__":
    sys.exit(main())
