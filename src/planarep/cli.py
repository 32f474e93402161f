"""Command line interface.

Every subcommand prints one JSON report on one line (the C encoder) with a
stable schema tag, so runs can be diffed and archived.  ``main`` parses argv
in one pass over the option table ``COMMANDS``; a malformed list, number or
target exits 2 before any work.  Each error type in ``errors`` carries its
exit code: 0 success, 2 malformed input, 3 certified infeasible / not found, 4
tolerance failure or a point on a singular locus (a relator value whose
logarithm has spectral margin below --tol-grp, which also guards the regular
domain of exp), 5 internal error, also the code of any other exception.
"""

from __future__ import annotations

import json
import sys
from datetime import datetime, timezone
from functools import cache
from types import SimpleNamespace

import numpy as np

from .cohomology import cohomology_data, euler_characteristic_expected
from .components import finite_order_classes, stratum_report, weight_dictionary
from .config import Tolerances
from .errors import MalformedInput, PlanarepError, ToleranceExceeded
from .foxcalc import fundamental_cycle
from .liegroup import get_model
from .presentations import PlanarPresentation
from .solver import SolveSpec, common_den, numerators_over, solve_relator, target_phase
from .symplectic import check_moment_identity, degeneracy_report, extend_point, tangent_from_u

SCHEMA = "planarep/6"


def _int(text: str) -> int:
    value = int(text)  # past sys.maxsize, numpy would refuse it later with exit 5
    if abs(value) > sys.maxsize:
        raise ValueError(f"out of range: {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise ValueError(f"must be a non-negative integer, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; a blank string is the empty list."""
    return tuple(map(_int, text.split(","))) if text.strip() else ()


def _target(text: str) -> str:
    if text in ("e", "-e"):
        return text
    raise ValueError(f"must be e or -e, got {text!r}")


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
    text = json.dumps(report)
    if args.json_out:
        try:
            with open(args.json_out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise MalformedInput(f"cannot write --json-out: {e}") from None
    print(text)


# --- subcommands ---------------------------------------------------------------


def cmd_analyze(args, tol: Tolerances) -> None:
    """Presentation invariants and exact chains."""
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
    """Twisted cohomology at a solved point."""
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
    """Pairing rank / degeneracy report."""
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
    """Torsion class enumeration and weights; --with-point adds a point's stratum."""
    model = get_model(args.group)
    pres = _presentation(args.genus, args.torsion)
    per_gen = []
    for m in pres.torsion:
        classes = finite_order_classes(model, m)
        per_gen.append({"order": m, "count": len(classes), "classes": [
            {**c.to_json(), "weights": weight_dictionary(c)} for c in classes]})
    payload = {"group": model.name, "presentation": pres.to_json(), "torsion_classes": per_gen}
    if args.with_point:
        res, _ = _solved_point(args, tol)
        payload["point_stratum"] = stratum_report(res.point, tol)
    _emit(args, "components", payload, tol)


def cmd_solve(args, tol: Tolerances) -> None:
    """Find a representation in prescribed classes."""
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
    """Verify the momentum identity numerically."""
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


# --- argv: option -> (converter, default); a flag has no converter ----------------
_COMMON = {
    "--group": (str, "SU2"),  # SU2, U1, U2, U3 or SL2R
    "--genus": (_int, 1),
    "--torsion": (_int_list, ()),  # comma-separated orders, e.g. 2,3,7
    "--seed": (_nonnegative_int, 0),
    "--tol-rank": (float, 1e-8),
    "--tol-grp": (float, 1e-8),
    "--json-out": (str, None),  # also write the report to this file
    "--no-timestamp": (None, False),  # byte-reproducible reports
}
_SOLVE = {**_COMMON, "--classes": (_int_list, ()), "--target": (_target, "e")}
# command -> (command function, options)
COMMANDS = {
    "analyze": (cmd_analyze, _COMMON),
    "cohomology": (cmd_cohomology, _SOLVE),
    "symplectic": (cmd_symplectic, _SOLVE),
    "components": (cmd_components, {**_SOLVE, "--with-point": (None, False)}),
    "solve": (cmd_solve, _SOLVE),
    "momenttest": (cmd_momenttest,
                   {**_SOLVE, "--trials": (_int, 5), "--threshold": (float, 1e-8)}),
}


def _usage() -> str:
    lines = ["usage: planarep COMMAND [--option VALUE | --option=VALUE | --flag] ...",
             "Options are spelled in full; a repeated option keeps its last value."]
    for command, (func, options) in COMMANDS.items():
        shown = (opt if convert is None else f"{opt}={'' if d in (None, ()) else d}"
                 for opt, (convert, d) in options.items())
        lines += [f"{command}: {func.__doc__}", "    " + " ".join(shown)]
    return "\n".join(lines)


def _parse(argv: list[str]):
    """The command function of argv and its option values, as attributes
    named after the options; (None, None) for -h or --help."""
    command, *rest = argv or [""]
    if command in ("-h", "--help"):
        return None, None
    if command not in COMMANDS:
        raise MalformedInput(f"unknown command {command!r}; commands: {', '.join(COMMANDS)}")
    func, options = COMMANDS[command]
    values = {opt: default for opt, (_, default) in options.items()}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return None, None
        opt, eq, text = token.partition("=")
        if opt not in options:
            raise MalformedInput(f"{command}: unknown option or stray token {token!r}")
        convert = options[opt][0]
        if convert is None and eq:
            raise MalformedInput(f"{opt} is a flag and takes no value")
        if convert is not None and not eq and (text := next(tokens, None)) is None:
            raise MalformedInput(f"{opt} needs a value")
        try:
            values[opt] = True if convert is None else convert(text)
        except ValueError as e:
            raise MalformedInput(f"{opt}: {e}") from None
    return func, SimpleNamespace(**{opt[2:].replace("-", "_"): v for opt, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        func, args = _parse(sys.argv[1:] if argv is None else argv)
        if func is None:
            print(_usage())
        else:
            func(args, _tolerances(args))
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
