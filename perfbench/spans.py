"""Spans around the public layers of planarep, recorded from outside.

``from .x import f`` binds ``f`` in the importing module at import time, so a
function is patched under every name that refers to it in every loaded
planarep module.  Methods of ``LieModel`` and ``RepPoint`` are patched on the
class.  A few private functions are wrapped as well, because the solver's
restarts, iterations and residual evaluations and the SVD rank decisions have
no public entry point.

Each span records name, start, end, parent span and request id.  Spans stay
in memory until their request ends; ``end_request`` then folds them into
per-name totals (calls, self time, time of outermost calls), so memory does
not grow with the run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import wraps
from importlib import import_module
from time import perf_counter

# span name -> (module, attribute) or (module, class, method)
TARGETS = {
    "words.w_mul": ("planarep.words", "w_mul"),
    "foxcalc.fox_derivative": ("planarep.foxcalc", "fox_derivative"),
    "foxcalc.relator_filling_chain": ("planarep.foxcalc", "relator_filling_chain"),
    "liegroup.exp": ("planarep.liegroup", "LieModel", "exp"),
    "liegroup.log_principal": ("planarep.liegroup", "LieModel", "log_principal"),
    "liegroup.dexp_matrix": ("planarep.liegroup", "LieModel", "dexp_matrix"),
    "liegroup.ad_matrix": ("planarep.liegroup", "LieModel", "ad_matrix"),
    "liegroup.Ad_matrix": ("planarep.liegroup", "LieModel", "Ad_matrix"),
    "liegroup.vec": ("planarep.liegroup", "LieModel", "vec"),
    "liegroup.unvec": ("planarep.liegroup", "LieModel", "unvec"),
    "cohomology.cohomology_data": ("planarep.cohomology", "cohomology_data"),
    "cohomology.projective_subspace": ("planarep.cohomology", "projective_subspace"),
    "cohomology.delta1_projective": ("planarep.cohomology", "delta1_projective"),
    "cohomology.cocycle_extend": ("planarep.cohomology", "cocycle_extend"),
    "cohomology.RepPoint.ring_matrix": ("planarep.cohomology", "RepPoint", "ring_matrix"),
    "cohomology.RepPoint.ad_value": ("planarep.cohomology", "RepPoint", "ad_value"),
    "cohomology.rank_decisions": ("planarep.cohomology", "_svd_nullspace"),
    "symplectic.rank_decisions": ("planarep.symplectic", "_gram_nullspace"),
    "components.finite_order_classes": ("planarep.components", "finite_order_classes"),
    "components.stratum_report": ("planarep.components", "stratum_report"),
    "solver.solve_relator": ("planarep.solver", "solve_relator"),
    "solver.restarts": ("planarep.solver", "_solve_once"),
    "solver.jacobian": ("planarep.solver", "_jacobian"),
    "solver.residual_evals": ("planarep.solver", "_residual_matrix"),
    "symplectic.bform_O": ("planarep.symplectic", "bform_O"),
    "symplectic.cup_eval": ("planarep.symplectic", "cup_eval"),
    "symplectic.gram_extended": ("planarep.symplectic", "gram_extended"),
    "symplectic.gram_on_cocycles": ("planarep.symplectic", "gram_on_cocycles"),
    "symplectic.degeneracy_report": ("planarep.symplectic", "degeneracy_report"),
    "symplectic.extend_point": ("planarep.symplectic", "extend_point"),
    "symplectic.check_moment_identity": ("planarep.symplectic", "check_moment_identity"),
    "symplectic.action_field": ("planarep.symplectic", "action_field"),
    "symplectic.tangent_from_u": ("planarep.symplectic", "tangent_from_u"),
    "cli.emit": ("planarep.cli", "_emit"),
}
ROOT = "cli.request"


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0  # outermost calls only, so recursion is not double counted
    outcomes: dict = field(default_factory=dict)  # exception name -> count
    outcome_s: dict = field(default_factory=dict)  # exception name -> total_s


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, outer, outcome]
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.request = -1
        self.totals: dict[str, Totals] = {}
        self.per_request: list[dict[str, float]] = []  # request -> name -> total_s
        self._undo: list = []

    # -- spans -------------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                self.request, self.active.get(name, 0) == 0, None]
        self.spans.append(span)
        self.stack.append(idx)
        self.active[name] = self.active.get(name, 0) + 1
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as e:
            span[6] = type(e).__name__
            raise
        finally:
            span[2] = perf_counter()
            self.stack.pop()
            self.active[name] -= 1

    def _wrap(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def begin_request(self, request_id: int) -> None:
        self.request = request_id

    def end_request(self) -> None:
        """Fold the request's spans into totals: self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        mine: dict[str, float] = {}
        for (name, t0, t1, _, _, outer, outcome), c in zip(self.spans, child):
            tot = self.totals.setdefault(name, Totals())
            tot.calls += 1
            tot.self_s += (t1 - t0) - c
            if outer:
                tot.total_s += t1 - t0
                mine[name] = mine.get(name, 0.0) + (t1 - t0)
                if outcome:
                    tot.outcome_s[outcome] = tot.outcome_s.get(outcome, 0.0) + (t1 - t0)
            if outcome:
                tot.outcomes[outcome] = tot.outcomes.get(outcome, 0) + 1
        self.per_request.append(mine)
        self.spans.clear()

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call after planarep.cli has been imported."""
        mods = [m for k, m in list(sys.modules.items())
                if k == "planarep" or k.startswith("planarep.")]
        for name, where in TARGETS.items():
            owner = import_module(where[0])
            if len(where) == 3:
                cls = getattr(owner, where[1])
                orig = cls.__dict__[where[2]]
                setattr(cls, where[2], self._wrap(name, orig))
                self._undo.append((cls, where[2], orig))
                continue
            orig = getattr(owner, where[1])
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()
