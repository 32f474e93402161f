import importlib.util
import json
import time
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from planarep import solver
from planarep.cohomology import RepPoint, cohomology_data, delta0
from planarep.components import component_label, finite_order_classes
from planarep.errors import InfeasibleSpec, NotFound, ToleranceAmbiguity
from planarep.liegroup import get_model
from planarep.presentations import PlanarPresentation
from planarep.solver import SolveSpec, solve_relator, su2_product_rule

from oracles import (det_certificate, mat_json_per_entry, su2_brute_force_feasible,
                     su2_triangle_oracle)

SU2 = get_model("SU2")
U2 = get_model("U2")


def _classes(model, ms, idx=None):
    out = []
    for j, m in enumerate(ms):
        classes = finite_order_classes(model, m)
        out.append(classes[idx[j] if idx else 1])
    return out


def test_oracle_basic_cases():
    # equilateral spherical triangle
    assert su2_triangle_oracle(2 * np.pi / 3, 2 * np.pi / 3, 2 * np.pi / 3)
    # degenerate: half-turns compose to e only through the twisted target
    assert not su2_triangle_oracle(np.pi, np.pi, np.pi)
    assert su2_triangle_oracle(np.pi, np.pi, np.pi, target="-e")
    # strict violation of the triangle inequality
    assert not su2_triangle_oracle(0.1, 0.1, 3.0)


def test_oracle_rejects_bad_angles():
    with pytest.raises(ValueError):
        su2_triangle_oracle(-0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        su2_triangle_oracle(1.0, 1.0, 1.0, target="z")


def test_oracle_agrees_with_brute_force_sample():
    rng = np.random.default_rng(12)
    t = rng.uniform(0, np.pi, (2000, 3))
    for target in ("e", "-e"):
        oracle = np.array([su2_triangle_oracle(*row, target=target) for row in t])
        brute = su2_brute_force_feasible(t[:, 0], t[:, 1], t[:, 2], target=target)
        assert np.array_equal(oracle, brute)


def test_solve_triangle_group():
    pres = PlanarPresentation(0, (3, 3, 3))
    res = solve_relator(SolveSpec(pres, SU2, _classes(SU2, (3, 3, 3)), seed=7))
    assert res.residual < 1e-10
    assert res.point.is_fnat()
    # labels match the requested classes
    assert component_label(res.point) == [c.class_id for c in _classes(SU2, (3, 3, 3))]


def test_solve_infeasible_certificate():
    pres = PlanarPresentation(0, (2, 3, 7))
    with pytest.raises(InfeasibleSpec):
        solve_relator(SolveSpec(pres, SU2, _classes(SU2, (2, 3, 7)), seed=1))


def test_solve_twisted_target():
    pres = PlanarPresentation(0, (2, 2, 2))
    res = solve_relator(SolveSpec(pres, SU2, _classes(SU2, (2, 2, 2)), minus=True, seed=5))
    assert res.residual < 1e-10
    assert np.linalg.norm(res.point.long_relator_value + np.eye(2)) < 1e-9


def test_solve_higher_genus():
    res = solve_relator(SolveSpec(PlanarPresentation(1, (4,)), SU2,
                                  _classes(SU2, (4,)), seed=2))
    assert res.residual < 1e-10


def test_u_det_obstruction():
    u2 = get_model("U2")
    classes = finite_order_classes(u2, 3)
    bad = next(
        c for c in classes
        if abs(np.linalg.det(c.representative) - 1.0) > 1e-9
    )
    with pytest.raises(InfeasibleSpec):
        solve_relator(SolveSpec(PlanarPresentation(1, (3,)), u2, [bad], seed=0))


def test_spec_validation():
    with pytest.raises(InfeasibleSpec):
        SolveSpec(PlanarPresentation(0, (3, 3, 3)), SU2, _classes(SU2, (3, 3)))
    with pytest.raises(InfeasibleSpec):
        # class order mismatch
        SolveSpec(PlanarPresentation(0, (3, 3, 3)), SU2, _classes(SU2, (4, 4, 4)))


def test_determinism():
    pres = PlanarPresentation(0, (3, 3, 3))
    spec = SolveSpec(pres, SU2, _classes(SU2, (3, 3, 3)), seed=9)
    a = solve_relator(spec)
    b = solve_relator(spec)
    for ga, gb in zip(a.point.gens, b.point.gens):
        assert np.array_equal(ga, gb)


def test_feasibility_matches_oracle_on_seeded_specs():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(100):
        ms = tuple(int(m) for m in rng.integers(2, 8, 3))
        idx = [int(rng.integers(0, m // 2 + 1)) for m in ms]
        classes = _classes(SU2, ms, idx)
        angles = [2 * np.pi * float(min(c.fractions)) for c in classes]
        feasible = su2_triangle_oracle(*angles)
        spec = SolveSpec(PlanarPresentation(0, ms), SU2, classes,
                         seed=checked, max_restarts=10)
        try:
            res = solve_relator(spec)
            assert feasible, f"solved an oracle-infeasible spec {ms} {idx}"
            assert res.residual < 1e-10
        except InfeasibleSpec:
            assert not feasible
        except NotFound:
            pytest.fail(f"oracle-feasible spec not solved: {ms} {idx}")
        checked += 1


# --- the stacked trial step against a per-generator oracle -------------------
#
# The oracle is the restart loop one generator at a time: per-element unvec
# and exp, representatives rebuilt and zeta inverted at every use, r(phi)
# and the Fox row of the long relator built one handle at a time from the
# commutator forms d[x,y]/dx = 1 - x y x^-1 and d[x,y]/dy = x - [x,y], the
# residual of the step projected onto the tangent space of G at r(phi) zeta^-1,
# the Jacobian as B(R) E' with B(R) built one basis element at a time and
# rebuilt at every iteration (the solver keeps it across a rejected step,
# which leaves the point where it was).
# Inverses are the closed forms: g^H for the unitary models, the adjugate
# for SL(2,R), and K^-1 Ad^T K for Ad (K the pairing Gram).  It takes only
# the stacked Ad_matrix of the generators and the one-matrix exp from
# planarep (both are checked against per-element calls, and exp against
# scipy's expm, in test_liegroup).  The stacked solver must follow the same
# trajectory bit for bit.


def _oracle_unvec(model, v):
    return np.tensordot(np.asarray(v, dtype=float), model.basis, axes=(0, 0))


def _oracle_inv(model, g):
    if model.kind == "SL2R":
        return np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
    return g.conj().T


def _oracle_long_value(pt):
    p, g = pt.pres, pt.gens
    out = pt.model.identity
    for j in range(p.genus):
        x, y = g[p.x_index(j)], g[p.y_index(j)]
        out = out @ (x @ y @ _oracle_inv(pt.model, x) @ _oracle_inv(pt.model, y))
    for j in range(p.n_torsion):
        out = out @ g[p.z_index(j)]
    return out


def _oracle_long_row(pt):
    p, model = pt.pres, pt.model
    d, K = model.d, model.pairing_gram
    Kinv = np.linalg.inv(K)
    blocks = [None] * p.num_generators
    P = np.eye(d)
    for j in range(p.genus):
        Ax, Ay = pt.ad_gens[p.x_index(j)], pt.ad_gens[p.y_index(j)]
        Aa = Ax @ Ay @ (Kinv @ Ax.T @ K)
        Ac = Aa @ (Kinv @ Ay.T @ K)
        blocks[p.x_index(j)] = P @ (np.eye(d) - Aa)
        blocks[p.y_index(j)] = P @ (Ax - Ac)
        P = P @ Ac
    for j in range(p.n_torsion):
        blocks[p.z_index(j)] = P.copy()
        P = P @ pt.ad_gens[p.z_index(j)]
    return np.hstack(blocks)


def _oracle_tangent(model, E):
    # E = R - I projected orthogonally onto the tangent space of G at R
    R = E + model.identity
    if model.kind == "SL2R":
        N = _oracle_inv(model, R).T
        return E - (np.sum(E * N) / np.sum(N * N)) * N
    Y = E @ R.conj().T
    A = 0.5 * (Y - Y.conj().T)
    if model.kind == "SU":
        A = A - (np.trace(A) / model.n) * np.eye(model.n)
    return A @ R


def _oracle_assemble(spec, free, conj):
    gens = list(free)
    for k, cls in zip(conj, spec.classes):
        gens.append(k @ cls.representative @ _oracle_inv(spec.model, k))
    return RepPoint(spec.pres, spec.model, gens)


def _oracle_residual(spec, pt):
    r = _oracle_long_value(pt)
    return r @ _oracle_inv(spec.model, spec.zeta) - spec.model.identity


def _oracle_jacobian(spec, pt):
    # column (i, b) is (Re, Im) of unvec(A_i[:, b]) R, linear in the column:
    # B(R) A_i for B(R) with column a the (Re, Im) of basis[a] R
    model, p = spec.model, spec.pres
    d = model.d
    rtail = _oracle_long_value(pt) @ _oracle_inv(model, spec.zeta)
    cols = []
    for a in range(d):
        M = model.basis[a] @ rtail
        cols.append(np.concatenate([M.real.ravel(), M.imag.ravel()]))
    row = _oracle_long_row(pt)
    for i in range(2 * p.genus, p.num_generators):
        A = row[:, i * d : (i + 1) * d]
        A[...] = A @ (np.eye(d) - pt.ad_gens[i])
    return np.array(cols).T @ row


def _oracle_solve_once(spec, rng):
    model, p = spec.model, spec.pres
    d = model.d
    free = [model.exp(_oracle_unvec(model, rng.standard_normal(d))) for _ in range(2 * p.genus)]
    conj = [model.exp(_oracle_unvec(model, rng.standard_normal(d))) for _ in range(p.n_torsion)]
    lam = 1e-8
    pt = _oracle_assemble(spec, free, conj)
    E = _oracle_residual(spec, pt)
    f = float(np.linalg.norm(E) ** 2)
    for _ in range(spec.max_iters):
        if np.sqrt(f) < spec.tol:
            break
        J = _oracle_jacobian(spec, pt)
        T = _oracle_tangent(model, E)
        r = np.concatenate([T.real.ravel(), T.imag.ravel()])
        try:
            step = -(J.T @ np.linalg.solve(J @ J.T + lam * np.eye(len(r)), r))
        except np.linalg.LinAlgError:
            return pt, float("inf")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                nf = [model.cayley(_oracle_unvec(model, step[i * d : (i + 1) * d])) @ g
                      for i, g in enumerate(free)]
                nc = [model.cayley(_oracle_unvec(model, step[(2 * p.genus + j) * d : (2 * p.genus + j + 1) * d])) @ k
                      for j, k in enumerate(conj)]
                npt = _oracle_assemble(spec, nf, nc)
                nE = _oracle_residual(spec, npt)
                nfval = float(np.linalg.norm(nE) ** 2)
            except np.linalg.LinAlgError:
                nfval = np.inf
        if nfval < f:
            free, conj, pt, E, f = nf, nc, npt, nE, nfval
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e6:
                break
    return pt, float(np.sqrt(f))


ORACLE_SPECS = [  # group, genus, torsion, class indices, target, seed
    ("SU2", 0, (3, 3, 3), (1, 1, 1), "e", 7),
    ("SU2", 1, (4,), (1,), "e", 2),
    ("SU2", 0, (2, 2, 2), (1, 1, 1), "-e", 5),
    ("SU2", 2, (), (), "e", 0),
    ("U1", 1, (3, 3), (1, 2), "e", 0),
    ("U2", 1, (3,), (4,), "e", 0),
    ("U2", 0, (3, 3), (1, 2), "e", 3),
    ("U3", 1, (3,), (4,), "e", 1),
    ("SL2R", 2, (), (), "e", 3),  # rejects singular trial steps on the way
    ("SL2R", 1, (), (), "e", 4),
]


def _oracle_spec(group, genus, torsion, idx, target, seed, **kw):
    model = get_model(group)
    classes = [finite_order_classes(model, m)[i] for m, i in zip(torsion, idx)]
    return SolveSpec(PlanarPresentation(genus, torsion), model, classes,
                     minus=target == "-e", seed=seed, **kw)


@pytest.mark.parametrize("case", ORACLE_SPECS, ids=lambda c: f"{c[0]}-g{c[1]}-{c[2]}-{c[4]}")
def test_stacked_solver_follows_oracle_bitwise(case):
    # restart by restart from one generator state, as solve_relator draws
    # them: this covers the search also at the specs that solve_relator
    # builds without it, on the boundary of the rank-2 rule and for SU(2)
    # and U(2) at genus >= 1
    spec = _oracle_spec(*case)
    rng, ref_rng = np.random.default_rng(spec.seed), np.random.default_rng(spec.seed)
    for _ in range(60):
        pt, resid = solver._solve_once(spec, rng)
        ref, ref_resid = _oracle_solve_once(spec, ref_rng)
        assert resid == ref_resid
        assert len(pt.gens) == len(ref.gens)
        for g, h in zip(pt.gens, ref.gens):
            assert np.array_equal(g, h)
        if resid < spec.tol:
            break
    assert resid < spec.tol


def test_stacked_solver_not_found_message_matches_oracle(monkeypatch):
    spec = _oracle_spec("SU2", 0, (3, 3, 3, 3), (1, 0, 0, 0), "e", 0, max_restarts=3)
    # the spec is certified empty; drop the certificate so both sides search
    monkeypatch.setattr(solver, "_feasibility_oracle", lambda spec: None)
    with pytest.raises(NotFound) as got:
        solve_relator(spec)
    monkeypatch.setattr(solver, "_solve_once", _oracle_solve_once)
    with pytest.raises(NotFound) as want:
        solve_relator(spec)
    assert str(got.value) == str(want.value)


def _singular_sl2r_step(model):
    # algebra coordinates whose unvec has eigenvalues exactly +-2, so that
    # I - X/2 is singular in floating point: c S with S = [[0, s], [s, 0]]
    # the second basis element, c nudged until c s rounds to 2
    c = 2.0 / model.basis[1][0, 1]
    while (c * model.basis[1][0, 1]) != 2.0:
        c = np.nextafter(c, np.inf if c * model.basis[1][0, 1] < 2.0 else 0.0)
    v = np.zeros(model.d)
    v[1] = c
    return v


def test_singular_sl2r_trial_is_rejected(monkeypatch):
    # the first trial step puts one generator's step at a singular I - X/2,
    # where cay divides by zero: that trial is rejected like any non-finite
    # residual, with no warning and no exception, and the search goes on to
    # solve the spec
    spec = _oracle_spec("SL2R", 2, (), (), "e", 0)
    model = spec.model
    v = _singular_sl2r_step(model)
    X = model.unvec(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(model.cayley(X)).all()
    lm_step, residual_matrix, steps, trials = solver._lm_step, solver._residual_matrix, [], []

    def step(J, r, lam):
        out = lm_step(J, r, lam)
        if not steps:
            out.reshape(-1, model.d)[0] = v
        steps.append(out)
        return out

    def residual(spec, pt):
        E = residual_matrix(spec, pt)
        if len(steps) == 1 and not trials:  # the trial point of the first step
            trials.append(float(np.linalg.norm(E)))
        return E

    monkeypatch.setattr(solver, "_lm_step", step)
    monkeypatch.setattr(solver, "_residual_matrix", residual)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_relator(spec)
    assert len(trials) == 1 and not np.isfinite(trials[0])
    assert res.residual < spec.tol


def test_one_trial_per_iteration_and_one_jacobian_per_iterate(monkeypatch):
    # SL2R g2 seed 3 rejects steps on the way.  Each iteration takes one step
    # and evaluates at most one trial point; J is built once per iterate: at a
    # restart's start point and after an accepted step, never again after a
    # rejected one
    spec = _oracle_spec("SL2R", 2, (), (), "e", 3)
    events = []

    residual_matrix = solver._residual_matrix

    def record(name, fn):
        def wrapper(*args):
            events.append((name, *args[1:]))
            return fn(*args)
        return wrapper

    def residual(spec, pt):
        E = residual_matrix(spec, pt)
        events.append(("residual", pt, float(np.linalg.norm(E) ** 2)))
        return E

    monkeypatch.setattr(solver, "_solve_once", record("restart", solver._solve_once))
    monkeypatch.setattr(solver, "_jacobian", record("jacobian", solver._jacobian))
    monkeypatch.setattr(solver, "_lm_step", record("step", solver._lm_step))
    monkeypatch.setattr(solver, "_residual_matrix", residual)
    solve_relator(spec)

    counts = {"restart": 0, "jacobian": 0, "step": 0, "residual": 0, "rejected": 0}
    prev = None
    for name, *args in events:
        counts[name] += 1
        if name == "restart":
            current = stale = None
        elif name == "residual":
            pt, f = args
            if current is None:  # the start point
                current, stale = (pt, f), True
            else:
                assert prev == "step", "a second trial point in one iteration"
                if f < current[1]:
                    current, stale = (pt, f), True
                else:
                    counts["rejected"] += 1
        elif name == "jacobian":
            assert stale and args[0] is current[0], "J rebuilt at an unchanged point"
            stale = False
        elif name == "step":
            assert not stale, "a step from a J of another point"
        prev = name
    assert counts["residual"] <= counts["restart"] + counts["step"]
    assert counts["rejected"] > 0 and counts["jacobian"] < counts["step"]


def test_sl2r_minus_e_is_decided_by_genus(monkeypatch):
    # Milnor-Wood: -e needs an odd Euler number, which |eu| <= 2l - 2 rules
    # out at genus 0 and 1; from genus 2 on it is reached, and e always is
    for genus in (0, 1, 2, 3, 4):
        assert solver._feasibility_oracle(_oracle_spec("SL2R", genus, (), (), "e", 0))
        minus = solver._feasibility_oracle(_oracle_spec("SL2R", genus, (), (), "-e", 0))
        assert minus == (genus >= 2)
    for genus in (2, 3, 4):
        res = solve_relator(_oracle_spec("SL2R", genus, (), (), "-e", 0))
        assert np.linalg.norm(res.point.long_relator_value + np.eye(2)) < 1e-9
    # the empty spec is refused without a search
    monkeypatch.setattr(solver, "_solve_once", None)
    with pytest.raises(InfeasibleSpec):
        solve_relator(_oracle_spec("SL2R", 1, (), (), "-e", 0))


# --- the exact class-tuple rule ------------------------------------------------


def _load_check():
    """perfbench/check.py: the benchmark's planarep-free solvability truth."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECK = _load_check()


def _odd_subset_rule(ts, minus):
    """The rule by enumeration: every odd S has sum_S t - sum_rest t <= |S| - 1."""
    ts = list(ts)
    if minus:
        ts[-1] = 1 - ts[-1]
    total = sum(ts)
    return all(
        2 * sum(ts[i] for i in S) - total <= size - 1
        for size in range(1, len(ts) + 1, 2)
        for S in combinations(range(len(ts)), size)
    )


su2_tuples = st.lists(
    st.integers(2, 9).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m // 2))),
    min_size=1, max_size=7,
)


@settings(max_examples=200, deadline=None)
@given(su2_tuples, st.sampled_from(["e", "-e"]))
def test_su2_rule_matches_enumeration_and_check_fold(tuples, target):
    torsion = tuple(m for m, _ in tuples)
    idx = tuple(k for _, k in tuples)
    feasible = solver._feasibility_oracle(_oracle_spec("SU2", 0, torsion, idx, target, 0))
    ts = [Fraction(2 * k, m) for m, k in tuples]
    assert feasible == _odd_subset_rule(ts, target == "-e")
    req = SimpleNamespace(group="SU2", genus=0, torsion=torsion, classes=idx, target=target)
    assert feasible == CHECK.known_solvable(req)


def test_su2_rule_small_cases():
    def feasible(ts, minus=False):
        return su2_product_rule(ts, minus)[0] >= 0

    assert feasible([])
    assert not feasible([], minus=True)
    assert feasible([Fraction(0)]) and not feasible([Fraction(1, 2)])
    assert feasible([Fraction(1)], minus=True)
    # two classes multiply to e iff their angles agree
    assert feasible([Fraction(1, 3)] * 2)
    assert not feasible([Fraction(1, 3), Fraction(2, 3)])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("target", ["e", "-e"])
def test_u2_rule_matches_class_inversion(m, target):
    # A B = zeta iff class B = class (zeta A^-1); a det-violating pair is
    # certified by the determinant test before the rule is read
    classes = finite_order_classes(U2, m)
    shift = Fraction(1, 2) if target == "-e" else Fraction(0)
    for a, ca in enumerate(classes):
        inverse = tuple(sorted((shift - f) % 1 for f in ca.fractions))
        for b, cb in enumerate(classes):
            spec = _oracle_spec("U2", 0, (m, m), (a, b), target, 0)
            assert solver._feasibility_oracle(spec) == (inverse == cb.fractions), (a, b)


def test_u2_rule_matches_solver_on_three_classes(monkeypatch):
    # the rule decides only tuples that pass the determinant test:
    # the fractions of t(3,3,3) sum to an integer
    det = [sum(c.fractions) for c in finite_order_classes(U2, 3)]
    cases = [(idx, target) for idx in product(range(len(det)), repeat=3)
             for target in ("e", "-e")
             if sum(det[i] for i in idx).denominator == 1]
    rng = np.random.default_rng(31)
    seen = {True: 0, False: 0}
    for k in rng.choice(len(cases), 12, replace=False):
        idx, target = cases[k]
        spec = _oracle_spec("U2", 0, (3, 3, 3), idx, target, int(k), max_restarts=3)
        feasible = solver._feasibility_oracle(spec)
        seen[feasible] += 1
        _assert_solver_agrees(monkeypatch, spec, feasible)
    assert seen[True] and seen[False]


def _assert_solver_agrees(monkeypatch, spec, feasible):
    """A rule-feasible spec is solved; a rule-infeasible one is certified,
    and a short search without the certificate finds no point either."""
    if feasible:
        res = solve_relator(spec)
        assert res.residual < spec.tol
        assert np.linalg.norm(res.point.long_relator_value - spec.zeta) < 1e-9
        return
    with pytest.raises(InfeasibleSpec):
        solve_relator(spec)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_feasibility_oracle", lambda spec: None)
        with pytest.raises(NotFound):
            solve_relator(spec)


def test_solver_agrees_with_su2_rule_on_four_and_five_generators(monkeypatch):
    rng = np.random.default_rng(4_5)
    seen = {True: 0, False: 0}
    for k in range(20):
        torsion = tuple(int(m) for m in rng.integers(2, 8, int(rng.integers(4, 6))))
        idx = tuple(int(rng.integers(0, m // 2 + 1)) for m in torsion)
        target = ("e", "-e")[int(rng.integers(0, 2))]
        spec = _oracle_spec("SU2", 0, torsion, idx, target, k, max_restarts=2)
        feasible = solver._feasibility_oracle(spec)
        seen[feasible] += 1
        _assert_solver_agrees(monkeypatch, spec, feasible)
    assert seen[True] and seen[False]


@pytest.mark.parametrize("name", ["U1", "U2", "U3"])
def test_exact_det_certificate_matches_the_float_product(name):
    # at genus 1 the U(n) certificate is the determinant test alone; the
    # test is symmetric in the classes, so each multiset is one tuple
    model = get_model(name)
    for m, k in product(range(2, 6), range(1, 4)):
        pres = PlanarPresentation(1, (m,) * k)
        for classes in combinations_with_replacement(finite_order_classes(model, m), k):
            for minus in (False, True):
                spec = SolveSpec(pres, model, list(classes), minus=minus)
                assert solver._feasibility_oracle(spec) == det_certificate(classes, spec.zeta)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_target_phase_is_the_determinant_of_the_target(n):
    # a residue over any even denominator, as the spec's 2 lcm(orders)
    for minus, den in product((False, True), (2, 6, 24)):
        det = np.linalg.det(-np.eye(n) if minus else np.eye(n))
        phase = solver.target_phase(n, minus, den)
        assert 0 <= phase < den
        assert abs(np.exp(2j * np.pi * phase / den) - det) < 1e-12


def test_solve_relator_reads_the_rank2_rule_once(monkeypatch):
    calls = []
    rule = solver._rank2_rule
    monkeypatch.setattr(solver, "_rank2_rule", lambda spec: calls.append(spec) or rule(spec))
    cases = [("SU2", (3, 3, 3, 3), (0, 1, 1, 1), "e"),  # boundary: built
             ("SU2", (3, 3, 3, 3), (1, 1, 1, 1), "e"),  # interior: searched
             ("SU2", (3, 3, 3, 3), (0, 0, 0, 1), "e"),  # certified empty
             ("U2", (3, 3), (1, 2), "e")]  # boundary: built
    for group, torsion, idx, target in cases:
        calls.clear()
        spec = _oracle_spec(group, 0, torsion, idx, target, 0)
        try:
            solve_relator(spec)
        except InfeasibleSpec:
            pass
        assert len(calls) == 1 and calls[0] is spec


def test_higher_genus_is_certified_feasible():
    assert solver._feasibility_oracle(_oracle_spec("SU2", 1, (2, 3), (1, 0), "-e", 0))
    assert solver._feasibility_oracle(_oracle_spec("U3", 1, (3,), (4,), "e", 0))
    # no certificate for U(3) at genus 0
    assert solver._feasibility_oracle(_oracle_spec("U3", 0, (3, 3), (4, 4), "e", 0)) is None


def test_certified_feasible_not_found_is_a_solver_defect(monkeypatch):
    # an interior tuple: the rule holds strictly, so the point is searched
    spec = _oracle_spec("SU2", 0, (3, 3, 3, 3), (1, 1, 1, 1), "e", 0)
    monkeypatch.setattr(solver, "_solve_once", lambda spec, rng: (None, float("inf")))
    with pytest.raises(NotFound, match=r"certified feasible but not solved "
                       r"within 60 restarts \(solver defect\); best residual inf"):
        solve_relator(spec)


# --- the exact point on the boundary of the rule ------------------------------

rank2_specs = st.tuples(
    st.sampled_from(["SU2", "U2"]),
    st.lists(st.tuples(st.integers(2, 7), st.integers(0, 10**4)), min_size=1, max_size=6),
    st.sampled_from(["e", "-e"]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rank2_specs)
@example(("SU2", [(3, 0), (3, 1), (3, 1), (3, 1)], "e"))
@example(("SU2", [(3, 1), (3, 1), (3, 1), (3, 1)], "e"))  # interior
@example(("SU2", [(3, 1), (6, 1), (6, 2)], "-e"))
@example(("U2", [(3, 1), (3, 2), (3, 4)], "e"))
@example(("U2", [(4, 1), (4, 2), (4, 8)], "-e"))
def test_boundary_tuple_is_built_exactly(case):
    # class index k is read modulo the number of classes of order m
    group, tuples, target = case
    model = get_model(group)
    classes = [finite_order_classes(model, m)[k % len(finite_order_classes(model, m))]
               for m, k in tuples]
    spec = SolveSpec(PlanarPresentation(0, tuple(m for m, _ in tuples)), model, classes,
                     minus=target == "-e")
    feasible = solver._feasibility_oracle(spec)
    built = solver._torus_point(spec)
    assert (built is not None) == (feasible and solver._rank2_rule(spec)[0] == 0)
    if built is None:
        return
    assert built.restarts_used == 0 and built.residual <= 1e-12
    assert component_label(built.point) == [c.class_id for c in classes]
    # a maximal torus fixes the point: delta0 has nullity >= d - 2, the one
    # direction of the SU(2) torus plus, for U(2), the centre
    sv = np.linalg.svd(delta0(built.point), compute_uv=False)
    assert np.all(sv[2:] <= 1e-12)
    # solve_relator returns the built point, whatever the seed
    res = solve_relator(replace(spec, seed=17))
    assert res.restarts_used == 0
    assert all(np.array_equal(g, h) for g, h in zip(res.point.gens, built.point.gens))
    if sum(c.fractions[0] != c.fractions[1] for c in classes) < 3:
        return
    # the search converges only linearly there, and stops about sqrt(residual)
    # from the reducible locus: the smallest singular value of delta0 off
    # the centre is that small, far above the rank cut, so a searched point
    # reads as irreducible
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_torus_point", lambda spec: None)
        res = solve_relator(spec)
    sv = np.linalg.svd(delta0(res.point), compute_uv=False)
    assert res.restarts_used >= 1
    assert sv[2] <= 4 * np.sqrt(res.residual)


# --- the built point at genus >= 1 -------------------------------------------

handle_specs = st.tuples(
    st.sampled_from(["SU2", "U2"]),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(2, 7), st.integers(0, 10**4)), max_size=3),
    st.sampled_from(["e", "-e"]),
    st.integers(0, 10**6),
)


def _det_compatible_spec(group, genus, tuples, target, seed) -> SolveSpec:
    """The spec of the drawn classes (index k modulo the class count), the
    last one moved to the first class of its order that passes the
    determinant test, and dropped if none does, until the tuple passes."""
    model = get_model(group)
    classes = [finite_order_classes(model, m)[k % len(finite_order_classes(model, m))]
               for m, k in tuples]

    def spec(classes):
        return SolveSpec(PlanarPresentation(genus, tuple(c.order for c in classes)), model,
                         classes, minus=target == "-e", seed=seed)

    while not solver._feasibility_oracle(spec(classes)):
        last = finite_order_classes(model, classes[-1].order)
        classes = next(([*classes[:-1], c] for c in last
                        if solver._feasibility_oracle(spec([*classes[:-1], c]))), classes[:-1])
    return spec(classes)


def _dims(pt):
    """(h0, h1) at pt, and whether a rank decision hit the ambiguity band."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = cohomology_data(pt)
        dims = (data.h0, data.h1)
    return dims, any(issubclass(w.category, ToleranceAmbiguity) for w in caught)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(handle_specs)
@example(("SU2", 1, [], "e", 0))  # w = e: a commuting pair
@example(("U2", 1, [], "-e", 0))  # w = -e: the antipodal branch
@example(("U2", 2, [(3, 4)], "e", 1))
@example(("SU2", 8, [(2, 1), (3, 1), (7, 2)], "-e", 5))
def test_handle_point_is_built_in_closed_form(case):
    spec = _det_compatible_spec(*case)
    res = solve_relator(spec)
    assert res.restarts_used == 0 and res.residual <= 1e-12
    assert component_label(res.point) == [c.class_id for c in spec.classes]
    # handles 1..l-1 and the torsion generators are the search's first start
    # point; only the last handle is replaced
    f = 2 * spec.pres.genus
    start = solver._assemble(spec, solver._start(spec, np.random.default_rng(spec.seed))).gens
    keep = np.r_[0 : f - 2, f : spec.pres.num_generators]
    assert np.array_equal(res.point.gens[keep], start[keep])
    # the point's dims are those of a searched point of the same spec,
    # wherever the search converges and reads its ranks outside the band
    built, built_amb = _dims(res.point)
    rng = np.random.default_rng(spec.seed)
    for _ in range(spec.max_restarts):
        pt, resid = solver._solve_once(spec, rng)
        if resid < spec.tol:
            searched, amb = _dims(pt)
            if not amb:
                assert built == searched
            break
    assert not built_amb


@pytest.mark.parametrize("group", ["SU2", "U2"])
@pytest.mark.parametrize("target", ["e", "-e"])
def test_handle_point_at_a_central_w(group, target):
    # genus 1 without torsion: w = zeta exactly.  At w = e every solution is
    # a commuting pair; at w = -e, y is pure and w y = -y, so the axes are
    # antipodal on every draw and x, y anticommute.  A redraw loop never
    # ends there; the construction takes its half-turn branch at once
    model, t0 = get_model(group), time.perf_counter()
    for seed in range(20):
        spec = SolveSpec(PlanarPresentation(1, ()), model, [], minus=target == "-e", seed=seed)
        res = solve_relator(spec)
        assert res.restarts_used == 0 and res.residual <= 1e-14
        x, y = res.point.gens
        sign = -1 if target == "-e" else 1
        assert np.linalg.norm(x @ y - sign * y @ x) <= 1e-14
    assert time.perf_counter() - t0 < 1.0


def test_handle_point_off_tolerance_is_a_solver_defect(monkeypatch):
    # no fallback to the search: a built point that misses spec.tol raises
    spec = _oracle_spec("SU2", 2, (3,), (1,), "e", 0)
    monkeypatch.setattr(solver, "_solve_once", lambda spec, rng: pytest.fail("searched"))
    with pytest.raises(NotFound, match=r"certified feasible but not solved by "
                       r"construction \(solver defect\); residual "):
        solve_relator(replace(spec, tol=1e-300))


# --- the step in the residual space -------------------------------------------


@pytest.mark.parametrize("case", [
    ("SU2", 0, (3, 3, 3), (1, 1, 1)), ("SU2", 4, (3, 5), (1, 2)),
    ("SU2", 16, (3, 5), (1, 2)), ("U1", 2, (3,), (1,)), ("U2", 2, (3,), (4,)),
    ("U3", 2, (3,), (4,)), ("SL2R", 1, (), ()), ("SL2R", 3, (), ()),
], ids=lambda c: f"{c[0]}-g{c[1]}-{c[2]}")
def test_step_equals_normal_equations(case):
    # J^T (J J^T + lam I)^-1 r = (J^T J + lam I)^-1 J^T r for lam > 0; at
    # lam = 1e-2 and points near e both systems are well conditioned
    spec = _oracle_spec(*case, "e", 0)
    model, lam = spec.model, 1e-2
    rng = np.random.default_rng(5)
    for _ in range(5):
        G = model.exp(model.unvec(0.5 * rng.standard_normal((spec.pres.num_generators, model.d))))
        pt = solver._assemble(spec, G)
        E = solver._residual_matrix(spec, pt)
        J = solver._jacobian(spec, pt)
        assert J.shape == (2 * model.n**2, spec.pres.num_generators * model.d)
        r = np.concatenate([E.real.ravel(), E.imag.ravel()])
        A = J.T @ J + lam * np.eye(J.shape[1])
        assert np.linalg.cond(A) < 1e6
        want = -np.linalg.solve(A, J.T @ r)
        got = solver._lm_step(J, r, lam)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("case", [
    ("SU2", 1, (4,), (1,)), ("U1", 1, (3, 3), (1, 2)), ("U2", 2, (3,), (4,)),
    ("U3", 1, (3,), (4,)), ("SL2R", 2, (), ()), ("SL2R", 3, (), ()),
], ids=lambda c: f"{c[0]}-g{c[1]}-{c[2]}")
def test_tangent_residual_leaves_only_noise_out_of_the_step(case):
    # J maps into T_R G, so J^T annihilates the part of the residual normal
    # to G; along it J has singular values at rounding level only.  The step
    # from the projected residual is the step restricted to the numerical
    # range of J (singular values above 1e-8 of the largest)
    spec = _oracle_spec(*case, "e", 0)
    model, lam = spec.model, 1e-2
    rng = np.random.default_rng(7)
    for scale in (0.1, 0.5, 1.0):
        G = model.exp(model.unvec(scale * rng.standard_normal((spec.pres.num_generators, model.d))))
        pt = solver._assemble(spec, G)
        E = solver._residual_matrix(spec, pt)
        J = solver._jacobian(spec, pt)
        T = solver._tangent_residual(model, E)
        r, t = (np.concatenate([X.real.ravel(), X.imag.ravel()]) for X in (E, T))
        assert np.linalg.norm(J.T @ (r - t)) <= 1e-12 * np.linalg.norm(J, 2) * np.linalg.norm(r)
        assert np.linalg.norm(t) <= np.linalg.norm(r) * (1 + 1e-12)
        U, sv, Vt = np.linalg.svd(J, full_matrices=False)
        k = int(np.sum(sv > 1e-8 * sv[0]))
        assert k <= model.d
        want = -(Vt[:k].T @ (sv[:k] / (sv[:k] ** 2 + lam) * (U[:, :k].T @ r)))
        got = solver._lm_step(J, t, lam)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("case", [
    ("SU2", 1, (4,), (1,)), ("U1", 1, (3, 3), (1, 2)), ("U2", 2, (3,), (4,)),
    ("U3", 1, (3,), (4,)), ("SL2R", 2, (), ()),
], ids=lambda c: f"{c[0]}-g{c[1]}-{c[2]}")
def test_jacobian_matches_per_column_definition(case):
    # column (i, b) of J is (Re, Im) of unvec(E'[:, (i, b)]) R, for R =
    # r(phi) zeta^-1 = r(phi) zeta and E' the long row with each torsion
    # block times (I - Ad_{z_j}).  B(R) E' sums the same terms in another order, so the
    # two agree to 1e-14 relative to the size |E'| |R| of the terms; at SL2R
    # points far from e the terms cancel to a J far smaller than that
    spec = _oracle_spec(*case, "e", 0)
    model, d, f = spec.model, spec.model.d, 2 * spec.pres.genus
    rng = np.random.default_rng(11)
    for scale in (0.1, 1.0, 2.0):
        G = model.exp(model.unvec(scale * rng.standard_normal((spec.pres.num_generators, model.d))))
        pt = solver._assemble(spec, G)
        R = pt.long_relator_value @ spec.zeta
        E = np.array(pt.long_row)
        for i in range(f, spec.pres.num_generators):
            E[:, i * d : (i + 1) * d] = E[:, i * d : (i + 1) * d] @ (np.eye(d) - pt.ad_gens[i])
        want = np.array([np.concatenate([M.real.ravel(), M.imag.ravel()])
                         for M in (model.unvec(col) @ R for col in E.T)]).T
        J = solver._jacobian(spec, pt)
        assert J.shape == want.shape
        assert np.linalg.norm(J - want) <= 1e-14 * np.linalg.norm(E) * np.linalg.norm(R)


def test_jacobian_builds_no_algebra_element_per_column(monkeypatch):
    # J = B(R) E' is one product: no unvec, at SU2 genus 64 (N = 3 * 130)
    spec = _oracle_spec("SU2", 64, (3, 5), (1, 1), "e", 1)
    model = spec.model
    G = model.exp(model.unvec(np.random.default_rng(3).standard_normal((spec.pres.num_generators, model.d))))
    pt = solver._assemble(spec, G)
    calls = []
    unvec = type(model).unvec
    monkeypatch.setattr(type(model), "unvec", lambda self, v: calls.append(v) or unvec(self, v))
    J = solver._jacobian(spec, pt)
    assert J.shape == (8, 3 * 130) and calls == []


def test_solver_never_forms_the_normal_equations(monkeypatch):
    # every linear system of a search lives in the 2n^2-dimensional residual
    # space (8 x 8 for SU2), never in the N = 3 * 130 unknowns of genus 64.
    # solve_relator builds this spec, so the search is driven directly
    shapes, solve = [], np.linalg.solve

    def recording_solve(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    spec = _oracle_spec("SU2", 64, (3, 5), (1, 1), "e", 1)
    _, resid = solver._solve_once(spec, np.random.default_rng(spec.seed))
    assert resid < spec.tol
    assert shapes and set(shapes) == {(8, 8)}


@pytest.mark.parametrize("name", ["U1", "SU2", "SL2R", "U2", "U3"])
def test_mat_json_matches_the_per_entry_form(name):
    # the stacked tolist() gives the same Python floats as float() per entry,
    # signed zeros included (-e has -0.0 imaginary parts on the unitary
    # models), on real SL(2,R) matrices as on complex ones
    model = get_model(name)
    rng = np.random.default_rng(0)
    mats = [model.identity, -model.identity, *(model.random_element(rng) for _ in range(5))]
    for m in mats:
        got, want = solver._mat_json(m), mat_json_per_entry(m)
        assert got == want
        assert json.dumps(got) == json.dumps(want)  # same types and signs of zero
