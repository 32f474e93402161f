"""Acceptance gate: one test per release criterion.

Each test finishes by printing a single PASS line (visible with pytest -s or
in the captured output); a failing criterion fails its test.  The whole gate
is designed to run in well under five minutes.
"""

import json

import numpy as np
import pytest

from planarep.cli import main as cli_main
from planarep.cohomology import (
    RepPoint,
    cohomology_data,
    delta0,
    euler_characteristic_expected,
    random_fnat_point,
)
from planarep.components import component_label, finite_order_classes
from planarep.errors import InfeasibleSpec, NotFound
from planarep.foxcalc import (
    GroupRingElt,
    abelianized_boundary,
    boundary,
    fox_derivative,
    fundamental_cycle,
    relator_filling_chain,
)
from planarep.liegroup import get_model
from planarep.presentations import PlanarPresentation
from planarep.solver import SolveSpec, solve_relator
from planarep.symplectic import (
    check_moment_identity,
    degeneracy_report,
    extend_point,
    gram_on_cocycles,
    moment_pairing,
    tangent_from_u,
)
from planarep.words import commutator, gen, w_inv, w_mul

from oracles import (delta1_free, harmonic, pairing_H1, su2_brute_force_feasible,
                     su2_triangle_oracle)

SU2 = get_model("SU2")
U1 = get_model("U1")
U2 = get_model("U2")


def _report(name):
    print(f"PASS {name}")


def _random_presentations(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        genus = int(rng.integers(0, 4))
        n = int(rng.integers(0, 5))
        torsion = tuple(int(m) for m in rng.integers(2, 10, n))
        if genus == 0 and n == 0:
            continue
        out.append(PlanarPresentation(genus, torsion))
    return out


def _det_one_class(model, m):
    for cls in finite_order_classes(model, m)[1:]:
        if abs(np.linalg.det(cls.representative) - 1.0) < 1e-9:
            return cls
    return finite_order_classes(model, m)[0]


def _central_point(model, pres, seed, minus=False):
    classes = [_det_one_class(model, m) for m in pres.torsion]
    spec = SolveSpec(pres, model, classes, minus=minus, seed=seed, tol=1e-12)
    return solve_relator(spec).point


def test_criterion_01_symbolic_exactness():
    # displayed Fox derivatives of the long relator for genus 1, one torsion
    p = PlanarPresentation(1, (2,))
    x, y = gen(0), gen(1)
    r = p.long_relator
    assert fox_derivative(r, 0) == (
        GroupRingElt.one() - GroupRingElt.of(w_mul(x, y, w_inv(x)))
    )
    assert fox_derivative(r, 1) == (
        GroupRingElt.of(x) - GroupRingElt.of(commutator(x, y))
    )
    assert fox_derivative(r, 2) == GroupRingElt.of(commutator(x, y))
    for p in _random_presentations(50, seed=101):
        rows = abelianized_boundary(p)
        # long-relator row: z_1 + .. + z_n; torsion rows: m_j z_j
        expected_r = [0] * (2 * p.genus) + [1] * p.n_torsion
        assert rows[0] == expected_r
        for j, m in enumerate(p.torsion):
            expected = [0] * p.num_generators
            expected[p.z_index(j)] = m
            assert rows[j + 1] == expected
        fundamental_cycle(p)  # raises unless the abelianized boundary is 0
    _report("criterion 1: symbolic exactness (Fox derivatives, boundary rows,"
            " fundamental cycle) on 50 random presentations")


def test_criterion_02_chain_filling_exact():
    for p in _random_presentations(50, seed=202):
        c = relator_filling_chain(p)  # verifies its own boundary, exactly
        b = boundary(c)
        coeffs = {w: q for (w,), q in b.terms.items()}
        assert coeffs[p.long_relator] == 1
        for j, rel in enumerate(p.torsion_relators):
            assert coeffs[rel] * p.torsion[j] == -1
    _report("criterion 2: filling chain boundary identity exact (rational "
            "arithmetic) on 50 random presentations")


def test_criterion_03_complex_property():
    pres = PlanarPresentation(1, (3,))
    worst = 0.0
    for model in (SU2, U2):
        for seed in range(50):
            pt = _central_point(model, pres, seed)
            res = np.linalg.norm(delta1_free(pt)[: model.d] @ delta0(pt))
            worst = max(worst, res)
    assert worst < 1e-10
    _report(f"criterion 3: ||delta1 . delta0|| = {worst:.2e} < 1e-10 at 100 "
            "points with central relator value (SU(2), U(2))")


def test_criterion_04_duality_and_euler():
    checked = 0
    # U(1): cheap random points, closed form for genus <= 5
    for genus in range(1, 6):
        for torsion in ((), (2,), (3, 4), (2, 2, 5)):
            pres = PlanarPresentation(genus, torsion)
            for seed in range(10):
                pt = random_fnat_point(pres, U1, np.random.default_rng(seed))
                data = cohomology_data(pt)
                assert data.dims == (1, 2 * genus, 1)
                assert data.h0 == data.h2
                assert data.h0 - data.h1 + data.h2 == (
                    euler_characteristic_expected(pt, data.f_j)
                )
                checked += 1
    # SU(2) and U(2): solver points
    for model in (SU2, U2):
        for pres in (PlanarPresentation(1, (3,)), PlanarPresentation(0, (4, 4, 4))):
            for seed in range(5):
                try:
                    pt = _central_point(model, pres, seed)
                except (InfeasibleSpec, NotFound):
                    continue
                data = cohomology_data(pt)
                assert data.h0 == data.h2
                assert data.h0 - data.h1 + data.h2 == (
                    euler_characteristic_expected(pt, data.f_j)
                )
                checked += 1
    assert checked >= 200
    # SU(2) trivial representation, genus 2
    pres = PlanarPresentation(2, ())
    pt = RepPoint(pres, SU2, [SU2.identity.copy() for _ in range(4)])
    assert cohomology_data(pt).dims == (3, 12, 3)
    _report(f"criterion 4: duality h0 = h2 and Euler identity exact at "
            f"{checked} points; U(1) closed form and SU(2) trivial-rep dims"
            " reproduced")


def test_criterion_05_pairing_properties():
    rng = np.random.default_rng(5)
    points = []
    for seed in range(9):
        points.append(_central_point(SU2, PlanarPresentation(1, (3,)), seed))
    for seed in range(5):
        points.append(
            _central_point(SU2, PlanarPresentation(0, (4, 4, 4)), seed)
        )
    for seed in range(5):
        points.append(_central_point(U2, PlanarPresentation(1, (4,)), seed))
    # one twisted point with r(phi) = -e
    points.append(_central_point(SU2, PlanarPresentation(2, ()), 0, minus=True))
    assert len(points) == 20
    worst_anti, worst_cob = 0.0, 0.0
    for phi in points:
        data = cohomology_data(phi)  # the pairings take its projective coordinates

        def coc(c=None):
            c = rng.standard_normal(data.cocycles.shape[1]) if c is None else c
            return data.cocycles @ c

        u, v = coc(), coc()
        a = pairing_H1(data, u, v)
        worst_anti = max(worst_anti, abs(a + pairing_H1(data, v, u)))
        X = rng.standard_normal(phi.model.d)
        cob = data.delta0_proj @ X
        worst_cob = max(worst_cob, abs(pairing_H1(data, u, cob)))
        # nondegeneracy on harmonic representatives
        G = gram_on_cocycles(data.cup, harmonic(data))
        s = np.linalg.svd(G, compute_uv=False) if G.size else np.zeros(0)
        rank = int(np.sum(s > 1e-8 * max(1.0, s[0] if len(s) else 0.0)))
        assert rank == data.h1
    assert worst_anti < 1e-12
    assert worst_cob < 1e-10
    _report(f"criterion 5: antisymmetry {worst_anti:.2e} <= 1e-12, coboundary"
            f" insensitivity {worst_cob:.2e} <= 1e-10, Gram rank = h1 at 20 "
            "points incl. one twisted SU(2) point")


def test_criterion_06_momentum_identity():
    pres = PlanarPresentation(1, (3,))
    rng = np.random.default_rng(606)
    worst = 0.0
    for seed in range(20):
        pt = extend_point(_central_point(SU2, pres, 300 + seed))
        X = SU2.random_alg(rng)
        coords = rng.standard_normal(pt.data.delta1_proj.shape[1])
        t = tangent_from_u(pt, coords)
        scale = max(1.0, abs(moment_pairing(pt, X)), np.linalg.norm(coords))
        worst = max(worst, check_moment_identity(pt, X, t) / scale)
    assert worst < 1e-6
    # equivariance of mu under conjugation
    pt = extend_point(_central_point(SU2, pres, 0))
    g = SU2.random_element(np.random.default_rng(7))
    worst_eq = 0.0
    for B in SU2.basis:
        a = moment_pairing(pt.conjugate(g), g @ B @ np.linalg.inv(g))
        worst_eq = max(worst_eq, abs(a - moment_pairing(pt, B)))
    assert worst_eq < 1e-12
    _report(f"criterion 6: momentum identity relative residual {worst:.2e} < "
            f"1e-6 at 20 fresh points; equivariance {worst_eq:.2e} <= 1e-12")


def test_criterion_07_degeneracy_structure():
    pres = PlanarPresentation(1, (3,))
    worst_angle = 0.0
    for seed in range(20):
        pt = extend_point(_central_point(SU2, pres, 500 + seed))
        rep = degeneracy_report(pt)
        assert rep["nullspace_matches_B1"]
        assert rep["full_rank"] == rep["dim_C1_proj"]
        worst_angle = max(worst_angle, rep["max_principal_angle"])
    assert worst_angle < 1e-6
    _report(f"criterion 7: omega nullspace on Z1 = im delta0 (max principal "
            f"angle {worst_angle:.2e} < 1e-6) and full Gram rank = dim C1 at "
            "20 central-fiber points")


def test_criterion_08_components():
    for m in range(1, 13):
        classes = finite_order_classes(SU2, m)
        assert len(classes) == m // 2 + 1
        # brute force: distinct traces of diagonalized solutions of g^m = e
        traces = {
            round(2 * float(np.cos(2 * np.pi * k / m)), 9) for k in range(m)
        }
        assert len(classes) == len(traces)
    # solver-point labels match the requested classes
    for ms, idx in (((3, 3, 3), (1, 1, 1)), ((2, 4, 4), (1, 2, 1))):
        classes = [finite_order_classes(SU2, m)[i] for m, i in zip(ms, idx)]
        angles = [2 * np.pi * float(min(c.fractions)) for c in classes]
        if not su2_triangle_oracle(*angles):
            continue
        res = solve_relator(SolveSpec(PlanarPresentation(0, ms), SU2, classes, seed=8))
        assert component_label(res.point) == [c.class_id for c in classes]
    _report("criterion 8: SU(2) class counts floor(m/2)+1 match brute force "
            "for m <= 12; solver labels match requested classes")


def test_criterion_09_oracle_cross_validation():
    rng = np.random.default_rng(909)
    triples = rng.uniform(0.0, np.pi, (1_000_000, 3))
    for target in ("e", "-e"):
        brute = su2_brute_force_feasible(
            triples[:, 0], triples[:, 1], triples[:, 2], target=target
        )
        # vectorized restatement of the oracle, spot-verified below
        th1, th2, th3 = triples.T.copy()
        if target == "-e":
            th3 = np.pi - th3
        oracle = (np.abs(th1 - th2) - 1e-12 <= th3) & (
            th3 <= np.minimum(th1 + th2, 2 * np.pi - th1 - th2) + 1e-12
        )
        assert not np.any(oracle != brute), (
            f"{int(np.sum(oracle != brute))} disagreements for target {target}"
        )
        sample = rng.integers(0, len(triples), 500)
        for i in sample:
            assert su2_triangle_oracle(*triples[i], target=target) == oracle[i]
    # solver feasibility matches the oracle on 1000 seeded specs
    for k in range(1000):
        srng = np.random.default_rng(10_000 + k)
        ms = tuple(int(m) for m in srng.integers(2, 8, 3))
        classes = [
            finite_order_classes(SU2, m)[int(srng.integers(0, m // 2 + 1))]
            for m in ms
        ]
        angles = [2 * np.pi * float(min(c.fractions)) for c in classes]
        feasible = su2_triangle_oracle(*angles)
        spec = SolveSpec(PlanarPresentation(0, ms), SU2, classes, seed=k,
                         max_restarts=12)
        try:
            res = solve_relator(spec)
            assert feasible and res.residual < 1e-10
        except InfeasibleSpec:
            assert not feasible
        except NotFound:
            pytest.fail(f"oracle-feasible spec not solved: {ms}")
    _report("criterion 9: oracle = brute force on 10^6 triples (0 "
            "disagreements, both targets); solver matches oracle on 1000 "
            "seeded specs")


def test_criterion_10_reproducibility(capsys):
    args = ["cohomology", "--group", "SU2", "--genus", "1", "--torsion", "3",
            "--seed", "11", "--no-timestamp"]
    assert cli_main(list(args)) == 0
    out1 = capsys.readouterr().out
    assert cli_main(list(args)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    json.loads(out1)  # well-formed
    _report("criterion 10: identical config+seed gives byte-identical JSON "
            "reports across two runs")
