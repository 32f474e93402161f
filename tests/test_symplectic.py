from functools import cached_property

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from planarep import cohomology, liegroup, symplectic
from planarep.cli import _pick_classes
from planarep.cohomology import (
    CochainData,
    RepPoint,
    cohomology_data,
    delta0,
    projective_subspace,
)
from planarep.components import finite_order_classes
from planarep.config import DEFAULT_TOL, Tolerances
from planarep.errors import (
    InfeasibleSpec,
    LogBranchFailure,
    NotACocycle,
    NotFound,
    RelatorConstraintViolated,
    SingularDexp,
    ToleranceExceeded,
)
from planarep.foxcalc import fox_derivative, relator_filling_chain
from planarep.liegroup import get_model, spectral_margin
from planarep.presentations import PlanarPresentation
from planarep.solver import SolveSpec, solve_relator
from planarep.symplectic import (
    ExtendedPoint,
    action_field,
    bform_O,
    bform_matrix,
    check_moment_identity,
    degeneracy_report,
    extend_point,
    gram_extended,
    gram_on_cocycles,
    moment_pairing,
    omega_extended,
    tangent_from_u,
)

from oracles import (block_basis, cocycles, cup_matrix_by_cells, harmonic, pairing_H1,
                     principal_angles, z1_kernel)

MODEL = get_model("SU2")
PRES = PlanarPresentation(1, (3,))


def _point(seed, pres=PRES, model=MODEL, minus=False, torsion_class_index=1):
    classes = [
        finite_order_classes(model, m)[torsion_class_index] for m in pres.torsion
    ]
    spec = SolveSpec(pres, model, classes, minus=minus, seed=seed, tol=1e-12)
    return solve_relator(spec).point


def _random_tangent(pt, rng):
    return tangent_from_u(pt, rng.standard_normal(pt.data.delta1_proj.shape[1]))


def test_pairing_antisymmetry():
    rng = np.random.default_rng(0)
    pt = extend_point(_point(0))
    for _ in range(5):
        t1 = _random_tangent(pt, rng)
        t2 = _random_tangent(pt, rng)
        a = omega_extended(pt, t1, t2)
        b = omega_extended(pt, t2, t1)
        assert abs(a + b) < 1e-12 * max(1.0, abs(a))


def test_pairing_coboundary_insensitivity():
    # cup pairing on H^1 kills coboundaries from either slot
    phi = _point(1)
    data = cohomology_data(phi)
    rng = np.random.default_rng(1)
    Z = cocycles(data)
    for _ in range(5):
        X = rng.standard_normal(phi.model.d)
        cob = data.delta0_proj @ X
        u = Z @ rng.standard_normal(Z.shape[1])
        val = pairing_H1(data, cob, u)
        assert abs(val) < 1e-10
        assert abs(pairing_H1(data, u, cob)) < 1e-10


def test_pairing_rejects_non_cocycles():
    phi = _point(2)
    rng = np.random.default_rng(2)
    data = cohomology_data(phi)
    u = rng.standard_normal(data.delta1_proj.shape[1])
    with pytest.raises(NotACocycle):
        pairing_H1(data, u, u)


def test_gram_rank_on_harmonic_equals_h1():
    cases = [(s, PRES, False) for s in range(3)]
    cases += [(s, PlanarPresentation(2, ()), True) for s in (0, 1)]
    for seed, pres, minus in cases:
        phi = _point(seed, pres=pres, minus=minus)
        data = cohomology_data(phi)
        G = gram_on_cocycles(data.cup, harmonic(data))
        s = np.linalg.svd(G, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * max(1.0, s[0] if len(s) else 0.0)))
        assert rank == data.h1


def test_moment_identity_fresh_points():
    rng = np.random.default_rng(99)
    worst = 0.0
    for seed in range(5):
        pt = extend_point(_point(seed + 10))
        for _ in range(3):
            X = MODEL.random_alg(rng)
            t = _random_tangent(pt, rng)
            scale = max(1.0, abs(moment_pairing(pt, X)))
            worst = max(worst, check_moment_identity(pt, X, t) / scale)
    assert worst < 1e-6


def test_moment_equivariance():
    pt = extend_point(_point(3))
    g = MODEL.random_element(np.random.default_rng(4))
    # mu is equivariant: pairing against Ad-translated test vectors agrees
    for i in range(MODEL.d):
        X = MODEL.basis[i]
        a = moment_pairing(pt.conjugate(g), g @ X @ np.linalg.inv(g))
        b = moment_pairing(pt, X)
        assert abs(a - b) < 1e-12


def test_action_field_is_coboundary_direction():
    pt = extend_point(_point(5))
    X = MODEL.random_alg(np.random.default_rng(6))
    t = action_field(pt, X)
    x = MODEL.vec(X)
    # u holds the projective coordinates of delta0 X, which lies in the
    # projective subspace: Q u gives back every block X - Ad_s X
    Q = block_basis(pt.data.proj_blocks)
    expected = np.concatenate([x - block @ x for block in pt.phi.ad_gens])
    assert np.linalg.norm(Q @ t.u - expected) < 1e-12


def test_conjugate_keeps_the_point_tolerance(monkeypatch):
    tol = Tolerances(rank_rel=1e-6)
    pt = extend_point(_point(3), tol)
    cuts = []
    svd_nullspace = cohomology._svd_nullspace
    monkeypatch.setattr(cohomology, "_svd_nullspace",
                        lambda A, rel_tol: cuts.append(rel_tol) or svd_nullspace(A, rel_tol))
    conj = pt.conjugate(MODEL.random_element(np.random.default_rng(4)))
    assert conj.data.tol is tol
    conj.data.proj_blocks
    assert cuts == [1e-6]  # the block of the one torsion generator
    assert conj.data.dims == pt.data.dims


def test_degeneracy_structure_central_fiber():
    for seed in range(3):
        pt = extend_point(_point(seed + 20))
        report = degeneracy_report(pt)
        assert report["nullspace_matches_B1"]
        assert z1_kernel(pt.data)[3] < 1e-6  # the angle, by the dense oracle
        assert report["nondegenerate"]
        assert report["full_rank"] == report["dim_C1_proj"]
        assert report["rank_on_Z1"] == report["h1"]


def test_report_builds_cup_and_relator_row_once(monkeypatch):
    phi = _point(3)
    counts = {"cup": 0, "row": 0, "walk": 0}
    cup_matrix, walk = symplectic.cup_matrix, RepPoint.walk
    long_row = RepPoint.__dict__["long_row"].func

    def counting_cup(point):
        counts["cup"] += 1
        return cup_matrix(point)

    def counting_row(point):
        counts["row"] += 1
        return long_row(point)

    def counting_walk(point, w):
        counts["walk"] += w == point.pres.long_relator
        return walk(point, w)

    row = cached_property(counting_row)
    row.__set_name__(RepPoint, "long_row")
    monkeypatch.setattr(symplectic, "cup_matrix", counting_cup)
    monkeypatch.setattr(RepPoint, "long_row", row)
    monkeypatch.setattr(RepPoint, "walk", counting_walk)
    degeneracy_report(extend_point(phi))
    # the row is built per handle, never by a walk along the long relator
    assert counts == {"cup": 1, "row": 1, "walk": 0}


@pytest.mark.parametrize("group", ["U1", "SU2", "U2", "U3", "SL2R"])
def test_cup_matrix_closed_form_matches_cell_oracle(group):
    # the closed form assumes Ad^T G Ad = G, which the float Ad matrices
    # meet only to rounding, so it leaves the cell sum by rounding that
    # grows with the relator, measured against the scale max(1, |R|^2) of
    # its cross terms R_i^T G R_j.  SL(2,R) is torsion-free at genus <= 3
    # only: the powers of random SL(2,R) torsion generators explode.
    model, rng = get_model(group), np.random.default_rng(11)
    if group == "SL2R":
        cases, bound = [(g, ()) for g in range(1, 4)], 5e-13
    else:
        cases = [(g, t) for g in range(9) for t in ((), (3,), (2, 3, 7)) if g or t]
        bound = 1e-13
    for genus, torsion in cases:
        pres = PlanarPresentation(genus, torsion)
        gens = [model.random_element(rng) for _ in range(pres.num_generators)]
        phi = RepPoint(pres, model, gens)
        C = symplectic.cup_matrix(phi)
        assert np.array_equal(C, -C.T)
        scale = max(1.0, np.abs(phi.long_row).max() ** 2)
        assert np.abs(C - cup_matrix_by_cells(phi)).max() <= bound * scale


def test_cached_relator_row_is_read_only_and_not_shared_by_conjugates():
    phi = _point(4)
    row = phi.long_row
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0, 0] = 1.0
    psi = phi.conjugate(MODEL.random_element(np.random.default_rng(9)))
    assert np.array_equal(psi.long_row, psi.walk(psi.pres.long_relator)[0])
    assert not np.allclose(psi.long_row, row)
    assert psi.cup is not phi.cup


def test_extended_point_outside_regular_domain_is_refused():
    # ad_Lam has eigenvalues 0, +-2 pi i, so dexp(Lam) is singular; Lam is
    # still a logarithm of r(phi) = z^2 = -e
    z = np.diag([1j, -1j])
    phi = RepPoint(PlanarPresentation(0, (4, 4)), MODEL, [z, z])
    with pytest.raises(SingularDexp):
        ExtendedPoint(phi, np.diag([1j * np.pi, -1j * np.pi]))


def test_projective_subspace_contains_coboundaries():
    phi = _point(7)
    Q = block_basis(projective_subspace(phi))
    D0 = delta0(phi)
    resid = np.linalg.norm(D0 - Q @ (Q.T @ D0))
    assert resid < 1e-9


# --- the matrix forms against per-pair references ------------------------------

GROUPS = ["SU2", "U2", "U3", "SL2R"]


def _torsion_element(model, m, rng):
    """A random conjugate of an element with g^m = e: a random class
    representative for the unitary models, a rotation by 2 pi / m for SL(2,R)."""
    if model.kind == "SL2R":
        c, s = np.cos(2 * np.pi / m), np.sin(2 * np.pi / m)
        rep = np.array([[c, -s], [s, c]])
    else:
        classes = finite_order_classes(model, m)
        rep = classes[rng.integers(len(classes))].representative
    g = model.random_element(rng, 0.6)
    return g @ rep @ np.linalg.inv(g)


def _extended_point(model, pres, seed):
    """A random F-natural extended point with generic (non-central) Lam.

    ||ad_Lam|| is kept below 5: the 32-node quadrature of bform_O loses
    digits beyond that (to the nodes for real eigenvalues of ad_Lam, to
    cancellation for large non-normal SL(2,R) Lam), so the oracle, not the
    closed form, would be off."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        gens = [model.random_element(rng, 0.6) for _ in range(2 * pres.genus)]
        gens += [_torsion_element(model, m, rng) for m in pres.torsion]
        try:
            pt = extend_point(RepPoint(pres, model, gens))
        except LogBranchFailure:
            continue
        if np.linalg.norm(model.ad_matrix(pt.Lam), 2) < 5:
            return pt
    raise AssertionError("no extended point found")


def _fox_row(phi, w):
    """d x N row of Ad-evaluated Fox derivatives of w, each term through
    Ad_matrix of its multiplied-out group element."""
    blocks = []
    for i in range(phi.pres.num_generators):
        out = np.zeros((phi.model.d, phi.model.d))
        for term, q in fox_derivative(w, i).terms.items():
            out += float(q) * phi.model.Ad_matrix(phi.value(term))
        blocks.append(out)
    return np.hstack(blocks)


def _cup_reference(phi, cols):
    """Gram of (1/2) sum over filling-chain cells q[g|h] of
    <u(g), Ad_g v(h)> - <v(g), Ad_g u(h)>, one pair (u, v) at a time."""
    G = phi.model.pairing_gram
    cells = [
        (_fox_row(phi, g), phi.model.Ad_matrix(phi.value(g)), _fox_row(phi, h), float(q))
        for (g, h), q in relator_filling_chain(phi.pres).terms.items()
    ]
    k = len(cols)
    ref = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            u, v = cols[i], cols[j]
            total = 0.0
            for Eg, Ad_g, Eh, q in cells:
                ug, vg, uh, vh = Eg @ u, Eg @ v, Eh @ u, Eh @ v
                total += q * (ug @ G @ Ad_g @ vh - vg @ G @ Ad_g @ uh)
            ref[i, j], ref[j, i] = 0.5 * total, -0.5 * total
    return ref


def _close(a, b, rtol=1e-11):
    return np.max(np.abs(a - b), initial=0.0) <= rtol * max(1.0, np.max(np.abs(b), initial=0.0))


presentations = st.sampled_from(
    [(g, t) for g in range(4) for t in ((), (3,), (2, 3)) if (g, t) != (0, ())]
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GROUPS), presentations, st.integers(0, 10**6))
def test_matrix_grams_match_per_pair_reference(group, gt, seed):
    model = get_model(group)
    pres = PlanarPresentation(*gt)
    pt = _extended_point(model, pres, seed)
    k = 4
    rng = np.random.default_rng(seed + 1)
    basis = rng.standard_normal((pt.data.delta1_proj.shape[1], k))  # projective coordinates
    cols = list((block_basis(pt.data.proj_blocks) @ basis).T)
    ref_cup = _cup_reference(pt.phi, cols)
    R = _fox_row(pt.phi, pres.long_relator)
    Dinv = np.linalg.inv(model.dexp_matrix(pt.Lam))
    Vs = [Dinv @ R @ u for u in cols]
    ref_ext = ref_cup.copy()
    for i in range(k):
        for j in range(i + 1, k):
            b = bform_O(model, pt.Lam, Vs[i], Vs[j])
            ref_ext[i, j] -= b
            ref_ext[j, i] += b
    assert _close(gram_on_cocycles(pt.data.cup, basis), ref_cup)
    assert _close(basis.T @ gram_extended(pt) @ basis, ref_ext)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GROUPS),
    st.sampled_from([(g, t) for g in range(4) for t in ((3,), (2, 3))]),
    st.integers(0, 10**6),
)
def test_projective_forms_match_the_dense_basis(group, gt, seed):
    # the Grams and omega in projective coordinates, from the blockwise
    # E_r Q and Q^T C Q, against the same forms on the C^1 columns Q W of
    # the dense basis Q
    model, pres = get_model(group), PlanarPresentation(*gt)
    pt = _extended_point(model, pres, seed)
    Q = block_basis(pt.data.proj_blocks)
    W = np.random.default_rng(seed + 2).standard_normal((Q.shape[1], 4))
    C, K = pt.phi.cup, pt.bform
    T = pt._dexp_inv @ pt.phi.long_row @ Q  # the V of the coordinate tangents
    full = Q.T @ C @ Q - T.T @ K @ T
    cup = (Q @ W).T @ C @ (Q @ W)
    assert _close(gram_on_cocycles(pt.data.cup, W), 0.5 * (cup - cup.T))
    assert _close(gram_extended(pt), 0.5 * (full - full.T))
    t1, t2 = tangent_from_u(pt, W[:, 0]), tangent_from_u(pt, W[:, 1])
    assert _close(t1.V, T @ W[:, 0])
    omega = cup[0, 1] - W[:, 0] @ T.T @ K @ T @ W[:, 1]
    assert _close(np.array(omega_extended(pt, t1, t2)), np.array(omega))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(GROUPS), presentations, st.integers(0, 10**6))
def test_complex_off_the_central_fibre(group, gt, seed):
    # the coboundaries and the cup matrix of the complex need no central
    # relator values, so they match the dense products at any F-natural
    # point; its dims refuse such a point, and cohomology_data refuses it
    # before the blocks are cut
    model, pres = get_model(group), PlanarPresentation(*gt)
    rng = np.random.default_rng(seed)
    gens = [model.random_element(rng, 0.6) for _ in range(2 * pres.genus)]
    gens += [_torsion_element(model, m, rng) for m in pres.torsion]
    phi = RepPoint(pres, model, gens)
    assume(not phi.relators_central())
    data = CochainData(phi)
    Q = block_basis(data.proj_blocks)
    for got, want in ((data.delta0_proj, Q.T @ delta0(phi)),
                      (data.delta1_proj, phi.long_row @ Q),
                      (data.cup, Q.T @ phi.cup @ Q)):
        assert got.shape == want.shape
        assert _close(got, want, rtol=1e-12)
    with pytest.raises(RelatorConstraintViolated):
        data.dims
    cuts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohomology, "projective_subspace", lambda *a: cuts.append(a))
        with pytest.raises(RelatorConstraintViolated):
            cohomology_data(RepPoint(pres, model, gens))
    assert cuts == []


# genus 0-4; genus 0 with three cone points, where the default classes solve
SOLVED = [(g, t) for g in range(5) for t in ((), (3,), (3, 3, 3)) if g or t == (3, 3, 3)]


def _solved_point(group, gt, seed):
    """The extended point of a solution of the CLI's default class tuple
    with target e, or None where the spec is empty or the search fails."""
    model, pres = get_model(group), PlanarPresentation(*gt)
    try:
        spec = SolveSpec(pres, model, _pick_classes(model, pres, (), "e"), seed=seed)
        return extend_point(solve_relator(spec).point)
    except (InfeasibleSpec, NotFound):
        return None


def _identity_residual(pt):
    """|G_ext D0 - T^T P|, relative to max(1, |G_ext||D0| + |T||P|): the
    momentum identity omega(X_M, t) = -<V_t, X> for every X and t at once."""
    G, D0, P = gram_extended(pt), pt.data.delta0_proj, pt.model.pairing_gram
    T = pt._dexp_inv @ pt.data.delta1_proj
    n = np.linalg.norm
    return n(G @ D0 - T.T @ P) / max(1.0, n(G) * n(D0) + n(T) * n(P))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(["U1", *GROUPS]), st.sampled_from(SOLVED), st.integers(0, 10**6),
       st.booleans())
def test_moment_identity_as_one_matrix(group, gt, seed, solved):
    # the identity holds at every extended point, Lam exact: at solved
    # points (Lam near 0, where the report reads it) and at the generic-Lam
    # points of _extended_point, off the central fibre
    if solved:
        assume(group != "SL2R" or not gt[1])  # no SL(2,R) torsion classes
        pt = _solved_point(group, gt, seed)
        assume(pt is not None)
    else:
        pt = _extended_point(get_model(group), PlanarPresentation(*gt), seed)
    assert _identity_residual(pt) <= DEFAULT_TOL.rank_rel


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(["U1", "SU2", "U2", "U3"]), st.sampled_from(SOLVED),
       st.integers(0, 10**6))
def test_degeneracy_report_agrees_with_the_dense_oracle(group, gt, seed):
    # the report derives the cup pairing's kernel on Z^1 from the identity;
    # the oracle measures it by a cocycle basis, the Z^1 Gram's SVD and the
    # principal angles to B^1.  The report confirms B^1 where the oracle
    # does, with the oracle's ranks, and refuses only where it does not
    pt = _solved_point(group, gt, seed)
    assume(pt is not None)
    rank, dim_z1, nullity, angle = z1_kernel(pt.data)
    confirmed = nullity == pt.model.d - pt.data.h0 and angle < 1e-6
    try:
        report = degeneracy_report(pt)
    except ToleranceExceeded:
        assert not confirmed
        return
    assert confirmed
    assert (report["rank_on_Z1"], report["dim_Z1"]) == (rank, dim_z1)
    assert report["identity_residual"] == _identity_residual(pt)


@pytest.mark.parametrize("angle", [1e-12, 1e-10, 1e-8, 1e-6, 0.3, 1.2])
def test_principal_angles_recover_a_known_angle(angle):
    # spans of 3 columns in R^7 at one known angle and two zero ones, in a
    # random orthonormal frame; arccos of the cosine alone reads the small
    # angles as rounding (1e-10 as 0, 1e-6 as 1.00004e-6)
    U = np.linalg.qr(np.random.default_rng(3).standard_normal((7, 7)))[0]
    A = U[:, :3] @ np.diag([2.0, 1.0, 0.5])
    B = U[:, :3].copy()
    B[:, 0] = np.cos(angle) * U[:, 0] + np.sin(angle) * U[:, 3]
    got = np.sort(principal_angles(A, B))
    assert got[:2] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert got[2] == pytest.approx(angle, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["U1", *GROUPS]), presentations, st.integers(0, 10**6))
def test_cup_matrix_is_conjugation_invariant(group, gt, seed):
    # flat(u)^T C(phi) flat(v) = flat(Ad_k u)^T C(k phi k^-1) flat(Ad_k v).
    # SL(2,R) is not compact: products of conjugated generators grow with
    # |k|, and at draws of scale 0.6 the cell sum of tests/oracles.py breaks
    # the identity by up to 1e-7 as the closed form does, so its draws have
    # scale 0.3, where both are well conditioned
    model, pres = get_model(group), PlanarPresentation(*gt)
    rng = np.random.default_rng(seed)
    scale = 0.3 if group == "SL2R" else 1.0
    phi = RepPoint(pres, model, [model.random_element(rng, scale) for _ in pres.generator_names])
    k = model.random_element(rng, scale)
    Ad_k = model.Ad_matrix(k)
    u, v = rng.standard_normal((2, pres.num_generators, model.d))
    C = phi.cup
    lhs = u.ravel() @ C @ v.ravel()
    rhs = (u @ Ad_k.T).ravel() @ phi.conjugate(k).cup @ (v @ Ad_k.T).ravel()
    size = np.linalg.norm(u) * np.linalg.norm(v) * max(1.0, np.abs(C).max())
    assert abs(lhs - rhs) <= 3e-13 * size


def test_star_domain_is_checked_along_the_whole_segment():
    # ad eigenvalues +-3 pi i: t Lam meets 2 pi i at t = 2/3, between the
    # points t = 1/2 and t = 1 that a sampled check would look at, while
    # dexp(Lam) itself is invertible.  Lam is a logarithm of r(phi) = z, off
    # the principal sheet: its margin is -pi/2
    Lam = np.diag([1.5j * np.pi, -1.5j * np.pi])
    z = np.diag([-1j, 1j])
    phi = RepPoint(PlanarPresentation(0, (4,)), MODEL, [z])
    assert np.linalg.norm(MODEL.exp(Lam) - phi.long_relator_value) < 1e-15
    assert np.linalg.svd(MODEL.dexp_matrix(Lam), compute_uv=False)[-1] > 0.2
    with pytest.raises(SingularDexp):
        ExtendedPoint(phi, Lam)


@pytest.mark.parametrize("group", GROUPS)
def test_extended_point_reads_dexp_and_bform_off_one_phi_call(monkeypatch, group):
    # a random point of genus 2: r(phi) is not central, so ad_Lam != 0
    model = get_model(group)
    rng = np.random.default_rng(7)
    phi = RepPoint(PlanarPresentation(2, ()), model,
                   [model.random_element(rng, 0.3) for _ in range(4)])
    calls = []
    phi_functions = liegroup.phi_functions
    monkeypatch.setattr(liegroup, "phi_functions", lambda A: calls.append(A) or phi_functions(A))
    pt = extend_point(phi)
    assert len(calls) == 1
    monkeypatch.undo()
    # bit for bit the single-purpose forms
    assert np.array_equal(pt._dexp_inv, np.linalg.inv(model.dexp_matrix(pt.Lam)))
    assert np.array_equal(pt.bform, bform_matrix(model, pt.Lam))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GROUPS), st.integers(0, 10**6), st.floats(0.1, 1.5))
def test_closed_form_bform_matches_quadrature(group, seed, scale):
    model = get_model(group)
    rng = np.random.default_rng(seed)
    Lam = model.random_alg(rng, scale)
    # a central Lam has ad_Lam = 0 and B = 0, which would prove nothing;
    # B is defined on the principal sheet, where the margin is positive
    assume(np.linalg.norm(model.ad_matrix(Lam)) > 0.05)
    assume(spectral_margin(np.linalg.eigvals(Lam)) >= DEFAULT_TOL.tau_grp)
    K = bform_matrix(model, Lam)
    V, W = rng.standard_normal(model.d), rng.standard_normal(model.d)
    quad = bform_O(model, Lam, V, W)
    assert abs(V @ K @ W - quad) <= 1e-12 * max(1.0, np.linalg.norm(V) * np.linalg.norm(W))
