import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from planarep.cohomology import (
    RepPoint,
    cocycle_extend,
    cohomology_data,
    delta0,
    delta1_projective,
    euler_characteristic_expected,
    product_scan,
    projective_subspace,
    random_fnat_point,
    tree_product,
)
from planarep.components import finite_order_classes
from planarep.errors import InfeasibleSpec, NotFound, RelatorConstraintViolated
from planarep.liegroup import get_model
from planarep.presentations import PlanarPresentation
from planarep.solver import SolveSpec, solve_relator
from planarep.symplectic import (
    check_moment_identity,
    degeneracy_report,
    extend_point,
    tangent_from_u,
)

from oracles import block_basis, cocycles, delta1_free, harmonic, torsion_fixed_dims


def _det_one_class(model, m):
    """First nontrivial class whose representative has determinant 1."""
    for cls in finite_order_classes(model, m)[1:]:
        if abs(np.linalg.det(cls.representative) - 1.0) < 1e-9:
            return cls
    return finite_order_classes(model, m)[0]


def _central_point(pres, model, seed):
    """Solver-produced point with central long-relator value."""
    classes = [_det_one_class(model, m) for m in pres.torsion]
    return solve_relator(SolveSpec(pres, model, classes, seed=seed, tol=1e-12)).point


def test_delta1_delta0_vanishes_at_central_points():
    # complex property delta1 . delta0 = 0 when r(phi) is central
    for name in ("SU2", "U2"):
        model = get_model(name)
        for seed in range(5):
            pt = _central_point(PlanarPresentation(1, (3,)), model, seed)
            res = np.linalg.norm(delta1_free(pt)[: model.d] @ delta0(pt))
            assert res < 1e-10


def test_cocycle_extension_matches_fox_rows():
    from planarep.foxcalc import fox_derivative

    model = get_model("SU2")
    pres = PlanarPresentation(1, (4,))
    rng = np.random.default_rng(2)
    pt = random_fnat_point(pres, model, rng)
    u = [rng.standard_normal(model.d) for _ in range(pres.num_generators)]
    r = pres.long_relator
    via_rows = sum(
        pt.ring_matrix(fox_derivative(r, i)) @ u[i]
        for i in range(pres.num_generators)
    )
    assert np.linalg.norm(cocycle_extend(pt, u, r) - via_rows) < 1e-12


def test_cocycle_rule_on_products():
    model = get_model("U2")
    pres = PlanarPresentation(2, ())
    rng = np.random.default_rng(4)
    pt = random_fnat_point(pres, model, rng)
    u = [rng.standard_normal(model.d) for _ in range(4)]
    g, h = (1, 2), (-3, 4)
    lhs = cocycle_extend(pt, u, g + h)
    rhs = cocycle_extend(pt, u, g) + pt.ad_value(g) @ cocycle_extend(pt, u, h)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_u1_closed_form():
    model = get_model("U1")
    for genus in range(1, 6):
        for torsion in ((), (2,), (3, 4)):
            pres = PlanarPresentation(genus, torsion)
            rng = np.random.default_rng(genus)
            pt = random_fnat_point(pres, model, rng)
            data = cohomology_data(pt)
            assert data.dims == (1, 2 * genus, 1)


@pytest.mark.parametrize("name", ["U1", "SU2", "SL2R", "U2", "U3"])
def test_point_stores_one_stack_in_the_model_dtype(name):
    # a list of matrices is stored as one (#generators, n, n) stack in the
    # model's dtype, and conjugation, one stacked product, equals the
    # per-generator product bit for bit
    model, pres = get_model(name), PlanarPresentation(1, (3,))
    rng = np.random.default_rng(5)
    gens = [model.random_element(rng) for _ in range(pres.num_generators)]
    pt = RepPoint(pres, model, gens)
    assert pt.gens.shape == (pres.num_generators, model.n, model.n)
    assert pt.gens.dtype == model.identity.dtype
    g = model.random_element(rng)
    ginv = model.inverse(g)
    assert all(np.array_equal(c, g @ h @ ginv) for c, h in zip(pt.conjugate(g).gens, gens))
    assert RepPoint(PlanarPresentation(0, ()), model, []).gens.shape == (0, model.n, model.n)


def test_su2_trivial_rep_genus2():
    model = get_model("SU2")
    pres = PlanarPresentation(2, ())
    pt = RepPoint(pres, model, [model.identity.copy() for _ in range(4)])
    data = cohomology_data(pt)
    assert data.dims == (3, 12, 3)


def test_euler_and_duality_random_points():
    cases = [
        ("U1", PlanarPresentation(1, (2, 3))),
        ("SU2", PlanarPresentation(1, (3,))),
        ("SU2", PlanarPresentation(0, (3, 3, 3))),
        ("U2", PlanarPresentation(1, (4,))),
    ]
    for name, pres in cases:
        model = get_model(name)
        for seed in range(5):
            if name == "U1":
                pt = random_fnat_point(pres, model, np.random.default_rng(seed))
            else:
                pt = _central_point(pres, model, seed)
            data = cohomology_data(pt)
            assert data.h0 == data.h2
            expected = euler_characteristic_expected(pt, data.f_j)
            assert data.h0 - data.h1 + data.h2 == expected


def test_conjugation_invariance():
    model = get_model("SU2")
    pres = PlanarPresentation(1, (3,))
    pt = _central_point(pres, model, 0)
    data = cohomology_data(pt)
    g = model.random_element(np.random.default_rng(5))
    data_c = cohomology_data(pt.conjugate(g))
    assert data.dims == data_c.dims
    assert data.f_j == data_c.f_j


def test_noncentral_relator_rejected():
    model = get_model("SU2")
    pres = PlanarPresentation(1, (3,))
    rng = np.random.default_rng(8)
    pt = random_fnat_point(pres, model, rng)
    assert not pt.relators_central()
    with pytest.raises(RelatorConstraintViolated):
        cohomology_data(pt)


def test_twisted_su2_point():
    # genus 2, target -e: projective representation point
    model = get_model("SU2")
    pres = PlanarPresentation(2, ())
    res = solve_relator(SolveSpec(pres, model, [], minus=True, seed=3))
    data = cohomology_data(res.point)
    assert data.h0 == data.h2
    expected = euler_characteristic_expected(res.point, data.f_j)
    assert data.h0 - data.h1 + data.h2 == expected
    # irreducible points of the twisted component have trivial stabilizer
    assert data.dims == (0, 6, 0)


def test_walk_blocks_equal_ring_matrix_bitwise():
    # the walk adds the prefix Ad's in ring_matrix's order, so the Fox blocks
    # agree exactly, not just to rounding
    from planarep.foxcalc import fox_derivative

    rng = np.random.default_rng(5)
    for name in ("SU2", "U3", "SL2R"):
        model = get_model(name)
        pres = PlanarPresentation(2, (3, 4))
        gens = [model.random_element(rng) for _ in range(pres.num_generators)]
        pt = RepPoint(pres, model, gens)
        words = [pres.long_relator, *pres.torsion_relators, (1, -3, -3, 2, 5)]
        for w in words:
            E, A = pt.walk(w)
            for i in range(pres.num_generators):
                ref = pt.ring_matrix(fox_derivative(w, i))
                assert np.array_equal(E[:, i * model.d : (i + 1) * model.d], ref)
            assert np.array_equal(A, pt.ad_value(w))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["SU2", "U1", "U2", "U3"]),
    st.integers(0, 3),
    st.sampled_from([(), (3,), (2, 3)]),
    st.integers(0, 10**6),
)
def test_bases_built_on_first_read_match_the_dims(group, genus, torsion, seed):
    model = get_model(group)
    assume((genus, torsion) != (0, ()))
    pres = PlanarPresentation(genus, torsion)
    if group == "U1":
        pt = random_fnat_point(pres, model, np.random.default_rng(seed))
    elif genus == 0:
        # no nontrivial class tuple of one or two cone points solves here (the
        # solver certifies that or spends seconds on restarts): take the
        # trivial representation, whose projective complex is empty
        pt = RepPoint(pres, model, [model.identity.copy()] * pres.num_generators)
    else:
        try:
            pt = _central_point(pres, model, seed)
        except (InfeasibleSpec, NotFound):
            assume(False)
    data = cohomology_data(pt)
    Z, H = cocycles(data), harmonic(data)
    assert Z.shape[1] == data.h1 + model.d - data.h0
    assert H.shape[1] == data.h1
    for D, basis in ((data.delta1_proj, Z), (data.delta0_proj.T, H)):
        assert np.linalg.norm(D @ basis) <= 1e-12 * max(1.0, np.linalg.norm(D))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(["U1", "SU2", "U2", "U3"]),
    st.lists(st.tuples(st.integers(2, 7), st.integers(0, 10**6)), min_size=1, max_size=2),
    st.integers(0, 10**6),
)
def test_fixed_dims_are_read_off_the_projective_blocks(group, draws, seed):
    # genus 1 with torsion (m1, m1, m2, m2): x random, y = x^2 and each pair
    # z, z^-1 of a class drawn per order under a random conjugator, so that
    # the long relator [x, y] z1 z1^-1 z2 z2^-1 is e
    model = get_model(group)
    rng = np.random.default_rng(seed)
    pres = PlanarPresentation(1, tuple(m for m, _ in draws for _ in (0, 1)))
    x = model.random_element(rng)
    gens = [x, x @ x]
    for m, pick in draws:
        classes = finite_order_classes(model, m)
        k = model.random_element(rng)
        z = k @ classes[pick % len(classes)].representative @ model.inverse(k)
        gens += [z, model.inverse(z)]
    pt = RepPoint(pres, model, gens)
    data = cohomology_data(pt)
    blocks = projective_subspace(pt)[2:]
    assert data.f_j == torsion_fixed_dims(pt)
    assert data.f_j == [model.d - B.shape[1] for B in blocks]
    euler = data.h0 - data.h1 + data.h2
    assert euler == euler_characteristic_expected(pt, data.f_j)


# Worst relative differences max|long_row - walk| / max(1, max|walk|), and
# the same for long_relator_value against value, measured over about 56,000
# draws of this distribution, uniform and biased to its corner (genus 16,
# scale 1): E_r 2.2e-15 and r(phi) 2.3e-15 on the unitary models; E_r
# 1.6e-7 and r(phi) 2.4e-12 on SL(2,R), both at the corner.  SL(2,R) rows
# reach entries of 1e8 there, and at the point of that worst E_r the walk
# itself is off by 1.8e-7 from an extended-precision walk, the per-handle
# row by 1.9e-7.
ROW_BOUND = {"SL2R": 1e-6}
VALUE_BOUND = {"SL2R": 1e-11}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["U1", "SU2", "U2", "U3", "SL2R"]),
    st.integers(0, 16),
    st.sampled_from([(), (3,), (2, 3, 7)]),
    st.floats(0.3, 1.0),
    st.integers(0, 10**6),
)
def test_per_handle_row_and_value_match_the_walk(group, genus, torsion, scale, seed):
    assume((genus, torsion) != (0, ()))
    model, pres = get_model(group), PlanarPresentation(genus, torsion)
    rng = np.random.default_rng(seed)
    gens = [model.random_element(rng, scale) for _ in range(pres.num_generators)]
    pt = RepPoint(pres, model, gens)
    E, r = pt.walk(pres.long_relator)[0], pt.value(pres.long_relator)
    for got, want, bound in ((pt.long_row, E, ROW_BOUND), (pt.long_relator_value, r, VALUE_BOUND)):
        assert got.shape == want.shape
        err = np.abs(got - want).max() / max(1.0, np.abs(want).max())
        assert err <= bound.get(group, 1e-14)
    if genus == 0:  # no handle: the same products as the walk, in its order
        assert np.array_equal(pt.long_row, E)
        assert np.array_equal(pt.long_relator_value, r)


def _sequential(M, identity):
    """Prefix products M_0 .. M_{i-1} and the total, left to right."""
    out, P = [], identity
    for A in M:
        out.append(P)
        P = P @ A
    return out, P


def test_product_scan_is_exact_on_signed_permutations():
    # signed permutation matrices do not commute, and every product of them
    # is exact, so any slip in the order or pairing of the scan shows bit for bit
    rng = np.random.default_rng(19)
    for k in range(71):
        perms = np.array([np.eye(3)[rng.permutation(3)] for _ in range(k)]).reshape(k, 3, 3)
        M = perms * rng.choice([-1.0, 1.0], size=(k, 1, 3))
        P = product_scan(M)
        want, want_total = _sequential(M, np.eye(3))
        assert P.shape == M.shape and P.dtype == np.float64
        assert all(np.array_equal(a, b) for a, b in zip(P, want))
        assert np.array_equal(tree_product(M), want_total)


def test_empty_product_is_a_fresh_identity():
    # the presentation without generators has the empty long relator
    model = get_model("SU2")
    r = RepPoint(PlanarPresentation(0, ()), model, []).long_relator_value
    assert np.array_equal(r, model.identity) and r.dtype == model.identity.dtype
    assert not np.shares_memory(r, model.identity)
    assert product_scan(np.empty((0, 3, 3))).shape == (0, 3, 3)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["SU2", "U3", "SL2R"]),
    st.integers(0, 70),
    st.floats(0.3, 1.0),
    st.integers(0, 10**6),
)
def test_product_scan_matches_the_sequential_product(group, k, scale, seed):
    # group elements round, so the tree and the sequential order agree to the
    # bounds of test_per_handle_row_and_value_match_the_walk on r(phi)
    model, rng = get_model(group), np.random.default_rng(seed)
    M = np.array([model.random_element(rng, scale) for _ in range(k)])
    M = M.reshape(k, *model.identity.shape)
    want, want_total = _sequential(M, model.identity)
    for got, ref in (*zip(product_scan(M), want), (tree_product(M), want_total)):
        err = np.abs(got - ref).max() / max(1.0, np.abs(ref).max())
        assert err <= VALUE_BOUND.get(group, 1e-14)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["U1", "SU2", "U2", "U3", "SL2R"]),
    st.integers(0, 16),
    st.sampled_from([(), (3,), (2, 3, 7)]),
    st.integers(0, 10**6),
)
def test_delta1_projective_is_the_row_times_the_basis(group, genus, torsion, seed):
    # a free generator's block is I_d, whose 0/1 entries add only exact zeros:
    # delta1_projective is the per-block product E_i B_i bit for bit, and its
    # free columns are those of the dense E_r Q.  A torsion column is a sum of
    # d products, which BLAS rounds by another order in the dense product
    # than in the d x d one (measured over 1500 points, six per model, genus
    # and torsion here: 348 differ, by at most 2.7e-16 relative to
    # max(1, max|E_r|))
    assume((genus, torsion) != (0, ()))
    model, pres = get_model(group), PlanarPresentation(genus, torsion)
    rng = np.random.default_rng(seed)
    if group == "SL2R":  # no finite-order classes: any orthonormal torsion blocks
        gens = [model.random_element(rng) for _ in range(pres.num_generators)]
        pt = RepPoint(pres, model, gens)
        widths = rng.integers(0, model.d + 1, size=len(torsion))
        blocks = [np.eye(model.d)] * (2 * genus) + [
            np.linalg.qr(rng.standard_normal((model.d, k)))[0] for k in widths
        ]
    else:
        pt = random_fnat_point(pres, model, rng)
        blocks = projective_subspace(pt)
    d, f, E = model.d, 2 * genus, pt.long_row
    got, dense = delta1_projective(pt, blocks), E @ block_basis(blocks)
    per_block = [E[:, i * d : (i + 1) * d] @ B for i, B in enumerate(blocks)]
    assert np.array_equal(got, np.hstack(per_block))
    assert np.array_equal(got[:, : f * d], dense[:, : f * d])
    assert np.abs(got - dense).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(E).max())


@pytest.mark.parametrize("group, genus, torsion, classes", [
    ("SU2", 16, (3, 5), (1, 2)), ("U3", 8, (3,), (4,)),
])
def test_solve_and_cohomology_never_walk_the_long_relator(
    monkeypatch, group, genus, torsion, classes
):
    # solve, cohomology, the degeneracy report (cup matrix included) and the
    # momentum identity read the long relator per handle, never letter by
    # letter: no walk along it or along a prefix of it longer than one letter
    walk, value = RepPoint.walk, RepPoint.value

    def refusing(walker):
        def refuse(point, w):
            if len(w) > 1 and point.pres.long_relator[: len(w)] == w:
                raise AssertionError("a letter-by-letter walk along the long relator")
            return walker(point, w)

        return refuse

    monkeypatch.setattr(RepPoint, "walk", refusing(walk))
    monkeypatch.setattr(RepPoint, "value", refusing(value))
    model, pres = get_model(group), PlanarPresentation(genus, torsion)
    spec = SolveSpec(pres, model,
                     [finite_order_classes(model, m)[i] for m, i in zip(torsion, classes)])
    point = solve_relator(spec).point
    data = cohomology_data(point)
    assert data.h0 == data.h2
    pt = extend_point(point)
    assert degeneracy_report(pt)["nondegenerate"]
    X = model.random_alg(np.random.default_rng(0))
    assert check_moment_identity(pt, X, tangent_from_u(pt, cocycles(data)[:, 0])) < 1e-6
