import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import expm

from planarep.cohomology import RepPoint
from planarep.config import DEFAULT_TOL
from planarep.errors import LogBranchFailure, SingularDexp, UnsupportedModel
from planarep.liegroup import get_model, phi_functions, spectral_margin
from planarep.presentations import PlanarPresentation
from planarep.symplectic import ExtendedPoint

from oracles import alg_residual, grp_residual

MODELS = ["SU2", "U1", "U2", "U3", "SL2R"]


@pytest.fixture(params=MODELS)
def model(request):
    return get_model(request.param)


def test_unknown_model():
    with pytest.raises(UnsupportedModel):
        get_model("SO3")


def test_name_normalization():
    assert get_model("su(2)") is get_model("SU2")
    assert get_model("u(2)") is get_model("U2")


def test_basis_is_reference_orthonormal(model):
    d = model.d
    G = np.zeros((d, d))
    for i, A in enumerate(model.basis):
        for j, B in enumerate(model.basis):
            G[i, j] = np.trace(A.conj().T @ B).real
    assert np.allclose(G, np.eye(d), atol=1e-12)


def test_basis_lies_in_algebra(model):
    for B in model.basis:
        assert alg_residual(model, B) < 1e-12


def test_vec_unvec_round_trip(model):
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(model.d)
        assert np.allclose(model.vec(model.unvec(v)), v, atol=1e-12)


def test_pairing_gram_signature(model):
    evals = np.linalg.eigvalsh(model.pairing_gram)
    if model.kind == "SL2R":
        assert np.sum(evals > 0) == 2 and np.sum(evals < 0) == 1
    else:
        assert np.all(evals > 0)


def test_pairing_ad_invariance(model):
    # <Ad_g X, Ad_g Y> = <X, Y> for the biinvariant pairing
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = model.random_element(rng, 0.7)
        X, Y = model.random_alg(rng), model.random_alg(rng)
        ginv = np.linalg.inv(g)
        lhs = model.pairing(g @ X @ ginv, g @ Y @ ginv)
        assert abs(lhs - model.pairing(X, Y)) < 1e-10


def test_exp_is_group_element(model):
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = model.random_element(rng)
        assert grp_residual(model, g) < 1e-10


def test_log_round_trip(model):
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = model.random_alg(rng, 0.5)
        g = model.exp(X)
        _log_checked(model, g)


def test_log_branch_failure():
    # -e is central, like e, but lies on the branch cut of the logarithm
    m = get_model("SU2")
    assert m.is_central(m.identity)
    assert m.is_central(-m.identity)
    assert not m.is_central(m.exp(m.basis[1]))
    with pytest.raises(LogBranchFailure):
        m.log_principal(-np.eye(2, dtype=complex))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 10**6), st.floats(-9, 1))
def test_exp_matches_expm(name, seed, log_scale):
    # the closed forms against scipy's Pade exponential.  Against a 50-digit
    # reference the closed form is within 2e-15 on SL2R at scale 10, where
    # expm is off by up to 2e-12: its error grows with |X| on the split
    # (hyperbolic) elements, so the SL2R bound does too
    model = get_model(name)
    X = model.unvec(10.0**log_scale * np.random.default_rng(seed).standard_normal(model.d))
    ref = expm(X)
    gap = np.abs(model.exp(X) - ref).max() / max(1.0, np.linalg.norm(ref))
    bound = 1e-13 * (1.0 + np.linalg.norm(X)) ** 2 if model.kind == "SL2R" else 1e-13
    assert gap <= bound
    assert model.exp(X).dtype == (float if model.kind == "SL2R" else complex)


def _log_checked(model, g):
    """log_principal under warnings-as-errors, with exp(log g) = g checked."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W = model.log_principal(g)
    assert np.linalg.norm(model.exp(W) - g) < 1e-12 * max(1.0, np.linalg.norm(g))
    assert alg_residual(model, W) < 1e-12
    return W


@pytest.mark.parametrize("angles", [(0, 0, 0), (2, 2, 2), (1, 1, -2), (1, -1, 0), (0.5, 0.5, 2)])
def test_log_u3_repeated_eigenvalues(angles):
    # e, the central e^{2 pi i/3} and classes with a repeated eigenvalue,
    # conjugated off the diagonal: eig has no well-conditioned eigenbasis here
    model = get_model("U3")
    rng = np.random.default_rng(23)
    k = model.random_element(rng)
    theta = np.pi / 3 * np.array(angles)
    g = k @ np.diag(np.exp(1j * theta)) @ k.conj().T
    W = _log_checked(model, g)
    assert np.allclose(np.sort(np.linalg.eigvals(W).imag), np.sort(theta), atol=1e-12)


@pytest.mark.parametrize("s", [0.0, 1e-9, 1.0])
def test_log_sl2r_parabolic(s):
    # [[1, s], [0, 1]] has one eigenvalue and, for s != 0, no eigenbasis
    model = get_model("SL2R")
    W = _log_checked(model, np.array([[1.0, s], [0.0, 1.0]]))
    assert np.array_equal(W, np.array([[0.0, s], [0.0, 0.0]]))


@pytest.mark.parametrize("name, g", [
    ("SU2", -np.eye(2, dtype=complex)),
    ("U2", -np.eye(2, dtype=complex)),
    ("U3", -np.eye(3, dtype=complex)),
    ("U1", -np.eye(1, dtype=complex)),
    ("SL2R", -np.eye(2)),
    ("SL2R", np.array([[-2.0, 0.0], [0.0, -0.5]])),
    ("SL2R", np.array([[-1.0, 1.0], [0.0, -1.0]])),
])
def test_log_refuses_branch_cut(name, g):
    # -e and negative-trace SL2R elements have no principal logarithm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LogBranchFailure):
            get_model(name).log_principal(g)


def test_Ad_exp_equals_expm_ad(model):
    rng = np.random.default_rng(13)
    for _ in range(5):
        X = model.random_alg(rng, 0.6)
        lhs = model.Ad_matrix(model.exp(X))
        rhs = expm(model.ad_matrix(X))
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_ad_antisymmetric_for_pairing(model):
    # <[Z,X], Y> + <X, [Z,Y]> = 0
    rng = np.random.default_rng(15)
    Z, X, Y = (model.random_alg(rng) for _ in range(3))
    lhs = model.pairing(Z @ X - X @ Z, Y) + model.pairing(X, Z @ Y - Y @ Z)
    assert abs(lhs) < 1e-10


def test_dexp_matches_finite_difference(model):
    rng = np.random.default_rng(17)
    X = model.random_alg(rng, 0.4)
    V = model.random_alg(rng)
    D = model.dexp_matrix(X)
    h = 1e-6
    fd = (model.exp(X + h * V) - model.exp(X - h * V)) / (2 * h)
    # right-translated derivative: dexp(V) = fd * exp(-X)
    lhs = model.unvec(D @ model.vec(V))
    rhs = fd @ np.linalg.inv(model.exp(X))
    assert np.linalg.norm(lhs - model.project_alg(rhs)) < 1e-6


def test_dexp_inv_round_trip(model):
    rng = np.random.default_rng(19)
    X = model.random_alg(rng, 0.4)
    D = model.dexp_matrix(X)
    # an extended point inverts phi1 of phi_ad's first slice; each slice of
    # the stack is the call on it alone, bit for bit
    phi1, phi2 = model.phi_ad(X)
    A = model.ad_matrix(X)
    for k, sign in enumerate((1, -1)):
        one = phi_functions(sign * A)
        assert np.array_equal(phi1[k], one[0]) and np.array_equal(phi2[k], one[1])
    assert np.array_equal(phi1[0], D)
    Dinv = np.linalg.inv(phi1[0])
    assert np.linalg.norm(D @ Dinv - np.eye(model.d)) < 1e-10


def test_phi_functions_to_a_few_ulps_at_a_hyperbolic_sl2r_element():
    # ad_Lam has eigenvalues 0 and +-8.02 and eigenvectors of condition 1.8,
    # so the eigendecomposition gives phi1 and phi2 to a few ulps; scipy's
    # expm of the block matrix [[A, I], [0, 0]] is off by 1e-12 relative here
    m = get_model("SL2R")
    Lam = m.random_alg(np.random.default_rng(31200), 1.5)
    A = m.ad_matrix(Lam)
    w, P = np.linalg.eig(A)
    assert np.isrealobj(w) and np.abs(w).max() > 8 and np.linalg.cond(P) < 2
    small = np.abs(w) < 1e-3
    ws = np.where(small, 1.0, w)
    f1 = np.where(small, 1 + w / 2, np.expm1(ws) / ws)
    f2 = np.where(small, 0.5 + w / 6, (np.expm1(ws) - ws) / ws**2)
    phi1, phi2 = phi_functions(A)
    for got, f in ((phi1, f1), (phi2, f2)):
        ref = (P * f) @ np.linalg.inv(P)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(m.dexp_matrix(Lam), phi1)


def test_regular_domain_boundary_su2():
    m = get_model("SU2")
    X = m.basis[0]  # ad eigenvalues proportional to the coefficient
    # scale so that ad eigenvalue hits 2 pi i: rotation by 2 pi
    lam = max(np.abs(np.linalg.eigvals(m.ad_matrix(X)).imag))
    bad = (2 * np.pi / lam) * X
    # the margin is 0 up to the rounding of lam, and dexp is singular there
    assert abs(spectral_margin(np.linalg.eigvals(bad))) < 1e-15
    assert np.linalg.svd(m.dexp_matrix(bad), compute_uv=False)[-1] < 1e-15
    assert spectral_margin(np.linalg.eigvals(0.5 * bad)) == pytest.approx(np.pi / 2)
    with pytest.raises(LogBranchFailure):
        m.log_principal(m.exp(bad))
    # exp(bad) = -e = z^2 for z = diag(i, -i): bad is refused as an extension
    z = np.diag([1j, -1j])
    phi = RepPoint(PlanarPresentation(0, (4, 4)), m, [z, z])
    with pytest.raises(SingularDexp):
        ExtendedPoint(phi, bad)


def _in_regular_domain(model, X):
    """No ad_X eigenvalue within 1e-9 of 2 pi i Z \\ {0}: the regular-domain
    test that the spectral margin replaced, kept as an oracle."""
    for lam in np.linalg.eigvals(model.ad_matrix(X)):
        k = round(lam.imag / (2 * np.pi))
        if k != 0 and abs(lam - 2j * np.pi * k) < 1e-9:
            return False
    return True


def _in_star_domain(model, X):
    """No t ad_X, t in (0, 1], with an eigenvalue in 2 pi i Z \\ {0}: the
    star-domain test that the spectral margin replaced, kept as an oracle."""
    ev = np.linalg.eigvals(model.ad_matrix(X))
    return not np.any((np.abs(ev.real) <= 1e-9) & (np.abs(ev.imag) >= 2 * np.pi - 1e-9))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(MODELS), st.integers(0, 10**6), st.floats(-3, np.log10(5)))
def test_margin_implies_the_domain_checks(name, seed, log_scale):
    # a logarithm the log accepts has margin m = pi - max |arg lambda(g)| >= tau,
    # so |theta_a - theta_b| <= 2 pi - 2 m on the spectrum of ad_Lam; for the
    # unitary models ad_Lam is normal and its dexp singular values are
    # |sin(x/2) / (x/2)| at those differences x, so cond <= (pi - m) / sin m
    model = get_model(name)
    g = model.random_element(np.random.default_rng(seed), 10.0**log_scale)
    try:
        Lam = model.log_principal(g, DEFAULT_TOL.tau_grp)
    except LogBranchFailure:
        return
    m = spectral_margin(np.linalg.eigvals(Lam))
    assert abs(m - (np.pi - np.max(np.abs(np.angle(np.linalg.eigvals(g)))))) <= 1e-9
    assert _in_regular_domain(model, Lam)
    assert _in_star_domain(model, Lam)
    if model.kind != "SL2R" and m < np.pi / 2:
        assert np.linalg.cond(model.dexp_matrix(Lam)) <= (1 + 1e-9) * (np.pi - m) / np.sin(m)


# --- stacked kernels against per-element references -------------------------
#
# vec, unvec, exp, cayley, ad_matrix and Ad_matrix take stacks.  The
# references below work one element and one basis vector at a time (exp and
# cayley: the call on one matrix, which test_exp_matches_expm and the cayley
# tests check); every slice of a stacked result must equal them bit for bit
# and share their memory layout, because the products downstream round
# according to both.


def _ref_vec(model, X):
    # Re tr(B^H X) = <Re B, Re X> + <Im B, Im X>: the map is rebuilt here
    # from the basis, and applied as one row-times-matrix product
    x = np.concatenate([X.real.ravel(), X.imag.ravel()])
    M = np.column_stack([np.concatenate([B.real.ravel(), B.imag.ravel()])
                         for B in model.basis])
    return (x[None, :] @ M)[0]


def _ref_unvec(model, v):
    return np.tensordot(np.asarray(v, dtype=float), model.basis, axes=(0, 0))


def _ref_ad(model, X):
    return np.array([_ref_vec(model, X @ B - B @ X) for B in model.basis]).T


def _ref_inv(model, g):
    # the closed-form inverse: g^H, or the adjugate for SL(2,R)
    if model.kind == "SL2R":
        return np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
    return g.conj().T


def _ref_Ad(model, g):
    # Ad_g[b, a] = Re sum conj(B_b)_ij (B_a)_kl g_ik h_lj with h = g^-1: the
    # form is rebuilt here one basis pair at a time, and applied to the
    # entries of g (x) h (real and imaginary parts) as one row-times-matrix
    # product; its columns run over (a, b), so the result is column-major.
    # numpy's complex product rounds according to the loop its operand
    # strides select, so g (x) h is broadcast as Ad_matrix broadcasts it
    n, d, basis = model.n, model.d, model.basis
    T = np.empty((n**4, d * d), dtype=basis.dtype)
    for a in range(d):
        for b in range(d):
            T[:, a * d + b] = np.multiply.outer(basis[b].conj(), basis[a]) \
                .transpose(0, 2, 3, 1).ravel()
    w = (g[:, :, None, None] * _ref_inv(model, g)[None, None, :, :]).ravel()
    if model.kind != "SL2R":
        w, T = np.concatenate([w.real, w.imag]), np.concatenate([T.real, -T.imag])
    return (w.real[None, :] @ T).reshape(d, d).T


def _assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert (a.flags.c_contiguous, a.flags.f_contiguous) == \
        (b.flags.c_contiguous, b.flags.f_contiguous)


stacks = st.tuples(st.sampled_from(["SU2", "U1", "U2", "U3", "SL2R"]),
                   st.integers(0, 10**6), st.integers(1, 6),
                   st.sampled_from([0.1, 1.0, 3.0]))


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_stacked_unvec_and_exp_bitwise(case):
    name, seed, k, scale = case
    model = get_model(name)
    rng = np.random.default_rng(seed)
    V = scale * rng.standard_normal((k, model.d))
    X = model.unvec(V)
    G = model.exp(X)
    for i in range(k):
        _assert_same(X[i], _ref_unvec(model, V[i]))
        _assert_same(model.unvec(V[i]), _ref_unvec(model, V[i]))
        _assert_same(G[i], model.exp(X[i]))
    # strided rows, as the solver Jacobian passes the columns of a block
    A = rng.standard_normal((model.d, model.d))
    XA = model.unvec(A.T)
    for b in range(model.d):
        _assert_same(XA[b], _ref_unvec(model, A[:, b]))


@settings(max_examples=100, deadline=None)
@given(stacks, st.sampled_from([1e-12, 1e-8, 1e-4]))
def test_stacked_is_central_matches_one_element_at_a_time(case, tol):
    # central elements (roots of unity times e), the same moved by about
    # tol, and generic elements, stacked: each boolean is the one-element
    # test's, gap <= tol max(1, |g|)
    name, seed, k, scale = case
    model = get_model(name)
    rng = np.random.default_rng(seed)
    G = model.exp(model.unvec(scale * rng.standard_normal((3 * k, model.d))))
    G[:k] = model.identity * np.exp(2j * np.pi * rng.integers(0, 6, k) / 6)[:, None, None] \
        if model.kind != "SL2R" else model.identity * rng.choice([-1.0, 1.0], k)[:, None, None]
    G[k : 2 * k] = G[:k] + tol * model.unvec(rng.standard_normal((k, model.d)))
    got = model.is_central(G, tol)
    assert got.shape == (3 * k,) and got.dtype == bool
    for g, b in zip(G, got):
        gap = np.linalg.norm(g @ model.basis - model.basis @ g, axis=(-2, -1)).max()
        assert b == (gap <= tol * max(1.0, np.linalg.norm(g)))
        assert model.is_central(g, tol) is bool(b)
    assert got[:k].all()


@settings(max_examples=100, deadline=None)
@given(stacks)
def test_cayley_is_a_retraction_into_the_group(case):
    # cay(X) = (I - X/2)^-1 (I + X/2): in G (unitary, or det 1 for the
    # traceless 2 x 2 models), inverse to cay(-X), and each slice of a stack
    # bitwise the call on it alone, to 1e-14 relative to max(1, |g|^2)
    name, seed, k, scale = case
    model = get_model(name)
    rng = np.random.default_rng(seed)
    X = model.unvec(scale * rng.standard_normal((k, model.d)))
    C, Cinv = model.cayley(X), model.cayley(-X)
    assert C.dtype == (float if model.kind == "SL2R" else complex)
    eye = model.identity
    for i in range(k):
        _assert_same(C[i], model.cayley(X[i]))
        g = C[i]
        size = max(1.0, np.linalg.norm(g) ** 2)
        if model.kind != "SL2R":
            assert np.abs(g.conj().T @ g - eye).max() <= 1e-14
        if model.n == 2 and model.kind != "U":
            assert abs(np.linalg.det(g) - 1.0) <= 1e-14 * size
        assert np.abs(g @ Cinv[i] - eye).max() <= 1e-14 * size


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 10**6), st.floats(-4, -1))
def test_cayley_agrees_with_exp_to_third_order(name, seed, log_scale):
    # cay(X) = I + sum_k X^k / 2^(k-1) and exp X = I + sum_k X^k / k! agree
    # through X^2, so |cay X - exp X| <= sum_{k>=3} |X|^k / 2^(k-1)
    # = (|X|^3 / 4) / (1 - |X|/2)
    model = get_model(name)
    X = model.unvec(10.0**log_scale * np.random.default_rng(seed).standard_normal(model.d))
    t = np.linalg.norm(X)
    assert np.abs(model.cayley(X) - model.exp(X)).max() <= 0.25 * t**3 / (1 - t / 2) + 1e-15


def test_cayley_of_a_singular_sl2r_step_is_not_finite():
    # eigenvalues +-2 make I - X/2 singular: the division gives inf or nan,
    # which the solver rejects as a trial point, and raises nothing
    model = get_model("SL2R")
    with np.errstate(divide="ignore", invalid="ignore"):
        C = model.cayley(np.array([np.diag([2.0, -2.0]), np.zeros((2, 2))]))
    assert not np.isfinite(C[0]).any()
    assert np.array_equal(C[1], model.identity)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 10**6),
       st.sampled_from([1e-9, 1.0, 1e3]))
def test_vec_matches_trace_definition(name, seed, scale):
    # any complex matrix, in the algebra or not
    model = get_model(name)
    rng = np.random.default_rng(seed)
    n = model.n
    X = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    want = np.array([np.trace(B.conj().T @ X).real for B in model.basis])
    assert np.abs(model.vec(X) - want).max() <= 1e-14 * max(1.0, np.linalg.norm(X))


@settings(max_examples=100, deadline=None)
@given(stacks)
def test_stacked_Ad_matches_conjugation_definition(case):
    # column a of Ad_g is vec(g B_a g^-1), entry b Re tr(B_b^H g B_a g^-1),
    # to 1e-14 relative to |g|^2 (the closed-form inverse has |g^-1| = |g|)
    name, seed, k, scale = case
    model = get_model(name)
    rng = np.random.default_rng(seed)
    G = model.exp(model.unvec(scale * rng.standard_normal((k, model.d))))
    Ad = model.Ad_matrix(G)
    for g, A in zip(G, Ad):
        h = _ref_inv(model, g)
        want = np.array([[np.trace(Bb.conj().T @ g @ Ba @ h).real for Ba in model.basis]
                         for Bb in model.basis])
        assert np.abs(A - want).max() <= 1e-14 * max(1.0, np.linalg.norm(g) ** 2)


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_stacked_vec_ad_Ad_bitwise(case):
    name, seed, k, scale = case
    model = get_model(name)
    rng = np.random.default_rng(seed)
    X = model.unvec(scale * rng.standard_normal((k, model.d)))
    G = model.exp(X) @ model.exp(model.unvec(rng.standard_normal((k, model.d))))
    v, ad, Ad = model.vec(X), model.ad_matrix(X), model.Ad_matrix(G)
    for i in range(k):
        _assert_same(v[i], _ref_vec(model, X[i]))
        _assert_same(ad[i], _ref_ad(model, X[i]))
        _assert_same(Ad[i], _ref_Ad(model, G[i]))
        _assert_same(model.vec(X[i]), _ref_vec(model, X[i]))
        _assert_same(model.ad_matrix(X[i]), _ref_ad(model, X[i]))
        _assert_same(model.Ad_matrix(G[i]), _ref_Ad(model, G[i]))
    # leading axes beyond one are carried through
    _assert_same(model.Ad_matrix(G[None])[0], Ad)


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_closed_form_inverses(case):
    # g^H or the adjugate inverts g, and K^-1 Ad^T K inverts Ad (K the
    # pairing Gram, Ad^T K Ad = K), to 1e-13 relative to |X^-1| |X|
    name, seed, k, scale = case
    model = get_model(name)
    rng = np.random.default_rng(seed)
    G = model.exp(model.unvec(scale * rng.standard_normal((k, model.d))))
    A = model.Ad_matrix(G)
    K, Kinv = model.pairing_gram, model.pairing_gram_inv
    for X, Y, eye in ((G, model.inverse(G), model.identity),
                      (A, Kinv @ A.swapaxes(-1, -2) @ K, np.eye(model.d))):
        for x, y in zip(X, Y):
            size = np.linalg.norm(y, 2) * np.linalg.norm(x, 2)
            assert np.abs(y @ x - eye).max() <= 1e-13 * size
    for i in range(k):
        assert np.array_equal(model.inverse(G)[i], model.inverse(G[i]))
