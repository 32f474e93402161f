"""The geometric core: cup-product pairing on H^1, the 2-form B on the
principal sheet, the extended 2-form and the momentum map.

The conventions are fixed: the extended 2-form is omega = cup - B and the
momentum map is mu = -<Lam, .>, so that omega(X_M, .) = d(X o mu) holds as a
theorem, which check_moment_identity tests rather than assumes.
Tangent vectors, omega and both Grams live in R^dim = C^1(P(P), g_phi), the
coordinates of the projective complex (CochainData) that an extended point
carries.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .config import Tolerances, DEFAULT_TOL
from .cohomology import CochainData, RepPoint, _rank, _svd_nullspace, times_basis
from .errors import ActionFieldInconsistent, LogBranchFailure, SingularDexp, ToleranceExceeded
from .liegroup import LieModel, phi_functions, spectral_margin


def default_calibration() -> None:
    """No-op.  The form conventions are fixed, so there is nothing to load;
    kept only for perfbench/setup_probe.py, which still calls it, and goes
    with that call."""


# --- extended points and tangent vectors -----------------------------------


@dataclass
class ExtendedPoint:
    """(phi, Lambda) with exp(Lambda) = r(phi) and Lambda on the principal
    sheet: a point of the pullback manifold.  Raises SingularDexp when the
    spectral margin of Lambda is below tol.tau_grp (the segment [0, Lambda]
    is then not known to stay in the regular domain, where dexp is
    invertible), and LogBranchFailure when exp(Lambda) != r(phi).  Its
    tangent vectors use the coordinates of data = CochainData(phi, tol) and
    read its E_r Q and Q^T C Q; only the reports on H^1 read its dims."""

    phi: RepPoint
    Lam: np.ndarray
    tol: InitVar[Tolerances] = DEFAULT_TOL

    def __post_init__(self, tol):
        model = self.phi.model
        margin = spectral_margin(np.linalg.eigvals(self.Lam))
        if margin < tol.tau_grp:
            raise SingularDexp(f"spectral margin of Lambda {margin:.2e} below tau_grp")
        resid = np.linalg.norm(model.exp(self.Lam) - self.phi.long_relator_value)
        if resid > 1e-6:
            raise LogBranchFailure(f"exp(Lambda) != r(phi), residual {resid:.2e}")
        # dexp(Lam)^-1 and the B matrix at Lam (bform_matrix) from one phi_ad
        phi1, phi2 = model.phi_ad(self.Lam)
        self._dexp_inv = np.linalg.inv(phi1[0])
        self.bform = _bform(model, phi2)
        self.data = CochainData(self.phi, tol)

    @property
    def model(self) -> LieModel:
        return self.phi.model

    def conjugate(self, g: np.ndarray) -> "ExtendedPoint":
        ginv = self.model.inverse(g)
        return ExtendedPoint(self.phi.conjugate(g), g @ self.Lam @ ginv, self.data.tol)


def extend_point(phi: RepPoint, tol: Tolerances = DEFAULT_TOL) -> ExtendedPoint:
    """Lift an F-natural point to the pullback manifold on the principal
    sheet; raises LogBranchFailure for r(phi) within tol.tau_grp of the
    branch cut, since a solved relator value is known only to that tolerance."""
    Lam = phi.model.log_principal(phi.long_relator_value, tol.tau_grp)
    return ExtendedPoint(phi, Lam, tol)


@dataclass
class TangentVec:
    """Tangent vector at an extended point: u in C^1(P(P), g_phi) (dim
    coordinates), plus the induced V = D(Lam)^-1 delta1 u (d coordinates)."""

    u: np.ndarray
    V: np.ndarray


def tangent_from_u(pt: ExtendedPoint, u: np.ndarray) -> TangentVec:
    return TangentVec(u=u, V=pt._dexp_inv @ (pt.data.delta1_proj @ u))


def action_field(pt: ExtendedPoint, X: np.ndarray) -> TangentVec:
    """Fundamental vector field of the conjugation action at pt:
    u = Q^T delta0 X, (delta0 X)_s = X - Ad_{phi(s)} X, and V = [X, Lam].
    Raises ActionFieldInconsistent when V and D(Lam)^-1 delta1 u, equal in
    exact arithmetic, differ by more than 1e-6 relative to max(1, |V|)."""
    model = pt.model
    x = model.vec(X)
    d0x = (x - pt.phi.ad_gens @ x).reshape(1, -1)  # delta0 X as one row
    u = times_basis(d0x, pt.data.proj_blocks, 2 * pt.phi.pres.genus)[0]
    V = model.vec(X @ pt.Lam - pt.Lam @ X)
    t = tangent_from_u(pt, u)
    # consistency of the two V computations (exactness of the chain identity)
    if np.linalg.norm(t.V - V) > 1e-6 * max(1.0, np.linalg.norm(V)):
        raise ActionFieldInconsistent("action field V inconsistent with D^-1 delta1 u")
    return TangentVec(u=u, V=V)


# --- cup-product evaluation --------------------------------------------------


def cup_matrix(phi: RepPoint) -> np.ndarray:
    """Antisymmetric N x N matrix C of the cup pairing,
    cup_eval(phi, u, v) = flat(u)^T C flat(v), in closed form from the long
    relator's Fox row R = E_r; read it as RepPoint.cup, built once a point.

    A cell q[g|h] of the filling chain adds q E_g^T G Ad_g E_h to M (G the
    pairing Gram), and C = (M - M^T)/2.  As Ad_p E_s = E_{ps} - E_p, a
    relator's [prefix|letter] cells add sum_k E_k^T G (E_{k+1} - E_k) over
    its prefix rows E_k.  With the letters of r in blocks (x_j y_j per
    handle, each z_k alone) and Ad^T G Ad = G, the cells -fill(r) add
    - between blocks, the strictly block-upper part of -R^T G R;
    - in handle j's 2d x 2d block, -sum_{t=1..3} F_t^T G (F_{t+1} - F_t),
      F_t = [I, 0], [I, Ad_x], [I - Ad_a, Ad_x], [I - Ad_a, Ad_x - Ad_c] the
      rows of x, xy, a = x y x^-1 and c = [x, y].
    z^m adds (1/m) sum_{i<m} N_i^T G (N_{i+1} - N_i) to z's diagonal block,
    N_i = I + A + .. + A^{i-1}, A = Ad_z; the [s|s^-1] cells add -G, which
    is symmetric and drops from C.
    """
    p, G, d = phi.pres, phi.model.pairing_gram, phi.model.d
    l, f, R = p.genus, 2 * p.genus, phi.long_row
    gen = np.arange(p.num_generators)
    block = np.repeat(np.where(gen < f, gen // 2, gen - l), d)  # x_j, y_j -> j; z_k -> l + k
    M = np.where(block[:, None] < block, -(R.T @ (G @ R)), 0.0)
    if l:
        Ada, Adc = phi.handle_ads
        F = np.zeros((l, 4, d, 2 * d))  # F[:, t] is F_{t+1} of every handle
        F[..., :d] = np.eye(d)
        F[:, 2:, :, :d] -= Ada[:, None]
        F[:, 1:, :, d:] = phi.ad_gens[0:f:2, None]
        F[:, 3, :, d:] -= Adc
        H = (F[:, :3].swapaxes(-1, -2) @ G @ np.diff(F, axis=1)).sum(1)
        i = np.arange(f * d).reshape(l, 2 * d, 1)
        M[i, i.swapaxes(1, 2)] -= H
    for j, m in enumerate(p.torsion):
        A, N, P, T = phi.ad_gens[f + j], np.eye(d), np.eye(d), np.zeros((d, d))
        for _ in range(m - 1):
            P = P @ A
            T += N.T @ G @ P
            N = N + P
        k = slice((f + j) * d, (f + j + 1) * d)
        M[k, k] += T / m
    return 0.5 * (M - M.T)


def cup_eval(phi: RepPoint, u: np.ndarray, v: np.ndarray) -> float:
    """Cup product u^T C v of two C^1 vectors (N coordinates, d per
    generator), C the closed-form cup matrix of the point."""
    return float(u @ phi.cup @ v)


# --- the 2-form B on the principal sheet ----------------------------------


def bform_O(model: LieModel, Lam: np.ndarray, V: np.ndarray, W: np.ndarray) -> float:
    """Radial-homotopy primitive of the exp-pulled-back invariant 3-form:
    B_Lam(V, W) = int_0^1 t^2 lam~_{t Lam}(Lam, V, W) dt with
    lam~_X(a,b,c) = (1/2) <[D(X)a, D(X)b], D(X)c>, D the dexp operator.
    The 1/2 normalization of the invariant 3-form is what makes the momentum
    identity hold with unit scale.

    Evaluated by 32-node Gauss-Legendre quadrature; the numeric layer uses
    the closed form bform_matrix, and this definition is its test oracle.
    Lam has positive spectral margin, so t Lam stays in the regular domain.

    The integrand is summed in coordinates in np.longdouble: for a
    hyperbolic Lam in sl(2,R), D has entries near e^|ad_Lam| / |ad_Lam| and
    the pairing of D V with D W cancels them, so float64 loses about 1e-11
    absolute at |ad_Lam| near 10.  Where longdouble is float64 the
    integrand is float64."""
    x, wts = np.polynomial.legendre.leggauss(32)
    ts = 0.5 * (x + 1.0)
    wts = 0.5 * wts
    ld = np.longdouble
    A = model.ad_matrix(Lam).astype(ld)
    brackets = model.ad_matrix(model.basis).astype(ld)  # [a, b] = sum a_k brackets[k] b
    G = model.pairing_gram.astype(ld)
    lam_v, v_v, w_v = (np.asarray(u, dtype=ld) for u in (model.vec(Lam), V, W))
    total = ld(0)
    for t, wt in zip(ts, wts):
        D = phi_functions(ld(t) * A)[0]
        a, b, c = D @ lam_v, D @ v_v, D @ w_v
        total += ld(wt) * ld(t) ** 2 * 0.5 * (np.tensordot(a, brackets, 1) @ b @ G @ c)
    return float(total)


def bform_matrix(model: LieModel, Lam: np.ndarray) -> np.ndarray:
    """Matrix K of the 2-form, B_Lam(V, W) = V^T K W.

    Closed form of bform_O: with D(t Lam) Lam = Lam and the invariance of the
    pairing, B_Lam(V, W) = <F(ad_Lam) V, W> with F(z) = (sinh z - z)/z^2,
    so K = F(ad_Lam)^T G.  F = (phi2(z) - phi2(-z))/2 for
    phi2(z) = (e^z - 1 - z)/z^2, both from one phi_functions call on the
    stack (ad_Lam, -ad_Lam) (LieModel.phi_ad).
    """
    return _bform(model, model.phi_ad(Lam)[1])


def _bform(model: LieModel, phi2: np.ndarray) -> np.ndarray:
    """K = F(ad_Lam)^T G from phi2 of the stack (ad_Lam, -ad_Lam)."""
    return (0.5 * (phi2[0] - phi2[1])).T @ model.pairing_gram


# --- extended 2-form, momentum map, identities -------------------------------


def omega_extended(pt: ExtendedPoint, t1: TangentVec, t2: TangentVec) -> float:
    """omega_ext = u1^T (Q^T C Q) u2 - B(V1, V2), the cup part read off the
    point's projected cup matrix."""
    cup = t1.u @ pt.data.cup @ t2.u
    b = t1.V @ pt.bform @ t2.V
    return float(cup - b)


def moment_pairing(pt: ExtendedPoint, X: np.ndarray) -> float:
    """The scalar X o mu = -<Lam, X>."""
    return -pt.model.pairing(pt.Lam, X)


def check_moment_identity(pt: ExtendedPoint, X: np.ndarray, t: TangentVec) -> float:
    """Residual of omega(X_M, t) = d(X o mu)(t) = -<V_t, X>."""
    lhs = omega_extended(pt, action_field(pt, X), t)
    rhs = -pt.model.pairing(pt.model.unvec(t.V), X)
    return abs(lhs - rhs)


# --- degeneracy / rank reports -------------------------------------------------


def gram_on_cocycles(cup: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Gram matrix W^T C W of the cup pairing on the columns W of basis, C
    the cup matrix in their coordinates: CochainData.cup for projective ones."""
    G = basis.T @ cup @ basis
    return 0.5 * (G - G.T)


def gram_extended(pt: ExtendedPoint) -> np.ndarray:
    """Gram matrix of omega_ext on C^1(P(P), g_phi), in the point's
    projective coordinates: Q^T C Q - T^T K T with T = dexp(Lam)^-1 E_r Q,
    whose columns are the V of the coordinate tangents."""
    T = pt._dexp_inv @ pt.data.delta1_proj
    G = pt.data.cup - T.T @ pt.bform @ T
    return 0.5 * (G - G.T)


def degeneracy_report(point: ExtendedPoint) -> dict:
    """Rank structure at an extended point, in its projective coordinates,
    from the momentum identity for every X and tangent at once: G D0 = T^T P
    (G = gram_extended, D0 = delta0_proj, T = dexp(Lam)^-1 E_r Q, P the
    pairing Gram).  For G invertible, G^-1 range(T^T) = B^1 and T vanishes
    on Z^1, so the cup pairing on Z^1 has kernel B^1: h0 = h2, rank_on_Z1 =
    h1.  Raises ToleranceExceeded where float64 does not support that: G's
    rank cut below dim, h0 != h2 or h1 < 0 (B^1 not in Z^1), or the identity
    residual, relative to max(1, |G||D0| + |T||P|), above rank_rel."""
    data, tol, norm = point.data, point.data.tol, np.linalg.norm
    G, D0, P = gram_extended(point), data.delta0_proj, point.model.pairing_gram
    T = point._dexp_inv @ data.delta1_proj
    resid = float(norm(G @ D0 - T.T @ P) / max(1.0, norm(G) * norm(D0) + norm(T) * norm(P)))
    dim, (h0, h1, h2) = G.shape[0], data.dims
    rank_full = _rank(G, tol)
    if rank_full < dim:
        raise ToleranceExceeded(f"extended Gram rank {rank_full} below dim C^1 {dim}: "
                                "no nondegeneracy verdict at this tolerance")
    if h0 != h2 or h1 < 0:
        raise ToleranceExceeded(f"dims (h0, h1, h2) = {data.dims} break duality on Z^1")
    if resid > tol.rank_rel:
        raise ToleranceExceeded(f"momentum identity residual {resid:.2e} above rank_rel")
    return {
        "rank_on_Z1": h1,
        "h1": h1,
        "dim_Z1": dim - (point.model.d - h2),
        "dim_C1_proj": dim,
        "nullspace_matches_B1": True,
        "identity_residual": resid,
        "full_rank": rank_full,
        "nondegenerate": True,
    }


def _gram_nullspace(G: np.ndarray, rel_tol: float):
    """(nullspace basis, rank, singular values) of a Gram matrix.  No report
    calls it; kept only for perfbench/spans.py, which wraps it by name, and
    goes with that span."""
    return _svd_nullspace(G, rel_tol)
