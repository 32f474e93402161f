"""Representation points: solve r(phi) = e or -e over prescribed torsion
classes.

Torsion generators are parameterized exactly as k_j c_j k_j^{-1} with c_j the
exact class representative, so class constraints hold by construction.  A
certified-feasible spec takes one of three routes (solve_relator):

- built on the boundary of the rank-2 rule (genus 0, SU(2)/U(2)), where every
  solution is reducible: a torus point (_torus_point);
- built at genus >= 1 for SU(2)/U(2): the last handle solves [x, y] = w in
  closed form (_handle_point), as in the proof that every element of SU(2)
  is a commutator (Goto, J. Math. Soc. Japan 1, 1949);
- searched otherwise (U(3), SL(2,R), genus-0 interior tuples, and specs no
  theorem decides), with the free generators and the conjugators as the
  optimization variables.

A built point reports restarts_used 0.  The search's descent
uses the Fox-derivative Jacobian through Ad: damped Gauss-Newton steps whose
damping lam is the only globalization (Marquardt, SIAM J. Appl. Math. 11,
1963), seeded random restarts from exp of Gaussian algebra elements.

A step xi moves each variable g to cay(xi) g, the Cayley retraction
(LieModel.cayley; Wen-Yin, Math. Program. 142, 2013): like exp it has
R(0) = I and dR(0) = xi, so the Jacobian and the local Gauss-Newton
convergence are those of the exp retraction (Absil-Mahony-Sepulchre,
Optimization Algorithms on Matrix Manifolds, 4.1 and 8.4), and it is one
rational map per slice where U(3)'s exp takes an eigh.

The residual r lives in one n x n matrix, 2n^2 real numbers, whatever the
genus, while the unknowns number N = d (2l + n).  So the step
(J^T J + lam I)^-1 J^T r is taken as J^T (J J^T + lam I)^-1 r, the same vector
for lam > 0 (Nocedal-Wright, Numerical Optimization, 10.3), from a
2n^2 x 2n^2 solve: an iteration costs O(N), linear in the relator length
4l + n, and no N x N matrix is formed.  The r of the step is the residual
projected onto the tangent space of G at r(phi) zeta (_tangent_residual),
zeta the target, its own inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

import numpy as np

from .components import TorsionClass
from .cohomology import RepPoint, tree_product
from .errors import InfeasibleSpec, NotFound
from .liegroup import LieModel
from .presentations import PlanarPresentation


@dataclass
class SolveSpec:
    pres: PlanarPresentation
    model: LieModel
    classes: list[TorsionClass]
    minus: bool = False  # target -e, else e
    seed: int = 0
    max_restarts: int = 30
    max_iters: int = 120
    tol: float = 1e-10

    def __post_init__(self):
        if len(self.classes) != self.pres.n_torsion:
            raise InfeasibleSpec("one torsion class per torsion generator required")
        for cls, m in zip(self.classes, self.pres.torsion):
            if cls.order != m:
                raise InfeasibleSpec(
                    f"class {cls.class_id} has order {cls.order}, presentation wants {m}"
                )
        self.den = common_den(self.pres.torsion)
        self.numerators = numerators_over(self.classes, self.den)

    @cached_property
    def reps(self) -> np.ndarray:
        """The exact class representatives c_j, stacked (n_torsion, n, n)."""
        n = self.model.n
        return np.array([c.representative for c in self.classes]).reshape(-1, n, n)

    @cached_property
    def rank2_rule(self) -> tuple | None:
        """_rank2_rule, decided once for the certificate and the torus point."""
        return _rank2_rule(self)

    @cached_property
    def zeta(self) -> np.ndarray:
        """The target, -e or e: central, and its own inverse."""
        return -self.model.identity if self.minus else self.model.identity.copy()

    def to_json(self) -> dict:
        return {
            "presentation": self.pres.to_json(),
            "group": self.model.name,
            "classes": [c.to_json() for c in self.classes],
            "zeta": _mat_json(self.zeta),
            "seed": self.seed,
            "max_restarts": self.max_restarts,
            "max_iters": self.max_iters,
            "tol": self.tol,
        }


def _mat_json(m: np.ndarray) -> list:
    return np.stack([np.real(m), np.imag(m)], axis=-1, dtype=float).tolist()


def common_den(orders) -> int:
    """2 lcm(orders): the genus-0 rules add class fractions k/m over it."""
    return 2 * lcm(*orders)


def numerators_over(classes, den: int) -> list[list[int]]:
    """Each class's numerators k/m written over den, a multiple of m."""
    return [[k * (den // c.order) for k in c.ks] for c in classes]


def target_phase(n: int, minus: bool, den: int) -> int:
    """The target's determinant phase in U(n) over the even den: det(-e) = (-1)^n."""
    return n * den // 2 % den if minus else 0


# --- SU(2) feasibility rule ---------------------------------------------------


def su2_product_rule(ts, minus: bool = False, den: int = 1) -> tuple:
    """The rank-2 product rule for SU(2) classes with rotation angles ts
    (units of pi/den, each in [0, den]) and product e, or -e when ``minus``:
    (margin, signs), margin in units of pi/den, feasible iff margin >= 0.

    For target e the rule is: every odd-size subset S satisfies
    sum_S t - sum_{not S} t <= |S| - 1 (the rank-2 parabolic-weight
    condition; Biswas, Internat. J. Math. 1998; Agnihotri-Woodward, Math. Res.
    Lett. 1998).  For -e, the last class moves to its antipode, t -> 1 - t.
    The rule reads max over odd S of sum_S (2t - 1) <= sum t - 1, and the
    maximizing S is {t > 1/2}, its parity fixed by the t nearest 1/2: O(n),
    exact on integer ts.  margin is sum t - 1 minus that max; signs are +1
    on S, -1 off it, the last flipped for -e, so that at margin 0 the
    diagonal classes with angles signs_j t_j multiply to the target.
    """
    ts = list(ts)
    if not ts:
        return (-den if minus else 0), []  # the empty product is e
    if minus:
        ts[-1] = den - ts[-1]
    gains = [2 * t - den for t in ts]
    S = [g > 0 for g in gains]
    if sum(S) % 2 == 0:
        i = min(range(len(gains)), key=lambda i: abs(gains[i]))
        S[i] = not S[i]
    signs = [1 if s else -1 for s in S]
    if minus:
        signs[-1] = -signs[-1]
    return sum(ts) - den - sum(g for g, s in zip(gains, S) if s), signs


# --- the solver ---------------------------------------------------------------


@dataclass
class SolveResult:
    point: RepPoint
    residual: float
    restarts_used: int
    spec: SolveSpec

    def to_json(self) -> dict:
        return {
            "residual": self.residual,
            "restarts_used": self.restarts_used,
            "generators": [_mat_json(g) for g in self.point.gens],
        }


def _feasibility_oracle(spec: SolveSpec) -> bool | None:
    """Exact feasibility: True or False where a theorem decides the spec,
    None where none applies here (SL(2,R) with torsion; U(n) at genus 0
    for n >= 3)."""
    model, p = spec.model, spec.pres
    if model.kind == "SL2R":
        if p.n_torsion:
            return None
        # lifts to SL(2,R) have product of commutators (-1)^eu, and every Euler
        # number |eu| <= 2l - 2 occurs (Milnor-Wood, Goldman): -e iff l >= 2
        return not spec.minus or p.genus >= 2
    if model.kind == "U":
        # det c_j = exp(2 pi i sum_k k/m_j): the product's determinant
        # phase over den, summed exactly, against the target's
        if sum(map(sum, spec.numerators)) % spec.den != target_phase(model.n, spec.minus, spec.den):
            return False
    if p.genus >= 1 or model.n == 1:
        # every element of SU(n) is a commutator, and U(1) is abelian: the
        # determinant test is the whole answer
        return True
    rule = spec.rank2_rule
    return None if rule is None else rule[0] >= 0


def _rank2_rule(spec: SolveSpec) -> tuple | None:
    """su2_product_rule of a genus-0 SU(2)/U(2) spec, else None."""
    model = spec.model
    if spec.pres.genus or model.kind == "SL2R" or model.n != 2:
        return None
    ks, D = spec.numerators, spec.den
    if model.kind == "SU":
        return su2_product_rule([2 * k[0] for k in ks], spec.minus, D)  # t = 2 k_0/m
    # U(2): fractions (a, b) are e^{pi i (a+b)} times the SU(2) class t = b - a,
    # and the scalar parts multiply to (-1)^{sum (a+b)}
    odd = sum(a + b for a, b in ks) % (2 * D) == D
    return su2_product_rule([b - a for a, b in ks], spec.minus != odd, D)


def _torus_point(spec: SolveSpec) -> SolveResult | None:
    """The exact point of a genus-0 SU(2)/U(2) spec on the boundary of the
    rank-2 rule (margin 0), where every solution is reducible: z_j =
    k_j c_j k_j^-1 with k_j = I or w = [[0, 1], [-1, 0]], which swaps the
    eigenvalues of the diagonal c_j, by the rule's signs.  Else None."""
    rule = spec.rank2_rule
    if rule is None or rule[0] != 0:
        return None
    # an SU(2) representative has the angle +t first, a U(2) one -t
    swap = [(s > 0) == (spec.model.kind == "U") for s in rule[1]]
    half = spec.den // 2 * spec.minus
    phases = [sum(ks[i ^ k] for ks, k in zip(spec.numerators, swap)) for i in (0, 1)]
    if any((p - half) % spec.den for p in phases):  # the product's entries, over den
        return None
    pt = _assemble(spec, np.where(np.array(swap)[:, None, None], [[0, 1], [-1, 0]], np.eye(2)))
    resid = float(np.linalg.norm(_residual_matrix(spec, pt)))
    return SolveResult(pt, resid, 0, spec) if resid < spec.tol else None


# the quaternion units 1, i, j, k as flattened SU(2) matrices: q = (q0, q1,
# q2, q3) is [[q0 + i q1, q2 + i q3], [-q2 + i q3, q0 - i q1]], the product
# of quaternions is the matrix product, and Re tr(Q_a^H Q_b) = 2 delta_ab
_QUAT = np.array([[1, 0, 0, 1], [1j, 0, 0, -1j], [0, 1, -1, 0], [0, 1j, 1j, 0]])


def _quat(q: np.ndarray) -> np.ndarray:
    """The matrix of the quaternion q, or of the pure quaternion (0, q) for
    a 3-vector q."""
    return (q @ _QUAT[-len(q):]).reshape(2, 2)


def _quat_coords(M: np.ndarray) -> np.ndarray:
    """The quaternion of an SU(2) matrix, (Re tr(Q_a^H M) / 2)_a."""
    return 0.5 * (_QUAT.conj() @ M.ravel()).real


def _handle_point(spec: SolveSpec) -> SolveResult:
    """A point of a genus >= 1 SU(2)/U(2) spec in closed form.

    Every generator is drawn from spec.seed as the search's first start
    point (_start); handles 1..l-1 and the torsion generators are kept, and
    the last handle solves [x, y] = w for w = (c_1..c_{l-1})^-1 zeta
    (z_1..z_n)^-1, in SU(2) (the determinant test puts it there for U(2)).
    As quaternions, w = p and [x, y] = w reads x y x^-1 = w y: y and w y
    must have the same real part, tr((w - I) y) = 0, the random unit y
    orthogonal to n = (p_0 - 1, -p_1, -p_2, -p_3).  Then x is the rotation
    taking the axis u of y to the axis v of w y, times a random element of
    y's centralizer, so that w = e does not force x = I.  The rotation is
    (1 - V U) / |.| for the unit pure quaternions U, V of u and v, ill
    conditioned as u -> -v; for u.v < 0 it is taken as the half turn about
    an axis a orthogonal to u, then (1 + V U) / |.| from -u to v.  At
    w = -e every y is pure and v = -u, so that branch is the one taken.
    U(2) multiplies x and y by random central phases.

    Raises NotFound, a solver defect, if the point misses spec.tol: there
    is no search to fall back on."""
    model, f = spec.model, 2 * spec.pres.genus
    rng = np.random.default_rng(spec.seed)
    gens = _assemble(spec, _start(spec, rng)).gens
    xs, ys = gens[0 : f - 2 : 2], gens[1 : f - 2 : 2]
    C = tree_product(xs @ ys @ model.inverse(xs) @ model.inverse(ys))
    w = model.inverse(C) @ spec.zeta @ model.inverse(tree_product(gens[f:]))
    p = _quat_coords(w)
    n = np.array([p[0] - 1.0, -p[1], -p[2], -p[3]])
    q = rng.standard_normal(4)
    if n @ n:
        q -= (q @ n) / (n @ n) * n
    q /= np.linalg.norm(q)
    y = _quat(q)
    v = _quat_coords(w @ y)[1:]
    u, v = q[1:] / np.linalg.norm(q[1:]), v / np.linalg.norm(v)
    U, V, c = _quat(u), _quat(v), u @ v
    if c >= 0:
        R = (np.eye(2) - V @ U) / np.sqrt(2.0 + 2.0 * c)
    else:
        k = np.argmin(np.abs(u))
        a = -u[k] * u
        a[k] += 1.0  # e_k minus its projection on u, |a|^2 = 1 - u_k^2 >= 2/3
        R = (np.eye(2) + V @ U) @ _quat(a / np.linalg.norm(a)) / np.sqrt(2.0 - 2.0 * c)
    theta = rng.uniform(-np.pi, np.pi)
    xy = np.array([R @ _quat(np.array([np.cos(theta), *(np.sin(theta) * u)])), y])
    if model.kind == "U":
        xy *= np.exp(1j * rng.uniform(-np.pi, np.pi, 2))[:, None, None]
    pt = RepPoint(spec.pres, model, np.concatenate([gens[: f - 2], xy, gens[f:]]))
    resid = float(np.linalg.norm(_residual_matrix(spec, pt)))
    if not resid < spec.tol:
        raise NotFound(f"certified feasible but not solved by construction (solver defect); "
                       f"residual {resid:.3e}")
    return SolveResult(pt, resid, 0, spec)


def _start(spec: SolveSpec, rng: np.random.Generator) -> np.ndarray:
    """A start point: the free generators, then the class conjugators, each
    exp of standard normal algebra coordinates."""
    shape = (spec.pres.num_generators, spec.model.d)
    return spec.model.exp(spec.model.unvec(rng.standard_normal(shape)))


def _assemble(spec: SolveSpec, G: np.ndarray) -> RepPoint:
    """The point with free generators G[:2l] and torsion generators
    k_j c_j k_j^-1 for the conjugators k_j = G[2l:], all stacked."""
    f = 2 * spec.pres.genus
    K = G[f:]
    gens = np.concatenate([G[:f], K @ spec.reps @ spec.model.inverse(K)])
    return RepPoint(spec.pres, spec.model, gens)


def _residual_matrix(spec: SolveSpec, pt: RepPoint) -> np.ndarray:
    return pt.long_relator_value @ spec.zeta - spec.model.identity


def _jacobian(spec: SolveSpec, pt: RepPoint) -> np.ndarray:
    """Real Jacobian (2n^2 x N) of (Re R, Im R), R = r(phi) zeta, w.r.t.
    right-translated moves of the free generators and the class conjugators.

    A move with coordinates xi moves R by unvec(E' xi) R to first order, E' the
    long row with each torsion block times (I - Ad_{z_j}), the derivative of
    z_j = k c k^-1 in k.  unvec(v) R = sum_a v_a basis[a] R is linear in v,
    so J = B(R) E' for the 2n^2 x d matrix B(R) whose column a is
    (Re, Im) of basis[a] R: one product, no algebra element per column."""
    model, f, d = spec.model, 2 * spec.pres.genus, spec.model.d
    BR = model.basis @ (pt.long_relator_value @ spec.zeta)
    B = np.concatenate([BR.real, BR.imag], axis=1).reshape(d, -1).T
    E = pt.long_row.copy()
    blocks = E.reshape(d, -1, d).swapaxes(0, 1)  # block i is E's column block i
    blocks[f:] = blocks[f:] @ (np.eye(d) - pt.ad_gens[f:])
    return B @ E


def _tangent_residual(model: LieModel, E: np.ndarray) -> np.ndarray:
    """The residual E = R - I, R = r(phi) zeta, projected orthogonally
    onto T_R G, which holds the range of the Jacobian.  The rest, normal to
    G at R, does not move the step in exact arithmetic (J^T annihilates it);
    in floating point J has singular values at rounding level along it,
    which would amplify it into a step of noise.  U(n), SU(n): T_R G = g R and the
    projection is X R with X the g-part of E R^H; SL(2,R): the normal is
    R^-T, the gradient of det."""
    R = E + model.identity
    if model.kind == "SL2R":
        N = model.inverse(R).T
        return E - (np.sum(E * N) / np.sum(N * N)) * N
    return model.project_alg(E @ model.inverse(R)) @ R


def _lm_step(J: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """The Levenberg-Marquardt step -(J^T J + lam I)^-1 J^T r, taken as
    -J^T (J J^T + lam I)^-1 r: one solve in the 2n^2-dimensional residual
    space for J of shape 2n^2 x N."""
    return -(J.T @ np.linalg.solve(J @ J.T + lam * np.eye(len(r)), r))


def _solve_once(spec: SolveSpec, rng: np.random.Generator) -> tuple[RepPoint, float]:
    model, shape = spec.model, (spec.pres.num_generators, spec.model.d)
    G = _start(spec, rng)
    lam = 1e-8
    pt = _assemble(spec, G)
    E = _residual_matrix(spec, pt)
    f = float(np.linalg.norm(E) ** 2)
    J = r = None  # built at the start point and after each accepted step
    for _ in range(spec.max_iters):
        if np.sqrt(f) < spec.tol:
            break
        if J is None:
            J = _jacobian(spec, pt)  # 2n^2 x N
            T = _tangent_residual(model, E)
            r = np.concatenate([T.real.ravel(), T.imag.ravel()])
        try:
            step = _lm_step(J, r, lam).reshape(shape)
        except np.linalg.LinAlgError:
            return pt, float("inf")  # a singular system ends the restart
        # a trial iterate whose retraction divides by zero (a singular
        # I - X/2 in sl(2,R)), or whose residual overflows to inf or nan, is
        # a rejected step
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            nG = model.cayley(model.unvec(step)) @ G
            npt = _assemble(spec, nG)
            nE = _residual_matrix(spec, npt)
            nfval = float(np.linalg.norm(nE) ** 2)
        if nfval < f:
            G, pt, E, f, J = nG, npt, nE, nfval, None
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e6:
                break
    return pt, float(np.sqrt(f))


def solve_relator(spec: SolveSpec) -> SolveResult:
    """Find phi with r(phi) = zeta and each phi(z_j) in its class by one of
    three routes (module docstring): built, with restarts_used 0, on the
    boundary of the rank-2 rule (_torus_point) and for SU(2)/U(2) at genus
    >= 1 (_handle_point); searched by restarts otherwise.

    Raises InfeasibleSpec when an exact obstruction certifies emptiness and
    NotFound when the restart budget is exhausted: not a proof of emptiness,
    and a solver defect when the spec is certified feasible.  SU(2)/U(2)
    specs at genus >= 1 that pass the determinant test are built, never
    searched, so that exit cannot fire for them; a built point that missed
    spec.tol would raise its own solver defect.
    """
    feas = _feasibility_oracle(spec)
    if feas is False:
        raise InfeasibleSpec("certified infeasible by exact obstruction")
    if feas and spec.pres.genus and spec.model.kind != "SL2R" and spec.model.n == 2:
        return _handle_point(spec)
    if feas and (built := _torus_point(spec)) is not None:
        return built
    rng = np.random.default_rng(spec.seed)
    best: tuple[RepPoint, float] | None = None
    budget = spec.max_restarts if feas is not True else max(spec.max_restarts, 60)
    for restart in range(budget):
        pt, resid = _solve_once(spec, rng)
        if best is None or resid < best[1]:
            best = (pt, resid)
        if resid < spec.tol:
            return SolveResult(pt, resid, restart + 1, spec)
    assert best is not None
    if feas:
        raise NotFound(
            f"certified feasible but not solved within {budget} restarts "
            f"(solver defect); best residual {best[1]:.3e}"
        )
    raise NotFound(
        f"no solution within budget; best residual {best[1]:.3e}"
    )
