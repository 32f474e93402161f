"""Test oracles: definitions that only the tests call.

``su2_triangle_oracle`` restates the SU(2) class rule for three classes in
radians, and ``su2_brute_force_feasible`` decides the same question by direct
minimization, independently of the rule.  ``alg_residual`` and
``grp_residual`` measure membership in a model's algebra and group,
``is_reduced`` tests a letter sequence for free reduction,
``torsion_fixed_dims`` cuts each torsion generator's fixed dimension from an
SVD of Ad - 1, ``det_certificate`` is the U(n) determinant test on floats,
``delta1_free`` stacks the walked Fox rows of all relators,
``cup_matrix_by_cells`` evaluates the cup matrix cell by cell over the exact
filling chain, the reference for the closed form of ``cup_matrix``, and
``block_basis`` builds the dense basis Q of the projective blocks, the
reference for the blockwise forms in projective coordinates.
``cocycles``, ``harmonic`` and ``pairing_H1`` read a ``CochainData``: an
orthonormal Z^1 basis, an orthonormal harmonic H^1 basis, and the cup
pairing of two cocycles.  ``principal_angles`` and ``z1_kernel`` are the
dense measure of the cup pairing's kernel on Z^1 against B^1, the
reference for ``degeneracy_report``, which derives it from the momentum
identity instead.
``signed_count`` counts one generator's letters in a word, the
per-generator reference for ``abelianized_boundary``.

The ``*_fractions`` functions are the exact class arithmetic on
``Fraction``s, the references for the integer forms in planarep: the class
id, the determinant test and its target phase, the rank-2 rule with its
margin and signs, the torus point's phase check and the CLI's default
class tuple.
"""

from fractions import Fraction
from typing import Iterable

import numpy as np

from planarep.cohomology import CochainData, RepPoint, _rank, _svd_nullspace
from planarep.config import DEFAULT_TOL, Tolerances
from planarep.errors import NotACocycle
from planarep.foxcalc import relator_filling_chain
from planarep.liegroup import LieModel
from planarep.solver import su2_product_rule
from planarep.symplectic import gram_on_cocycles


def alg_residual(model: LieModel, X: np.ndarray) -> float:
    return float(np.linalg.norm(X - model.project_alg(X)))


def grp_residual(model: LieModel, g: np.ndarray) -> float:
    if model.kind in ("U", "SU"):
        r = float(np.linalg.norm(g.conj().T @ g - model.identity))
        if model.kind == "SU":
            r += abs(np.linalg.det(g) - 1.0)
        return r
    return float(np.linalg.norm(g.imag)) + abs(np.linalg.det(g) - 1.0)


def is_reduced(letters: Iterable[int]) -> bool:
    prev = None
    for s in letters:
        if s == 0 or (prev is not None and prev == -s):
            return False
        prev = s
    return True


def torsion_fixed_dims(pt: RepPoint, tol: Tolerances = DEFAULT_TOL) -> list[int]:
    """f_j = dim ker(Ad_{phi(z_j)} - 1) for each torsion generator, by an SVD
    of Ad_{phi(z_j)} - 1: the reference for cohomology_data's f_j, which is
    read off the kernel block of N_j instead."""
    d = pt.model.d
    return [d - _rank(pt.ad_gens[pt.pres.z_index(j)] - np.eye(d), tol)
            for j in range(pt.pres.n_torsion)]


def det_certificate(classes, zeta: np.ndarray) -> bool:
    """The U(n) determinant test by floats: det(zeta) over the product of
    the representatives' determinants is 1 to 1e-9.  The reference for
    solver._feasibility_oracle, which sums the classes' phases exactly."""
    det = complex(np.linalg.det(zeta))
    for c in classes:
        det /= complex(np.linalg.det(c.representative))
    return abs(det - 1.0) <= 1e-9


def delta1_free(pt: RepPoint) -> np.ndarray:
    """((1+n)d x (2l+n)d) matrix of Ad-evaluated Fox derivatives."""
    p = pt.pres
    return np.vstack([pt.walk(r)[0] for r in (p.long_relator, *p.torsion_relators)])


def block_basis(blocks: list[np.ndarray]) -> np.ndarray:
    """The dense block-diagonal matrix Q (N x dim) of projective_subspace."""
    rows = np.cumsum([0] + [B.shape[0] for B in blocks])
    cols = np.cumsum([0] + [B.shape[1] for B in blocks])
    Q = np.zeros((rows[-1], cols[-1]))
    for B, r, c in zip(blocks, rows, cols):
        Q[r : r + B.shape[0], c : c + B.shape[1]] = B
    return Q


def cocycles(data: CochainData) -> np.ndarray:
    """Columns: orthonormal basis of ker delta1_proj in projective coords,
    from a full SVD cut at the complex's h2."""
    rank1 = data.delta1_proj.shape[0] - data.h2
    return np.linalg.svd(data.delta1_proj)[2][rank1:].T


def harmonic(data: CochainData) -> np.ndarray:
    """Columns: orthonormal harmonic H^1 basis in projective coords, the
    part of ker delta1_proj orthogonal to im delta0_proj."""
    Z = cocycles(data)
    rank0 = data.delta0_proj.shape[1] - data.h0
    if not (rank0 and Z.shape[1]):
        return Z
    B = np.linalg.svd(data.delta0_proj, full_matrices=False)[0][:, :rank0]
    U = np.linalg.svd(Z - B @ (B.T @ Z), full_matrices=False)[0]
    return U[:, : data.h1]


def principal_angles(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of A and B, each as
    arctan2(sine, cosine) (Bjorck & Golub, Math. Comp. 27, 1973): the sines,
    the norms of (I - Qa Qa^T) Y for B's principal vectors Y, keep a small
    angle to relative rounding; arccos of a cosine near 1 keeps only noise."""
    qa, qb = np.linalg.qr(A)[0], np.linalg.qr(B)[0]
    _, cos, Vt = np.linalg.svd(qa.T @ qb, full_matrices=False)
    Y = qb @ Vt.T
    sin = np.linalg.norm(Y - qa @ (qa.T @ Y), axis=0)
    return np.arctan2(sin, cos)


def z1_kernel(data: CochainData) -> tuple[int, int, int, float]:
    """(rank, dim Z^1, nullity, largest principal angle to B^1) of the cup
    pairing's Gram on the cocycle basis, its rank cut at the complex's
    tolerance: the kernel measured directly, by a full SVD of the Gram and
    the principal angles between its nullspace and im delta0_proj."""
    W = cocycles(data)
    null, rank, _ = _svd_nullspace(gram_on_cocycles(data.cup, W), data.tol.rank_rel)
    angle = 0.0
    if null.shape[1] and data.pt.model.d > data.h0:
        angle = float(np.max(principal_angles(W @ null, data.delta0_proj)))
    return rank, W.shape[1], null.shape[1], angle


def pairing_H1(data: CochainData, u: np.ndarray, v: np.ndarray) -> float:
    """The alternating 2-form on H^1 evaluated on cocycle representatives
    u, v in data's projective coordinates; raises NotACocycle for a vector
    off ker delta1_proj by more than 1e-6 relative to max(1, |w|)."""
    for w in (u, v):
        resid = np.linalg.norm(data.delta1_proj @ w)
        if resid > 1e-6 * max(1.0, np.linalg.norm(w)):
            raise NotACocycle(f"delta1 residual {resid:.2e}")
    return float(u @ data.cup @ v)


def cup_matrix_by_cells(phi: RepPoint) -> np.ndarray:
    """The cup matrix C = (M - M^T)/2 summed over the cells q[g|h] of
    relator_filling_chain: each adds q E_g^T G Ad_g E_h to M, with
    (E_g, Ad_g) from a walk of g.  Every h is one letter s^{+-1}, so E_h is
    I or -Ad_s^-1 in the block of s, and the cell adds into that column
    block alone."""
    p, G, d = phi.pres, phi.model.pairing_gram, phi.model.d
    M = np.zeros((p.num_generators * d,) * 2)
    for (g, (s,)), q in relator_filling_chain(p).terms.items():
        E, A = phi.walk(g)
        i = abs(s) - 1
        L = float(q) * (E.T @ (G @ A))
        M[:, i * d : (i + 1) * d] += L if s > 0 else L @ -phi.ad_gens_inv[i]
    return 0.5 * (M - M.T)


def su2_triangle_oracle(
    th1: float, th2: float, th3: float, target: str = "e"
) -> bool:
    """Feasibility of A B C = target over SU(2) classes with rotation angles
    th_i in [0, pi] and target e or -e.

    The n = 3 case of ``su2_product_rule``: for target e the spherical
    triangle inequality, for -e the same with th3 replaced by pi - th3.  The
    bounds carry a 1e-12 slack in radians.
    """
    for th in (th1, th2, th3):
        if th < -1e-12 or th > np.pi + 1e-12:
            raise ValueError("class angles must lie in [0, pi]")
    if target not in ("e", "-e"):
        raise ValueError("target must be 'e' or '-e'")
    ts = [th / np.pi for th in (th1, th2, th3)]
    return su2_product_rule(ts, minus=target == "-e")[0] >= -1e-12 / np.pi


def su2_brute_force_feasible(
    th1: np.ndarray,
    th2: np.ndarray,
    th3: np.ndarray,
    target: str = "e",
    grid: int = 129,
    residual_threshold: float = 1e-8,
) -> np.ndarray:
    """Direct minimization of ||A B C target^-1 - e|| over the classes.

    By bi-invariance A is fixed as the z-axis rotation and the axis of B is a
    single polar angle alpha; the optimal C in its class aligns with
    (AB)^-1 target, which leaves a 1-d minimization over alpha, done by dense
    grid plus exact refinement (the attained rotation angle of AB is
    continuous in alpha, so its range over the grid hull is an interval).
    Returns the boolean mask (min residual < residual_threshold).  Vectorized
    over input arrays.
    """
    th1, th2, th3 = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (th1, th2, th3))
    sgn = -1.0 if target == "-e" else 1.0
    alphas = np.linspace(0.0, np.pi, grid)
    out = np.empty(th1.shape, dtype=bool)
    chunk = 65536
    for start in range(0, len(th1), chunk):
        t1 = th1[start : start + chunk, None]
        t2 = th2[start : start + chunk, None]
        t3 = th3[start : start + chunk]
        # cos of rotation angle of AB as the axis angle alpha varies
        cosb = np.cos(t1) * np.cos(t2) - np.sin(t1) * np.sin(t2) * np.cos(alphas)
        np.clip(cosb, -1.0, 1.0, out=cosb)
        beta = np.arccos(cosb)  # in [0, pi]
        # need angle of C = (AB)^-1 target to equal t3; angle of -g is pi-angle(g)
        need = beta if sgn > 0 else np.pi - beta
        gap = np.min(np.abs(need - t3[:, None]), axis=1)
        # the grid minimum of |need - t3| overshoots by at most the grid step
        # of beta; refine by interval membership (beta is continuous in alpha,
        # so its range is [min, max] over the grid up to endpoint refinement)
        lo = np.min(need, axis=1)
        hi = np.max(need, axis=1)
        inside = (t3 >= lo) & (t3 <= hi)
        gap = np.where(inside, 0.0, np.minimum(np.abs(t3 - lo), np.abs(t3 - hi)))
        # Frobenius residual of the aligned product for angle gap
        resid = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - np.cos(gap)))
        out[start : start + chunk] = resid < residual_threshold
    return out


def signed_count(w, i: int) -> int:
    """Total exponent of generator i in w."""
    return sum(1 if s == i + 1 else -1 if s == -(i + 1) else 0 for s in w)


# --- exact class arithmetic on Fractions --------------------------------------


def class_id_fractions(cls) -> str:
    """The class id with each fraction k/m rendered by str(Fraction)."""
    inner = ",".join(str(Fraction(k, cls.order)) for k in cls.ks)
    return f"{cls.model_name}|m={cls.order}|[{inner}]"


def target_phase_fractions(n: int, minus: bool) -> Fraction:
    """The determinant phase of the target in U(n), in [0, 1)."""
    return Fraction(n, 2) % 1 if minus else Fraction(0)


def det_test_fractions(classes, n: int, minus: bool) -> bool:
    """The U(n) determinant test: the classes' fractions add up to the
    target's phase mod 1."""
    total = sum(sum(c.fractions) for c in classes)
    return total % 1 == target_phase_fractions(n, minus)


def su2_product_rule_fractions(ts, minus: bool = False) -> tuple:
    """The rank-2 product rule on rotation angles ts in units of pi, each in
    [0, 1]: (margin, signs) as ``solver.su2_product_rule`` defines them."""
    ts = list(ts)
    if not ts:
        return (-1 if minus else 0), []
    if minus:
        ts[-1] = 1 - ts[-1]
    gains = [2 * t - 1 for t in ts]
    S = [g > 0 for g in gains]
    if sum(S) % 2 == 0:
        i = min(range(len(gains)), key=lambda i: abs(gains[i]))
        S[i] = not S[i]
    signs = [1 if s else -1 for s in S]
    if minus:
        signs[-1] = -signs[-1]
    return sum(ts) - 1 - sum(g for g, s in zip(gains, S) if s), signs


def rank2_rule_fractions(spec) -> tuple | None:
    """The rank-2 rule of a genus-0 SU(2)/U(2) spec on its classes'
    fractions, else None."""
    model = spec.model
    if spec.pres.genus or model.kind == "SL2R" or model.n != 2:
        return None
    if model.kind == "SU":
        return su2_product_rule_fractions([2 * min(c.fractions) for c in spec.classes], spec.minus)
    odd = sum(sum(c.fractions) for c in spec.classes) % 2 == 1
    ts = [c.fractions[1] - c.fractions[0] for c in spec.classes]
    return su2_product_rule_fractions(ts, spec.minus != odd)


def torus_phases_fractions(spec, signs) -> bool:
    """Whether the diagonal product that the rule's signs pick (each class
    swapped or not, as solver._torus_point swaps it) has both diagonal
    entries' phases equal to the target's."""
    swap = [(s > 0) == (spec.model.kind == "U") for s in signs]
    half = Fraction(int(spec.minus), 2)
    phases = [sum(c.fractions[i ^ k] for c, k in zip(spec.classes, swap)) for i in (0, 1)]
    return not any((p - half) % 1 for p in phases)


def default_classes_fractions(model, per_gen, target: str) -> list:
    """The CLI's default class tuple, its reachable phases held as sets of
    Fractions in [0, 1)."""
    prefs = [classes[1:] + classes[:1] for classes in per_gen]
    if model.kind != "U":
        return [p[0] for p in prefs]
    phase = {c: sum(c.fractions) % 1 for classes in per_gen for c in classes}
    need = target_phase_fractions(model.n, target == "-e")
    reach = [{Fraction(0)}]
    for classes in reversed(per_gen):
        steps = {phase[c] for c in classes}
        reach.insert(0, {(r + q) % 1 for r in reach[0] for q in steps})
    if need not in reach[0]:
        return [p[0] for p in prefs]
    out = []
    for p, rest in zip(prefs, reach[1:]):
        c = next(c for c in p if (need - phase[c]) % 1 in rest)
        out.append(c)
        need = (need - phase[c]) % 1
    return out
