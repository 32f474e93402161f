"""Twisted cochain complexes at a representation point, as numeric matrices.

A representation point assigns a group element to every presentation
generator.  The coboundaries are evaluated through the adjoint representation:
delta0(X)_s = X - Ad_{phi(s)} X and delta1 rows are the Fox-derivative
matrices of the relators pushed through Ad.

The long relator's row and value (RepPoint.long_row, long_relator_value)
are built per handle from the commutator forms of the Fox derivatives.  Their
products over the l + n factors c_1..c_l, z_1..z_n are taken by product_scan,
a work-efficient (Blelloch) scan: linear work in O(log(l + n)) stacked
products.  The cup matrix (symplectic.cup_matrix) is read off the same row
in closed form.  The letter-by-letter walk and value serve cocycle_extend,
the short torsion relators and the tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .config import Tolerances, DEFAULT_TOL
from .errors import RelatorConstraintViolated, ToleranceAmbiguity
from .foxcalc import GroupRingElt
from .liegroup import LieModel
from .presentations import PlanarPresentation
from .words import Word


def _up_sweep(M: np.ndarray) -> list[np.ndarray]:
    """The pairwise product tree over a stack M of k >= 1 square matrices:
    level 0 is M, level t + 1 holds the products L[2i] L[2i + 1] of level t
    in one stacked matmul, with an odd last factor carried up as it is.  The
    last level holds M_0 .. M_{k-1} alone; the levels hold k - 1 products."""
    levels = [M]
    while len(M) > 1:
        h = len(M) // 2
        up = M[0 : 2 * h : 2] @ M[1 : 2 * h : 2]
        M = np.concatenate([up, M[2 * h :]]) if len(M) % 2 else up
        levels.append(M)
    return levels


def product_scan(M: np.ndarray) -> np.ndarray:
    """The exclusive prefix products P[i] = M_0 .. M_{i-1} of a stack M of
    k square matrices, by a work-efficient (Blelloch) scan (CMU-CS-90-190).
    The up-sweep builds the pairwise product tree; the down-sweep hands each
    node's prefix to its left child, and that prefix times the left child to
    its right child.  The first node of every level has the prefix I, which
    is not multiplied: at most 2k - 2 products in about 2 log2 k stacked
    matmuls."""
    P = np.empty_like(M)
    if not len(M):
        return P
    levels = _up_sweep(M)
    P[0] = np.eye(M.shape[-1])
    Q = P[:0]  # the prefixes of nodes 1, 2, .. of the level above
    for t in range(len(levels) - 2, -1, -1):
        L, h = levels[t], len(levels[t]) // 2
        down = P[1:] if t == 0 else np.empty_like(L[1:])
        down[0], down[1::2] = L[0], Q  # node 1 gets I L_0; node 2i its parent's
        if h > 1:  # node 2i + 1 gets its parent's prefix times node 2i
            np.matmul(Q[: h - 1], L[2 : 2 * h : 2], out=down[2::2])
        Q = down
    return P


def tree_product(M: np.ndarray) -> np.ndarray:
    """M_0 .. M_{k-1} for a stack M of k square matrices, as the pairwise
    tree of product_scan's up-sweep alone (k - 1 products in about log2 k
    stacked matmuls); an empty stack gives a fresh identity."""
    if not len(M):
        return np.eye(M.shape[-1], dtype=M.dtype)
    return _up_sweep(M)[-1][0]


@dataclass
class RepPoint:
    """Generator assignment phi into the group of a LieModel."""

    pres: PlanarPresentation
    model: LieModel
    # one (n x n) matrix per presentation generator, given as any sequence
    # and stored as one (#generators, n, n) stack in the model's dtype
    gens: np.ndarray

    def __post_init__(self):
        eye = self.model.identity
        self.gens = np.asarray(self.gens, dtype=eye.dtype).reshape(-1, *eye.shape)
        if len(self.gens) != self.pres.num_generators:
            raise ValueError("one matrix per generator required")

    @cached_property
    def ad_gens(self) -> np.ndarray:
        """Ad_{phi(s)} of every generator s, stacked (#generators, d, d)."""
        return self.model.Ad_matrix(self.gens)

    @cached_property
    def ad_gens_inv(self) -> np.ndarray:
        """Ad_{phi(s)}^-1 = K^-1 Ad_{phi(s)}^T K, K the pairing Gram, stacked."""
        m = self.model
        return m.pairing_gram_inv @ self.ad_gens.swapaxes(-1, -2) @ m.pairing_gram

    @cached_property
    def gens_inv(self) -> np.ndarray:
        """phi(s)^-1 of every generator s, stacked."""
        return self.model.inverse(self.gens)

    def value(self, w: Word) -> np.ndarray:
        """phi(w) as a group element, one product per letter: it serves
        torsion_relator_values and is the tests' reference for
        long_relator_value."""
        out = self.model.identity.copy()
        for s in w:
            out = out @ (self.gens[s - 1] if s > 0 else self.gens_inv[-s - 1])
        return out

    def walk(self, w: Word) -> tuple[np.ndarray, np.ndarray]:
        """(E_w, Ad_{phi(w)}) by one pass along w, letter by letter.

        E_w (d x N, N = d * #generators) is the Ad-evaluated Fox row of w: a
        letter s after prefix q adds Ad_q to the block of s, a letter s^-1
        subtracts Ad_{q s^-1}.  Terms are added in ring_matrix's order, so
        block i equals ring_matrix(fox_derivative(w, i)) bit for bit.  It
        serves cocycle_extend and is the tests' reference for long_row.
        """
        d = self.model.d
        E = np.zeros((d, d * self.pres.num_generators))
        P = np.eye(d)
        for s in w:
            i = abs(s) - 1
            block = E[:, i * d : (i + 1) * d]
            if s > 0:
                block += P
                P = P @ self.ad_gens[i]
            else:
                P = P @ self.ad_gens_inv[i]
                block -= P
        return E, P

    def ad_value(self, w: Word) -> np.ndarray:
        """Ad_{phi(w)} in basis coordinates."""
        return self.walk(w)[1]

    def ring_matrix(self, elt: GroupRingElt) -> np.ndarray:
        """Evaluate a group-ring element through Ad with rational coefficients
        (the exact reference for walk)."""
        out = np.zeros((self.model.d, self.model.d))
        for w, q in elt.terms.items():
            out += float(q) * self.ad_value(w)
        return out

    @cached_property
    def handle_ads(self) -> tuple[np.ndarray, np.ndarray]:
        """(Ad_{a_j}, Ad_{c_j}) stacked over the handles, a_j = x_j y_j x_j^-1."""
        f, A, Ainv = 2 * self.pres.genus, self.ad_gens, self.ad_gens_inv
        Ada = A[0:f:2] @ A[1:f:2] @ Ainv[0:f:2]
        return Ada, Ada @ Ainv[1:f:2]

    @cached_property
    def long_row(self) -> np.ndarray:
        """E_r, the Ad-evaluated Fox row of r = prod_j [x_j, y_j] z_1..z_n
        (d x N), per handle; read-only, since every reader shares it.

        With a_j = x_j y_j x_j^-1, c_j = [x_j, y_j] and P_j = c_1..c_{j-1},
        Fox's d[x,y]/dx = 1 - x y x^-1 and d[x,y]/dy = x - [x,y] give the
        blocks P_j (I - Ad_{a_j}) for x_j, P_j (Ad_{x_j} - Ad_{c_j}) for
        y_j and P_{l+1} z_1..z_{k-1} for z_k, all through Ad.  The Ad's of
        a_j and c_j are handle_ads; the prefixes are one product_scan over
        Ad of c_1..c_l, z_1..z_n: linear work in O(log(l + n)) stacked
        products of d x d matrices.  No walk runs here.
        """
        p, d = self.pres, self.model.d
        l, f, A = p.genus, 2 * p.genus, self.ad_gens
        E = np.empty((d, d * p.num_generators))
        blocks = E.reshape(d, -1, d).swapaxes(0, 1)  # block i is E's column block i
        if l:
            Ada, Adc = self.handle_ads
            P = product_scan(np.concatenate([Adc, A[f:]]))
            np.matmul(P[:l], np.eye(d) - Ada, out=blocks[0:f:2])
            np.matmul(P[:l], A[0:f:2] - Adc, out=blocks[1:f:2])
            blocks[f:] = P[l:]
        else:
            blocks[:] = product_scan(A)
        E.flags.writeable = False
        return E

    @cached_property
    def cup(self) -> np.ndarray:
        """The cup matrix of the point (symplectic.cup_matrix)."""
        from .symplectic import cup_matrix

        return cup_matrix(self)

    @cached_property
    def long_relator_value(self) -> np.ndarray:
        """r(phi), the value of the long relator: the commutators c_j stacked
        over the handles, then c_1..c_l z_1..z_n as one tree_product, linear
        work in O(log(l + n)) stacked products."""
        m, f, g = self.model, 2 * self.pres.genus, self.gens
        if f:
            x, y = g[0:f:2], g[1:f:2]
            g = np.concatenate([x @ y @ m.inverse(x) @ m.inverse(y), g[f:]])
        return tree_product(g)

    @cached_property
    def torsion_relator_values(self) -> list[np.ndarray]:
        return [self.value(r) for r in self.pres.torsion_relators]

    def is_fnat(self, tol: float = DEFAULT_TOL.tau_grp) -> bool:
        """Torsion relators satisfied: phi(z_j)^{m_j} = e."""
        eye = self.model.identity
        return all(
            np.linalg.norm(v - eye) < tol for v in self.torsion_relator_values
        )

    def relators_central(self, tol: float = DEFAULT_TOL.tau_grp) -> bool:
        values = np.array([self.long_relator_value, *self.torsion_relator_values])
        return bool(self.model.is_central(values, tol).all())

    def conjugate(self, g: np.ndarray) -> "RepPoint":
        return RepPoint(self.pres, self.model, g @ self.gens @ self.model.inverse(g))


def random_fnat_point(
    pres: PlanarPresentation,
    model: LieModel,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> RepPoint:
    """Random point of Hom(F-natural, G): free generators Haar-ish random,
    torsion generators random conjugates of random exact-order elements."""
    from .components import finite_order_classes

    gens = [model.random_element(rng, scale) for _ in range(2 * pres.genus)]
    for m in pres.torsion:
        classes = finite_order_classes(model, m)
        cls = classes[rng.integers(len(classes))]
        k = model.random_element(rng, scale)
        gens.append(k @ cls.representative @ model.inverse(k))
    return RepPoint(pres, model, gens)


def cocycle_extend(pt: RepPoint, u: list[np.ndarray], w: Word) -> np.ndarray:
    """Extend a generator assignment u to the word w by the cocycle rule
    u(gh) = u(g) + Ad_{phi(g)} u(h), u(s^-1) = -Ad_{phi(s)}^{-1} u(s)."""
    return pt.walk(w)[0] @ np.concatenate(u)


def delta0(pt: RepPoint) -> np.ndarray:
    """((2l+n)d x d) matrix with s-block X -> X - Ad_{phi(s)} X."""
    return (np.eye(pt.model.d) - pt.ad_gens).reshape(-1, pt.model.d)


def _rank_cut(s: np.ndarray, rel_tol: float) -> int:
    """Every rank decision: the count of singular values s (descending) above
    rel_tol * max(s_max, 1), warning ToleranceAmbiguity within a factor 10.
    Matrices here are O(1)-scaled; the floor keeps zero matrices at rank 0."""
    thresh = rel_tol * max(s[0] if len(s) else 0.0, 1.0)
    amb = [float(v) for v in s if thresh / 10 < v < thresh * 10]
    if amb:
        warnings.warn(
            f"singular values near rank threshold {thresh:.3e}: {amb}",
            ToleranceAmbiguity,
            stacklevel=3,
        )
    return int(np.sum(s > thresh))


def _svd_nullspace(A: np.ndarray, rel_tol: float) -> tuple[np.ndarray, int, np.ndarray]:
    """(orthonormal nullspace basis, rank, singular values), the rank cut at
    rel_tol by _rank_cut."""
    _, s, Vt = np.linalg.svd(A)
    rank = _rank_cut(s, rel_tol)
    return Vt[rank:].T, rank, s


def _rank(A: np.ndarray, tol: Tolerances) -> int:
    """Rank of A from its singular values alone."""
    return _rank_cut(np.linalg.svd(A, compute_uv=False), tol.rank_rel)


def projective_subspace(
    pt: RepPoint, tol: Tolerances = DEFAULT_TOL
) -> list[np.ndarray]:
    """Basis of C^1 of the projective resolution, block diagonal in the
    generators: one block per generator, with orthonormal columns (d x k_i).

    A free generator's block is I_d, all of g; a torsion generator's block
    is a basis of ker N_j with N_j = sum_k Ad_{phi(z_j)}^k.  Ad_{phi(z_j)}
    has order m_j, so N_j is m_j times the projector onto its fixed space,
    and the block has d - f_j columns, f_j = dim ker(Ad_{phi(z_j)} - 1):
    cohomology_data reads f_j off it, from the same rank cut.  Readers apply
    the blocks' N x dim basis Q block by block (times_basis), at O(d^2) per
    generator, and never build it.
    """
    if not pt.is_fnat(tol.tau_grp):
        raise RelatorConstraintViolated("point is not in Hom(F-natural, G)")
    p, d = pt.pres, pt.model.d
    eye = np.eye(d)
    eye.flags.writeable = False  # one block shared by every free generator
    blocks = [eye] * (2 * p.genus)
    for j in range(p.n_torsion):
        A = pt.ad_gens[p.z_index(j)]
        N = np.zeros((d, d))
        P = np.eye(d)
        for _ in range(p.torsion[j]):
            N += P
            P = P @ A
        blocks.append(_svd_nullspace(N, tol.rank_rel)[0])
    return blocks


def times_basis(M: np.ndarray, blocks: list[np.ndarray], f: int) -> np.ndarray:
    """M Q for Q the basis of projective_subspace's blocks, f of them free:
    a free block is I_d, so M's free columns are copied as they are and only
    the torsion column blocks are multiplied.  Q^T X is times_basis(X^T)^T."""
    d = blocks[0].shape[0] if blocks else 0
    tors = [M[:, (f + j) * d : (f + j + 1) * d] @ B for j, B in enumerate(blocks[f:])]
    return np.hstack([M[:, : f * d], *tors])


def delta1_projective(pt: RepPoint, blocks: list[np.ndarray]) -> np.ndarray:
    """Row of the long relator restricted to the projective subspace
    (d x dim columns, in the basis of projective_subspace's blocks): E_r Q."""
    return times_basis(pt.long_row, blocks, 2 * pt.pres.genus)


@dataclass
class CochainData:
    """The projective complex of an F-natural point, read by cohomology and by
    extended points, each part built on first read; only dims and its
    readers need central relator values, and dims checks them first."""

    pt: RepPoint
    tol: Tolerances = DEFAULT_TOL

    @cached_property
    def proj_blocks(self) -> list[np.ndarray]:
        """projective_subspace(pt, tol), the blocks of the basis Q."""
        return projective_subspace(self.pt, self.tol)

    @property
    def f_j(self) -> list[int]:
        """Fixed dims of the torsion generators, read off their blocks."""
        tors = self.proj_blocks[2 * self.pt.pres.genus :]
        return [self.pt.model.d - B.shape[1] for B in tors]

    @cached_property
    def delta0_proj(self) -> np.ndarray:
        """Q^T delta0, delta0 in projective coordinates (dim x d); refuses a
        delta0 that leaves the projective subspace."""
        d, f, blocks = self.pt.model.d, 2 * self.pt.pres.genus, self.proj_blocks
        D0 = delta0(self.pt)
        D0p = times_basis(D0.T, blocks, f).T
        # delta0 must land inside the projective subspace: D0 = Q Q^T D0
        k = list(accumulate((B.shape[1] for B in blocks[f:]), initial=f * d))
        back = [B @ D0p[a:b] for B, a, b in zip(blocks[f:], k, k[1:])]
        resid = np.linalg.norm(D0[f * d :] - np.reshape(back, (-1, d)))
        if resid > 1e-6 * max(1.0, np.linalg.norm(D0)):
            raise RelatorConstraintViolated(
                f"delta0 leaves the projective subspace (residual {resid:.2e})"
            )
        return D0p

    @cached_property
    def delta1_proj(self) -> np.ndarray:
        """E_r Q, the long relator's row in projective coordinates (d x dim)."""
        return delta1_projective(self.pt, self.proj_blocks)

    @cached_property
    def cup(self) -> np.ndarray:
        """Q^T C Q, the cup matrix (RepPoint.cup) in projective coordinates,
        by times_basis from both sides: Q^T (C Q) = ((C Q)^T Q)^T."""
        f, blocks = 2 * self.pt.pres.genus, self.proj_blocks
        return times_basis(times_basis(self.pt.cup, blocks, f).T, blocks, f).T

    @cached_property
    def dims(self) -> tuple[int, int, int]:
        """(h0, h1, h2) from the ranks of delta0_proj and delta1_proj, decided
        on first read; the relator values must be central."""
        if not self.pt.relators_central(self.tol.tau_grp):
            raise RelatorConstraintViolated("relator values must be central")
        D0p, D1p, d = self.delta0_proj, self.delta1_proj, self.pt.model.d
        rank1, rank0 = _rank(D1p, self.tol), _rank(D0p, self.tol)
        return d - rank0, D0p.shape[0] - rank1 - rank0, d - rank1

    h0 = property(lambda self: self.dims[0])
    h1 = property(lambda self: self.dims[1])
    h2 = property(lambda self: self.dims[2])


def cohomology_data(pt: RepPoint, tol: Tolerances = DEFAULT_TOL) -> CochainData:
    """CochainData(pt, tol) with the dims of H^0, H^1, H^2 decided, linear
    in the relator length; a point whose relator values are not central is
    refused before anything is built."""
    data = CochainData(pt, tol)
    data.dims
    return data


def euler_characteristic_expected(pt: RepPoint, f_j: list[int]) -> int:
    p, d = pt.pres, pt.model.d
    return (2 - 2 * p.genus) * d - sum(d - f for f in f_j)
