"""Matrix Lie group models: exp/log, Ad/ad, invariant pairing, spectral margin.

Supported models: SU(2), U(n) (n = 1,2,3 via the CLI strings), SL(2,R).
Group elements and algebra vectors are plain numpy matrices; coordinates are
taken in a fixed basis of the algebra, orthonormal for the positive-definite
reference inner product Re tr(A B^H).

The principal log and the extended points refuse by one number, the
spectral margin m = pi - max |Im lambda| over the eigenvalues lambda of an
algebra element X (spectral_margin).  The eigenvalues of ad_X are
differences lambda_a - lambda_b, so m > 0 keeps their imaginary parts below
2 pi in modulus, also for t X, t in [0, 1]: the segment [0, X] lies in the
regular domain of exp, where dexp is invertible.  For X = log_principal(g),
m is pi - max |arg lambda(g)|, the distance of the spectrum of g from the
branch cut.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import schur

from .errors import LogBranchFailure, UnsupportedModel


class LieModel:
    """A matrix group G with algebra basis and biinvariant pairing.

    kind is one of 'SU', 'U', 'SL2R'; the pairing is -Re tr(XY) for the
    unitary models (positive definite) and tr(XY) for sl(2,R) (indefinite,
    signature (+,+,-) in the basis used here).

    vec, unvec, exp, cayley, inverse, ad_matrix and Ad_matrix take stacks:
    leading axes of the argument are carried through, and each slice of the
    result is bitwise equal to the call on that slice alone, with the same
    memory layout.  vec, unvec and Ad_matrix get this from one
    row-times-matrix product per slice against a map built here.  is_central
    takes a stack too; the other methods take one element.

    exp, cayley and log_principal are closed forms for these n <= 3 models;
    cayley is the solver's retraction, exp is kept where exp itself is meant
    (start points, random elements, exp(Lambda) = r(phi)); dexp_matrix and
    symplectic.bform_matrix take phi_functions of ad (phi_ad).
    """

    def __init__(self, kind: str, n: int, basis: np.ndarray, name: str):
        self.kind = kind
        self.n = n
        self.basis = basis  # (d, n, n)
        self.d = len(basis)
        self.name = name
        self.identity = np.eye(n, dtype=basis.dtype)
        # basis_flat row a is basis[a] flattened; vec_map column a is
        # (Re basis[a], Im basis[a]) flattened, so that
        # Re tr(basis[a]^H X) = (Re X, Im X) . vec_map[:, a]
        self._basis_flat = basis.reshape(self.d, n * n)
        self._vec_map = np.concatenate(
            [self._basis_flat.real, self._basis_flat.imag], axis=1
        ).T.copy()
        # Ad_g[b, a] = Re sum conj(basis[b])_ij basis[a]_kl g_ik h_lj, h = g^-1:
        # row (i, k, l, j) of T, column (a, b), holds the basis product, and
        # Re (w . T) = (Re w, Im w) . (Re T, -Im T) for the entries w of g (x) h
        T = np.einsum("bij,akl->ikljab", basis.conj(), basis).reshape(n**4, -1)
        self._Ad_map = np.concatenate([T.real, -T.imag]) if basis.dtype.kind == "c" else T
        # Gram matrix of the invariant pairing on the chosen basis
        self.pairing_gram = np.array(
            [[self.pairing(X, Y) for Y in basis] for X in basis]
        )
        # the pairing is Ad-invariant, Ad^T K Ad = K, so Ad^-1 = K^-1 Ad^T K
        self.pairing_gram_inv = np.linalg.inv(self.pairing_gram)

    def __repr__(self):
        return f"LieModel({self.name})"

    # -- pairing and coordinates --------------------------------------------

    def pairing(self, X: np.ndarray, Y: np.ndarray) -> float:
        t = np.trace(X @ Y)
        return float(t.real) if self.kind == "SL2R" else -float(t.real)

    def vec(self, X: np.ndarray) -> np.ndarray:
        """Coordinates in the reference-orthonormal basis: (..., n, n) ->
        (..., d), entry a is Re tr(basis[a]^H X).

        The trace is the real inner product <Re basis[a], Re X> +
        <Im basis[a], Im X>, taken as one (1, 2n^2) @ (2n^2, d) product per
        slice; a (k, 2n^2) @ (2n^2, d) product would round differently."""
        X = np.asarray(X)
        flat = X.reshape(X.shape[:-2] + (1, self.n * self.n))
        x = np.concatenate([flat.real, flat.imag], axis=-1)
        return np.matmul(x, self._vec_map).reshape(X.shape[:-2] + (self.d,))

    def unvec(self, v: np.ndarray) -> np.ndarray:
        """Algebra element from coordinates: (..., d) -> (..., n, n).

        One row-times-matrix product per slice; a (k, d) @ (d, n*n) product
        would round differently."""
        v = np.asarray(v, dtype=float)
        flat = np.matmul(v[..., None, :], self._basis_flat)
        return flat.reshape(v.shape[:-1] + (self.n, self.n))

    # -- membership ----------------------------------------------------------

    def project_alg(self, X: np.ndarray) -> np.ndarray:
        if self.kind in ("U", "SU"):
            A = 0.5 * (X - X.conj().T)
            if self.kind == "SU":
                A = A - (np.trace(A) / self.n) * np.eye(self.n)
            return A
        A = np.asarray(X).real.copy()
        return A - (np.trace(A) / self.n) * np.eye(self.n)

    def inverse(self, g: np.ndarray) -> np.ndarray:
        """g^-1 in closed form, (..., n, n) -> (..., n, n): g^H for the
        unitary models, the adjugate for SL(2,R) (det g = 1)."""
        g = np.asarray(g)
        if self.kind == "SL2R":
            out = np.empty_like(g)
            out[..., 0, 0], out[..., 1, 1] = g[..., 1, 1], g[..., 0, 0]
            out[..., 0, 1], out[..., 1, 0] = -g[..., 0, 1], -g[..., 1, 0]
            return out
        return g.conj().swapaxes(-1, -2)

    # -- exp / log -----------------------------------------------------------

    def exp(self, X: np.ndarray) -> np.ndarray:
        """Matrix exponential in closed form, slice by slice over a stack.

        n = 2: with t = tr X / 2 and X0 = X - t I, X0^2 = delta I, so
        exp X = e^t (cosh q I + (sinh q / q) X0) for q = sqrt(delta).
        U(3): X = i H with H Hermitian (its lower triangle is read), and
        exp X = V diag(e^{i w}) V^H from eigh(H) = (w, V).  U(1): np.exp.
        """
        X = np.asarray(X)
        if self.n == 1:
            return np.exp(X)
        if self.n == 3:
            w, V = np.linalg.eigh(-1j * X)
            return (V * np.exp(1j * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)
        # one flat stack, so that a lone matrix takes the array loops too:
        # numpy's scalar arithmetic rounds complex products differently
        x = X.reshape(-1, 4)
        x00, x01, x10, x11 = x.T
        t, h = 0.5 * (x00 + x11), 0.5 * (x00 - x11)
        c, s = _cosh_sinhc(h * h + x01 * x10)
        et = np.exp(t)
        c, s = et * c, et * s
        sh = s * h
        out = np.empty(x.shape, dtype=c.dtype)
        out[:, 0], out[:, 1], out[:, 2], out[:, 3] = c + sh, s * x01, s * x10, c - sh
        return out.reshape(X.shape)

    def cayley(self, X: np.ndarray) -> np.ndarray:
        """The Cayley transform (I - X/2)^-1 (I + X/2) = 2 (I - X/2)^-1 - I,
        slice by slice over a stack: a rational map with cay(0) = I and
        dcay(0) = id, so a retraction onto G like exp (Absil-Mahony-
        Sepulchre, Optimization Algorithms on Matrix Manifolds, 4.1), and
        cay(X) cay(-X) = I.  It lands in G: unitary for skew-Hermitian X,
        det 1 for traceless 2 x 2 X, where det(I + X/2) = det(I - X/2).

        n = 2, 3: M^-1 = adj M / det M for M = I - X/2, the adjugate from
        M's entries or its 3 x 3 cofactors, and det M from M's first row.
        U(1): the quotient (1 + X/2) / (1 - X/2).  At a singular M (X in
        sl(2,R) with eigenvalues +-2) the division gives inf or nan, not
        an exception; the unitary models have no singular M.
        """
        X = np.asarray(X)
        n = self.n
        if n == 1:
            return (1.0 + 0.5 * X) / (1.0 - 0.5 * X)
        # one flat stack, as in exp: a lone matrix takes the array loops too
        m = (self.identity - 0.5 * X).reshape(-1, n * n)
        adj = np.empty_like(m)  # C-ordered, where the gathered factors are not
        if n == 2:
            np.multiply(m[:, _ADJ2], _ADJ2_SIGNS, out=adj)
        else:
            f = m[:, _COFACTORS].reshape(-1, 4, 9)
            np.subtract(f[:, 0] * f[:, 1], f[:, 2] * f[:, 3], out=adj)
        det = m[:, 0] * adj[:, 0]
        for j in range(1, n):
            det += m[:, j] * adj[:, j * n]
        adj *= (2.0 / det)[:, None]
        adj[:, :: n + 1] -= 1.0
        return adj.reshape(X.shape)

    def log_principal(self, g: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Principal logarithm from the spectrum; refuses g whose eigenvalue
        arguments come within tol of pi (spectral margin of the logs below
        tol), which includes a negative real eigenvalue of SL(2,R).

        n = 2: with m = tr g / 2 and g0 = g - m I, the eigenvalues are
        m +- sqrt(eps) for g0^2 = eps I, and their principal logs mu +- nu
        give log g = mu I + b g0 for the divided difference
        b = (log l+ - log l-) / (l+ - l-) = e^-mu nu / sinh nu, smooth at a
        repeated eigenvalue, where g need not be diagonalizable.
        U(3): the complex Schur form g = Z T Z^H, T diagonal up to rounding
        for unitary g, and log g = Z diag(log T_aa) Z^H.
        """
        g = np.asarray(g)
        if self.n == 2:
            m = 0.5 * (g[0, 0] + g[1, 1])
            g0 = g - m * self.identity
            root = np.sqrt(complex(g0[0, 0] ** 2 + g0[0, 1] * g0[1, 0]))
            evals = np.array([m + root, m - root])
        elif self.n == 3:
            T, Z = schur(g, output="complex")
            evals = np.diag(T)
        else:
            evals = g.ravel().astype(complex)
        logs = np.log(evals)
        if spectral_margin(logs) < tol:
            raise LogBranchFailure("eigenvalue argument at the branch cut")
        if self.n == 2:
            mu, nu = 0.5 * (logs[0] + logs[1]), 0.5 * (logs[0] - logs[1])
            W = mu * self.identity + np.exp(-mu) / _cosh_sinhc(np.array([nu * nu]))[1][0] * g0
        elif self.n == 3:
            W = (Z * logs) @ Z.conj().T
        else:
            W = logs.reshape(1, 1)
        return self.project_alg(W)

    # -- adjoint structure -----------------------------------------------------

    def ad_matrix(self, X: np.ndarray) -> np.ndarray:
        """Matrix of ad_X on the algebra in basis coordinates (d x d, real);
        (..., n, n) -> (..., d, d)."""
        X = np.asarray(X)[..., None, :, :]
        return self._columns(X @ self.basis - self.basis @ X)

    def Ad_matrix(self, g: np.ndarray) -> np.ndarray:
        """Matrix of Ad_g = g (.) g^-1 in basis coordinates;
        (..., n, n) -> (..., d, d), each slice column-major.

        Entry (b, a) is vec_b(g basis[a] g^-1), a fixed bilinear form in the
        entries of g and h = inverse(g): the outer product g (x) h, split
        into real and imaginary parts (real alone for SL(2,R)), times the
        map built with the model, one row-times-matrix product per slice."""
        g = np.asarray(g)
        lead, n = g.shape[:-2], self.n
        w = g[..., :, :, None, None] * self.inverse(g)[..., None, None, :, :]
        w = w.reshape(lead + (1, n**4))
        if self.basis.dtype.kind == "c":
            w = np.concatenate([w.real, w.imag], axis=-1)
        return np.matmul(w.real, self._Ad_map).reshape(lead + (self.d, self.d)).swapaxes(-1, -2)

    def _columns(self, M: np.ndarray) -> np.ndarray:
        """(..., d, d) matrix whose column b is vec(M[..., b, :, :]), each
        slice column-major like Ad_matrix's; it serves ad_matrix."""
        return self.vec(M).swapaxes(-1, -2)

    def phi_ad(self, Lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi_functions of the stack (ad_Lam, -ad_Lam), each slice bitwise
        the call on it alone: phi1[0] is dexp_matrix(Lam), and
        symplectic.bform_matrix reads phi2 of both slices."""
        A = self.ad_matrix(Lam)
        return phi_functions(np.stack([A, -A]))

    def dexp_matrix(self, Lam: np.ndarray) -> np.ndarray:
        """Right-translated differential of exp: D = sum ad^k / (k+1)!,
        phi1 of ad_Lam (phi_ad)."""
        return self.phi_ad(Lam)[0][0]

    # -- center ----------------------------------------------------------------

    def is_central(self, g: np.ndarray, tol: float = 1e-8) -> bool | np.ndarray:
        """g commutes with every basis element, to tol relative to
        max(1, |g|); (..., n, n) -> (...) booleans, a bool for one element."""
        g = np.asarray(g)
        h = g[..., None, :, :]
        gap = np.linalg.norm(h @ self.basis - self.basis @ h, axis=(-2, -1)).max(axis=-1)
        out = gap <= tol * np.maximum(1.0, np.linalg.norm(g, axis=(-2, -1)))
        return bool(out) if out.ndim == 0 else out

    # -- random sampling ---------------------------------------------------------

    def random_alg(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return self.unvec(scale * rng.standard_normal(self.d))

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return self.exp(self.random_alg(rng, scale))


def spectral_margin(evals: np.ndarray) -> float:
    """pi - max |Im lambda| over the eigenvalues lambda of an algebra element
    (module docstring); positive exactly on the principal sheet."""
    return float(np.pi - np.max(np.abs(np.imag(evals))))


def phi_functions(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1(A) = sum A^k / (k+1)! and phi2(A) = sum A^k / (k+2)! for a
    stack (..., d, d) of real matrices.

    Taylor series at A / 2^s, with |A / 2^s|_1 <= 1/2 in every slice
    (truncation below 1e-18), then s doublings
        phi1(2X) = phi1 (X phi1 + 2) / 2,  phi2(2X) = (phi1 + phi2 (X phi1 + 2)) / 4,
    where X phi1 + 2 = e^X + 1.  The error stays a few ulps of the result.
    scipy's expm of the block matrix [[A, I], [0, 0]] loses three more
    digits when ad has real eigenvalues of modulus near 8 (hyperbolic
    elements of sl(2,R)), and that reaches dexp and the 2-form B."""
    A = np.asarray(A, dtype=np.result_type(A, float))
    eye = np.eye(A.shape[-1], dtype=A.dtype)
    norm = np.abs(A).sum(axis=-2).max(initial=0.0)
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    X = A / 2.0**s
    phi2 = eye / math.factorial(16)
    for k in range(13, -1, -1):
        phi2 = X @ phi2 + eye / math.factorial(k + 2)
    phi1 = eye + X @ phi2
    for _ in range(s):
        Y = X @ phi1 + 2.0 * eye
        phi1, phi2 = 0.5 * (phi1 @ Y), 0.25 * (phi1 + phi2 @ Y)
        X = 2.0 * X
    return phi1, phi2


# adj M of a flattened 2 x 2 M: its entries, permuted and signed
_ADJ2, _ADJ2_SIGNS = np.array([3, 1, 2, 0]), np.array([1.0, -1.0, -1.0, 1.0])

# adj(M)_ij = M_{j+1,i+1} M_{j+2,i+2} - M_{j+1,i+2} M_{j+2,i+1}, indices mod 3:
# the four factors of the nine entries (row-major in i, j), as indices into
# the flattened M, one block of nine per factor
_COFACTORS = np.array([
    [3 * ((j + r) % 3) + (i + c) % 3 for i in range(3) for j in range(3)]
    for r, c in ((1, 1), (2, 2), (1, 2), (2, 1))
]).ravel()


def _cosh_sinhc(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cosh q and sinh q / q for q = sqrt(delta), elementwise on a 1-d array.
    Both are entire in delta, so the branch of the root does not matter; a
    series replaces the quotient for |delta| < 1e-3 (truncation below
    3e-18).  Real delta gives real values."""
    q = np.sqrt(delta.astype(complex))
    c = np.cosh(q)
    small = np.abs(delta) < 1e-3
    if small.any():
        q[small] = 1.0
        d = delta[small]
        s = np.sinh(q) / q
        s[small] = 1.0 + d / 6.0 * (1.0 + d / 20.0 * (1.0 + d / 42.0))
    else:
        s = np.sinh(q) / q
    if delta.dtype.kind == "f":
        return c.real, s.real
    return c, s


def _su2_basis() -> np.ndarray:
    s = 1.0 / np.sqrt(2.0)
    e1 = s * np.array([[1j, 0], [0, -1j]])
    e2 = s * np.array([[0, 1], [-1, 0]], dtype=complex)
    e3 = s * np.array([[0, 1j], [1j, 0]])
    return np.array([e1, e2, e3])


def _un_basis(n: int) -> np.ndarray:
    out = []
    for k in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[k, k] = 1j
        out.append(E)
    s = 1.0 / np.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            A = np.zeros((n, n), dtype=complex)
            A[k, l], A[l, k] = s, -s
            out.append(A)
            B = np.zeros((n, n), dtype=complex)
            B[k, l] = B[l, k] = 1j * s
            out.append(B)
    return np.array(out)


def _sl2r_basis() -> np.ndarray:
    s = 1.0 / np.sqrt(2.0)
    H = s * np.array([[1.0, 0.0], [0.0, -1.0]])
    S = s * np.array([[0.0, 1.0], [1.0, 0.0]])
    K = s * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.array([H, S, K])


_REGISTRY = {
    "SU2": lambda: LieModel("SU", 2, _su2_basis(), "SU2"),
    "U1": lambda: LieModel("U", 1, _un_basis(1), "U1"),
    "U2": lambda: LieModel("U", 2, _un_basis(2), "U2"),
    "U3": lambda: LieModel("U", 3, _un_basis(3), "U3"),
    "SL2R": lambda: LieModel("SL2R", 2, _sl2r_basis(), "SL2R"),
}

_CACHE: dict[str, LieModel] = {}


def get_model(name: str) -> LieModel:
    key = name.upper().replace("(", "").replace(")", "").replace(",", "")
    if key not in _REGISTRY:
        raise UnsupportedModel(f"unknown group model {name!r}")
    if key not in _CACHE:
        _CACHE[key] = _REGISTRY[key]()
    return _CACHE[key]
