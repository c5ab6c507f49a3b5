"""Two- and three-site interactions, open chains, and kernel extraction.

Chains are assembled as sparse sums of embedded local terms.  Kernel bases
come from a dense eigensolve below DENSE_EIG_CAP and from ARPACK above it,
always with explicit residual certification; a silent bad Ritz pair must
never reach a caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .checks import VerificationReport
from .checks import cluster_degeneracies  # noqa: F401 (part of this module's API)
from .mps import MpsFamily, mps_vector
from .so_n import casimir_su2_pair, spin_matrices

CHAIN_DIM_CAP = 2_000_000
DENSE_EIG_CAP = 2048

KINDS = (
    "SWAP_Q",
    "SO_N_AKLT",
    "SOUTH_POLE",
    "AKLT_SU2",
    "MAJUMDAR_GHOSH",
    "HEISENBERG",
    "BILINEAR_BIQUADRATIC",
)

_SO_KINDS = ("SWAP_Q", "SO_N_AKLT", "SOUTH_POLE")


@dataclass(frozen=True)
class InteractionSpec:
    """Recipe for one translation-invariant local term.

    n is the local dimension for the SO(n) kinds; two_s is the doubled site
    spin for the su(2) kinds (doubled so half-integer spins stay exact).
    """

    kind: str
    n: int = 0
    two_s: int = 0
    a: float = 0.0
    b: float = 0.0
    J: float = 1.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.kind in _SO_KINDS and self.n < 2:
            raise ValueError(f"{self.kind} needs a local dimension n >= 2, got {self.n}")
        if self.kind not in _SO_KINDS and self.two_s < 1:
            raise ValueError(f"{self.kind} needs a positive site spin")

    @property
    def local_dim(self) -> int:
        if self.kind in _SO_KINDS:
            return self.n
        return self.two_s + 1

    @property
    def support(self) -> int:
        return 3 if self.kind == "MAJUMDAR_GHOSH" else 2


def swap_q(n: int, a: float, b: float) -> InteractionSpec:
    return InteractionSpec("SWAP_Q", n=n, a=a, b=b)


def so_n_aklt(n: int) -> InteractionSpec:
    return InteractionSpec("SO_N_AKLT", n=n)


def south_pole(n: int) -> InteractionSpec:
    return InteractionSpec("SOUTH_POLE", n=n)


def aklt_su2() -> InteractionSpec:
    return InteractionSpec("AKLT_SU2", two_s=2)


def majumdar_ghosh() -> InteractionSpec:
    return InteractionSpec("MAJUMDAR_GHOSH", two_s=1)


def heisenberg(s, J: float = 1.0) -> InteractionSpec:
    return InteractionSpec("HEISENBERG", two_s=spin_matrices(s).two_s, J=J)


def bilinear_biquadratic(theta: float) -> InteractionSpec:
    return InteractionSpec("BILINEAR_BIQUADRATIC", two_s=2, theta=theta)


def swap_matrix(n: int) -> np.ndarray:
    """Exchange of the two tensor factors of C^n tensor C^n."""
    out = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[j * n + i, i * n + j] = 1.0
    return out


def q_matrix(n: int) -> np.ndarray:
    """Rank-one projector onto the invariant pair state sum_i |ii> / sqrt(n)."""
    xi = np.zeros(n * n, dtype=complex)
    for i in range(n):
        xi[i * n + i] = 1.0
    xi /= np.sqrt(n)
    return np.outer(xi, xi.conj())


def _total_casimir_three_halves() -> np.ndarray:
    """(S1+S2+S3)^2 on three spin-1/2 sites."""
    sys = spin_matrices(0.5)
    eye = np.eye(2, dtype=complex)
    total = np.zeros((8, 8), dtype=complex)
    for S in sys.vector():
        Stot = (
            np.kron(S, np.kron(eye, eye))
            + np.kron(eye, np.kron(S, eye))
            + np.kron(eye, np.kron(eye, S))
        )
        total += Stot @ Stot
    return total


def majumdar_ghosh_raw() -> np.ndarray:
    """Pairwise sigma.sigma on three spin-1/2 sites (Pauli normalization)."""
    sys = spin_matrices(0.5)
    eye = np.eye(2, dtype=complex)
    out = np.zeros((8, 8), dtype=complex)
    for S in sys.vector():
        a = np.kron(S, np.kron(eye, eye))
        b = np.kron(eye, np.kron(S, eye))
        c = np.kron(eye, np.kron(eye, S))
        out += 4.0 * (a @ b + b @ c + a @ c)
    return out


def build_interaction(spec: InteractionSpec) -> np.ndarray:
    """Dense local term on (C^d)^support, Hermitian by construction."""
    kind = spec.kind
    if kind == "SWAP_Q":
        h = spec.a * swap_matrix(spec.n) + spec.b * q_matrix(spec.n)
    elif kind == "SO_N_AKLT":
        n = spec.n
        h = np.eye(n * n, dtype=complex) + swap_matrix(n) - 2.0 * q_matrix(n)
    elif kind == "SOUTH_POLE":
        h = -q_matrix(spec.n)
    elif kind == "AKLT_SU2":
        SS = casimir_su2_pair(1)
        h = np.eye(9, dtype=complex) / 3.0 + SS / 2.0 + (SS @ SS) / 6.0
    elif kind == "MAJUMDAR_GHOSH":
        # projector onto total spin 3/2: spectral polynomial in (S1+S2+S3)^2,
        # eigenvalues 15/4 and 3/4
        C = _total_casimir_three_halves()
        h = (C - 0.75 * np.eye(8)) / 3.0
    elif kind == "HEISENBERG":
        SS = casimir_su2_pair(spec.two_s / 2.0)
        h = spec.J * SS
    else:  # BILINEAR_BIQUADRATIC
        SS = casimir_su2_pair(1)
        h = np.cos(spec.theta) * SS + np.sin(spec.theta) * (SS @ SS)
    dev = np.max(np.abs(h - h.conj().T))
    if dev > 1e-12:
        raise AssertionError(f"local term lost hermiticity, deviation {dev:.3e}")
    return h


def embedded_term(h: np.ndarray, l: int, x: int, d: int) -> sp.coo_matrix:
    """h acting on sites x..x+support-1 of a length-l chain, identity elsewhere."""
    support = round(np.log(h.shape[0]) / np.log(d))
    if d**support != h.shape[0]:
        raise ValueError(f"term of shape {h.shape} is not a {d}-level operator")
    if x < 0 or x + support > l:
        raise ValueError(f"term on sites {x}..{x + support - 1} does not fit length {l}")
    left = sp.identity(d**x, format="coo", dtype=complex)
    right = sp.identity(d ** (l - x - support), format="coo", dtype=complex)
    return sp.kron(left, sp.kron(sp.coo_matrix(h), right, format="coo"), format="coo")


@dataclass(frozen=True)
class ChainHamiltonian:
    spec: InteractionSpec
    length: int
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def chain_hamiltonian(spec: InteractionSpec, l: int, cap: int = CHAIN_DIM_CAP) -> ChainHamiltonian:
    """Open chain sum_x h_x of the local term on l sites."""
    support = spec.support
    if l < support:
        raise ValueError(f"chain length {l} shorter than the term support {support}")
    d = spec.local_dim
    if d**l > cap:
        raise ValueError(f"chain dimension {d}^{l} exceeds the cap {cap}")
    h = build_interaction(spec)
    total = sp.coo_matrix((d**l, d**l), dtype=complex)
    for x in range(l - support + 1):
        total = total + embedded_term(h, l, x, d)
    return ChainHamiltonian(spec, l, total.tocsr())


def _norm_bound(H) -> float:
    """Infinity-norm upper bound on the spectral radius."""
    if sp.issparse(H):
        return float(np.abs(H).sum(axis=1).max())
    return float(np.max(np.sum(np.abs(H), axis=1)))


@dataclass(frozen=True)
class KernelBasis:
    vectors: np.ndarray
    residuals: np.ndarray
    tol: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _certify_pairs(H, vals: np.ndarray, vecs: np.ndarray, scale: float) -> None:
    res = np.linalg.norm(H @ vecs - vecs * vals[np.newaxis, :], axis=0)
    bad = res > 1e-9 * max(1.0, scale)
    if np.any(bad):
        report = ", ".join(f"lambda={vals[i]:.3e} res={res[i]:.3e}" for i in np.flatnonzero(bad))
        raise RuntimeError(f"uncertified Ritz pairs from the iterative eigensolver: {report}")


def kernel_basis(H, tol: float | None = None, expected: int | None = None,
                 method: str = "auto") -> KernelBasis:
    """Orthonormal basis of the numerical kernel of a Hermitian H.

    The iterative path assumes H is positive semidefinite (it hunts the
    smallest algebraic eigenvalues); a clearly negative eigenvalue is an
    error there, not a kernel candidate.
    """
    dim = H.shape[0]
    scale = _norm_bound(H)
    tol_eff = (1e-10 if tol is None else tol) * max(1.0, scale)

    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown kernel method {method!r}")
    use_dense = method == "dense" or (method == "auto" and dim < DENSE_EIG_CAP)

    if use_dense:
        Hd = H.toarray() if sp.issparse(H) else np.asarray(H)
        vals, vecs = np.linalg.eigh(Hd)
        keep = np.abs(vals) < tol_eff
        V = vecs[:, keep]
    else:
        k = (expected if expected is not None else 8) + 8
        while True:
            k = min(k, dim - 2)
            try:
                vals, vecs = spla.eigsh(H, k=k, which="SA",
                                        ncv=min(dim - 1, max(4 * k, 40)), maxiter=10_000)
            except spla.ArpackNoConvergence as exc:
                raise RuntimeError(f"ARPACK failed to converge for k={k} on dim {dim}") from exc
            _certify_pairs(H, vals, vecs, scale)
            if np.min(vals) < -tol_eff:
                raise RuntimeError(
                    f"iterative kernel extraction hit eigenvalue {np.min(vals):.3e} < 0; "
                    "the operator is not positive semidefinite")
            keep = np.abs(vals) < tol_eff
            if np.count_nonzero(keep) < k or k == dim - 2:
                V = vecs[:, keep]
                break
            k = 2 * k  # every Ritz value was in the kernel; it may extend further

    if V.shape[1] > 0:
        V, _ = np.linalg.qr(V)
    residuals = np.linalg.norm(H @ V, axis=0) if V.shape[1] else np.zeros(0)
    gram_dev = np.max(np.abs(V.conj().T @ V - np.eye(V.shape[1]))) if V.shape[1] else 0.0
    if gram_dev > 1e-10:
        raise RuntimeError(f"kernel basis failed orthonormality, deviation {gram_dev:.3e}")
    return KernelBasis(V, residuals, tol_eff)


def low_spectrum(spec: InteractionSpec, l: int, k: int = 6,
                 cap: int = CHAIN_DIM_CAP) -> np.ndarray:
    """k smallest chain eigenvalues, ascending."""
    H = chain_hamiltonian(spec, l, cap).matrix
    dim = H.shape[0]
    if dim < DENSE_EIG_CAP:
        vals = np.linalg.eigvalsh(H.toarray())
        return vals[: min(k, dim)]
    k = min(k, dim - 2)
    vals, vecs = spla.eigsh(H, k=k, which="SA", ncv=min(dim - 1, max(4 * k, 40)),
                            maxiter=10_000)
    _certify_pairs(H, vals, vecs, _norm_bound(H))
    return np.sort(vals)


def mps_ground_space(n: int, l: int) -> np.ndarray:
    """Orthonormal basis of the span of the length-l bond-algebra states.

    Grade parity ties the useful bond domain to the chain length: for even n
    only even-grade elements survive at even l and odd-grade ones at odd l;
    for odd n the positive half-projector domain covers both parities.
    """
    if n % 2 == 0:
        domain = "even" if l % 2 == 0 else "odd"
    else:
        domain = "p_plus"
    fam = MpsFamily(n, domain)
    cols = [mps_vector(fam, l, B) for B in fam.basis()]
    M = np.column_stack(cols)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    keep = s > 1e-10 * s[0]
    return U[:, keep]


def projector_distance(Qa: np.ndarray, Qb: np.ndarray) -> float:
    """Operator-norm distance of the projectors onto two orthonormal spans.

    Computed from the residuals (1-P_a)Q_b rather than from min singular
    values of the overlap, which would floor out at sqrt(eps) for equal spans.
    """
    if Qa.shape[1] != Qb.shape[1]:
        return 1.0
    if Qa.shape[1] == 0:
        return 0.0
    ra = np.linalg.svd(Qb - Qa @ (Qa.conj().T @ Qb), compute_uv=False)[0]
    rb = np.linalg.svd(Qa - Qb @ (Qb.conj().T @ Qa), compute_uv=False)[0]
    return float(max(ra, rb))


def subspace_intersection(Qa: np.ndarray, Qb: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the intersection of two orthonormal spans."""
    if Qa.shape[1] == 0 or Qb.shape[1] == 0:
        return np.zeros((Qa.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(Qa.conj().T @ Qb)
    keep = s > 1.0 - tol
    V = Qa @ U[:, keep]
    if V.shape[1]:
        V, _ = np.linalg.qr(V)
    return V


def parent_check(n: int, l: int, cap: int = CHAIN_DIM_CAP,
                 tol: float = 1e-10) -> VerificationReport:
    """Chain kernel against the bond-algebra state span, dims and distance.

    tol is the kernel cut-off of kernel_basis, relative to the norm bound.
    """
    expected = 2 ** (n - 1)
    H = chain_hamiltonian(so_n_aklt(n), l, cap)
    K = kernel_basis(H.matrix, tol=tol, expected=expected)
    G = mps_ground_space(n, l)
    dist = projector_distance(K.vectors, G)
    passed = K.dim == expected and G.shape[1] == expected and dist < 1e-8
    numbers = {
        "expected_dim": float(expected),
        "kernel_dim": float(K.dim),
        "mps_dim": float(G.shape[1]),
        "projector_distance": dist,
        "max_residual": float(np.max(K.residuals)) if K.dim else 0.0,
    }
    return VerificationReport(f"parent_check(n={n}, l={l})", passed, numbers)


def _local_kernel(h: np.ndarray, tol: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return vecs[:, np.abs(vals) < tol]


def frustration_free_check(spec: InteractionSpec, l: int, cap: int = CHAIN_DIM_CAP,
                           tol: float = 1e-10) -> VerificationReport:
    """Shift the term to PSD, then test ker(sum h_x) = intersection of ker h_x.

    The two sides are computed independently: the left from the assembled
    chain, the right by intersecting embedded per-term kernels.  The report
    passes when they agree; whether the chain is frustration free is a
    separate number in the payload.  tol is the kernel cut-off, relative to
    the norm bound, of the chain, of each term and of the ground energy.
    """
    d = spec.local_dim
    support = spec.support
    if d**l > cap:
        raise ValueError(f"chain dimension {d}^{l} exceeds the cap {cap}")
    h = build_interaction(spec)
    shift = float(np.min(np.linalg.eigvalsh(h)))
    h_psd = h - shift * np.eye(h.shape[0])

    terms = [embedded_term(h_psd, l, x, d) for x in range(l - support + 1)]
    H = sum(terms[1:], terms[0]).tocsr()
    scale = _norm_bound(H)
    tol_eff = tol * max(1.0, scale)

    K = kernel_basis(H, tol=tol)

    inter = None
    for x in range(l - support + 1):
        V_local = _local_kernel(h_psd, tol * max(1.0, _norm_bound(h_psd)))
        left = np.eye(d**x, dtype=complex)
        right = np.eye(d ** (l - x - support), dtype=complex)
        Q_x = np.kron(left, np.kron(V_local, right))
        inter = Q_x if inter is None else subspace_intersection(inter, Q_x)
    assert inter is not None

    if spec.local_dim**l < DENSE_EIG_CAP:
        e0 = float(np.min(np.linalg.eigvalsh(H.toarray())))
    else:
        vals, vecs = spla.eigsh(H, k=1, which="SA", maxiter=10_000)
        _certify_pairs(H, vals, vecs, scale)
        e0 = float(vals[0])

    dist = projector_distance(K.vectors, inter)
    ff = K.dim > 0 and e0 < tol_eff
    passed = K.dim == inter.shape[1] and (K.dim == 0 or dist < 1e-8)
    numbers = {
        "ground_energy": e0,
        "kernel_dim": float(K.dim),
        "intersection_dim": float(inter.shape[1]),
        "projector_distance": dist,
        "term_shift": -shift,
        "frustration_free": 1.0 if ff else 0.0,
    }
    return VerificationReport(f"frustration_free_check({spec.kind}, l={l})", passed, numbers)
