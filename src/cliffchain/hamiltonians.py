"""Two- and three-site interactions, open chains, and kernel extraction.

The assembled chain, a scipy.sparse sum of embedded local terms, serves
only the dense oracles (kernel_basis, low_spectrum), and scipy.sparse is
imported inside the functions that build it, so importing this module
loads numpy alone.  The kernel of an open chain of PSD terms is the
intersection of the term kernels, and chain_kernel grows it one site at a
time as an isometric MPS.  By the isometry lemma in its docstring, each
step's rank decision is one SVD of an (r_k d^s) x (r_m d) bond-space
matrix, with the singular values and right singular vectors of the
d^(m+1)-row chain matrix, and the singular values on both sides of the
cut-off are the certificate.  kernel_basis, the oracle it is checked
against, eigensolves the assembled chain up to
DENSE_EIG_CAP, block by block: the connected components of the support
graph of H make it block diagonal (the direct-sum lemma in kernel_basis),
and for the SO(n) chains they are the 2^(n-1) colour-parity sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .checks import VerificationReport, component_stacks
from .checks import cluster_degeneracies  # noqa: F401 (part of this module's API)
from .mps import MpsFamily, basis_states
from .so_n import casimir_su2_pair, spin_matrices

if TYPE_CHECKING:
    import scipy.sparse as sp

CHAIN_DIM_CAP = 2_000_000
DENSE_EIG_CAP = 2048


def __getattr__(name: str):
    # hamiltonians.spla stays resolvable although nothing here uses ARPACK:
    # perfbench/workloads.py::seed_arpack and perfbench/tracer.py::Tracer.install
    # read it and rebind its eigsh, and every campaign-all pass and every
    # traced pass fails without it.  It is imported on first access so that
    # importing the module does not load scipy.sparse.linalg.
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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


def _support(h: np.ndarray, d: int) -> int:
    """Number of d-level sites a local term acts on."""
    support = round(np.log(h.shape[0]) / np.log(d))
    if d**support != h.shape[0]:
        raise ValueError(f"term of shape {h.shape} is not a {d}-level operator")
    return support


def embedded_term(h: np.ndarray, l: int, x: int, d: int) -> sp.coo_matrix:
    """h acting on sites x..x+support-1 of a length-l chain, identity elsewhere."""
    import scipy.sparse as sp

    support = _support(h, d)
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
    import scipy.sparse as sp

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
    """Infinity-norm upper bound on the spectral radius, of a dense or sparse H."""
    return float(np.abs(H).sum(axis=1).max())


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal kernel basis with the margin of its rank cut-off.

    kept_max is the largest value taken as kernel and dropped_min the
    smallest value above the cut-off tol: eigenvalue moduli over all blocks
    for kernel_basis, singular values over all steps for chain_kernel.
    Report rows carry tol as cutoff, between kept_max and dropped_min.
    blocks holds the size of each diagonal block kernel_basis solved; it is
    empty for chain_kernel.
    """

    vectors: np.ndarray
    residuals: np.ndarray
    tol: float
    kept_max: float
    dropped_min: float
    blocks: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _real_if_exact(A: np.ndarray) -> np.ndarray:
    return A if np.any(A.imag) else A.real


def _margin(values: np.ndarray, keep: np.ndarray) -> tuple[float, float]:
    """Largest kept and smallest dropped value of a rank cut-off."""
    return float(np.max(values[keep], initial=0.0)), float(np.min(values[~keep], initial=math.inf))


def _diagonal_blocks(H) -> list[tuple[np.ndarray, np.ndarray]]:
    """H as dense diagonal blocks, one per connected component of its support.

    Returns (idx, stack) pairs: idx is a (count, size) array of basis
    indices and stack the (count, size, size) array of the blocks
    H[idx_b, idx_b]; blocks of one size share one stack.  The blocks are
    filled from the nonzero entries of H, so no dim x dim array is formed,
    and they are real when H has no imaginary part.
    """
    import scipy.sparse as sp

    A = sp.csr_matrix(H, copy=True)
    A.sum_duplicates()
    coo = A.tocoo()
    nz = coo.data != 0
    rows, cols, vals = coo.row[nz], coo.col[nz], _real_if_exact(coo.data[nz])
    dim = A.shape[0]
    stacks = [idx for (idx,) in component_stacks(rows, cols, dim, np.arange(dim))]
    group, block, pos = (np.empty(dim, dtype=np.intp) for _ in range(3))
    for g, idx in enumerate(stacks):
        group[idx] = g
        block[idx] = np.arange(idx.shape[0])[:, None]
        pos[idx] = np.arange(idx.shape[1])
    out = []
    for g, idx in enumerate(stacks):
        count, size = idx.shape
        mine = group[rows] == g
        r, c = rows[mine], cols[mine]
        stack = np.zeros((count, size, size), dtype=vals.dtype)
        stack[block[r], pos[r], pos[c]] = vals[mine]
        out.append((idx, stack))
    return out


def kernel_basis(H, tol: float = 1e-10) -> KernelBasis:
    """Kernel of a Hermitian H from dense eigensolves: the oracle for chain_kernel.

    Direct-sum lemma: join i and j wherever H_ij != 0 (an exact test, no
    tolerance).  Listing the basis component by component is a symmetric
    permutation that makes H exactly block diagonal, so ker H is the direct
    sum of the kernels of the blocks, each embedded with zeros outside its
    component.  Nothing about SO(n) is assumed: the components are read off
    H, and for the SO(n) chains they are the 2^(n-1) colour-parity sectors
    of the diagonal axis flips.  Blocks of one size share one stacked eigh,
    and each runs in real arithmetic when H has no imaginary part.

    The cut-off is tol times the norm bound of the whole H, and kept_max /
    dropped_min are taken over all blocks.  H of total dimension above
    DENSE_EIG_CAP is refused.
    """
    dim = H.shape[0]
    if dim > DENSE_EIG_CAP:
        raise ValueError(f"dense kernel of dimension {dim} exceeds {DENSE_EIG_CAP}")
    tol_eff = tol * max(1.0, _norm_bound(H))
    vectors, moduli, kept, sizes = [], [], [], []
    for idx, stack in _diagonal_blocks(H):
        vals, vecs = np.linalg.eigh(stack)
        keep = np.abs(vals) < tol_eff
        b, j = np.nonzero(keep)
        V = np.zeros((dim, b.size), dtype=vecs.dtype)
        V[idx[b], np.arange(b.size)[:, None]] = vecs[b, :, j]
        vectors.append(V)
        moduli.append(np.abs(vals).ravel())
        kept.append(keep.ravel())
        sizes += [idx.shape[1]] * idx.shape[0]
    V = np.concatenate(vectors, axis=1)
    return KernelBasis(V, np.linalg.norm(H @ V, axis=0), tol_eff,
                       *_margin(np.concatenate(moduli), np.concatenate(kept)), tuple(sizes))


def _apply_term(h: np.ndarray, X: np.ndarray, x: int, d: int) -> np.ndarray:
    """h on sites x..x+support-1 of every column of X, by reshape."""
    return (h @ X.reshape(d**x, h.shape[0], -1)).reshape(X.shape)


def _contract(tensors: list[np.ndarray], r0: int, d: int) -> np.ndarray:
    """(1_{r0} x 1_{d^j}) N_1 ... N_j for site tensors N_i of shape (r_{i-1} d, r_i).

    The result is the (r0 d^j) x r_j matrix of the chain of tensors; with
    no tensor it is the identity on r0.
    """
    X = np.eye(r0)
    for N in tensors:
        r, r_next = X.shape[1], N.shape[1]
        X = (X @ N.reshape(r, d * r_next)).reshape(X.shape[0] * d, r_next)
    return X


def chain_kernel(h: np.ndarray, l: int, d: int, tol: float = 1e-10) -> KernelBasis:
    """Kernel of the open chain sum_x h_x of a PSD term, grown site by site in bond space.

    ker H is the intersection of the ker h_x, so a kernel basis V_m on m
    sites extends as V_{m+1} = (V_m x 1_d) N_{m+1}, where N_{m+1} spans the
    null space of the chain matrix (1 x h)(V_m x 1_d).  V_m is kept as an
    isometric MPS, the list of site tensors N_j of shape (r_{j-1} d, r_j)
    with r_0 = 1.  With s the support of h, the first s-1 tensors are
    identities, so V_{s-1} is the identity on d^(s-1).

    Lemma.  Let k = m+1-s.  Then V_m =
    (V_k x 1_{d^(s-1)}) B_m, where B_m, of shape (r_k d^(s-1), r_m), is the
    isometry contracted from the last s-1 tensors N_{k+1}..N_m.  Since h
    acts on the last s sites only,

        (1 x h)(V_m x 1_d) = (V_k x 1_{d^s}) [(1_{r_k} x h)(B_m x 1_d)].

    The left factor is an isometry, so the bracket, an (r_k d^s) x (r_m d)
    matrix, has the same singular values and the same right singular
    vectors as the d^(m+1)-row chain matrix: N_{m+1}, kept_max and
    dropped_min are those of the chain matrix.  The bracket is at least as
    tall as it is wide, because r_m <= r_{m-1} d gives r_m <= r_k d^(s-1),
    so its thin SVD gives a singular value for every column.

    Each step is one SVD of the bracket, with the rank read against tol
    times the norm bound of h; no matrix with d^(m+1) rows is factored and
    no d^l x d^l array is formed.  The first step, from the identity on
    s-1 sites, gives ker h.  Once a step leaves no null vector the kernel
    is empty at every longer length, and the remaining steps are skipped.
    V_l is assembled once at the end, and its residuals ||H v|| on the
    whole chain are the end-to-end certificate.
    """
    support = _support(h, d)
    if l < support:
        raise ValueError(f"chain length {l} shorter than the term support {support}")
    h = _real_if_exact(np.asarray(h))
    tol_eff = tol * max(1.0, _norm_bound(h))
    tensors = [np.eye(d**j, dtype=h.dtype) for j in range(1, support)]
    ranks = [d**j for j in range(support)]
    h4 = h.reshape(d ** (support - 1), d, d ** (support - 1), d)
    kept, dropped = 0.0, math.inf
    for m in range(support - 1, l):
        k = m + 1 - support
        B = _contract(tensors[k:], ranks[k], d).reshape(ranks[k], -1, ranks[m])
        # bracket[(a, p, i), (c, j)] = sum_q h[(p, i), (q, j)] B[(a, q), c]
        bracket = np.einsum("piqj,aqc->apicj", h4, B)
        _, sv, vh = np.linalg.svd(bracket.reshape(ranks[k] * d**support, ranks[m] * d),
                                  full_matrices=False)
        null = sv < tol_eff
        step_kept, step_dropped = _margin(sv, null)
        kept, dropped = max(kept, step_kept), min(dropped, step_dropped)
        tensors.append(vh[null].conj().T)
        ranks.append(tensors[-1].shape[1])
        if not ranks[-1]:
            break
    V = _contract(tensors, 1, d) if ranks[-1] else np.zeros((d**l, 0), h.dtype)
    HV = sum(_apply_term(h, V, x, d) for x in range(l - support + 1))
    return KernelBasis(V, np.linalg.norm(HV, axis=0), tol_eff, kept, dropped)


def low_spectrum(spec: InteractionSpec, l: int, k: int = 6,
                 cap: int = CHAIN_DIM_CAP) -> np.ndarray:
    """k smallest chain eigenvalues, ascending, from dense eigensolves of H's blocks.

    The blocks are those of kernel_basis (the direct-sum lemma there).  A
    chain of dimension above DENSE_EIG_CAP is refused, as kernel_basis
    refuses it.
    """
    dim = spec.local_dim**l
    if dim > DENSE_EIG_CAP:
        raise ValueError(f"dense spectrum of dimension {dim} exceeds {DENSE_EIG_CAP}")
    H = chain_hamiltonian(spec, l, cap).matrix
    vals = np.concatenate([np.linalg.eigvalsh(stack).ravel()
                           for _, stack in _diagonal_blocks(H)])
    return np.sort(vals)[: min(k, dim)]


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
    U, s, _ = np.linalg.svd(basis_states(MpsFamily(n, domain), l), full_matrices=False)
    keep = s > 1e-10 * s[0]
    return U[:, keep]


def projector_distance(Qa: np.ndarray, Qb: np.ndarray) -> float:
    """Operator-norm distance of the projectors onto two orthonormal spans.

    Computed from the residuals (1-P_a)Q_b rather than from min singular
    values of the overlap, which would floor out at sqrt(eps) for equal spans.
    The largest singular value of a residual R is the square root of the top
    eigenvalue of its r x r Gram R^H R, so no d^l-row matrix is factored.
    """
    if Qa.shape[1] != Qb.shape[1]:
        return 1.0
    if Qa.shape[1] == 0:
        return 0.0

    def top_singular_value(R: np.ndarray) -> float:
        return math.sqrt(max(float(np.linalg.eigvalsh(R.conj().T @ R)[-1]), 0.0))

    return max(top_singular_value(Qb - Qa @ (Qa.conj().T @ Qb)),
               top_singular_value(Qa - Qb @ (Qb.conj().T @ Qa)))


def parent_check(n: int, l: int, cap: int = CHAIN_DIM_CAP,
                 tol: float = 1e-10) -> VerificationReport:
    """Chain kernel against the bond-algebra state span, dims and distance.

    The kernel comes from chain_kernel; tol is its cut-off, relative to the
    norm bound of the local term, and the absolute cut-off is reported as
    cutoff.
    """
    if n**l > cap:
        raise ValueError(f"chain dimension {n}^{l} exceeds the cap {cap}")
    expected = 2 ** (n - 1)
    K = chain_kernel(build_interaction(so_n_aklt(n)), l, n, tol)
    G = mps_ground_space(n, l)
    dist = projector_distance(K.vectors, G)
    passed = K.dim == expected and G.shape[1] == expected and dist < 1e-8
    numbers = {
        "expected_dim": float(expected),
        "kernel_dim": float(K.dim),
        "mps_dim": float(G.shape[1]),
        "projector_distance": dist,
        "max_residual": float(np.max(K.residuals)) if K.dim else 0.0,
        "kept_max": K.kept_max,
        "cutoff": K.tol,
        "dropped_min": K.dropped_min,
    }
    return VerificationReport(f"parent_check(n={n}, l={l})", passed, numbers)


def frustration_free_check(spec: InteractionSpec, l: int, cap: int = CHAIN_DIM_CAP,
                           tol: float = 1e-10) -> VerificationReport:
    """Shift the term to PSD, then test ker(sum h_x) = intersection of ker h_x.

    The two sides are computed independently: the left by the dense oracle
    kernel_basis on the assembled chain, the right by chain_kernel's
    site-by-site intersection.  The report passes when they agree; whether
    the chain is frustration free (its kernel is not empty) is a separate
    number in the payload, and ground_energy is the lowest eigenvalue modulus
    of the shifted chain.  tol is the cut-off of both kernels, relative to
    the norm bound of the chain and of the term; the absolute cut-offs are
    reported as oracle_cutoff and cutoff.
    """
    d = spec.local_dim
    if d**l > cap:
        raise ValueError(f"chain dimension {d}^{l} exceeds the cap {cap}")
    h = build_interaction(spec)
    shift = float(np.min(np.linalg.eigvalsh(h)))
    h_psd = h - shift * np.eye(h.shape[0])

    terms = [embedded_term(h_psd, l, x, d) for x in range(l - spec.support + 1)]
    K = kernel_basis(sum(terms[1:], terms[0]), tol=tol)
    inter = chain_kernel(h_psd, l, d, tol)

    dist = projector_distance(K.vectors, inter.vectors)
    passed = K.dim == inter.dim and (K.dim == 0 or dist < 1e-8)
    numbers = {
        "ground_energy": float(np.min(K.residuals)) if K.dim else K.dropped_min,
        "kernel_dim": float(K.dim),
        "intersection_dim": float(inter.dim),
        "projector_distance": dist,
        "term_shift": -shift,
        "frustration_free": 1.0 if K.dim else 0.0,
        "kept_max": inter.kept_max,
        "cutoff": inter.tol,
        "dropped_min": inter.dropped_min,
        "oracle_kept_max": K.kept_max,
        "oracle_cutoff": K.tol,
        "oracle_dropped_min": K.dropped_min,
        "oracle_blocks": float(len(K.blocks)),
        "oracle_largest_block": float(max(K.blocks, default=0)),
    }
    return VerificationReport(f"frustration_free_check({spec.kind}, l={l})", passed, numbers)
