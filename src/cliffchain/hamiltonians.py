"""Two- and three-site interactions, open chains, and kernel extraction.

A local term is a plain Hermitian array on (C^d)^s, and every chain
routine takes it with its local dimension d.  The assembled chain is one
numpy array of nonzero entries (rows, cols, vals) of the sum of the local
terms (chain_entries); it serves only the dense oracle kernel_basis, and
the module computes with numpy alone.  The kernel of an open chain of PSD
terms is the intersection of the term kernels, and _grow_kernel grows it
one site at a time as an isometric MPS.  By the isometry lemma in its
docstring, each step's rank decision is one SVD of an (r_k d^s) x (r_m d)
bond-space bracket, with the singular values and right singular vectors
of the d^(m+1)-row chain matrix, and the singular values on both sides
of the cut-off are the certificate.  chain_kernel assembles the basis
from the growth for the dense paths.  parent_check takes the same
intersection in the bond algebra instead: ker H_l = span psi_l for the
SO(n) AKLT chain at every length l >= 2, by the nullity of one small
integer system per length, counted exactly mod a prime in one charge
block per grade (the lemmas are in its docstring), with no cut-off and
no d^l-row array; mps_ground_space and projector_distance are the dense
oracles its tests compare against.
kernel_basis, the oracle for chain_kernel, eigensolves the assembled
chain up to DENSE_EIG_CAP, block by block: the connected components of
the support graph of H make it block diagonal (the direct-sum lemma in
kernel_basis), and for the SO(n) chains they are the 2^(n-1)
colour-parity sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import VerificationReport, component_stacks
from .clifford import _merge_sign, gamma0
from .mps import MpsFamily, basis_states, span_dim
from .so_n import casimir_su2_pair, spin_matrices

DENSE_EIG_CAP = 2048
# 119 * 2^23 + 1: PRIME = 1 mod 4, and 3 generates its units, so
# 3^((PRIME-1)/4) is a square root of -1 mod PRIME
PRIME = 998_244_353
_SQRT_MINUS_ONE = pow(3, (PRIME - 1) // 4, PRIME)


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


def _hermitian(h: np.ndarray) -> np.ndarray:
    """h itself, after asserting that it is Hermitian to 1e-12."""
    dev = np.max(np.abs(h - h.conj().T))
    if dev > 1e-12:
        raise AssertionError(f"local term lost hermiticity, deviation {dev:.3e}")
    return h


def so_n_aklt(n: int) -> np.ndarray:
    """The SO(n) AKLT term 1 + SWAP - 2Q on C^n x C^n, the parent term of the Clifford chains."""
    if n < 2:
        raise ValueError(f"so_n_aklt needs a local dimension n >= 2, got {n}")
    return _hermitian(np.eye(n * n, dtype=complex) + swap_matrix(n) - 2.0 * q_matrix(n))


def aklt_su2() -> np.ndarray:
    """The spin-1 AKLT term 1/3 + S.S/2 + (S.S)^2/6, the spin-2 projector on V_1 x V_1."""
    SS = casimir_su2_pair(1)
    return _hermitian(np.eye(9, dtype=complex) / 3.0 + SS / 2.0 + (SS @ SS) / 6.0)


def majumdar_ghosh() -> np.ndarray:
    """The Majumdar-Ghosh term on three spin-1/2 sites: the projector onto total spin 3/2."""
    # spectral polynomial in (S1+S2+S3)^2 = 9/4 + (pairwise sigma.sigma) / 2,
    # eigenvalues 15/4 and 3/4
    C = 2.25 * np.eye(8) + majumdar_ghosh_raw() / 2
    return _hermitian((C - 0.75 * np.eye(8)) / 3.0)


def _support(h: np.ndarray, d: int) -> int:
    """Number of d-level sites a local term acts on."""
    support = round(np.log(h.shape[0]) / np.log(d))
    if d**support != h.shape[0]:
        raise ValueError(f"term of shape {h.shape} is not a {d}-level operator")
    return support


class Entries(NamedTuple):
    """The nonzero entries H[rows[e], cols[e]] = vals[e] of a dim x dim matrix H."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int

    def norm_bound(self) -> float:
        """Infinity-norm upper bound on the spectral radius: the largest absolute row sum."""
        return float(np.bincount(self.rows, np.abs(self.vals), self.dim).max(initial=0.0))


def chain_entries(h: np.ndarray, l: int, d: int) -> Entries:
    """Nonzero entries of the open chain sum_x h_x of a local term on l sites.

    h_x, the term on sites x..x+s-1, has the entry h[p, q] at row
    (a, p, c) and column (a, q, c) for every left index a < d^x and right
    index c < d^(l-x-s).  Entries at one position are summed in the order
    of x and sums that are exactly zero are dropped, so the support graph
    kernel_basis splits on holds exact nonzeros only.  No d^l x d^l array
    is formed.
    """
    support = _support(h, d)
    if l < support:
        raise ValueError(f"chain length {l} shorter than the term support {support}")
    dim = d**l
    p, q = np.nonzero(h)
    keys, vals = [], []
    for x in range(l - support + 1):
        a = np.arange(d**x)[:, None, None] * d**support
        c = np.arange(d ** (l - x - support))
        rows = (a + p[:, None]) * c.size + c
        cols = (a + q[:, None]) * c.size + c
        keys.append((rows * dim + cols).ravel())
        vals.append(np.broadcast_to(h[p, q][:, None], rows.shape).ravel())
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    first = np.diff(keys[order], prepend=-1) != 0
    group = np.empty_like(order)
    group[order] = np.cumsum(first) - 1
    # np.add.at adds in the order of its indices, that is of x
    total = np.zeros(np.count_nonzero(first), dtype=h.dtype)
    np.add.at(total, group, np.concatenate(vals))
    keys, nz = keys[order][first], total != 0
    return Entries(keys[nz] // dim, keys[nz] % dim, total[nz], dim)


def _norm_bound(h: np.ndarray) -> float:
    """Infinity-norm upper bound on the spectral radius of a dense h."""
    return float(np.abs(h).sum(axis=1).max())


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


def _diagonal_blocks(H: Entries) -> list[tuple[np.ndarray, np.ndarray]]:
    """H as dense diagonal blocks, one per connected component of its support.

    Returns (idx, stack) pairs: idx is a (count, size) array of basis
    indices and stack the (count, size, size) array of the blocks
    H[idx_b, idx_b]; blocks of one size share one stack.  The blocks are
    filled from the nonzero entries of H, so no dim x dim array is formed,
    and they are real when H has no imaginary part.
    """
    rows, cols, vals, dim = H.rows, H.cols, _real_if_exact(H.vals), H.dim
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


def kernel_basis(H: Entries, tol: float = 1e-10) -> KernelBasis:
    """Kernel of a Hermitian H from dense eigensolves: the oracle for chain_kernel.

    Direct-sum lemma: join i and j wherever H_ij != 0 (an exact test, no
    tolerance).  Listing the basis component by component is a symmetric
    permutation that makes H exactly block diagonal, so ker H is the direct
    sum of the kernels of the blocks, each embedded with zeros outside its
    component.  Nothing about SO(n) is assumed: the components are read off
    H, and for the SO(n) chains they are the 2^(n-1) colour-parity sectors
    of the diagonal axis flips.  Blocks of one size share one stacked eigh,
    and each runs in real arithmetic when H has no imaginary part.

    H is given by its nonzero entries (chain_entries builds them for a
    chain).  The cut-off is tol times the norm bound of the whole H, and
    kept_max / dropped_min are taken over all blocks; the residuals ||H v||
    are summed from the entries.  H of total dimension above DENSE_EIG_CAP
    is refused.
    """
    dim = H.dim
    if dim > DENSE_EIG_CAP:
        raise ValueError(f"dense kernel of dimension {dim} exceeds {DENSE_EIG_CAP}")
    tol_eff = tol * max(1.0, H.norm_bound())
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
    HV = np.zeros(V.shape, dtype=np.result_type(H.vals, V))
    np.add.at(HV, H.rows, H.vals[:, None] * V[H.cols])
    return KernelBasis(V, np.linalg.norm(HV, axis=0), tol_eff,
                       *_margin(np.concatenate(moduli), np.concatenate(kept)), tuple(sizes))


def _apply_term(h: np.ndarray, X: np.ndarray, x: int, d: int) -> np.ndarray:
    """h on sites x..x+support-1 of every column of X, by reshape."""
    return (h @ X.reshape(d**x, h.shape[0], -1)).reshape(X.shape)


def _contract(tensors: list[np.ndarray], r0: int, d: int) -> np.ndarray:
    """(1_{r0} x 1_{d^j}) N_1 ... N_j for site tensors N_i of shape (r_{i-1} d, r_i).

    The result is the (r0 d^j) x r_j matrix of the chain of tensors; with
    no tensor it is the identity on r0.
    """
    if not tensors:
        return np.eye(r0)
    X = tensors[0]
    for N in tensors[1:]:
        r, r_next = X.shape[1], N.shape[1]
        X = (X @ N.reshape(r, d * r_next)).reshape(X.shape[0] * d, r_next)
    return X


class KernelGrowth(NamedTuple):
    """The isometric MPS of a chain kernel and the margin of its growth.

    tensors holds the site tensors N_j, of shape (r_{j-1} d, r_j), and
    ranks the bond dimensions r_0 = 1, ..., r_j; after a step that leaves
    no null vector the growth stops, so ranks[-1] is the kernel dimension.
    tol is the absolute cut-off, kept_max and dropped_min the largest kept
    and smallest dropped singular value over all steps.
    """

    tensors: list
    ranks: list
    tol: float
    kept_max: float
    dropped_min: float


def _grow_kernel(h: np.ndarray, l: int, d: int, tol: float = 1e-10) -> KernelGrowth:
    """Kernel of the open chain sum_x h_x of a PSD term, grown site by site in bond space.

    ker H is the intersection of the ker h_x, so a kernel basis V_m on m
    sites extends as V_{m+1} = (V_m x 1_d) N_{m+1}, where N_{m+1} spans the
    null space of the chain matrix (1 x h)(V_m x 1_d).  V_m is kept as an
    isometric MPS, the list of site tensors N_j of shape (r_{j-1} d, r_j)
    with r_0 = 1.  With s the support of h, the first s-1 tensors are
    identities, so V_{s-1} is the identity on d^(s-1).

    Isometry lemma.  Let k = m+1-s.  Then V_m =
    (V_k x 1_{d^(s-1)}) B_m, where B_m, of shape (r_k d^(s-1), r_m), is the
    isometry contracted from the last s-1 tensors N_{k+1}..N_m.  Since h
    acts on the last s sites only,

        (1 x h)(V_m x 1_d) = (V_k x 1_{d^s}) [(1_{r_k} x h)(B_m x 1_d)].

    The left factor is an isometry, so the bracket, an (r_k d^s) x (r_m d)
    matrix, has the same singular values and the same right singular
    vectors as the d^(m+1)-row chain matrix: N_{m+1}, kept_max and
    dropped_min are those of the chain matrix.  The bracket is as tall as
    it is wide, since B_m has orthonormal columns and so r_m <= r_k
    d^(s-1); its thin SVD gives a singular value for every column, and one
    SVD per step factors it whole.

    The rank is read against tol times the norm bound of h.  The first
    step, from the identity on s-1 sites, gives ker h, and once a step
    leaves no null vector the kernel is empty at every longer length and
    the growth stops.  No matrix with d^(m+1) rows is factored and no
    d^l-row array is formed.
    """
    support = _support(h, d)
    if l < support:
        raise ValueError(f"chain length {l} shorter than the term support {support}")
    h = _real_if_exact(np.asarray(h))
    tol_eff = tol * max(1.0, _norm_bound(h))
    tensors = [np.eye(d**j, dtype=h.dtype) for j in range(1, support)]
    ranks = [d**j for j in range(support)]
    kept, dropped = 0.0, math.inf
    for m in range(support - 1, l):
        k = m + 1 - support
        B = np.kron(_contract(tensors[k:], ranks[k], d), np.eye(d))
        bracket = (h @ B.reshape(ranks[k], h.shape[0], -1)).reshape(-1, B.shape[1])
        _, sv, vh = np.linalg.svd(bracket, full_matrices=False)
        null = sv < tol_eff
        step_kept, step_dropped = _margin(sv, null)
        kept, dropped = max(kept, step_kept), min(dropped, step_dropped)
        tensors.append(vh[null].conj().T)
        ranks.append(tensors[-1].shape[1])
        if not ranks[-1]:
            break
    return KernelGrowth(tensors, ranks, tol_eff, kept, dropped)


def chain_kernel(h: np.ndarray, l: int, d: int, tol: float = 1e-10) -> KernelBasis:
    """Kernel of the open chain sum_x h_x of a PSD term, assembled from _grow_kernel.

    V_l is contracted once from the site tensors, a d^l-row array, and its
    residuals ||H v|| on the whole chain are the end-to-end certificate.
    The dense paths read it: frustration_free_check, demo 05 and the tests;
    the dimer and spin-1 rows stop at the growth, and parent_check grows
    no kernel.
    """
    g = _grow_kernel(h, l, d, tol)
    h = _real_if_exact(np.asarray(h))
    V = _contract(g.tensors, 1, d) if g.ranks[-1] else np.zeros((d**l, 0), h.dtype)
    HV = sum(_apply_term(h, V, x, d) for x in range(l - _support(h, d) + 1))
    return KernelBasis(V, np.linalg.norm(HV, axis=0), g.tol, g.kept_max, g.dropped_min)


def _ground_domain(n: int, l: int) -> str:
    """Bond domain of the length-l ground states: P_+ C_n for odd n, the parity l part for even n.

    Grade parity ties the useful bond domain to the chain length: for even n
    only even-grade elements survive at even l and odd-grade ones at odd l;
    for odd n the positive half-projector domain covers both parities.
    """
    if n % 2:
        return "p_plus"
    return "even" if l % 2 == 0 else "odd"


def mps_ground_space(n: int, l: int) -> np.ndarray:
    """Orthonormal basis of the span of the length-l bond-algebra states: an oracle.

    A dense SVD of the n^l-row basis states over _ground_domain(n, l).
    parent_check no longer calls it; test_hamiltonians::test_parent_check_grid,
    test_chain_kernel_reaches_past_the_dense_oracle and acceptance 04 compare
    it with the assembled chain_kernel, and
    test_ground_space_matches_the_per_element_construction checks it
    against one mps_vector per basis element.
    """
    Psi = basis_states(MpsFamily(n, _ground_domain(n, l)), l)
    U, s, _ = np.linalg.svd(Psi, full_matrices=False)
    keep = s > 1e-10 * s[0]
    return U[:, keep]


def projector_distance(Qa: np.ndarray, Qb: np.ndarray) -> float:
    """Operator-norm distance of the projectors onto two orthonormal spans: an oracle.

    Computed from the residuals (1-P_a)Q_b rather than from min singular
    values of the overlap, which would floor out at sqrt(eps) for equal spans.
    The largest singular value of a residual R is the square root of the top
    eigenvalue of its r x r Gram R^H R, so no d^l-row matrix is factored.
    parent_check no longer calls it; frustration_free_check compares its
    two kernels with it, and the tests that compare dense spans read it
    (test_hamiltonians::test_parent_check_grid and acceptance 04 among
    them), after test_projector_distance_matches_the_svd_oracle checks it.
    """
    if Qa.shape[1] != Qb.shape[1]:
        return 1.0
    if Qa.shape[1] == 0:
        return 0.0

    def top_singular_value(R: np.ndarray) -> float:
        return math.sqrt(max(float(np.linalg.eigvalsh(R.conj().T @ R)[-1]), 0.0))

    return max(top_singular_value(Qb - Qa @ (Qa.conj().T @ Qb)),
               top_singular_value(Qa - Qb @ (Qb.conj().T @ Qa)))


def _span_residual(h: np.ndarray, d: int) -> float:
    """Largest ||h v|| over the unit two-site states v = omega / sqrt(d) and (e_ij - e_ji) / sqrt(2).

    omega = sum_i e_i x e_i.  Read straight off the columns of h, O(d^4).
    """
    cols = np.arange(d)
    sym = h[:, cols * d + cols].sum(axis=1) / math.sqrt(d)
    i, j = np.triu_indices(d, 1)
    anti = (h[:, i * d + j] - h[:, j * d + i]) / math.sqrt(2.0)
    return float(max(np.linalg.norm(sym), np.linalg.norm(anti, axis=0).max(initial=0.0)))


def _live(n: int, grade: int, m: int) -> bool:
    """Whether a monomial of this grade, or for odd n its class, lies in W_m (psi_m sees it)."""
    grades = (grade, n - grade) if n % 2 else (grade,)
    return any(k <= m and (m - k) % 2 == 0 for k in grades)


def _class(n: int, M: int, c: complex) -> tuple[int, complex]:
    """(K, f) with gamma_M = f gamma_K and K the representative of M's class.

    For even n every monomial is its own class.  For odd n, modulo
    gamma_top - c, gamma_M = c sign(gamma_{M^c} gamma_top) gamma_{M^c}, and
    the class {M, M^c} is represented by its member with |K| < n/2.
    """
    if n % 2 == 0 or 2 * M.bit_count() < n:
        return M, 1
    full = (1 << n) - 1
    return M ^ full, c * _merge_sign(M ^ full, full)


def _mod_prime(z: np.ndarray) -> np.ndarray:
    """Gaussian integers x + iy, exact in floating point, as x + y sqrt(-1) mod PRIME."""
    re, im = np.rint(z.real).astype(np.int64), np.rint(z.imag).astype(np.int64)
    return (re + im * _SQRT_MINUS_ONE) % PRIME


def _nullity_mod_prime(A: np.ndarray) -> int:
    """Number of columns minus the rank of an integer matrix over GF(PRIME), by elimination.

    Every entry stays below PRIME < 2^30, so each product fits in int64.
    """
    A = A % PRIME
    rank = 0
    for col in range(A.shape[1]):
        nonzero = np.flatnonzero(A[rank:, col])
        if not nonzero.size:
            continue
        pivot = rank + nonzero[0]
        A[[rank, pivot]] = A[[pivot, rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), PRIME - 2, PRIME) % PRIME
        A[rank + 1:] = (A[rank + 1:] - A[rank + 1:, col, None] * A[rank]) % PRIME
        rank += 1
    return A.shape[1] - rank


def _charge_block(nh: np.ndarray, n: int, m: int, Q: int) -> np.ndarray:
    """Block Q of the bond system S_m of parent_check, entries mod PRIME.

    Rows (a, b) and the columns j with Q xor {j} live at m: column (j, K)
    is the coefficient of gamma_K in B_j, row (a, b) that of gamma_L in
    X_ab, with L = Q xor {a} xor {b}.  The entry is the sum over i with
    K xor {i} = L (up to the class factor for odd n) of nh[ab, ij] times
    the sign of gamma_K gamma_i; rows whose L is not live at m - 1 are zero.
    """
    c = 1 / gamma0(n).coef[(1 << n) - 1]
    nh3 = nh.reshape(n * n, n, n)  # nh[ab, ij] at [ab, i, j]
    cols = []
    for j in range(n):
        K, _ = _class(n, Q ^ (1 << j), c)
        if not _live(n, K.bit_count(), m):
            continue
        w = np.zeros(n, dtype=complex)
        for i in range(n):
            L, f = _class(n, K ^ (1 << i), c)
            if _live(n, L.bit_count(), m - 1):
                w[i] = _merge_sign(K, 1 << i) * f
        cols.append(nh3[:, :, j] @ w)
    return _mod_prime(np.array(cols).reshape(-1, n * n).T)


def _charge_grades(n: int) -> range:
    """The grades of the charges: 0..n, or below n/2 for odd n, where charges are taken mod the full mask."""
    return range(n + 1) if n % 2 == 0 else range((n + 1) // 2)


def _kernel_counts(nh: np.ndarray, n: int) -> list[int]:
    """Nullity of S_m mod PRIME for m = 1..n+1, that is dim ker H_l for l = 2..n+2.

    One block per charge grade, the first g axes, weighted by the C(n, g)
    charges of its grade (the orbit lemma of parent_check).
    """
    return [sum(math.comb(n, g) * _nullity_mod_prime(_charge_block(nh, n, m, (1 << g) - 1))
                for g in _charge_grades(n)) for m in range(1, n + 2)]


def parent_check(n: int, l: int) -> VerificationReport:
    """ker H_l = span psi_l for the SO(n) AKLT chain, at every length, by counts mod PRIME.

    psi_m(B)_{i_1..i_m} = Tr(B gamma_{i_m}...gamma_{i_1}), and W_m, the
    live monomials, have grade k <= m with k = m mod 2.  For odd n the
    trace sees C_n modulo gamma_top - c, c = 1/phase of gamma0 (the P_+
    realization, gamma0 = 1): the classes {K, K^c} of _class, live when K
    or K^c is.  psi_m is injective on span W_m and zero off it (the lemma
    of mps.span_dim), so dim span psi_m = |W_m| = span_dim.

    1. Span identity.  The term on sites x, x+1 gives (h_x psi(B))_{..ab..}
       = Tr(B ... X_ab ...), X_ab = sum_ij h[ab, ij] gamma_j gamma_i =
       (h omega)_ab - sum_{i<j} (h (e_ij - e_ji))_ab gamma_i gamma_j with
       omega = sum_i e_ii, so h kills every psi_l(B) exactly when it kills
       omega and every e_ij - e_ji.  Checked on the integer term
       nh = rint(n h): term_rounding = max |n h - nh| <= 1e-12 and
       span_residual = _span_residual(nh, n) == 0.  So dim ker H_l >= |W_l|.
    2. Induction.  ker H_{m+1} = (ker H_m x C^n) cap ker(1 x h_{m,m+1}),
       both terms being PSD (Nachtergaele, CMP 175, 565 (1996)).  If
       ker H_m = span psi_m, each v in the first space is sum_j psi_m(B_j)
       x e_j with unique B_j in span W_m, and psi_m(B)_{..i} =
       psi_{m-1}(B gamma_i), so (1 x h) v = 0 exactly when X_ab =
       sum_ij h[ab, ij] B_j gamma_i has no coefficient on W_{m-1}: dim
       ker H_{m+1} is the nullity of that system S_m.  Its entries are
       nh[ab, ij] = n(d_ai d_bj + d_aj d_bi) - 2 d_ab d_ij times the sign of
       gamma_K gamma_i and, for odd n, the class factor: Gaussian
       integers.  The base is ker H_1 = C^n = span psi_1.
    3. Exactness.  Reduction mod PRIME, sqrt(-1) = 3^((PRIME-1)/4), is a
       ring map from Z[i], so the nullity over Q(i) is at most the nullity
       mod PRIME (Dumas, Giorgi, Pernet, ACM TOMS 35 (2008)).  When that
       count is |W_{m+1}|, 1 closes the gap and the induction carries on.
    4. Blocks.  Column (j, K) carries the charge K xor {j} and row
       (a, b, L) the charge L xor {a} xor {b} (mod the full mask for odd
       n), and h[ab, ij] != 0 only where {a} xor {b} = {i} xor {j}, so
       S_m is a direct sum of blocks of at most n^2 x n (_charge_block).
       A signed axis permutation O e_i = s_i e_sigma(i) commutes with h,
       and gamma_i -> s_i gamma_sigma(i) is an automorphism of C_n, fixing
       gamma_top for odd n once det O = 1 (compose an odd sigma with -1).
       Together they permute rows and columns of S_m with signs and send
       block Q to block sigma(Q), and permutations are transitive on each
       grade: nullity S_m = sum_g C(n, g) nullity(block of the first g
       axes), g = 0..n, or g < n/2 for odd n (_kernel_counts).
    5. Every length.  W_m depends only on m mod 2 once m >= n - 1, so
       S_m = S_{m-2} once m >= n + 2: the counts at the lengths
       2..max_length = n + 2 decide every l >= 2.

    The row passes when term_rounding <= 1e-12, span_residual == 0, the
    count is |W_l| at every length 2..max_length, and kernel_dim ==
    mps_dim == 2^(n-1) at l (past max_length, kernel_dim is the count at
    the length of the same parity).  blocks counts the blocks eliminated.
    No d^l-row array, 2^n x 2^n array or singular value is on the path.
    """
    if l < 2:
        raise ValueError(f"chain length {l} shorter than the term support 2")
    expected = 2 ** (n - 1)
    scaled = n * so_n_aklt(n)
    nh = np.rint(scaled)
    term_rounding = float(np.max(np.abs(scaled - nh)))
    span_residual = _span_residual(nh, n)
    max_length = n + 2
    live = [span_dim(MpsFamily(n, _ground_domain(n, k)), k) for k in range(2, max_length + 1)]
    counts = _kernel_counts(nh, n)
    at = l if l <= max_length else max_length - (l - max_length) % 2
    kernel_dim = counts[at - 2]
    mps_dim = span_dim(MpsFamily(n, _ground_domain(n, l)), l)
    passed = (term_rounding <= 1e-12 and span_residual == 0 and counts == live
              and kernel_dim == mps_dim == expected)
    numbers = {
        "expected_dim": float(expected),
        "kernel_dim": float(kernel_dim),
        "mps_dim": float(mps_dim),
        "span_residual": span_residual,
        "term_rounding": term_rounding,
        "prime": float(PRIME),
        "blocks": float(len(counts) * len(_charge_grades(n))),
        "max_length": float(max_length),
    }
    return VerificationReport(f"parent_check(n={n}, l={l})", passed, numbers)


def frustration_free_check(h: np.ndarray, l: int, d: int,
                           tol: float = 1e-10) -> VerificationReport:
    """Shift the d-level term h to PSD, then test ker(sum h_x) = intersection of ker h_x.

    The two sides are computed independently: the left by the dense oracle
    kernel_basis on the assembled chain, the right by chain_kernel's
    site-by-site intersection.  The report passes when they agree; whether
    the chain is frustration free (its kernel is not empty) is a separate
    number in the payload, and ground_energy is the lowest eigenvalue modulus
    of the shifted chain.  tol is the cut-off of both kernels, relative to
    the norm bound of the chain and of the term; the absolute cut-offs are
    reported as oracle_cutoff and cutoff.  A chain of dimension above
    DENSE_EIG_CAP is refused before it is built.
    """
    if d**l > DENSE_EIG_CAP:
        raise ValueError(f"dense kernel of dimension {d}^{l} exceeds {DENSE_EIG_CAP}")
    shift = float(np.min(np.linalg.eigvalsh(h)))
    h_psd = h - shift * np.eye(h.shape[0])

    K = kernel_basis(chain_entries(h_psd, l, d), tol=tol)
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
    return VerificationReport(f"frustration_free_check(d={d}, l={l})", passed, numbers)
