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
of the cut-off are the certificate.  When the term conserves the Z2^d
colour-parity charges (site state e_a carries 1 << a, detected by an
exact test on h), the bracket is a direct sum of charge blocks, gathered
from h and the site tensors alone and factored in stacked SVDs; for the
SO(n) terms no block exceeds d^2 x d.  chain_kernel assembles the
basis from the growth for the dense paths.  parent_check forms no
d^l-row array: it certifies ker H = span psi_l by a dimension count
(the span identity on h, the exact span dimension mps.span_dim, and the
grown rank), stated in its docstring; mps_ground_space and
projector_distance are the dense oracles its tests compare against.
kernel_basis, the oracle for chain_kernel, eigensolves the assembled
chain up to DENSE_EIG_CAP, block by block: the connected components of
the support graph of H make it block diagonal (the direct-sum lemma in
kernel_basis), and for the SO(n) chains they are the 2^(n-1)
colour-parity sectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import VerificationReport, component_stacks, stack_by_label
from .mps import MpsFamily, basis_states, span_dim
from .so_n import casimir_su2_pair, spin_matrices

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


def _charges(site: np.ndarray, sites: int) -> np.ndarray:
    """XOR of the site charges of every basis state of `sites` sites, first site most significant."""
    out = np.zeros(1, dtype=site.dtype)
    for _ in range(sites):
        out = (out[:, None] ^ site).ravel()
    return out


def _site_charges(h: np.ndarray, d: int, support: int) -> np.ndarray:
    """The Z2^d charge 1 << a of each site state e_a, or all zeros if h does not conserve it.

    h conserves the charges when h[p, q] != 0 only where the XOR of the
    site charges of p equals that of q, an exact test on the entries of h.
    The SO(n) terms pass it, since they commute with every diagonal axis
    flip; a term that fails it gets the zero charge on every site, so that
    its brackets are one block.
    """
    if d < 63:
        site = np.int64(1) << np.arange(d, dtype=np.int64)
        q = _charges(site, support)
        if np.all((h == 0) | (q[:, None] == q[None, :])):
            return site
    return np.zeros(d, dtype=np.int64)


class KernelGrowth(NamedTuple):
    """The isometric MPS of a chain kernel and the certificate of its growth.

    tensors holds the site tensors N_j, of shape (r_{j-1} d, r_j), and
    ranks the bond dimensions r_0 = 1, ..., r_j; after a step that leaves
    no null vector the growth stops, so ranks[-1] is the kernel dimension.
    tol is the absolute cut-off, kept_max and dropped_min the largest kept
    and smallest dropped singular value over all steps, kept_sum the sum
    over steps of each step's largest kept value, and isometry_error the
    largest absolute row sum of N_j^H N_j - 1 over the grown tensors, an
    upper bound on its spectral norm ||N_j^H N_j - 1||.
    """

    tensors: list
    ranks: list
    tol: float
    kept_max: float
    dropped_min: float
    kept_sum: float
    isometry_error: float


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
    dropped_min are those of the chain matrix.
    The lemma also bounds the residual: the tensors after N_{m+1} are
    isometries, so the term that step m+1 adds contributes at most
    ||bracket N_{m+1}||, the step's largest kept value, to ||H V_l||, and
    kept_sum bounds ||H V_l||.

    Charge blocks.  When h conserves the Z2^d charges of _site_charges,
    each bond index carries the XOR of the site charges to its left:
    the identity tensors have charged indices, and every null vector found
    below lies in one charge sector.  An entry of the bracket at row
    (a, p, i) and column (c, j) is a sum of h[(p, i), (q, j)] B[(a, q), c],
    nonzero only where the charges of (p, i) and (q, j) agree and those of
    (a, q) and c do, so it vanishes unless the row charge q_a ^ q_p ^ q_i
    equals the column charge q_c ^ q_j.  The bracket is therefore a direct
    sum of charge blocks, and its singular values and null space are those
    of the blocks.  Each block is gathered from h and B alone, so the
    bracket itself is never formed; blocks of one shape share one stacked
    SVD, and each null vector is embedded with zeros outside its block.
    Rows whose charge no column carries are zero and add no singular
    value.  Each block is as tall as it is wide: the columns of B of one
    charge are orthonormal vectors within the rows (a, q) of that charge,
    so the columns (c, j) of charge t are at most the (a, q, j) of charge
    t, which are the block's rows.  So its thin SVD gives a singular
    value for every column, and the kept and dropped values are those of
    the unblocked bracket.  A term that does not conserve the charges is
    one block, the whole bracket; no block is larger than d^s x d for the
    SO(n) terms, whose bond indices all carry distinct charges.

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
    dq = d ** (support - 1)
    h3 = h.reshape(d**support, dq, d)  # h[(p, i), (q, j)] at [(p, i), q, j]
    site = _site_charges(h, d, support)
    term_q = _charges(site, support)
    tensors = [np.eye(d**j, dtype=h.dtype) for j in range(1, support)]
    ranks = [d**j for j in range(support)]
    charges = [_charges(site, j) for j in range(support)]
    kept, dropped, kept_sum, iso = 0.0, math.inf, 0.0, 0.0
    for m in range(support - 1, l):
        k = m + 1 - support
        B = _contract(tensors[k:], ranks[k], d).reshape(ranks[k], dq, ranks[m])
        row_q = (charges[k][:, None] ^ term_q).ravel()  # rows (a, p, i)
        col_q = (charges[m][:, None] ^ site).ravel()  # columns (c, j)
        values, nulls, parts, new_q = [], [], [], []
        for cols, a, pi, c, j in _block_gathers(row_q.tobytes(), col_q.tobytes(), d**support, d):
            block = sum(h3[pi, q, j] * B[a, q, c] for q in range(dq))
            _, sv, vh = np.linalg.svd(block, full_matrices=False)
            null = sv < tol_eff
            b, t = np.nonzero(null)
            N = np.zeros((ranks[m] * d, b.size), dtype=vh.dtype)
            N[cols[b], np.arange(b.size)[:, None]] = vh[b, t].conj()
            W = vh * null[:, :, None]
            gram = W @ W.conj().transpose(0, 2, 1) - np.eye(W.shape[1]) * null[:, :, None]
            iso = max(iso, float(np.abs(gram).sum(axis=2).max(initial=0.0)))
            values.append(sv.ravel())
            nulls.append(null.ravel())
            parts.append(N)
            new_q.append(col_q[cols[b, 0]])
        step_kept, step_dropped = _margin(np.concatenate(values), np.concatenate(nulls))
        kept, dropped = max(kept, step_kept), min(dropped, step_dropped)
        kept_sum += step_kept
        tensors.append(np.concatenate(parts, axis=1))
        ranks.append(tensors[-1].shape[1])
        charges.append(np.concatenate(new_q))
        if not ranks[-1]:
            break
    return KernelGrowth(tensors, ranks, tol_eff, kept, dropped, kept_sum, iso)


@functools.lru_cache(maxsize=32)
def _block_gathers(row_key: bytes, col_key: bytes, row_split: int, col_split: int) -> tuple:
    """Gather indices of the charge blocks of a bracket, stacked by shape.

    row_key and col_key hold the int64 charges of the bracket's rows
    (a, P), P < row_split, and columns (c, j), j < col_split.  One block
    per charge that a column carries: the columns of that charge and the
    rows of the same charge; rows whose charge no column carries are in no
    block.  Blocks of one shape share one stack (checks.stack_by_label),
    and each stack is returned as (cols, a, P, c, j): cols the (count, C)
    column indices, and the row and column digits shaped to broadcast to
    (count, R, C).  Cached, because the bond charges repeat: from step to
    step of a chain, and between the chains of one term.
    """
    row_q, col_q = np.frombuffer(row_key, np.int64), np.frombuffer(col_key, np.int64)
    values, col_lab = np.unique(col_q, return_inverse=True)
    pos = np.minimum(np.searchsorted(values, row_q), values.size - 1)
    hit = values[pos] == row_q
    stacks = stack_by_label((np.flatnonzero(hit), np.arange(col_q.size)),
                            (pos[hit], col_lab.ravel()), values.size)
    out = tuple((cols, *np.divmod(rows[:, :, None], row_split),
                 *np.divmod(cols[:, None, :], col_split)) for rows, cols in stacks)
    for arrays in out:
        for x in arrays:
            x.setflags(write=False)  # every caller shares the cached arrays
    return out


def chain_kernel(h: np.ndarray, l: int, d: int, tol: float = 1e-10) -> KernelBasis:
    """Kernel of the open chain sum_x h_x of a PSD term, assembled from _grow_kernel.

    V_l is contracted once from the site tensors, a d^l-row array, and its
    residuals ||H v|| on the whole chain are the end-to-end certificate.
    The dense paths read it: frustration_free_check, demo 05 and the tests;
    parent_check and the dimer and spin-1 rows stop at the growth.
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


def parent_check(n: int, l: int, cap: int = CHAIN_DIM_CAP,
                 tol: float = 1e-10) -> VerificationReport:
    """ker H_l = span psi_l for the SO(n) AKLT chain, by a dimension count.

    Three facts, none of which forms a d^l-row array, give the certificate.

    1. span psi_l is in ker H_l (span_residual).  With psi(B)_{i_1..i_l} =
       Tr(B gamma_{i_l}...gamma_{i_1}), the term on sites x, x+1 gives
       (h_x psi(B))_{..ab..} = Tr(B ... X_ab ...) with the trace form
       X_ab = sum_ij h[ab, ij] gamma_j gamma_i.  As gamma_i gamma_i = 1 and
       gamma_j gamma_i = -gamma_i gamma_j for i != j, X_ab = (h omega)_ab -
       sum_{i<j} (h (e_ij - e_ji))_ab gamma_i gamma_j, with omega =
       sum_i e_ii, and 1 and the gamma_i gamma_j are independent.  So
       X_ab = 0 for all a, b exactly when h annihilates omega and every
       e_ij - e_ji, and then h_x psi_l(B) = 0 at every x, l and B.
       span_residual is the largest ||h v|| over those states, normalized
       (_span_residual); it is rounding only, and must be at most 1e-12.
    2. dim span psi_l = mps_dim, the exact count of mps.span_dim over
       the bond domain of mps_ground_space: the columns whose kernel
       weight is nonzero, decided by grade-recurrence positivity
       (z_l(k) != 0 exactly when k <= l and k = l mod 2).
    3. dim ker H_l = kernel_dim, the last rank of _grow_kernel.  Weyl's
       inequality |sigma_i(A + E) - sigma_i(A)| <= ||E|| moves each
       singular value of a step by at most its rounding error E, far below
       the gap between kept_max and dropped_min around the cut-off, so no
       value above the cut-off belongs to an exact null vector and the
       exact nullity of each step is at most its count below the cut-off:
       dim ker H_l <= kernel_dim.  The steps rest on isometries, checked to
       isometry_error; residual_bound, the sum of the steps' kept values,
       bounds ||H V_l|| by the isometry lemma of _grow_kernel.

    By 1 and 2, dim ker H_l >= mps_dim; by 3, dim ker H_l <= kernel_dim.
    The row passes when kernel_dim == mps_dim == 2^(n-1), span_residual
    and isometry_error are at most 1e-12: then ker H_l has dimension
    2^(n-1) and contains span psi_l of the same dimension, so the two are
    equal.  tol is the growth's cut-off, relative to the norm bound of the
    local term, and the absolute cut-off is reported as cutoff.
    mps_ground_space and projector_distance, the dense comparison this
    count replaces, stay as the oracles of the tests.
    """
    if n**l > cap:
        raise ValueError(f"chain dimension {n}^{l} exceeds the cap {cap}")
    expected = 2 ** (n - 1)
    h = so_n_aklt(n)
    span_residual = _span_residual(h, n)
    mps_dim = span_dim(MpsFamily(n, _ground_domain(n, l)), l)
    g = _grow_kernel(h, l, n, tol)
    kernel_dim = g.ranks[-1]
    passed = (kernel_dim == mps_dim == expected and span_residual <= 1e-12
              and g.isometry_error <= 1e-12)
    numbers = {
        "expected_dim": float(expected),
        "kernel_dim": float(kernel_dim),
        "mps_dim": float(mps_dim),
        "span_residual": span_residual,
        "residual_bound": g.kept_sum,
        "isometry_error": g.isometry_error,
        "kept_max": g.kept_max,
        "cutoff": g.tol,
        "dropped_min": g.dropped_min,
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
