"""Local terms, chain assembly, kernels, and the parent-chain checks."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffchain import hamiltonians
from cliffchain.checks import cluster_degeneracies
from cliffchain.hamiltonians import (
    DENSE_EIG_CAP,
    Entries,
    aklt_su2,
    chain_entries,
    chain_kernel,
    frustration_free_check,
    kernel_basis,
    majumdar_ghosh,
    majumdar_ghosh_raw,
    mps_ground_space,
    parent_check,
    projector_distance,
    q_matrix,
    so_n_aklt,
    swap_matrix,
)
from cliffchain.mps import MpsFamily, basis_states, element_from_coefvec, mps_vector
from cliffchain.so_n import casimir_su2_pair, spin_matrices, spin_projector

# SWAP + 0.3 Q on C^3 x C^3: its ground pair is antisymmetric, so its chains
# are not frustration free past l = 3
TWISTED = swap_matrix(3) + 0.3 * q_matrix(3)


def _heisenberg(s, J):
    """J S1.S2 on V_s x V_s."""
    return J * casimir_su2_pair(s)


def _bilinear_biquadratic(theta):
    """cos(theta) S1.S2 + sin(theta) (S1.S2)^2 on V_1 x V_1."""
    SS = casimir_su2_pair(1)
    return np.cos(theta) * SS + np.sin(theta) * (SS @ SS)


def rand_so(rng, n):
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def rand_su2_rotation(rng, s):
    sysm = spin_matrices(s)
    nhat = rng.standard_normal(3)
    nhat /= np.linalg.norm(nhat)
    gen = sum(c * S for c, S in zip(nhat, sysm.vector()))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    vals, vecs = np.linalg.eigh(gen)
    return (vecs * np.exp(-1j * theta * vals)) @ vecs.conj().T


def test_spec_validation():
    # a term is a plain array on (C^d)^support
    with pytest.raises(ValueError):
        so_n_aklt(1)
    assert so_n_aklt(5).shape == (25, 25)
    assert aklt_su2().shape == (9, 9)
    assert majumdar_ghosh().shape == (8, 8)  # three spin-1/2 sites


def test_swap_and_q_identities():
    for n in (2, 3, 4, 5):
        S = swap_matrix(n)
        Q = q_matrix(n)
        eye = np.eye(n * n)
        assert np.allclose(S @ S, eye, atol=1e-14)
        assert np.allclose(Q @ Q, Q, atol=1e-14)
        assert np.allclose(S @ Q, Q, atol=1e-14)
        assert np.allclose(Q @ S, Q, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_swap_action_on_product_vectors(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.allclose(swap_matrix(n) @ np.kron(v, w), np.kron(w, v), atol=1e-12)


def test_terms_hermitian():
    terms = (0.7 * swap_matrix(3) - 0.2 * q_matrix(3), so_n_aklt(4), -q_matrix(3), aklt_su2(),
             majumdar_ghosh(), _heisenberg(0.5, 1.0), _heisenberg(1.5, -0.3),
             _bilinear_biquadratic(0.7))
    for h in terms:
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_projector_kinds_psd():
    for h in (so_n_aklt(3), so_n_aklt(4), so_n_aklt(5), so_n_aklt(6), aklt_su2()):
        vals = np.linalg.eigvalsh(h)
        assert vals[0] > -1e-10


def test_so_n_aklt_term_spectrum_n4():
    vals = np.linalg.eigvalsh(so_n_aklt(4))
    assert cluster_degeneracies(vals, tol=1e-10) == [(pytest.approx(0.0, abs=1e-12), 7),
                                                     (pytest.approx(2.0, abs=1e-12), 9)]


def test_cluster_degeneracies_splits_sorted_values_at_gaps():
    import cliffchain
    from cliffchain import mps, so_n

    assert cliffchain.cluster_degeneracies is cluster_degeneracies
    assert mps.cluster_degeneracies is so_n.cluster_degeneracies is cluster_degeneracies
    # unsorted input; the top cluster spans 8e-10 > tol, but no gap exceeds tol
    vals = [2.0 + 4e-10, 0.0, 2.0, 1e-12, 2.0 + 8e-10]
    assert cluster_degeneracies(vals, tol=5e-10) == [
        (pytest.approx(5e-13, abs=1e-15), 2),
        (pytest.approx(2.0 + 4e-10, abs=1e-14), 3),
    ]
    assert cluster_degeneracies([], tol=1.0) == []


def test_aklt_su2_is_the_spin2_projector():
    h = aklt_su2()
    assert np.max(np.abs(h - spin_projector(1, 2))) < 1e-12


def test_bilinear_biquadratic_hits_the_aklt_ray():
    # cos t (S.S) + sin t (S.S)^2 at tan t = 1/3 is an affine shift of the
    # spin-2 projector
    theta = np.arctan(1.0 / 3.0)
    bb = _bilinear_biquadratic(theta)
    aklt = aklt_su2()
    lhs = np.eye(9) / 3.0 + (np.sqrt(10.0) / 6.0) * bb
    assert np.max(np.abs(lhs - aklt)) < 1e-12


def test_heisenberg_half_is_swap_affine():
    S = swap_matrix(2)
    for J in (1.0, -2.5):
        h = _heisenberg(0.5, J)
        assert np.max(np.abs(h - J * (S / 2.0 - np.eye(4) / 4.0))) < 1e-13


def test_majumdar_ghosh_raw_offset():
    # pairwise sigma.sigma = 6 P(3/2) - 3
    h = majumdar_ghosh()
    raw = majumdar_ghosh_raw()
    assert np.max(np.abs(raw - (6.0 * h - 3.0 * np.eye(8)))) < 1e-12
    assert np.allclose(h @ h, h, atol=1e-12)


def test_rotation_commutes_with_so_terms():
    rng = np.random.default_rng(7)
    h_aklt = so_n_aklt(4)
    for _ in range(50):
        w = rand_so(rng, 4)
        ww = np.kron(w, w)
        assert np.max(np.abs(h_aklt @ ww - ww @ h_aklt)) < 1e-10
    for h in (0.7 * swap_matrix(3) - 0.2 * q_matrix(3), -q_matrix(3)):
        for _ in range(10):
            w = rand_so(rng, 3)
            ww = np.kron(w, w)
            assert np.max(np.abs(h @ ww - ww @ h)) < 1e-10


def test_rotation_commutes_with_su2_terms():
    rng = np.random.default_rng(11)
    for h, s in ((aklt_su2(), 1), (_bilinear_biquadratic(0.7), 1), (_heisenberg(1.5, -0.3), 1.5)):
        for _ in range(10):
            u = rand_su2_rotation(rng, s)
            uu = np.kron(u, u)
            assert np.max(np.abs(h @ uu - uu @ h)) < 1e-10
    h = majumdar_ghosh()
    for _ in range(10):
        u = rand_su2_rotation(rng, 0.5)
        uuu = np.kron(u, np.kron(u, u))
        assert np.max(np.abs(h @ uuu - uuu @ h)) < 1e-10


def _dense(H):
    """The dim x dim array of the entries H."""
    A = np.zeros((H.dim, H.dim), dtype=H.vals.dtype)
    A[H.rows, H.cols] = H.vals
    return A


def _entries(A):
    rows, cols = np.nonzero(A)
    return Entries(rows, cols, A[rows, cols], A.shape[0])


def _chain_entries_oracle(h, l, d):
    """Oracle: the nonzeros of the chain assembled as a sum of sparse kron products.

    chain_entries took this route before it built the entries in numpy: each
    h_x is 1_{d^x} x h x 1_{d^(l-x-s)} as a scipy.sparse kron product, the
    chain is their sum in the order of x, and duplicates are summed and
    exact zeros dropped.  Returns rows, cols and vals in row-major order.
    """
    s = round(np.log(h.shape[0]) / np.log(d))
    total = sp.coo_matrix((d**l, d**l), dtype=complex)
    for x in range(l - s + 1):
        left = sp.identity(d**x, format="coo", dtype=complex)
        right = sp.identity(d ** (l - x - s), format="coo", dtype=complex)
        total = total + sp.kron(left, sp.kron(sp.coo_matrix(h), right, format="coo"),
                                format="coo")
    A = total.tocsr()
    A.sum_duplicates()
    coo = A.tocoo()
    nz = coo.data != 0
    return coo.row[nz], coo.col[nz], coo.data[nz]


def _random_psd_term(d, support, rank, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d**support, rank)) + 1j * rng.standard_normal((d**support, rank))
    return A @ A.conj().T


@pytest.mark.parametrize("h, l, d", [
    (so_n_aklt(3), 5, 3),
    (so_n_aklt(4), 5, 4),
    (majumdar_ghosh(), 7, 2),
    (aklt_su2(), 4, 3),
    (TWISTED, 4, 3),
    (_heisenberg(0.5, -1.5), 5, 2),
    # random complex PSD terms of support 1, 2 and 3
    (_random_psd_term(3, 1, rank=2, seed=5), 4, 3),
    (_random_psd_term(3, 2, rank=4, seed=5), 4, 3),
    (_random_psd_term(2, 3, rank=3, seed=5), 6, 2),
], ids=["so3", "so4", "dimer", "spin1", "twisted", "heisenberg", "random1", "random2", "random3"])
def test_chain_entries_match_the_sparse_kron_oracle(h, l, d):
    H = chain_entries(h, l, d)
    rows, cols, vals = _chain_entries_oracle(h, l, d)
    assert H.dim == d**l
    assert np.array_equal(H.rows, rows) and np.array_equal(H.cols, cols)
    assert np.all(np.abs(H.vals - vals) <= 1e-15 * np.abs(vals))


def test_chain_at_support_length_is_the_term():
    assert np.allclose(_dense(chain_entries(so_n_aklt(3), 2, 3)),
                       so_n_aklt(3), atol=0)
    assert np.allclose(_dense(chain_entries(majumdar_ghosh(), 3, 2)),
                       majumdar_ghosh(), atol=0)


def test_chain_validation():
    h = so_n_aklt(3)
    with pytest.raises(ValueError):
        chain_entries(h, 1, 3)
    with pytest.raises(ValueError):
        chain_entries(majumdar_ghosh(), 2, 2)
    with pytest.raises(ValueError):
        chain_entries(h, 4, 2)  # a 9 x 9 term is not a 2-level operator
    # 6^10 dimensions; refused before the chain is assembled
    with pytest.raises(ValueError, match="exceeds"):
        frustration_free_check(so_n_aklt(6), 10, 6)


def test_kernel_dims_known_chains():
    assert kernel_basis(chain_entries(aklt_su2(), 4, 3)).dim == 4
    for l, dim in ((4, 5), (5, 4), (6, 5), (7, 4)):
        assert kernel_basis(chain_entries(majumdar_ghosh(), l, 2)).dim == dim
    assert kernel_basis(chain_entries(so_n_aklt(4), 4, 4)).dim == 8


def test_kernel_basis_certified():
    K = kernel_basis(chain_entries(so_n_aklt(3), 5, 3))
    assert K.dim == 4
    V = K.vectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(K.dim))) < 1e-10
    assert np.all(K.residuals < 1e-9)


def test_kernel_basis_is_dense_and_real_for_real_chains():
    K = kernel_basis(chain_entries(so_n_aklt(3), 4, 3))
    assert K.dim == 4 and not np.iscomplexobj(K.vectors)
    diag = np.arange(DENSE_EIG_CAP + 1)
    with pytest.raises(ValueError):
        kernel_basis(Entries(diag, diag, np.ones(diag.size), diag.size))


def _kernel_basis_oracle(H, tol=1e-10):
    """Oracle: kernel of H from one dense eigh of the whole matrix.

    kernel_basis took this route before it split H into support-connected
    blocks; the cut-off is the same, tol times the norm bound of H.
    """
    Hd = _dense(H)
    Hd = Hd if np.any(Hd.imag) else Hd.real
    tol_eff = tol * max(1.0, float(np.max(np.sum(np.abs(Hd), axis=1))))
    vals, vecs = np.linalg.eigh(Hd)
    keep = np.abs(vals) < tol_eff
    kept = float(np.max(np.abs(vals[keep]), initial=0.0))
    dropped = float(np.min(np.abs(vals[~keep]), initial=np.inf))
    return vecs[:, keep], kept, dropped


def _planted_blocks(coupling=1e-300):
    # two blocks of sizes 4 and 5 (the second of rank 4), joined only by
    # one tiny coupling, which must still merge them
    rng = np.random.default_rng(67)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((5, 4))
    H = np.zeros((9, 9))
    H[np.ix_([0, 2, 3, 4], [0, 2, 3, 4])] = a @ a.T
    H[np.ix_([1, 5, 6, 7, 8], [1, 5, 6, 7, 8])] = b @ b.T
    H[2, 5] = H[5, 2] = coupling
    return _entries(H)


def _random_hermitian():
    rng = np.random.default_rng(71)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    B = A[:, :30] @ A[:, :30].conj().T  # rank 30, kernel of dimension 10
    return _entries(0.5 * (B + B.conj().T))


@pytest.mark.parametrize("make, dim, blocks", [
    *[(lambda n=n, l=l: chain_entries(so_n_aklt(n), l, n), 2 ** (n - 1), 2 ** (n - 1))
      for n, l in ((3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (5, 4))],
    (lambda: chain_entries(aklt_su2(), 4, 3), 4, None),
    *[(lambda l=l: chain_entries(majumdar_ghosh(), l, 2), dim, None)
      for l, dim in ((4, 5), (5, 4), (6, 5), (7, 4))],
    # the twisted term has an empty kernel: only dropped_min is a margin
    (lambda: chain_entries(_psd_term(TWISTED), 4, 3), 0, None),
    (_random_hermitian, 10, 1),
    (_planted_blocks, 1, 1),
])
def test_kernel_basis_matches_the_unblocked_oracle(make, dim, blocks):
    H = make()
    K = kernel_basis(H)
    V, kept, dropped = _kernel_basis_oracle(H)
    assert K.dim == V.shape[1] == dim
    assert projector_distance(K.vectors, V) < 1e-12
    # kept values are rounding noise, so both margins are compared relative
    # to the spectral scale, not to themselves
    scale = max(1.0, dropped)
    assert abs(K.kept_max - kept) <= 1e-12 * scale
    assert abs(K.dropped_min - dropped) <= 1e-12 * scale
    assert sum(K.blocks) == H.dim
    if blocks is not None:
        assert len(K.blocks) == blocks


def test_kernel_basis_splits_only_on_exact_zeros():
    assert kernel_basis(_planted_blocks(0.0)).blocks == (4, 5)
    assert kernel_basis(_planted_blocks()).blocks == (9,)


def _psd_term(h):
    return h - np.min(np.linalg.eigvalsh(h)) * np.eye(h.shape[0])


# (spec, l, dim) with spec the pair (term, local dimension)
CHAIN_KERNEL_GRID = [
    *[((so_n_aklt(3), 3), l, 4) for l in (2, 3, 4, 5, 6)],
    # at l = 2 the kernel is the antisymmetric pairs plus the singlet
    *[((so_n_aklt(4), 4), l, dim) for l, dim in ((2, 7), (3, 8), (4, 8), (5, 8))],
    *[((so_n_aklt(5), 5), l, dim) for l, dim in ((2, 11), (3, 15), (4, 16))],
    *[((majumdar_ghosh(), 2), l, dim) for l, dim in ((4, 5), (5, 4), (6, 5), (7, 4))],
    *[((aklt_su2(), 3), l, 4) for l in (3, 4, 5, 6)],
    # the twisted term's ground pair is antisymmetric: only the l = 3 singlet
    # eps_ijk keeps every term at its minimum
    *[((TWISTED, 3), l, dim) for l, dim in ((3, 1), (4, 0), (5, 0))],
]


@pytest.mark.parametrize("spec, l, dim", CHAIN_KERNEL_GRID)
def test_chain_kernel_matches_the_dense_oracle(spec, l, dim):
    h, d = _psd_term(spec[0]), spec[1]
    oracle = kernel_basis(chain_entries(h, l, d))
    K = chain_kernel(h, l, d)
    assert K.dim == oracle.dim == dim
    assert projector_distance(K.vectors, oracle.vectors) < 1e-8
    assert np.max(K.residuals, initial=0.0) < 1e-12
    assert K.kept_max < 1e-13 and K.dropped_min > 0.1


def _chain_kernel_oracle(h, l, d, tol=1e-10):
    """Oracle: chain_kernel's site step on the d^(m+1)-row chain matrix.

    chain_kernel took this route before it moved each step into the bond
    space: V_{m+1} = (V_m x 1_d) N with N the null space of the chain matrix
    (1 x h)(V_m x 1_d), from its tall QR and the SVD of R.  The cut-off is
    the same, tol times the norm bound of h.  Returns the kernel basis and
    the smallest singular value dropped over all steps.
    """
    s = round(np.log(h.shape[0]) / np.log(d))
    h = h if np.any(h.imag) else h.real
    tol_eff = tol * max(1.0, float(np.max(np.sum(np.abs(h), axis=1))))
    V, dropped = np.eye(d ** (s - 1), dtype=h.dtype), np.inf
    for m in range(s - 1, l):
        r = V.shape[1]
        X = np.kron(V, np.eye(d))
        M = (h @ X.reshape(d ** (m + 1 - s), h.shape[0], -1)).reshape(X.shape)
        _, sv, vh = np.linalg.svd(np.linalg.qr(M, mode="r"))
        null = sv < tol_eff
        dropped = min(dropped, float(np.min(sv[~null], initial=np.inf)))
        N = vh[null].conj().T
        V = (V @ N.reshape(r, d * N.shape[1])).reshape(d ** (m + 1), N.shape[1])
    return V, dropped


@pytest.mark.parametrize("h, l, d, dim", [
    *[(_psd_term(h), l, d, dim) for (h, d), l, dim in CHAIN_KERNEL_GRID],
    (so_n_aklt(6), 6, 6, 32),
    # generic complex terms: on one 3-level site (no B tensors, only the
    # explicit rank list) the kernel has 2^l states; on two 4-level sites it
    # grows 11, 24, 41, 44; on three qubits, where each step's B joins two
    # tensors, it goes 6, 8, 8, 4
    (_random_psd_term(3, 1, rank=1, seed=1), 3, 3, 8),
    (_random_psd_term(4, 2, rank=5, seed=1), 5, 4, 44),
    (_random_psd_term(2, 3, rank=2, seed=1), 6, 2, 4),
])
def test_chain_kernel_matches_the_chain_matrix_oracle(h, l, d, dim):
    K = chain_kernel(h, l, d)
    V, dropped = _chain_kernel_oracle(h, l, d)
    assert K.dim == V.shape[1] == dim
    assert projector_distance(K.vectors, V) < 1e-12
    assert abs(K.dropped_min - dropped) <= 1e-12 * dropped


def _recorded_svd_shapes(monkeypatch):
    shapes, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return shapes


def _assert_whole_brackets(monkeypatch, chains):
    # each step factors its whole (r_k d^s) x (r_m d) bracket in one SVD and
    # no d^(m+1)-row chain matrix
    ranks = [hamiltonians._grow_kernel(h, l, d).ranks for h, l, d, _ in chains]
    shapes = _recorded_svd_shapes(monkeypatch)
    for (h, l, d, dim), r in zip(chains, ranks):
        s = round(np.log(h.shape[0]) / np.log(d))
        shapes.clear()
        assert chain_kernel(h, l, d).dim == dim
        assert shapes == [(r[m + 1 - s] * d**s, r[m] * d) for m in range(s - 1, l)]


@pytest.mark.parametrize("n, l", [(5, 7), (6, 6)])
def test_chain_kernel_factors_only_bond_sized_matrices(monkeypatch, n, l):
    # every bracket is at most (r_k n^2) x (r_{k+1} n), far below the n^l rows
    # of the chain matrix
    _assert_whole_brackets(monkeypatch, [(so_n_aklt(n), l, n, 2 ** (n - 1))])


def test_uncharged_term_factors_the_whole_bracket(monkeypatch):
    # the spin-1 term mixes |+1,-1> with |0,0> and so conserves no colour
    # parity; the three-site dimer term spans three sites
    _assert_whole_brackets(monkeypatch, [(aklt_su2(), 6, 3, 4), (majumdar_ghosh(), 7, 2, 4)])


@pytest.mark.parametrize("n", range(3, 8))
def test_parent_margin_is_the_closed_form(n):
    g = hamiltonians._grow_kernel(so_n_aklt(n), n, n)
    assert g.ranks[-1] == 2 ** (n - 1)
    assert g.dropped_min == pytest.approx(np.sqrt(2 * n / (n - 1)), rel=1e-12)
    assert g.kept_max < 1e-13


def _exact_counts(n):
    return hamiltonians._kernel_counts(np.rint(n * so_n_aklt(n)), n)


@pytest.mark.parametrize("n", range(2, 8))
def test_exact_counts_are_the_grown_ranks(n):
    # the float growth is the independent oracle at every length the
    # certificate checks; for odd n the counts cannot tell c from -c
    # (gamma_i -> -gamma_i exchanges the two sectors), so the comparison
    # with the growth, not a count alone, checks the quotient
    g = hamiltonians._grow_kernel(so_n_aklt(n), n + 2, n)
    assert _exact_counts(n) == g.ranks[2:]


def _all_charge_nullities(n, m):
    """Oracle: the nullity mod PRIME of every charge block of S_m, keyed by charge."""
    nh = np.rint(n * so_n_aklt(n))
    charges = [Q for Q in range(1 << n) if Q.bit_count() in hamiltonians._charge_grades(n)]
    return {Q: hamiltonians._nullity_mod_prime(hamiltonians._charge_block(nh, n, m, Q))
            for Q in charges}


@pytest.mark.parametrize("n", range(3, 8))
def test_one_block_per_grade_is_the_all_charge_count(n):
    # the orbit lemma: every block of a grade has the nullity of the block
    # of the first g axes, so the weighted sum over grades is the sum over
    # every charge
    counts = []
    for m in range(1, n + 2):
        nullities = _all_charge_nullities(n, m)
        for Q, nullity in nullities.items():
            assert nullity == nullities[(1 << Q.bit_count()) - 1]
        counts.append(sum(nullities.values()))
    assert _exact_counts(n) == counts


def test_exact_counts_pin_the_live_dimensions():
    # |W_l| at l = 2..n+2: below the injectivity length too, then 2^(n-1)
    assert _exact_counts(6) == [16, 26, 31, 32, 32, 32, 32]
    assert _exact_counts(8) == [29, 64, 99, 120, 127, 128, 128, 128, 128]


def test_nullity_mod_prime_is_the_rank_deficit():
    rng = np.random.default_rng(4)
    for rows, cols, rank in ((6, 4, 2), (16, 5, 5), (3, 7, 3), (9, 9, 0)):
        A = rng.integers(-9, 10, (rows, rank)) @ rng.integers(-9, 10, (rank, cols))
        assert np.linalg.matrix_rank(A) == rank
        assert hamiltonians._nullity_mod_prime(A) == cols - rank
    # a multiple of the prime is zero mod it
    assert hamiltonians._nullity_mod_prime(np.array([[hamiltonians.PRIME]])) == 1
    r = hamiltonians._SQRT_MINUS_ONE
    assert r * r % hamiltonians.PRIME == hamiltonians.PRIME - 1


def test_chain_kernel_reaches_past_the_dense_oracle():
    # dimension 5^7 = 78,125, far above DENSE_EIG_CAP; test_parent_check_grid
    # runs the same comparison at 6^6 = 46,656
    K = chain_kernel(so_n_aklt(5), 7, 5)
    assert K.dim == 16
    assert projector_distance(K.vectors, mps_ground_space(5, 7)) < 1e-8


def test_chain_kernel_validation():
    h = so_n_aklt(3)
    with pytest.raises(ValueError):
        chain_kernel(h, 1, 3)
    with pytest.raises(ValueError):
        chain_kernel(h, 4, 2)


def test_parent_check_grid():
    # the row is an exact count; the dense oracles compare the spans
    for n, l in ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (6, 6)):
        rep = parent_check(n, l)
        assert rep.passed, rep.summary()
        assert rep.numbers["kernel_dim"] == 2 ** (n - 1)
        assert rep.numbers["mps_dim"] == 2 ** (n - 1)
        assert rep.numbers["span_residual"] == 0
        assert rep.numbers["max_length"] == n + 2
        K = chain_kernel(so_n_aklt(n), l, n)
        assert np.max(K.residuals) < 1e-13
        assert projector_distance(K.vectors, mps_ground_space(n, l)) < 1e-8


def test_parent_check_forms_no_chain_sized_array(monkeypatch):
    # every d^l-row route and the float growth are patched to raise, and the
    # traced peak stays below one float column of the chain: 8 * 7^7 bytes
    # = 6.6 MB
    def refuse(*args, **kwargs):
        raise AssertionError("dense route on the parent_check path")

    for name in ("chain_kernel", "_grow_kernel", "mps_ground_space", "projector_distance",
                 "basis_states", "chain_entries", "kernel_basis"):
        monkeypatch.setattr(hamiltonians, name, refuse)
    tracemalloc.start()
    try:
        rep = parent_check(7, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.summary()
    assert peak < 8 * 7**7
    for l in (16, 40):
        rep = parent_check(16, l)
        assert rep.passed, rep.summary()
        assert rep.numbers["kernel_dim"] == rep.numbers["mps_dim"] == 2**15


def _antisymmetric_bump(n, eps):
    """eps times the projector onto (e_01 - e_10) / sqrt(2): a term off the span identity."""
    v = np.zeros(n * n)
    v[1], v[n] = 1.0, -1.0
    return eps * np.outer(v, v) / 2.0


@pytest.mark.parametrize("n", range(3, 9))
def test_span_residual_is_the_two_site_state_residual(n):
    # the O(d^4) check reads h on omega and the e_ij - e_ji; the two-site
    # states of the whole bond algebra span exactly those, so the largest
    # normalized column of h @ basis_states is the same number
    Psi = basis_states(MpsFamily(n, "full"), 2)
    norms = np.linalg.norm(Psi, axis=0)
    Psi = Psi[:, norms > 0] / norms[norms > 0]
    for h in (so_n_aklt(n), so_n_aklt(n) + _antisymmetric_bump(n, 1e-6)):
        dense = float(np.linalg.norm(h @ Psi, axis=0).max())
        assert hamiltonians._span_residual(h, n) == pytest.approx(dense, rel=1e-9, abs=1e-15)
    assert hamiltonians._span_residual(so_n_aklt(n), n) <= 1e-12


def test_span_residual_fails_a_term_off_the_identity(monkeypatch):
    # the twisted term's antisymmetric pairs sit at its minimum, not in its
    # kernel; a bump below 1/n survives rint(n h) and fails the row through
    # term_rounding, n * 1e-6 / 2
    assert hamiltonians._span_residual(TWISTED, 3) > 0.1
    bumped = so_n_aklt(4) + _antisymmetric_bump(4, 1e-6)
    monkeypatch.setattr(hamiltonians, "so_n_aklt", lambda n: bumped)
    rep = parent_check(4, 4)
    assert not rep.passed
    assert rep.numbers["term_rounding"] == pytest.approx(2e-6, rel=1e-6)


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("coefficient", [1, 3])
def test_a_term_off_by_an_integer_coefficient_fails_the_row(monkeypatch, n, coefficient):
    # 1 + SWAP - c Q with c != 2 is integer after scaling by n, so only the
    # exact span identity and the counts can fail it, and both do: past
    # l = n the count is 0
    term = np.eye(n * n) + swap_matrix(n) - coefficient * q_matrix(n)
    monkeypatch.setattr(hamiltonians, "so_n_aklt", lambda n: term)
    rep = parent_check(n, 40)
    assert not rep.passed
    assert rep.numbers["term_rounding"] <= 1e-12
    assert rep.numbers["span_residual"] > 0.1
    assert rep.numbers["kernel_dim"] == 0


def test_mps_states_are_chain_ground_states():
    rng = np.random.default_rng(23)
    for n, l in ((4, 5), (3, 4)):
        H = _dense(chain_entries(so_n_aklt(n), l, n))
        fam = MpsFamily(n, "full")
        coef = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        B = element_from_coefvec(n, coef)
        psi = mps_vector(fam, l, B)
        norm2 = float(np.vdot(psi, psi).real)
        assert norm2 > 1e-6
        assert abs(np.vdot(psi, H @ psi)) < 1e-10 * norm2


def _mps_ground_space_oracle(n, l):
    """Oracle: the ground span from one domain-checked mps_vector per basis element."""
    fam = MpsFamily(n, "p_plus" if n % 2 else ("even" if l % 2 == 0 else "odd"))
    U, s, _ = np.linalg.svd(np.column_stack([mps_vector(fam, l, B) for B in fam.basis()]),
                            full_matrices=False)
    return U[:, s > 1e-10 * s[0]]


@pytest.mark.parametrize("n, l", [
    *[(3, l) for l in (3, 4, 5, 6)], *[(4, l) for l in (4, 5, 6)], (5, 5), (5, 6),
])
def test_ground_space_matches_the_per_element_construction(n, l):
    G, oracle = mps_ground_space(n, l), _mps_ground_space_oracle(n, l)
    assert G.shape[1] == oracle.shape[1] == 2 ** (n - 1)
    assert projector_distance(G, oracle) < 1e-12


def test_ground_space_matches_bond_dimension_parity():
    # even n: the surviving bond grades flip with chain-length parity
    assert mps_ground_space(4, 4).shape[1] == 8
    assert mps_ground_space(4, 5).shape[1] == 8
    assert mps_ground_space(3, 4).shape[1] == 4


def test_frustration_free_aklt():
    rep = frustration_free_check(so_n_aklt(3), 4, 3)
    assert rep.passed, rep.summary()
    assert rep.numbers["frustration_free"] == 1.0
    assert rep.numbers["kernel_dim"] == 4
    assert rep.numbers["intersection_dim"] == 4
    assert abs(rep.numbers["ground_energy"]) < 1e-9
    # what set the oracle's cost: four colour-parity sectors of the 3^4 = 81
    # states, the largest of 21
    assert rep.numbers["oracle_blocks"] == 4
    assert rep.numbers["oracle_largest_block"] == 21


def test_frustration_free_fails_for_twisted_swap():
    rep = frustration_free_check(TWISTED, 4, 3)
    assert rep.passed, rep.summary()
    assert rep.numbers["frustration_free"] == 0.0
    assert rep.numbers["kernel_dim"] == 0
    assert rep.numbers["intersection_dim"] == 0
    assert rep.numbers["ground_energy"] > 1e-3


def test_south_pole_shifted_ground_degeneracy():
    # dimer pattern on an open chain: unique ground state at even length,
    # a dangling-site triplet at odd length
    h = -q_matrix(3)
    shift = float(np.min(np.linalg.eigvalsh(h)))
    hp = h - shift * np.eye(9)
    mults = {}
    for l in (3, 4, 5):
        H = _dense(chain_entries(hp, l, 3))
        vals = np.linalg.eigvalsh(H)
        mults[l] = int(np.count_nonzero(vals - vals[0] < 1e-9))
        assert vals[0] > 0.1  # shifted chain is frustrated, never at zero
    assert mults == {3: 3, 4: 1, 5: 3}


def test_entries_norm_bound_is_the_largest_dense_row_sum():
    for H in (chain_entries(_heisenberg(0.5, -1.5), 5, 2),
              chain_entries(_random_psd_term(3, 2, rank=4, seed=5), 4, 3)):
        assert H.norm_bound() == pytest.approx(
            float(np.abs(_dense(H)).sum(axis=1).max()), rel=1e-15)


def _projector_distance_oracle(Qa, Qb):
    """Oracle: the largest singular value of each residual from a full SVD."""
    ra = np.linalg.svd(Qb - Qa @ (Qa.conj().T @ Qb), compute_uv=False)[0]
    rb = np.linalg.svd(Qa - Qb @ (Qb.conj().T @ Qa), compute_uv=False)[0]
    return float(max(ra, rb))


def test_projector_distance_matches_the_svd_oracle():
    # the (5, 6) parent row, where the spans agree to rounding
    K = chain_kernel(so_n_aklt(5), 6, 5)
    G = mps_ground_space(5, 6)
    assert projector_distance(K.vectors, G) == pytest.approx(
        _projector_distance_oracle(K.vectors, G), rel=1e-12)
    # random complex spans and their perturbations, from nearby to far
    rng = np.random.default_rng(8)
    for dim, r in ((64, 5), (300, 16)):
        Q = np.linalg.qr(rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r)))[0]
        for eps in (1e-12, 1e-6, 1e-2, 1.0):
            noise = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
            P = np.linalg.qr(Q + eps * noise)[0]
            assert projector_distance(Q, P) == pytest.approx(
                _projector_distance_oracle(Q, P), rel=1e-12)


def test_ground_energy_below_rayleigh_quotients():
    # ground_energy is the lowest eigenvalue of the chain of shifted terms
    rng = np.random.default_rng(3)
    for h, d, l in ((so_n_aklt(3), 3, 4), (_heisenberg(0.5, 1.0), 2, 6), (-q_matrix(3), 3, 3)):
        H = _dense(chain_entries(_psd_term(h), l, d))
        e0 = frustration_free_check(h, l, d).numbers["ground_energy"]
        assert abs(e0 - np.linalg.eigvalsh(H)[0]) < 1e-10
        for _ in range(5):
            v = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
            v /= np.linalg.norm(v)
            assert e0 <= np.vdot(v, H @ v).real + 1e-10


def test_three_site_kernel_is_pair_intersection():
    for n in (3, 4):
        H3 = chain_entries(so_n_aklt(n), 3, n)
        K = kernel_basis(H3)
        G2 = mps_ground_space(n, 2)
        Qa = np.kron(G2, np.eye(n))
        Qb = np.kron(np.eye(n), G2)
        # the intersection is spanned by the directions of Qa at angle 0 to span(Qb)
        U, s, _ = np.linalg.svd(Qa.conj().T @ Qb)
        inter = Qa @ U[:, s > 1.0 - 1e-8]
        assert inter.shape[1] == K.dim
        assert projector_distance(K.vectors, inter) < 1e-8
