"""Local terms, chain assembly, kernels, and the parent-chain checks."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffchain.hamiltonians import (
    DENSE_EIG_CAP,
    _norm_bound,
    ChainHamiltonian,
    InteractionSpec,
    KINDS,
    aklt_su2,
    bilinear_biquadratic,
    build_interaction,
    chain_hamiltonian,
    chain_kernel,
    cluster_degeneracies,
    embedded_term,
    frustration_free_check,
    heisenberg,
    kernel_basis,
    low_spectrum,
    majumdar_ghosh,
    majumdar_ghosh_raw,
    mps_ground_space,
    parent_check,
    projector_distance,
    q_matrix,
    so_n_aklt,
    south_pole,
    swap_matrix,
    swap_q,
)
from cliffchain.mps import MpsFamily, element_from_coefvec, mps_vector
from cliffchain.so_n import spin_matrices, spin_projector


def all_specs():
    return [
        swap_q(3, 0.7, -0.2),
        so_n_aklt(4),
        south_pole(3),
        aklt_su2(),
        majumdar_ghosh(),
        heisenberg(0.5, J=1.0),
        heisenberg(1.5, J=-0.3),
        bilinear_biquadratic(0.7),
    ]


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
    with pytest.raises(ValueError):
        InteractionSpec("NO_SUCH_KIND", n=3)
    with pytest.raises(ValueError):
        swap_q(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        heisenberg(0.3)
    assert so_n_aklt(5).local_dim == 5
    assert aklt_su2().local_dim == 3
    assert majumdar_ghosh().support == 3
    assert heisenberg(1.5).local_dim == 4
    assert set(s.kind for s in all_specs()) == set(KINDS)


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
    for spec in all_specs():
        h = build_interaction(spec)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_projector_kinds_psd():
    for spec in (so_n_aklt(3), so_n_aklt(4), so_n_aklt(5), so_n_aklt(6), aklt_su2()):
        vals = np.linalg.eigvalsh(build_interaction(spec))
        assert vals[0] > -1e-10


def test_south_pole_is_a_swap_q_point():
    for n in (3, 4):
        assert np.allclose(build_interaction(south_pole(n)),
                           build_interaction(swap_q(n, 0.0, -1.0)), atol=0)


def test_so_n_aklt_term_spectrum_n4():
    vals = np.linalg.eigvalsh(build_interaction(so_n_aklt(4)))
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
    h = build_interaction(aklt_su2())
    assert np.max(np.abs(h - spin_projector(1, 2))) < 1e-12


def test_bilinear_biquadratic_hits_the_aklt_ray():
    # cos t (S.S) + sin t (S.S)^2 at tan t = 1/3 is an affine shift of the
    # spin-2 projector
    theta = np.arctan(1.0 / 3.0)
    bb = build_interaction(bilinear_biquadratic(theta))
    aklt = build_interaction(aklt_su2())
    lhs = np.eye(9) / 3.0 + (np.sqrt(10.0) / 6.0) * bb
    assert np.max(np.abs(lhs - aklt)) < 1e-12


def test_heisenberg_half_is_swap_affine():
    S = swap_matrix(2)
    for J in (1.0, -2.5):
        h = build_interaction(heisenberg(0.5, J=J))
        assert np.max(np.abs(h - J * (S / 2.0 - np.eye(4) / 4.0))) < 1e-13


def test_majumdar_ghosh_raw_offset():
    # pairwise sigma.sigma = 6 P(3/2) - 3
    h = build_interaction(majumdar_ghosh())
    raw = majumdar_ghosh_raw()
    assert np.max(np.abs(raw - (6.0 * h - 3.0 * np.eye(8)))) < 1e-12
    assert np.allclose(h @ h, h, atol=1e-12)


def test_rotation_commutes_with_so_terms():
    rng = np.random.default_rng(7)
    h_aklt = build_interaction(so_n_aklt(4))
    for _ in range(50):
        w = rand_so(rng, 4)
        ww = np.kron(w, w)
        assert np.max(np.abs(h_aklt @ ww - ww @ h_aklt)) < 1e-10
    for spec in (swap_q(3, 0.7, -0.2), south_pole(3)):
        h = build_interaction(spec)
        for _ in range(10):
            w = rand_so(rng, 3)
            ww = np.kron(w, w)
            assert np.max(np.abs(h @ ww - ww @ h)) < 1e-10


def test_rotation_commutes_with_su2_terms():
    rng = np.random.default_rng(11)
    for spec in (aklt_su2(), bilinear_biquadratic(0.7), heisenberg(1.5, J=-0.3)):
        h = build_interaction(spec)
        s = (spec.local_dim - 1) / 2.0
        for _ in range(10):
            u = rand_su2_rotation(rng, s)
            uu = np.kron(u, u)
            assert np.max(np.abs(h @ uu - uu @ h)) < 1e-10
    h = build_interaction(majumdar_ghosh())
    for _ in range(10):
        u = rand_su2_rotation(rng, 0.5)
        uuu = np.kron(u, np.kron(u, u))
        assert np.max(np.abs(h @ uuu - uuu @ h)) < 1e-10


def test_chain_is_sum_of_embedded_terms():
    for spec, l in ((so_n_aklt(3), 4), (majumdar_ghosh(), 5)):
        d = spec.local_dim
        h = build_interaction(spec)
        H = chain_hamiltonian(spec, l)
        assert isinstance(H, ChainHamiltonian)
        assert H.dim == d**l
        total = np.zeros((d**l, d**l), dtype=complex)
        for x in range(l - spec.support + 1):
            total += embedded_term(h, l, x, d).toarray()
        assert np.max(np.abs(H.matrix.toarray() - total)) < 1e-15


def test_chain_at_support_length_is_the_term():
    assert np.allclose(chain_hamiltonian(so_n_aklt(3), 2).matrix.toarray(),
                       build_interaction(so_n_aklt(3)), atol=0)
    assert np.allclose(chain_hamiltonian(majumdar_ghosh(), 3).matrix.toarray(),
                       build_interaction(majumdar_ghosh()), atol=0)


def test_chain_validation():
    with pytest.raises(ValueError):
        chain_hamiltonian(so_n_aklt(3), 1)
    with pytest.raises(ValueError):
        chain_hamiltonian(majumdar_ghosh(), 2)
    with pytest.raises(ValueError):
        chain_hamiltonian(so_n_aklt(6), 10, cap=1000)


def test_kernel_dims_known_chains():
    assert kernel_basis(chain_hamiltonian(aklt_su2(), 4).matrix).dim == 4
    for l, dim in ((4, 5), (5, 4), (6, 5), (7, 4)):
        assert kernel_basis(chain_hamiltonian(majumdar_ghosh(), l).matrix).dim == dim
    assert kernel_basis(chain_hamiltonian(so_n_aklt(4), 4).matrix).dim == 8


def test_kernel_basis_certified():
    K = kernel_basis(chain_hamiltonian(so_n_aklt(3), 5).matrix)
    assert K.dim == 4
    V = K.vectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(K.dim))) < 1e-10
    assert np.all(K.residuals < 1e-9)


def test_kernel_basis_is_dense_and_real_for_real_chains():
    K = kernel_basis(chain_hamiltonian(so_n_aklt(3), 4).matrix)
    assert K.dim == 4 and not np.iscomplexobj(K.vectors)
    with pytest.raises(ValueError):
        kernel_basis(sp.identity(DENSE_EIG_CAP + 1, format="csr"))


def _kernel_basis_oracle(H, tol=1e-10):
    """Oracle: kernel of H from one dense eigh of the whole matrix.

    kernel_basis took this route before it split H into support-connected
    blocks; the cut-off is the same, tol times the norm bound of H.
    """
    Hd = np.asarray(H.toarray() if sp.issparse(H) else H)
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
    return H


def _random_hermitian():
    rng = np.random.default_rng(71)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    B = A[:, :30] @ A[:, :30].conj().T  # rank 30, kernel of dimension 10
    return 0.5 * (B + B.conj().T)


def _shifted_chain(spec, l):
    h, d = _psd_term(spec), spec.local_dim
    return sum(embedded_term(h, l, x, d) for x in range(l - spec.support + 1))


@pytest.mark.parametrize("make, dim, blocks", [
    *[(lambda n=n, l=l: chain_hamiltonian(so_n_aklt(n), l).matrix, 2 ** (n - 1), 2 ** (n - 1))
      for n, l in ((3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (5, 4))],
    (lambda: chain_hamiltonian(aklt_su2(), 4).matrix, 4, None),
    *[(lambda l=l: chain_hamiltonian(majumdar_ghosh(), l).matrix, dim, None)
      for l, dim in ((4, 5), (5, 4), (6, 5), (7, 4))],
    # the twisted term has an empty kernel: only dropped_min is a margin
    (lambda: _shifted_chain(swap_q(3, 1.0, 0.3), 4), 0, None),
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
    assert sum(K.blocks) == H.shape[0]
    if blocks is not None:
        assert len(K.blocks) == blocks


def test_kernel_basis_splits_only_on_exact_zeros():
    assert kernel_basis(_planted_blocks(0.0)).blocks == (4, 5)
    assert kernel_basis(_planted_blocks()).blocks == (9,)


def _psd_term(spec):
    h = build_interaction(spec)
    return h - np.min(np.linalg.eigvalsh(h)) * np.eye(h.shape[0])


CHAIN_KERNEL_GRID = [
    *[(so_n_aklt(3), l, 4) for l in (2, 3, 4, 5, 6)],
    # at l = 2 the kernel is the antisymmetric pairs plus the singlet
    *[(so_n_aklt(4), l, dim) for l, dim in ((2, 7), (3, 8), (4, 8), (5, 8))],
    *[(so_n_aklt(5), l, dim) for l, dim in ((2, 11), (3, 15), (4, 16))],
    *[(majumdar_ghosh(), l, dim) for l, dim in ((4, 5), (5, 4), (6, 5), (7, 4))],
    *[(aklt_su2(), l, 4) for l in (3, 4, 5, 6)],
    # the twisted term's ground pair is antisymmetric: only the l = 3 singlet
    # eps_ijk keeps every term at its minimum
    *[(swap_q(3, 1.0, 0.3), l, dim) for l, dim in ((3, 1), (4, 0), (5, 0))],
]


@pytest.mark.parametrize("spec, l, dim", CHAIN_KERNEL_GRID)
def test_chain_kernel_matches_the_dense_oracle(spec, l, dim):
    h, d = _psd_term(spec), spec.local_dim
    oracle = kernel_basis(sum(embedded_term(h, l, x, d) for x in range(l - spec.support + 1)))
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


def _random_psd_term(d, support, rank, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d**support, rank)) + 1j * rng.standard_normal((d**support, rank))
    return A @ A.conj().T


@pytest.mark.parametrize("h, l, d, dim", [
    *[(_psd_term(spec), l, spec.local_dim, dim) for spec, l, dim in CHAIN_KERNEL_GRID],
    (build_interaction(so_n_aklt(6)), 6, 6, 32),
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


@pytest.mark.parametrize("n, l, max_rows", [(5, 7, 400), (6, 6, 1116)])
def test_chain_kernel_factors_only_bond_sized_matrices(monkeypatch, n, l, max_rows):
    # step k+1 -> k+2 factors the (r_k d^2) x (r_{k+1} d) bracket of the
    # bond-space lemma, never a matrix with d^(k+2) rows
    h = build_interaction(so_n_aklt(n))
    ranks = [1, n] + [chain_kernel(h, k, n).dim for k in range(2, l)]
    shapes, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert chain_kernel(h, l, n).dim == 2 ** (n - 1)
    assert shapes == [(ranks[k] * n**2, ranks[k + 1] * n) for k in range(l - 1)]
    assert max(rows for rows, _ in shapes) == max_rows


def test_chain_kernel_reaches_past_the_dense_oracle():
    # dimensions 5^7 = 78,125 and 6^6 = 46,656, far above DENSE_EIG_CAP
    for n, l in ((5, 7), (6, 6)):
        K = chain_kernel(build_interaction(so_n_aklt(n)), l, n)
        assert K.dim == 2 ** (n - 1)
        assert projector_distance(K.vectors, mps_ground_space(n, l)) < 1e-8


def test_chain_kernel_validation():
    h = build_interaction(so_n_aklt(3))
    with pytest.raises(ValueError):
        chain_kernel(h, 1, 3)
    with pytest.raises(ValueError):
        chain_kernel(h, 4, 2)


def test_parent_check_grid():
    for n, l in ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5)):
        rep = parent_check(n, l)
        assert rep.passed, rep.summary()
        assert rep.numbers["kernel_dim"] == 2 ** (n - 1)
        assert rep.numbers["mps_dim"] == 2 ** (n - 1)
        assert rep.numbers["projector_distance"] < 1e-8


def test_mps_states_are_chain_ground_states():
    rng = np.random.default_rng(23)
    for n, l in ((4, 5), (3, 4)):
        H = chain_hamiltonian(so_n_aklt(n), l).matrix
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
    rep = frustration_free_check(so_n_aklt(3), 4)
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
    rep = frustration_free_check(swap_q(3, 1.0, 0.3), 4)
    assert rep.passed, rep.summary()
    assert rep.numbers["frustration_free"] == 0.0
    assert rep.numbers["kernel_dim"] == 0
    assert rep.numbers["intersection_dim"] == 0
    assert rep.numbers["ground_energy"] > 1e-3


def test_south_pole_shifted_ground_degeneracy():
    # dimer pattern on an open chain: unique ground state at even length,
    # a dangling-site triplet at odd length
    h = build_interaction(south_pole(3))
    shift = float(np.min(np.linalg.eigvalsh(h)))
    hp = h - shift * np.eye(9)
    mults = {}
    for l in (3, 4, 5):
        H = sum(embedded_term(hp, l, x, 3).toarray() for x in range(l - 1))
        vals = np.linalg.eigvalsh(H)
        mults[l] = int(np.count_nonzero(vals - vals[0] < 1e-9))
        assert vals[0] > 0.1  # shifted chain is frustrated, never at zero
    assert mults == {3: 3, 4: 1, 5: 3}


def test_low_spectrum_aklt_n3_l6():
    vals = low_spectrum(so_n_aklt(3), 6, k=6)
    assert np.all(np.diff(vals) > -1e-12)
    clusters = cluster_degeneracies(vals, tol=1e-9)
    assert clusters[0][1] == 4
    assert abs(clusters[0][0]) < 1e-10
    assert vals[4] > 1e-6


def test_low_spectrum_refuses_chains_above_the_dense_cap():
    # 3^7 = 2187 dimensions; refused before the chain is assembled
    with pytest.raises(ValueError, match="exceeds"):
        low_spectrum(so_n_aklt(3), 7)


def test_norm_bound_is_the_same_for_dense_and_sparse_chains():
    H = chain_hamiltonian(heisenberg(0.5, J=-1.5), 5).matrix
    assert _norm_bound(H) == pytest.approx(_norm_bound(H.toarray()), rel=1e-15)
    assert _norm_bound(H) == float(np.abs(H.toarray()).sum(axis=1).max())


def _projector_distance_oracle(Qa, Qb):
    """Oracle: the largest singular value of each residual from a full SVD."""
    ra = np.linalg.svd(Qb - Qa @ (Qa.conj().T @ Qb), compute_uv=False)[0]
    rb = np.linalg.svd(Qa - Qb @ (Qb.conj().T @ Qa), compute_uv=False)[0]
    return float(max(ra, rb))


def test_projector_distance_matches_the_svd_oracle():
    # the (5, 6) parent row, where the spans agree to rounding
    K = chain_kernel(build_interaction(so_n_aklt(5)), 6, 5)
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
    rng = np.random.default_rng(3)
    for spec, l in ((so_n_aklt(3), 4), (heisenberg(0.5, J=1.0), 6), (south_pole(3), 3)):
        H = chain_hamiltonian(spec, l).matrix
        e0 = low_spectrum(spec, l, k=1)[0]
        for _ in range(5):
            v = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
            v /= np.linalg.norm(v)
            assert e0 <= np.vdot(v, H @ v).real + 1e-10


def test_three_site_kernel_is_pair_intersection():
    for n in (3, 4):
        H3 = chain_hamiltonian(so_n_aklt(n), 3).matrix
        K = kernel_basis(H3)
        G2 = mps_ground_space(n, 2)
        Qa = np.kron(G2, np.eye(n))
        Qb = np.kron(np.eye(n), G2)
        # the intersection is spanned by the directions of Qa at angle 0 to span(Qb)
        U, s, _ = np.linalg.svd(Qa.conj().T @ Qb)
        inter = Qa @ U[:, s > 1.0 - 1e-8]
        assert inter.shape[1] == K.dim
        assert projector_distance(K.vectors, inter) < 1e-8
