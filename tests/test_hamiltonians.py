"""Local terms, chain assembly, kernels, and the parent-chain checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffchain.hamiltonians import (
    ChainHamiltonian,
    InteractionSpec,
    KINDS,
    aklt_su2,
    bilinear_biquadratic,
    build_interaction,
    chain_hamiltonian,
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
    subspace_intersection,
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


def test_kernel_dense_vs_iterative_agree():
    H = chain_hamiltonian(so_n_aklt(3), 5).matrix
    Kd = kernel_basis(H, method="dense")
    Ki = kernel_basis(H, method="iterative", expected=4)
    assert Kd.dim == Ki.dim == 4
    assert projector_distance(Kd.vectors, Ki.vectors) < 1e-8
    with pytest.raises(ValueError):
        kernel_basis(H, method="sideways")


def test_iterative_kernel_rejects_indefinite():
    H = chain_hamiltonian(south_pole(3), 4).matrix
    with pytest.raises(RuntimeError):
        kernel_basis(H, method="iterative", expected=2)


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
        inter = subspace_intersection(Qa, Qb)
        assert inter.shape[1] == K.dim
        assert projector_distance(K.vectors, inter) < 1e-8
