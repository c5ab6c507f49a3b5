from itertools import combinations

import numpy as np
import pytest

from cliffchain.checks import cluster_degeneracies
from cliffchain.clifford import CliffordElement, dist, gamma0
from cliffchain.so_n import (
    casimir_su2_pair,
    clebsch_gordan_dims,
    isotypic_decomposition,
    pieri_dimension_check,
    so_generator,
    so_n_casimir,
    spin_matrices,
    spin_projector,
    wedge_generator,
)


def _generators(n):
    return [so_generator(n, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def test_generators_antisymmetric_exact():
    for L in _generators(5):
        assert np.array_equal(L, -L.T)


def _clifford_image(n, A):
    """pi(A) = sum_{i<j} A_ij (1/2) gamma_i gamma_j for an antisymmetric A."""
    out = CliffordElement.zero(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if A[i - 1, j - 1] != 0.0:
                out = out + (0.5 * A[i - 1, j - 1]) * CliffordElement.gamma(n, i, j)
    return out


def test_commutation_closure_matrix_vs_clifford():
    # [pi(X), pi(Y)] = pi([X, Y]) for all generator pairs
    for n in range(3, 9):
        gens = _generators(n)
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                X, Y = gens[a], gens[b]
                px, py = _clifford_image(n, X), _clifford_image(n, Y)
                lhs = px * py - py * px
                rhs = _clifford_image(n, X @ Y - Y @ X)
                assert dist(lhs, rhs) < 1e-12


def test_spin_matrix_algebra():
    for s in (0.5, 1, 1.5, 2):
        sys = spin_matrices(s)
        Sx, Sy, Sz = sys.vector()
        eye = np.eye(sys.dim)
        assert np.abs(Sx @ Sy - Sy @ Sx - 1j * Sz).max() < 1e-12
        assert np.abs(Sy @ Sz - Sz @ Sy - 1j * Sx).max() < 1e-12
        assert np.abs(Sz @ Sx - Sx @ Sz - 1j * Sy).max() < 1e-12
        S2 = Sx @ Sx + Sy @ Sy + Sz @ Sz
        assert np.abs(S2 - s * (s + 1) * eye).max() < 1e-12
        for S in sys.vector():
            assert np.abs(S - S.conj().T).max() < 1e-12


def test_spin_half_is_half_pauli():
    sys = spin_matrices(0.5)
    assert np.abs(sys.Sx - np.array([[0, 0.5], [0.5, 0]])).max() < 1e-15
    assert np.abs(sys.Sz - np.diag([0.5, -0.5])).max() < 1e-15


def test_casimir_pair_spectra():
    C = casimir_su2_pair(0.5)
    evals = np.sort(np.linalg.eigvalsh(C))
    assert np.abs(evals - np.array([-0.75, 0.25, 0.25, 0.25])).max() < 1e-12

    C1 = casimir_su2_pair(1)
    evals = np.sort(np.linalg.eigvalsh(C1))
    expected = np.array([-2.0] + [-1.0] * 3 + [1.0] * 5)
    assert np.abs(evals - expected).max() < 1e-12

    for s in (0.5, 1, 1.5, 2, 2.5, 3):
        assert abs(np.trace(casimir_su2_pair(s))) < 1e-10


def test_spin_projectors():
    for s in (0.5, 1, 1.5):
        spins = list(range(int(round(2 * s)), -1, -1))
        projs = [spin_projector(s, mu) for mu in spins]
        total = sum(projs)
        assert np.abs(total - np.eye(total.shape[0])).max() < 1e-10
        for a, Pa in enumerate(projs):
            assert abs(np.trace(Pa).real - (2 * spins[a] + 1)) < 1e-10
            for b, Pb in enumerate(projs):
                want = Pa if a == b else 0.0
                assert np.abs(Pa @ Pb - want).max() < 1e-10
    # singlet of two spin-1/2 is the antisymmetric line
    P0 = spin_projector(0.5, 0)
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert np.abs(P0 - np.outer(v, v)).max() < 1e-12
    with pytest.raises(ValueError):
        spin_projector(1, 3)


def test_clebsch_gordan_dims():
    assert clebsch_gordan_dims(0.5, 0.5) == [1.0, 0.0]
    assert clebsch_gordan_dims(2, 1) == [3.0, 2.0, 1.0]
    assert clebsch_gordan_dims(3, 0) == [3.0]
    for mu in (0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4):
        for nu in (0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4):
            spins = clebsch_gordan_dims(mu, nu)
            dims = sum(int(round(2 * k + 1)) for k in spins)
            assert dims == int(round((2 * mu + 1) * (2 * nu + 1)))


def test_casimir_defining_and_trivial():
    C = so_n_casimir(3, lambda i, j: so_generator(3, i, j))
    assert np.abs(C - 2.0 * np.eye(3)).max() < 1e-12
    C0 = so_n_casimir(4, lambda i, j: np.zeros((1, 1)))
    assert np.abs(C0).max() == 0.0


def test_casimir_commutes_with_generators():
    for n in (3, 4, 5):
        C = so_n_casimir(n, lambda i, j: so_generator(n, i, j))
        for L in _generators(n):
            assert np.abs(C @ L - L @ C).max() < 1e-10


def _pair_rep(n):
    def apply(i, j):
        L = so_generator(n, i, j)
        eye = np.eye(n)
        return np.kron(L, eye) + np.kron(eye, L)

    return apply


def test_isotypic_v_tensor_v():
    rep = isotypic_decomposition(so_n_casimir(3, _pair_rep(3)))
    assert sorted(d for _, d in rep.blocks) == [1, 3, 5]
    assert rep.total_dim == 9

    rep5 = isotypic_decomposition(so_n_casimir(5, _pair_rep(5)))
    assert sorted(d for _, d in rep5.blocks) == [1, 10, 14]
    assert rep5.total_dim == 25


def test_isotypic_on_identity():
    rep = isotypic_decomposition(np.eye(7))
    assert rep.blocks == [(1.0, 7)]


def test_pieri_dimension_examples():
    lhs, parts = pieri_dimension_check(4, 2)
    assert lhs == 24 and parts == [4, 4, 16]
    lhs, parts = pieri_dimension_check(5, 1)
    assert lhs == 25 and parts == [1, 10, 14]
    lhs, parts = pieri_dimension_check(5, 0)
    assert lhs == 5 and parts == [0, 5, 0]
    lhs, parts = pieri_dimension_check(3, 3)
    assert lhs == 3 and sum(parts) == 3


def _wedge_generator_oracle(n, k, i, j):
    """Oracle: L_ij on wedge^k by replacing each slot and bubble-sorting the subset.

    wedge_generator took this route before it read the Clifford commutator
    off the monomial sign rule; kept only to cross-check it.
    """
    L = so_generator(n, i, j)
    subsets = list(combinations(range(n), k))
    pos = {S: a for a, S in enumerate(subsets)}
    out = np.zeros((len(subsets), len(subsets)))
    for S, col in pos.items():
        for slot, t in enumerate(S):
            for r in range(n):
                c = L[r, t]
                if c == 0.0 or r in S and r != t:
                    continue
                newset = list(S)
                newset[slot] = r
                sign = 1.0
                a = slot
                while a > 0 and newset[a - 1] > newset[a]:
                    newset[a - 1], newset[a] = newset[a], newset[a - 1]
                    sign = -sign
                    a -= 1
                while a < k - 1 and newset[a + 1] < newset[a]:
                    newset[a + 1], newset[a] = newset[a], newset[a + 1]
                    sign = -sign
                    a += 1
                out[pos[tuple(newset)], col] += sign * c
    return out


def test_wedge_generator_matches_the_subset_loop_oracle():
    for n in range(2, 9):
        for k in range(n + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    got = wedge_generator(n, k, i, j)
                    assert np.array_equal(got, _wedge_generator_oracle(n, k, i, j)), (n, k, i, j)
    with pytest.raises(ValueError):
        wedge_generator(4, 2, 3, 3)
    with pytest.raises(ValueError):
        wedge_generator(4, 2, 1, 5)


def _wedge_pair_rep(n, k):
    def apply(i, j):
        Lk = _wedge_generator_oracle(n, k, i, j)
        L1 = so_generator(n, i, j)
        return np.kron(Lk, np.eye(n)) + np.kron(np.eye(len(Lk)), L1)

    return apply


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_pieri_against_casimir_clustering(n):
    # wedge^k V x V = wedge^(k-1) + wedge^(k+1) + rest, on the oracle generators:
    # each wedge^(k+-1) Casimir cluster is one cluster of the pair spectrum
    for k in range(0, n + 1):
        lhs, (lo, hi, rest) = pieri_dimension_check(n, k)
        C = so_n_casimir(n, _wedge_pair_rep(n, k))
        evals = np.linalg.eigvalsh(C)
        assert len(evals) == lhs
        tol = 1e-8 * max(1.0, np.abs(evals).max())
        blocks = cluster_degeneracies(evals, tol)
        wedge = []
        for kk, d in ((k - 1, lo), (k + 1, hi)):
            if d == 0:
                continue
            Ck = so_n_casimir(n, lambda i, j, kk=kk: _wedge_generator_oracle(n, kk, i, j))
            val = float(Ck[0, 0].real)
            assert np.abs(Ck - val * np.eye(len(Ck))).max() < 1e-10
            assert abs(val - kk * (n - kk)) < 1e-10
            wedge += [val] * d
        matched = 0
        for val, d in cluster_degeneracies(wedge, tol):
            near = [b for v, b in blocks if abs(v - val) <= tol]
            assert near == [d]
            matched += d
        assert lhs - matched == rest


def _commutator_matrix(n, k, i, j):
    """Oracle: [(1/2) gamma_i gamma_j, gamma_S] by two Clifford products, on the k-subsets S."""
    x = 0.5 * CliffordElement.gamma(n, i, j)
    subsets = [sum(1 << t for t in S) for S in combinations(range(n), k)]
    out = np.zeros((len(subsets), len(subsets)), dtype=complex)
    for col, S in enumerate(subsets):
        B = CliffordElement(n, {S: 1.0})
        image = x * B - B * x
        out[:, col] = [image.coef.get(T, 0.0) for T in subsets]
    return out


def test_adjoint_action_matches_the_two_product_commutator():
    # wedge_generator is the adjoint action of so(n) on grade k of C_n
    for n in range(2, 8):
        for k in range(n + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert np.array_equal(wedge_generator(n, k, i, j),
                                          _commutator_matrix(n, k, i, j)), (n, k, i, j)


def test_adjoint_action_examples():
    # [(1/2) gamma_1 gamma_3, gamma_1 gamma_2] = gamma_2 gamma_3 on the 2-subsets
    # 12, 13, 14, 23, 24, 34 of n = 4; the scalars are fixed
    L = wedge_generator(4, 2, 1, 3)
    assert L[3, 0] == 1.0 and np.count_nonzero(L[:, 0]) == 1
    assert not np.any(wedge_generator(4, 0, 1, 2))


def test_adjoint_action_preserves_grade_and_hodge():
    # the commutator with (1/2) gamma_i gamma_j keeps each grade, and the Hodge
    # star gamma0 commutes with it
    rng = np.random.default_rng(2)
    for n in (4, 5, 6):
        x = 0.5 * CliffordElement.gamma(n, 2, 3)
        for bits in range(1, 1 << n):
            B = CliffordElement(n, {bits: 1.0})
            assert (x * B - B * x).grades() <= {bits.bit_count()}
        for _ in range(5):
            B = CliffordElement(n, {int(rng.integers(0, 1 << n)): 1.0})
            lhs = x * (gamma0(n) * B) - (gamma0(n) * B) * x
            rhs = gamma0(n) * (x * B - B * x)
            assert dist(lhs, rhs) < 1e-12


def test_weight_ladder_on_f():
    # L_{2a-1,2a} f_a = i f_a for f_a = e_{2a-1} + i e_{2a}, the weight
    # vectors gamma_{2a-1} + i gamma_{2a} on grade 1
    for n in (4, 5, 6):
        for a in range(1, n // 2 + 1):
            fa = np.zeros(n, dtype=complex)
            fa[2 * a - 2], fa[2 * a - 1] = 1.0, 1.0j
            got = wedge_generator(n, 1, 2 * a - 1, 2 * a) @ fa
            assert np.abs(got - 1j * fa).max() < 1e-12
