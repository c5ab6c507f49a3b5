"""so(n) and su(2) representation utilities.

Antisymmetric generators L_ij = |i><j| - |j><i|, spin matrices, Casimir
operators, isotypic decompositions by Casimir clustering, and the dimension
bookkeeping for V tensor V and for the wedge-power branching rule.

The wedge powers come from the Clifford algebra: under the embedding
L_ij -> (1/2) gamma_i gamma_j acting by commutators, grade k of C_n
carries wedge^k V, and wedge_generator reads [(1/2) gamma_i gamma_j,
gamma_S] off the monomial sign rule (clifford._merge_sign), with no
Clifford product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .checks import cluster_degeneracies
from .clifford import _merge_sign

CLUSTER_TOL = 1e-8


# ---------------------------------------------------------------------------
# matrix generators
# ---------------------------------------------------------------------------


def so_generator(n: int, i: int, j: int) -> np.ndarray:
    """L_ij = |i><j| - |j><i| (1-based indices, i < j); real antisymmetric."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i},{j}) for n={n}")
    L = np.zeros((n, n))
    L[i - 1, j - 1] = 1.0
    L[j - 1, i - 1] = -1.0
    return L


# ---------------------------------------------------------------------------
# su(2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinSystem:
    """Spin-s matrices in the descending-m basis |s>, |s-1>, ..., |-s>.

    two_s is stored doubled so half-integer spins never hit float equality.
    """

    two_s: int

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    @property
    def dim(self) -> int:
        return self.two_s + 1

    @property
    def Sz(self) -> np.ndarray:
        return np.diag([self.s - k for k in range(self.dim)]).astype(complex)

    @property
    def Splus(self) -> np.ndarray:
        s = self.s
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in range(1, self.dim):
            m = s - k
            out[k - 1, k] = np.sqrt(s * (s + 1) - m * (m + 1))
        return out

    @property
    def Sminus(self) -> np.ndarray:
        return self.Splus.conj().T

    @property
    def Sx(self) -> np.ndarray:
        return (self.Splus + self.Sminus) / 2.0

    @property
    def Sy(self) -> np.ndarray:
        return (self.Splus - self.Sminus) / 2.0j

    def vector(self) -> list[np.ndarray]:
        return [self.Sx, self.Sy, self.Sz]


def spin_matrices(s) -> SpinSystem:
    two_s = int(round(2 * s))
    if two_s < 0 or abs(two_s - 2 * s) > 1e-12:
        raise ValueError(f"spin must be a nonnegative half-integer, got {s}")
    return SpinSystem(two_s)


def casimir_su2_pair(s) -> np.ndarray:
    """S1 . S2 on V_s tensor V_s."""
    sys = spin_matrices(s)
    d = sys.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for S in sys.vector():
        out += np.kron(S, S)
    return out


def pair_spin_values(s) -> list[int]:
    """Total spins in V_s tensor V_s: 2s, 2s-1, ..., 0."""
    two_s = spin_matrices(s).two_s
    return list(range(two_s, -1, -1))


def spin_projector(s, mu: int) -> np.ndarray:
    """Projector onto total spin mu inside V_s tensor V_s (spectral polynomial).

    An oracle: acceptance 02 and test_hamiltonians::test_aklt_su2_is_the_spin2_projector
    compare the spin-1 AKLT term (hamiltonians.aklt_su2) against spin_projector(1, 2).
    """
    values = pair_spin_values(s)
    if mu not in values:
        raise ValueError(f"total spin {mu} not in {values} for s={s}")
    C = casimir_su2_pair(s)
    eig = {j: 0.5 * (j * (j + 1) - 2 * s * (s + 1)) for j in values}
    P = np.eye(C.shape[0], dtype=complex)
    for j in values:
        if j == mu:
            continue
        P = P @ (C - eig[j] * np.eye(C.shape[0])) / (eig[mu] - eig[j])
    return P


def clebsch_gordan_dims(mu, nu) -> list[float]:
    """Total spins in V_mu tensor V_nu, descending from mu+nu to |mu-nu|."""
    two_mu = spin_matrices(mu).two_s
    two_nu = spin_matrices(nu).two_s
    return [k / 2.0 for k in range(two_mu + two_nu, abs(two_mu - two_nu) - 1, -2)]


# ---------------------------------------------------------------------------
# Casimir and isotypic decomposition
# ---------------------------------------------------------------------------


def so_n_casimir(n: int, rep_apply) -> np.ndarray:
    """-sum_{i<j} rho(L_ij)^2 for rho given by rep_apply(i, j) -> matrix."""
    first = np.asarray(rep_apply(1, 2), dtype=complex)
    C = np.zeros_like(first)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            R = np.asarray(rep_apply(i, j), dtype=complex)
            C -= R @ R
    return C


@dataclass(frozen=True)
class IsotypicReport:
    blocks: list  # (casimir eigenvalue, summed dimension)
    total_dim: int


def isotypic_decomposition(C: np.ndarray) -> IsotypicReport:
    """Cluster the spectrum of a Hermitian Casimir into isotypic blocks."""
    C = np.asarray(C)
    if np.abs(C - C.conj().T).max() > 1e-10:
        raise ValueError("Casimir matrix is not Hermitian")
    evals = np.linalg.eigvalsh(C)
    tol = CLUSTER_TOL * max(1.0, np.abs(evals).max())
    return IsotypicReport(cluster_degeneracies(evals, tol), len(evals))


def pieri_dimension_check(n: int, k: int) -> tuple[int, list[int]]:
    """Dimension count for wedge^k V tensor V.

    Returns (C(n,k)*n, [dim wedge^{k-1}, dim wedge^{k+1}, remainder]);
    the remainder is the mixed-symmetry block.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    lhs = comb(n, k) * n
    lower = comb(n, k - 1) if k >= 1 else 0
    upper = comb(n, k + 1) if k + 1 <= n else 0
    rest = lhs - lower - upper
    if rest < 0:
        raise AssertionError("negative mixed-symmetry dimension")
    return lhs, [lower, upper, rest]


def wedge_generator(n: int, k: int, i: int, j: int) -> np.ndarray:
    """L_ij acting on wedge^k of the defining representation.

    Basis: the k-subsets S in lexicographic order, e_S <-> gamma_S.  Grade k
    of C_n carries wedge^k V under B -> [(1/2) gamma_i gamma_j, B], and that
    commutator is gamma_i gamma_j gamma_S when exactly one of i, j is in S
    and 0 otherwise, so column S has the one entry _merge_sign(ij, S) at
    row S xor ij.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i},{j}) for n={n}")
    subsets = [sum(1 << t for t in S) for S in combinations(range(n), k)]
    pos = {S: a for a, S in enumerate(subsets)}
    ij = (1 << (i - 1)) | (1 << (j - 1))
    out = np.zeros((len(subsets), len(subsets)))
    for col, S in enumerate(subsets):
        if (S & ij).bit_count() == 1:
            out[pos[S ^ ij], col] = _merge_sign(ij, S)
    return out
