"""so(n) and su(2) representation utilities.

Matrix side: antisymmetric generators L_ij = |i><j| - |j><i|, spin matrices,
Casimir operators, isotypic decompositions by Casimir clustering, and the
dimension bookkeeping for V tensor V and for the wedge-power branching rule.

Clifford side: the embedding L_ij -> (1/2) gamma_i gamma_j acting by
commutators, raising operators built from f_a = gamma_{2a-1} + i gamma_{2a},
and a highest-weight annihilation test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .checks import cluster_degeneracies
from .clifford import CliffordElement

CLUSTER_TOL = 1e-8


# ---------------------------------------------------------------------------
# matrix generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoNGenerator:
    n: int
    i: int
    j: int
    matrix: np.ndarray


def so_generator(n: int, i: int, j: int) -> np.ndarray:
    """L_ij = |i><j| - |j><i| (1-based indices, i < j); real antisymmetric."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i},{j}) for n={n}")
    L = np.zeros((n, n))
    L[i - 1, j - 1] = 1.0
    L[j - 1, i - 1] = -1.0
    return L


def so_generators(n: int) -> list[SoNGenerator]:
    return [
        SoNGenerator(n, i, j, so_generator(n, i, j))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


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
    """Projector onto total spin mu inside V_s tensor V_s (spectral polynomial)."""
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
    """L_ij acting on wedge^k of the defining representation."""
    L = so_generator(n, i, j)
    subsets = list(combinations(range(n), k))
    pos = {S: a for a, S in enumerate(subsets)}
    dim = len(subsets)
    out = np.zeros((dim, dim))
    for S, col in pos.items():
        for slot, t in enumerate(S):
            for r in range(n):
                c = L[r, t]
                if c == 0.0 or r in S and r != t:
                    continue
                newset = list(S)
                newset[slot] = r
                sign = 1.0
                # bubble the replaced index back to sorted position
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


# ---------------------------------------------------------------------------
# Clifford side: pi(L_ij) = gamma_i gamma_j / 2
# ---------------------------------------------------------------------------


def clifford_rep_so(n: int, A: np.ndarray) -> CliffordElement:
    """Image of an antisymmetric matrix under L_ij -> (1/2) gamma_i gamma_j."""
    A = np.asarray(A)
    if A.shape != (n, n) or np.abs(A + A.T).max() > 1e-12:
        raise ValueError("expected an antisymmetric n x n matrix")
    out = CliffordElement.zero(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if A[i - 1, j - 1] != 0.0:
                out = out + (0.5 * A[i - 1, j - 1]) * CliffordElement.gamma(n, i, j)
    return out


def adjoint_action(n: int, ij: tuple[int, int], B: CliffordElement) -> CliffordElement:
    """[ (1/2) gamma_i gamma_j, B ] -- so(n) acting on C_n; preserves grades."""
    i, j = ij
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i},{j})")
    x = 0.5 * CliffordElement.gamma(n, i, j)
    return x * B - B * x


def f_element(n: int, a: int) -> CliffordElement:
    """f_a = gamma_{2a-1} + i gamma_{2a}."""
    if not 1 <= 2 * a <= n:
        raise ValueError(f"pair index {a} out of range for n={n}")
    return CliffordElement.gamma(n, 2 * a - 1) + 1j * CliffordElement.gamma(n, 2 * a)


def f_tilde_element(n: int, a: int) -> CliffordElement:
    """f~_a = gamma_{2a-1} - i gamma_{2a}."""
    if not 1 <= 2 * a <= n:
        raise ValueError(f"pair index {a} out of range for n={n}")
    return CliffordElement.gamma(n, 2 * a - 1) - 1j * CliffordElement.gamma(n, 2 * a)


def simple_root_raising(n: int) -> list[CliffordElement]:
    """Raising operators for a set of positive simple roots, as elements of C_n.

    L_a - L_{a+1} -> f_a f~_{a+1} / 4 for a = 1..m-1, plus
    L_{m-1} + L_m -> f_{m-1} f_m / 4 (even n) or L_m -> f_m gamma_n / 2 (odd n).
    """
    m = n // 2
    roots = []
    for a in range(1, m):
        roots.append(0.25 * (f_element(n, a) * f_tilde_element(n, a + 1)))
    if n % 2 == 0:
        if m >= 2:
            roots.append(0.25 * (f_element(n, m - 1) * f_element(n, m)))
    else:
        roots.append(0.5 * (f_element(n, m) * CliffordElement.gamma(n, n)))
    return roots


def highest_weight_check(n: int, B: CliffordElement) -> bool:
    """True iff every simple positive root representative annihilates B."""
    tol = 1e-10 * max(1.0, B.norm_max())
    for x in simple_root_raising(n):
        if not (x * B - B * x).is_zero(tol):
            return False
    return True
