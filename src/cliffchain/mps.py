"""Matrix product states over the Clifford bond algebra and their CP maps.

The state vectors are psi(B)_{i_1..i_l} = Tr(B gamma_{i_l} ... gamma_{i_1}),
computed by abstract traces (bitmask tables), never by contracting realized
matrices.  Expectation values use the transfer maps

    E_A(B)   = (1/n) sum_ij A_ij gamma_i B gamma_j
    F1_A     = alpha o E_{RAR},   F2_A = alpha o E_A   (on P_+ C_n^even)

acting on coefficient vectors over the 2^n monomial basis.  Reduced density
matrices are assembled from the frame {psi(P gamma_K)}; for lengths past the
dense cap everything runs through Gram matrices of bond elements.  Their
overlap kernel is diagonal in the monomial basis with entries that depend
only on the grade, so it is a length-(n+1) vector built by a recurrence in l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import cluster_degeneracies
from .clifford import (
    CliffordElement,
    alpha,
    projectors_pm,
    realized_dim,
    reversal_sign,
)

STATE_CAP = 20_000_000
DENSE_RDM_CAP = 4096

_PARITY16 = np.array([bin(i).count("1") & 1 for i in range(1 << 16)], dtype=np.uint8)


def _parity(a: np.ndarray) -> np.ndarray:
    a = a.astype(np.uint32, copy=False)
    return _PARITY16[a & np.uint32(0xFFFF)] ^ _PARITY16[a >> np.uint32(16)]


def _sign_left(g: int, bits: np.ndarray) -> np.ndarray:
    """Sign of gamma_g * gamma_K: count generators of K below g."""
    below = np.uint32((1 << g) - 1)
    return (1 - 2 * _parity(bits & below)).astype(np.int8)


def _sign_right(g: int, bits: np.ndarray, n: int) -> np.ndarray:
    """Sign of gamma_K * gamma_g: count generators of K above g."""
    above = np.uint32(((1 << n) - 1) & ~((1 << (g + 1)) - 1))
    return (1 - 2 * _parity(bits & above)).astype(np.int8)


def _grades(n: int) -> np.ndarray:
    return np.array([k.bit_count() for k in range(1 << n)], dtype=np.int64)


def _sq_signs(n: int) -> np.ndarray:
    """reversal_sign(|K|) for every monomial K."""
    return np.array([reversal_sign(k.bit_count()) for k in range(1 << n)], dtype=np.int8)


def coefvec(B: CliffordElement) -> np.ndarray:
    """Dense coefficient vector of B over the 2^n monomial basis."""
    v = np.zeros(1 << B.n, dtype=complex)
    for bits, c in B.coef.items():
        v[bits] = c
    return v


def element_from_coefvec(n: int, v: np.ndarray) -> CliffordElement:
    return CliffordElement(n, {int(b): complex(c) for b, c in enumerate(v)})


# ---------------------------------------------------------------------------
# bond domains
# ---------------------------------------------------------------------------

BOND_DOMAINS = ("full", "p_plus", "even", "odd", "p_plus_even", "p_minus_even")


@dataclass(frozen=True)
class MpsFamily:
    """The Clifford MPS family with a choice of bond domain.

    full          : all of C_n
    p_plus        : P_+ C_n, odd n
    even / odd    : grade-parity subalgebra/subspace of C_n, even n
    p_plus_even   : P_+ C_n^even, even n (the + pure-state domain)
    p_minus_even  : P_- C_n^even, even n
    """

    n: int
    bond_domain: str = "full"

    def __post_init__(self):
        if self.bond_domain not in BOND_DOMAINS:
            raise ValueError(f"unknown bond domain {self.bond_domain!r}")
        if self.bond_domain == "p_plus" and self.n % 2 == 0:
            raise ValueError("p_plus domain is the odd-n bond algebra")
        if self.bond_domain in ("even", "odd", "p_plus_even", "p_minus_even") and self.n % 2:
            raise ValueError(f"{self.bond_domain} domain needs even n")

    def basis(self) -> list[CliffordElement]:
        n = self.n
        if self.bond_domain == "full":
            return [CliffordElement(n, {b: 1.0}) for b in range(1 << n)]
        if self.bond_domain == "even":
            return [CliffordElement(n, {b: 1.0}) for b in range(1 << n) if b.bit_count() % 2 == 0]
        if self.bond_domain == "odd":
            return [CliffordElement(n, {b: 1.0}) for b in range(1 << n) if b.bit_count() % 2 == 1]
        P_plus, P_minus = projectors_pm(n)
        if self.bond_domain == "p_plus":
            return [P_plus * CliffordElement(n, {b: 1.0}) for b in range(1 << (n - 1))]
        P = P_plus if self.bond_domain == "p_plus_even" else P_minus
        return [
            P * CliffordElement(n, {b: 1.0})
            for b in range(1 << (n - 1))
            if b.bit_count() % 2 == 0
        ]

    def dim(self) -> int:
        if self.bond_domain == "full":
            return 1 << self.n
        if self.bond_domain in ("even", "odd", "p_plus"):
            return 1 << (self.n - 1)
        return 1 << (self.n - 2)

    def contains(self, B: CliffordElement, tol: float = 1e-12) -> bool:
        if B.n != self.n:
            return False
        scale = max(1.0, B.norm_max())
        if self.bond_domain == "full":
            return True
        if self.bond_domain == "even":
            return B.restrict_grades(range(1, self.n + 1, 2)).norm_max() < tol * scale
        if self.bond_domain == "odd":
            return B.restrict_grades(range(0, self.n + 1, 2)).norm_max() < tol * scale
        P_plus, P_minus = projectors_pm(self.n)
        if self.bond_domain == "p_plus":
            return (P_plus * B - B).norm_max() < tol * scale
        P = P_plus if self.bond_domain == "p_plus_even" else P_minus
        even_ok = B.restrict_grades(range(1, self.n + 1, 2)).norm_max() < tol * scale
        return even_ok and (P * B - B).norm_max() < tol * scale


# ---------------------------------------------------------------------------
# state vectors
# ---------------------------------------------------------------------------


def _string_tables(n: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """bits and sign of gamma_{i_l}...gamma_{i_1} for all n^l index strings.

    Flat order has i_1 most significant.  Site k is appended by left
    multiplication, so the new physical index varies fastest.
    """
    bits = np.zeros(1, dtype=np.uint32)
    sign = np.ones(1, dtype=np.int8)
    for _ in range(l):
        nb = np.empty((bits.size, n), dtype=np.uint32)
        ns = np.empty((bits.size, n), dtype=np.int8)
        for g in range(n):
            nb[:, g] = bits ^ np.uint32(1 << g)
            ns[:, g] = sign * _sign_left(g, bits)
        bits, sign = nb.reshape(-1), ns.reshape(-1)
    return bits, sign


def _psi(n: int, l: int, B: CliffordElement, cap: int = STATE_CAP) -> np.ndarray:
    if n**l > cap:
        raise ValueError(f"state dimension n^l = {n**l} exceeds cap {cap}")
    bits, sign = _string_tables(n, l)
    b = coefvec(B) * _sq_signs(n)
    return realized_dim(n) * sign * b[bits]


def mps_vector(fam: MpsFamily, l: int, B: CliffordElement, cap: int = STATE_CAP) -> np.ndarray:
    """psi(B): coefficient at (i_1..i_l) is Tr(B gamma_{i_l}...gamma_{i_1})."""
    if not fam.contains(B):
        raise ValueError(f"element outside the {fam.bond_domain} bond domain")
    return _psi(fam.n, l, B, cap)


def psi_plus(n: int, l: int, B: CliffordElement) -> np.ndarray:
    """The + state map psi(B), with B used as given.

    No projection is applied: B may be any element of C_n, and only its
    components of grade parity l mod 2 contribute.  For even n the + pure-state
    bond domain is P_+ C_n^even ('p_plus_even'); use mps_vector to have the
    domain checked.
    """
    return _psi(n, l, B)


def psi_minus(n: int, l: int, B: CliffordElement) -> np.ndarray:
    """The - state map: psi_minus(B) = psi_plus(alpha(B))."""
    return _psi(n, l, alpha(B))


# ---------------------------------------------------------------------------
# transfer maps
# ---------------------------------------------------------------------------


def apply_E(n: int, A: np.ndarray, B: CliffordElement) -> CliffordElement:
    """E_A(B) = (1/n) sum_ij A_ij gamma_i B gamma_j."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (n, n):
        raise ValueError(f"expected {n}x{n} observable, got {A.shape}")
    full = (1 << n) - 1
    out: dict = {}
    for bits, c in B.coef.items():
        for i in range(n):
            si = 1 - 2 * ((bits & ((1 << i) - 1)).bit_count() & 1)
            bi = bits ^ (1 << i)
            for j in range(n):
                a = A[i, j]
                if a == 0.0:
                    continue
                sj = 1 - 2 * ((bi & full & ~((1 << (j + 1)) - 1)).bit_count() & 1)
                k = bi ^ (1 << j)
                out[k] = out.get(k, 0.0) + (a / n) * si * sj * c
    return CliffordElement(n, out)


def e_matrix(n: int, A: np.ndarray) -> np.ndarray:
    """Matrix of E_A on the 2^n monomial coefficient basis."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (n, n):
        raise ValueError(f"expected {n}x{n} observable, got {A.shape}")
    dim = 1 << n
    K = np.arange(dim, dtype=np.uint32)
    M = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        si = _sign_left(i, K).astype(complex)
        Ki = K ^ np.uint32(1 << i)
        for j in range(n):
            a = A[i, j]
            if a == 0.0:
                continue
            sj = _sign_right(j, Ki, n)
            K2 = Ki ^ np.uint32(1 << j)
            M[K2, K] += (a / n) * si * sj
    return M


def alpha_signs(n: int) -> np.ndarray:
    """Diagonal of conjugation by gamma_1 on the monomial basis."""
    out = np.empty(1 << n, dtype=np.int8)
    for bits in range(1 << n):
        k = bits.bit_count()
        out[bits] = (-1) ** (k - (bits & 1))
    return out


def sigma_reflect(n: int, A: np.ndarray) -> np.ndarray:
    """sigma(A) = R A R with R = diag(-1, 1, ..., 1)."""
    R = np.eye(n)
    R[0, 0] = -1.0
    return R @ np.asarray(A) @ R


def f1_matrix(n: int, A: np.ndarray) -> np.ndarray:
    """F1_A = alpha o E_{sigma(A)} as a matrix on coefficient vectors."""
    return alpha_signs(n)[:, None] * e_matrix(n, sigma_reflect(n, A))


def f2_matrix(n: int, A: np.ndarray) -> np.ndarray:
    """F2_A = alpha o E_A."""
    return alpha_signs(n)[:, None] * e_matrix(n, A)


BOUNDARIES = ("omega", "plus", "minus")


def _boundary_element(n: int, boundary: str) -> CliffordElement:
    if boundary == "omega":
        return CliffordElement.one(n)
    P_plus, P_minus = projectors_pm(n)
    return P_plus if boundary == "plus" else P_minus


def fcs_expectation(n: int, ops, boundary: str = "omega") -> complex:
    """omega(A_1 x ... x A_l) = (1 or 2)/D * Tr(E_{A_1} o ... o E_{A_l}(e)).

    e = 1 for 'omega' (prefactor 1/D), P_+- for 'plus'/'minus' (prefactor 2/D).
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}")
    if len(ops) < 1:
        raise ValueError("need at least one site operator")
    v = coefvec(_boundary_element(n, boundary))
    for A in reversed(list(ops)):
        v = e_matrix(n, A) @ v
    scale = 1.0 if boundary == "omega" else 2.0
    return complex(scale * v[0])


def fcs_expectation_f(n: int, ops, boundary: str = "plus") -> complex:
    """Same states through the factorized maps: sites alternate F1, F2.

    '+' starts the chain with F1 at site 1, '-' with F2; the boundary element
    is P_+ for both.  Even lengths reproduce the E-route values exactly.
    """
    if boundary not in ("plus", "minus"):
        raise ValueError("factorized route defines the two pure states only")
    ops = list(ops)
    P_plus, _ = projectors_pm(n)
    v = coefvec(P_plus)
    for site in range(len(ops), 0, -1):
        first = f1_matrix if boundary == "plus" else f2_matrix
        second = f2_matrix if boundary == "plus" else f1_matrix
        build = first if site % 2 == 1 else second
        v = build(n, ops[site - 1]) @ v
    return complex(2.0 * v[0])


# ---------------------------------------------------------------------------
# transfer spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralSummary:
    n: int
    variant: str
    eigenvalues: list  # (value, multiplicity), descending by value
    correlation_length: float
    is_primitive: bool


def transfer_eigenvalue(n: int, k: int) -> float:
    """Class eigenvalue of E_1 on grade k: (-1)^k (n-2k)/n."""
    return (-1) ** k * (n - 2 * k) / n


def _p_plus_embedding(n: int, even: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Embed/restrict matrices for the span of P_+ gamma_K, K over half the bits.

    With even=True only the even-grade K are kept (the P_+ C_n^even basis).
    """
    P_plus, _ = projectors_pm(n)
    reps = [b for b in range(1 << (n - 1)) if not (even and b.bit_count() % 2)]
    emb = np.zeros((1 << n, len(reps)), dtype=complex)
    res = np.zeros((len(reps), 1 << n), dtype=complex)
    for col, bits in enumerate(reps):
        emb[:, col] = coefvec(P_plus * CliffordElement(n, {bits: 1.0}))
        res[col, bits] = 2.0
    return emb, res


def _decay_rate(n: int) -> float:
    """Largest |class eigenvalue| over even grades 0 < k < n.

    Chains of E maps applied to the boundary elements stay in the even
    subalgebra, and the grade-0 / grade-n classes are the peripheral ones,
    so this is the modulus that controls connected correlations.
    """
    rates = [abs(transfer_eigenvalue(n, k)) for k in range(2, n, 2)]
    return max(rates) if rates else 0.0


def _xi_from_rate(rate: float) -> float:
    if rate <= 1e-14:
        return 0.0
    if rate >= 1.0 - 1e-12:
        return math.inf
    return -1.0 / math.log(rate)


def transfer_spectrum(n: int, variant: str = "E") -> SpectralSummary:
    """Diagonalize a transfer map.

    'E': the map E_1 (odd n: restricted to the P_+ basis).
    'F_shared': alpha o E_1 restricted to P_+ C_n^even (even n only).
    """
    M = e_matrix(n, np.eye(n))
    if variant == "E":
        if n % 2 == 0:
            evals = np.linalg.eigvals(M)
        else:
            emb, res = _p_plus_embedding(n)
            Mr = res @ M @ emb
            closure = M @ emb - emb @ Mr
            if np.abs(closure).max() > 1e-10:
                raise AssertionError("P_+ basis is not invariant under E_1")
            evals = np.linalg.eigvals(Mr)
        rate = _decay_rate(n)
    elif variant == "F_shared":
        if n % 2:
            raise ValueError("the shared factorized map lives on even n")
        F = alpha_signs(n)[:, None] * M
        emb, res = _p_plus_embedding(n, even=True)
        Fr = res @ F @ emb
        closure = F @ emb - emb @ Fr
        if np.abs(closure).max() > 1e-10:
            raise AssertionError("P_+ even basis is not invariant under the shared map")
        evals = np.linalg.eigvals(Fr)
        sub = sorted(np.abs(evals))[:-1]
        rate = float(sub[-1]) if sub else 0.0
    else:
        raise ValueError(f"unknown transfer variant {variant!r}")
    if np.abs(evals.imag).max() > 1e-10:
        raise AssertionError("transfer spectrum is not real")
    clustered = cluster_degeneracies(evals.real)[::-1]
    peripheral = sum(m for v, m in clustered if abs(abs(v) - 1.0) < 1e-9)
    return SpectralSummary(
        n=n,
        variant=variant,
        eigenvalues=clustered,
        correlation_length=_xi_from_rate(rate),
        is_primitive=peripheral == 1,
    )


def two_point_correlation(n: int, A, B, r: int, boundary: str = "omega") -> complex:
    """Connected correlator of A and B separated by r sites."""
    if r < 0:
        raise ValueError("separation must be nonnegative")
    eye = np.eye(n)
    joint = fcs_expectation(n, [A] + [eye] * r + [B], boundary)
    left = fcs_expectation(n, [A] + [eye] * (r + 1), boundary)
    right = fcs_expectation(n, [eye] * (r + 1) + [B], boundary)
    return joint - left * right


# ---------------------------------------------------------------------------
# Gram machinery (grade-weight recurrence)
# ---------------------------------------------------------------------------


def _grade_weights(n: int, l: int) -> np.ndarray:
    """Diagonal of the overlap kernel by grade: z_l(k) for k = 0..n.

    Z[L, R] is the coefficient of gamma_L x gamma_R in
    sum_{i_1..i_l} (gamma_{i_1}..gamma_{i_l}) x (gamma_{i_l}..gamma_{i_1}).
    Appending a generator g to both strings maps gamma_K x gamma_K, k = |K|,
    to gamma_{K^g} x gamma_{K^g} with sign (-1)^(k-1) if g in K and (-1)^k
    if not, so Z stays diagonal, depends on K only through its grade, and

        z_{l+1}(k) = (-1)^(k-1) k z_l(k-1) + (-1)^k (n-k) z_l(k+1),  z_0 = e_0.

    Index the result with _grades(n) to get the diagonal over monomials.
    """
    k = np.arange(n + 1)
    up = (-1.0) ** (k[1:] - 1) * k[1:]  # grade k-1 -> k
    down = (-1.0) ** k[:-1] * (n - k[:-1])  # grade k+1 -> k
    z = np.zeros(n + 1)
    z[0] = 1.0
    for _ in range(l):
        new = np.zeros(n + 1)
        new[1:] += up * z[:-1]
        new[:-1] += down * z[1:]
        z = new
    return z


def gram_matrix(n: int, l: int, elems) -> np.ndarray:
    """Gram matrix of state overlaps <psi(B_a), psi(B_b)> from bond data only.

    The overlap kernel is diagonal in the monomial basis, so with
    w[K] = z_l(|K|) from _grade_weights and sq[K] = reversal_sign(|K|),

        G = D^2 Bmat^H (w * sq * Bmat),

    where the columns of Bmat are the coefficient vectors of elems.
    """
    Bmat = np.stack([coefvec(B) for B in elems], axis=1)
    diag = _grade_weights(n, l)[_grades(n)] * _sq_signs(n)
    G = (realized_dim(n) ** 2) * (Bmat.conj().T @ (diag[:, None] * Bmat))
    return 0.5 * (G + G.conj().T)


def frame_operator_distance(
    n: int,
    l: int,
    elems_a,
    coef_a: float,
    elems_b,
    coef_b: float,
) -> float:
    """Spectral norm of sum_a c_a |psi(x_a)><psi(x_a)| - sum_b c_b |psi(x_b)><psi(x_b)|."""
    elems = list(elems_a) + list(elems_b)
    G = gram_matrix(n, l, elems)
    signs = np.concatenate([coef_a * np.ones(len(elems_a)), -coef_b * np.ones(len(elems_b))])
    evals, vecs = np.linalg.eigh(G)
    keep = evals > 1e-12 * max(float(evals.max(initial=0.0)), 1e-300)
    if not keep.any():
        return 0.0
    X = vecs[:, keep] / np.sqrt(evals[keep])
    M = X.conj().T @ ((G * signs[None, :]) @ G) @ X
    return float(np.abs(np.linalg.eigvalsh(M)).max())


def frame_product_trace(
    n: int,
    l: int,
    elems_a,
    coef_a: float,
    elems_b,
    coef_b: float,
) -> float:
    """Tr(rho_a rho_b) for two frame-represented positive operators."""
    elems = list(elems_a) + list(elems_b)
    G = gram_matrix(n, l, elems)
    cross = G[: len(elems_a), len(elems_a):]
    return float(coef_a * coef_b * (np.abs(cross) ** 2).sum().real)


# ---------------------------------------------------------------------------
# reduced density matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray
    n: int
    l: int
    boundary: str


def _effective_sign(boundary: str, n: int, l: int) -> str:
    """Frame boundary: for even n the projector flips across an odd block."""
    if boundary == "omega":
        return "omega"
    if n % 2 == 0 and l % 2 == 1:
        return "minus" if boundary == "plus" else "plus"
    return boundary


def rdm_frame(n: int, l: int, boundary: str) -> tuple[list[CliffordElement], float]:
    """Bond elements X_K and weight c with rho = c sum_K |psi(X_K)><psi(X_K)|."""
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}")
    D = realized_dim(n)
    eff = _effective_sign(boundary, n, l)
    if eff == "omega":
        elems = [CliffordElement(n, {b: 1.0}) for b in range(1 << n)]
        return elems, 1.0 / (D**2 * n**l)
    P_plus, P_minus = projectors_pm(n)
    P = P_plus if eff == "plus" else P_minus
    elems = [P * CliffordElement(n, {b: 1.0}) for b in range(1 << n)]
    return elems, 2.0 / (D**2 * n**l)


def reduced_density_matrix(
    n: int, l: int, boundary: str = "plus", cap: int = DENSE_RDM_CAP
) -> DensityMatrix:
    """Dense l-site marginal of the chosen state."""
    if n**l > cap:
        raise ValueError(f"dense marginal dimension n^l = {n**l} exceeds cap {cap}")
    elems, c = rdm_frame(n, l, boundary)
    Psi = np.stack([_psi(n, l, B) for B in elems], axis=1)
    rho = c * (Psi @ Psi.conj().T)
    return DensityMatrix(0.5 * (rho + rho.conj().T), n, l, boundary)


def rdm_entry_oracle(n: int, l: int, boundary: str, row, col) -> complex:
    """<row| rho |col> via one expectation value; slow, for cross-checks."""
    ops = []
    for i, j in zip(col, row):
        E = np.zeros((n, n))
        E[i - 1, j - 1] = 1.0
        ops.append(E)
    return fcs_expectation(n, ops, boundary)


def _class_reps(n: int) -> list[int]:
    """One monomial per {K, complement(K)} class: lower grade wins, ties keep
    the subset containing generator 1."""
    full = (1 << n) - 1
    reps = []
    for b in range(1 << n):
        bc = b ^ full
        k, kc = b.bit_count(), bc.bit_count()
        if k < kc or (k == kc and b & 1):
            reps.append(b)
    return reps


def rdm_eigen_by_grade(n: int, l: int, boundary: str = "plus") -> list[tuple[int, float, int]]:
    """Nonzero marginal spectrum labeled by monomial grade, via Gram matrices.

    Returns (grade, eigenvalue, multiplicity) triples.  Raises if the Gram
    matrix mixes grades, which would make the labels meaningless.
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}")
    D = realized_dim(n)
    eff = _effective_sign(boundary, n, l)
    reps = _class_reps(n)
    if eff == "omega":
        full = (1 << n) - 1
        elems, labels = [], []
        for b in reps:
            for bb in (b, b ^ full):
                elems.append(CliffordElement(n, {bb: 1.0}))
                labels.append(min(b.bit_count(), n - b.bit_count()))
        c = 1.0 / (D**2 * n**l)
    else:
        P_plus, P_minus = projectors_pm(n)
        P = P_plus if eff == "plus" else P_minus
        elems = [P * CliffordElement(n, {b: 1.0}) for b in reps]
        labels = [b.bit_count() for b in reps]
        c = 2.0 * 2.0 / (D**2 * n**l)  # factor 2: each class has two members
    G = gram_matrix(n, l, elems)
    keep = np.sqrt(np.abs(np.diag(G))) > 1e-12 * max(1.0, np.sqrt(np.abs(G).max()))
    scale = np.abs(G).max() if G.size else 1.0
    out = []
    for grade in sorted(set(labels)):
        sel = np.array([lab == grade and keep[a] for a, lab in enumerate(labels)])
        if not sel.any():
            continue
        other = np.array([lab != grade for lab in labels])
        cross = G[np.ix_(sel, other)]
        if cross.size and np.abs(cross).max() > 1e-9 * scale:
            raise ValueError(f"grade {grade} block is not orthogonal to the rest")
        mus = np.linalg.eigvalsh(c * G[np.ix_(sel, sel)])
        for mu, mult in cluster_degeneracies(mus, tol=1e-10)[::-1]:
            if mu < 1e-12:
                continue
            if not 0.0 < mu <= 1.0 + 1e-9:
                raise ValueError(f"marginal eigenvalue {mu} outside (0, 1]")
            out.append((grade, mu, mult))
    total = sum(mu * m for _, mu, m in out)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"marginal spectrum sums to {total}, expected 1")
    return out


def injectivity_rank(fam: MpsFamily, l: int, cap: int = STATE_CAP) -> tuple[int, bool]:
    """Rank of B -> psi(B) on the family's bond domain."""
    basis = fam.basis()
    Psi = np.stack([_psi(fam.n, l, B, cap) for B in basis], axis=1)
    svals = np.linalg.svd(Psi, compute_uv=False)
    rank = int((svals > 1e-10 * max(1.0, svals[0])).sum())
    return rank, rank == fam.dim()
