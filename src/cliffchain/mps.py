"""Matrix product states over the Clifford bond algebra and their CP maps.

The state vectors are psi(B)_{i_1..i_l} = Tr(B gamma_{i_l} ... gamma_{i_1}),
computed by abstract traces (bitmask tables), never by contracting realized
matrices.  Expectation values use the transfer maps

    E_A(B)   = (1/n) sum_ij A_ij gamma_i B gamma_j
    F1_A     = alpha o E_{RAR},   F2_A = alpha o E_A   (on P_+ C_n^even)

acting on coefficient vectors over the 2^n monomial basis.  A marginal is
(c / n^l) sum_K |psi(X_K)><psi(X_K)| over its frame X = {P gamma_K}, the
(2^n, 2^n) coefficient array that rdm_frame builds in closed form; it is
the one frame format.  The overlap kernel is diagonal in the monomial
basis with entries that depend only on the grade, a length-(n+1) vector
built by a recurrence in l.  Two consequences replace dense linear
algebra: frames split into blocks of disjoint monomial support, which give
orthogonal states (frame_operator_distance, frame_product_trace), and the
marginal spectrum has a closed form per grade (rdm_eigen_by_grade).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import cluster_degeneracies, component_stacks
from .clifford import (
    CliffordElement,
    _parity,
    _sign_left,
    _sign_right,
    _suffix_parity,
    alpha,
    projectors_pm,
    realized_dim,
    reversal_sign,
)

STATE_CAP = 20_000_000
DENSE_RDM_CAP = 4096


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


def _projected_columns(n: int, sign: str) -> np.ndarray:
    """Coefficient columns of P gamma_K for every monomial K, P = P_+ or P_-.

    Closed form: P = (1 +- phase gamma_full) / 2 and gamma_full gamma_K =
    s(K) gamma_{K^c}, where K^c = K xor full and s(K) is the parity of
    _suffix_parity(full) & K.  So column K is 1/2 at row K and
    +-phase s(K) / 2 at row K^c, with no Clifford product.
    """
    P = projectors_pm(n)[0 if sign == "plus" else 1]
    full = (1 << n) - 1
    K = np.arange(1 << n, dtype=np.uint32)
    s = (1 - 2 * _parity(K & np.uint32(_suffix_parity(full)))).astype(np.int8)
    cols = np.zeros((1 << n, 1 << n), dtype=complex)
    cols[K, K] = P.coef[0]
    cols[K ^ np.uint32(full), K] = P.coef[full] * s
    return cols


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


def _psi(n: int, l: int, coefs: np.ndarray, cap: int = STATE_CAP) -> np.ndarray:
    """psi of a coefficient vector (2^n,), or of each column of a (2^n, m) array."""
    if n**l > cap:
        raise ValueError(f"state dimension n^l = {n**l} exceeds cap {cap}")
    bits, sign = _string_tables(n, l)
    extra = (1,) * (coefs.ndim - 1)
    b = coefs * _sq_signs(n).reshape(-1, *extra)
    return realized_dim(n) * sign.reshape(-1, *extra) * b[bits]


def mps_vector(fam: MpsFamily, l: int, B: CliffordElement, cap: int = STATE_CAP) -> np.ndarray:
    """psi(B): coefficient at (i_1..i_l) is Tr(B gamma_{i_l}...gamma_{i_1})."""
    if not fam.contains(B):
        raise ValueError(f"element outside the {fam.bond_domain} bond domain")
    return _psi(fam.n, l, coefvec(B), cap)


def psi_plus(n: int, l: int, B: CliffordElement) -> np.ndarray:
    """The + state map psi(B), with B used as given.

    No projection is applied: B may be any element of C_n, and only its
    components of grade parity l mod 2 contribute.  For even n the + pure-state
    bond domain is P_+ C_n^even ('p_plus_even'); use mps_vector to have the
    domain checked.
    """
    return _psi(n, l, coefvec(B))


def psi_minus(n: int, l: int, B: CliffordElement) -> np.ndarray:
    """The - state map: psi_minus(B) = psi_plus(alpha(B))."""
    return _psi(n, l, coefvec(alpha(B)))


# ---------------------------------------------------------------------------
# transfer maps
# ---------------------------------------------------------------------------


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
            sj = _sign_right(j, Ki)
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
    Identity sites act as E_1, which is diagonal on monomials with the class
    eigenvalue (-1)^k (n-2k)/n at grade k; every other distinct site operator
    has its e_matrix built once per call.
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}")
    if len(ops) < 1:
        raise ValueError("need at least one site operator")
    eye = np.eye(n)
    e_one = transfer_eigenvalue(n, _grades(n))
    built: dict = {}
    v = coefvec(_boundary_element(n, boundary))
    for A in reversed(list(ops)):
        A = np.asarray(A, dtype=complex)
        if np.array_equal(A, eye):
            v = e_one * v
            continue
        key = (A.shape, A.tobytes())
        if key not in built:
            built[key] = e_matrix(n, A)
        v = built[key] @ v
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


def transfer_eigenvalue(n: int, k):
    """Class eigenvalue of E_1 on grade k: (-1)^k (n-2k)/n (k may be an array)."""
    return (-1) ** k * (n - 2 * k) / n


def _p_plus_embedding(n: int, even: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Embed/restrict matrices for the span of P_+ gamma_K, K over half the bits.

    With even=True only the even-grade K are kept (the P_+ C_n^even basis).
    """
    reps = [b for b in range(1 << (n - 1)) if not (even and b.bit_count() % 2)]
    emb = _projected_columns(n, "plus")[:, reps]
    res = np.zeros((len(reps), 1 << n), dtype=complex)
    res[np.arange(len(reps)), reps] = 2.0
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
    """Diagonal of the overlap kernel by grade, over n^l: z_l(k) / n^l, k = 0..n.

    Z[L, R] is the coefficient of gamma_L x gamma_R in
    sum_{i_1..i_l} (gamma_{i_1}..gamma_{i_l}) x (gamma_{i_l}..gamma_{i_1}).
    Appending a generator g to both strings maps gamma_K x gamma_K, k = |K|,
    to gamma_{K^g} x gamma_{K^g} with sign (-1)^(k-1) if g in K and (-1)^k
    if not, so Z stays diagonal, depends on K only through its grade, and

        z_{l+1}(k) = (-1)^(k-1) k z_l(k-1) + (-1)^k (n-k) z_l(k+1),  z_0 = e_0.

    Each step here is divided by n, so the weights stay within [-1, 1] and
    no length overflows the float range.  Index the result with _grades(n)
    to get the diagonal over monomials.
    """
    k = np.arange(n + 1)
    up = (-1.0) ** (k[1:] - 1) * k[1:] / n  # grade k-1 -> k
    down = (-1.0) ** k[:-1] * (n - k[:-1]) / n  # grade k+1 -> k
    z = np.zeros(n + 1)
    z[0] = 1.0
    for _ in range(l):
        new = np.zeros(n + 1)
        new[1:] += up * z[:-1]
        new[:-1] += down * z[1:]
        z = new
    return z


def _grade_kernel(n: int, l: int) -> np.ndarray:
    """Scaled overlap kernel by grade: _grade_weights(n, l)[k] * reversal_sign(k).

    Every entry is >= 0: the sign change s(k+1) = (-1)^k s(k), which is
    reversal_sign, makes every coefficient of the _grade_weights recurrence
    nonnegative, so the sign of each weight is exact and no entry rounds
    below zero.  Index the result with _grades(n) to get the kernel over
    monomials.
    """
    sq = np.array([reversal_sign(k) for k in range(n + 1)], dtype=float)
    return _grade_weights(n, l) * sq


def _gram_blocks(n: int, l: int, cols: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The Gram of a frame over n^l, split into its support-connected blocks.

    Direct-sum lemma: the overlap kernel is diagonal on monomials, so two
    columns whose supports on the monomials of nonzero kernel weight are
    disjoint give orthogonal states.  Join each column to every such
    monomial where it is nonzero (an exact != 0 test, no tolerance); the
    connected components of that graph split the Gram, and every operator
    sum_j s_j |psi_j><psi_j| on the frame, into a direct sum of blocks.

    Returns (idx, G) pairs: idx is a (count, size) array of column indices
    and G the (count, size, size) stack of their Grams, built from each
    block's support rows only.  Blocks with the same number of columns and
    of support rows share one stack (checks.component_stacks).  A column with no weighted support is
    the zero state and lies in no block.
    """
    dim, m = cols.shape
    kern = _grade_kernel(n, l)[_grades(n)]
    rows, cs = np.nonzero((cols != 0) & (kern != 0)[:, None])
    present_cols = np.flatnonzero(np.bincount(cs, minlength=m))
    present_rows = m + np.flatnonzero(np.bincount(rows, minlength=dim))
    D2 = realized_dim(n) ** 2
    blocks = []
    for idx, nodes in component_stacks(cs, m + rows, m + dim, present_cols, present_rows):
        ridx = nodes - m
        X = cols[ridx[:, :, None], idx[:, None, :]]
        XH = X.conj().transpose(0, 2, 1)
        G = D2 * (XH @ (kern[ridx][:, :, None] * X))
        blocks.append((idx, 0.5 * (G + G.conj().transpose(0, 2, 1))))
    return blocks


def frame_operator_distance(
    n: int,
    l: int,
    cols_a: np.ndarray,
    coef_a: float,
    cols_b: np.ndarray,
    coef_b: float,
) -> float:
    """Spectral norm of n^-l (sum_a c_a |psi(x_a)><psi(x_a)| - sum_b c_b |psi(x_b)><psi(x_b)|).

    Each frame is a (2^n, m) array whose columns are the coefficient
    vectors x; the weights are taken relative to n^l, as rdm_frame returns
    them.  By the direct-sum lemma of _gram_blocks the norm is the largest
    over the support-connected blocks of the joint frame.  In a block with
    Gram G = V diag(lam) V^H and weights S, the nonzero spectrum of the
    operator is that of (V lam^1/2)^H S (V lam^1/2).  Eigenvalues of G at or
    below 1e-12 times the largest over all blocks are dropped as rank
    deficiency.  The CPT images (bar, transpose_antiauto, the axis flip and
    the rotor of theta) keep every complement class {K, K^c}, so their
    blocks have at most four columns; SO(n) rotors keep grade pairs {k, n-k}.
    """
    signs = np.concatenate([np.full(cols_a.shape[1], float(coef_a)),
                            np.full(cols_b.shape[1], -float(coef_b))])
    blocks = _gram_blocks(n, l, np.concatenate([cols_a, cols_b], axis=1))
    spectra = [np.linalg.eigh(G) for _, G in blocks]
    top = max((float(evals.max()) for evals, _ in spectra), default=0.0)
    cut = 1e-12 * max(top, 1e-300)
    worst = 0.0
    for (idx, _), (evals, vecs) in zip(blocks, spectra):
        Y = vecs * np.sqrt(np.where(evals > cut, evals, 0.0))[:, None, :]
        M = Y.conj().transpose(0, 2, 1) @ (signs[idx][:, :, None] * Y)
        worst = max(worst, float(np.abs(np.linalg.eigvalsh(M)).max()))
    return worst


def frame_product_trace(
    n: int,
    l: int,
    cols_a: np.ndarray,
    coef_a: float,
    cols_b: np.ndarray,
    coef_b: float,
) -> float:
    """Tr(rho_a rho_b) for rho = n^-l sum c |psi(x)><psi(x)| over each frame.

    Frames and weights as in frame_operator_distance; only pairs within one
    support-connected block overlap, so the cross terms are summed block by
    block.
    """
    m_a = cols_a.shape[1]
    total = 0.0
    for idx, G in _gram_blocks(n, l, np.concatenate([cols_a, cols_b], axis=1)):
        in_a = idx < m_a
        cross = in_a[:, :, None] & ~in_a[:, None, :]
        total += float((np.abs(G) ** 2)[cross].sum())
    return float(coef_a * coef_b * total)


# ---------------------------------------------------------------------------
# reduced density matrices
# ---------------------------------------------------------------------------


def _effective_sign(boundary: str, n: int, l: int) -> str:
    """Frame boundary: for even n the projector flips across an odd block."""
    if boundary == "omega":
        return "omega"
    if n % 2 == 0 and l % 2 == 1:
        return "minus" if boundary == "plus" else "plus"
    return boundary


def rdm_frame(n: int, l: int, boundary: str) -> tuple[np.ndarray, float]:
    """Frame X and weight c with rho = (c / n^l) sum_K |psi(X_K)><psi(X_K)|.

    X is the (2^n, 2^n) array whose column K holds the coefficients of
    gamma_K for omega and of P gamma_K for the pure states, P = P_+ or P_-
    (_projected_columns).  c is carried relative to n^l, the convention of
    the frame routines, so no length overflows it.
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}")
    D = realized_dim(n)
    eff = _effective_sign(boundary, n, l)
    if eff == "omega":
        return np.eye(1 << n, dtype=complex), 1.0 / D**2
    return _projected_columns(n, eff), 2.0 / D**2


def reduced_density_matrix(
    n: int, l: int, boundary: str = "plus", cap: int = DENSE_RDM_CAP
) -> np.ndarray:
    """Dense l-site marginal of the chosen state, an n^l x n^l array."""
    if n**l > cap:
        raise ValueError(f"dense marginal dimension n^l = {n**l} exceeds cap {cap}")
    cols, c = rdm_frame(n, l, boundary)
    Psi = _psi(n, l, cols)
    rho = (c / n**l) * (Psi @ Psi.conj().T)
    return 0.5 * (rho + rho.conj().T)


def rdm_entry_oracle(n: int, l: int, boundary: str, row, col) -> complex:
    """<row| rho |col> via one expectation value; slow, for cross-checks."""
    ops = []
    for i, j in zip(col, row):
        E = np.zeros((n, n))
        E[i - 1, j - 1] = 1.0
        ops.append(E)
    return fcs_expectation(n, ops, boundary)


def rdm_eigen_by_grade(n: int, l: int, boundary: str = "plus") -> list[tuple[int, float, int]]:
    """Nonzero marginal spectrum labeled by monomial grade, in closed form.

    Returns (grade, eigenvalue, multiplicity) triples, grades ascending.
    Closed-form lemma: with kappa(k) = _grade_kernel(n, l)[k] >= 0, the
    overlap kernel over n^l at grade k, the frame of rdm_frame is
    orthogonal across complement classes {K, K^c} (direct-sum lemma of
    _gram_blocks).  For the pure states P_+- gamma_K has coefficients of
    modulus 1/2 on K and on K^c, and P gamma_K, P gamma_{K^c} are parallel,
    so each class of min grade k is one eigenvector with

        mu = kappa(k) + kappa(n - k),

    multiplicity C(n, k), or C(n, n/2) / 2 at k = n/2; the sign of the
    boundary does not enter.  For omega each monomial gamma_K is its own
    eigenvector with mu = kappa(|K|), labeled by min(|K|, n - |K|); the two
    values under one label merge when they agree to 1e-10, as clustered
    eigenvalues of the Gram would.  O(n l); no frame, Gram or eigh.
    Raises if the spectrum does not sum to 1.
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}")
    kappa = _grade_kernel(n, l)
    out = []
    for grade in range(n // 2 + 1):
        if boundary == "omega":
            vals = [kappa[k] for k in {grade, n - grade} if kappa[k] > 0.0]
            for mu, count in cluster_degeneracies(vals, tol=1e-10)[::-1]:
                out.append((grade, mu, count * math.comb(n, grade)))
        elif kappa[grade] + kappa[n - grade] > 0.0:
            classes = math.comb(n, grade) // (2 if 2 * grade == n else 1)
            out.append((grade, float(kappa[grade] + kappa[n - grade]), classes))
    total = sum(mu * m for _, mu, m in out)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"marginal spectrum sums to {total}, expected 1")
    return out


def basis_states(fam: MpsFamily, l: int, cap: int = STATE_CAP) -> np.ndarray:
    """psi(B) for every basis element B of the bond domain, one column each.

    The basis lies in the domain by construction, so unlike mps_vector no
    membership check is made, and all columns come from one _psi call.
    """
    return _psi(fam.n, l, np.stack([coefvec(B) for B in fam.basis()], axis=1), cap)


def injectivity_rank(fam: MpsFamily, l: int, cap: int = STATE_CAP) -> tuple[int, bool]:
    """Rank of B -> psi(B) on the family's bond domain."""
    Psi = basis_states(fam, l, cap)
    svals = np.linalg.svd(Psi, compute_uv=False)
    rank = int((svals > 1e-10 * max(1.0, svals[0])).sum())
    return rank, rank == fam.dim()
