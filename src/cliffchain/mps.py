"""Matrix product states over the Clifford bond algebra and their CP maps.

The state vectors are psi(B)_{i_1..i_l} = Tr(B gamma_{i_l} ... gamma_{i_1}),
computed by abstract traces (bitmask tables), never by contracting realized
matrices.  Expectation values use the transfer map

    E_A(B)   = (1/n) sum_ij A_ij gamma_i B gamma_j

acting on coefficient vectors over the 2^n monomial basis, one signed
gather per nonzero A_ij (_apply_transfer).  E_1 is diagonal, and both
transfer spectra, E_1 and alpha o E_1 on P_+ C_n^even, are read off its
integer diagonal; the dense e_matrix is a test oracle.  A marginal is
(c / n^l) sum_K |psi(X_K)><psi(X_K)| over its frame X = {P gamma_K}, the
(2^n, 2^n) coefficient array that rdm_frame builds in closed form; it is
the one frame format.  The overlap kernel is diagonal in the monomial
basis with entries that depend only on the grade, a length-(n+1) vector
built by a recurrence in l.  Three consequences replace dense linear
algebra.  First, frame operators live in coefficient space: with Psi the
map x -> psi(x) and D = realized_dim(n), Psi^H Psi / n^l = D^2 diag(kern)
with kern >= 0, so n^-l Psi M Psi^H has the nonzero spectrum of
(D^2 kern)^1/2 M (D^2 kern)^1/2, exactly and for any rank, and that
matrix splits into blocks over the disjoint monomial supports of the
frame (frame_operator_distance, frame_product_trace).  Second, the
marginal spectrum has a closed form per grade (rdm_eigen_by_grade).
Third, the dimension of the span of the states is an exact count of the
domain columns of nonzero weight (span_dim), with no state formed.

The bond domains are closed-form columns in the same format
(_domain_columns): unit columns gamma_K for C_n and its grade parities,
columns of _projected_columns for P_+ C_n and P_+- C_n^even.  Their
supports are disjoint, so a domain's basis, its membership test (the
residual off the span, column by column in O(2^n)) and its basis states
take no Clifford product;
the conjugation alpha by gamma_1 is the sign vector alpha_signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import cluster_degeneracies, component_stacks
from .clifford import (
    CliffordElement,
    _check_rank,
    _parity,
    _sign_left,
    _sign_right,
    _suffix_parity,
    projectors_pm,
    realized_dim,
    reversal_sign,
)

STATE_CAP = 20_000_000
DENSE_RDM_CAP = 4096


def _grades(n: int) -> np.ndarray:
    """Grade |K| of every monomial K, by doubling: g(2^k + i) = g(i) + 1."""
    g = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        g = np.concatenate([g, g + 1])
    return g


def _sq_signs(n: int) -> np.ndarray:
    """reversal_sign(|K|) for every monomial K."""
    return np.array([reversal_sign(k) for k in range(n + 1)], dtype=np.int8)[_grades(n)]


def coefvec(B: CliffordElement) -> np.ndarray:
    """Dense coefficient vector of B over the 2^n monomial basis."""
    v = np.zeros(1 << B.n, dtype=complex)
    for bits, c in B.coef.items():
        v[bits] = c
    return v


def element_from_coefvec(n: int, v: np.ndarray) -> CliffordElement:
    return CliffordElement(n, {int(b): complex(c) for b, c in enumerate(v)})


def _projected_pairs(n: int, sign: str) -> tuple[complex, np.ndarray]:
    """Entries of the columns P gamma_K, P = P_+ or P_-: a at row K, b[K] at row K^c.

    Closed form: P = (1 +- phase gamma_full) / 2 and gamma_full gamma_K =
    s(K) gamma_{K^c}, where K^c = K xor full and s(K) is the parity of
    _suffix_parity(full) & K.  So a = 1/2 and b[K] = +-phase s(K) / 2,
    with no Clifford product.
    """
    P = projectors_pm(n)[0 if sign == "plus" else 1]
    full = (1 << n) - 1
    K = np.arange(1 << n, dtype=np.uint32)
    s = (1 - 2 * _parity(K & np.uint32(_suffix_parity(full)))).astype(np.int8)
    return P.coef[0], P.coef[full] * s


def _projected_columns(n: int, sign: str) -> np.ndarray:
    """Coefficient columns of P gamma_K for every monomial K (_projected_pairs)."""
    a, b = _projected_pairs(n, sign)
    K = np.arange(1 << n, dtype=np.uint32)
    cols = np.zeros((1 << n, 1 << n), dtype=complex)
    cols[K, K] = a
    cols[K ^ np.uint32((1 << n) - 1), K] = b
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
        return [element_from_coefvec(self.n, x)
                for x in _domain_columns(self.n, self.bond_domain)[1].T]

    def dim(self) -> int:
        if self.bond_domain == "full":
            return 1 << self.n
        if self.bond_domain in ("even", "odd", "p_plus"):
            return 1 << (self.n - 1)
        return 1 << (self.n - 2)

    def contains(self, B: CliffordElement, tol: float = 1e-12) -> bool:
        """True iff B's residual off the span of the basis columns is below tol.

        Column K of _domain_columns is the unit column at row K, or for the
        projected domains a at row K and b[K] at row K^c (_projected_pairs).
        Those supports are disjoint, so the orthogonal projection onto the
        span is one projection per column onto its one or two entries:
        O(2^n), with no (2^n, dim) array.
        """
        if B.n != self.n:
            return False
        n, domain = self.n, self.bond_domain
        K = _domain_monomials(n, domain)
        v = coefvec(B)
        residual = v.copy()
        if domain in ("full", "even", "odd"):
            residual[K] = 0.0
        else:
            a, b = _projected_pairs(n, "minus" if domain == "p_minus_even" else "plus")
            Kc, b = K ^ ((1 << n) - 1), b[K]
            x = (np.conj(a) * v[K] + b.conj() * v[Kc]) / (abs(a) ** 2 + np.abs(b) ** 2)
            residual[K] -= a * x
            residual[Kc] -= b * x
        return np.abs(residual).max() < tol * max(1.0, B.norm_max())


def _domain_columns(n: int, bond_domain: str) -> tuple[np.ndarray, np.ndarray]:
    """Monomials K and coefficient columns of a bond domain's basis, in basis order.

    full / even / odd: the monomials gamma_K of the domain's grade parities,
    unit columns.  p_plus, p_plus_even, p_minus_even: P gamma_K for the K
    below the top generator (of even grade for the _even domains), the
    columns of _projected_columns.  Column K is supported on K and on
    K xor full, so the columns have disjoint supports.
    """
    K = _domain_monomials(n, bond_domain)
    if bond_domain in ("full", "even", "odd"):
        return K, np.eye(1 << n, dtype=complex)[:, K]
    sign = "minus" if bond_domain == "p_minus_even" else "plus"
    return K, _projected_columns(n, sign)[:, K]


def _domain_monomials(n: int, bond_domain: str) -> np.ndarray:
    """The monomials K that index the basis columns of a bond domain (_domain_columns)."""
    K = np.arange(1 << n)
    even = _grades(n) % 2 == 0
    if bond_domain in ("full", "even", "odd"):
        return K[{"full": K >= 0, "even": even, "odd": ~even}[bond_domain]]
    return K[(K < 1 << (n - 1)) & (even | (bond_domain == "p_plus"))]


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


def _psi(n: int, l: int, coefs: np.ndarray) -> np.ndarray:
    """psi of a coefficient vector (2^n,), or of each column of a (2^n, m) array."""
    if n**l > STATE_CAP:
        raise ValueError(f"state dimension n^l = {n**l} exceeds cap {STATE_CAP}")
    bits, sign = _string_tables(n, l)
    extra = (1,) * (coefs.ndim - 1)
    b = coefs * _sq_signs(n).reshape(-1, *extra)
    return realized_dim(n) * sign.reshape(-1, *extra) * b[bits]


def mps_vector(fam: MpsFamily, l: int, B: CliffordElement) -> np.ndarray:
    """psi(B): coefficient at (i_1..i_l) is Tr(B gamma_{i_l}...gamma_{i_1}).

    An oracle, with B's bond domain checked: the per-element ground span in
    test_hamiltonians::test_ground_space_matches_the_per_element_construction
    and test_spt::test_intertwining_with_site_rotations and
    test_axis_flip_matches_site_reflection are built from it.
    """
    if not fam.contains(B):
        raise ValueError(f"element outside the {fam.bond_domain} bond domain")
    return _psi(fam.n, l, coefvec(B))


def psi_plus(n: int, l: int, B: CliffordElement) -> np.ndarray:
    """The + state map psi(B), with B used as given.

    No projection is applied: B may be any element of C_n, and only its
    components of grade parity l mod 2 contribute.  For even n the + pure-state
    bond domain is P_+ C_n^even ('p_plus_even'); use mps_vector to have the
    domain checked.
    """
    return _psi(n, l, coefvec(B))


# ---------------------------------------------------------------------------
# transfer maps
# ---------------------------------------------------------------------------


def _gather(n: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """src and sign with gamma_i gamma_src gamma_j = sign gamma_K, for every K.

    src = M xor {i}, M = K xor {j}; the sign is _sign_left(i, src) _sign_right(j, M).
    """
    K = np.arange(1 << n, dtype=np.uint32)
    M = K ^ np.uint32(1 << j)
    src = M ^ np.uint32(1 << i)
    return src, _sign_left(i, src) * _sign_right(j, M)


def _apply_transfer(n: int, A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """E_A applied to a coefficient vector: one signed gather per nonzero A_ij.

    O(nnz(A) 2^n), with no (2^n, 2^n) array.
    """
    _check_rank(n)
    A = np.asarray(A, dtype=complex)
    if A.shape != (n, n):
        raise ValueError(f"expected {n}x{n} observable, got {A.shape}")
    out = np.zeros(1 << n, dtype=complex)
    for i, j in zip(*np.nonzero(A)):
        src, sign = _gather(n, i, j)
        out += (A[i, j] / n) * sign * v[src]
    return out


def e_matrix(n: int, A: np.ndarray) -> np.ndarray:
    """Dense matrix of E_A on the monomial basis, built column by column (a scatter).

    An oracle that no library code calls.  test_mps reads it in
    test_e_matrix_identity_eigenvalues, test_e_map_examples,
    test_identity_sites_are_the_e1_diagonal, the fcs_expectation oracle of
    test_fcs_and_correlators_match_the_per_site_oracle and
    test_transfer_spectrum_matches_dense_eigenvalues.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (n, n):
        raise ValueError(f"expected {n}x{n} observable, got {A.shape}")
    K = np.arange(1 << n, dtype=np.uint32)
    M = np.zeros((1 << n, 1 << n), dtype=complex)
    for i, j in zip(*np.nonzero(A)):
        Ki = K ^ np.uint32(1 << i)
        M[Ki ^ np.uint32(1 << j), K] += (A[i, j] / n) * _sign_left(i, K) * _sign_right(j, Ki)
    return M


def alpha_signs(n: int) -> np.ndarray:
    """Diagonal of conjugation by gamma_1 on the monomial basis.

    gamma_1 gamma_K gamma_1 = _sign_left(0, K) gamma_{K xor 1} gamma_1
    = _sign_left(0, K) _sign_right(0, K xor 1) gamma_K.
    """
    K = np.arange(1 << n, dtype=np.uint32)
    return _sign_left(0, K) * _sign_right(0, K ^ np.uint32(1))


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
    eigenvalue (-1)^k (n-2k)/n at grade k; every other site is applied by
    _apply_transfer.
    """
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary {boundary!r}")
    if len(ops) < 1:
        raise ValueError("need at least one site operator")
    eye = np.eye(n)
    e_one = transfer_eigenvalue(n, _grades(n))
    v = coefvec(_boundary_element(n, boundary))
    for A in reversed(list(ops)):
        if np.array_equal(A, eye):
            v = e_one * v
        else:
            v = _apply_transfer(n, A, v)
    scale = 1.0 if boundary == "omega" else 2.0
    return complex(scale * v[0])


# ---------------------------------------------------------------------------
# transfer spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: list  # (value, multiplicity), descending by value
    correlation_length: float
    is_primitive: bool


def transfer_eigenvalue(n: int, k):
    """Class eigenvalue of E_1 on grade k: (-1)^k (n-2k)/n (k may be an array)."""
    return (-1) ** k * (n - 2 * k) / n


def _xi_from_rate(rate: float) -> float:
    if rate <= 1e-14:
        return 0.0
    if rate >= 1.0 - 1e-12:
        return math.inf
    return -1.0 / math.log(rate)


def transfer_spectrum(n: int, variant: str = "E") -> SpectralSummary:
    """Spectrum of a transfer map, read off the integer diagonal c = n diag(E_1).

    'E': the map E_1 (odd n: restricted to the P_+ basis).
    'F_shared': alpha o E_1 restricted to P_+ C_n^even (even n only).
    E_1 is diagonal, as only its i = j terms fix gamma_K, and c(K) is the sum
    of the signs of gamma_i gamma_K gamma_i.  A diagonal map d keeps the span
    of the columns P_+ gamma_K, K below the top generator, exactly when
    d[K] == d[K xor full]; its eigenvalues there are d[K] / n.
    """
    _check_rank(n)
    c = sum(_gather(n, i, i)[1].astype(np.int64) for i in range(n))
    K = np.arange(1 << n)
    even = _grades(n) % 2 == 0
    if variant == "E":
        d = c
        reps = K if n % 2 == 0 else K[K < 1 << (n - 1)]
        # E maps keep the even subalgebra, and grades 0 and n are peripheral
        inner = even & (K > 0) & (K < K[-1])
        rate = float(np.abs(c[inner]).max() / n) if inner.any() else 0.0
    elif variant == "F_shared":
        if n % 2:
            raise ValueError("the shared factorized map lives on even n")
        d = alpha_signs(n) * c
        reps = K[(K < 1 << (n - 1)) & even]
        rate = float(np.sort(np.abs(d[reps]))[-2] / n) if reps.size > 1 else 0.0
    else:
        raise ValueError(f"unknown transfer variant {variant!r}")
    if reps.size < K.size and not np.array_equal(d[reps], d[reps ^ K[-1]]):
        raise AssertionError(f"the P_+ basis is not invariant under the {variant} map")
    values, counts = np.unique(d[reps], return_counts=True)
    return SpectralSummary(
        eigenvalues=[(float(v / n), int(m)) for v, m in zip(values[::-1], counts[::-1])],
        correlation_length=_xi_from_rate(rate),
        is_primitive=int(counts[np.abs(values) == n].sum()) == 1,
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


def _frame_blocks(n: int, l: int, cols: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """A frame in kernel-weighted coefficient space, split into support blocks.

    Coefficient-space lemma: write Psi for x -> psi(x).  Then Psi^H Psi / n^l
    = D^2 diag(kern), kern = _grade_kernel(n, l)[_grades(n)] >= 0, so
    Psi / n^(l/2) = V (D^2 kern)^1/2 with V isometric on the monomials of
    nonzero weight, and the states of x and x' overlap as y^H y' with
    y = (D^2 kern)^1/2 x.  Join each column to every weighted monomial
    where it is nonzero (an exact != 0 test, no tolerance).  kern is
    diagonal, so the connected components of that graph split every
    operator sum_j s_j |psi_j><psi_j| on the frame into a direct sum.

    Returns (idx, Y) pairs: idx is a (count, cols) array of column indices
    and Y the (count, rows, cols) stack of the weighted coefficients
    (D^2 kern[rows])^1/2 X[rows, idx] on each block's support rows.  Blocks
    with the same number of columns and rows share one stack
    (checks.component_stacks).  A column with no weighted support is the
    zero state and lies in no block.
    """
    dim, m = cols.shape
    weight = realized_dim(n) ** 2 * _grade_kernel(n, l)[_grades(n)]
    rows, cs = np.nonzero((cols != 0) & (weight != 0)[:, None])
    present_cols = np.flatnonzero(np.bincount(cs, minlength=m))
    present_rows = m + np.flatnonzero(np.bincount(rows, minlength=dim))
    blocks = []
    for idx, nodes in component_stacks(cs, m + rows, m + dim, present_cols, present_rows):
        ridx = nodes - m
        Y = np.sqrt(weight[ridx])[:, :, None] * cols[ridx[:, :, None], idx[:, None, :]]
        blocks.append((idx, Y))
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
    them.  The operator is n^-l Psi M Psi^H with M = X_a S_a X_a^H -
    X_b S_b X_b^H, and by the lemma of _frame_blocks its nonzero spectrum
    is that of W = (D^2 kern)^1/2 M (D^2 kern)^1/2, exactly and for any
    rank, so nothing is cut off.  W is block diagonal over the support
    blocks, each Y S Y^H of one block's rows.  The CPT images (bar,
    transpose_antiauto, the axis flip and the rotor of theta) keep every
    complement class {K, K^c}, so their blocks have at most two rows;
    SO(n) rotors keep grade pairs {k, n-k}, one block of the weighted
    monomials of both grades each.
    """
    signs = np.concatenate([np.full(cols_a.shape[1], float(coef_a)),
                            np.full(cols_b.shape[1], -float(coef_b))])
    worst = 0.0
    for idx, Y in _frame_blocks(n, l, np.concatenate([cols_a, cols_b], axis=1)):
        W = (Y * signs[idx][:, None, :]) @ Y.conj().transpose(0, 2, 1)
        W = 0.5 * (W + W.conj().transpose(0, 2, 1))
        worst = max(worst, float(np.abs(np.linalg.eigvalsh(W)).max()))
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

    Frames and weights as in frame_operator_distance.  By the lemma of
    _frame_blocks the states overlap as the weighted coefficients Y, and
    only columns within one support block overlap, so the sum runs over
    the cross Gram Y_a^H Y_b of each block.
    """
    m_a = cols_a.shape[1]
    total = 0.0
    for idx, Y in _frame_blocks(n, l, np.concatenate([cols_a, cols_b], axis=1)):
        Y_a = np.where(idx[:, None, :] < m_a, Y, 0.0)
        total += float((np.abs(Y_a.conj().transpose(0, 2, 1) @ (Y - Y_a)) ** 2).sum())
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


def reduced_density_matrix(n: int, l: int, boundary: str = "plus") -> np.ndarray:
    """Dense l-site marginal of the chosen state, an n^l x n^l array.

    An oracle: test_mps checks rdm_eigen_by_grade (test_rdm_eigen_by_grade_matches_dense)
    and the frame routines (test_frame_distance_and_product_match_dense) against it.
    """
    if n**l > DENSE_RDM_CAP:
        raise ValueError(f"dense marginal dimension n^l = {n**l} exceeds cap {DENSE_RDM_CAP}")
    cols, c = rdm_frame(n, l, boundary)
    Psi = _psi(n, l, cols)
    rho = (c / n**l) * (Psi @ Psi.conj().T)
    return 0.5 * (rho + rho.conj().T)


def rdm_entry_oracle(n: int, l: int, boundary: str, row, col) -> complex:
    """<row| rho |col> via one expectation value; slow, for cross-checks.

    An oracle: test_mps::test_rdm_matches_entrywise_oracle and
    test_rdm_spot_entries_n6 check reduced_density_matrix entry by entry.
    """
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
    orthogonal across complement classes {K, K^c} (support blocks of
    _frame_blocks).  For the pure states P_+- gamma_K has coefficients of
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


def basis_states(fam: MpsFamily, l: int) -> np.ndarray:
    """psi(B) for every basis element B of the bond domain, one column each.

    The basis columns lie in the domain by construction, so unlike
    mps_vector no membership check is made, and all columns come from one
    _psi call.
    """
    return _psi(fam.n, l, _domain_columns(fam.n, fam.bond_domain)[1])


def span_dim(fam: MpsFamily, l: int) -> int:
    """dim span {psi(B) : B in the bond domain} at length l, by an exact count.

    With X the domain columns (_domain_columns) and Psi the map x -> psi(x),
    the Gram of the basis states is X^H Psi^H Psi X = n^l D^2 X^H diag(kern) X
    (_frame_blocks), kern = _grade_kernel(n, l)[_grades(n)] >= 0.  The
    columns have disjoint supports, so this Gram is diagonal, and its rank
    is the number of columns with a monomial of nonzero weight: K itself,
    or K or K xor full for the projected domains.  Grade-recurrence
    positivity decides each weight exactly: in the sign convention of
    _grade_kernel the recurrence reads kern_{l+1}(k) = (k/n) kern_l(k-1) +
    ((n-k)/n) kern_l(k+1), with both coefficients positive where defined,
    and kern_0 = e_0, so by induction kern_l(k) != 0 exactly when k <= l
    and k = l mod 2.  No state and no float weight enters the count; the
    oracle is the dense rank of injectivity_rank
    (test_mps::test_span_dim_is_the_rank_of_the_basis_states).
    """
    K = _domain_monomials(fam.n, fam.bond_domain)
    grades = _grades(fam.n)[K]

    def weighted(k):
        return (k <= l) & ((l - k) % 2 == 0)

    live = weighted(grades)
    if fam.bond_domain.startswith("p_"):
        live |= weighted(fam.n - grades)
    return int(np.count_nonzero(live))


def injectivity_rank(fam: MpsFamily, l: int) -> tuple[int, bool]:
    """Rank of B -> psi(B) on the family's bond domain, by a dense SVD of the states.

    The oracle of the exact count span_dim
    (test_mps::test_span_dim_is_the_rank_of_the_basis_states) and read by
    test_mps::test_injectivity_ranks.
    """
    Psi = basis_states(fam, l)
    svals = np.linalg.svd(Psi, compute_uv=False)
    rank = int((svals > 1e-10 * max(1.0, svals[0])).sum())
    return rank, rank == fam.dim()
