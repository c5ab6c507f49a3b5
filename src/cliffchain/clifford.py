"""Exact arithmetic in the real Clifford algebra C_n.

Generators gamma_1..gamma_n obey  gamma_i gamma_j + gamma_j gamma_i = 2 delta_ij.
Basis monomials gamma_I = gamma_{i_1}...gamma_{i_k} (i_1 < ... < i_k) are encoded
as bitmasks, so products reduce to XOR plus a sign from counting transpositions.
Every sign comes from one word: bit t of _suffix_parity(I) is the parity of
the generators of I above t, and gamma_I gamma_J = (-1)^parity(word & J)
gamma_{I xor J}.  Products, the generator moves on coefficient vectors
(_sign_left, _sign_right) and the batched pair products on coefficient
arrays (_pair_products) all use it; realize and the stacked
monomial images (_monomial_stack) do not, so the matrix realization stays an
independent check.  The clifford-selftest campaign checks the array form of
the rule, in batch, against that sign-free realization.
Elements are sparse complex combinations of monomials.  Everything here is pure
and allocation-cheap; the matrix realization exists only as an independent
cross-check and for code that genuinely needs operators on C^D.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

MAX_RANK = 16
PRUNE_TOL = 1e-14


def _check_rank(n: int) -> None:
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank n={n} outside supported range 1..{MAX_RANK}")


def reversal_sign(k: int) -> int:
    """Sign picked up by writing gamma_{i_k}..gamma_{i_1} in ascending order."""
    return -1 if (k * (k - 1) // 2) % 2 else 1


def realized_dim(n: int) -> int:
    """Dimension D = 2^floor(n/2) of the irreducible matrix realization."""
    return 1 << (n // 2)


def _index_mask(n: int, indices) -> int:
    """Bitmask of the monomial gamma_I of C_n, I a set of distinct 1-based indices."""
    bits = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        if bits & (1 << (i - 1)):
            raise ValueError(f"repeated generator index {i}")
        bits |= 1 << (i - 1)
    return bits


def _suffix_parity(bits):
    """Word whose bit t is the parity of the generators of `bits` above t.

    Bit t of (bits >> 1) folded with its 1, 2, 4 and 8 right shifts is the
    parity of bits t+1..t+16, which covers every generator for n <= 16.  The
    same expression serves Python ints and uint32 arrays.
    """
    x = bits >> 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    return x


def _merge_sign(ibits: int, jbits: int) -> int:
    """Sign of gamma_I gamma_J = sign * gamma_{I xor J}.

    Each generator j in J moves left past the generators of I above it, so
    the sign is the parity of _suffix_parity(I) & J; repeated generators then
    cancel via gamma_j^2 = 1 with no extra sign.
    """
    return -1 if (_suffix_parity(ibits) & jbits).bit_count() & 1 else 1


def _parity_table() -> np.ndarray:
    """Bit-count parity of every 16-bit word, by doubling: p(2^k + i) = 1 - p(i)."""
    table = np.zeros(1, dtype=np.uint8)
    for _ in range(16):
        table = np.concatenate([table, table ^ 1])
    return table


_PARITY16 = _parity_table()


def _parity(a: np.ndarray) -> np.ndarray:
    """Bit-count parity of each entry of a uint32 array."""
    a = a.astype(np.uint32, copy=False)
    return _PARITY16[a & np.uint32(0xFFFF)] ^ _PARITY16[a >> np.uint32(16)]


def _sign_left(g: int, bits: np.ndarray) -> np.ndarray:
    """Sign of gamma_g * gamma_K for each K: parity of _suffix_parity(1 << g) & K."""
    return (1 - 2 * _parity(bits & np.uint32(_suffix_parity(1 << g)))).astype(np.int8)


def _sign_right(g: int, bits: np.ndarray) -> np.ndarray:
    """Sign of gamma_K * gamma_g for each K: bit g of _suffix_parity(K)."""
    word = _suffix_parity(bits.astype(np.uint32, copy=False))
    return (1 - 2 * ((word >> np.uint32(g)) & np.uint32(1))).astype(np.int8)


def _pair_products(ia: np.ndarray, ca: np.ndarray, ib: np.ndarray, cb: np.ndarray,
                   n: int) -> np.ndarray:
    """Coefficient rows of the S products a_s b_s, as an (S, 2^n) array.

    Row s of ia / ca holds the monomial masks and coefficients of a_s, and
    row s of ib / cb those of b_s; a mask repeated within a row adds.  Each
    term pair gamma_I gamma_J lands on I xor J with the sign
    parity(_suffix_parity(I) & J), the rule of __mul__, and the terms are
    summed by bincount on their real and imaginary parts.
    """
    I = np.asarray(ia, dtype=np.uint32)[:, :, np.newaxis]
    J = np.asarray(ib, dtype=np.uint32)[:, np.newaxis, :]
    samples, size = I.shape[0], 1 << n
    sign = 1.0 - 2.0 * _parity(_suffix_parity(I) & J)
    terms = (sign * np.asarray(ca)[:, :, np.newaxis] * np.asarray(cb)[:, np.newaxis, :]).ravel()
    rows = np.arange(samples, dtype=np.intp)[:, np.newaxis, np.newaxis] * size
    target = (rows + (I ^ J)).ravel()
    re = np.bincount(target, weights=terms.real, minlength=samples * size)
    im = np.bincount(target, weights=terms.imag, minlength=samples * size)
    return (re + 1j * im).reshape(samples, size)


@dataclass(frozen=True, eq=False)
class CliffordElement:
    """Sparse element of C_n: map bitmask -> complex coefficient.

    Treated as immutable; all operations return new elements with
    coefficients below PRUNE_TOL dropped.
    """

    n: int
    coef: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_rank(self.n)
        pruned = {b: complex(c) for b, c in self.coef.items() if abs(c) > PRUNE_TOL}
        object.__setattr__(self, "coef", pruned)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "CliffordElement":
        return cls(n, {})

    @classmethod
    def one(cls, n: int, c: complex = 1.0) -> "CliffordElement":
        return cls(n, {0: c})

    @classmethod
    def gamma(cls, n: int, *indices) -> "CliffordElement":
        """gamma_{i_1} ... gamma_{i_k} in the order given: (-1)^(inversions) gamma_I."""
        inversions = sum(a > b for t, a in enumerate(indices) for b in indices[t + 1:])
        return cls(n, {_index_mask(n, indices): -1.0 if inversions % 2 else 1.0})

    # -- linear structure ---------------------------------------------

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out = dict(self.coef)
        for b, c in other.coef.items():
            out[b] = out.get(b, 0.0) + c
        return CliffordElement(self.n, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.n, {b: -c for b, c in self.coef.items()})

    def scale(self, c: complex) -> "CliffordElement":
        return CliffordElement(self.n, {b: c * v for b, v in self.coef.items()})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            if self.n != other.n:
                raise ValueError("rank mismatch")
            out: dict = {}
            right = list(other.coef.items())
            for bi, ci in self.coef.items():
                word = _suffix_parity(bi)
                for bj, cj in right:
                    k = bi ^ bj
                    if (word & bj).bit_count() & 1:
                        out[k] = out.get(k, 0.0) - ci * cj
                    else:
                        out[k] = out.get(k, 0.0) + ci * cj
            return CliffordElement(self.n, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, c):
        return self.scale(1.0 / c)

    # -- involutions ----------------------------------------------------

    def bar(self) -> "CliffordElement":
        """Complex conjugation of coefficients (algebra automorphism)."""
        return CliffordElement(self.n, {b: c.conjugate() for b, c in self.coef.items()})

    def star(self) -> "CliffordElement":
        """Adjoint: conjugate coefficients and reverse each monomial."""
        return CliffordElement(
            self.n,
            {b: c.conjugate() * reversal_sign(b.bit_count()) for b, c in self.coef.items()},
        )

    # -- inspection -----------------------------------------------------

    @property
    def coef_identity(self) -> complex:
        return self.coef.get(0, 0.0 + 0.0j)

    def grades(self) -> set:
        return {b.bit_count() for b in self.coef}

    def restrict_grades(self, keep) -> "CliffordElement":
        keep = set(keep)
        return CliffordElement(
            self.n, {b: c for b, c in self.coef.items() if b.bit_count() in keep}
        )

    def norm_max(self) -> float:
        return max((abs(c) for c in self.coef.values()), default=0.0)

    def __repr__(self):
        if not self.coef:
            return f"CliffordElement({self.n}, 0)"
        parts = []
        for b in sorted(self.coef):
            label = "1" if b == 0 else "g" + "".join(str(i + 1) for i in range(self.n) if b >> i & 1)
            parts.append(f"{self.coef[b]:+.6g}*{label}")
        return f"CliffordElement({self.n}, {' '.join(parts)})"


def trace(B: CliffordElement) -> complex:
    """Algebra trace, normalized so trace(1) = D = 2^floor(n/2)."""
    return realized_dim(B.n) * B.coef_identity


def dist(A: CliffordElement, B: CliffordElement) -> float:
    return (A - B).norm_max()


def gamma0(n: int) -> CliffordElement:
    """Normalized top monomial: gamma_1..gamma_n times a phase so gamma0^2 = 1.

    The phase is 1 for n = 0,1 (mod 4) and i for n = 2,3 (mod 4).
    """
    _check_rank(n)
    phase = 1.0 if n % 4 in (0, 1) else 1.0j
    return CliffordElement(n, {(1 << n) - 1: phase})


def projectors_pm(n: int) -> tuple[CliffordElement, CliffordElement]:
    """P_+- = (1 +- gamma0)/2."""
    g0 = gamma0(n)
    one = CliffordElement.one(n)
    return (one + g0).scale(0.5), (one - g0).scale(0.5)


def alpha(B: CliffordElement) -> CliffordElement:
    """Conjugation by gamma_1.  Inner automorphism of order two.

    An oracle, by two Clifford products: mps.alpha_signs is its sign vector
    on monomials, checked against it in
    test_mps::test_alpha_signs_match_conjugation_by_gamma_1.
    """
    g1 = CliffordElement.gamma(B.n, 1)
    return g1 * B * g1


def transpose_antiauto(B: CliffordElement) -> CliffordElement:
    """Linear antiautomorphism t reversing monomials: t(gamma_I) = +-gamma_I."""
    return CliffordElement(
        B.n, {b: c * reversal_sign(b.bit_count()) for b, c in B.coef.items()}
    )


# ---------------------------------------------------------------------------
# matrix realization
# ---------------------------------------------------------------------------

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# Largest rank whose monomial images are all kept: 2^n images of D x D complex
# entries, 2 MiB in total at n = 9 and 16 MiB at n = 10.
_MONOMIAL_CACHE_MAX_N = 9


@dataclass(frozen=True)
class MatrixRealization:
    """Hermitian anticommuting unitaries realizing gamma_1..gamma_n on C^D."""

    n: int
    dim: int
    gammas: tuple
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def monomial(self, bits: int) -> np.ndarray:
        """Realized gamma_I, factors multiplied in ascending index order.

        The image is (gamma_I without its top generator) @ gamma_top, so each
        new one costs a single product.  Up to _MONOMIAL_CACHE_MAX_N the images
        are kept per realization; they are read-only, like the gammas.
        """
        out = self._images.get(bits)
        if out is not None:
            return out
        if bits == 0:
            out = np.eye(self.dim, dtype=complex)
        else:
            top = bits.bit_length() - 1
            out = self.monomial(bits ^ (1 << top)) @ self.gammas[top]
        out.setflags(write=False)
        if self.n <= _MONOMIAL_CACHE_MAX_N:
            self._images[bits] = out
        return out


def _pauli_string(m: int, k: int, op: np.ndarray) -> np.ndarray:
    """Z x ... x Z (k times) x op x 1 x ... on m qubit factors."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(m):
        if q < k:
            f = _PAULI_Z
        elif q == k:
            f = op
        else:
            f = np.eye(2, dtype=complex)
        out = np.kron(out, f)
    return out


def matrix_rep(n: int) -> MatrixRealization:
    """Jordan-Wigner style realization.

    Even n = 2m: alternating X/Y with Z strings on m qubits.
    Odd n = 2m+1: the even-2m set plus gamma_n proportional to the product
    gamma_1..gamma_2m, signed so that the realized gamma0 is +1 (this picks
    the P_+ sector of C_n).

    Built once per n and shared by every caller; the gamma arrays are
    read-only so that no caller can corrupt the cached copy.
    """
    if not 2 <= n <= MAX_RANK:
        raise ValueError(f"matrix realization supports 2 <= n <= {MAX_RANK}")
    return _build_matrix_rep(n)


# The cache sits behind the public function so that matrix_rep stays a plain
# function, which perfbench's tracer wraps and counts per call.
@functools.lru_cache(maxsize=None)
def _build_matrix_rep(n: int) -> MatrixRealization:
    m = n // 2
    gammas = []
    for k in range(m):
        gammas.append(_pauli_string(m, k, _PAULI_X))
        gammas.append(_pauli_string(m, k, _PAULI_Y))
    if n % 2:
        top = np.eye(1 << m, dtype=complex)
        for g in gammas:
            top = top @ g
        cand = (1.0j**m) * top
        # fix the sign so the full product gamma_1..gamma_n realizes gamma0 -> +1
        phase = 1.0 if n % 4 == 1 else 1.0j
        full = phase * top @ cand
        s = full[0, 0].real
        if abs(abs(s) - 1.0) > 1e-12:
            raise AssertionError("realization sanity: gamma0 image not a sign")
        if s < 0:
            cand = -cand
        gammas.append(cand)
    for g in gammas:
        g.setflags(write=False)
    return MatrixRealization(n, 1 << m, tuple(gammas))


def realize(B: CliffordElement, rep: MatrixRealization | None = None) -> np.ndarray:
    """Image of B under the matrix realization (odd n: the P_+ sector)."""
    if rep is None:
        rep = matrix_rep(B.n)
    if rep.n != B.n:
        raise ValueError("rank mismatch")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for b, c in B.coef.items():
        out += c * rep.monomial(b)
    return out


def _monomial_stack(rep: MatrixRealization) -> np.ndarray:
    """Every realized monomial, rep.monomial(b) at index b: a (2^n, D, D) array.

    Built from the monomial images alone, with no sign code, so that
    coefs @ stack.reshape(2^n, D * D) realizes a batch of coefficient rows
    as independently of the product rule as realize does.
    """
    return np.stack([rep.monomial(b) for b in range(1 << rep.n)])
