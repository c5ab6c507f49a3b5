"""Projective-representation signs, bond symmetries, and CPT diagnostics.

The half-integer index of a tensor family is read off from commutators of
bond symmetries extracted via the mixed transfer operator.  Antilinear maps
are always handled as (entrywise conjugation) followed by a unitary, and the
density-matrix checks run on the coefficient columns of mps.rdm_frame, so
no state vector is ever built.  Each image of a frame is an array
expression: bar is cols.conj(), transpose_antiauto the reversal sign of
each row, the axis flip -1 on the rows that hold gamma_1, and a rotor
rotor_action(n, w) @ cols, or for the signed permutation theta a row
gather times a sign.  Each frame distance is one eigvalsh per support
block of the frame in kernel-weighted coefficient space
(mps.frame_operator_distance), and a block is a set of monomial rows:
bar, transpose_antiauto, the axis flip and the rotor of theta keep every
complement class {K, K^c}, so those blocks have at most two rows, and
SO(n) rotors keep grade pairs {k, n-k}.  The marginal spectra are the
closed form mps.rdm_eigen_by_grade.

Rotations act on those frames through one lemma.  If Pi is the rotor of
w in SO(n), Pi gamma_i Pi^-1 = sum_j w_ji gamma_j, then for every monomial

    Pi gamma_I Pi^-1 = sum_{|J| = |I|} det(w[J, I]) gamma_J,

so conjugation keeps each grade k and acts there by the k-th compound
matrix C_k(w).  rotor_action builds that map.  The lift itself is certified
once per rotation on the rotor's dense coefficient vector: the Givens
factors and the adjoint identity are generator moves, signed permutations
of that vector, so no Clifford product is formed (spin_lift states the
lemma).  The checks report the certificate as lift_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401 (drawn from below; loaded at import, not inside a run)

from .checks import VerificationReport
from .clifford import (
    CliffordElement,
    _check_rank,
    _sign_left,
    _sign_right,
    matrix_rep,
    projectors_pm,
    realize,
    transpose_antiauto,
)
from .mps import (
    _grades,
    _sq_signs,
    frame_operator_distance,
    rdm_eigen_by_grade,
    rdm_frame,
)
from .so_n import spin_matrices

VERDICT_TOL = 1e-9

FIXES = "FIXES"
SWAPS = "SWAPS"
INVARIANT = "INVARIANT"
FAILED = "FAILED"


# ---------------------------------------------------------------------------
# rotations and their Clifford lifts
# ---------------------------------------------------------------------------


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random element of SO(n): sign-fixed QR, columns 1 and 2 swapped if det < 0."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
    return Q


def rotation_matrix(n: int, theta: float, i: int, j: int) -> np.ndarray:
    """Rotation by theta in the (i, j) coordinate plane, 1-based axes."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) at n={n}")
    w = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    w[i - 1, i - 1] = c
    w[j - 1, j - 1] = c
    w[i - 1, j - 1] = s
    w[j - 1, i - 1] = -s
    return w


def spin_rep_element(n: int, theta: float, i: int, j: int) -> CliffordElement:
    """cos(theta/2) 1 + sin(theta/2) gamma_i gamma_j, the rotor for rotation_matrix."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) at n={n}")
    one = CliffordElement.one(n, math.cos(theta / 2.0))
    plane = CliffordElement.gamma(n, i, j).scale(math.sin(theta / 2.0))
    return one + plane


def _require_special_orthogonal(w: np.ndarray) -> None:
    n = w.shape[0]
    if np.max(np.abs(w.T @ w - np.eye(n))) > 1e-10:
        raise ValueError("matrix is not orthogonal")
    if np.linalg.det(w) < 0:
        raise ValueError("determinant -1 rotations have no rotor lift here")


def _givens_factors(w: np.ndarray) -> list[tuple[float, int, int]]:
    """Factor w in SO(n) as a left-to-right product of plane rotations."""
    _require_special_orthogonal(w)
    n = w.shape[0]
    A = np.array(w, dtype=float)
    facs = []
    for col in range(n - 1):
        for row in range(col + 1, n):
            a, b = A[col, col], A[row, col]
            # a -1 pivot over a zero entry still needs the turn by pi
            if abs(b) < 1e-14 and a >= 0:
                continue
            th = math.atan2(b, a)
            A = rotation_matrix(n, th, col + 1, row + 1) @ A
            facs.append((-th, col + 1, row + 1))
    if np.max(np.abs(A - np.eye(n))) > 1e-9:
        raise ValueError("Givens sweep did not reduce the rotation to the identity")
    return facs


LIFT_TOL = 1e-10


def _right_move(g: int, v: np.ndarray) -> np.ndarray:
    """Coefficients of B gamma_g from those of B: a signed permutation."""
    K = np.arange(v.shape[-1], dtype=np.uint32) ^ np.uint32(1 << g)
    return _sign_right(g, K) * v[..., K]


def _left_move(g: int, v: np.ndarray) -> np.ndarray:
    """Coefficients of gamma_g B from those of B: a signed permutation."""
    K = np.arange(v.shape[-1], dtype=np.uint32) ^ np.uint32(1 << g)
    return _sign_left(g, K) * v[..., K]


def _rotor_coefficients(n: int, w: np.ndarray) -> np.ndarray:
    """Dense real coefficient vector of the rotor of w, Givens factor by factor.

    Each factor c + s gamma_i gamma_j multiplies from the right as
    Pi <- c Pi + s (Pi gamma_i gamma_j), two signed permutations: O(2^n).
    """
    _check_rank(n)
    w = np.asarray(w, dtype=float)
    if w.shape != (n, n):
        raise ValueError(f"expected an {n}x{n} rotation, got shape {w.shape}")
    pi = np.zeros(1 << n)
    pi[0] = 1.0
    for th, i, j in _givens_factors(w):
        c, s = math.cos(th / 2.0), math.sin(th / 2.0)
        pi = c * pi + s * _right_move(j - 1, _right_move(i - 1, pi))
    return pi


def _certify_lift(n: int, w: np.ndarray, pi: np.ndarray) -> float:
    """Check spin_lift's certificates (a)-(c) on the rotor coefficients pi.

    Returns the larger of the residuals of (b) and (c); raises
    AssertionError if (a) fails or that residual exceeds LIFT_TOL.
    """
    if np.count_nonzero(pi[_grades(n) % 2 == 1]):
        raise AssertionError("rotor lift has an odd-grade coefficient")
    r_norm = abs(float(pi @ pi) - 1.0)
    left = np.stack([_left_move(j, pi) for j in range(n)])
    images = np.asarray(w, dtype=float).T @ left  # row i: W_i Pi
    r_axis = [np.abs(_right_move(i, pi) - images[i]).max() for i in range(n)]
    if r_norm > LIFT_TOL:
        raise AssertionError(f"rotor lift is not normalized, residual {r_norm:.3e}")
    worst = int(np.argmax(r_axis))
    if r_axis[worst] > LIFT_TOL:
        raise AssertionError(f"rotor lift failed the adjoint identity at axis {worst + 1}")
    return max(r_norm, float(r_axis[worst]))


def spin_lift(n: int, w: np.ndarray) -> tuple[CliffordElement, CliffordElement]:
    """Rotor Pi with Pi gamma_i Pi^-1 = sum_j w_ji gamma_j, plus its inverse.

    Pi is built on its dense coefficient vector (_rotor_coefficients) and
    certified there by three checks, each a generator move or a sum, with no
    Clifford product (_certify_lift):

    (a) Pi has no odd-grade coefficient (exact: signed permutations by
        gamma_i gamma_j keep grade parity);
    (b) the scalar part of Pi Pi~ is 1, where Pi~ is the reversion; it
        equals sum_K Pi_K^2;
    (c) Pi gamma_i = W_i Pi with W_i = sum_j w_ji gamma_j, for every i.

    Lemma: these give Pi gamma_i Pi^-1 = W_i with Pi^-1 = Pi~.  Reversing
    (c) gives gamma_i Pi~ = Pi~ W_i, so W_i (Pi Pi~) = Pi gamma_i Pi~ =
    (Pi Pi~) W_i.  The W_i generate C_n, so Pi Pi~ is central; it is even by
    (a), and the even centre of C_n is the scalars at every n.  By (b),
    Pi Pi~ = 1.  So the inverse returned is the reversion of Pi.

    Defined up to a global sign; conjugation is what callers use, so the
    choice is irrelevant and not canonicalized.
    """
    pi = _rotor_coefficients(n, w)
    _certify_lift(n, w, pi)
    Pi = CliffordElement(n, {K: c for K, c in enumerate(pi) if c})
    return Pi, transpose_antiauto(Pi)


def rotor_action(n: int, w: np.ndarray) -> np.ndarray:
    """Matrix of B -> Pi B Pi^-1 on monomial coefficients, Pi the rotor of w.

    Compound-matrix lemma: Pi gamma_I Pi^-1 is the Clifford product of the
    rotated generators sum_j w_ji gamma_j over i in I, ascending.  The
    columns of w are orthonormal, so every contraction between two factors
    vanishes and only the wedge product survives, whose coefficients are
    the k x k minors (Cauchy-Binet):

        Pi gamma_I Pi^-1 = sum_{|J| = |I|} det(w[J, I]) gamma_J.

    The map keeps each grade k and acts there by the k-th compound matrix
    C_k(w).  Entry (J, I) of the returned real 2^n x 2^n matrix, indexed by
    bitmask, is det(w[J, I]); one batched determinant per grade builds it,
    with no Clifford product.  Raises ValueError unless w is in SO(n).
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (n, n):
        raise ValueError(f"expected an {n}x{n} rotation, got shape {w.shape}")
    _require_special_orthogonal(w)
    masks = np.arange(1 << n)
    grades = _grades(n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    R = np.zeros((1 << n, 1 << n))
    R[0, 0] = 1.0
    for k in range(1, n + 1):
        sel = masks[grades == k]
        idx = np.nonzero(bits[sel])[1].reshape(len(sel), k)  # ascending axes
        minors = w[idx[:, None, :, None], idx[None, :, None, :]]
        R[np.ix_(sel, sel)] = np.linalg.det(minors)
    return R


def _signed_permutation_action(n: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rotor_action(n, w) as a row gather and a sign, for a signed permutation w.

    If column c of w holds its one nonzero s_c = +-1 in row p(c), then
    Pi gamma_c Pi^-1 = s_c gamma_p(c), so Pi gamma_I Pi^-1 is the product of
    the s_c gamma_p(c) over c in I ascending, +-gamma_p(I).  The sign of
    each right factor is bit p(c) of _suffix_parity of the product so far
    (_sign_right), the one sign routine.  Returns (src, sign) with

        rotor_action(n, w) @ cols == sign[:, None] * cols[src]

    in O(n 2^n), with no 2^n x 2^n matrix.  Raises ValueError unless w is a
    signed permutation in SO(n).
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (n, n):
        raise ValueError(f"expected an {n}x{n} rotation, got shape {w.shape}")
    _require_special_orthogonal(w)
    nonzero = w != 0
    if np.any(nonzero.sum(axis=0) != 1) or np.any(np.abs(w[nonzero]) != 1):
        raise ValueError("rotation is not a signed permutation")
    rows = np.argmax(nonzero, axis=0)
    masks = np.arange(1 << n, dtype=np.uint32)
    target = np.zeros(1 << n, dtype=np.uint32)
    sign = np.ones(1 << n, dtype=np.int8)
    for c in range(n):
        has = ((masks >> np.uint32(c)) & np.uint32(1)).astype(bool)
        step = int(w[rows[c], c]) * _sign_right(int(rows[c]), target)
        sign = np.where(has, sign * step, sign)
        target = np.where(has, target ^ np.uint32(1 << int(rows[c])), target)
    src = np.empty(1 << n, dtype=np.intp)
    src[target] = masks
    return src, sign[src]


@dataclass(frozen=True)
class RotationPair:
    """The two commuting pi-rotations generating the diagnostic Z2 x Z2."""

    n: int
    g1: np.ndarray = field(repr=False)
    g2: np.ndarray = field(repr=False)


def rotation_pair(n: int) -> RotationPair:
    g1 = rotation_matrix(n, math.pi, 1, 2)
    g2 = rotation_matrix(n, math.pi, 1, 3)
    for g in (g1, g2):
        if np.max(np.abs(g @ g - np.eye(n))) > 1e-12:
            raise AssertionError("pi-rotation is not an involution")
    if np.max(np.abs(g1 @ g2 - g2 @ g1)) > 1e-12:
        raise AssertionError("the two pi-rotations do not commute")
    return RotationPair(n, g1, g2)


def cocycle_sign(n: int, rep="SPIN") -> int:
    """Sign s in U1 U2 U1^-1 U2^-1 = s * 1 for the Z2 x Z2 pair.

    rep is "SPIN" (rotor lift), "DEFINING" (the rotations themselves), or an
    explicit pair of unitary matrices.
    """
    if isinstance(rep, str):
        pair = rotation_pair(n)
        if rep == "SPIN":
            U1 = realize(spin_rep_element(n, math.pi, 1, 2))
            U2 = realize(spin_rep_element(n, math.pi, 1, 3))
        elif rep == "DEFINING":
            U1, U2 = pair.g1, pair.g2
        else:
            raise ValueError(f"unknown representation tag {rep!r}")
    else:
        U1, U2 = rep
    C = U1 @ U2 @ np.linalg.inv(U1) @ np.linalg.inv(U2)
    s = complex(C[0, 0])
    if np.max(np.abs(C - s * np.eye(C.shape[0]))) > 1e-8:
        raise ValueError("commutator is not scalar; the pair is not a projective rep")
    if abs(s - 1.0) < 1e-8:
        return 1
    if abs(s + 1.0) < 1e-8:
        return -1
    raise ValueError(f"scalar commutator {s} is not a sign")


# ---------------------------------------------------------------------------
# tensor families and bond-symmetry extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorFamily:
    """Site tensors of a translation-invariant MPS with an SO(n) label action.

    action "vector": physical label transforms by w itself; "pair": labels
    are two-site blocks transforming by w kron w.
    """

    n: int
    tensors: tuple
    action: str
    label: str

    @property
    def bond_dim(self) -> int:
        return self.tensors[0].shape[0]

    def site_action(self, w: np.ndarray) -> np.ndarray:
        if self.action == "vector":
            return w
        return np.kron(w, w)


def clifford_tensors(n: int) -> TensorFamily:
    """The gamma-matrix family; even n is blocked into two-site tensors.

    The unblocked even-n transfer operator has a -1 peripheral eigenvalue, so
    the primitive unit is the pair of sites compressed onto the range of the
    positive half projector.
    """
    rep = matrix_rep(n)
    gammas = [realize(CliffordElement.gamma(n, i), rep) for i in range(1, n + 1)]
    if n % 2 == 1:
        ts = tuple(g / math.sqrt(n) for g in gammas)
        return TensorFamily(n, ts, "vector", f"clifford(n={n})")
    P = realize(projectors_pm(n)[0], rep)
    vals, vecs = np.linalg.eigh(P)
    V = vecs[:, vals > 0.5]
    ts = tuple(
        V.conj().T @ (gammas[i] @ gammas[j]) @ V / n
        for i in range(n)
        for j in range(n)
    )
    return TensorFamily(n, ts, "pair", f"clifford(n={n}, blocked)")


def aklt_tensors() -> TensorFamily:
    """Spin-1 chain tensors sigma_i / sqrt(3) with the SO(3) label action."""
    paulis = [2.0 * S for S in spin_matrices(0.5).vector()]
    return TensorFamily(3, tuple(p / math.sqrt(3.0) for p in paulis), "vector", "aklt")


def product_tensors(n: int) -> TensorFamily:
    """Bond-dimension-1 baseline polarized along the last axis."""
    ts = tuple(np.array([[1.0 if i == n else 0.0]], dtype=complex) for i in range(1, n + 1))
    return TensorFamily(n, ts, "vector", f"product(n={n})")


@dataclass(frozen=True)
class BondSymmetry:
    w: np.ndarray = field(repr=False)
    Pi: np.ndarray = field(repr=False)
    eigenvalue: complex
    phase_convention: str


def _transfer_matrix(tensors) -> np.ndarray:
    D = tensors[0].shape[0]
    T = np.zeros((D * D, D * D), dtype=complex)
    for t in tensors:
        T += np.kron(t, t.conj())
    return T


def extract_bond_symmetry(family: TensorFamily, w: np.ndarray) -> BondSymmetry:
    """Unitary Pi with lambda Pi t_i Pi^dag = sum_j w_ji t_j, from the mixed transfer.

    Requires a primitive family: exactly one transfer eigenvalue on the unit
    circle.  A degenerate modulus-1 mixed spectrum is an error, not a
    fallback.
    """
    ts = family.tensors
    D = family.bond_dim
    T = _transfer_matrix(ts)
    t_evals = np.linalg.eigvals(T)
    if np.count_nonzero(np.abs(t_evals) > 1.0 - 1e-7) != 1:
        raise ValueError(f"family {family.label} is not primitive")

    A = family.site_action(w)
    s = [sum(A[a, b] * ts[a] for a in range(len(ts))) for b in range(len(ts))]
    M = np.zeros((D * D, D * D), dtype=complex)
    for b in range(len(ts)):
        M += np.kron(s[b], ts[b].conj())

    evals, evecs = np.linalg.eig(M)
    on_circle = np.flatnonzero(np.abs(np.abs(evals) - 1.0) < 1e-7)
    if len(on_circle) == 0:
        raise ValueError("mixed transfer operator has no modulus-1 eigenvalue")
    if len(on_circle) > 1:
        raise ValueError("mixed transfer operator has a degenerate modulus-1 spectrum")
    lam = complex(evals[on_circle[0]])
    Pi = evecs[:, on_circle[0]].reshape(D, D)

    Pi = Pi * math.sqrt(D / float(np.trace(Pi.conj().T @ Pi).real))
    unit_dev = np.max(np.abs(Pi.conj().T @ Pi - np.eye(D)))
    if unit_dev > 1e-6:
        raise ValueError(f"eigenvector does not rescale to a unitary, deviation {unit_dev:.3e}")
    top = Pi.flat[int(np.argmax(np.abs(Pi)))]
    Pi = Pi * (top.conjugate() / abs(top))

    worst = max(
        np.max(np.abs(lam * Pi @ ts[b] @ Pi.conj().T - s[b])) for b in range(len(ts))
    )
    if worst > 1e-7:
        raise ValueError(f"extracted Pi fails the intertwining relation, residual {worst:.3e}")
    return BondSymmetry(w, Pi, lam, "largest-entry-real-positive")


def mps_spt_index(family: TensorFamily) -> int:
    """Commutator sign of the bond symmetries for the diagnostic Z2 x Z2 pair."""
    pair = rotation_pair(family.n)
    b1 = extract_bond_symmetry(family, pair.g1)
    b2 = extract_bond_symmetry(family, pair.g2)
    return cocycle_sign(family.n, (b1.Pi, b2.Pi))


# ---------------------------------------------------------------------------
# CPT checks on the reduced density matrices
# ---------------------------------------------------------------------------


def _require_even_n(n: int) -> None:
    if n % 2 == 1:
        raise ValueError("the paired-state checks need even n")


def _frame_verdict(n: int, l: int, image: np.ndarray, plus, minus) -> tuple[str, float, float]:
    """Match the image of the plus frame against the plus and minus frames.

    plus and minus are the (columns, weight) pairs of rdm_frame; image
    holds the transformed plus columns and carries the plus weight.
    """
    (cols_p, c_p), (cols_m, c_m) = plus, minus
    r_fix = frame_operator_distance(n, l, image, c_p, cols_p, c_p)
    r_swap = frame_operator_distance(n, l, image, c_p, cols_m, c_m)
    fixes, swaps = r_fix < VERDICT_TOL, r_swap < VERDICT_TOL
    if fixes and swaps:
        verdict = FIXES if n % 4 == 0 else SWAPS  # degenerate rho+ = rho- regime
    elif fixes:
        verdict = FIXES
    elif swaps:
        verdict = SWAPS
    else:
        verdict = FAILED
    return verdict, r_fix, r_swap


def conjugation_check(n: int, l: int) -> tuple[str, dict]:
    """Entrywise conjugate of rho+- against rho+- (FIXES) or rho-+ (SWAPS)."""
    _require_even_n(n)
    plus, minus = rdm_frame(n, l, "plus"), rdm_frame(n, l, "minus")
    verdict, r_fix, r_swap = _frame_verdict(n, l, plus[0].conj(), plus, minus)
    return verdict, {"conjugation_fix": r_fix, "conjugation_swap": r_swap}


def reflection_check(n: int, l: int) -> tuple[str, dict]:
    """Site-order reversal of rho+- against rho+- or rho-+; even lengths only."""
    _require_even_n(n)
    if l % 2 == 1:
        raise ValueError("reflection check is defined for even lengths")
    plus, minus = rdm_frame(n, l, "plus"), rdm_frame(n, l, "minus")
    image = _sq_signs(n)[:, None] * plus[0]  # transpose_antiauto on every column
    verdict, r_fix, r_swap = _frame_verdict(n, l, image, plus, minus)
    return verdict, {"reflection_fix": r_fix, "reflection_swap": r_swap}


def theta_matrix(n: int) -> np.ndarray:
    """Real form of the time-reversal unitary under the spin relabeling.

    Site basis read as |m = s>, ..., |m = -s| with s = (n-1)/2; theta sends
    |m> to (-1)^(s-m) |-m>.
    """
    th = np.zeros((n, n))
    for i in range(1, n + 1):
        th[n - i, i - 1] = -1.0 if (i - 1) % 2 else 1.0
    return th


def time_reversal_check(n: int, l: int) -> tuple[str, dict]:
    """theta^(l) conj(rho+-) theta^(l)dag against rho+- and rho-+.

    theta has determinant 1, and every special rotation fixes each of rho+-,
    so the verdict always equals the conjugation verdict.  The rotor of theta
    is certified by _certify_lift; its margin is reported as lift_residual.
    theta is a signed permutation, so its rotor acts on the frame as a row
    gather times a sign (_signed_permutation_action).
    """
    _require_even_n(n)
    th = theta_matrix(n)
    s = (n - 1) / 2.0
    flip = max(
        np.max(np.abs(th @ S.conj() @ th.T + S)) for S in spin_matrices(s).vector()
    )
    if flip > 1e-12:
        raise AssertionError(f"theta does not flip the spin, residual {flip:.3e}")
    det = float(np.linalg.det(th))

    r_lift = _certify_lift(n, th, _rotor_coefficients(n, th))
    plus, minus = rdm_frame(n, l, "plus"), rdm_frame(n, l, "minus")
    src, sign = _signed_permutation_action(n, th)
    image = sign[:, None] * plus[0][src].conj()
    verdict, r_fix, r_swap = _frame_verdict(n, l, image, plus, minus)
    verdict = INVARIANT if verdict == FIXES else verdict
    return verdict, {
        "time_reversal_fix": r_fix,
        "time_reversal_swap": r_swap,
        "theta_det": det,
        "spin_flip": flip,
        "lift_residual": r_lift,
    }


def _axis_flip_signs(n: int) -> np.ndarray:
    """Conjugation by the reflection of the first axis, on monomial coefficients.

    The reflection sends gamma_1 to -gamma_1 and fixes the other
    generators, so gamma_K changes sign exactly when gamma_1 is a factor.
    """
    return np.where(np.arange(1 << n) & 1, -1, 1)


def on_site_breaking_check(n: int, l: int, rotations: int = 5, seed: int = 0,
                           tol: float = VERDICT_TOL) -> VerificationReport:
    """Rotation invariance, reflection pairing, and entanglement equality.

    (a) random special rotations fix each state; (b) the determinant -1 axis
    flip maps the states to each other (to itself for odd n); (c) the two
    states have identical spectra.  (a) and (b) pass below tol.  Each
    rotation's rotor is certified by _certify_lift, and lift_residual is the
    largest of those margins.  For even n, flip_unmatched is the distance
    from the flipped plus state to the plus state, the margin of the flip
    verdict.
    """
    rng = np.random.default_rng(seed)
    boundaries = ("plus", "minus") if n % 2 == 0 else ("omega",)
    frames = {b: rdm_frame(n, l, b) for b in boundaries}

    r_rot = r_lift = 0.0
    for _ in range(rotations):
        Q = _random_rotation(rng, n)
        r_lift = max(r_lift, _certify_lift(n, Q, _rotor_coefficients(n, Q)))
        R = rotor_action(n, Q)
        for cols, c in frames.values():
            r_rot = max(r_rot, frame_operator_distance(n, l, R @ cols, c, cols, c))

    src = boundaries[0]
    dst = boundaries[-1]  # partner state for even n, the same state for odd
    cols, c = frames[src]
    cols_d, c_d = frames[dst]
    flipped = _axis_flip_signs(n)[:, None] * cols
    r_flip = frame_operator_distance(n, l, flipped, c, cols_d, c_d)
    margin = {} if src == dst else {
        "flip_unmatched": frame_operator_distance(n, l, flipped, c, cols, c)}

    spec_a = rdm_eigen_by_grade(n, l, src)
    spec_b = rdm_eigen_by_grade(n, l, dst)
    r_spec = 0.0
    spectra_match = len(spec_a) == len(spec_b)
    if spectra_match:
        for (ga, mua, ma), (gb, mub, mb) in zip(spec_a, spec_b):
            spectra_match = spectra_match and ga == gb and ma == mb
            r_spec = max(r_spec, abs(mua - mub))

    passed = r_rot < tol and r_flip < tol and spectra_match and r_spec < 1e-10
    numbers = {
        "rotation_residual": r_rot,
        "flip_residual": r_flip,
        **margin,
        "spectrum_deviation": r_spec,
        "rotations": float(rotations),
        "lift_residual": r_lift,
    }
    return VerificationReport(f"on_site_breaking_check(n={n}, l={l})", passed, numbers)
