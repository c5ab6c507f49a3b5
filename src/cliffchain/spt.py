"""Projective-representation signs, bond symmetries, and CPT diagnostics.

The half-integer index of a tensor family is read off from commutators of
bond symmetries extracted via the mixed transfer operator.  Antilinear maps
are always handled as (entrywise conjugation) followed by a unitary, and the
density-matrix checks run on the coefficient columns of mps.rdm_frame, so
no state vector is ever built.  Each image of a frame is an array
expression: bar is cols.conj(), transpose_antiauto the reversal sign of
each row, the axis flip -1 on the rows that hold gamma_1, and a rotor the
plane moves of _rotor_conjugation.  Each frame distance is one eigvalsh
per support block of the frame in kernel-weighted coefficient space
(mps.frame_operator_distance), and a block is a set of monomial rows:
bar, transpose_antiauto, the axis flip and the rotor of theta keep every
complement class {K, K^c}, so those blocks have at most two rows, and
SO(n) rotors keep grade pairs {k, n-k}.  The marginal spectra are the
closed form mps.rdm_eigen_by_grade.

Every rotation comes from one list: the exact Givens factors (c, s, i, j)
of w (_givens_factors).  The rotor's coefficient vector is built from
their half turns (_rotor_coefficients) and certified once per rotation:
the factors and the adjoint identity are generator moves, signed
permutations of that vector, so no Clifford product is formed (spin_lift
states the lemma).  The checks report the certificate as lift_residual.
The same factors move the frames, one plane move each: a rotation in the
plane (i, j) fixes gamma_K when both or neither of i, j is in K and
otherwise turns the pair (gamma_K, gamma_{K xor ij}), so conjugation keeps
each grade and no minor of w is formed (_rotor_conjugation).
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


def _givens_factors(n: int, w: np.ndarray) -> list[tuple[float, float, int, int]]:
    """Factor w in SO(n) into plane rotations, as exact Givens ratios.

    The sweep clears column col below the diagonal, rotating rows col and
    row of A (initially w) in place by (c, s) = (a, b) / r, with a = A[col,
    col], b = A[row, col] and r = hypot(a, b); the pivot becomes r and the
    cleared entry an exact 0.  An entry that is already 0 over a
    nonnegative pivot is skipped, but a -1 pivot over a zero still turns
    by pi, (c, s) = (-1, 0).  Returns the (c, s, i, j) of each turn, 1-based
    planes i < j in sweep order: w is the left-to-right product of their
    transposes, the rotations by -atan2(s, c) in plane (i, j).  A signed
    permutation gives c, s in {0, +-1} exactly.  Raises ValueError unless
    w is an n x n matrix in SO(n).
    """
    A = np.array(w, dtype=float)
    if A.shape != (n, n):
        raise ValueError(f"expected an {n}x{n} rotation, got shape {A.shape}")
    if np.max(np.abs(A.T @ A - np.eye(n))) > 1e-10:
        raise ValueError("matrix is not orthogonal")
    if np.linalg.det(A) < 0:
        raise ValueError("determinant -1 rotations have no rotor lift here")
    facs = []
    for col in range(n - 1):
        for row in range(col + 1, n):
            a, b = A[col, col], A[row, col]
            if b == 0 and a >= 0:
                continue
            r = math.hypot(a, b)
            c, s = a / r, b / r
            A[col], A[row] = c * A[col] + s * A[row], c * A[row] - s * A[col]
            A[col, col], A[row, col] = r, 0.0
            facs.append((c, s, col + 1, row + 1))
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

    The factor (c, s, i, j) of _givens_factors rotates by -t, (c, s) =
    (cos t, sin t) with t in (-pi, pi], so its rotor is ch - sh gamma_i
    gamma_j with (ch, sh) = (cos t/2, sin t/2), and it multiplies from the
    right as Pi <- ch Pi - sh (Pi gamma_i gamma_j), two signed permutations:
    O(2^n).  Both (1 + c, s) and (|s|, sign(s) (1 - c)) are positive
    multiples of (ch, sh); the one normalized has no cancellation.
    """
    _check_rank(n)
    pi = np.zeros(1 << n)
    pi[0] = 1.0
    for c, s, i, j in _givens_factors(n, w):
        x, y = (1.0 + c, s) if c >= 0 else (abs(s), math.copysign(1.0 - c, s))
        r = math.hypot(x, y)
        pi = (x / r) * pi - (y / r) * _right_move(j - 1, _right_move(i - 1, pi))
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


def _rotor_conjugation(n: int, w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pi B Pi^-1 for each coefficient column B of cols, Pi the rotor of w.

    Plane-move lemma: the rotor of a plane rotation in (i, j) is
    f = cos(t/2) + sin(t/2) gamma_i gamma_j.  When both or neither of i, j
    is in K, gamma_i gamma_j commutes with gamma_K and f fixes it;
    otherwise they anticommute and f gamma_K f^-1 = f^2 gamma_K =
    cos t gamma_K + sin t gamma_i gamma_j gamma_K, where gamma_i gamma_j
    gamma_K = _merge_sign(ij, K) gamma_{K xor ij}.  That is exp(t D_ij),
    D_ij the rule of so_n.wedge_generator on every grade at once.  The
    sign is -1 to the number of generators of K strictly between i and j,
    times -1 when i is in K.  Each factor of _givens_factors (last first)
    thus rotates the pairs (K with i, K with j) by (c, s), on a strided
    view of the columns over bits i and j: O(n^2 2^n) per column.

    When every factor has c s == 0, w is a signed permutation (theta, for
    one) and so is its action; the moves then run exactly on the label
    column 1..2^n, and the columns are gathered once by its entries.
    Raises ValueError unless w is in SO(n).
    """
    facs = _givens_factors(n, w)
    signed = all(c * s == 0 for c, s, _, _ in facs)
    if signed:
        out = np.arange(1.0, (1 << n) + 1.0)
    else:
        out = np.array(cols, np.result_type(cols, 1.0), order="C")
    real = out.view(out.real.dtype)  # the moves are real: re and im move alike
    parity = (1.0 - 2 * (_grades(n) % 2))[:, None, None]
    tmp = np.empty((2, real.size // 4), real.dtype)
    for c, s, i, j in reversed(facs):
        v = real.reshape(1 << (n - j), 2, 1 << (j - i - 1), 2, 1 << (i - 1), -1)
        x, y = v[:, 0, :, 1], v[:, 1, :, 0]  # K with i only, K with j only
        between = s * parity[:1 << (j - i - 1)]  # s _merge_sign(ij, K), K in y
        by = np.multiply(between, y, out=tmp[0].reshape(x.shape))
        bx = np.multiply(between, x, out=tmp[1].reshape(x.shape))
        x *= c
        x -= by
        y *= c
        y += bx
    if not signed:
        return out
    src = np.abs(out).astype(np.intp) - 1
    image = np.asarray(cols)[src]
    image *= np.sign(out).reshape(-1, *(1,) * (image.ndim - 1))
    return image


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

    rep is "SPIN" (the realized rotors of spin_lift), "DEFINING" (the
    rotations themselves), or an explicit pair of unitary matrices.
    """
    if isinstance(rep, str):
        pair = rotation_pair(n)
        if rep == "SPIN":
            U1, U2 = (realize(spin_lift(n, g)[0]) for g in (pair.g1, pair.g2))
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
    """Pi fixed up to phase: its largest-modulus entry is real and positive."""

    Pi: np.ndarray = field(repr=False)
    eigenvalue: complex


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
    return BondSymmetry(Pi, lam)


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
    The same Givens factors move the frame (_rotor_conjugation): theta is a
    signed permutation, so its plane moves run on the label column and the
    frame is gathered once.  The action is real, so it commutes with the
    entrywise conjugation, which runs last, in place.
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
    image = _rotor_conjugation(n, th, plus[0])
    np.conj(image, out=image)
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
    largest of those margins; the same Givens factors move the frames by
    plane moves (_rotor_conjugation).  For even n, flip_unmatched is the distance
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
        for cols, c in frames.values():
            image = _rotor_conjugation(n, Q, cols)
            r_rot = max(r_rot, frame_operator_distance(n, l, image, c, cols, c))

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
