"""Cocycle signs, bond-symmetry extraction, and the CPT checks."""

import math

import numpy as np
import pytest

from cliffchain.clifford import CliffordElement, dist, matrix_rep, realize
from cliffchain.mps import (
    MpsFamily,
    _grades,
    coefvec,
    element_from_coefvec,
    frame_operator_distance,
    mps_vector,
    rdm_frame,
)
from cliffchain.spt import (
    FIXES,
    INVARIANT,
    LIFT_TOL,
    VERDICT_TOL,
    BondSymmetry,
    _certify_lift,
    _axis_flip_signs,
    _frame_verdict,
    _givens_factors,
    _random_rotation,
    _rotor_coefficients,
    _rotor_conjugation,
    aklt_tensors,
    clifford_tensors,
    cocycle_sign,
    conjugation_check,
    extract_bond_symmetry,
    mps_spt_index,
    on_site_breaking_check,
    product_tensors,
    reflection_check,
    rotation_matrix,
    rotation_pair,
    spin_lift,
    theta_matrix,
    time_reversal_check,
)
from cliffchain.so_n import spin_matrices


def rotate_generator(n, w, i):
    """Reference: sum_j w_ji gamma_j, the image of gamma_i under the rotation w.

    The spin_lift and rotor tests compare Pi gamma_i Pi^-1 against it.
    """
    out = CliffordElement.zero(n)
    for j in range(1, n + 1):
        c = w[j - 1, i - 1]
        if abs(c) > 1e-15:
            out = out + CliffordElement.gamma(n, j).scale(c)
    return out


def spin_rep_element(n, theta, i, j):
    """Reference: cos(theta/2) 1 + sin(theta/2) gamma_i gamma_j, the rotor of rotation_matrix.

    A closed form, kept to cross-check spin_lift factor by factor; the
    library builds its rotors from the Givens factors alone.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) at n={n}")
    one = CliffordElement.one(n, math.cos(theta / 2.0))
    return one + CliffordElement.gamma(n, i, j).scale(math.sin(theta / 2.0))


def rotor_action(n, w):
    """Oracle: the matrix of B -> Pi B Pi^-1 on monomial coefficients, by compound matrices.

    Pi gamma_I Pi^-1 is the product of the rotated generators
    sum_j w_ji gamma_j over i in I, ascending; the columns of w are
    orthonormal, so only the wedge product survives, and its coefficients
    are the k x k minors (Cauchy-Binet): entry (J, I) is det(w[J, I]).  The
    checks took this O(8^n) route before the plane moves of
    _rotor_conjugation; kept only to cross-check them.
    """
    _givens_factors(n, w)  # refuses w outside SO(n)
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


def rand_so(rng, n):
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
    return Q


def _rotor_image_oracle(n, w, cols):
    """Oracle: Pi B Pi^-1 for each coefficient column B, by Clifford products.

    The checks took this route before rotor_action; it costs O(4^n) sign
    merges per element and is kept only to cross-check the compound matrices
    and the plane moves.
    """
    Pi, Pi_inv = spin_lift(n, w)
    images = [Pi * element_from_coefvec(n, v) * Pi_inv for v in cols.T]
    return np.stack([coefvec(B) for B in images], axis=1)


def _spin_lift_oracle(n, w):
    """Oracle: the rotor and its inverse as chains of Clifford products.

    spin_lift took this route before it moved to coefficient vectors: one
    product per Givens factor for Pi, the reversed inverse factors for
    Pi_inv, and the adjoint identity by n general products.
    """
    # factor (c, s, i, j) is the rotation by -atan2(s, c) in the plane (i, j)
    facs = [(-math.atan2(s, c), i, j) for c, s, i, j in _givens_factors(n, w)]
    Pi = CliffordElement.one(n)
    Pi_inv = CliffordElement.one(n)
    for th, i, j in facs:
        Pi = Pi * spin_rep_element(n, th, i, j)
    for th, i, j in reversed(facs):
        Pi_inv = Pi_inv * spin_rep_element(n, -th, i, j)
    for i in range(1, n + 1):
        image = Pi * CliffordElement.gamma(n, i) * Pi_inv
        assert dist(image, rotate_generator(n, w, i)) < 1e-10
    return Pi, Pi_inv


def test_rotation_pair_invariants():
    for n in range(3, 9):
        pair = rotation_pair(n)
        for g in (pair.g1, pair.g2):
            assert np.max(np.abs(g @ g - np.eye(n))) < 1e-12
            assert abs(np.linalg.det(g) - 1.0) < 1e-12
        assert np.max(np.abs(pair.g1 @ pair.g2 - pair.g2 @ pair.g1)) < 1e-12


def test_spin_rep_element_endpoints():
    one = CliffordElement.one(4)
    assert dist(spin_rep_element(4, 0.0, 1, 2), one) < 1e-15
    assert dist(spin_rep_element(4, np.pi, 1, 2), CliffordElement.gamma(4, 1, 2)) < 1e-12
    U = realize(spin_rep_element(4, 0.83, 2, 4))
    assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12
    with pytest.raises(ValueError):
        spin_rep_element(4, 1.0, 3, 3)
    with pytest.raises(ValueError):
        spin_rep_element(4, 1.0, 2, 5)


def test_adjoint_action_matches_rotation():
    rng = np.random.default_rng(5)
    for n in range(3, 9):
        for _ in range(50):
            i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            th = rng.uniform(-np.pi, np.pi)
            w = rotation_matrix(n, th, int(i), int(j))
            Pi = spin_rep_element(n, th, int(i), int(j))
            Pi_inv = spin_rep_element(n, -th, int(i), int(j))
            for axis in (int(i), int(j)):
                image = Pi * CliffordElement.gamma(n, axis) * Pi_inv
                assert dist(image, rotate_generator(n, w, axis)) < 1e-9


def test_spin_lift_random_rotations():
    rng = np.random.default_rng(9)
    for n in (3, 4, 5, 6):
        w = rand_so(rng, n)
        Pi, Pi_inv = spin_lift(n, w)
        assert dist(Pi * Pi_inv, CliffordElement.one(n)) < 1e-10
    with pytest.raises(ValueError):
        spin_lift(3, np.diag([-1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        spin_lift(3, np.eye(3) * 2.0)


def test_spin_lift_matches_the_clifford_product_oracle():
    rng = np.random.default_rng(61)
    for n in range(3, 9):
        w = rand_so(rng, n)
        Pi, Pi_inv = spin_lift(n, w)
        want, want_inv = _spin_lift_oracle(n, w)
        assert np.abs(coefvec(Pi) - coefvec(want)).max() < 1e-12
        assert np.abs(coefvec(Pi_inv) - coefvec(want_inv)).max() < 1e-12
        for i in range(1, n + 1):
            image = Pi * CliffordElement.gamma(n, i) * Pi_inv
            assert dist(image, rotate_generator(n, w, i)) < 1e-10


def test_certify_lift_rejects_a_rotor_of_another_rotation():
    rng = np.random.default_rng(67)
    for n in (3, 4, 7):
        w1, w2 = rand_so(rng, n), rand_so(rng, n)
        pi = _rotor_coefficients(n, w1)
        assert _certify_lift(n, w1, pi) < 1e-13
        with pytest.raises(AssertionError, match="adjoint identity"):
            _certify_lift(n, w2, pi)
        with pytest.raises(AssertionError, match="normalized"):
            _certify_lift(n, w1, 2.0 * pi)
        odd = pi.copy()
        odd[1] = 1e-20
        with pytest.raises(AssertionError, match="odd-grade"):
            _certify_lift(n, w1, odd)
    with pytest.raises(ValueError):
        spin_lift(4, np.eye(3))


def test_givens_sweep_turns_a_minus_one_pivot_over_a_zero_column():
    # diag(-1, -1, 1) has a -1 pivot with an exact zero below it: one turn by pi
    assert _givens_factors(3, np.diag([-1.0, -1.0, 1.0])) == [(-1.0, 0.0, 1, 2)]
    for w, bits in ((np.diag([-1.0, -1.0, 1.0]), 0b11), (-np.eye(4), 0b1111)):
        n = len(w)
        Pi, Pi_inv = spin_lift(n, w)
        assert set(Pi.coef) == {bits}
        assert abs(abs(Pi.coef[bits]) - 1.0) < 1e-15 and abs(Pi.coef[bits].imag) == 0.0
        for i in range(1, n + 1):
            image = Pi * CliffordElement.gamma(n, i) * Pi_inv
            assert dist(image, rotate_generator(n, w, i)) < 1e-12


@pytest.mark.parametrize("n", (3, 5, 7))
def test_theta_lifts_at_odd_n(n):
    th = theta_matrix(n)
    assert _certify_lift(n, th, _rotor_coefficients(n, th)) < 1e-13
    spin_lift(n, th)


def test_intertwining_with_site_rotations():
    # w tensored over sites acts on the state as bond conjugation by the rotor
    rng = np.random.default_rng(31)
    for n, l in ((3, 3), (4, 3)):
        fam = MpsFamily(n, "full")
        coef = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        B = element_from_coefvec(n, coef)
        w = rand_so(rng, n)
        Pi, Pi_inv = spin_lift(n, w)
        W = w
        for _ in range(l - 1):
            W = np.kron(W, w)
        lhs = W @ mps_vector(fam, l, B)
        rhs = mps_vector(fam, l, Pi * B * Pi_inv)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_axis_flip_matches_site_reflection():
    rng = np.random.default_rng(41)
    for n, l in ((3, 2), (4, 3)):
        fam = MpsFamily(n, "full")
        coef = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        B = element_from_coefvec(n, coef)
        R = np.diag([-1.0] + [1.0] * (n - 1))
        W = R
        for _ in range(l - 1):
            W = np.kron(W, R)
        lhs = W @ mps_vector(fam, l, B)
        rhs = mps_vector(fam, l, element_from_coefvec(n, _axis_flip_signs(n) * coef))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_cocycle_signs_spin_vs_defining():
    for n in range(3, 9):
        assert cocycle_sign(n, "SPIN") == -1
        assert cocycle_sign(n, "DEFINING") == 1


def test_cocycle_custom_pair_and_errors():
    rep = matrix_rep(5)
    U1 = realize(CliffordElement.gamma(5, 1, 2), rep)
    U2 = realize(CliffordElement.gamma(5, 1, 3), rep)
    assert cocycle_sign(5, (U1, U2)) == -1
    quarter1 = realize(spin_rep_element(5, np.pi / 2, 1, 2), rep)
    quarter2 = realize(spin_rep_element(5, np.pi / 2, 1, 3), rep)
    with pytest.raises(ValueError):
        cocycle_sign(5, (quarter1, quarter2))
    with pytest.raises(ValueError):
        cocycle_sign(5, "ADJOINT")


def test_extract_identity_gives_identity():
    for fam in (clifford_tensors(3), clifford_tensors(4), aklt_tensors()):
        bond = extract_bond_symmetry(fam, np.eye(fam.n))
        assert isinstance(bond, BondSymmetry)
        assert abs(bond.eigenvalue - 1.0) < 1e-8
        assert np.max(np.abs(bond.Pi - np.eye(fam.bond_dim))) < 1e-7


def test_extract_pi_rotation_recovers_plane_rotor():
    pair3 = rotation_pair(3)
    bond = extract_bond_symmetry(clifford_tensors(3), pair3.g1)
    target = realize(CliffordElement.gamma(3, 1, 2))
    D = target.shape[0]
    assert abs(abs(np.trace(bond.Pi.conj().T @ target)) / D - 1.0) < 1e-6

    fam4 = clifford_tensors(4)
    bond4 = extract_bond_symmetry(fam4, rotation_pair(4).g1)
    rep = matrix_rep(4)
    P = realize(CliffordElement.one(4) * 0.5
                + CliffordElement.gamma(4, 1, 2, 3, 4) * 0.5, rep)
    vals, vecs = np.linalg.eigh(P)
    V = vecs[:, vals > 0.5]
    target4 = V.conj().T @ realize(CliffordElement.gamma(4, 1, 2), rep) @ V
    Dh = target4.shape[0]
    assert abs(abs(np.trace(bond4.Pi.conj().T @ target4)) / Dh - 1.0) < 1e-6


def test_extract_rejects_nonprimitive_family():
    from cliffchain.spt import TensorFamily

    rep = matrix_rep(4)
    ts = tuple(realize(CliffordElement.gamma(4, i), rep) / 2.0 for i in range(1, 5))
    raw = TensorFamily(4, ts, "vector", "unblocked")
    with pytest.raises(ValueError):
        extract_bond_symmetry(raw, np.eye(4))


def test_spt_index_by_family():
    for n in (3, 4, 5, 6):
        assert mps_spt_index(clifford_tensors(n)) == -1
    assert mps_spt_index(aklt_tensors()) == -1
    assert mps_spt_index(product_tensors(3)) == 1
    assert mps_spt_index(product_tensors(4)) == 1


def test_cocycle_sign_invariant_under_rephasing():
    rng = np.random.default_rng(13)
    fam = clifford_tensors(4)
    pair = rotation_pair(4)
    P1 = extract_bond_symmetry(fam, pair.g1).Pi
    P2 = extract_bond_symmetry(fam, pair.g2).Pi
    for _ in range(10):
        z1 = np.exp(2j * np.pi * rng.uniform())
        z2 = np.exp(2j * np.pi * rng.uniform())
        assert cocycle_sign(4, (z1 * P1, z2 * P2)) == -1


def test_theta_matrix_properties():
    for n in range(2, 9):
        th = theta_matrix(n)
        assert np.max(np.abs(th.T @ th - np.eye(n))) < 1e-14
        assert abs(np.linalg.det(th) - 1.0) < 1e-12
    for n in (4, 6):
        th = theta_matrix(n)
        assert np.max(np.abs(th @ th + np.eye(n))) < 1e-14  # squares to -1
        for S in spin_matrices((n - 1) / 2.0).vector():
            assert np.max(np.abs(th @ S.conj() @ th.T + S)) < 1e-12


def test_conjugation_check_by_n_mod_4():
    verdict, res = conjugation_check(4, 4)
    assert verdict == "FIXES"
    assert res["conjugation_fix"] < 1e-10
    verdict, res = conjugation_check(6, 4)
    assert verdict == "SWAPS"
    assert res["conjugation_swap"] < 1e-10
    assert res["conjugation_fix"] > 1e-6
    verdict, res = conjugation_check(6, 2)  # identical-state regime
    assert verdict == "SWAPS"
    assert res["conjugation_fix"] < 1e-10
    assert res["conjugation_swap"] < 1e-10
    with pytest.raises(ValueError):
        conjugation_check(5, 4)


def test_reflection_check_by_n_mod_4():
    verdict, res = reflection_check(4, 4)
    assert verdict == "FIXES"
    assert res["reflection_fix"] < 1e-10
    verdict, res = reflection_check(6, 4)
    assert verdict == "SWAPS"
    assert res["reflection_swap"] < 1e-10
    with pytest.raises(ValueError):
        reflection_check(4, 3)


def test_time_reversal_check_by_n_mod_4():
    verdict, res = time_reversal_check(4, 4)
    assert verdict == "INVARIANT"
    assert res["time_reversal_fix"] < 1e-9
    assert res["theta_det"] == pytest.approx(1.0, abs=1e-12)
    # the map sends each state to its partner in this congruence class
    verdict, res = time_reversal_check(6, 4)
    assert verdict == "SWAPS"
    assert res["time_reversal_swap"] < 1e-9
    assert res["time_reversal_fix"] > 1e-6


_CPT_CHECKS = ((conjugation_check, "conjugation"), (reflection_check, "reflection"),
               (time_reversal_check, "time_reversal"))


def test_cpt_checks_run_past_the_float_range_of_n_to_the_l():
    # 4^600 is not a float; the frame weights are carried relative to n^l
    for (check, key), l in zip(_CPT_CHECKS, (600, 600, 601)):
        verdict, res = check(4, l)
        assert verdict in (FIXES, INVARIANT)
        assert res[f"{key}_fix"] < VERDICT_TOL < res[f"{key}_swap"]


def test_cpt_checks_at_n10():
    for check, key in _CPT_CHECKS:
        verdict, res = check(10, 10)
        assert verdict == "SWAPS"
        assert res[f"{key}_swap"] < VERDICT_TOL < res[f"{key}_fix"]


def test_cpt_report_verdicts_agree():
    for n, l in ((4, 4), (6, 4)):
        conj, res = conjugation_check(n, l)
        refl, r_refl = reflection_check(n, l)
        _, r_tr = time_reversal_check(n, l)
        assert conj == refl
        assert set(res) | set(r_refl) | set(r_tr) >= {
            "conjugation_fix", "reflection_fix", "time_reversal_fix", "theta_det"}


def test_checks_report_the_largest_lift_residual():
    rotations, seed = 3, 2
    rep = on_site_breaking_check(6, 2, rotations=rotations, seed=seed)
    rng = np.random.default_rng(seed)
    lifts = []
    for _ in range(rotations):
        Q = _random_rotation(rng, 6)
        lifts.append(_certify_lift(6, Q, _rotor_coefficients(6, Q)))
    assert rep.numbers["lift_residual"] == max(lifts) < LIFT_TOL
    th = theta_matrix(6)
    _, res = time_reversal_check(6, 2)
    assert res["lift_residual"] == _certify_lift(6, th, _rotor_coefficients(6, th))
    assert res["lift_residual"] < LIFT_TOL


def test_on_site_breaking_check_even_n():
    rep = on_site_breaking_check(4, 4, rotations=3)
    assert rep.passed, rep.summary()
    assert rep.numbers["rotation_residual"] < 1e-9
    assert rep.numbers["flip_residual"] < 1e-9
    assert rep.numbers["spectrum_deviation"] < 1e-10


@pytest.mark.parametrize("n, l", ((4, 4), (6, 4), (8, 4)))
def test_on_site_breaking_reports_the_unmatched_flip_margin(n, l):
    # the flipped plus state is the minus state, so its distance to the
    # plus state is the plus/minus distance
    rep = on_site_breaking_check(n, l, rotations=1)
    plus, minus = rdm_frame(n, l, "plus"), rdm_frame(n, l, "minus")
    want = frame_operator_distance(n, l, *plus, *minus)
    assert abs(rep.numbers["flip_unmatched"] - want) < 1e-12
    assert rep.numbers["flip_residual"] < VERDICT_TOL < rep.numbers["flip_unmatched"]


def test_on_site_breaking_check_odd_n_and_short_block():
    rep = on_site_breaking_check(3, 3, rotations=3)
    assert rep.passed, rep.summary()
    assert "flip_unmatched" not in rep.numbers  # odd n: the flip maps the state to itself
    rep = on_site_breaking_check(6, 2, rotations=2)
    assert rep.passed, rep.summary()


# --- rotors by plane moves --------------------------------------------------


def test_rotor_action_matches_clifford_conjugation():
    rng = np.random.default_rng(47)
    for n in range(2, 8):
        for _ in range(2):
            w = rand_so(rng, n)
            R = rotor_action(n, w)
            want = _rotor_image_oracle(n, w, np.eye(1 << n))
            assert np.abs(R - want).max() < 1e-12


def test_rotor_action_is_grade_blocked_orthogonal_and_multiplicative():
    rng = np.random.default_rng(53)
    for n in range(2, 9):
        w1, w2 = rand_so(rng, n), rand_so(rng, n)
        R1, R2 = rotor_action(n, w1), rotor_action(n, w2)
        grades = np.array([b.bit_count() for b in range(1 << n)])
        off_block = grades[:, None] != grades[None, :]
        assert np.count_nonzero(R1[off_block]) == 0
        assert np.abs(R1.T @ R1 - np.eye(1 << n)).max() < 1e-12
        assert np.abs(rotor_action(n, w1 @ w2) - R1 @ R2).max() < 1e-12
        assert np.abs(rotor_action(n, np.eye(n)) - np.eye(1 << n)).max() == 0.0


def _random_columns(rng, n, m=3):
    cols = rng.standard_normal((1 << n, m)) + 1j * rng.standard_normal((1 << n, m))
    cols[rng.random(cols.shape) < 0.3] = 0.0
    return cols


def _random_signed_permutation(rng, n):
    w = np.eye(n)[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
    if np.linalg.det(w) < 0:
        w[:, 0] = -w[:, 0]
    return w


def test_rotor_conjugation_matches_the_compound_matrix_oracle():
    rng = np.random.default_rng(71)
    for n in range(2, 11):
        w = rand_so(rng, n)
        cols = _random_columns(rng, n)
        assert np.abs(_rotor_conjugation(n, w, cols) - rotor_action(n, w) @ cols).max() < 1e-13
        # a real column stays real, and one column may be passed flat
        real = cols.real.copy()
        image = _rotor_conjugation(n, w, real[:, 0])
        assert image.dtype == float and image.shape == (1 << n,)
        assert np.abs(image - rotor_action(n, w) @ real[:, 0]).max() < 1e-13


def test_rotor_conjugation_is_exact_on_signed_permutations():
    rng = np.random.default_rng(59)
    for n in range(2, 11):
        cols = _random_columns(rng, n)
        flip = np.diag([-1.0, -1.0] + [1.0] * (n - 2))
        perms = [_random_signed_permutation(rng, n) for _ in range(2)]
        for w in (theta_matrix(n), np.eye(n), flip, *perms):
            assert np.array_equal(_rotor_conjugation(n, w, cols), rotor_action(n, w) @ cols)


def test_signed_permutation_factors_are_exact():
    rng = np.random.default_rng(73)
    for n in range(2, 13):
        for w in (theta_matrix(n), *(_random_signed_permutation(rng, n) for _ in range(10))):
            for c, s, _, _ in _givens_factors(n, w):
                assert c in (0.0, 1.0, -1.0) and s in (0.0, 1.0, -1.0) and c * s == 0
        # a generic rotation has a factor off the axes, so it takes the dense moves
        assert any(c * s != 0 for c, s, _, _ in _givens_factors(n, rand_so(rng, n)))


def test_rotor_conjugation_rejects_matrices_outside_so_n():
    cols = np.eye(8)
    with pytest.raises(ValueError):
        _rotor_conjugation(3, np.diag([-1.0, 1.0, 1.0]), cols)
    with pytest.raises(ValueError):
        _rotor_conjugation(3, np.eye(3) * 2.0, cols)
    with pytest.raises(ValueError):
        _rotor_conjugation(4, np.eye(3), np.eye(16))


@pytest.mark.parametrize("n, l", ((4, 4), (6, 4), (6, 6), (8, 8), (10, 10)))
def test_time_reversal_residuals_match_the_dense_rotor(n, l):
    # the gathered plane moves of theta give the same image as the dense
    # compound matrix, so every residual is bit-identical
    verdict, res = time_reversal_check(n, l)
    plus, minus = rdm_frame(n, l, "plus"), rdm_frame(n, l, "minus")
    image = rotor_action(n, theta_matrix(n)) @ plus[0].conj()
    want, r_fix, r_swap = _frame_verdict(n, l, image, plus, minus)
    assert verdict == (INVARIANT if want == FIXES else want)
    assert (res["time_reversal_fix"], res["time_reversal_swap"]) == (r_fix, r_swap)


@pytest.mark.parametrize("n, l", ((4, 4), (6, 4), (6, 6)))
def test_frame_checks_match_the_clifford_product_oracle(n, l):
    rotations, seed = 2, 3
    rep = on_site_breaking_check(n, l, rotations=rotations, seed=seed)
    assert rep.passed, rep.summary()
    rng = np.random.default_rng(seed)
    r_rot = 0.0
    frames = {b: rdm_frame(n, l, b) for b in ("plus", "minus")}
    for _ in range(rotations):
        Q = _random_rotation(rng, n)
        for cols, c in frames.values():
            image = _rotor_image_oracle(n, Q, cols)
            assert np.abs(_rotor_conjugation(n, Q, cols) - image).max() < 1e-12
            r_rot = max(r_rot, frame_operator_distance(n, l, image, c, cols, c))
    assert abs(rep.numbers["rotation_residual"] - r_rot) < 1e-12

    verdict, res = time_reversal_check(n, l)
    bar = [element_from_coefvec(n, v).bar() for v in frames["plus"][0].T]
    image = _rotor_image_oracle(n, theta_matrix(n), np.stack([coefvec(B) for B in bar], axis=1))
    want, r_fix, r_swap = _frame_verdict(n, l, image, frames["plus"], frames["minus"])
    assert verdict == (INVARIANT if want == FIXES else want)
    assert abs(res["time_reversal_fix"] - r_fix) < 1e-12
    assert abs(res["time_reversal_swap"] - r_swap) < 1e-12


def test_on_site_breaking_check_n8():
    rep = on_site_breaking_check(8, 4, rotations=1)
    assert rep.passed, rep.summary()
    for key in ("rotation_residual", "flip_residual", "spectrum_deviation"):
        assert rep.numbers[key] < VERDICT_TOL
