import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffchain.clifford import (
    CliffordElement,
    alpha,
    gamma0,
    matrix_rep,
    projectors_pm,
    realize,
    realized_dim,
    reversal_sign,
    transpose_antiauto,
)
from cliffchain.mps import (
    BOND_DOMAINS,
    BOUNDARIES,
    MpsFamily,
    _apply_transfer,
    _domain_columns,
    _effective_sign,
    _grade_kernel,
    _frame_blocks,
    _grade_weights,
    _grades,
    _psi,
    _sign_left,
    _sign_right,
    _sq_signs,
    alpha_signs,
    coefvec,
    e_matrix,
    element_from_coefvec,
    fcs_expectation,
    frame_operator_distance,
    frame_product_trace,
    injectivity_rank,
    mps_vector,
    psi_plus,
    rdm_eigen_by_grade,
    rdm_entry_oracle,
    rdm_frame,
    reduced_density_matrix,
    span_dim,
    transfer_eigenvalue,
    transfer_spectrum,
    two_point_correlation,
)
from cliffchain import mps as mps_module
from cliffchain.checks import cluster_degeneracies
from cliffchain.reporting import _expected_grade_mult, _expected_grades
from cliffchain.spt import _axis_flip_signs, _random_rotation, _rotor_conjugation, theta_matrix


def g(n, *idx):
    return CliffordElement.gamma(n, *idx)


def psi_minus(n, l, B):
    """Reference: the - state map psi(alpha(B)), with alpha as the sign vector alpha_signs.

    The library carries the - state only as its frame (rdm_frame(n, l,
    "minus")); this map is kept to pin that state on small cases.
    """
    return _psi(n, l, alpha_signs(n) * coefvec(B))


def rand_element(rng, n, nterms=6, grades=None):
    coef = {}
    for _ in range(nterms):
        bits = int(rng.integers(0, 1 << n))
        if grades is not None and bits.bit_count() % 2 != grades:
            continue
        coef[bits] = complex(rng.normal(), rng.normal())
    return CliffordElement(n, coef)


def basis_state(n, l, *sites):
    v = np.zeros(n**l, dtype=complex)
    flat = 0
    for i in sites:
        flat = flat * n + (i - 1)
    v[flat] = 1.0
    return v


def _stack(elems):
    """Coefficient columns of a list of elements."""
    return np.stack([coefvec(B) for B in elems], axis=1)


# --- state vectors ---------------------------------------------------------


def test_psi_plus_two_site_example():
    n = 4
    B = g(n, 1, 2) + gamma0(n) * g(n, 1, 2)
    v = psi_plus(n, 2, B) / realized_dim(n)
    want = (
        basis_state(n, 2, 1, 2)
        - basis_state(n, 2, 2, 1)
        - basis_state(n, 2, 3, 4)
        + basis_state(n, 2, 4, 3)
    )
    assert np.abs(v - want).max() < 1e-14
    w = psi_minus(n, 2, B) / realized_dim(n)
    want_m = (
        -basis_state(n, 2, 1, 2)
        + basis_state(n, 2, 2, 1)
        - basis_state(n, 2, 3, 4)
        + basis_state(n, 2, 4, 3)
    )
    assert np.abs(w - want_m).max() < 1e-14


def test_psi_projector_boundary_is_isotropic_pair():
    n = 3
    P_plus, _ = projectors_pm(n)
    v = psi_plus(n, 2, P_plus)
    want = basis_state(n, 2, 1, 1) + basis_state(n, 2, 2, 2) + basis_state(n, 2, 3, 3)
    want *= v[0]
    assert abs(v[0]) > 0.1
    assert np.abs(v - want).max() < 1e-14


def test_psi_grade_parity_vanishing():
    for n in (4, 5):
        for l in (1, 2, 3):
            for grade, idx in ((1, (1,)), (2, (1, 3)), (3, (1, 2, 4))):
                v = psi_plus(n, l, g(n, *idx))
                if grade % 2 != l % 2:
                    assert np.abs(v).max() == 0.0
                elif grade <= l:
                    assert np.abs(v).max() > 0.0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 15))
def test_psi_entry_is_abstract_trace(string, bits):
    n = 4
    B = CliffordElement(n, {bits: 1.0 + 0.5j})
    v = psi_plus(n, len(string), B)
    word = CliffordElement.one(n)
    for i in reversed(string):
        word = word * g(n, i)
    flat = 0
    for i in string:
        flat = flat * n + (i - 1)
    prod = B * word
    want = realized_dim(n) * prod.coef_identity
    assert abs(v[flat] - want) < 1e-12


def test_mps_vector_domain_validation():
    fam = MpsFamily(4, "p_plus_even")
    with pytest.raises(ValueError):
        mps_vector(fam, 2, g(4, 1))
    with pytest.raises(ValueError):
        MpsFamily(4, "p_plus")
    with pytest.raises(ValueError):
        MpsFamily(5, "even")
    P_plus, _ = projectors_pm(4)
    v = mps_vector(fam, 2, P_plus * g(4, 1, 2))
    assert v.shape == (16,)


# --- transfer maps ---------------------------------------------------------


def _apply_E_oracle(n, A, B):
    """E_A(B) = (1/n) sum_ij A_ij gamma_i B gamma_j, term by term with inline signs.

    A slow oracle for e_matrix, which builds the same map from the sign tables.
    """
    full = (1 << n) - 1
    out = {}
    for bits, c in B.coef.items():
        for i in range(n):
            si = 1 - 2 * ((bits & ((1 << i) - 1)).bit_count() & 1)
            bi = bits ^ (1 << i)
            for j in range(n):
                sj = 1 - 2 * ((bi & full & ~((1 << (j + 1)) - 1)).bit_count() & 1)
                k = bi ^ (1 << j)
                out[k] = out.get(k, 0.0) + (A[i, j] / n) * si * sj * c
    return CliffordElement(n, out)


def test_e_matrix_identity_eigenvalues():
    for n in (3, 4, 6):
        M = e_matrix(n, np.eye(n))
        for idx in ((), (1,), (1, 2), (1, 3, 4)):
            if idx and max(idx) > n:
                continue
            v = coefvec(g(n, *idx) if idx else CliffordElement.one(n))
            lam = transfer_eigenvalue(n, len(idx))
            assert np.abs(M @ v - lam * v).max() < 1e-14


def test_e_map_examples():
    top = coefvec(gamma0(4))
    assert np.abs(e_matrix(4, np.eye(4)) @ top + top).max() < 1e-14
    v = coefvec(g(6, 1, 2))
    assert np.abs(e_matrix(6, np.eye(6)) @ v - v / 3.0).max() < 1e-14


def test_apply_E_matches_matrix_realization():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        rep = matrix_rep(n)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rand_element(rng, n)
        out = _apply_E_oracle(n, A, B)
        got = realize(out, rep)
        want = sum(
            A[i, j] * rep.gammas[i] @ realize(B, rep) @ rep.gammas[j]
            for i in range(n)
            for j in range(n)
        ) / n
        assert np.abs(got - want).max() < 1e-12
        Mv = _apply_transfer(n, A, coefvec(B))
        assert np.abs(Mv - coefvec(out)).max() < 1e-12


def test_fcs_normalization():
    for n in (3, 4, 5, 6):
        for l in (1, 2, 3):
            for boundary in ("omega", "plus", "minus"):
                val = fcs_expectation(n, [np.eye(n)] * l, boundary)
                assert abs(val - 1.0) < 1e-13


def test_sigma_twist_swaps_the_two_states():
    # sigma(A) = R A R with R = diag(-1, 1, ..., 1), the reflection of the first axis
    rng = np.random.default_rng(5)
    n = 4
    R = np.diag([-1.0] + [1.0] * (n - 1))
    for l in (2, 3):
        ops = [rng.normal(size=(n, n)) for _ in range(l)]
        twisted = [R @ A @ R for A in ops]
        lhs = fcs_expectation(n, twisted, "plus")
        rhs = fcs_expectation(n, ops, "minus")
        assert abs(lhs - rhs) < 1e-12


def test_odd_n_boundaries_agree():
    rng = np.random.default_rng(9)
    for n, l in ((3, 2), (3, 4), (5, 2)):
        ops = [rng.normal(size=(n, n)) for _ in range(l)]
        vals = [fcs_expectation(n, ops, b) for b in ("omega", "plus", "minus")]
        assert abs(vals[0] - vals[1]) < 1e-12
        assert abs(vals[0] - vals[2]) < 1e-12


# --- spectra ---------------------------------------------------------------


def test_transfer_spectrum_class_formula():
    for n in range(3, 9):
        summary = transfer_spectrum(n, "E")
        want = {}
        top = n // 2 if n % 2 else n
        for k in range(top + 1):
            lam = transfer_eigenvalue(n, k)
            want[round(lam, 12)] = want.get(round(lam, 12), 0) + math.comb(n, k)
        got = {round(v, 12): m for v, m in summary.eigenvalues}
        assert got.keys() == want.keys()
        for v, m in want.items():
            assert got[v] == m
        for v, m in summary.eigenvalues:
            close = [k for k in range(n + 1) if abs(transfer_eigenvalue(n, k) - v) < 1e-10]
            assert close
        assert sum(m for _, m in summary.eigenvalues) == (1 << n) if n % 2 == 0 else True


def test_transfer_spectrum_leading_and_primitivity():
    for n in range(3, 9):
        summary = transfer_spectrum(n, "E")
        assert abs(summary.eigenvalues[0][0] - 1.0) < 1e-10
        assert summary.eigenvalues[0][1] == 1
        assert summary.is_primitive == (n % 2 == 1)


def test_transfer_spectrum_f_shared():
    s4 = transfer_spectrum(4, "F_shared")
    assert [(round(v, 10), m) for v, m in s4.eigenvalues] == [(1.0, 1), (0.0, 3)]
    assert s4.is_primitive
    s6 = transfer_spectrum(6, "F_shared")
    got = {round(v, 10): m for v, m in s6.eigenvalues}
    third = round(1.0 / 3.0, 10)
    assert got == {1.0: 1, third: 10, -third: 5}
    assert s6.is_primitive
    with pytest.raises(ValueError):
        transfer_spectrum(5, "F_shared")


def test_transfer_spectrum_matches_dense_eigenvalues():
    # the dense oracle: eigvals of e_matrix(n, 1), restricted to the P_+ basis
    # columns of _domain_columns at odd n and for F_shared
    for n in range(2, 11):
        M = e_matrix(n, np.eye(n))
        variants = [("E", M, "full" if n % 2 == 0 else "p_plus")]
        if n % 2 == 0:
            variants.append(("F_shared", alpha_signs(n)[:, None] * M, "p_plus_even"))
        for variant, F, domain in variants:
            reps, emb = _domain_columns(n, domain)
            restricted = (F @ emb)[reps] / emb[reps, np.arange(reps.size)][:, None]
            assert np.abs(F @ emb - emb @ restricted).max() < 1e-12
            want = cluster_degeneracies(np.linalg.eigvals(restricted).real)[::-1]
            got = transfer_spectrum(n, variant).eigenvalues
            assert [m for _, m in got] == [m for _, m in want]
            assert max(abs(a - b) for (a, _), (b, _) in zip(got, want)) < 1e-12
        exact = {transfer_eigenvalue(n, k) for k in range(n + 1)}
        assert {v for v, _ in transfer_spectrum(n, "E").eigenvalues} <= exact


def test_transfer_routines_refuse_ranks_above_16():
    with pytest.raises(ValueError):
        transfer_spectrum(17)
    with pytest.raises(ValueError):
        fcs_expectation(17, [np.eye(17)])
    with pytest.raises(ValueError):
        _apply_transfer(17, np.eye(17), np.zeros(1 << 17))


def test_correlation_lengths():
    want = {
        3: 1.0 / math.log(3.0),
        4: 0.0,
        5: 1.0 / math.log(5.0 / 3.0),
        6: 1.0 / math.log(3.0),
        8: 1.0 / math.log(2.0),
    }
    for n, xi in want.items():
        got = transfer_spectrum(n, "E").correlation_length
        assert got == pytest.approx(xi, abs=1e-12)


# --- Gram machinery --------------------------------------------------------


def _dense_overlap_kernel_oracle(n, l):
    """Test oracle: the dense 2^n x 2^n overlap kernel by doubled-index propagation.

    Z[L, R] is the coefficient of gamma_L x gamma_R in
    sum_{i_1..i_l} (gamma_{i_1}..gamma_{i_l}) x (gamma_{i_l}..gamma_{i_1}),
    so <psi(B), psi(B')> = D^2 b^H (Z * sq) b'.  O(l n 4^n); n <= 8 only.
    """
    dim = 1 << n
    Z = np.zeros((dim, dim), dtype=complex)
    Z[0, 0] = 1.0
    idx = np.arange(dim, dtype=np.uint32)
    for _ in range(l):
        Znew = np.zeros_like(Z)
        for gen in range(n):
            sl = _sign_left(gen, idx).astype(complex)
            sr = _sign_right(gen, idx).astype(complex)
            T = (sl[:, None] * sr[None, :]) * Z
            perm = idx ^ np.uint32(1 << gen)
            Znew += T[np.ix_(perm, perm)]
        Z = Znew
    return Z


def test_grade_weights_match_dense_kernel_oracle():
    for n in range(2, 9):
        grades = _grades(n)
        for l in range(10):
            Z = _dense_overlap_kernel_oracle(n, l)
            diag = np.diag(Z)
            assert np.count_nonzero(Z - np.diag(diag)) == 0
            assert np.count_nonzero(diag.imag) == 0
            # the weights are z_l / n^l; the oracle counts z_l exactly
            w = _grade_weights(n, l)[grades] * float(n) ** l
            assert np.array_equal(w == 0, diag == 0)
            assert np.allclose(w, diag.real, rtol=1e-14, atol=0)


def _gram_oracle(n, l, cols):
    """Oracle: the Gram <psi(B_a), psi(B_b)> / n^l of coefficient columns.

    The overlap kernel is diagonal in the monomial basis, so with
    w[K] = z_l(|K|) / n^l from _grade_weights and sq[K] = reversal_sign(|K|),
    G / n^l = D^2 cols^H (w * sq * cols).  The library's gram_matrix took
    this dense route; it is kept only to cross-check the support blocks.
    """
    kern = _grade_kernel(n, l)[_grades(n)]
    G = realized_dim(n) ** 2 * (cols.conj().T @ (kern[:, None] * cols))
    return 0.5 * (G + G.conj().T)


def test_gram_matches_brute_overlaps():
    rng = np.random.default_rng(11)
    for n, l in ((3, 2), (3, 3), (4, 2), (4, 3)):
        elems = [rand_element(rng, n) for _ in range(5)]
        G = n**l * _gram_oracle(n, l, _stack(elems))
        Psi = np.stack([psi_plus(n, l, B) for B in elems], axis=1)
        brute = Psi.conj().T @ Psi
        assert np.abs(G - brute).max() < 1e-10 * max(1.0, np.abs(brute).max())
        assert np.abs(G - G.conj().T).max() < 1e-12 * max(1.0, np.abs(G).max())


def test_frame_distance_and_product_match_dense():
    n, l = 4, 3
    ea, ca = rdm_frame(n, l, "plus")
    eb, cb = rdm_frame(n, l, "minus")
    rp, rm = reduced_density_matrix(n, l, "plus"), reduced_density_matrix(n, l, "minus")
    want = np.abs(np.linalg.eigvalsh(rp - rm)).max()
    got = frame_operator_distance(n, l, ea, ca, eb, cb)
    assert abs(got - want) < 1e-11
    want_tr = float(np.trace(rp @ rm).real)
    got_tr = frame_product_trace(n, l, ea, ca, eb, cb)
    assert abs(got_tr - want_tr) < 1e-11


def _frame_operator_distance_oracle(n, l, cols_a, coef_a, cols_b, coef_b):
    """Test oracle: frame_operator_distance by one eigh of the whole joint Gram.

    The library took this dense route before the support blocks; it costs
    O(m^3) in the joint frame size m and is kept only to cross-check them.
    """
    G = _gram_oracle(n, l, np.concatenate([cols_a, cols_b], axis=1))
    signs = np.concatenate([coef_a * np.ones(cols_a.shape[1]), -coef_b * np.ones(cols_b.shape[1])])
    evals, vecs = np.linalg.eigh(G)
    keep = evals > 1e-12 * max(float(evals.max(initial=0.0)), 1e-300)
    if not keep.any():
        return 0.0
    GX = G @ (vecs[:, keep] / np.sqrt(evals[keep]))
    M = GX.conj().T @ (signs[:, None] * GX)  # X^H G S G X, G Hermitian
    return float(np.abs(np.linalg.eigvalsh(M)).max())


def _cpt_images(n, l):
    """Images of the plus frame under the CPT maps, the axis flip and a random rotor.

    bar, transpose and flip come from the element oracles, column by column.
    """
    cols, _ = rdm_frame(n, l, "plus")
    elems = [element_from_coefvec(n, v) for v in cols.T]
    rng = np.random.default_rng(0)
    return {
        "bar": _stack([B.bar() for B in elems]),
        "transpose": _stack([transpose_antiauto(B) for B in elems]),
        "theta": _rotor_conjugation(n, theta_matrix(n), cols.conj()),
        "rotor": _rotor_conjugation(n, _random_rotation(rng, n), cols),
        "flip": _stack([_flip_first_axis_oracle(B) for B in elems]),
    }


@pytest.mark.parametrize("n, l", ((4, 4), (6, 4), (6, 6), (8, 4)))
def test_blocked_frame_distance_matches_dense_oracle(n, l):
    frames = {b: rdm_frame(n, l, b) for b in ("plus", "minus")}
    c = frames["plus"][1]
    for name, image in _cpt_images(n, l).items():
        for target, c_t in frames.values():
            got = frame_operator_distance(n, l, image, c, target, c_t)
            want = _frame_operator_distance_oracle(n, l, image, c, target, c_t)
            assert abs(got - want) < 1e-12, (name, got, want)
        if name != "rotor":  # the CPT images keep every complement class
            joint = np.concatenate([image, frames["plus"][0]], axis=1)
            blocks = _frame_blocks(n, l, joint)
            assert max(idx.shape[1] for idx, _ in blocks) <= 4
            assert max(Y.shape[1] for _, Y in blocks) <= 2


@pytest.mark.parametrize("n, l", ((4, 4), (6, 5), (6, 6)))
def test_rotor_blocks_are_grade_pairs(n, l):
    # every grade of parity l mod 2 is weighted here (l >= n - 1), and a
    # rotor mixes all of grade k while P gamma_K joins K to K^c, so each
    # grade pair {k, n-k} is one block of all its monomial rows
    cols, _ = rdm_frame(n, l, "plus")
    image = _rotor_conjugation(n, _random_rotation(np.random.default_rng(5), n), cols)
    blocks = _frame_blocks(n, l, np.concatenate([image, cols], axis=1))
    got = sorted(Y.shape[1] for _, Y in blocks for _ in range(Y.shape[0]))
    want = sorted(math.comb(n, k) * (1 if 2 * k == n else 2) for k in range(l % 2, n // 2 + 1, 2))
    assert got == want


def test_blocked_frame_distance_on_one_dense_block():
    rng = np.random.default_rng(23)
    n, l = 6, 4
    a = rng.standard_normal((1 << n, 5)) + 1j * rng.standard_normal((1 << n, 5))
    b = rng.standard_normal((1 << n, 4)) + 1j * rng.standard_normal((1 << n, 4))
    blocks = _frame_blocks(n, l, np.concatenate([a, b], axis=1))
    assert [idx.shape for idx, _ in blocks] == [(1, 9)]
    got = frame_operator_distance(n, l, a, 0.7, b, 1.3)
    want = _frame_operator_distance_oracle(n, l, a, 0.7, b, 1.3)
    assert abs(got - want) < 1e-12 * max(1.0, want)


@pytest.mark.parametrize("n, l", ((6, 2), (5, 3), (8, 4)))
def test_frame_distance_on_rank_deficient_frames(n, l):
    # no rank cut-off: duplicate and zero columns and columns on grades of
    # zero kernel weight (above l) must give the oracle's value as they are
    rng = np.random.default_rng(31 + n)
    dim = 1 << n
    a = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
    b = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    high = np.where((_grades(n) > l)[:, None], rng.standard_normal((dim, 2)), 0.0)
    a[:, 1] = a[:, 0]
    b[:, 2] = 0.0
    b[:, 1] = a[:, 3]
    a = np.concatenate([a, high], axis=1)
    for coef_a, coef_b in ((0.7, 1.3), (1.0, 1.0)):
        got = frame_operator_distance(n, l, a, coef_a, b, coef_b)
        want = _frame_operator_distance_oracle(n, l, a, coef_a, b, coef_b)
        assert abs(got - want) < 1e-12 * max(1.0, want), (got, want)
    assert frame_operator_distance(n, l, high, 1.0, high[:, :1], 0.5) == 0.0
    assert frame_product_trace(n, l, high, 1.0, a, 1.0) == 0.0


def test_frame_product_trace_matches_the_gram_oracle():
    for n, l in ((4, 4), (6, 3)):
        cols_a, ca = rdm_frame(n, l, "plus")
        cols_b, cb = rdm_frame(n, l, "minus")
        m_a = cols_a.shape[1]
        G = _gram_oracle(n, l, np.concatenate([cols_a, cols_b], axis=1))
        want = ca * cb * float((np.abs(G[:m_a, m_a:]) ** 2).sum())
        assert frame_product_trace(n, l, cols_a, ca, cols_b, cb) == pytest.approx(want, abs=1e-14)


def _rdm_frame_oracle(n, l, boundary):
    """Oracle: rdm_frame by Clifford products, P gamma_K for every K, stacked.

    rdm_frame took this route before its closed form; it is kept only to
    cross-check that form.
    """
    D = realized_dim(n)
    eff = _effective_sign(boundary, n, l)
    if eff == "omega":
        return _stack([CliffordElement(n, {b: 1.0}) for b in range(1 << n)]), 1.0 / D**2
    P = projectors_pm(n)[0 if eff == "plus" else 1]
    return _stack([P * CliffordElement(n, {b: 1.0}) for b in range(1 << n)]), 2.0 / D**2


def _flip_first_axis_oracle(B):
    """Oracle: conjugation by the reflection of the first axis, on an element."""
    return CliffordElement(B.n, {b: -c if b & 1 else c for b, c in B.coef.items()})


def test_rdm_frame_matches_the_clifford_product_oracle():
    for n in range(2, 11):
        for l in (3, 4):
            for boundary in BOUNDARIES:
                cols, c = rdm_frame(n, l, boundary)
                want, c_want = _rdm_frame_oracle(n, l, boundary)
                assert cols.dtype == want.dtype
                assert np.array_equal(cols, want), (n, l, boundary)
                assert c == c_want
    # the frame images are array expressions on the columns
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        elems = [rand_element(rng, n) for _ in range(4)]
        cols = _stack(elems)
        assert np.array_equal(cols.conj(), _stack([B.bar() for B in elems]))
        assert np.array_equal(_sq_signs(n)[:, None] * cols,
                              _stack([transpose_antiauto(B) for B in elems]))
        assert np.array_equal(_axis_flip_signs(n)[:, None] * cols,
                              _stack([_flip_first_axis_oracle(B) for B in elems]))


# --- reduced density matrices ----------------------------------------------


def test_rdm_matches_entrywise_oracle():
    for n, l, boundary in ((3, 2, "plus"), (4, 2, "omega"), (4, 3, "plus"), (4, 3, "minus")):
        rho = reduced_density_matrix(n, l, boundary)
        strings = list(itertools.product(range(1, n + 1), repeat=l))
        for a, row in enumerate(strings):
            for b, col in enumerate(strings):
                want = rdm_entry_oracle(n, l, boundary, row, col)
                assert abs(rho[a, b] - want) < 1e-12


def test_rdm_spot_entries_n6():
    rng = np.random.default_rng(13)
    n, l = 6, 3
    rho = reduced_density_matrix(n, l, "plus")
    strings = list(itertools.product(range(1, n + 1), repeat=l))
    for _ in range(15):
        a, b = rng.integers(0, len(strings), size=2)
        want = rdm_entry_oracle(n, l, "plus", strings[a], strings[b])
        assert abs(rho[a, b] - want) < 1e-12


def test_rdm_invariants():
    for n, l in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2)):
        for boundary in ("omega", "plus", "minus"):
            rho = reduced_density_matrix(n, l, boundary)
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_rdm_odd_n_boundary_independent():
    for n, l in ((3, 2), (3, 3), (5, 2)):
        r0 = reduced_density_matrix(n, l, "omega")
        assert np.abs(r0 - reduced_density_matrix(n, l, "plus")).max() < 1e-13
        assert np.abs(r0 - reduced_density_matrix(n, l, "minus")).max() < 1e-13


def test_rdm_states_equal_below_half_chain():
    rp, rm = reduced_density_matrix(6, 2, "plus"), reduced_density_matrix(6, 2, "minus")
    assert np.abs(rp - rm).max() < 1e-13
    ea, ca = rdm_frame(6, 2, "plus")
    eb, cb = rdm_frame(6, 2, "minus")
    assert frame_operator_distance(6, 2, ea, ca, eb, cb) < 1e-12


def test_rdm_cross_state_overlap_decays():
    # The two marginals never become exactly orthogonal: the identity-class
    # eigenvectors keep overlap (N_0 - N_n)/(N_0 + N_n), with N_k the number
    # of length-l generator strings multiplying to a grade-k monomial.
    # At n=4 the hand counts give Tr(rho+ rho-) = 1/256 (l=4), 1/4096 (l=6).
    rp, rm = reduced_density_matrix(4, 4, "plus"), reduced_density_matrix(4, 4, "minus")
    assert abs(np.trace(rp @ rm).real - 1.0 / 256.0) < 1e-13
    ea, ca = rdm_frame(4, 4, "plus")
    eb, cb = rdm_frame(4, 4, "minus")
    assert abs(frame_product_trace(4, 4, ea, ca, eb, cb) - 1.0 / 256.0) < 1e-13
    ea6, ca6 = rdm_frame(4, 6, "plus")
    eb6, cb6 = rdm_frame(4, 6, "minus")
    assert abs(frame_product_trace(4, 6, ea6, ca6, eb6, cb6) - 1.0 / 4096.0) < 1e-13


def test_rdm_omega_is_even_mixture():
    n, l = 4, 3
    mix = 0.5 * (reduced_density_matrix(n, l, "plus") + reduced_density_matrix(n, l, "minus"))
    assert np.abs(reduced_density_matrix(n, l, "omega") - mix).max() < 1e-13


def _class_reps(n):
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


def _rdm_eigen_by_grade_oracle(n, l, boundary):
    """Test oracle: the marginal spectrum by grade from Gram blocks and eigh.

    The library took this route before the closed form: the Gram of one
    frame element per class (per monomial for omega), one eigh per grade
    label, eigenvalues clustered to 1e-10.  It builds 2^(n-1) Clifford
    products and is kept only to cross-check the closed form (n <= 10).
    """
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
        c = 1.0 / D**2
    else:
        P_plus, P_minus = projectors_pm(n)
        P = P_plus if eff == "plus" else P_minus
        elems = [P * CliffordElement(n, {b: 1.0}) for b in reps]
        labels = [b.bit_count() for b in reps]
        c = 2.0 * 2.0 / D**2  # factor 2: each class has two members
    G = _gram_oracle(n, l, _stack(elems))
    keep = np.sqrt(np.abs(np.diag(G))) > 1e-12 * np.sqrt(np.abs(G).max())
    scale = np.abs(G).max() if G.size else 1.0
    out = []
    for grade in sorted(set(labels)):
        sel = np.array([lab == grade and keep[a] for a, lab in enumerate(labels)])
        if not sel.any():
            continue
        other = np.array([lab != grade for lab in labels])
        cross = G[np.ix_(sel, other)]
        assert not cross.size or np.abs(cross).max() <= 1e-9 * scale
        mus = np.linalg.eigvalsh(c * G[np.ix_(sel, sel)])
        for mu, mult in cluster_degeneracies(mus, tol=1e-10)[::-1]:
            if mu >= 1e-12:
                out.append((grade, mu, mult))
    return out


def test_rdm_eigen_by_grade_matches_gram_oracle():
    for n in range(2, 11):
        for l in range(1, 13):
            for boundary in BOUNDARIES:
                got = rdm_eigen_by_grade(n, l, boundary)
                want = _rdm_eigen_by_grade_oracle(n, l, boundary)
                assert [(g, m) for g, _, m in got] == [(g, m) for g, _, m in want], (n, l, boundary)
                dev = max(abs(a - b) for (_, a, _), (_, b, _) in zip(got, want))
                assert dev < 1e-12, (n, l, boundary, dev)


def test_rdm_eigen_by_grade_n4():
    out = rdm_eigen_by_grade(4, 4, "plus")
    assert [(grade, round(mu, 10), m) for grade, mu, m in out] == [(0, 0.25, 1), (2, 0.25, 3)]
    dense = np.linalg.eigvalsh(reduced_density_matrix(4, 4, "plus"))
    nonzero = dense[dense > 1e-12]
    assert np.abs(nonzero - 0.25).max() < 1e-12


def test_rdm_eigen_by_grade_matches_dense():
    for n, l, boundary in ((3, 2, "plus"), (3, 3, "plus"), (4, 3, "minus"), (4, 2, "omega")):
        out = rdm_eigen_by_grade(n, l, boundary)
        got = sorted(np.repeat([mu for _, mu, _ in out], [m for _, _, m in out]))
        dense = np.linalg.eigvalsh(reduced_density_matrix(n, l, boundary))
        want = sorted(dense[dense > 1e-11])
        assert len(got) == len(want)
        assert np.abs(np.array(got) - np.array(want)).max() < 1e-10
        assert abs(sum(mu * m for _, mu, m in out) - 1.0) < 1e-10


def test_rdm_eigen_grade_multiplicities():
    for n, l in ((4, 4), (6, 4), (6, 3)):
        out = rdm_eigen_by_grade(n, l, "plus")
        by_grade = {}
        for grade, _, m in out:
            by_grade[grade] = by_grade.get(grade, 0) + m
        for grade, m in by_grade.items():
            if 2 * grade < n:
                assert m == math.comb(n, grade)
            else:
                assert m == math.comb(n, grade) // 2


def test_rdm_eigen_by_grade_past_dense_kernel_range():
    # n = 10 is past the dense-kernel oracle's range (2^n x 2^n complex)
    n = 10
    for l in (3, 4):
        plus = rdm_eigen_by_grade(n, l, "plus")
        minus = rdm_eigen_by_grade(n, l, "minus")
        for out in (plus, minus):
            assert abs(sum(mu * m for _, mu, m in out) - 1.0) < 1e-10
            layout = [(grade, m) for grade, _, m in out]
            assert layout == [(grade, _expected_grade_mult(n, grade)) for grade in _expected_grades(n, l)]
        assert [(grade, m) for grade, _, m in plus] == [(grade, m) for grade, _, m in minus]
        assert max(abs(a - b) for (_, a, _), (_, b, _) in zip(plus, minus)) < 1e-10


def test_rdm_eigen_by_grade_has_no_length_limit():
    # n^l left the float range here before the weights were scaled by 1/n
    for l in (600, 601):
        for boundary in ("plus", "minus", "omega"):
            out = rdm_eigen_by_grade(4, l, boundary)
            assert abs(sum(mu * m for _, mu, m in out) - 1.0) < 1e-10


def test_rdm_eigen_by_grade_n10_values_unchanged_by_scaling():
    # recorded with the unscaled weights and the 1/n^l frame weight
    want = {
        8: [(0, 0.0068608, 1), (2, 0.00475904, 45), (4, 0.00370944, 210)],
        12: [(0, 0.00428889088, 1), (2, 0.004016789504, 45), (4, 0.003880740864, 210)],
    }
    for l, rows in want.items():
        for boundary in ("plus", "minus"):
            got = rdm_eigen_by_grade(10, l, boundary)
            assert [(g, m) for g, _, m in got] == [(g, m) for g, _, m in rows]
            assert max(abs(a - b) for (_, a, _), (_, b, _) in zip(got, rows)) < 1e-12


# --- structure of the family ----------------------------------------------


def _product_basis_oracle(n, bond_domain):
    """Oracle: a bond domain's basis as elements, P gamma_K by Clifford products.

    MpsFamily.basis built its P_+- domains this way before the closed-form
    columns of _domain_columns; kept only to cross-check them.
    """
    half = range(1 << (n - 1))
    if bond_domain == "full":
        return [CliffordElement(n, {b: 1.0}) for b in range(1 << n)]
    if bond_domain in ("even", "odd"):
        parity = bond_domain == "odd"
        return [CliffordElement(n, {b: 1.0}) for b in range(1 << n) if b.bit_count() % 2 == parity]
    P_plus, P_minus = projectors_pm(n)
    if bond_domain == "p_plus":
        return [P_plus * CliffordElement(n, {b: 1.0}) for b in half]
    P = P_plus if bond_domain == "p_plus_even" else P_minus
    return [P * CliffordElement(n, {b: 1.0}) for b in half if b.bit_count() % 2 == 0]


def _contains_oracle(fam, B, tol=1e-12):
    """Oracle: MpsFamily.contains by grade restriction and P B = B, as products."""
    scale = max(1.0, B.norm_max())
    n, dom = fam.n, fam.bond_domain
    if dom == "full":
        return True
    odd_part = B.restrict_grades(range(1, n + 1, 2)).norm_max() < tol * scale
    even_part = B.restrict_grades(range(0, n + 1, 2)).norm_max() < tol * scale
    if dom == "even":
        return odd_part
    if dom == "odd":
        return even_part
    P_plus, P_minus = projectors_pm(n)
    if dom == "p_plus":
        return (P_plus * B - B).norm_max() < tol * scale
    P = P_plus if dom == "p_plus_even" else P_minus
    return odd_part and (P * B - B).norm_max() < tol * scale


def _families(n):
    for dom in BOND_DOMAINS:
        try:
            yield MpsFamily(n, dom)
        except ValueError:
            continue


def test_domain_columns_match_the_product_basis():
    for n in range(2, 9):
        for fam in _families(n):
            want = _product_basis_oracle(n, fam.bond_domain)
            K, cols = _domain_columns(n, fam.bond_domain)
            assert cols.dtype == complex and cols.shape == (1 << n, fam.dim())
            assert np.array_equal(cols, _stack(want)), (n, fam.bond_domain)
            assert (cols[K, np.arange(len(K))] != 0).all()
            assert [B.coef for B in fam.basis()] == [B.coef for B in want]
            # disjoint supports: one nonzero column per row at most
            assert ((cols != 0).sum(axis=1) <= 1).all()


def test_contains_matches_the_product_oracle():
    rng = np.random.default_rng(41)
    for n in range(2, 8):
        fams = list(_families(n))
        for fam in fams:
            inside = []
            for _ in range(3):
                x = rng.normal(size=fam.dim()) + 1j * rng.normal(size=fam.dim())
                inside.append(element_from_coefvec(n, _domain_columns(n, fam.bond_domain)[1] @ x))
            for B in inside:
                assert fam.contains(B) and _contains_oracle(fam, B)
            # elements of the other domains, random elements and single monomials
            others = [B for other in fams for B in other.basis()[:4]]
            others += [rand_element(rng, n) for _ in range(4)]
            others += [CliffordElement(n, {b: 1.0}) for b in range(1 << n)]
            for B in others:
                assert fam.contains(B) == _contains_oracle(fam, B), (n, fam.bond_domain, B)
            assert not fam.contains(g(n + 1, 1))


@pytest.mark.parametrize("n, domains", (
    (15, ("full", "p_plus")),
    (16, ("full", "even", "odd", "p_plus_even", "p_minus_even")),
))
def test_contains_runs_at_large_n_without_dense_columns(monkeypatch, n, domains):
    # a dense (2^n, dim) column array would need 16 GiB here
    def refuse(*args):
        raise AssertionError("contains built the dense domain columns")

    monkeypatch.setattr(mps_module, "_projected_columns", refuse)
    P_plus, P_minus = projectors_pm(n)
    monomials = [g(n, 1), g(n, 1, 2), g(n, 2, 5, 9), g(n, *range(1, n))]
    samples = monomials + [P * B for P in (P_plus, P_minus) for B in monomials]
    samples.append(monomials[1] + 0.5 * monomials[2])
    for domain in domains:
        fam = MpsFamily(n, domain)
        got = [fam.contains(B) for B in samples]
        assert got == [_contains_oracle(fam, B) for B in samples], domain
        assert any(got) and (domain == "full" or not all(got)), domain


def test_alpha_signs_match_conjugation_by_gamma_1():
    for n in range(1, 11):
        want = [(-1) ** (b.bit_count() - (b & 1)) for b in range(1 << n)]
        assert alpha_signs(n).dtype == np.int8
        assert alpha_signs(n).tolist() == want
    for n in (2, 5):
        for b in range(1 << n):
            assert alpha(CliffordElement(n, {b: 1.0})).coef == {b: alpha_signs(n)[b]}


def test_psi_minus_is_psi_of_alpha():
    rng = np.random.default_rng(43)
    for n in (3, 4, 5, 6):
        for l in (1, 2, 3, 4):
            B = rand_element(rng, n)
            assert np.array_equal(psi_minus(n, l, B), _psi(n, l, coefvec(alpha(B))))


def test_injectivity_ranks():
    assert injectivity_rank(MpsFamily(4, "even"), 2) == (7, False)
    assert not injectivity_rank(MpsFamily(4, "even"), 3)[1]
    assert injectivity_rank(MpsFamily(4, "even"), 4) == (8, True)
    assert injectivity_rank(MpsFamily(4, "p_plus_even"), 4) == (4, True)
    assert injectivity_rank(MpsFamily(3, "p_plus"), 2) == (4, True)
    assert injectivity_rank(MpsFamily(4, "full"), 1) == (4, False)


def test_span_dim_is_the_rank_of_the_basis_states():
    # the exact count against the dense SVD rank, below and past the
    # injectivity length, on every bond domain
    for n, top in ((2, 8), (3, 7), (4, 6), (5, 5), (6, 5)):
        for domain in BOND_DOMAINS:
            try:
                fam = MpsFamily(n, domain)
            except ValueError:
                continue
            for l in range(1, top + 1):
                assert span_dim(fam, l) == injectivity_rank(fam, l)[0], (n, domain, l)


def test_grade_tables_match_bit_counts():
    for n in (0, 1, 5, 12):
        grades = [k.bit_count() for k in range(1 << n)]
        assert _grades(n).tolist() == grades
        assert _sq_signs(n).tolist() == [reversal_sign(k) for k in grades]


def test_bond_identities_under_conjugation_and_reversal():
    rng = np.random.default_rng(17)
    for n, l in ((3, 2), (4, 3)):
        B = rand_element(rng, n)
        v = psi_plus(n, l, B)
        assert np.abs(np.conj(v) - psi_plus(n, l, B.bar())).max() < 1e-12
        rev = v.reshape([n] * l).transpose(range(l - 1, -1, -1)).reshape(-1)
        assert np.abs(rev - psi_plus(n, l, transpose_antiauto(B))).max() < 1e-12


# --- correlations -----------------------------------------------------------


def test_two_point_decay_n6():
    n = 6
    S12 = np.zeros((n, n), dtype=complex)
    S12[0, 1], S12[1, 0] = 1.0j, -1.0j
    vals = [two_point_correlation(n, S12, S12, r, "plus") for r in range(2, 9)]
    assert abs(vals[0]) > 1e-4
    for a, b in zip(vals, vals[1:]):
        assert abs(b / a - 1.0 / 3.0) < 1e-10


def test_two_point_vanishing():
    n = 4
    S12 = np.zeros((n, n), dtype=complex)
    S12[0, 1], S12[1, 0] = 1.0j, -1.0j
    for r in range(1, 5):
        assert abs(two_point_correlation(n, S12, S12, r, "plus")) < 1e-13
    A = np.diag([1.0, -1.0, 0.0])
    for r in range(1, 4):
        assert abs(two_point_correlation(3, A, A, r, "plus")) < 1e-14


def _fcs_expectation_oracle(n, ops, boundary):
    """Oracle: fcs_expectation with one e_matrix per site, identities included.

    fcs_expectation took this route before identity sites became the E_1
    diagonal; it is kept only to cross-check that diagonal.
    """
    P_plus, P_minus = projectors_pm(n)
    v = coefvec({"omega": CliffordElement.one(n), "plus": P_plus, "minus": P_minus}[boundary])
    for A in reversed(ops):
        v = e_matrix(n, A) @ v
    return complex((1.0 if boundary == "omega" else 2.0) * v[0])


def test_identity_sites_are_the_e1_diagonal():
    for n in range(2, 9):
        want = np.array([transfer_eigenvalue(n, b.bit_count()) for b in range(1 << n)])
        assert np.abs(e_matrix(n, np.eye(n)) - np.diag(want)).max() < 1e-15
        assert np.array_equal(transfer_eigenvalue(n, _grades(n)), want)


def test_fcs_and_correlators_match_the_per_site_oracle():
    rng = np.random.default_rng(71)
    for n in range(3, 8):
        eye = np.eye(n)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        S = np.zeros((n, n), dtype=complex)
        S[0, 1], S[1, 0] = 1.0j, -1.0j
        chains = ([A, eye, eye, B], [eye, A, B, eye, A], [eye] * 3, [2.0 * eye, A], [S])
        for boundary in ("omega", "plus", "minus"):
            for ops in chains:
                got = fcs_expectation(n, ops, boundary)
                assert abs(got - _fcs_expectation_oracle(n, ops, boundary)) < 1e-13
            for X, Y in ((S, S), (A, B)):
                for r in range(4):
                    joint = _fcs_expectation_oracle(n, [X] + [eye] * r + [Y], boundary)
                    left = _fcs_expectation_oracle(n, [X] + [eye] * (r + 1), boundary)
                    right = _fcs_expectation_oracle(n, [eye] * (r + 1) + [Y], boundary)
                    want = joint - left * right
                    assert abs(two_point_correlation(n, X, Y, r, boundary) - want) < 1e-13
