import numpy as np
import pytest

from cliffchain import clifford
from cliffchain.clifford import (
    CliffordElement,
    MatrixRealization,
    _merge_sign,
    _monomial_stack,
    _pair_products,
    _parity,
    _sign_left,
    _sign_right,
    _suffix_parity,
    alpha,
    dist,
    gamma0,
    matrix_rep,
    projectors_pm,
    realize,
    realized_dim,
    reversal_sign,
    trace,
    transpose_antiauto,
)


def g(n, *idx):
    return CliffordElement.gamma(n, *idx)


def rand_element(rng, n, nterms=6):
    coef = {}
    for _ in range(nterms):
        bits = int(rng.integers(0, 1 << n))
        coef[bits] = coef.get(bits, 0.0) + complex(rng.normal(), rng.normal())
    return CliffordElement(n, coef)


def _merge_sign_oracle(ibits, jbits):
    """Oracle: sign of gamma_I gamma_J by walking the generators of J.

    Each j in J moves left past the generators of I above it.  This was the
    library's routine before the suffix-parity word; it is kept only to
    cross-check that word.
    """
    s = 0
    rest = jbits
    while rest:
        j = rest & -rest
        s += (ibits >> j.bit_length()).bit_count()
        rest ^= j
    return -1 if s & 1 else 1


def _array_merge_sign(I, J):
    return 1 - 2 * _parity(_suffix_parity(I) & J).astype(np.int64)


def test_merge_sign_matches_bit_walk_oracle_on_every_pair_up_to_n8():
    masks = range(1 << 8)
    want = np.array([[_merge_sign_oracle(i, j) for j in masks] for i in masks])
    got = np.array([[_merge_sign(i, j) for j in masks] for i in masks])
    assert np.array_equal(got, want)
    idx = np.arange(1 << 8, dtype=np.uint32)
    assert np.array_equal(_array_merge_sign(idx[:, None], idx[None, :]), want)


def test_merge_sign_matches_bit_walk_oracle_on_random_pairs_at_n16():
    rng = np.random.default_rng(16)
    I = rng.integers(0, 1 << 16, size=100_000, dtype=np.uint32)
    J = rng.integers(0, 1 << 16, size=100_000, dtype=np.uint32)
    want = np.array([_merge_sign_oracle(i, j) for i, j in zip(I.tolist(), J.tolist())])
    got = np.array([_merge_sign(i, j) for i, j in zip(I.tolist(), J.tolist())])
    assert np.array_equal(got, want)
    assert np.array_equal(_array_merge_sign(I, J), want)
    words = _suffix_parity(I)
    assert words.dtype == np.uint32
    assert words.tolist() == [_suffix_parity(i) for i in I.tolist()]


def test_generator_signs_are_the_merge_sign():
    K = np.arange(1 << 9, dtype=np.uint32)
    for g in range(9):
        left = [_merge_sign(1 << g, k) for k in K.tolist()]
        right = [_merge_sign(k, 1 << g) for k in K.tolist()]
        assert _sign_left(g, K).tolist() == left
        assert _sign_right(g, K).tolist() == right


def test_gamma_mul_basic_example():
    # gamma_12 gamma_13 = -gamma_23
    assert _merge_sign(0b011, 0b101) == -1
    assert dist(g(4, 1, 2) * g(4, 1, 3), -g(4, 2, 3)) == 0.0
    with pytest.raises(ValueError):
        g(4, 1, 1)
    with pytest.raises(ValueError):
        g(4, 5)


def test_gamma_takes_the_product_in_the_order_given():
    assert dist(g(4, 2, 1), g(4, 2) * g(4, 1)) == 0.0
    assert dist(g(4, 2, 1), -g(4, 1, 2)) == 0.0
    assert dist(g(4, 3, 1, 2), g(4, 3) * g(4, 1) * g(4, 2)) == 0.0
    assert dist(g(4, 3, 1, 2), g(4, 1, 2, 3)) == 0.0
    with pytest.raises(ValueError):
        g(4, 2, 1, 2)


def test_gamma_mul_squares():
    for n in range(2, 9):
        for bits in range(1 << n):
            assert _merge_sign(bits, bits) == reversal_sign(bits.bit_count())


def test_anticommutation_exact():
    for n in range(2, 11):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acomm = g(n, i) * g(n, j) + g(n, j) * g(n, i)
                expected = CliffordElement.one(n, 2.0 if i == j else 0.0)
                assert dist(acomm, expected) == 0.0


def test_associativity_random_triples():
    rng = np.random.default_rng(7)
    for n in (3, 5, 8, 10):
        for _ in range(20):
            A, B, C = (rand_element(rng, n) for _ in range(3))
            assert dist((A * B) * C, A * (B * C)) < 1e-11


def test_trace_pair_values():
    # Tr(gamma_I gamma_J) is zero unless I = J, else +-D by grade mod 4
    assert trace(g(4, 1, 2) * g(4, 1, 2)) == -4.0
    assert trace(g(4, 1, 2) * g(4, 1, 3)) == 0.0
    assert trace(CliffordElement.one(4) * CliffordElement.one(4)) == 4.0
    assert realized_dim(5) == 4
    assert realized_dim(6) == 8


def test_trace_of_transpose_matches():
    rng = np.random.default_rng(3)
    for n in (3, 4, 6):
        for _ in range(10):
            B = rand_element(rng, n)
            assert abs(trace(transpose_antiauto(B)) - trace(B)) < 1e-12


def test_transpose_antiautomorphism():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        for _ in range(10):
            A, B = rand_element(rng, n), rand_element(rng, n)
            lhs = transpose_antiauto(A * B)
            rhs = transpose_antiauto(B) * transpose_antiauto(A)
            assert dist(lhs, rhs) < 1e-11
    assert dist(transpose_antiauto(g(4, 1, 2)), -g(4, 1, 2)) == 0.0
    assert dist(transpose_antiauto(CliffordElement.one(4)), CliffordElement.one(4)) == 0.0


def test_transpose_of_top_monomial_by_rank():
    # t(gamma0) = +gamma0 for n = 0,1 mod 4 and -gamma0 for n = 2,3 mod 4
    assert dist(transpose_antiauto(gamma0(4)), gamma0(4)) == 0.0
    assert dist(transpose_antiauto(gamma0(6)), -gamma0(6)) == 0.0
    assert dist(transpose_antiauto(gamma0(5)), gamma0(5)) == 0.0
    assert dist(transpose_antiauto(gamma0(7)), -gamma0(7)) == 0.0


def test_gamma0_square_and_projectors():
    for n in range(2, 10):
        g0 = gamma0(n)
        assert dist(g0 * g0, CliffordElement.one(n)) < 1e-14
        P, M = projectors_pm(n)
        assert dist(P * P, P) < 1e-14
        assert dist(M * M, M) < 1e-14
        assert dist(P * M, CliffordElement.zero(n)) < 1e-14
        assert dist(P + M, CliffordElement.one(n)) < 1e-14
        # gamma0 is central for odd n, anticommutes with each gamma_i for even n
        got = g(n, 1) * g0
        want = g0 * g(n, 1) if n % 2 else -(g0 * g(n, 1))
        assert dist(got, want) < 1e-14


def test_hodge_star_grade_exchange():
    # the Hodge star is left multiplication by gamma0
    for n in (4, 5, 6, 8):
        for bits in range(1 << n):
            B = CliffordElement(n, {bits: 1.0})
            s = gamma0(n) * B
            (k,) = s.grades()
            assert k == n - bits.bit_count()
        P, M = projectors_pm(n)
        for bits in range(1 << n):
            if bits.bit_count() > n / 2:
                continue
            B = CliffordElement(n, {bits: 1.0})
            plus = B + gamma0(n) * B
            minus = B - gamma0(n) * B
            assert dist(P * plus, plus) < 1e-12
            assert dist(M * plus, CliffordElement.zero(n)) < 1e-12
            assert dist(P * minus, CliffordElement.zero(n)) < 1e-12
            assert dist(M * minus, minus) < 1e-12


def test_alpha_involution_and_action():
    n = 5
    assert dist(alpha(g(n, 1)), g(n, 1)) == 0.0
    assert dist(alpha(g(n, 2)), -g(n, 2)) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        B = rand_element(rng, n)
        assert dist(alpha(alpha(B)), B) < 1e-12


def test_star_is_bar_of_transpose():
    rng = np.random.default_rng(9)
    for n in (3, 4, 6):
        B = rand_element(rng, n)
        assert dist(B.star(), transpose_antiauto(B).bar()) < 1e-13


# ---------------------------------------------------------------------------
# matrix realization oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 10))
def test_realization_relations(n):
    rep = matrix_rep(n)
    assert matrix_rep(n) is rep
    assert len(rep.gammas) == n
    eye = np.eye(rep.dim)
    for i in range(n):
        gi = rep.gammas[i]
        assert not gi.flags.writeable
        assert np.abs(gi - gi.conj().T).max() < 1e-12
        for j in range(n):
            res = gi @ rep.gammas[j] + rep.gammas[j] @ gi - 2 * (i == j) * eye
            assert np.abs(res).max() < 1e-12


@pytest.mark.parametrize("n", (3, 5, 7, 9))
def test_odd_rank_realizes_plus_sector(n):
    rep = matrix_rep(n)
    img = realize(gamma0(n), rep)
    assert np.abs(img - np.eye(rep.dim)).max() < 1e-12


def test_realize_identity_and_projector():
    for n in (4, 6):
        rep = matrix_rep(n)
        assert np.abs(realize(CliffordElement.one(n), rep) - np.eye(rep.dim)).max() == 0.0
        P, _ = projectors_pm(n)
        PM = realize(P, rep)
        assert np.abs(PM @ PM - PM).max() < 1e-12
        assert abs(np.trace(PM) - rep.dim / 2) < 1e-12


def test_trace_pair_against_matrix_trace():
    rng = np.random.default_rng(17)
    for n in range(4, 9):
        rep = matrix_rep(n)
        for _ in range(40):
            bi = int(rng.integers(0, 1 << n))
            bj = int(rng.integers(0, 1 << n))
            # odd n: gamma0 -> 1 aliases dual monomials, skip the aliased pairs
            if n % 2 == 1 and (bi ^ bj) == (1 << n) - 1:
                continue
            mat = np.trace(rep.monomial(bi) @ rep.monomial(bj))
            pair = CliffordElement(n, {bi: 1.0}) * CliffordElement(n, {bj: 1.0})
            assert abs(trace(pair) - mat) < 1e-10 * rep.dim


def test_realize_homomorphism_random_pairs():
    rng = np.random.default_rng(23)
    for n in range(4, 9):
        rep = matrix_rep(n)
        for _ in range(30):
            A, B = rand_element(rng, n), rand_element(rng, n)
            lhs = realize(A * B, rep)
            rhs = realize(A, rep) @ realize(B, rep)
            scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0)
            assert np.abs(lhs - rhs).max() < 1e-10 * scale


def test_realize_star_is_adjoint():
    rng = np.random.default_rng(29)
    for n in (4, 5, 6):
        rep = matrix_rep(n)
        B = rand_element(rng, n)
        assert np.abs(realize(B.star(), rep) - realize(B, rep).conj().T).max() < 1e-11


def test_monomial_images_equal_ascending_products_and_are_read_only():
    for n in range(2, 9):
        rep = matrix_rep(n)
        for bits in range(1 << n):
            want = np.eye(rep.dim, dtype=complex)
            for i in range(n):
                if bits >> i & 1:
                    want = want @ rep.gammas[i]
            img = rep.monomial(bits)
            assert np.array_equal(img, want)
            assert not img.flags.writeable
            assert rep.monomial(bits) is img  # kept per realization


def _dense_row(B):
    row = np.zeros(1 << B.n, dtype=complex)
    for b, c in B.coef.items():
        row[b] = c
    return row


def _element(n, masks, coefs):
    """The element sum_k coefs[k] gamma_{masks[k]}; repeated masks add."""
    coef = {}
    for b, c in zip(masks.tolist(), coefs.tolist()):
        coef[b] = coef.get(b, 0.0) + c
    return CliffordElement(n, coef)


def _assert_pair_products_match_mul(n, ia, ca, ib, cb):
    got = _pair_products(ia, ca, ib, cb, n)
    assert got.shape == (len(ia), 1 << n)
    for s in range(len(ia)):
        want = _dense_row(_element(n, ia[s], ca[s]) * _element(n, ib[s], cb[s]))
        assert np.abs(got[s] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _random_terms(rng, n, samples, terms, distinct=True):
    size = 1 << n
    if distinct:
        masks = np.argsort(rng.random((samples, size)), axis=1)[:, :terms]
    else:
        masks = rng.integers(0, size, size=(samples, terms))
    coefs = rng.standard_normal((samples, terms)) + 1j * rng.standard_normal((samples, terms))
    return masks, coefs


@pytest.mark.parametrize("n", range(2, 11))
def test_pair_products_match_mul(n):
    rng = np.random.default_rng(100 + n)
    terms = min(1 << n, 12)
    ia, ca = _random_terms(rng, n, 20, terms)
    ib, cb = _random_terms(rng, n, 20, terms)
    _assert_pair_products_match_mul(n, ia, ca, ib, cb)
    # one-term factors on either side, and factors of different lengths
    ja, da = _random_terms(rng, n, 10, 1)
    jb, db = _random_terms(rng, n, 10, 5, distinct=False)
    _assert_pair_products_match_mul(n, ja, da, jb, db)
    _assert_pair_products_match_mul(n, jb, db, ja, da)
    # repeated monomials within a row add before the product
    ra, rca = _random_terms(rng, n, 10, 8, distinct=False)
    ra[:, 1] = ra[:, 0]
    _assert_pair_products_match_mul(n, ra, rca, ib[:10], cb[:10])


def test_pair_products_match_mul_on_sparse_pairs_at_n16():
    rng = np.random.default_rng(216)
    ia, ca = _random_terms(rng, 16, 4, 6, distinct=False)
    ib, cb = _random_terms(rng, 16, 4, 6, distinct=False)
    ia[0, 2] = ia[0, 0]
    _assert_pair_products_match_mul(16, ia, ca, ib, cb)
    top = np.array([[(1 << 16) - 1]])
    _assert_pair_products_match_mul(16, top, np.ones((1, 1)), top, np.ones((1, 1)))


@pytest.mark.parametrize("n", range(2, 11))
def test_monomial_stack_realizes_like_realize(n):
    rep = matrix_rep(n)
    stack = _monomial_stack(rep)
    assert stack.shape == (1 << n, rep.dim, rep.dim)
    flat = stack.reshape(1 << n, rep.dim**2)
    rng = np.random.default_rng(300 + n)
    masks, coefs = _random_terms(rng, n, 8, min(1 << n, 12), distinct=False)
    for m, c in zip(masks, coefs):
        B = _element(n, m, c)
        got = (_dense_row(B) @ flat).reshape(rep.dim, rep.dim)
        assert np.abs(got - realize(B, rep)).max() <= 1e-12 * max(1.0, np.abs(got).max())


def test_monomial_stack_uses_no_sign_code(monkeypatch):
    def refuse(*args):
        raise AssertionError("sign code reached from the realization")

    for name in ("_suffix_parity", "_parity", "_merge_sign"):
        monkeypatch.setattr(clifford, name, refuse)
    for n in (2, 5, 8):
        rep = matrix_rep(n)
        # a fresh realization, so that no image comes from the cache
        fresh = MatrixRealization(n, rep.dim, rep.gammas)
        stack = _monomial_stack(fresh)
        for bits in range(1 << n):
            assert np.array_equal(stack[bits], rep.monomial(bits))


def test_parity_table_counts_bits():
    words = np.array([0, 1, 3, 0xFFFF, 0x8001, 0x12345678, 0xFFFFFFFF], dtype=np.uint32)
    assert _parity(words).tolist() == [bin(int(x)).count("1") & 1 for x in words]
    assert _parity(np.arange(1 << 16, dtype=np.uint32)).tolist() == [
        bin(i).count("1") & 1 for i in range(1 << 16)
    ]
