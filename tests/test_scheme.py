"""Key generation, encryption, decryption, and the membership oracles.

The substitution oracle here re-evaluates the full raw constraint system
(tensor rows included) entry by entry, independent of the collapsed
system behind the key generator's closed-form decryption vector; that
closed form is also checked against the canonical solution of the
collapsed system.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codehom.errors import ParameterError, UsageError
from codehom.field import FieldElement, FieldSpec, random_distinct, random_elements
from codehom.linalg import (
    dot_arrays,
    rank_batch,
    solve_canonical_array,
)
from codehom.scheme import (
    Params,
    PublicKey,
    SecretKey,
    _decryption_support_vector,
    decrypt,
    decrypt_batch,
    dec_membership_batch,
    dec_space_contains,
    enc_membership_batch,
    enc_space_contains,
    encrypt,
    encrypt_batch,
    keygen,
    noise_array,
    params_from_alpha,
)

from gf_refs import ref_powers
from oracles import tensor_row_array

F16 = FieldSpec(16)

P_SMALL = Params(n=48, r=12, s=6, field=F16, eta=0.01)
# P_SMALL without noise; the keys are the same, since keygen never reads eta
P_QUIET = replace(P_SMALL, eta=0.0)


def make_keys(seed=0, p=P_SMALL):
    return keygen(p, np.random.default_rng(seed))


def raw_constraint_residuals(sk):
    """Substitution into the uncollapsed system: r^2 tensor equations,
    r linear equations, one affine equation. Returns max residual."""
    spec = sk.params.field
    y = sk.y_dec
    M = sk.M
    n, r = M.shape
    tensor_acc = np.zeros(r * r, dtype=spec.dtype)
    lin_acc = np.zeros(r, dtype=spec.dtype)
    aff_acc = 0
    for i in range(n):
        if y[i] == 0:
            continue
        yi = FieldElement(spec, int(y[i]))
        row = M[i]
        ti = tensor_row_array(spec, row)
        tensor_acc ^= np.array(
            [(yi * FieldElement(spec, int(v))).value for v in ti], dtype=spec.dtype
        )
        lin_acc ^= np.array(
            [(yi * FieldElement(spec, int(v))).value for v in row], dtype=spec.dtype
        )
        aff_acc ^= yi.value
    residual = int(tensor_acc.max(initial=0)) + int(lin_acc.max(initial=0))
    return residual, aff_acc


# --- params --------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ParameterError):
        Params(n=48, r=12, s=5, field=F16, eta=0.0)  # s not multiple of 3
    with pytest.raises(ParameterError):
        Params(n=48, r=12, s=0, field=F16, eta=0.0)
    with pytest.raises(ParameterError):
        Params(n=48, r=4, s=6, field=F16, eta=0.0)  # r < s
    with pytest.raises(ParameterError):
        Params(n=100, r=12, s=6, field=FieldSpec(4), eta=0.0)  # q < n
    with pytest.raises(ParameterError):
        Params(n=48, r=12, s=6, field=F16, eta=1.5)
    with pytest.raises(ParameterError):
        Params(n=48, r=12, s=6, field=F16, eta=-0.1)


def test_params_from_alpha_frozen():
    p = params_from_alpha(4096, 0.25)
    assert p.r == 3158
    assert p.s == 3
    assert p.eta == pytest.approx(4.105939527606028e-4)
    assert p.field.q >= 4096  # degree bumped past ceil(n^alpha) = 8
    assert p.field.k == 16


def test_params_from_alpha_clamps_s():
    # n^(alpha/4) < 3 for any desk-scale n at alpha = 1/4
    for n in (256, 1024, 65536):
        assert params_from_alpha(n, 0.25).s == 3


def test_params_from_alpha_eta_s_below_one():
    for n in (2**8, 2**10, 2**12, 2**14, 2**16):
        for alpha in (0.125, 0.25):
            p = params_from_alpha(n, alpha)
            assert p.eta * p.s < 1, (n, alpha)


def test_params_from_alpha_rejects_bad_alpha():
    with pytest.raises(ParameterError):
        params_from_alpha(4096, 0.3)
    with pytest.raises(ParameterError):
        params_from_alpha(4096, 0.0)


# --- keygen --------------------------------------------------------------------


def test_keygen_matrix_shape():
    pk, sk = make_keys(1)
    M = sk.M
    s3 = P_SMALL.s // 3
    a = sk.a
    assert len(set(a.tolist())) == P_SMALL.n
    for i in range(P_SMALL.n):
        expect = a[i]
        for j in range(P_SMALL.r):
            if i in sk.S and j >= s3:
                assert M[i, j] == 0
            else:
                assert M[i, j] == expect
                expect = (
                    FieldElement(F16, int(expect)) * FieldElement(F16, int(a[i]))
                ).value


def test_keygen_rank_preserved():
    pk, sk = make_keys(2)
    assert rank_batch(F16, pk.P[None])[0] == rank_batch(F16, sk.M[None])[0]


def test_y_dec_satisfies_raw_system():
    for seed in range(5):
        _, sk = make_keys(seed)
        residual, affine = raw_constraint_residuals(sk)
        assert residual == 0
        assert affine == 1


def check_closed_form_y(k, s, zero_at, seed):
    # The collapsed system, built from naive powers: sum_i y_i x_i^t = 0 for
    # t = 1..2s/3 and sum_i y_i = 1, over s distinct points, 0 among them
    # when zero_at is set.
    spec = FieldSpec(k)
    x = random_distinct(spec, np.random.default_rng(seed), s)
    if zero_at is not None:
        zero_at %= s
        x[x == 0] = x[zero_at]
        x[zero_at] = 0
    d = 2 * s // 3
    powers = [ref_powers(int(v), d, spec.modulus) for v in x]
    A = np.array([[row[t] for row in powers] for t in range(d)] + [[1] * s], dtype=spec.dtype)
    b = np.zeros(d + 1, dtype=spec.dtype)
    b[-1] = 1
    want = solve_canonical_array(spec, A, b)
    assert want is not None
    got = _decryption_support_vector(spec, x, s)
    assert got.dtype == spec.dtype
    assert got.tolist() == want.tolist()


CLOSED_FORM_CASES = dict(
    s=st.sampled_from([3, 6, 9, 12, 15]),
    zero_at=st.one_of(st.none(), st.integers(0, 14)),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([4, 8, 16]), **CLOSED_FORM_CASES)
def test_closed_form_y_is_the_canonical_solution(k, s, zero_at, seed):
    check_closed_form_y(k, s, zero_at, seed)


@settings(max_examples=6, deadline=None)
@given(k=st.sampled_from([32, 64]), **CLOSED_FORM_CASES)
def test_closed_form_y_is_the_canonical_solution_wide_fields(k, s, zero_at, seed):
    # Above k = 16 every pivot of the oracle's elimination inverts through
    # a power chain of about 2k products, so fewer examples.
    check_closed_form_y(k, s, zero_at, seed)


def test_y_dec_support():
    _, sk = make_keys(3)
    y = sk.y_dec
    support = set(np.nonzero(y)[0].tolist())
    assert support <= set(sk.S)


def test_keygen_deterministic():
    pk1, sk1 = make_keys(7)
    pk2, sk2 = make_keys(7)
    assert np.array_equal(pk1.P, pk2.P)
    assert sk1.S == sk2.S
    assert np.array_equal(sk1.y_dec, sk2.y_dec)


# --- noise ---------------------------------------------------------------------


def test_noise_extremes():
    p0 = Params(n=48, r=12, s=6, field=F16, eta=0.0)
    p1 = Params(n=48, r=12, s=6, field=F16, eta=1.0)
    rng = np.random.default_rng(0)
    assert not noise_array(p0, rng, p0.n).any()
    assert noise_array(p1, rng, p1.n).all()


def test_noise_rate_within_3_sigma():
    p = Params(n=48, r=12, s=6, field=F16, eta=0.07)
    rng = np.random.default_rng(8)
    draws = noise_array(p, rng, 100_000)
    rate = np.count_nonzero(draws) / draws.size
    sigma = np.sqrt(0.07 * 0.93 / draws.size)
    assert abs(rate - 0.07) < 3 * sigma


# --- encrypt / decrypt ---------------------------------------------------------


def test_encrypt_batch_is_px_plus_m():
    # Noiseless, each row is Px + m*1 for the x drawn first from rng; a zero
    # P leaves exactly m*1.
    pk, sk = make_keys(10, P_QUIET)
    ms = np.array([0x1234, 0, 7], dtype=F16.dtype)
    C = encrypt_batch(pk, ms, np.random.default_rng(10))
    X = random_elements(F16, np.random.default_rng(10), (3, P_SMALL.r))
    assert np.array_equal(C, dot_arrays(F16, pk.P, X[:, None, :]) ^ ms[:, None])
    zero_pk = PublicKey(np.zeros_like(pk.P), P_QUIET)
    C = encrypt_batch(zero_pk, ms, np.random.default_rng(10))
    assert C.tolist() == [[int(m)] * P_SMALL.n for m in ms]


def test_noiseless_decryption_is_exact():
    pk, sk = make_keys(11, P_QUIET)
    rng = np.random.default_rng(11)
    ms = random_elements(F16, rng, 200)
    assert np.array_equal(decrypt_batch(sk, encrypt_batch(pk, ms, rng)), ms)


def test_decrypt_all_m_vector():
    _, sk = make_keys(12)
    m = FieldElement(F16, 777)
    c = np.full(P_SMALL.n, m.value, dtype=F16.dtype)
    assert decrypt(sk, c).value == m.value


def test_decrypt_linear():
    pk, sk = make_keys(13)
    rng = np.random.default_rng(13)
    c1 = encrypt(pk, FieldElement(F16, 3), rng)
    c2 = encrypt(pk, FieldElement(F16, 9), rng)
    lhs = decrypt(sk, c1 ^ c2)
    assert lhs.value == (decrypt(sk, c1) + decrypt(sk, c2)).value


def test_decryption_failure_rate_bounded():
    # failure only if noise hits S; rate <= eta*s
    p = Params(n=48, r=12, s=6, field=F16, eta=0.03)
    pk, sk = keygen(p, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    trials = 20_000
    ms = random_elements(F16, rng, trials)
    C = encrypt_batch(pk, ms, rng)
    fail = np.count_nonzero(decrypt_batch(sk, C) != ms) / trials
    bound = p.eta * p.s  # 0.18
    sigma = np.sqrt(bound * (1 - bound) / trials)
    assert fail <= bound + 3 * sigma


def test_encrypt_batch_matches_single():
    pk, sk = make_keys(16)
    rng1 = np.random.default_rng(17)
    C = encrypt_batch(pk, np.array([5, 6], dtype=F16.dtype), rng1)
    assert C.shape == (2, P_SMALL.n)
    assert decrypt_batch(sk, C).tolist() == [5, 6]  # eta small; overwhelmingly exact


def test_encrypt_dimension_errors():
    pk, _ = make_keys(18)
    with pytest.raises(UsageError):
        encrypt(pk, FieldElement(FieldSpec(8), 1), np.random.default_rng(18))


@settings(max_examples=40, deadline=None)
@given(
    k=st.sampled_from([4, 8, 16, 32, 64]),
    eta=st.sampled_from([0.0, 0.3]),
    m=st.integers(0, 2**64 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_scalar_path_is_one_row_batch(k, eta, m, seed):
    spec = FieldSpec(k)
    m %= spec.q
    p = Params(n=12, r=6, s=3, field=spec, eta=eta)
    pk, sk = keygen(p, np.random.default_rng(seed))
    rng, rng2 = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    c = encrypt(pk, FieldElement(spec, m), rng)
    row = encrypt_batch(pk, [m], rng2)[0]
    assert np.array_equal(c, row)
    assert rng.bit_generator.state == rng2.bit_generator.state
    assert decrypt(sk, c).value == int(decrypt_batch(sk, row[None, :])[0])


# --- membership ----------------------------------------------------------------


def test_all_m_vector_in_enc_space():
    _, sk = make_keys(20)
    m = FieldElement(F16, 42)
    c = np.full(P_SMALL.n, m.value, dtype=F16.dtype)
    assert enc_space_contains(sk, m, c)
    assert dec_space_contains(sk, m, c)


def test_enc_subset_of_dec():
    p = Params(n=48, r=12, s=6, field=F16, eta=0.0)
    pk, sk = keygen(p, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    ms = random_elements(F16, rng, 1000)
    C = encrypt_batch(pk, ms, rng)
    enc_in = enc_membership_batch(sk, ms, C)
    dec_in = dec_membership_batch(sk, ms, C)
    assert enc_in.all()
    assert dec_in[enc_in].all()


def test_noiseless_encrypt_always_member():
    p = Params(n=48, r=12, s=6, field=F16, eta=0.0)
    pk, sk = keygen(p, np.random.default_rng(23))
    rng = np.random.default_rng(24)
    c = encrypt(pk, FieldElement(F16, 99), rng)
    assert enc_space_contains(sk, FieldElement(F16, 99), c)
    assert not enc_space_contains(sk, FieldElement(F16, 98), c)


def test_corrupting_s_coordinate_breaks_membership():
    p = Params(n=48, r=12, s=6, field=F16, eta=0.0)
    pk, sk = keygen(p, np.random.default_rng(25))
    rng = np.random.default_rng(26)
    broke = 0
    trials = 300
    for _ in range(trials):
        m = FieldElement(F16, int(rng.integers(F16.q)))
        c = encrypt(pk, m, rng)
        i = sk.S[int(rng.integers(p.s))]
        c[i] ^= int(rng.integers(1, F16.q))
        if not enc_membership_batch(sk, np.array([m.value], dtype=F16.dtype), c[None, :])[0]:
            broke += 1
    # rank coincidences are rare; the corruption should almost always show
    assert broke >= trials * 0.9


def test_encryption_error_rate_bound():
    # encrypt lands outside Enc(m) exactly when noise hits S
    p = Params(n=48, r=12, s=6, field=F16, eta=0.05)
    pk, sk = keygen(p, np.random.default_rng(27))
    rng = np.random.default_rng(28)
    trials = 5000
    ms = random_elements(F16, rng, trials)
    C = encrypt_batch(pk, ms, rng)
    outside = 1.0 - np.count_nonzero(enc_membership_batch(sk, ms, C)) / trials
    bound = p.eta * p.s  # union bound, 0.3
    sigma = np.sqrt(bound * (1 - bound) / trials)
    assert outside <= bound + 3 * sigma


@settings(max_examples=30, deadline=None)
@given(m1=st.integers(0, F16.q - 1), m2=st.integers(0, F16.q - 1), seed=st.integers(0, 2**20))
def test_dec_spaces_partition(m1, m2, seed):
    _, sk = make_keys(30)
    rng = np.random.default_rng(seed)
    c = random_elements(F16, rng, P_SMALL.n)
    got = decrypt(sk, c).value
    assert dec_space_contains(sk, FieldElement(F16, m1), c) == (m1 == got)
    assert dec_space_contains(sk, FieldElement(F16, m2), c) == (m2 == got)
