"""Pointwise operations on ciphertext rows and their exact homomorphism boundaries.

A sum is c ^ d, a product mul_arrays(spec, c, d), a scalar multiple
mul_arrays(spec, c, gamma), and the trivial encryption of m the constant
row m*1.
"""

import numpy as np
import pytest

from codehom.field import FieldElement, FieldSpec, mul_arrays, random_elements
from codehom.scheme import (
    Params,
    decrypt,
    dec_membership_batch,
    enc_membership_batch,
    enc_space_contains,
    encrypt,
    encrypt_batch,
    keygen,
)

F16 = FieldSpec(16)
P0 = Params(n=48, r=12, s=6, field=F16, eta=0.0)  # noiseless: members are exact


@pytest.fixture(scope="module")
def keys():
    return keygen(P0, np.random.default_rng(0))


def fe(v):
    return FieldElement(F16, v)


def const_row(m):
    return np.full(P0.n, m, dtype=F16.dtype)


def test_add_self_cancels(keys):
    pk, _ = keys
    c = encrypt(pk, fe(99), np.random.default_rng(1))
    assert not (c ^ c).any()


def test_add_constants(keys):
    out = const_row(3) ^ const_row(5)
    assert out.tolist() == [3 ^ 5] * P0.n


def test_add_stays_in_enc_space(keys):
    pk, sk = keys
    rng = np.random.default_rng(2)
    m1 = random_elements(F16, rng, 1000)
    m2 = random_elements(F16, rng, 1000)
    C1 = encrypt_batch(pk, m1, rng)
    C2 = encrypt_batch(pk, m2, rng)
    assert enc_membership_batch(sk, m1 ^ m2, C1 ^ C2).all()


def test_mul_identity_and_zero(keys):
    pk, sk = keys
    c = encrypt(pk, fe(1234), np.random.default_rng(3))
    assert np.array_equal(mul_arrays(F16, c, const_row(1)), c)
    out = mul_arrays(F16, c, const_row(0))
    assert not out.any()
    assert decrypt(sk, out).value == 0


def test_mul_decrypts_to_product(keys):
    pk, sk = keys
    rng = np.random.default_rng(4)
    m1 = random_elements(F16, rng, 1000)
    m2 = random_elements(F16, rng, 1000)
    C1 = encrypt_batch(pk, m1, rng)
    C2 = encrypt_batch(pk, m2, rng)
    prod = mul_arrays(F16, C1, C2)
    assert dec_membership_batch(sk, mul_arrays(F16, m1, m2), prod).all()


def test_mul_leaves_enc_space(keys):
    # the recorded witness motivating reencryption: the product decrypts
    # correctly yet is not a valid fresh encryption
    pk, sk = keys
    rng = np.random.default_rng(100)
    m1, m2 = (fe(int(v)) for v in rng.integers(1, F16.q, 2))
    c = mul_arrays(F16, encrypt(pk, m1, rng), encrypt(pk, m2, rng))
    assert decrypt(sk, c).value == (m1 * m2).value
    assert not enc_space_contains(sk, m1 * m2, c)


def test_one_layer_depth_limit(keys):
    # sums of products still decrypt; products of products do not
    pk, sk = keys
    rng = np.random.default_rng(5)
    ok_sum = 0
    ok_double = 0
    trials = 100
    for _ in range(trials):
        ms = [fe(int(v)) for v in rng.integers(1, F16.q, 4)]
        cs = [encrypt(pk, m, rng) for m in ms]
        p1, p2 = mul_arrays(F16, cs[0], cs[1]), mul_arrays(F16, cs[2], cs[3])
        want_sum = ms[0] * ms[1] + ms[2] * ms[3]
        ok_sum += decrypt(sk, p1 ^ p2).value == want_sum.value
        want_prod = ms[0] * ms[1] * ms[2] * ms[3]
        ok_double += decrypt(sk, mul_arrays(F16, p1, p2)).value == want_prod.value
    assert ok_sum == trials
    assert ok_double <= trials // 2  # generically wrong; coincidences only


def test_scale_identities(keys):
    pk, _ = keys
    c = encrypt(pk, fe(77), np.random.default_rng(6))
    assert np.array_equal(mul_arrays(F16, c, F16.dtype(1)), c)
    assert not mul_arrays(F16, c, F16.dtype(0)).any()


def test_scale_preserves_enc_membership(keys):
    pk, sk = keys
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = fe(int(rng.integers(F16.q)))
        g = fe(int(rng.integers(1, F16.q)))
        c = mul_arrays(F16, encrypt(pk, m, rng), F16.dtype(g.value))
        assert enc_space_contains(sk, g * m, c)


def test_const_ct(keys):
    _, sk = keys
    assert decrypt(sk, const_row(1)).value == 1
    for seed in range(3):
        _, sk2 = keygen(P0, np.random.default_rng(1000 + seed))
        assert decrypt(sk2, const_row(1)).value == 1
        assert enc_space_contains(sk2, fe(1), const_row(1))
