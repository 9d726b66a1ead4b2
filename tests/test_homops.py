"""Pointwise operations on ciphertext rows and their exact homomorphism boundaries.

A sum is c ^ d, a product mul_arrays(spec, c, d), a scalar multiple
mul_arrays(spec, c, g) for a field value g, and the trivial encryption of
m the constant row m*1. A one-row block, encrypt_batch(pk, [m], rng), is
one encryption.
"""

import numpy as np
import pytest

from codehom.field import FieldSpec, mul_arrays, random_elements
from codehom.scheme import (
    Params,
    dec_membership_batch,
    decrypt_batch,
    enc_membership_batch,
    encrypt_batch,
    keygen,
)

F16 = FieldSpec(16)
P0 = Params(n=48, r=12, s=6, field=F16, eta=0.0)  # noiseless: members are exact


@pytest.fixture(scope="module")
def keys():
    return keygen(P0, np.random.default_rng(0))


def const_row(m):
    return np.full((1, P0.n), m, dtype=F16.dtype)


def test_add_self_cancels(keys):
    pk, _ = keys
    c = encrypt_batch(pk, [99], np.random.default_rng(1))
    assert not (c ^ c).any()


def test_add_constants(keys):
    out = const_row(3) ^ const_row(5)
    assert out.tolist() == [[3 ^ 5] * P0.n]


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
    c = encrypt_batch(pk, [1234], np.random.default_rng(3))
    assert np.array_equal(mul_arrays(F16, c, const_row(1)), c)
    out = mul_arrays(F16, c, const_row(0))
    assert not out.any()
    assert decrypt_batch(sk, out).tolist() == [0]


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
    m1, m2 = rng.integers(1, F16.q, 2)
    c = mul_arrays(F16, encrypt_batch(pk, [m1], rng), encrypt_batch(pk, [m2], rng))
    want = mul_arrays(F16, [m1], [m2])
    assert decrypt_batch(sk, c).tolist() == want.tolist()
    assert not enc_membership_batch(sk, want, c)[0]


def test_one_layer_depth_limit(keys):
    # sums of products still decrypt; products of products do not
    pk, sk = keys
    rng = np.random.default_rng(5)
    ok_sum = 0
    ok_double = 0
    trials = 100
    for _ in range(trials):
        ms = rng.integers(1, F16.q, 4)
        cs = [encrypt_batch(pk, [m], rng) for m in ms]
        p1, p2 = mul_arrays(F16, cs[0], cs[1]), mul_arrays(F16, cs[2], cs[3])
        m01, m23 = mul_arrays(F16, ms[0], ms[1]), mul_arrays(F16, ms[2], ms[3])
        ok_sum += decrypt_batch(sk, p1 ^ p2)[0] == m01 ^ m23
        ok_double += decrypt_batch(sk, mul_arrays(F16, p1, p2))[0] == mul_arrays(F16, m01, m23)
    assert ok_sum == trials
    assert ok_double <= trials // 2  # generically wrong; coincidences only


def test_scale_identities(keys):
    pk, _ = keys
    c = encrypt_batch(pk, [77], np.random.default_rng(6))
    assert np.array_equal(mul_arrays(F16, c, F16.dtype(1)), c)
    assert not mul_arrays(F16, c, F16.dtype(0)).any()


def test_scale_preserves_enc_membership(keys):
    pk, sk = keys
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.integers(F16.q)
        g = F16.dtype(rng.integers(1, F16.q))
        c = mul_arrays(F16, encrypt_batch(pk, [m], rng), g)
        assert enc_membership_batch(sk, [mul_arrays(F16, g, m)], c)[0]


def test_const_ct(keys):
    _, sk = keys
    assert decrypt_batch(sk, const_row(1)).tolist() == [1]
    for seed in range(3):
        _, sk2 = keygen(P0, np.random.default_rng(1000 + seed))
        assert decrypt_batch(sk2, const_row(1)).tolist() == [1]
        assert enc_membership_batch(sk2, [1], const_row(1))[0]
