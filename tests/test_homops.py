"""Pointwise operations and their exact homomorphism boundaries."""

import numpy as np
import pytest

from codehom.errors import UsageError
from codehom.field import FieldElement, FieldSpec, random_elements, random_nonzero
from codehom.homops import const_ct, ct_add, ct_mul, ct_scale
from codehom.linalg import Vector
from codehom.scheme import (
    Ciphertext,
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


def test_add_self_cancels(keys):
    pk, _ = keys
    c = encrypt(pk, fe(99), np.random.default_rng(1))
    assert not ct_add(c, c).v.data.any()


def test_add_constants(keys):
    pk, _ = keys
    out = ct_add(const_ct(pk, fe(3)), const_ct(pk, fe(5)))
    assert out.v.data.tolist() == [3 ^ 5] * P0.n


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
    ones = const_ct(pk, fe(1))
    assert ct_mul(c, ones).v == c.v
    zeros = const_ct(pk, fe(0))
    out = ct_mul(c, zeros)
    assert not out.v.data.any()
    assert decrypt(sk, out).value == 0


def test_mul_decrypts_to_product(keys):
    pk, sk = keys
    rng = np.random.default_rng(4)
    m1 = random_elements(F16, rng, 1000)
    m2 = random_elements(F16, rng, 1000)
    C1 = encrypt_batch(pk, m1, rng)
    C2 = encrypt_batch(pk, m2, rng)
    from codehom.field import mul_arrays

    prod = mul_arrays(F16, C1, C2)
    assert dec_membership_batch(sk, mul_arrays(F16, m1, m2), prod).all()


def test_mul_leaves_enc_space(keys):
    # the recorded witness motivating reencryption: the product decrypts
    # correctly yet is not a valid fresh encryption
    pk, sk = keys
    rng = np.random.default_rng(100)
    m1, m2 = (fe(int(v)) for v in rng.integers(1, F16.q, 2))
    c = ct_mul(encrypt(pk, m1, rng), encrypt(pk, m2, rng))
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
        p1, p2 = ct_mul(cs[0], cs[1]), ct_mul(cs[2], cs[3])
        want_sum = ms[0] * ms[1] + ms[2] * ms[3]
        ok_sum += decrypt(sk, ct_add(p1, p2)).value == want_sum.value
        want_prod = ms[0] * ms[1] * ms[2] * ms[3]
        ok_double += decrypt(sk, ct_mul(p1, p2)).value == want_prod.value
    assert ok_sum == trials
    assert ok_double <= trials // 2  # generically wrong; coincidences only


def test_scale_identities(keys):
    pk, _ = keys
    c = encrypt(pk, fe(77), np.random.default_rng(6))
    assert ct_scale(fe(1), c).v == c.v
    assert not ct_scale(fe(0), c).v.data.any()


def test_scale_preserves_enc_membership(keys):
    pk, sk = keys
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = fe(int(rng.integers(F16.q)))
        g = fe(int(rng.integers(1, F16.q)))
        c = ct_scale(g, encrypt(pk, m, rng))
        assert enc_space_contains(sk, g * m, c)


def test_const_ct(keys):
    pk, sk = keys
    assert not const_ct(pk, fe(0)).v.data.any()
    assert decrypt(sk, const_ct(pk, fe(1))).value == 1
    for seed in range(3):
        pk2, sk2 = keygen(P0, np.random.default_rng(1000 + seed))
        assert decrypt(sk2, const_ct(pk2, fe(1))).value == 1
        assert enc_space_contains(sk2, fe(1), const_ct(pk2, fe(1)))


def test_shape_checks(keys):
    pk, _ = keys
    c = encrypt(pk, fe(1), np.random.default_rng(8))
    short = Ciphertext(Vector(F16, np.zeros(10, dtype=F16.dtype)))
    with pytest.raises(UsageError):
        ct_add(c, short)
    with pytest.raises(UsageError):
        ct_mul(c, short)
    with pytest.raises(UsageError):
        ct_scale(FieldElement(FieldSpec(8), 1), c)
    with pytest.raises(UsageError):
        const_ct(pk, FieldElement(FieldSpec(8), 1))
