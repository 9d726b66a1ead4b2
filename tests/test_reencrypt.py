"""Reencryption links, chains, and the chain evaluation engine.

The load-bearing fact throughout: with good aux, ReEnc(c) lands in
Enc'(<y, c>) for ARBITRARY c, by linearity alone. Everything the chain
engine guarantees (exact mirroring of the plain evaluation on whatever
the inputs decrypt to) reduces to that.
"""

from dataclasses import replace

import numpy as np
import pytest

from codehom.circuit import (
    build_corr,
    compile_schedule,
    eval_plain,
    eval_plain_array,
    layerize,
    parse_netlist,
)
from codehom.errors import ParameterError, UsageError
from codehom.field import FieldElement, FieldSpec, mul_arrays, random_elements
from codehom.linalg import matmul_arrays
from codehom.reencrypt import (
    aux_gen_basic,
    aux_is_good,
    chain_eval_arrays,
    chain_keygen,
)
from codehom.scheme import (
    Params,
    PublicKey,
    decrypt_batch,
    enc_membership_batch,
    encrypt,
    encrypt_batch,
    keygen,
)

from circuit_gen import random_circuit

GF256 = FieldSpec(8)
GF16 = FieldSpec(4)

BASE24 = Params(n=24, r=9, s=3, field=GF256, eta=0.0)
BASE16 = Params(n=16, r=6, s=3, field=GF16, eta=0.0)


@pytest.fixture(scope="module")
def flat3():
    # noiseless flat chain, 3 links over 4 equal levels: a stack of one
    rng = np.random.default_rng(7)
    return chain_keygen(BASE24, 3, rng)


def _pair(chain, level):
    """The (pk, sk) of one level of a stack of one chain."""
    return chain.levels[level].pair(0)


@pytest.fixture(scope="module")
def link_pair():
    rng = np.random.default_rng(11)
    p_src = Params(n=20, r=8, s=3, field=GF256, eta=0.02)
    p_tgt = Params(n=28, r=10, s=3, field=GF256, eta=0.0)
    pk, sk = keygen(p_src, rng)
    pk2, sk2 = keygen(p_tgt, rng)
    Z = aux_gen_basic(sk, pk2, rng)
    return pk, sk, pk2, sk2, Z


def test_aux_shapes_and_views(link_pair):
    pk, sk, pk2, sk2, Z = link_pair
    assert Z.shape == (20, 28)
    # target noise rate is zero, so each z_i decrypts to y_i exactly
    assert np.array_equal(decrypt_batch(sk2, Z), sk.y_dec)
    assert aux_is_good(Z, sk, sk2)


def test_reencrypt_dec_to_enc(link_pair):
    pk, sk, pk2, sk2, Z = link_pair
    rng = np.random.default_rng(1)
    ms = random_elements(GF256, rng, 200)
    C = encrypt_batch(pk, ms, rng)
    vals = decrypt_batch(sk, C)  # what each row actually decrypts to
    out = matmul_arrays(GF256, C, Z)
    assert enc_membership_batch(sk2, vals, out).all()
    assert np.array_equal(decrypt_batch(sk2, out), vals)


def test_reencrypt_arbitrary_vectors(link_pair):
    # linearity does not care whether c was ever a ciphertext
    pk, sk, pk2, sk2, Z = link_pair
    rng = np.random.default_rng(2)
    C = random_elements(GF256, rng, (100, 20))
    vals = decrypt_batch(sk, C)
    out = matmul_arrays(GF256, C, Z)
    assert enc_membership_batch(sk2, vals, out).all()


def test_reencrypt_single_matches_batch(link_pair):
    # a link applied to one row equals that row of the link applied to a block
    pk, sk, pk2, sk2, Z = link_pair
    rng = np.random.default_rng(3)
    C = encrypt_batch(pk, np.array([77, 5, 200], dtype=GF256.dtype), rng)
    block = matmul_arrays(GF256, C, Z)
    for c, want in zip(C, block):
        assert np.array_equal(matmul_arrays(GF256, c[None], Z)[0], want)


def test_reencrypt_is_additive(link_pair):
    pk, sk, pk2, sk2, Z = link_pair
    rng = np.random.default_rng(4)
    A = random_elements(GF256, rng, (50, 20))
    B = random_elements(GF256, rng, (50, 20))
    assert np.array_equal(
        matmul_arrays(GF256, A ^ B, Z),
        matmul_arrays(GF256, A, Z) ^ matmul_arrays(GF256, B, Z),
    )


def test_reencrypt_length_check(link_pair):
    _, _, _, _, Z = link_pair
    bad = np.zeros(21, dtype=GF256.dtype)
    with pytest.raises(UsageError, match="inner dimensions"):
        matmul_arrays(GF256, bad[None], Z)


def test_aux_field_mismatch():
    rng = np.random.default_rng(5)
    _, sk = keygen(BASE16, rng)
    pk2, _ = keygen(BASE24, rng)
    with pytest.raises(UsageError, match="field"):
        aux_gen_basic(sk, pk2, rng)


def test_good_aux_rate():
    # per-coordinate failure eta'*s' unions over n source coordinates
    rng = np.random.default_rng(6)
    p_src = Params(n=16, r=6, s=3, field=GF256, eta=0.0)
    p_tgt = Params(n=24, r=9, s=3, field=GF256, eta=0.004)
    _, sk = keygen(p_src, rng)
    pk2, sk2 = keygen(p_tgt, rng)
    trials = 400
    ms = np.tile(sk.y_dec, trials)
    C = encrypt_batch(pk2, ms, rng)
    good = enc_membership_batch(sk2, ms, C).reshape(trials, 16).all(axis=1)
    bound = 1 - p_tgt.eta * p_tgt.s * 16
    sigma = np.sqrt(bound * (1 - bound) / trials)
    assert good.mean() >= bound - 3 * sigma
    assert good.mean() < 1.0  # the noise does bite at this rate


def test_flat_chain_structure(flat3):
    assert len(flat3.levels) == 4 and len(flat3.links) == 3
    for p in flat3.level_params:
        assert p.n == 24 and p.field == GF256
    for i, Z in enumerate(flat3.links):
        assert Z.shape == (1, 24, 24)
        assert aux_is_good(Z[0], _pair(flat3, i)[1], _pair(flat3, i + 1)[1])


def test_chain_keygen_deterministic():
    a = chain_keygen(BASE24, 2, np.random.default_rng(9))
    b = chain_keygen(BASE24, 2, np.random.default_rng(9))
    for ka, kb in zip(a.levels, b.levels):
        assert np.array_equal(ka.S, kb.S)
        assert np.array_equal(ka.P, kb.P)
    for xa, xb in zip(a.links, b.links):
        assert np.array_equal(xa, xb)


def test_chain_depth_check_and_shrinking_link():
    rng = np.random.default_rng(12)
    p16 = Params(n=16, r=6, s=3, field=GF256, eta=0.0)
    pk16, sk16 = keygen(p16, rng)
    pk24, sk24 = keygen(BASE24, rng)
    with pytest.raises(ParameterError, match="depth"):
        chain_keygen(BASE24, 0, rng)
    # a link may shrink, as a boost's entry link does: an AND through a
    # hand-built 24 -> 16 chain decrypts to the product under the 16-key
    down = aux_gen_basic(sk24, pk16, rng)
    a, b = random_elements(GF256, rng, 32), random_elements(GF256, rng, 32)
    X = np.stack([encrypt_batch(pk24, a, rng), encrypt_batch(pk24, b, rng)])
    circ = parse_netlist("inputs x y\nz = AND x y\noutputs z\n")
    (out,) = chain_eval_arrays([BASE24, p16], [down], circ, X)
    assert out.shape == (32, 16)
    assert np.array_equal(decrypt_batch(sk16, out), mul_arrays(GF256, a, b))


def _chain_eval(chain, c, X):
    # a stack of one chain; its links unstacked take an unbatched X
    return chain_eval_arrays(chain.level_params, [Z[0] for Z in chain.links], c, X)


def _encrypt_stack(pk, xs, rng):
    return np.stack([encrypt(pk, x, rng) for x in xs])


def test_basic_eval_exact_mirror(flat3):
    # noiseless everything: the chain must reproduce eval_plain exactly,
    # and every output must be a genuine top-level encryption
    rng = np.random.default_rng(13)
    pk0, _ = _pair(flat3, 0)
    _, sk_top = _pair(flat3, -1)
    done = 0
    while done < 25:
        circ = random_circuit(rng, n_inputs=3, n_gates=10)
        if compile_schedule(circ, False, 1).depth > 2:
            continue
        done += 1
        xs = [FieldElement(GF256, int(v)) for v in random_elements(GF256, rng, 3)]
        X = _encrypt_stack(pk0, xs, rng)
        want = np.array([w.value for w in eval_plain(circ, xs)], dtype=GF256.dtype)
        outs = np.stack(_chain_eval(flat3, circ, X))
        assert np.array_equal(decrypt_batch(sk_top, outs), want)
        assert enc_membership_batch(sk_top, want, outs).all()


def test_basic_eval_const_circuit(flat3):
    circ = parse_netlist("c1 = CONST1\noutputs c1\n")
    (out,) = _chain_eval(flat3, circ, np.zeros((0, 24), dtype=GF256.dtype))
    assert np.array_equal(out, np.ones(24, dtype=GF256.dtype))
    assert decrypt_batch(_pair(flat3, -1)[1], out[None])[0] == 1


def test_basic_eval_bare_final_layer(flat3):
    # depth equals the link count: the last layer stays unreencrypted
    # but decryption is still exact, including a trailing XOR
    circ = parse_netlist(
        """
        inputs x0 x1 x2
        t1 = AND x0 x1
        t2 = AND t1 x2
        t3 = AND t2 t1
        t3b = AND t2 x0
        t4 = XOR t3 t3b
        outputs t4
        """
    )
    assert compile_schedule(circ, False, 1).depth == 3
    rng = np.random.default_rng(14)
    pk0, _ = _pair(flat3, 0)
    _, sk_top = _pair(flat3, -1)
    for _ in range(20):
        xs = [FieldElement(GF256, int(v)) for v in random_elements(GF256, rng, 3)]
        (out,) = _chain_eval(flat3, circ, _encrypt_stack(pk0, xs, rng))
        assert decrypt_batch(sk_top, out[None])[0] == eval_plain(circ, xs)[0].value


def test_basic_eval_depth_excess(flat3):
    circ = parse_netlist(
        """
        inputs x0
        t1 = AND x0 x0
        t2 = AND t1 t1
        t3 = AND t2 t2
        t4 = AND t3 t3
        outputs t4
        """
    )
    rng = np.random.default_rng(15)
    ct = encrypt(_pair(flat3, 0)[0], FieldElement(GF256, 3), rng)
    with pytest.raises(UsageError, match="layers"):
        _chain_eval(flat3, circ, ct[None])


def test_basic_eval_input_validation(flat3):
    circ = parse_netlist("inputs x0 x1\ns = XOR x0 x1\noutputs s\n")
    rng = np.random.default_rng(16)
    ct = encrypt(_pair(flat3, 0)[0], FieldElement(GF256, 3), rng)
    with pytest.raises(UsageError, match="inputs"):
        _chain_eval(flat3, circ, ct[None])
    short = np.zeros((2, 23), dtype=GF256.dtype)
    with pytest.raises(UsageError, match="length"):
        _chain_eval(flat3, circ, short)


def test_chain_eval_batched_matches_single(flat3):
    circ = parse_netlist(
        """
        inputs x0 x1 x2
        p = AND x0 x1
        q = XOR p x2
        g = G q x0
        outputs g
        """
    )
    lc = layerize(circ)
    rng = np.random.default_rng(17)
    pk0, _ = _pair(flat3, 0)
    T = 40
    X = np.stack(
        [encrypt_batch(pk0, random_elements(GF256, rng, T), rng) for _ in range(3)]
    )
    # the stacked (1, n, n) links broadcast against the batch of T
    batch_out = chain_eval_arrays(flat3.level_params, flat3.links, lc, X)[0]
    assert batch_out.shape == (T, 24)
    for t in range(0, T, 7):
        (single,) = _chain_eval(flat3, lc, X[:, t])
        assert np.array_equal(single, batch_out[t])


def test_chain_raw_circuit_matches_layerized():
    # carrying a wire across a link computes exactly what a dummy AND-one
    # plus its reencryption does, so a raw circuit needs no layering;
    # noisy links make any moved or missing reencryption show in the bytes
    rng = np.random.default_rng(19)
    noisy = Params(n=16, r=6, s=3, field=GF16, eta=0.05)
    chain = chain_keygen(noisy, 4, rng)
    params, links = chain.level_params, chain.links
    compared = {False: 0, True: 0}
    for _ in range(80):
        c = random_circuit(rng, n_inputs=3, n_gates=10, p_const=0.15)
        X = rng.integers(16, size=(3, 4, 16), dtype=np.uint8)
        for count_xor in (False, True):
            if compile_schedule(c, count_xor, 1).depth > len(links):
                continue
            lc = layerize(c, count_xor=count_xor)
            # the chain levels AND and G only, as layerize does without
            # count_xor; with it, only XOR-free circuits level alike
            if count_xor and any(g.kind == "XOR" for g in lc.gates):
                continue
            raw = chain_eval_arrays(params, links, c, X)
            layered = chain_eval_arrays(params, links, lc, X)
            assert len(raw) == len(layered) == len(c.outputs)
            for a, b in zip(raw, layered):
                assert a.shape == b.shape == (4, 16)
                assert np.array_equal(a, b)
            compared[count_xor] += 1
    assert compared[False] >= 70 and compared[True] >= 25


def test_chain_raw_circuit_folds_constant_layers():
    # the constant-only AND chain folds to a constant in layerize as in
    # the schedule, so both forms need one layer of the chain's two links
    # and reencrypt alike
    circ = parse_netlist(
        """
        inputs x0
        k = CONST1
        a = AND k k
        b = AND a a
        c = AND b b
        o = G x0 c
        outputs o
        """
    )
    chain = chain_keygen(BASE16, 2, np.random.default_rng(20))
    params, links = chain.level_params, chain.links
    X = encrypt_batch(_pair(chain, 0)[0], np.arange(16), np.random.default_rng(21))[None]
    (layered,) = chain_eval_arrays(params, links, layerize(circ), X)
    (out,) = chain_eval_arrays(params, links, circ, X)
    assert np.array_equal(layered, out)
    assert np.array_equal(decrypt_batch(_pair(chain, -1)[1], out), np.arange(16) ^ 1)


def test_corr2_block_failure_bound():
    # recursion base: independent per-input corruption eta0 gives a
    # wrong homomorphic CORR_2 output with probability <= 6 eta0^2,
    # and the chain output equals plain CORR_2 on the decrypted inputs
    # bit for bit since the chain itself is noiseless
    rng = np.random.default_rng(18)
    chain = chain_keygen(BASE16, 3, rng)
    pk0, sk0 = _pair(chain, 0)
    _, sk_top = _pair(chain, -1)
    eta0 = 0.1
    bit_eta = eta0 / BASE16.s  # union over the s trapdoor rows stays under eta0
    T = 20_000
    b = rng.integers(0, 2, T).astype(GF16.dtype)
    noisy_pk0 = PublicKey(pk0.P, replace(BASE16, eta=bit_eta))
    C = encrypt_batch(noisy_pk0, np.repeat(b, 4), rng)
    X = C.reshape(T, 4, 16).transpose(1, 0, 2)
    out = chain_eval_arrays(chain.level_params, chain.links, build_corr(2), X)[0]
    got = decrypt_batch(sk_top, out)

    fail = float(np.mean(got != b))
    bound = 6 * eta0 * eta0
    sigma = np.sqrt(bound * (1 - bound) / T)
    assert fail <= bound + 3 * sigma

    seen = decrypt_batch(sk0, C).reshape(T, 4).T
    mirror = eval_plain_array(GF16, build_corr(2), seen)[0]
    assert np.array_equal(got, mirror)
