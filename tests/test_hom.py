"""Replicated scheme: voting, thresholds, and boosted evaluation.

The small fixtures replicate k=8 with a complete bipartite booster so
every majority is over all parts; hom_keygen's own k >= 32 floor is
exercised separately. All keys here are noiseless, which makes the
evaluator an exact mirror of eval_plain.
"""

import numpy as np
import pytest

from circuit_gen import random_circuit, random_two_layer_circuit
from codehom.booster import boost_aux_gen, build_expander
from codehom.circuit import (
    Circuit,
    Gate,
    build_apxmaj,
    compile_schedule,
    eval_plain,
    eval_plain_array,
    layerize,
    parse_netlist,
)
from codehom.errors import ParameterError, UsageError
from codehom.field import FieldElement, FieldSpec
from codehom.hom import (
    BoostConfig,
    HomKeys,
    KCiphertext,
    dec_k_contains,
    dec_k_threshold,
    enc_k_contains,
    enc_k_threshold,
    hdec,
    hom_decrypt,
    hom_encrypt,
    hom_eval,
    hom_keygen,
    key_set_fields,
)
from codehom.reencrypt import chain_eval_arrays, chain_keygen
from codehom.scheme import Params, decrypt_batch, encrypt_batch, keygen, params_from_alpha

GF16 = FieldSpec(4)
GF256 = FieldSpec(8)
P16 = Params(n=16, r=6, s=3, field=GF16, eta=0.0)


def _hand_keys(d: int, seed: int = 5) -> HomKeys:
    rng = np.random.default_rng(seed)
    graph = build_expander(8, 8, 1e-6, rng)
    apx = build_apxmaj(8, rng, verify_trials=40)
    levels = [keygen(P16, rng) for _ in range(d + 1)]
    boosts = [
        boost_aux_gen(levels[i][1], levels[i + 1][0], graph, apx, rng)
        for i in range(d)
    ]
    return HomKeys(P16, 8, levels, boosts)


@pytest.fixture(scope="module")
def mini():
    return _hand_keys(2)


@pytest.fixture(scope="module")
def real32():
    rng = np.random.default_rng(9)
    cfg = BoostConfig(b=8, lambda_target=0.9, verify_trials=40)
    return hom_keygen(P16, 32, 2, rng, cfg=cfg)


def _enc(hk, m, seed):
    return hom_encrypt(hk, m, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Replicated ciphertext container and thresholds.


def test_kciphertext_round_trip():
    rng = np.random.default_rng(0)
    P = rng.integers(16, size=(8, 16), dtype=np.uint8)
    kc = KCiphertext(GF16, P)
    assert (kc.k, kc.n) == (8, 16)
    assert np.array_equal(kc.P, P)
    assert kc.P.dtype == GF16.dtype
    assert "k=8" in repr(kc)


def test_kciphertext_validation():
    with pytest.raises(UsageError):
        KCiphertext(GF16, np.zeros(16, dtype=np.uint8))
    with pytest.raises(UsageError):
        KCiphertext(GF16, np.zeros((2, 8, 16), dtype=np.uint8))
    with pytest.raises(UsageError, match="at least one part"):
        KCiphertext(GF16, np.zeros((0, 16), dtype=np.uint8))  # no parts to vote over


def test_threshold_values():
    assert enc_k_threshold(32) == 31
    assert enc_k_threshold(64) == 62
    assert enc_k_threshold(33) == 32
    assert dec_k_threshold(32) == 30
    assert dec_k_threshold(16) == 15
    assert dec_k_threshold(64) == 60


# ---------------------------------------------------------------------------
# Key generation.


def test_keygen_structure(real32):
    hk = real32
    assert hk.depth == 2
    assert len(hk.levels) == 3
    assert len(hk.boosts) == 2
    assert all(pk.params == P16 for pk in hk.pks)
    assert all(aux.graph.k == 32 for aux in hk.boosts)
    # 3 level keys of n*r entries plus 2 boosts of 32 stacked chains:
    # 16x8 entry link, nine 8x8 mid links, 8x16 exit link
    assert hk.key_size_fields() == 3 * 16 * 6 + 2 * 32 * (16 * 8 + 9 * 64 + 8 * 16)
    assert "d=2" in repr(hk)


def test_keygen_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="part count"):
        hom_keygen(P16, 16, 1, rng)
    with pytest.raises(ParameterError, match="depth"):
        hom_keygen(P16, 32, 0, rng)
    with pytest.raises(ParameterError):
        hom_keygen(P16, 32, 1, rng, cfg=BoostConfig(b=64))


# (Params, k, d, BoostConfig) of every key set shape that the CLI presets,
# perfbench, the error budget, the demos and the tests build.
KEY_SET_SHAPES = {
    "desk": (Params(128, 48, 12, GF256, 0.0), 32, 2, BoostConfig(b=16, mid_n=16)),
    "paper-dryrun": (params_from_alpha(256, 0.25), 32, 1, BoostConfig(b=16, mid_n=8)),
    "budget boost row": (P16, 32, 1, BoostConfig(b=16, mid_n=4)),
    **{f"P16 k={k} d={d} b=8": (P16, k, d, BoostConfig(b=8, lambda_target=0.9, mid_n=8))
       for k in (32, 64) for d in (1, 2, 3)},
}


@pytest.mark.parametrize("shape", list(KEY_SET_SHAPES))
def test_key_set_size_is_predicted_before_keygen(shape):
    p, k, d, cfg = KEY_SET_SHAPES[shape]
    hk = hom_keygen(p, k, d, np.random.default_rng(4), cfg=cfg)
    assert key_set_fields(p, k, d, cfg) == hk.key_size_fields()


def test_keygen_determinism():
    cfg = BoostConfig(b=8, lambda_target=0.9, verify_trials=40)
    a = hom_keygen(P16, 32, 1, np.random.default_rng(3), cfg=cfg)
    b = hom_keygen(P16, 32, 1, np.random.default_rng(3), cfg=cfg)
    for pa, pb in zip(a.pks, b.pks):
        assert np.array_equal(pa.P, pb.P)
    for xa, xb in zip(a.boosts, b.boosts):
        for la, lb in zip(xa.links, xb.links):
            assert np.array_equal(la, lb)


def test_key_size_linear_in_depth():
    sizes = [_hand_keys(d).key_size_fields() for d in (1, 2, 3)]
    assert sizes[1] - sizes[0] == sizes[2] - sizes[1]
    assert sizes[1] - sizes[0] > 0


def test_homkeys_consistency_checks(mini):
    with pytest.raises(UsageError, match="boosts"):
        HomKeys(P16, 8, mini.levels, mini.boosts[:1])
    with pytest.raises(UsageError, match="replicates"):
        HomKeys(P16, 9, mini.levels, mini.boosts)
    other = Params(n=16, r=6, s=3, field=GF16, eta=0.01)
    with pytest.raises(UsageError, match="level 0 keys do not match"):
        HomKeys(other, 8, mini.levels, mini.boosts)
    with pytest.raises(UsageError, match="boost 0 leads into level 2's key, not level 1's"):
        HomKeys(P16, 8, mini.levels, mini.boosts[::-1])


# ---------------------------------------------------------------------------
# Encryption and voting.


def test_encrypt_decrypt_bits(mini):
    for m in (0, 1):
        kc = _enc(mini, m, 10 + m)
        assert (decrypt_batch(mini.sk0, kc.P) == m).all()
        assert hom_decrypt(mini, kc).value == m
        assert enc_k_contains(mini.sk0, m, kc)
        assert dec_k_contains(mini.sk0, m, kc)
    kc = hom_encrypt(mini, FieldElement(GF16, 1), np.random.default_rng(12))
    assert hom_decrypt(mini, kc).value == 1


def test_encrypt_rejects_wide_messages(mini):
    with pytest.raises(UsageError, match="bits"):
        hom_encrypt(mini, 3, np.random.default_rng(0))
    with pytest.raises(UsageError):
        hom_encrypt(mini, 99, np.random.default_rng(0))


def test_unanimous_const_parts(mini):
    for m in (0, 1, 7):
        kc = KCiphertext(GF16, np.full((8, 16), m, dtype=np.uint8))
        assert hom_decrypt(mini, kc).value == m


def test_plurality_tie_breaks_to_smallest(mini):
    rows = np.array([2, 2, 2, 1, 1, 1, 0, 0], dtype=np.uint8)
    kc = KCiphertext(GF16, np.repeat(rows[:, None], 16, axis=1))
    assert hom_decrypt(mini, kc).value == 1


@pytest.mark.parametrize("k", [32, 64])
def test_plurality_in_wide_fields(k):
    # Messages at or above 2^(k-1): a vote that counts every field value
    # would need 2^k counters.
    spec = FieldSpec(k)
    p = Params(n=16, r=6, s=3, field=spec, eta=0.0)
    rng = np.random.default_rng(30 + k)
    hk = HomKeys(p, 32, [keygen(p, rng)], [])
    m, other = (1 << (k - 1)) + 5, (1 << k) - 1
    kc = hom_encrypt(hk, m, rng)
    kc.P[:15] = hom_encrypt(hk, other, rng).P[:15]
    assert hom_decrypt(hk, kc).value == m
    assert hdec(hk, kc).value == m
    kc.P[15] = kc.P[0]  # 16 parts each way: the smaller value wins
    assert hom_decrypt(hk, kc).value == m


def test_plurality_part_permutation_invariant(mini):
    rng = np.random.default_rng(20)
    kc = _enc(mini, 1, 21)
    kc.P[:3] = rng.integers(16, size=(3, 16), dtype=np.uint8)
    want = hom_decrypt(mini, kc).value
    for _ in range(10):
        shuffled = KCiphertext(GF16, rng.permutation(kc.P, axis=0))
        assert hom_decrypt(mini, shuffled).value == want


def test_minority_corruption_never_moves_the_vote(mini):
    rng = np.random.default_rng(22)
    for m in (0, 1):
        kc = _enc(mini, m, 23 + m)
        kc.P[:3] = np.repeat(
            np.array([[5], [5], [9]], dtype=np.uint8), 16, axis=1
        )  # 3 < k/2 rotten parts, 5 unanimous
        assert hom_decrypt(mini, kc).value == m


def test_dec_k_threshold_boundary(real32):
    hk = real32
    rng = np.random.default_rng(30)
    good = encrypt_batch(hk.levels[0][0], np.ones(32, dtype=np.uint8), rng)

    def with_bad(t):
        C = good.copy()
        C[:t] = encrypt_batch(hk.levels[0][0], np.zeros(t, dtype=np.uint8), rng)
        return KCiphertext(GF16, C)

    assert dec_k_threshold(32) == 30
    assert dec_k_contains(hk.sk0, 1, with_bad(2))
    assert not dec_k_contains(hk.sk0, 1, with_bad(3))
    assert enc_k_threshold(32) == 31
    assert enc_k_contains(hk.sk0, 1, with_bad(1))
    assert not enc_k_contains(hk.sk0, 1, with_bad(2))


def test_enc_k_implies_dec_k(real32):
    hk = real32
    rng = np.random.default_rng(31)
    for _ in range(50):
        t = int(rng.integers(0, 33))
        C = encrypt_batch(hk.levels[0][0], np.ones(32, dtype=np.uint8), rng)
        C[:t] = rng.integers(16, size=(t, 16), dtype=np.uint8)
        kc = KCiphertext(GF16, C)
        if enc_k_contains(hk.sk0, 1, kc):
            assert dec_k_contains(hk.sk0, 1, kc)


# ---------------------------------------------------------------------------
# Depth accounting.


def test_boost_depth_counts():
    c = parse_netlist(
        """
        inputs x0 x1 x2
        t1 = AND x0 x1
        t2 = XOR t1 x2
        outputs t2
        """
    )
    assert compile_schedule(c, True, 1).depth == 2
    assert compile_schedule(c, False, 1).depth == 1


def test_boost_depth_copies_and_consts_free():
    c = parse_netlist(
        """
        inputs x0
        one = CONST1
        t1 = XOR one one
        t2 = COPY x0
        t3 = AND t2 one
        outputs t3 t1
        """
    )
    assert compile_schedule(c, True, 1).depth == 1
    assert compile_schedule(Circuit(["x0"], [], ["x0"]), True, 1).depth == 0


# ---------------------------------------------------------------------------
# Evaluation.


def _steps(c, d):
    # the ("gates"|"boost", level, width) steps hom_eval runs by default
    s = compile_schedule(c, True, d)
    steps = []
    for level in range(d + 1):
        if s.runs[level]:
            steps.append(("gates", level, len(s.runs[level])))
        if level < d and s.carries[level]:
            steps.append(("boost", level, len(s.carries[level])))
    return steps


def test_identity_drains_to_the_top(mini):
    c = Circuit(["x0"], [], ["x0"])
    assert _steps(c, mini.depth) == [("boost", 0, 1), ("boost", 1, 1)]
    for m in (0, 1):
        (out,) = hom_eval(mini, c, [_enc(mini, m, 40 + m)])
        assert hdec(mini, out).value == m
        assert enc_k_contains(mini.sk_top, m, out)


def test_dummy_layer_identity(mini):
    c = parse_netlist("inputs x0\none = CONST1\nt = AND x0 one\noutputs t\n")
    for m in (0, 1):
        (out,) = hom_eval(mini, c, [_enc(mini, m, 42 + m)])
        assert hdec(mini, out).value == m


def test_and_gate_all_pairs(mini):
    c = parse_netlist("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    for a in (0, 1):
        for b in (0, 1):
            ins = [_enc(mini, a, 50 + a), _enc(mini, b, 60 + b)]
            (out,) = hom_eval(mini, c, ins)
            assert hdec(mini, out).value == (a & b)
            assert dec_k_contains(mini.sk_top, a & b, out)


def test_bare_final_layer(mini):
    c = parse_netlist(
        """
        inputs x0 x1 x2
        t1 = AND x0 x1
        t2 = AND t1 x2
        outputs t2
        """
    )
    assert _steps(c, mini.depth) == [
        ("boost", 0, 3),
        ("gates", 1, 1),
        ("boost", 1, 2),  # t1 plus the x2 still waiting
        ("gates", 2, 1),
    ]
    for bits in ((1, 1, 1), (1, 0, 1), (0, 1, 1), (1, 1, 0)):
        ins = [_enc(mini, b, 70 + i) for i, b in enumerate(bits)]
        (out,) = hom_eval(mini, c, ins)
        want = bits[0] & bits[1] & bits[2]
        assert hdec(mini, out).value == want
        assert dec_k_contains(mini.sk_top, want, out)


def test_xor_burns_a_level_by_default(mini):
    chain = parse_netlist(
        """
        inputs x0 x1 x2 x3
        t1 = XOR x0 x1
        t2 = XOR t1 x2
        t3 = XOR t2 x3
        outputs t3
        """
    )
    assert compile_schedule(chain, True, 1).depth == 3
    ins = [_enc(mini, b, 80 + i) for i, b in enumerate((1, 0, 1, 1))]
    with pytest.raises(UsageError, match="boosted layers"):
        hom_eval(mini, chain, ins)
    (out,) = hom_eval(mini, chain, ins, count_xor=False)
    assert hdec(mini, out).value == 1


def test_single_xor_conservative(mini):
    c = parse_netlist("inputs x0 x1\nt = XOR x0 x1\noutputs t\n")
    for a in (0, 1):
        for b in (0, 1):
            ins = [_enc(mini, a, 90 + a), _enc(mini, b, 95 + b)]
            (out,) = hom_eval(mini, c, ins)
            assert hdec(mini, out).value == (a ^ b)
            assert enc_k_contains(mini.sk_top, a ^ b, out)


def test_random_circuits_match_plain(mini):
    rng = np.random.default_rng(101)
    done = 0
    while done < 12:
        c = random_circuit(rng, n_inputs=3, n_gates=10)
        if compile_schedule(c, False, 1).depth > 2:
            continue
        done += 1
        bits = [int(v) for v in rng.integers(2, size=3)]
        want = eval_plain(c, [FieldElement(GF16, b) for b in bits])
        ins = [_enc(mini, b, int(rng.integers(1 << 30))) for b in bits]
        outs = hom_eval(mini, c, ins, count_xor=False)
        assert len(outs) == len(c.outputs)
        for kc, w in zip(outs, want):
            assert hdec(mini, kc).value == w.value


def test_two_layer_circuits_conservative(mini):
    rng = np.random.default_rng(103)
    for _ in range(8):
        c = random_two_layer_circuit(rng, n_inputs=4, width=5)
        assert compile_schedule(c, True, 1).depth == 2
        bits = [int(v) for v in rng.integers(2, size=4)]
        want = eval_plain(c, [FieldElement(GF16, b) for b in bits])
        ins = [_enc(mini, b, int(rng.integers(1 << 30))) for b in bits]
        outs = hom_eval(mini, c, ins)
        for kc, w in zip(outs, want):
            assert hdec(mini, kc).value == w.value
            assert dec_k_contains(mini.sk_top, w.value, kc)


def test_const_and_mixed_outputs(mini):
    c = parse_netlist(
        """
        inputs x0
        one = CONST1
        t = XOR x0 one
        outputs t one x0
        """
    )
    (t, one, x0) = hom_eval(mini, c, [_enc(mini, 0, 110)])
    assert hdec(mini, t).value == 1
    assert hdec(mini, one).value == 1
    assert (one.P == 1).all()
    assert hdec(mini, x0).value == 0


def test_layered_circuit_accepted(mini):
    c = parse_netlist("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    ins = [_enc(mini, 1, 120), _enc(mini, 1, 121)]
    (a,) = hom_eval(mini, c, ins)
    (b,) = hom_eval(mini, layerize(c), ins)
    assert np.array_equal(a.P, b.P)


def test_eval_input_validation(mini):
    c = parse_netlist("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    ok = _enc(mini, 1, 130)
    with pytest.raises(UsageError, match="takes 2"):
        hom_eval(mini, c, [ok])
    with pytest.raises(UsageError, match="match"):
        hom_eval(mini, c, [ok, KCiphertext(GF16, np.zeros((4, 16), dtype=np.uint8))])
    with pytest.raises(UsageError, match="match"):
        hom_eval(mini, c, [ok, KCiphertext(GF16, np.zeros((8, 12), dtype=np.uint8))])
    with pytest.raises(UsageError, match="match"):
        hom_eval(mini, c, [ok, KCiphertext(GF256, np.zeros((8, 16), dtype=np.uint8))])


@pytest.mark.parametrize("front_end", ["hom_eval", "chain_eval_arrays", "eval_plain_array"])
def test_every_front_end_checks_the_input_count(front_end, mini):
    c = parse_netlist("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    keys = chain_keygen(P16, 1, np.random.default_rng(3))
    call = {
        "hom_eval": lambda: hom_eval(mini, c, [_enc(mini, 1, 150)]),
        "chain_eval_arrays": lambda: chain_eval_arrays(
            keys.level_params, keys.links, c, np.zeros((1, 5, P16.n), dtype=np.uint8)),
        "eval_plain_array": lambda: eval_plain_array(GF16, c, np.zeros((1, 5), dtype=np.uint8)),
    }[front_end]
    with pytest.raises(UsageError, match="circuit takes 2 inputs, got 1"):
        call()


def test_dead_gates_do_not_count(mini):
    c = Circuit(
        ["x0", "x1"],
        [
            Gate("t", "AND", ("x0", "x1")),
            Gate("d1", "AND", ("t", "x0")),
            Gate("d2", "AND", ("d1", "x1")),  # depth 3, feeds nothing
        ],
        ["t"],
    )
    assert compile_schedule(c, False, 1).depth == 1
    (out,) = hom_eval(mini, c, [_enc(mini, 1, 140), _enc(mini, 1, 141)])
    assert hdec(mini, out).value == 1
