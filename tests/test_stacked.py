"""Stacked key and link generation against sequential references.

Keys and links are drawn in order and then computed T at a time
(scheme.py's draw-then-compute convention). Each test replays the same
seed through a sequential path that shares no stacked arithmetic with
the package: scalar reference field operations for keys, one-at-a-time
keygen and aux_gen_basic for links and chains, brute-force span search
for the membership audit. Every comparison also requires the rng to end
in the same state, so no draw is skipped, added or reordered.
"""

from itertools import product

import numpy as np
from hypothesis import given, settings, strategies as st

from codehom.booster import boost_aux_gen, build_expander
from codehom.circuit import build_apxmaj
from codehom.field import FieldSpec, random_distinct, random_elements
from codehom.reencrypt import aux_gen_basic, aux_is_good, chain_keygen, chain_keygen_batch
from codehom.scheme import (
    Params,
    draw_encryption,
    draw_key,
    enc_membership_arrays,
    enc_membership_batch,
    encrypt_arrays,
    key_stack,
    keygen,
    stack_tuples,
)

from gf_refs import ref_matmul, ref_mul, ref_pow, ref_powers


def ref_keygen(p: Params, rng: np.random.Generator):
    """One key the slow way: (S, a, M, P, y) as int lists, draws in keygen's order."""
    spec, mod, n, r, s = p.field, p.field.modulus, p.n, p.r, p.s
    S = sorted(rng.choice(n, size=s, replace=False).tolist())
    a = random_distinct(spec, rng, n).tolist()
    M = [ref_powers(x, r, mod) for x in a]
    for i in S:
        M[i][s // 3 :] = [0] * (r - s // 3)
    L = [[int(i == j) for j in range(r)] for i in range(r)]
    U = [row[:] for row in L]
    lower = random_elements(spec, rng, r * (r - 1) // 2).tolist()
    upper = random_elements(spec, rng, r * (r - 1) // 2).tolist()
    for (i, j), v in zip(((i, j) for i in range(r) for j in range(i)), lower):
        L[i][j] = v
    for (i, j), v in zip(((i, j) for i in range(r) for j in range(i + 1, r)), upper):
        U[i][j] = v
    perm = rng.permutation(r).tolist()
    Pm = [[int(perm[i] == j) for j in range(r)] for i in range(r)]
    R = ref_matmul(ref_matmul(L, U, r, mod), Pm, r, mod)
    P = ref_matmul(M, R, r, mod)
    # Lagrange weights at 0 on the first 2s/3 + 1 points of S
    y = [0] * n
    pts = [a[i] for i in S[: 2 * s // 3 + 1]]
    for i, xi in enumerate(pts):
        num = den = 1
        for j, xj in enumerate(pts):
            if j != i:
                num = ref_mul(num, xj, mod)
                den = ref_mul(den, xi ^ xj, mod)
        y[S[i]] = ref_mul(num, ref_pow(den, spec.q - 2, mod), mod)  # den^-1: Fermat
    return S, a, M, P, y


KEY_SHAPES = st.sampled_from([4, 8, 16, 32, 64]).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.sampled_from([3, 6]),
        st.integers(0, 3),
        st.integers(0, 6),
    )
)


@settings(max_examples=30, deadline=None)
@given(shape=KEY_SHAPES, T=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_keys_equal_sequential_reference_keys(shape, T, seed):
    k, s, dr, dn = shape
    n = min(s + dn, 1 << k)
    p = Params(n=n, r=s + dr, s=s, field=FieldSpec(k), eta=0.0)
    rng = np.random.default_rng(seed)
    keys = key_stack(p, [draw_key(p, rng) for _ in range(T)])
    replay = np.random.default_rng(seed)
    for t in range(T):
        S, a, M, P, y = ref_keygen(p, replay)
        assert keys.S[t].tolist() == S
        assert keys.a[t].tolist() == a
        assert keys.M[t].tolist() == M
        assert keys.P[t].tolist() == P
        assert keys.y[t].tolist() == y
    assert rng.bit_generator.state == replay.bit_generator.state
    # keygen is the one-key case: the next key drawn either way agrees too
    pk, sk = keygen(p, rng)
    S, a, M, P, y = ref_keygen(p, replay)
    assert (list(sk.S), sk.a.tolist(), sk.M.tolist(), pk.P.tolist(),
            sk.y_dec.tolist()) == (S, a, M, P, y)


@settings(max_examples=25, deadline=None)
@given(k=st.sampled_from([4, 8, 16, 32]), T=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_stacked_links_equal_aux_gen_basic_link_by_link(k, T, seed):
    p_src = Params(n=9, r=4, s=3, field=FieldSpec(k), eta=0.1)
    p_tgt = Params(n=12, r=6, s=3, field=FieldSpec(k), eta=0.05)
    rng = np.random.default_rng(seed)
    src, tgt, link = zip(*(
        (draw_key(p_src, rng), draw_key(p_tgt, rng), draw_encryption(p_tgt, rng, p_src.n))
        for _ in range(T)
    ))
    src, tgt = key_stack(p_src, src), key_stack(p_tgt, tgt)
    Z = encrypt_arrays(p_tgt.field, tgt.P, src.y, *stack_tuples(link))
    replay = np.random.default_rng(seed)
    for t in range(T):
        _, sk_src = keygen(p_src, replay)
        pk_tgt, _ = keygen(p_tgt, replay)
        assert np.array_equal(Z[t], aux_gen_basic(sk_src, pk_tgt, replay))
    assert rng.bit_generator.state == replay.bit_generator.state


@settings(max_examples=15, deadline=None)
@given(T=st.integers(1, 4), alpha=st.sampled_from([0.0, 0.25]),
       seed=st.integers(0, 2**32 - 1))
def test_chain_batch_equals_sequential_chains(T, alpha, seed):
    base = Params(n=16, r=6, s=3, field=FieldSpec(8), eta=0.05) if alpha == 0 else None
    rng = np.random.default_rng(seed)
    chains = chain_keygen_batch(16, alpha, 2, rng, T, base=base)
    replay = np.random.default_rng(seed)
    for t in range(T):
        got = chains.chain(t)
        params = got.level_params
        levels = [keygen(p, replay) for p in params]
        links = [aux_gen_basic(levels[i][1], levels[i + 1][0], replay) for i in range(2)]
        for (pk, sk), (pk_want, sk_want) in zip(got.levels, levels):
            assert sk.S == sk_want.S
            for got_a, want_a in ((pk.P, pk_want.P), (sk.M, sk_want.M), (sk.a, sk_want.a),
                                  (sk.y_dec, sk_want.y_dec)):
                assert np.array_equal(got_a, want_a)
        for Z, want in zip(got.links, links):
            assert np.array_equal(Z, want)
    assert rng.bit_generator.state == replay.bit_generator.state
    again = chain_keygen(16, alpha, 2, np.random.default_rng(seed), base=base)
    assert all(np.array_equal(a, b) for a, b in zip(again.links, chains.chain(0).links))


def test_boost_links_equal_per_output_aux_gen_basic():
    # The stacked per-level encryptions against the sequential loop: for each
    # output, a midway key and the link into it, level by level, then the
    # link into the target key.
    p = Params(n=16, r=6, s=3, field=FieldSpec(4), eta=0.05)
    setup = np.random.default_rng(3)
    graph = build_expander(32, 16, 0.6, setup)
    leaves = build_apxmaj(16, setup, verify_trials=20, spec=p.field)
    _, sk = keygen(p, setup)
    pk_next, _ = keygen(p, setup)
    aux = boost_aux_gen(sk, pk_next, graph, leaves, np.random.default_rng(4), mid_n=6)
    replay = np.random.default_rng(4)
    p_mid = aux.level_params[1]
    for j in range(graph.k):
        sk_prev = sk
        for level in range(aux.tree_depth):
            pk_mid, sk_mid = keygen(p_mid, replay)
            assert np.array_equal(aux.links[level][j], aux_gen_basic(sk_prev, pk_mid, replay))
            sk_prev = sk_mid
        assert np.array_equal(aux.links[-1][j], aux_gen_basic(sk_prev, pk_next, replay))


def ref_member(B: list[list[int]], v: list[int], q: int, mod: int) -> bool:
    """v in the column space of B, by trying every combination of its columns."""
    cols = len(B[0])
    for x in product(range(q), repeat=cols):
        if all(
            vi == np.bitwise_xor.reduce([ref_mul(b, c, mod) for b, c in zip(row, x)])
            for row, vi in zip(B, v)
        ):
            return True
    return False


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from([(4, 3), (4, 6), (8, 3)]), K=st.integers(1, 4),
       T=st.integers(1, 6), degenerate=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_audit_equals_per_key_and_brute_force(case, K, T, degenerate, seed):
    k, s = case
    p = Params(n=s + 4, r=s + 2, s=s, field=FieldSpec(k), eta=0.0)
    rng = np.random.default_rng(seed)
    keys = key_stack(p, [draw_key(p, rng) for _ in range(K)])
    ms = random_elements(p.field, rng, (K, T))
    # noisy encryptions, with a wrong message in some rows: both verdicts occur
    X, E = stack_tuples([draw_encryption(p, rng, T, eta=0.3) for _ in range(K)])
    C = encrypt_arrays(p.field, keys.P, ms ^ (rng.random((K, T)) < 0.2).astype(ms.dtype), X, E)
    if degenerate:
        # key 0's trapdoor rows span nothing, so its base rank differs from
        # the others' and only v = 0 is a member
        keys.M[0, keys.S[0]] = 0
        C[0, : T // 2][:, keys.S[0]] = ms[0, : T // 2, None]
    got = enc_membership_arrays(p, keys.M, keys.S, ms, C)
    assert got.shape == (K, T)
    for j in range(K):
        _, sk = keys.pair(j)
        assert got[j].tolist() == enc_membership_batch(sk, ms[j], C[j]).tolist()
        B = [row[: s // 3] for row in keys.M[j][keys.S[j]].tolist()]
        for t in range(T):
            v = (C[j, t, keys.S[j]] ^ ms[j, t]).tolist()
            assert bool(got[j, t]) == ref_member(B, v, p.field.q, p.field.modulus)


def test_stacked_audit_agrees_with_aux_is_good():
    p = Params(n=16, r=6, s=3, field=FieldSpec(4), eta=0.05)
    rng = np.random.default_rng(5)
    src, tgt, link = zip(*(
        (draw_key(p, rng), draw_key(p, rng), draw_encryption(p, rng, p.n)) for _ in range(40)
    ))
    src, tgt = key_stack(p, src), key_stack(p, tgt)
    Z = encrypt_arrays(p.field, tgt.P, src.y, *stack_tuples(link))
    good = enc_membership_arrays(p, tgt.M, tgt.S, src.y, Z).all(axis=1)
    want = [aux_is_good(Z[t], src.pair(t)[1], tgt.pair(t)[1]) for t in range(40)]
    assert good.tolist() == want
    assert 0 < sum(want) < 40
