"""Expander construction and the majority booster."""

import numpy as np
import pytest

from codehom.booster import (
    BoostAux,
    ExpanderGraph,
    boost_arrays,
    boost_aux_gen,
    build_expander,
    second_singular_value,
)
from codehom.circuit import build_apxmaj, compile_schedule, eval_plain_array, layerize
from codehom.errors import ConstructionError, ParameterError, UsageError
from codehom.field import FieldSpec
from codehom.reencrypt import chain_eval_arrays
from codehom.scheme import (
    Params,
    decrypt_batch,
    enc_membership_batch,
    encrypt_batch,
    keygen,
)

from oracles import bad_neighbor_counts, gtree_circuit, heavy_output_bound

GF16 = FieldSpec(4)
GF256 = FieldSpec(8)
P_SRC = Params(n=16, r=6, s=3, field=GF16, eta=0.0)
P_TGT = Params(n=12, r=5, s=3, field=GF16, eta=0.0)


@pytest.fixture(scope="module")
def maj8():
    return build_apxmaj(8, np.random.default_rng(3))


@pytest.fixture(scope="module")
def graph16():
    return build_expander(16, 8, 0.9, np.random.default_rng(5))


@pytest.fixture(scope="module")
def boost_setup(maj8, graph16):
    rng = np.random.default_rng(11)
    pk0, sk0 = keygen(P_SRC, rng)
    pk1, sk1 = keygen(P_TGT, rng)
    aux = boost_aux_gen(sk0, pk1, graph16, maj8, rng)
    return pk0, sk0, pk1, sk1, aux


# ---------------------------------------------------------------------------
# Spectral measurement.


def test_second_singular_hand_cases():
    # two isolated vertices: A = I, both singular values 1
    assert second_singular_value(np.array([[0], [1]])) == pytest.approx(1.0)
    # both outputs read input 0: A has rank 1
    assert second_singular_value(np.array([[0], [0]])) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("k,b", [(9, 3), (12, 4), (16, 8)])
def test_second_singular_matches_svd(k, b):
    rng = np.random.default_rng(100 + k)
    adjacency = np.argsort(rng.random((k, k)), axis=1)[:, :b]
    B = np.zeros((k, k))
    B[np.repeat(np.arange(k), b), adjacency.reshape(-1)] = 1.0
    sigma = np.linalg.svd(B / b, compute_uv=False)
    ours = second_singular_value(adjacency)
    assert ours == pytest.approx(float(sigma[1]), abs=1e-8)


def test_complete_bipartite_is_rank_one():
    for k in (8, 16):
        g = build_expander(k, k, 1e-6, np.random.default_rng(k))
        assert g.lambda_measured <= 1e-6
        for row in g.adjacency:
            assert sorted(row) == list(range(k))


def test_random_graph_meets_target():
    g = build_expander(64, 16, 0.6, np.random.default_rng(7))
    assert 0.05 < g.lambda_measured <= 0.6
    assert g.adjacency.shape == (64, 16)


def test_target_below_floor_fails_fast():
    with pytest.raises(ConstructionError, match="floor"):
        build_expander(16, 8, 0.05, np.random.default_rng(0))


def test_expander_parameter_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        build_expander(8, 9, 0.5, rng)
    with pytest.raises(ParameterError):
        build_expander(8, 0, 0.5, rng)
    with pytest.raises(ParameterError):
        build_expander(1, 1, 0.5, rng)


def test_adjacency_rows_distinct(graph16):
    assert graph16.adjacency.shape == (16, 8)
    for row in graph16.adjacency:
        assert len(set(row.tolist())) == 8
    assert graph16.adjacency.min() >= 0 and graph16.adjacency.max() < 16


def test_expander_determinism():
    a = build_expander(32, 8, 0.9, np.random.default_rng(42))
    b = build_expander(32, 8, 0.9, np.random.default_rng(42))
    assert np.array_equal(a.adjacency, b.adjacency)
    assert a.lambda_measured == b.lambda_measured


# ---------------------------------------------------------------------------
# Mixing.


def test_bad_neighbor_counts_hand():
    g = ExpanderGraph(4, 2, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]), 0.0)
    counts = bad_neighbor_counts(g, np.array([True, False, False, True]))
    assert counts.tolist() == [1, 0, 1, 2]


def test_mixing_bound_on_random_bad_sets():
    g = build_expander(64, 16, 0.6, np.random.default_rng(13))
    rng = np.random.default_rng(14)
    cap = heavy_output_bound(g)
    for _ in range(100):
        mask = np.zeros(64, dtype=bool)
        mask[rng.choice(64, size=4, replace=False)] = True
        heavy = int((bad_neighbor_counts(g, mask) >= 2).sum())
        assert heavy <= cap


# ---------------------------------------------------------------------------
# Boost aux generation.


def test_aux_structure(boost_setup, graph16):
    *_, aux = boost_setup
    assert aux.tree_depth == 10
    assert len(aux.level_params) == 12
    assert aux.level_params[0] == P_SRC
    assert aux.level_params[-1] == P_TGT
    assert aux.links[0].shape == (16, 16, 8)
    assert aux.links[5].shape == (16, 8, 8)
    assert aux.links[10].shape == (16, 8, 12)
    assert len(aux.assignment) == 1024
    assert aux.assignment.max() < graph16.b
    assert "16 -> 12" in repr(aux)


def test_aux_validation(maj8, graph16):
    rng = np.random.default_rng(1)
    pk0, sk0 = keygen(P_SRC, rng)
    pk_other, _ = keygen(Params(n=16, r=6, s=3, field=GF256, eta=0.0), rng)
    with pytest.raises(UsageError, match="field"):
        boost_aux_gen(sk0, pk_other, graph16, maj8, rng)
    pk1, _ = keygen(P_TGT, rng)
    wide = np.arange(16)  # leaves read 16 inputs, graph degree is 8
    with pytest.raises(UsageError, match="degree"):
        boost_aux_gen(sk0, pk1, graph16, wide, rng)
    with pytest.raises(ParameterError, match="trapdoor"):
        boost_aux_gen(sk0, pk1, graph16, maj8, rng, mid_n=2)


def test_aux_rejects_bad_leaf_rows(graph16):
    rng = np.random.default_rng(2)
    _, sk0 = keygen(P_SRC, rng)
    pk1, _ = keygen(P_TGT, rng)
    for bad in (np.zeros(8, dtype=np.int64),  # depth 3 is odd
                np.zeros(2, dtype=np.int64),  # depth 1 is below 2
                np.zeros(12, dtype=np.int64),  # not a power of two
                np.zeros((4, 4), dtype=np.int64),
                np.zeros(16)):  # not integers
        with pytest.raises(UsageError, match="leaf row"):
            boost_aux_gen(sk0, pk1, graph16, bad, rng)
    with pytest.raises(UsageError, match="degree"):
        boost_aux_gen(sk0, pk1, graph16, np.full(16, -1), rng)


def test_aux_determinism(maj8, graph16):
    def make():
        rng = np.random.default_rng(77)
        pk0, sk0 = keygen(P_SRC, rng)
        pk1, _ = keygen(P_TGT, rng)
        return boost_aux_gen(sk0, pk1, graph16, maj8, rng)

    a, b = make(), make()
    for la, lb in zip(a.links, b.links):
        assert np.array_equal(la, lb)


# ---------------------------------------------------------------------------
# Boosting.


def test_all_good_parts(boost_setup):
    pk0, sk0, pk1, sk1, aux = boost_setup
    rng = np.random.default_rng(21)
    for m in (0, 1):
        C = encrypt_batch(pk0, np.full(16, m), rng)
        out = boost_arrays(aux, C)
        assert out.shape == (16, 12)
        assert (decrypt_batch(sk1, out) == m).all()
        assert enc_membership_batch(sk1, np.full(16, m), out).all()


def test_one_junk_part_absorbed(boost_setup):
    # distinct adjacency rows mean one bad part touches each output at
    # most once, within the b/8 tolerance: every output must come back
    pk0, sk0, pk1, sk1, aux = boost_setup
    for seed, m in ((31, 0), (32, 1), (33, 1)):
        rng = np.random.default_rng(seed)
        C = encrypt_batch(pk0, np.full(16, m), rng)
        C[rng.integers(16)] = rng.integers(16, size=16, dtype=np.uint8)
        out = boost_arrays(aux, C)
        assert (decrypt_batch(sk1, out) == m).all()
        assert enc_membership_batch(sk1, np.full(16, m), out).all()


def test_exact_mirror_on_arbitrary_parts(boost_setup, maj8, graph16):
    # noiseless chains compute exactly the majority circuit applied to
    # whatever the parts decrypt to, field junk included
    pk0, sk0, pk1, sk1, aux = boost_setup
    for seed in (41, 42, 43):
        rng = np.random.default_rng(seed)
        C = rng.integers(16, size=(16, 16), dtype=np.uint8)
        vals = decrypt_batch(sk0, C)
        expected = eval_plain_array(GF16, gtree_circuit(8, maj8), vals[graph16.adjacency.T])[0]
        out = boost_arrays(aux, C)
        assert np.array_equal(decrypt_batch(sk1, out), expected)
        assert enc_membership_batch(sk1, expected, out).all()


def test_matches_generic_chain_engine(boost_setup, maj8, graph16):
    pk0, sk0, pk1, sk1, aux = boost_setup
    rng = np.random.default_rng(51)
    C = rng.integers(16, size=(16, 16), dtype=np.uint8)
    lc = layerize(gtree_circuit(8, maj8))
    assert compile_schedule(lc, False, 1).depth == aux.tree_depth
    X = C[graph16.adjacency].transpose(1, 0, 2)
    ref = chain_eval_arrays(aux.level_params, list(aux.links), lc, X)[0]
    assert np.array_equal(boost_arrays(aux, C), ref)


def test_batched_blocks_match_single(boost_setup):
    pk0, sk0, pk1, sk1, aux = boost_setup
    rng = np.random.default_rng(61)
    C = rng.integers(16, size=(3, 16, 16), dtype=np.uint8)
    out = boost_arrays(aux, C)
    assert out.shape == (3, 16, 12)
    for t in range(3):
        assert np.array_equal(out[t], boost_arrays(aux, C[t]))


def test_boost_arrays_shape_check(boost_setup):
    *_, aux = boost_setup
    with pytest.raises(UsageError):
        boost_arrays(aux, np.zeros((16, 9), dtype=np.uint8))
    with pytest.raises(UsageError):
        boost_arrays(aux, np.zeros((5, 16), dtype=np.uint8))
