"""Linear algebra kernels against the naive references in gf_refs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from codehom.errors import ParameterError, UsageError
from codehom import field, linalg
from codehom.field import FieldElement, FieldSpec, random_elements
from codehom.linalg import (
    dot_arrays,
    matmul_arrays,
    random_unimodular_array,
    rank_batch,
    unimodular_draws,
    unimodular_from_draws,
    rref_array,
    solve_canonical_array,
    vandermonde_array,
)

from gf_refs import ref_det, ref_matmul, ref_matvec, ref_mul, ref_pow, ref_powers, ref_rank_by_span
from oracles import tensor_row_array

F4 = FieldSpec(2)
F16 = FieldSpec(4)
F256 = FieldSpec(8)


def arr(spec, values):
    return np.array(values, dtype=spec.dtype)


def rank_of(spec, A):
    # one matrix through the lockstep kernel
    return int(rank_batch(spec, np.asarray(A)[None])[0])


# --- products ------------------------------------------------------------------

def test_matvec_identity_and_zero():
    x = arr(F16, [3, 7, 12])
    I = np.eye(3, dtype=F16.dtype)
    assert np.array_equal(dot_arrays(F16, I, x[None, :]), x)
    zero_y = arr(F16, [0, 0, 0])
    assert int(dot_arrays(F16, zero_y, x)) == 0


def test_char2_ones_matrix():
    # all-ones 2x2 times (a, a) gives (a+a, a+a) = 0
    a = 9
    M = arr(F16, [[1, 1], [1, 1]])
    out = dot_arrays(F16, M, arr(F16, [a, a])[None, :])
    assert out.tolist() == [0, 0]


def test_matvec_matches_reference():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m, n = rng.integers(1, 7, size=2)
        A = random_elements(F256, rng, (m, n))
        x = random_elements(F256, rng, n)
        got = dot_arrays(F256, A, x[None, :])
        want = ref_matvec(A.tolist(), x.tolist(), F256.modulus)
        assert got.tolist() == want
        # a block of vectors: one product row per row of X
        X = random_elements(F256, rng, (3, n))
        got = dot_arrays(F256, A, X[:, None, :])
        assert got.tolist() == [ref_matvec(A.tolist(), x.tolist(), F256.modulus) for x in X]


def test_matmul_matches_composition():
    rng = np.random.default_rng(22)
    A = random_elements(F256, rng, (5, 4))
    B = random_elements(F256, rng, (4, 6))
    x = random_elements(F256, rng, 6)
    lhs = dot_arrays(F256, matmul_arrays(F256, A, B), x[None, :])
    rhs = dot_arrays(F256, A, dot_arrays(F256, B, x[None, :])[None, :])
    assert np.array_equal(lhs, rhs)


def test_matmul_batched():
    rng = np.random.default_rng(23)
    A = random_elements(F16, rng, (10, 3, 4))
    B = random_elements(F16, rng, (10, 4, 2))
    out = matmul_arrays(F16, A, B)
    assert out.shape == (10, 3, 2)
    for t in range(10):
        assert np.array_equal(out[t], matmul_arrays(F16, A[t], B[t]))


def check_matmul_against_ref(spec, A, B):
    out = matmul_arrays(spec, A, B)
    batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    assert out.dtype == spec.dtype
    assert out.shape == batch + (A.shape[-2], B.shape[-1])
    A_b = np.broadcast_to(A, batch + A.shape[-2:])
    B_b = np.broadcast_to(B, batch + B.shape[-2:])
    for ix in np.ndindex(*batch):
        want = ref_matmul(A_b[ix].tolist(), B_b[ix].tolist(), B.shape[-1], spec.modulus)
        assert out[ix].tolist() == want, ix


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([2, 4, 8]),
    batches=mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=3),
    m=st.integers(0, 24),
    p=st.integers(0, 4),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_naive_product(k, batches, m, p, n, seed):
    # Broadcast batch axes on either side; over GF(4) and GF(16) the taller
    # products take mul_arrays' row-table case at every contraction step.
    spec = FieldSpec(k)
    rng = np.random.default_rng(seed)
    ba, bb = batches.input_shapes
    A = random_elements(spec, rng, ba + (m, p))
    B = random_elements(spec, rng, bb + (p, n))
    A[rng.random(A.shape) < 0.2] = 0
    check_matmul_against_ref(spec, A, B)


@settings(max_examples=10, deadline=None)
@given(k=st.sampled_from([4, 8, 16, 32, 64]), over=st.booleans(),
       t=st.sampled_from([16, 32]), seed=st.integers(0, 2**32 - 1))
def test_matmul_either_side_of_small_product_cutoff(k, over, t, seed):
    # Batch (2, 2) x m x t x n products with t * n = 512: m = 16 is exactly
    # _SMALL_PRODUCT elements and takes one mul_arrays call; m = 17 is one
    # row over it and takes the t-step loop. Both must equal the naive
    # product.
    assert linalg._SMALL_PRODUCT == 2 * 2 * 16 * 512
    spec = FieldSpec(k)
    rng = np.random.default_rng(seed)
    A = random_elements(spec, rng, (2, 1, 16 + over, t))
    B = random_elements(spec, rng, (2, t, 512 // t))
    A[rng.random(A.shape) < 0.1] = 0
    with mock.patch.object(linalg, "mul_arrays", wraps=linalg.mul_arrays) as spy:
        check_matmul_against_ref(spec, A, B)
    assert spy.call_count == (t if over else 1)


@pytest.fixture
def tabled_rows(monkeypatch):
    """Row operand shape of every mul_arrays call that takes the row-table case."""
    rows, real = [], field._mul_rows
    monkeypatch.setattr(field, "_mul_rows",
                        lambda spec, col, row, n: rows.append(row.shape) or real(spec, col, row, n))
    return rows


def test_matmul_row_tables_gf256(tabled_rows):
    # (2, m, 3) x (3, 5) is one mul_arrays call of (2, m, 3, 1) x (3, 5)
    # columns and rows: a table of 3 x 256 x 5 multiples of B's rows against
    # 2 x m x 3 x 5 outputs. m = q/2 puts the table exactly at the output's
    # size, on the row path; one row fewer stays element-wise.
    rng = np.random.default_rng(24)
    for m, row_path in ((F256.q // 2 - 1, False), (F256.q // 2, True)):
        A = random_elements(F256, rng, (2, m, 3))
        A[:, ::7] = 0
        B = random_elements(F256, rng, (3, 5))
        tabled_rows.clear()
        check_matmul_against_ref(F256, A, B)
        assert len(tabled_rows) == row_path, m


def test_elimination_row_tables_on_tall_matrices(tabled_rows):
    # A rank_batch or rref update multiplies an (m, 1) column of factors by
    # a pivot row of length n: its table q x n is no larger than its m x n
    # output once m >= q. With q + 3 rows the updates take the row-table
    # case; the 4-row transposes do not.
    rng = np.random.default_rng(25)
    m = F16.q + 3
    stack = random_elements(F16, rng, (6, m, 4))
    stack[1, :, 3] = stack[1, :, 0]
    stack[2, :, 1:] = 0
    got = rank_batch(F16, stack)
    assert tabled_rows
    tabled_rows.clear()
    assert got.tolist() == rank_batch(F16, stack.transpose(0, 2, 1)).tolist()
    assert not tabled_rows
    assert got.tolist()[:3] == [4, 3, 1]
    A = stack[0]
    b = dot_arrays(F16, A, random_elements(F16, rng, 4)[None, :])
    y = solve_canonical_array(F16, A, b)
    assert ref_matvec(A.tolist(), y.tolist(), F16.modulus) == b.tolist()


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([4, 8, 16, 32]),
    batches=mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=2),
    shared=st.booleans(),
    long=st.integers(1, 300),
    short=st.integers(1, 4),
    tall=st.booleans(),
    t=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_loop_matches_naive_product(k, batches, shared, long, short, tall, t, seed):
    # The contraction loop (the one-call path switched off) on shapes where
    # either operand's step slice is the smaller, so either one is tabled:
    # a tall A (long m, short n) tables B's rows, a wide B A's columns. With
    # `shared`, one unbatched B against a stack of A, as an encryption of
    # stacked X under one key's P^T. Long sides up to 300 reach the row
    # path for q = 16 and q = 256.
    spec = FieldSpec(k)
    rng = np.random.default_rng(seed)
    ba, bb = ((2,), ()) if shared else batches.input_shapes
    m, n = (long, short) if tall else (short, long)
    A = random_elements(spec, rng, ba + (m, t))
    B = random_elements(spec, rng, bb + (t, n))
    A[rng.random(A.shape) < 0.2] = 0
    with mock.patch.object(linalg, "_SMALL_PRODUCT", 0):
        check_matmul_against_ref(spec, A, B)


@pytest.mark.parametrize("k, shape_a, shape_b, tabled", [
    (4, (300, 3), (3, 5), (1, 5)),          # A's slice 300 > B's 5: B's rows
    (8, (2, 4, 3), (3, 256), (2, 1, 4)),    # stacked X (8 rows) against one P^T (256)
    (4, (4, 3), (2, 3, 8), (1, 4)),         # A's slice 4 < B's 2 x 8: A's columns
    (4, (32, 3), (2, 3, 16), (2, 1, 16)),   # equal slices, 32 each, keep B's rows
    (8, (4, 3), (3, 5), None),              # either table would outgrow the output
])
def test_matmul_tables_the_smaller_operand(k, shape_a, shape_b, tabled, tabled_rows):
    # Every contraction step tables the operand with the smaller step slice:
    # B's row j, shape B.batch + (1, n), or A's column j as a row, shape
    # A.batch + (1, m).
    spec = FieldSpec(k)
    rng = np.random.default_rng(26)
    A = random_elements(spec, rng, shape_a)
    B = random_elements(spec, rng, shape_b)
    with mock.patch.object(linalg, "_SMALL_PRODUCT", 0):
        check_matmul_against_ref(spec, A, B)
    assert tabled_rows == ([tabled] * A.shape[-1] if tabled else [])


@pytest.mark.parametrize("r", [1, 31, 32, 33, 64, 215])
def test_blocked_lu_matches_full_product(r):
    # unimodular_from_draws contracts L · U in column blocks and skips
    # their structural zeros; the full matmul_arrays(L, U), with its
    # columns placed by the permutation, is the oracle. Three stacked keys.
    spec = F256
    rng = np.random.default_rng(27 + r)
    draws = [np.array(d) for d in zip(*(unimodular_draws(spec, r, rng) for _ in range(3)))]
    lower, upper, perm = draws
    L = np.zeros((3, r, r), dtype=spec.dtype)
    U = np.zeros((3, r, r), dtype=spec.dtype)
    below = np.tri(r, r, -1, dtype=bool)
    L[:, below] = lower
    U[:, below.T] = upper
    L[:, np.arange(r), np.arange(r)] = U[:, np.arange(r), np.arange(r)] = 1
    want = np.empty_like(L)
    for t in range(3):
        want[t][:, perm[t]] = matmul_arrays(spec, L[t], U[t])
    with mock.patch.object(linalg, "matmul_arrays", wraps=linalg.matmul_arrays) as spy:
        got = unimodular_from_draws(spec, *draws)
    assert spy.call_count == -(-r // linalg._LU_BLOCK)
    assert got.dtype == spec.dtype
    assert np.array_equal(got, want)


def test_dimension_mismatch():
    with pytest.raises(UsageError):
        matmul_arrays(F16, arr(F16, [[1, 2]]), arr(F16, [[1, 2]]))
    with pytest.raises(UsageError):
        solve_canonical_array(F16, arr(F16, [[1, 2]]), arr(F16, [1, 2]))


# --- rank ----------------------------------------------------------------------

def test_rank_trivial_cases():
    assert rank_of(F16, arr(F16, [[0, 0], [0, 0], [0, 0]])) == 0
    assert rank_of(F16, arr(F16, [[1, 2], [1, 2], [3, 4]])) == 2  # repeated row
    assert rank_of(F16, vandermonde_array(F16, arr(F16, [2, 3, 7, 11]), 4)) == 4


def test_rank_matches_span_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = random_elements(F4, rng, (m, n))
        got = rank_of(F4, A)
        want = ref_rank_by_span(A.tolist(), F4.q, F4.modulus)
        assert got == want, A


def test_rank_batch_matches_scalar():
    # the lockstep stack against one-trial runs of the same kernel
    rng = np.random.default_rng(32)
    stack = random_elements(F16, rng, (50, 6, 5))
    stack[7, 3] = stack[7, 1]          # force some deficiency
    stack[12] = 0
    stack[20, :, 2] = 0
    got = rank_batch(F16, stack)
    for t in range(50):
        assert got[t] == rank_of(F16, stack[t]), t


def test_rank_invariant_under_unimodular():
    rng = np.random.default_rng(33)
    for _ in range(10):
        A = random_elements(F256, rng, (6, 4))
        A[3] = A[0]  # make it interesting
        R = random_unimodular_array(F256, 4, rng)
        assert rank_of(F256, A) == rank_of(F256, matmul_arrays(F256, A, R))


# --- solving -------------------------------------------------------------------

def test_solve_identity():
    b = arr(F16, [5, 9, 1])
    assert np.array_equal(solve_canonical_array(F16, np.eye(3, dtype=F16.dtype), b), b)


def test_solve_free_variable_zeroed():
    # [1 1] y = [1] over GF(4): pivot on y_0, free y_1 = 0
    y = solve_canonical_array(F4, arr(F4, [[1, 1]]), arr(F4, [1]))
    assert y.tolist() == [1, 0]


def test_solve_inconsistent():
    A = arr(F16, [[1, 2], [1, 2]])
    b = arr(F16, [3, 4])
    assert solve_canonical_array(F16, A, b) is None


def test_solve_satisfies_system():
    rng = np.random.default_rng(41)
    for _ in range(30):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        A = random_elements(F256, rng, (m, n))
        y0 = random_elements(F256, rng, n)
        b = dot_arrays(F256, A, y0[None, :])
        y = solve_canonical_array(F256, A, b)
        assert y is not None
        assert ref_matvec(A.tolist(), y.tolist(), F256.modulus) == b.tolist()


def test_solve_deterministic():
    rng = np.random.default_rng(42)
    A = random_elements(F256, rng, (4, 9))
    b = dot_arrays(F256, A, random_elements(F256, rng, 9)[None, :])
    y1 = solve_canonical_array(F256, A, b)
    y2 = solve_canonical_array(F256, A.copy(), b.copy())
    assert np.array_equal(y1, y2)


def test_rref_shape_properties():
    rng = np.random.default_rng(43)
    A = random_elements(F16, rng, (5, 7))
    R, pivots = rref_array(F16, A)
    for i, c in enumerate(pivots):
        col = R[:, c]
        assert col[i] == 1 and np.count_nonzero(col) == 1
    assert rank_of(F16, R) == len(pivots) == rank_of(F16, A)


# --- vandermonde and tensor ----------------------------------------------------

def test_vandermonde_frozen_gf4():
    g = F4.gamma                       # gamma^4 = gamma, order 3
    M = vandermonde_array(F4, arr(F4, [g.value, (g * g).value]), 2)
    assert M.tolist() == [[2, 3], [3, 2]]


def test_vandermonde_powers_start_at_one():
    pts = [FieldElement(F256, v) for v in (3, 5, 17)]
    M = vandermonde_array(F256, arr(F256, [p.value for p in pts]), 4)
    assert M.shape[1] == 4
    for i, p in enumerate(pts):
        for j in range(4):
            assert int(M[i, j]) == ref_pow(p.value, j + 1, F256.modulus)
    col1 = vandermonde_array(F256, arr(F256, [3, 5, 17]), 1)
    assert col1[:, 0].tolist() == [3, 5, 17]


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 4, 8, 16, 32, 64]), width=st.integers(1, 40),
       shape=st.sampled_from([(), (5,), (2, 3)]), seed=st.integers(0, 2**32 - 1))
def test_vandermonde_doubling_matches_sequential_powers(k, width, shape, seed):
    spec = FieldSpec(k)
    points = random_elements(spec, np.random.default_rng(seed), shape)
    M = vandermonde_array(spec, points, width)
    assert M.shape == shape + (width,) and M.dtype == spec.dtype
    for ix in np.ndindex(*shape):
        assert M[ix].tolist() == ref_powers(int(points[ix]), width, spec.modulus)


def test_vandermonde_rejects_zero_width():
    with pytest.raises(ParameterError):
        vandermonde_array(F16, np.array([1], dtype=F16.dtype), 0)


def test_tensor_row_basics():
    assert tensor_row_array(F16, arr(F16, [0, 0])).tolist() == [0, 0, 0, 0]
    assert tensor_row_array(F16, arr(F16, [1])).tolist() == [1]
    a = FieldElement(F256, 7)
    t = tensor_row_array(F256, arr(F256, [a.value, (a * a).value]))
    a2, a3, a4 = (ref_pow(a.value, e, F256.modulus) for e in (2, 3, 4))
    assert t.tolist() == [a2, a3, a3, a4]


def test_tensor_of_vandermonde_row_is_power_range():
    # row (a, ..., a^w) tensored with itself covers exactly a^2 .. a^2w
    w = 5
    row = np.array([ref_pow(29, j + 1, F256.modulus) for j in range(w)], dtype=F256.dtype)
    t = tensor_row_array(F256, row)
    want = {ref_pow(29, e, F256.modulus) for e in range(2, 2 * w + 1)}
    assert set(t.tolist()) == want


# --- unimodular sampling -------------------------------------------------------

def test_unimodular_r1():
    rng = np.random.default_rng(51)
    M = random_unimodular_array(F16, 1, rng)
    assert M.tolist() == [[1]]


def test_unimodular_det_one_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        M = random_unimodular_array(F16, 4, rng)
        assert ref_det(M.tolist(), F16.modulus) == 1
        assert rank_of(F16, M) == 4


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([4, 8, 16, 32, 64]), r=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_unimodular_is_explicit_lup(k, r, seed):
    # Replay the draws (L below the diagonal, then U above it, both
    # row-major, then the permutation) and multiply L, U and the
    # permutation matrix P[i, perm[i]] = 1 out naively.
    spec = FieldSpec(k)
    rng = np.random.default_rng(seed)
    got = random_unimodular_array(spec, r, rng)
    replay = np.random.default_rng(seed)
    L = np.eye(r, dtype=spec.dtype)
    U = np.eye(r, dtype=spec.dtype)
    il, jl = np.tril_indices(r, -1)
    iu, ju = np.triu_indices(r, 1)
    L[il, jl] = random_elements(spec, replay, il.size)
    U[iu, ju] = random_elements(spec, replay, iu.size)
    P = np.zeros((r, r), dtype=spec.dtype)
    P[np.arange(r), replay.permutation(r)] = 1
    LU = ref_matmul(L.tolist(), U.tolist(), r, spec.modulus)
    assert got.tolist() == ref_matmul(LU, P.tolist(), r, spec.modulus)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_unimodular_rejects_bad_size():
    with pytest.raises(ParameterError):
        random_unimodular_array(F16, 0, np.random.default_rng(0))


# --- batched inner product ----------------------------------------------------

def test_dot_arrays_batched():
    rng = np.random.default_rng(61)
    a = random_elements(F256, rng, (8, 5))
    b = random_elements(F256, rng, (8, 5))
    out = dot_arrays(F256, a, b)
    assert out.shape == (8,)
    for t in range(8):
        acc = 0
        for j in range(5):
            acc ^= ref_mul(int(a[t, j]), int(b[t, j]), F256.modulus)
        assert int(out[t]) == acc
