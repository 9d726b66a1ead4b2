"""Field arithmetic against an independent schoolbook oracle.

The oracle below multiplies polynomials coefficient by coefficient and
reduces by long division, sharing no code with the library's table and
bit-loop kernels. Frozen values were computed by hand from the modulus.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from codehom import field
from codehom.errors import ParameterError, UsageError
from codehom.field import (
    MODULI,
    FieldElement,
    FieldSpec,
    inv_arrays,
    mul_arrays,
    _mul_bitloop,
    _scalar_mul,
    pow_arrays,
    random_distinct,
    random_distinct_batch,
    random_elements,
    random_nonzero,
)

from gf_refs import ref_pow


def oracle_mul(a: int, b: int, modulus: int) -> int:
    """Schoolbook carry-less multiply, then long division by the modulus."""
    prod = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            prod ^= a << i
        i += 1
    deg_m = modulus.bit_length() - 1
    while prod.bit_length() - 1 >= deg_m and prod:
        prod ^= modulus << (prod.bit_length() - 1 - deg_m)
    return prod


def oracle_inv(a: int, modulus: int) -> int:
    # Brute force; only used for small fields.
    q = 1 << (modulus.bit_length() - 1)
    for b in range(1, q):
        if oracle_mul(a, b, modulus) == 1:
            return b
    raise AssertionError(f"no inverse for {a}")


SPECS = {k: FieldSpec(k) for k in MODULI}


# --- frozen values in GF(4), modulus x^2 + x + 1 ------------------------------

def test_gf4_frozen():
    f = SPECS[2]
    g = FieldElement(f, 2)  # gamma, the residue of x
    assert (g * g).value == 3                   # x^2 = x + 1
    assert int(inv_arrays(f, g.value)) == 3     # x(x+1) = x^2 + x = 1
    assert int(pow_arrays(f, g.value, 3)) == 1  # multiplicative order 3


def test_gf256_frozen():
    # AES field: {53}*{CA} = {01} is the textbook inverse pair.
    f = SPECS[8]
    assert (FieldElement(f, 0x53) * FieldElement(f, 0xCA)).value == 1
    assert int(inv_arrays(f, 0x53)) == 0xCA


# --- oracle cross-checks ------------------------------------------------------

@pytest.mark.parametrize("k", sorted(MODULI))
def test_scalar_mul_matches_oracle(k):
    f = SPECS[k]
    rng = np.random.default_rng(1000 + k)
    if f.q <= 256:
        pairs = [(a, b) for a in range(f.q) for b in range(f.q)]
    else:
        draws = rng.integers(0, f.q, size=(2000, 2), dtype=np.uint64)
        pairs = [(int(a), int(b)) for a, b in draws]
    for a, b in pairs:
        got = (FieldElement(f, a) * FieldElement(f, b)).value
        assert got == oracle_mul(a, b, f.modulus), (k, a, b)


@pytest.mark.parametrize("k", sorted(MODULI))
def test_array_mul_matches_oracle(k):
    f = SPECS[k]
    rng = np.random.default_rng(2000 + k)
    a = random_elements(f, rng, 512)
    b = random_elements(f, rng, 512)
    got = mul_arrays(f, a, b)
    assert got.dtype == f.dtype
    for i in range(512):
        assert int(got[i]) == oracle_mul(int(a[i]), int(b[i]), f.modulus)


def test_table_and_bitloop_agree():
    # Both code paths exist for k <= 16; they must be interchangeable.
    for k in (2, 4, 8, 16):
        f = SPECS[k]
        rng = np.random.default_rng(3000 + k)
        a = random_elements(f, rng, 4096)
        b = random_elements(f, rng, 4096)
        assert np.array_equal(mul_arrays(f, a, b), _mul_bitloop(f, a, b))


def test_array_mul_broadcasts():
    f = SPECS[8]
    rng = np.random.default_rng(7)
    a = random_elements(f, rng, (5, 1, 3))
    b = random_elements(f, rng, (4, 1))
    out = mul_arrays(f, a, b)
    assert out.shape == (5, 4, 3)
    for i in range(5):
        for j in range(4):
            for l in range(3):
                assert int(out[i, j, l]) == oracle_mul(int(a[i, 0, l]), int(b[j, 0]), f.modulus)


# --- the two table cases of mul_arrays ----------------------------------------

TABLE_KS = (2, 4, 8, 16)
PRODUCT_KS = (2, 4, 8)  # the degrees with a product table, and so a row case


def sample(f, rng, shape, zero_rate):
    x = random_elements(f, rng, shape)
    x[rng.random(shape) < zero_rate] = 0
    return x


def checked_mul(f, a, b):
    """mul_arrays against the bit loop; also checks dtype, shape and inputs."""
    a0, b0 = np.copy(a), np.copy(b)
    got = mul_arrays(f, a, b)
    want = _mul_bitloop(f, np.asarray(a, dtype=f.dtype), np.asarray(b, dtype=f.dtype))
    assert isinstance(got, np.ndarray) and got.dtype == f.dtype
    assert got.shape == np.broadcast_shapes(np.shape(a), np.shape(b))
    assert np.array_equal(got, want)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
    return got


@pytest.mark.parametrize("k", TABLE_KS)
def test_log_exp_tables_cover_every_sum(k):
    f = SPECS[k]
    q, log, exp = f.q, f._log, f._exp
    assert int(log[0]) == 2 * (q - 1)
    assert sorted(log[1:].tolist()) == list(range(q - 1))
    nz = np.arange(1, q)
    assert np.array_equal(exp[log[nz]], nz)
    # The largest sum of two logs, formed in the logs' own dtype, must not
    # wrap and must index inside exp; every sum with a zero's log hits the tail.
    assert int(log.max() + log.max()) == 4 * (q - 1) == exp.size - 1
    assert not exp[2 * q - 3 :].any()
    assert not exp[log[0] + log].any()


@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from(TABLE_KS),
    shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=4, min_side=0, max_side=5),
    zero_rate=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_arrays_broadcast_matches_bitloop(k, shapes, zero_rate, seed):
    # Any broadcast pair, 0-d and empty shapes included.
    f = SPECS[k]
    rng = np.random.default_rng(seed)
    sa, sb = shapes.input_shapes
    checked_mul(f, sample(f, rng, sa, zero_rate), sample(f, rng, sb, zero_rate))


# (column batch, row batch) pairs; None makes the row operand 1-D.
COL_ROW_BATCHES = [((), ()), ((3,), ()), ((), None), ((2, 1), (3,)), ((), (2,)), ((1,), (2, 3))]


@settings(max_examples=100, deadline=None)
@given(
    k=st.sampled_from(PRODUCT_KS),
    batches=st.sampled_from(COL_ROW_BATCHES),
    n=st.integers(2, 4),
    step=st.sampled_from([-1, 0, 1, None]),
    zero_rate=st.sampled_from([0.0, 0.3, 1.0]),
    swap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_arrays_column_times_row_matches_bitloop(k, batches, n, step, zero_rate, swap, seed):
    # Column length one step either side of the table cut-off, or small.
    f = SPECS[k]
    rng = np.random.default_rng(seed)
    cb, rb = batches
    row_shape = (n,) if rb is None else rb + (1, n)
    batch = np.broadcast_shapes(cb, rb or ())
    # table = rows * q * n and output = prod(batch) * length * n
    edge = -(-int(np.prod(rb or ())) * f.q // int(np.prod(batch)))
    length = int(rng.integers(0, 6)) if step is None else max(edge + step, 0)
    col = sample(f, rng, cb + (length, 1), zero_rate)
    row = sample(f, rng, row_shape, zero_rate)
    if swap:
        col, row = row, col
    checked_mul(f, col, row)


@pytest.mark.parametrize("k", TABLE_KS)
def test_row_table_cut_off(k, monkeypatch):
    # GF(2^16) has no product table to slice rows from: it never takes the row case.
    f = SPECS[k]
    rng = np.random.default_rng(6000 + k)
    taken = []
    real = field._mul_rows
    monkeypatch.setattr(field, "_mul_rows", lambda *args: taken.append(1) or real(*args))
    edge = f.q  # column length where table = output
    row = sample(f, rng, (1, 3), 0.3)
    for length, row_path in ((edge - 1, False), (edge, True)):
        col = sample(f, rng, (length, 1), 0.3)
        for a, b in ((col, row), (row, col)):
            taken.clear()
            checked_mul(f, a, b)
            assert taken == [1] * (row_path and k in PRODUCT_KS), (length, a.shape)


@pytest.mark.parametrize("k", TABLE_KS)
@pytest.mark.parametrize("sa, sb", [
    ((5, 1), (1, 0)),        # n = 0: an empty table, taken at any column length
    ((2, 0, 1), (2, 1, 4)),  # no column entries
    ((0, 3, 1), (0, 1, 4)),  # no rows in the row operand
    ((), (4,)),              # 0-d times a vector
    ((), ()),
])
def test_mul_arrays_empty_and_scalar(k, sa, sb):
    f = SPECS[k]
    rng = np.random.default_rng(7000 + k)
    a, b = sample(f, rng, sa, 0.3), sample(f, rng, sb, 0.3)
    checked_mul(f, a, b)
    checked_mul(f, b, a)


# --- the product table (k <= 8) ------------------------------------------------

@pytest.mark.parametrize("k", [2, 4, 8])
def test_product_table_exhaustive(k):
    f = SPECS[k]
    prod = f._prod.reshape(f.q, f.q)
    want = [[_scalar_mul(a, b, k, f.modulus) for b in range(f.q)] for a in range(f.q)]
    assert prod.dtype == f.dtype
    assert np.array_equal(prod, np.array(want, dtype=f.dtype))


@pytest.mark.parametrize("k", [16, 32, 64])
def test_no_product_table_above_k8(k):
    assert SPECS[k]._prod is None


@pytest.mark.parametrize("k", TABLE_KS)
def test_cached_tables_are_read_only(k):
    f = SPECS[k]
    tables = [f._exp, f._log] + ([f._prod] if f._prod is not None else [])
    for table in tables:
        before = table.copy()
        with pytest.raises(ValueError):
            table[1] = 0
        with pytest.raises(ValueError):
            table ^= 1
        assert np.array_equal(table, before)


@pytest.mark.parametrize("k", TABLE_KS)
@pytest.mark.parametrize("sa, sb", [
    ((64, 8), (64, 8)),                       # element-wise
    ((16, 1), (1, 4)),                        # row path for k <= 4: table 4q, output 64
    ((), ()),
])
def test_in_place_xor_on_a_product_leaves_tables_intact(k, sa, sb):
    # walk_gtree does V ^= 1 on mul_arrays output; no result may alias a table.
    f = SPECS[k]
    rng = np.random.default_rng(8000 + k)
    a, b = sample(f, rng, sa, 0.3), sample(f, rng, sb, 0.3)
    first = mul_arrays(f, a, b)
    first ^= f.dtype(1)
    checked_mul(f, a, b)
    checked_mul(f, b, a)
    x = random_elements(f, rng, 4096)
    checked_mul(f, x, x[::-1])


@settings(max_examples=100, deadline=None)
@given(
    k=st.sampled_from(TABLE_KS),
    shape=st.lists(st.integers(0, 5), min_size=0, max_size=3).map(tuple),
    half=st.integers(0, 6),
    zero_rate=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_arrays_strided_halves_match_bitloop(k, shape, half, zero_rate, seed):
    # walk_gtree multiplies V[0::2] by V[1::2]: strided views of one stack.
    f = SPECS[k]
    rng = np.random.default_rng(seed)
    V = sample(f, rng, (2 * half,) + shape, zero_rate)
    checked_mul(f, V[0::2], V[1::2])
    if shape:
        W = sample(f, rng, shape + (2 * half,), zero_rate)
        checked_mul(f, W[..., 1::2], W[..., 0::2])


# --- the blocked gather --------------------------------------------------------

BLOCK = field._GATHER_BLOCK
# Output sizes either side of one block, and several blocks plus a
# remainder; None makes both operands 0-d.
GATHER_SIZES = [None, 0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17]


def operand_pair(f, rng, size, layout, zero_rate):
    """Two operands whose product holds size elements (2 or 3 times that
    for "outer" and "transposed"), laid out as the kernels' callers lay
    them out."""
    if size is None:
        return sample(f, rng, (), zero_rate), sample(f, rng, (), zero_rate)
    if layout == "zero-d":
        return sample(f, rng, (size,), zero_rate), sample(f, rng, (), zero_rate)
    if layout == "outer":  # both operands broadcast; the column is too short for the row case
        return sample(f, rng, (1, size), zero_rate), sample(f, rng, (2, 1), zero_rate)
    if layout == "halves":  # walk_gtree's V[0::2] x V[1::2]
        V = sample(f, rng, (2 * size,), zero_rate)
        return V[0::2], V[1::2]
    if layout == "transposed":  # Fortran-ordered operands give a Fortran-ordered index
        X = sample(f, rng, (2, 3, size), zero_rate)
        return X[0].T, X[1].T
    return sample(f, rng, (size,), zero_rate), sample(f, rng, (size,), zero_rate)


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from((4, 8, 16)),
    size=st.sampled_from(GATHER_SIZES),
    layout=st.sampled_from(["flat", "zero-d", "outer", "halves", "transposed"]),
    zero_rate=st.sampled_from([0.0, 0.3]),
    swap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_gather_matches_bitloop_and_log_exp(k, size, layout, zero_rate, swap, seed):
    f = SPECS[k]
    rng = np.random.default_rng(seed)
    a, b = operand_pair(f, rng, size, layout, zero_rate)
    if swap:
        a, b = b, a
    got = checked_mul(f, a, b)
    log = f._log.astype(np.int64)
    assert np.array_equal(got, f._exp[log[a] + log[b]])
    nz = np.where(a == 0, 1, a)
    assert np.array_equal(inv_arrays(f, nz), f._exp[(f.q - 1) - log[nz]])


def test_blocked_gather_bounds_transient_memory():
    # The index is uint16, 2 bytes per element; take converts what it is
    # given to intp, 8 bytes per element. Handed the whole index at once
    # that alone is 10 bytes per element on top of the output.
    f = SPECS[8]
    rng = np.random.default_rng(9000)
    n = 1 << 22
    a, b = random_elements(f, rng, n), random_elements(f, rng, n)
    tracemalloc.start()
    try:
        got = mul_arrays(f, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - got.nbytes < 4 * n
    assert np.array_equal(got[:4096], _mul_bitloop(f, a[:4096], b[:4096]))


@pytest.mark.parametrize("size", [BLOCK, 3 * BLOCK + 17])
def test_non_canonical_operand_raises_index_error(size):
    # a << 4 | b leaves the 256-entry GF(16) product table once a >= 16,
    # and a >= 16 leaves the 16-entry log table: in any block of the gather.
    f = SPECS[4]
    rng = np.random.default_rng(9100)
    for at in (0, size // 2, size - 1):
        a, b = random_nonzero(f, rng, size), random_elements(f, rng, size)
        a[at] = 16
        with pytest.raises(IndexError):
            mul_arrays(f, a, b)
        with pytest.raises(IndexError):
            inv_arrays(f, a)
    with pytest.raises(IndexError):
        mul_arrays(f, np.uint8(16), np.uint8(1))
    with pytest.raises(IndexError):
        inv_arrays(f, np.uint8(16))


# --- field axioms -------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 4])
def test_axioms_exhaustive(k):
    f = SPECS[k]
    els = [FieldElement(f, v) for v in range(f.q)]
    one, zero = FieldElement(f, 1), FieldElement(f, 0)
    inv = inv_arrays(f, np.arange(1, f.q))
    for a in els:
        assert (a + zero).value == a.value
        assert (a * one).value == a.value
        assert (a + a).value == 0
        if a.value:
            assert (a * FieldElement(f, int(inv[a.value - 1]))).value == 1
        for b in els:
            assert (a + b).value == (b + a).value
            assert (a * b).value == (b * a).value
            for c in els:
                assert ((a + b) + c).value == (a + (b + c)).value
                assert ((a * b) * c).value == (a * (b * c)).value
                assert (a * (b + c)).value == (a * b + a * c).value


@pytest.mark.parametrize("k", [8, 16, 32, 64])
def test_axioms_random(k):
    f = SPECS[k]
    rng = np.random.default_rng(4000 + k)
    n = 10_000
    a = random_elements(f, rng, n)
    b = random_elements(f, rng, n)
    c = random_elements(f, rng, n)
    ab = mul_arrays(f, a, b)
    assert np.array_equal(ab, mul_arrays(f, b, a))
    assert np.array_equal(mul_arrays(f, ab, c), mul_arrays(f, a, mul_arrays(f, b, c)))
    lhs = mul_arrays(f, a, b ^ c)
    assert np.array_equal(lhs, ab ^ mul_arrays(f, a, c))
    nz = random_nonzero(f, rng, n)
    assert np.all(nz != 0)
    assert np.all(mul_arrays(f, nz, inv_arrays(f, nz)) == 1)


@pytest.mark.parametrize("k", [2, 4])
def test_fermat_exhaustive(k):
    f = SPECS[k]
    assert np.all(pow_arrays(f, np.arange(1, f.q), f.q - 1) == 1)


@pytest.mark.parametrize("k", [16, 32, 64])
def test_fermat_random(k):
    f = SPECS[k]
    rng = np.random.default_rng(5000 + k)
    nz = random_nonzero(f, rng, 256)
    assert np.all(pow_arrays(f, nz, f.q - 1) == 1)


def test_pow_edge_cases():
    f = SPECS[8]
    assert int(pow_arrays(f, 0, 0)) == 1
    assert pow_arrays(f, np.zeros(3, dtype=f.dtype), 0).tolist() == [1, 1, 1]
    assert pow_arrays(f, [7, 0], 1).tolist() == [7, 0]
    with pytest.raises(UsageError):
        pow_arrays(f, 7, -1)
    with pytest.raises(UsageError):
        pow_arrays(f, np.ones(3, dtype=f.dtype), -1)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1), e=st.integers(0, 400))
def test_pow_is_iterated_mul(a, b, e):
    f = SPECS[16]
    x = FieldElement(f, a) * FieldElement(f, b)
    acc = FieldElement(f, 1)
    for _ in range(e % 20):
        acc = acc * x
    assert int(pow_arrays(f, x.value, e % 20)) == acc.value
    assert ref_pow(x.value, e % 20, f.modulus) == acc.value


# --- decomposition ------------------------------------------------------------

def test_decompose_is_gamma_expansion():
    # Bit j of a value is the coefficient of gamma^j: the powers gamma^0 ..
    # gamma^(k-1) picked out by the set bits sum back to the value.
    f = SPECS[8]
    a = 0b1011_0010
    acc = 0
    for j in range(f.k):
        if (a >> j) & 1:
            acc ^= int(pow_arrays(f, 2, j))
    assert acc == a


# --- spec construction and hygiene --------------------------------------------

def test_moduli_table_is_irreducible():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for k, m in MODULI.items():
        poly = sympy.Poly([(m >> (k - j)) & 1 for j in range(k + 1)], x, modulus=2)
        assert poly.degree() == k
        factors = sympy.factor_list(poly, modulus=2)[1]
        assert len(factors) == 1 and factors[0][1] == 1, f"k={k} modulus reducible"


def test_only_builtin_degrees():
    with pytest.raises(ParameterError):
        FieldSpec(7)  # no built-in degree-7 modulus


def test_spec_equality_and_mismatch():
    assert FieldSpec(8) == FieldSpec(8)
    assert FieldSpec(8) != FieldSpec(16)
    a = FieldElement(FieldSpec(8), 3)
    b = FieldElement(FieldSpec(16), 3)
    with pytest.raises(UsageError):
        a + b
    with pytest.raises(UsageError):
        FieldElement(FieldSpec(8), 256)


def test_zero_inverse_rejected():
    # inv_arrays on log/exp tables (k = 16) and on pow_arrays (k = 64)
    for f in (SPECS[16], SPECS[64]):
        with pytest.raises(ZeroDivisionError):
            inv_arrays(f, 0)
        with pytest.raises(ZeroDivisionError):
            inv_arrays(f, np.array([1, 0, 2], dtype=f.dtype))


def test_hex_round_trip():
    # repr prints the value in hex, zero-padded to the field's ceil(k/4) digits
    assert repr(FieldElement(SPECS[16], 0x00B)) == "FieldElement(000b)"
    assert repr(FieldElement(SPECS[2], 2)) == "FieldElement(2)"
    v = FieldElement(SPECS[64], (1 << 63) | 5)
    assert repr(v) == "FieldElement(8000000000000005)"
    assert FieldElement(SPECS[64], int(repr(v)[13:-1], 16)) == v


# --- random sampling helpers --------------------------------------------------

def test_random_elements_full_range_uint64():
    f = SPECS[64]
    rng = np.random.default_rng(99)
    x = random_elements(f, rng, 10_000)
    assert x.dtype == np.uint64
    assert int(x.max()) > 2**63  # top bit gets exercised


def test_random_distinct():
    f = SPECS[4]
    rng = np.random.default_rng(11)
    x = random_distinct(f, rng, 16)
    assert sorted(int(v) for v in x) == list(range(16))
    with pytest.raises(ParameterError):
        random_distinct(f, rng, 17)


def test_random_distinct_batch():
    f = SPECS[8]
    rng = np.random.default_rng(12)
    x = random_distinct_batch(f, rng, 200, 40)
    assert x.shape == (200, 40)
    for row in x:
        assert len({int(v) for v in row}) == 40


def whole_row_redraws(spec, rng, trials, n):
    """random_distinct_batch before the redraw bound: loops for ever near n = q."""
    out = rng.integers(0, spec.q, size=(trials, n), dtype=spec.dtype)
    while True:
        srt = np.sort(out, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if not bad.any():
            return out
        out[bad] = rng.integers(0, spec.q, size=(int(bad.sum()), n), dtype=spec.dtype)


@pytest.mark.parametrize("k, n", [(4, 5), (4, 9), (4, 11), (8, 40), (16, 300)])
@pytest.mark.parametrize("seed", range(4))
def test_random_distinct_batch_keeps_seeded_output(k, n, seed):
    # Where the old loop terminates within the bound, output and rng stream agree.
    f = SPECS[k]
    rng_old, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(random_distinct_batch(f, rng_new, 60, n),
                          whole_row_redraws(f, rng_old, 60, n))
    assert rng_new.integers(1 << 62) == rng_old.integers(1 << 62)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_random_distinct_batch_full_field(k):
    # n = q: each row is a permutation; whole-row redraws alone would not return.
    f = SPECS[k]
    x = random_distinct_batch(f, np.random.default_rng(13), 5, f.q)
    assert x.shape == (5, f.q)
    for row in x:
        assert sorted(row.tolist()) == list(range(f.q))


@pytest.mark.parametrize("k, n, trials", [(4, 16, 5), (4, 14, 40), (8, 256, 3), (8, 100, 50)])
def test_random_distinct_batch_skips_hopeless_redraws(k, n, trials):
    # When the redraws would almost surely all be spent, the colliding rows
    # of the first draw go straight to random_distinct: no rng draws between.
    f = SPECS[k]
    rng = np.random.default_rng(15)
    want = rng.integers(0, f.q, size=(trials, n), dtype=f.dtype)
    for i in range(trials):
        if len(set(want[i].tolist())) < n:
            want[i] = random_distinct(f, rng, n)
    got = random_distinct_batch(f, np.random.default_rng(15), trials, n)
    assert np.array_equal(got, want)


def test_random_distinct_batch_fallback_is_uniform(monkeypatch):
    # With no whole-row redraws every colliding row comes from random_distinct;
    # rows must still be uniform over the 4! orderings of GF(4).
    monkeypatch.setattr(field, "_REDRAW_ROUNDS", 0)
    x = random_distinct_batch(SPECS[2], np.random.default_rng(14), 4800, 4)
    codes = (x.astype(np.int64) * np.array([64, 16, 4, 1])).sum(axis=1)
    _, counts = np.unique(codes, return_counts=True)
    assert len(counts) == 24 and counts.sum() == 4800
    assert counts.min() > 140 and counts.max() < 260  # 200 expected each


@settings(max_examples=100, deadline=None)
@given(a=st.integers(0, 2**32 - 1), b=st.integers(0, 2**32 - 1))
def test_bitloop_matches_oracle_gf32(a, b):
    f = SPECS[32]
    got = int(mul_arrays(f, np.uint32(a), np.uint32(b)))
    assert got == oracle_mul(a, b, f.modulus)
