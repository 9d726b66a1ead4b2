"""Arithmetic in binary extension fields GF(2^k).

Elements are stored as integer bit patterns: bit j of the value is the
coefficient of gamma^j, where gamma is the residue of the indeterminate in
F_2[x]/(modulus). Scalar work goes through FieldElement; bulk work goes
through the *_arrays kernels, which operate on numpy integer arrays and
carry no per-element Python overhead.

For k <= 16 multiplication runs on tables cached per k and shared,
read-only, by every spec of that degree. Zero gets the sentinel log
2(q-1) and exp ends in a zero tail, so any product with a zero factor
indexes that tail: a * b is exp[log[a] + log[b]] with no zero masks. For
k <= 8 a q x q product table (256 B at k = 4, 64 KB at k = 8) makes a
product one gather instead: prod[(a << k) | b]. For k <= 8 mul_arrays
adds a second case, for column-times-row products such as the steps of
matmul_arrays: a table of every multiple of each row, sliced from the
product table and gathered a whole row at a time. Above k = 16
multiplication is a shift-and-reduce bit loop.

Every table lookup is an ndarray.take (_gather). On a desk level-1 gate
shape, (2048, 3, 32, 16) at k = 8, take runs 1.4-1.8 ns per element
where indexing the table with the same uint16 index ran 3.1-3.5 ns
(best of 7, numpy 2.4 on a 2-core Xeon host). take first copies its
whole index to intp, 8 bytes per element, so a long index is gathered
in blocks of _GATHER_BLOCK elements: the copy then stays at 512 KB,
where a 4M-element product would need 32 MB. 2^16 was the fastest of
the block sizes 2^12 to 2^18 on that shape at k = 8 and k = 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UsageError

# Irreducible moduli over F_2, degree k, leading coefficient included.
MODULI = {
    2: 0b111,                    # x^2 + x + 1
    4: 0x13,                     # x^4 + x + 1
    8: 0x11B,                    # x^8 + x^4 + x^3 + x + 1
    16: 0x1100B,                 # x^16 + x^12 + x^3 + x + 1
    32: 0x100400007,             # x^32 + x^22 + x^2 + x + 1
    64: 0x1000000000000001B,     # x^64 + x^4 + x^3 + x + 1
}

_TABLE_LIMIT = 16   # largest k that gets log/exp tables
_PRODUCT_LIMIT = 8  # largest k that gets a q x q product table
_GATHER_BLOCK = 1 << 16  # index elements _gather converts to intp at a time

# mul_arrays gathers rows from a table of a row operand's multiples whenever
# that table has no more elements than the output it replaces. Measured at
# table = output on a boost's link-step layout (column (q, rows, 1, 1) x row
# (rows, 1, n); best of 7, numpy 2.4 on a 2-core Xeon host), the row path
# against the element-wise product: k = 4, 0.97x at rows 4, n 16 (1K
# outputs) and 1.7-2.3x at 8K-64K outputs; k = 8, 3.5-5.9x (rows 4 or 32,
# n 16 or 128). An encryption step at paper-dryrun, (256, 1) x (1, 32) at
# k = 8, ran 2.9x as fast. No shape measured at or below the cut-off ran
# slower by more than the 3% at the smallest one. At k = 16 a table built
# through log/exp ran 1.0-1.06x, so GF(2^16) keeps the element-wise product.

# Whole-row redraws random_distinct_batch makes before it draws the rows
# that still collide with random_distinct. A row that is injective with
# probability 0.06 or more, as t = 9 of q = 16 is, fails them all with
# probability below 1e-26. The redraws are skipped when the chance that
# they would fix every colliding row is below _REDRAW_HOPELESS.
_REDRAW_ROUNDS = 1000
_REDRAW_HOPELESS = 1e-12

_table_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}


def _dtype_for(k: int):
    if k <= 8:
        return np.uint8
    if k <= 16:
        return np.uint16
    if k <= 32:
        return np.uint32
    return np.uint64


def _scalar_mul(a: int, b: int, k: int, modulus: int) -> int:
    # Shift-and-reduce on Python ints; reference path and table builder.
    r = 0
    top = 1 << k
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return r


def _build_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """exp (length 4q-3), log (length q) with log[0] = 2(q-1), and for
    k <= _PRODUCT_LIMIT the flat product table prod[(a << k) | b] = a * b.

    exp[i] = g^(i mod q-1) for i <= 2q-4, and 0 beyond. A sum of two
    nonzero logs is at most 2q-4; a sum with one zero's log lies in
    [2q-2, 3q-4], and two zeros give 4q-4: all inside the zero tail. Logs
    are uint16 when 4(q-1) fits, so the sum of two never overflows. The
    tables are shared by every spec of degree k and are read-only.
    """
    q = 1 << k
    dtype = _dtype_for(k)
    log_dtype = np.uint16 if 4 * (q - 1) < 1 << 16 else np.int32
    # Find a multiplicative generator by walking its powers; the walk fills
    # the exp table. Aborts early when the candidate's order is proper.
    for g in range(2, q):
        exp = np.zeros(4 * q - 3, dtype=dtype)
        t = 1
        ok = True
        for i in range(q - 1):
            exp[i] = t
            t = _scalar_mul(t, g, k, MODULI[k])
            if t == 1 and i < q - 2:
                ok = False
                break
        if ok and t == 1:
            exp[q - 1 : 2 * q - 3] = exp[: q - 2]  # exp[i] = g^(i mod q-1)
            log = np.empty(q, dtype=log_dtype)
            log[0] = 2 * (q - 1)
            log[exp[: q - 1]] = np.arange(q - 1, dtype=log_dtype)
            prod = exp[log[:, None] + log].ravel() if k <= _PRODUCT_LIMIT else None
            for table in (exp, log, prod):
                if table is not None:
                    table.setflags(write=False)
            return exp, log, prod
    raise ParameterError(f"no generator found; modulus {MODULI[k]:#x} is not irreducible")


class FieldSpec:
    """The binary extension field GF(2^k) with modulus MODULI[k].

    Immutable. A field is its degree: two specs compare equal iff they
    have the same k, and files store k alone.
    """

    __slots__ = ("k", "modulus", "q", "dtype", "_exp", "_log", "_prod")

    def __init__(self, k: int):
        if k not in MODULI:
            raise ParameterError(f"no field of degree k={k}; supported degrees: {sorted(MODULI)}")
        self.k = k
        self.modulus = MODULI[k]
        self.q = 1 << k
        self.dtype = _dtype_for(k)
        if k <= _TABLE_LIMIT:
            if k not in _table_cache:
                _table_cache[k] = _build_tables(k)
            self._exp, self._log, self._prod = _table_cache[k]
        else:
            self._exp = self._log = self._prod = None

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.k == other.k

    def __hash__(self):
        return hash(self.k)

    def __repr__(self):
        return f"FieldSpec(k={self.k}, modulus={self.modulus:#x})"

    @property
    def gamma(self) -> "FieldElement":
        """The residue of the indeterminate; an F_2-generator of the field."""
        return FieldElement(self, 2)

    @property
    def hex_digits(self) -> int:
        return (self.k + 3) // 4


@dataclass(frozen=True)
class FieldElement:
    """A single element of GF(2^k), canonical (fully reduced)."""

    spec: FieldSpec
    value: int

    def __post_init__(self):
        if not 0 <= self.value < self.spec.q:
            raise UsageError(f"value {self.value} outside field of size {self.spec.q}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        _check_same(self, other)
        return FieldElement(self.spec, self.value ^ other.value)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        _check_same(self, other)
        return FieldElement(
            self.spec,
            _scalar_mul(self.value, other.value, self.spec.k, self.spec.modulus),
        )

    def __bool__(self):
        return self.value != 0

    def hex(self) -> str:
        return format(self.value, f"0{self.spec.hex_digits}x")

    def __repr__(self):
        return f"FieldElement({self.hex()})"


def _check_same(a: FieldElement, b: FieldElement):
    if a.spec != b.spec:
        raise UsageError("operands come from different fields")


# ---------------------------------------------------------------------------
# Array kernels. All take/return numpy arrays of the spec's dtype and
# broadcast like the underlying numpy ops.
# ---------------------------------------------------------------------------

def mul_arrays(spec: FieldSpec, a, b) -> np.ndarray:
    """Elementwise product over GF(2^k); a and b broadcast like numpy.

    a and b hold canonical elements (values below q). For k <= 8 one of
    two cases runs:

    - element-wise: one gather from the product table at (a << k) | b,
      formed in uint16 (1.4-1.8 ns per element at k = 8 on a desk gate
      shape, against 9-10 ns for log/exp);
    - column x row: one operand's last axis is 1 and the other's (the
      row operand) is not, as in the steps A[..., :, t, None] *
      B[..., t, None, :] of matmul_arrays. Every multiple of each row is
      sliced from the product table once, and the output is gathered a
      whole row at a time (0.18-0.23 ns per element on a desk level-1
      link step). Taken whenever the table has no more elements than
      the output.

    For k = 16 the product is exp[log[a] + log[b]], element-wise (7.4-7.7
    ns per element on the same gate shape). Above k = 16 it is
    _mul_bitloop's shift-and-reduce. Every table lookup goes through
    _gather, so an operand past its table raises IndexError. The result
    never shares memory with the tables or the inputs.
    """
    a = np.asarray(a, dtype=spec.dtype)
    b = np.asarray(b, dtype=spec.dtype)
    if spec._log is None:
        return _mul_bitloop(spec, a, b)
    # asarray: with two 0-d operands a gather gives a numpy scalar.
    if spec._prod is None:
        return np.asarray(_gather(spec._exp, _gather(spec._log, a) + _gather(spec._log, b)))
    if a.ndim and b.ndim and (a.shape[-1] == 1) != (b.shape[-1] == 1):
        col, row = (a, b) if a.shape[-1] == 1 else (b, a)
        rows = math.prod(row.shape[:-1])
        table, out = rows * spec.q * row.shape[-1], np.broadcast(a, b).size
        if table <= out:
            return _mul_rows(spec, col, row, rows)
    return np.asarray(_gather(spec._prod, np.left_shift(a, spec.k, dtype=np.uint16) | b))


def _gather(table: np.ndarray, idx) -> np.ndarray:
    """table[idx] for a 1-D table, through ndarray.take.

    An index longer than _GATHER_BLOCK is gathered one contiguous block
    at a time into a preallocated output. take keeps mode='raise', so an
    index past the table raises IndexError, as table[idx] does.
    """
    if idx.size <= _GATHER_BLOCK:
        return table.take(idx)
    idx = np.ascontiguousarray(idx)
    out = np.empty(idx.shape, dtype=table.dtype)
    flat, dest = idx.reshape(-1), out.reshape(-1)
    for i in range(0, idx.size, _GATHER_BLOCK):
        table.take(flat[i : i + _GATHER_BLOCK], out=dest[i : i + _GATHER_BLOCK])
    return out


def _mul_rows(spec: FieldSpec, col: np.ndarray, row: np.ndarray, rows: int) -> np.ndarray:
    # Row r's multiple by v sits at table[r*q + v]; col[..., 0] picks v.
    q, n = spec.q, row.shape[-1]
    flat = row.reshape(rows, n)
    table = spec._prod.reshape(q, q)[flat].transpose(0, 2, 1).reshape(rows * q, n)
    row_base = np.arange(0, rows * q, q, dtype=np.intp).reshape(row.shape[:-1])
    return table.take(row_base + col[..., 0], axis=0)


def _mul_bitloop(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = np.broadcast_arrays(a, b)
    acc = np.zeros(a.shape, dtype=spec.dtype)
    aa = a.copy()
    bb = b.copy()
    qmask = spec.dtype(spec.q - 1)
    top = spec.dtype(1 << (spec.k - 1))
    modlow = spec.dtype(spec.modulus & (spec.q - 1))
    zero = spec.dtype(0)
    one = spec.dtype(1)
    for _ in range(spec.k):
        acc ^= np.where((bb & one).astype(bool), aa, zero)
        carry = (aa & top) != 0
        aa = ((aa << one) & qmask) ^ np.where(carry, modlow, zero)
        bb = bb >> one
    return acc


def inv_arrays(spec: FieldSpec, a) -> np.ndarray:
    a = np.asarray(a, dtype=spec.dtype)
    if np.any(a == 0):
        raise ZeroDivisionError("zero has no multiplicative inverse")
    if spec._log is not None:
        return _gather(spec._exp, (spec.q - 1) - _gather(spec._log, a))
    return pow_arrays(spec, a, spec.q - 2)


def pow_arrays(spec: FieldSpec, a, e: int) -> np.ndarray:
    """Elementwise a^e; 0^0 is 1."""
    if e < 0:
        raise UsageError("negative exponent; invert explicitly instead")
    a = np.asarray(a, dtype=spec.dtype)
    result = np.ones(a.shape, dtype=spec.dtype)
    base = a.copy()
    while e:
        if e & 1:
            result = mul_arrays(spec, result, base)
        base = mul_arrays(spec, base, base)
        e >>= 1
    return result


def random_elements(spec: FieldSpec, rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, spec.q, size=shape, dtype=spec.dtype, endpoint=False)


def random_nonzero(spec: FieldSpec, rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(1, spec.q, size=shape, dtype=spec.dtype, endpoint=False)


def random_distinct(spec: FieldSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct field elements, sampled without replacement by rejection."""
    if n > spec.q:
        raise ParameterError(f"cannot draw {n} distinct elements from a field of size {spec.q}")
    out: list[int] = []
    seen: set[int] = set()
    while len(out) < n:
        for v in rng.integers(0, spec.q, size=n - len(out) + 8, dtype=spec.dtype).tolist():
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) == n:
                    break
    return np.array(out, dtype=spec.dtype)


def random_distinct_batch(
    spec: FieldSpec, rng: np.random.Generator, trials: int, n: int
) -> np.ndarray:
    """(trials, n) array; each row is a without-replacement sample.

    Rows containing a collision are redrawn wholesale, up to
    _REDRAW_ROUNDS times; a row still colliding after that is drawn by
    random_distinct. Both leave the per-row distribution exactly uniform
    over injective tuples. The whole-row redraws alone can run for ever
    when n is near q: at n = q = 16 a row is injective with probability
    16!/16^16, about 1e-6. When the first draw leaves b rows colliding
    and (_REDRAW_ROUNDS * p)^b, which bounds the chance that the redraws
    fix them all, is below _REDRAW_HOPELESS, they go to random_distinct
    at once.
    """
    if n > spec.q:
        raise ParameterError(f"cannot draw {n} distinct elements from a field of size {spec.q}")
    q = spec.q
    # p: the chance that a row of n uniform draws is injective, q!/(q-n)!/q^n.
    p = math.exp(np.log1p(-np.arange(n) / q).sum())
    out = rng.integers(0, q, size=(trials, n), dtype=spec.dtype)
    bad = np.arange(trials)
    for redraws in range(_REDRAW_ROUNDS + 1):
        srt = np.sort(out[bad], axis=1)
        bad = bad[(srt[:, 1:] == srt[:, :-1]).any(axis=1)]
        if not bad.size:
            return out
        if redraws == 0 and min(1.0, _REDRAW_ROUNDS * p) ** bad.size < _REDRAW_HOPELESS:
            break
        if redraws < _REDRAW_ROUNDS:
            out[bad] = rng.integers(0, q, size=(bad.size, n), dtype=spec.dtype)
    for i in bad:
        out[i] = random_distinct(spec, rng, n)
    return out
