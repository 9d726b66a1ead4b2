"""Dense linear algebra over GF(2^k).

The kernels work on raw numpy arrays of the field's dtype and broadcast
over leading batch dimensions; rank_batch eliminates a stack of trial
matrices in lockstep. There are no container types: keys, ciphertexts
and links are those arrays themselves.

Elimination pivots deterministically: first nonzero entry scanning
left-to-right, top-to-bottom. solve_canonical_array returns the unique
solution with that pivot choice and every free variable set to zero, so
repeated calls on the same system agree bit for bit. The package itself
solves no system: keygen writes its decryption vector in closed form
(scheme.py), and rref_array and solve_canonical_array are the test
oracle that the closed form is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, UsageError
from .field import FieldSpec, inv_arrays, mul_arrays, random_elements

# ---------------------------------------------------------------------------
# Array kernels.
# ---------------------------------------------------------------------------


# matmul_arrays forms the whole (..., m, t, n) broadcast product in one
# mul_arrays call and XOR-reduces over t when it has at most
# _SMALL_PRODUCT elements. At or below 2^15 elements one call ran 1.2-37x
# as fast as the t-step loop on every shape measured (k = 4, 8, 16, 32;
# keygen's 12x12x12 and 16x12x12 products 3.8-4.7x, a boost's top link
# levels 1.6-1.9x). By 2^16-2^17 the gain shrinks to 1.0-1.3x, and from
# 2^17-2^18 on tall products (m >= 512, t = n = 16) the loop wins 1.1-3.5x
# once its steps gather from row tables (numpy 2.4 on a 2-core Xeon host).
_SMALL_PRODUCT = 1 << 15

# Width of the column blocks unimodular_from_draws contracts L · U in.
_LU_BLOCK = 32


def matmul_arrays(spec: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over F_q; leading batch dimensions broadcast."""
    A = np.asarray(A, dtype=spec.dtype)
    B = np.asarray(B, dtype=spec.dtype)
    if A.shape[-1] != B.shape[-2]:
        raise UsageError(f"inner dimensions differ: {A.shape[-1]} vs {B.shape[-2]}")
    batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    m, t, n = A.shape[-2], A.shape[-1], B.shape[-1]
    if math.prod(batch) * m * t * n <= _SMALL_PRODUCT:
        prod = mul_arrays(spec, A[..., :, :, None], B[..., None, :, :])
        return np.bitwise_xor.reduce(prod, axis=-2)
    # Contraction loop. Each step is a column x row product, which mul_arrays
    # gathers whole rows for from a table of the row operand's multiples when
    # that table is no larger than the step's output. The table has q entries
    # per element of the row operand's step slice, so the smaller slice is
    # made the row operand: B's rows B[..., j, :] as they stand, or A's
    # columns A[..., :, j] by looping over (B^T A^T)^T instead. The same
    # products are formed either way, so the result is the same.
    flip = math.prod(A.shape[:-1]) < math.prod(B.shape[:-2]) * n
    if flip:
        A, B = np.swapaxes(B, -1, -2), np.swapaxes(A, -1, -2)
    out = np.zeros(batch + A.shape[-2:-1] + B.shape[-1:], dtype=spec.dtype)
    for j in range(t):
        out ^= mul_arrays(spec, A[..., :, j, None], B[..., j, None, :])
    return np.ascontiguousarray(np.swapaxes(out, -1, -2)) if flip else out


def dot_arrays(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product along the last axis; XOR is the field sum."""
    prod = mul_arrays(spec, a, b)
    return np.bitwise_xor.reduce(prod, axis=-1)


def rank_batch(spec: FieldSpec, A: np.ndarray) -> np.ndarray:
    """Row ranks of a (trials, m, n) stack, eliminated in lockstep.

    Each trial pivots on the first nonzero entry of its column at or
    below its current pivot row; trials whose pivot column is empty
    simply sit out that round. A single matrix A is the stack A[None].
    """
    A = np.array(A, dtype=spec.dtype, copy=True)
    T, m, n = A.shape
    pr = np.zeros(T, dtype=np.int64)
    rows = np.arange(m)
    for c in range(n):
        if (pr == m).all():
            break
        candidates = (A[:, :, c] != 0) & (rows[None, :] >= pr[:, None])
        has = candidates.any(axis=1)
        if not has.any():
            continue
        t = np.nonzero(has)[0]
        r1 = pr[t]
        r2 = candidates[t].argmax(axis=1)
        tmp = A[t, r1].copy()
        A[t, r1] = A[t, r2]
        A[t, r2] = tmp
        factors = mul_arrays(spec, A[t, :, c], inv_arrays(spec, A[t, r1, c])[:, None])
        factors = np.where(rows[None, :] > r1[:, None], factors, spec.dtype(0))
        A[t] ^= mul_arrays(spec, factors[:, :, None], A[t, r1][:, None, :])
        pr[t] += 1
    return pr


def rref_array(spec: FieldSpec, A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form and the pivot column list."""
    R = np.array(A, dtype=spec.dtype, copy=True)
    m, n = R.shape
    pivots: list[int] = []
    pr = 0
    for c in range(n):
        if pr == m:
            break
        nz = np.nonzero(R[pr:, c])[0]
        if nz.size == 0:
            continue
        r = pr + int(nz[0])
        if r != pr:
            R[[pr, r]] = R[[r, pr]]
        R[pr] = mul_arrays(spec, R[pr], inv_arrays(spec, R[pr, c : c + 1]))
        others = R[:, c].copy()
        others[pr] = 0
        R ^= mul_arrays(spec, others[:, None], R[pr][None, :])
        pivots.append(c)
        pr += 1
    return R, pivots


def solve_canonical_array(spec: FieldSpec, A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Canonical solution of Ay = b, or None when inconsistent.

    Canonical means: RREF with the deterministic pivot rule, free
    variables zeroed. Same (A, b) always gives the same y.
    """
    A = np.asarray(A, dtype=spec.dtype)
    b = np.asarray(b, dtype=spec.dtype)
    if A.shape[0] != b.shape[0]:
        raise UsageError(f"system has {A.shape[0]} rows but {b.shape[0]} right-hand values")
    n = A.shape[1]
    R, pivots = rref_array(spec, np.concatenate([A, b[:, None]], axis=1))
    if pivots and pivots[-1] == n:  # pivot in the augmented column
        return None
    y = np.zeros(n, dtype=spec.dtype)
    for i, c in enumerate(pivots):
        y[c] = R[i, n]
    return y


def vandermonde_array(spec: FieldSpec, points: np.ndarray, width: int) -> np.ndarray:
    """Rows (a, a^2, ..., a^width); trailing batch shape of points is kept.

    Powers start at 1, not 0: the constant column never appears.
    """
    if width < 1:
        raise ParameterError(f"width must be >= 1, got {width}")
    points = np.asarray(points, dtype=spec.dtype)
    out = np.empty(points.shape + (width,), dtype=spec.dtype)
    out[..., 0] = points
    # Doubling: with powers 1..w known, a^(w+j) = a^j * a^w fills the next w.
    w = 1
    while w < width:
        step = min(w, width - w)
        out[..., w : w + step] = mul_arrays(spec, out[..., :step], out[..., w - 1 : w])
        w += step
    return out


def random_unimodular_array(spec: FieldSpec, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random determinant-one matrix: L · U · P.

    L and U are random unitriangular, P a permutation matrix. det(P) = 1
    because -1 = 1 in characteristic 2. Not uniform over the full
    determinant-one group; nothing downstream is sensitive to that.
    The draws are unimodular_draws', the arithmetic unimodular_from_draws'.
    """
    lower, upper, perm = unimodular_draws(spec, r, rng)
    return unimodular_from_draws(spec, lower[None], upper[None], perm[None])[0]


def unimodular_draws(
    spec: FieldSpec, r: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random values of one r x r unimodular matrix, in order.

    L's off-diagonal entries, then U's, each in row-major order, then
    the permutation.
    """
    if r < 1:
        raise ParameterError(f"matrix size must be >= 1, got {r}")
    m = r * (r - 1) // 2
    return random_elements(spec, rng, m), random_elements(spec, rng, m), rng.permutation(r)


def unimodular_from_draws(
    spec: FieldSpec, lower: np.ndarray, upper: np.ndarray, perm: np.ndarray
) -> np.ndarray:
    """(T, r, r) stack of L · U · P from T stacked unimodular_draws.

    lower and upper are (T, r(r-1)/2), perm is (T, r). P[i, perm[i]] = 1,
    so (L · U · P)[:, perm] = L · U.
    """
    T, r = perm.shape
    below = np.tri(r, r, -1, dtype=bool)
    LU = np.zeros((2, T, r, r), dtype=spec.dtype)
    LU[0][:, below] = lower
    LU[1][:, below.T] = upper
    diag = np.arange(r)
    LU[..., diag, diag] = 1
    L, U = LU
    # L · U in column blocks of L (row blocks of U). L's columns [j0, j1)
    # are zero above row j0 and U's rows [j0, j1) left of column j0, so a
    # block adds only into LU[j0:, j0:]. Skipping the structural zeros
    # leaves 41% of the r^3 products at r = 215: 13 ms per key against
    # 28 ms for the full product (2-core Xeon host). r <= _LU_BLOCK is one
    # call.
    LU = matmul_arrays(spec, L[..., :_LU_BLOCK], U[:, :_LU_BLOCK])
    for j0 in range(_LU_BLOCK, r, _LU_BLOCK):
        j1 = j0 + _LU_BLOCK
        LU[:, j0:, j0:] ^= matmul_arrays(spec, L[:, j0:, j0:j1], U[:, j0:j1, j0:])
    out = np.empty_like(LU)
    out[np.arange(T)[:, None, None], diag[:, None], perm[:, None, :]] = LU
    return out
