"""The base public-key scheme: trapdoored Vandermonde keys over GF(2^k).

A secret key is a random index set S of size s, n distinct field points
a_1..a_n, and the n x r matrix M whose row i holds the powers a_i..a_i^r,
except that rows inside S are cut off after power s/3. The public key
P = MR hides the cutoff behind a random determinant-one R. Encryption of
m is Px + m*1 + e with sparse noise e; decryption is an inner product
with a vector y supported on S.

y is the canonical solution of the constraint system that also defines
the decryption spaces: sum_i y_i (M_i tensor M_i) = 0, sum_i y_i M_i = 0,
sum_i y_i = 1, y zero off S. On S-rows every tensor or matrix entry is a
power a_i^t with t <= 2s/3, so the whole system collapses to the 2s/3
power equations plus the affine one; both have the same row space, and
reduced row-echelon form depends only on the row space. The collapsed
system asks sum_i y_i p(a_i) = p(0) for every polynomial p of degree at
most 2s/3, so keygen writes y down in closed form: on the first 2s/3 + 1
points of S it is the Lagrange weights at 0, y_i = prod_{j != i} a_j /
(a_i + a_j), and on the rest of S it is zero. That is exactly the
canonical solution. The columns of those first 2s/3 + 1 points form a
nonsingular Vandermonde block (the points are distinct), so elimination
pivots on exactly them and leaves every later, free variable at zero.

Key generation and encryption run in two steps. The draw step
(draw_key, draw_encryption) takes every random value from the rng, in
the order keygen and encrypt_batch have always taken them; the
arithmetic step (key_stack, encrypt_arrays, enc_membership_arrays) then
works on T keys or encryptions stacked along a leading axis. That split
is sound because no draw depends on a computed value: the only
data-dependent draws are the rejections of random_distinct, and those
depend on earlier draws alone. So a caller may draw T keys in order and
compute them together, and every key equals the one a sequential keygen
would have made. keygen, encrypt_batch and enc_membership_batch are the
one-key cases of the stacked functions.

A key is its arrays: PublicKey.P is the (n, r) array P, and SecretKey
holds a (n,), M (n, r) and y_dec (n,), all of the field's dtype, next to
the index tuple S. KeyStack.pair hands out row t of each stacked array.

A message is an int in [0, q), and a block of them a (T,) integer array;
check_messages holds that rule, and encrypt_batch and the membership
audits apply it. A ciphertext is its length-n row, and a block of them
a (T, n) array. Pointwise operations on rows are the homomorphic ones.
The sum c ^ d of two valid encryptions is again a valid encryption. The product
mul_arrays(spec, c, d) is weaker: it decrypts to the product but lands
outside the encryption space (the noiseless part picks up tensor
structure the key matrix cannot express), which is exactly what
reencryption repairs. The trivial encryption of m is the constant row
m*1, with zero randomness and zero noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UsageError
from .field import (
    MODULI,
    FieldSpec,
    inv_arrays,
    mul_arrays,
    random_distinct,
    random_elements,
    random_nonzero,
)
from .linalg import (
    dot_arrays,
    matmul_arrays,
    rank_batch,
    unimodular_draws,
    unimodular_from_draws,
    vandermonde_array,
)


@dataclass(frozen=True)
class Params:
    """Scheme parameters; validated on construction.

    n: ciphertext length, r: randomness dimension, s: trapdoor size,
    eta: per-coordinate noise rate. alpha records the exponent the
    parameters were derived from, when they were derived at all.
    """

    n: int
    r: int
    s: int
    field: FieldSpec
    eta: float
    alpha: float | None = None

    def __post_init__(self):
        if self.s % 3 != 0 or self.s < 3:
            raise ParameterError(f"trapdoor size must be a positive multiple of 3, got {self.s}")
        if self.r < self.s:
            raise ParameterError(f"randomness dimension r={self.r} must be >= s={self.s}")
        if self.n < self.s:
            raise ParameterError(f"ciphertext length n={self.n} must be >= s={self.s}")
        if self.field.q < self.n:
            raise ParameterError(
                f"field size {self.field.q} is below n={self.n}; the scheme needs n distinct points"
            )
        if not 0.0 <= self.eta <= 1.0:
            raise ParameterError(f"noise rate must lie in [0,1], got {self.eta}")


def params_from_alpha(n: int, alpha: float) -> Params:
    """Instantiate the single-exponent parameter family at length n.

    r = n^(1-alpha/8), s = n^(alpha/4), eta = n^-(1-alpha/4), all rounded;
    s is clamped to a multiple of 3 no smaller than 3. The field degree
    starts at ceil(n^alpha), capped at the largest built-in degree, then
    grows to the next built-in degree with q >= n, since n distinct
    points must exist.
    """
    if not 0 < alpha <= 0.25:
        raise ParameterError(f"alpha must lie in (0, 1/4], got {alpha}")
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    r = round(n ** (1 - alpha / 8))
    s = 3 * max(1, round(n ** (alpha / 4) / 3))
    eta = float(n ** -(1 - alpha / 4))
    k_want = min(int(np.ceil(n**alpha)), max(MODULI))
    k = next((deg for deg in sorted(MODULI) if deg >= k_want and 1 << deg >= n), None)
    if k is None:
        raise ParameterError(f"no built-in field of degree <= 64 fits n={n} with alpha={alpha}")
    return Params(n=n, r=r, s=s, field=FieldSpec(k), eta=eta, alpha=alpha)


class SecretKey:
    """S, the points a (n,), the trapdoored M (n, r), the decryption vector y_dec (n,)."""

    __slots__ = ("S", "a", "M", "y_dec", "params")

    def __init__(self, S: tuple[int, ...], a: np.ndarray, M: np.ndarray, y_dec: np.ndarray,
                 params: Params):
        self.S = S
        self.a = a
        self.M = M
        self.y_dec = y_dec
        self.params = params

    def __repr__(self):
        p = self.params
        return f"SecretKey(n={p.n}, r={p.r}, s={p.s}, k={p.field.k})"


class PublicKey:
    """P = MR, an (n, r) array of the field's dtype."""

    __slots__ = ("P", "params")

    def __init__(self, P: np.ndarray, params: Params):
        self.P = P
        self.params = params

    def __repr__(self):
        p = self.params
        return f"PublicKey(n={p.n}, r={p.r}, s={p.s}, k={p.field.k})"


def _decryption_support_vector(spec: FieldSpec, a_S: np.ndarray, s: int) -> np.ndarray:
    # Lagrange weights at 0 on the first 2s/3 + 1 points, zero on the rest:
    # y_i = prod_{j != i} x_j / (x_i + x_j). Row i of terms[0] holds the
    # x_j and of terms[1] the x_i + x_j, padded with ones to a power-of-two
    # width and halved by pairwise products. Leading axes of a_S are keys.
    x = a_S[..., : 2 * s // 3 + 1]
    d = x.shape[-1]
    terms = np.ones((2,) + x.shape + (1 << (d - 1).bit_length(),), dtype=spec.dtype)
    terms[0, ..., :d] = x[..., None, :]
    terms[1, ..., :d] = x[..., :, None] ^ x[..., None, :]
    terms[..., np.arange(d), np.arange(d)] = 1
    while terms.shape[-1] > 1:
        half = terms.shape[-1] // 2
        terms = mul_arrays(spec, terms[..., :half], terms[..., half:])
    num, den = terms[..., 0]
    y = np.zeros(a_S.shape, dtype=spec.dtype)
    y[..., :d] = mul_arrays(spec, num, inv_arrays(spec, den))
    return y


# Most entries a key's n x r matrices or its r x r mixing factor may hold.
# draw_key, which every keygen path calls, refuses a larger key before it
# draws anything. The largest key run today, paper-dryrun's n = 256,
# r = 215, has 55,040; at the cap one GF(2^64) array is 128 MiB.
KEY_ENTRY_CAP = 1 << 24


def check_entries(what: str, shape: tuple[int, ...], cap: int) -> None:
    """ParameterError, naming the shape and the cap, if an array of shape
    would hold more than cap entries."""
    entries = math.prod(shape)
    if entries > cap:
        dims = " x ".join(f"{d:,}" for d in shape)
        raise ParameterError(f"{what}, {dims} = {entries:,} entries, is over the cap of {cap:,}")


def check_key_entries(p: Params) -> None:
    """ParameterError if one key of p holds an array over KEY_ENTRY_CAP entries."""
    check_entries("the key's n x r matrix", (p.n, p.r), KEY_ENTRY_CAP)
    check_entries("the key's r x r mixing factor", (p.r, p.r), KEY_ENTRY_CAP)


def stack_tuples(items) -> tuple[np.ndarray, ...]:
    """Stack equal-shaped tuples of arrays, such as draws, field by field."""
    return tuple(np.array(field) for field in zip(*items))


def draw_key(p: Params, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Every random value of one key, in keygen's order: S, the points, R's draws."""
    check_key_entries(p)
    S = np.sort(rng.choice(p.n, size=p.s, replace=False))
    a = random_distinct(p.field, rng, p.n)
    return (S, a) + unimodular_draws(p.field, p.r, rng)


class KeyStack:
    """T key pairs of one parameter set; key t is row t of every array.

    S (T, s), a (T, n), M (T, n, r), P (T, n, r), y (T, n).
    """

    __slots__ = ("params", "S", "a", "M", "P", "y")

    def __init__(self, params: Params, S, a, M, P, y):
        self.params = params
        self.S = S
        self.a = a
        self.M = M
        self.P = P
        self.y = y

    def pair(self, t: int) -> tuple[PublicKey, SecretKey]:
        p = self.params
        sk = SecretKey(tuple(self.S[t].tolist()), self.a[t], self.M[t], self.y[t], p)
        return PublicKey(self.P[t], p), sk


def trapdoor_arrays(p: Params, S: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M (T, n, r) and y_dec (T, n) of the keys with index sets S (T, s)
    and distinct points a (T, n): Vandermonde rows with the trapdoor rows
    cut after power s/3, and the closed-form decryption vector.
    """
    spec = p.field
    keys = np.arange(len(S))[:, None]
    M = vandermonde_array(spec, a, p.r)
    M[keys, S, p.s // 3 :] = 0
    y = np.zeros(a.shape, dtype=spec.dtype)
    y[keys, S] = _decryption_support_vector(spec, a[keys, S], p.s)
    return M, y


def key_stack(p: Params, draws) -> KeyStack:
    """keygen's arithmetic for a list of draw_key draws, every key at once:
    trapdoor_arrays, then P = MR with R = L · U · P.
    """
    S, a, lower, upper, perm = stack_tuples(draws)
    M, y = trapdoor_arrays(p, S, a)
    P = matmul_arrays(p.field, M, unimodular_from_draws(p.field, lower, upper, perm))
    return KeyStack(p, S, a, M, P, y)


def keygen(p: Params, rng: np.random.Generator) -> tuple[PublicKey, SecretKey]:
    """Sample a key pair: uniform S, distinct points, trapdoored M, P = MR."""
    return key_stack(p, [draw_key(p, rng)]).pair(0)


# ---------------------------------------------------------------------------
# Noise and encryption.
# ---------------------------------------------------------------------------


def noise_array(p: Params, rng: np.random.Generator, shape) -> np.ndarray:
    """Per-entry: zero with probability 1 - p.eta, else uniform over the nonzeros."""
    hit = rng.random(shape) < p.eta
    vals = random_nonzero(p.field, rng, shape)
    return np.where(hit, vals, p.field.dtype(0))


def check_messages(spec: FieldSpec, ms) -> np.ndarray:
    """ms as an array of spec's dtype; UsageError unless it is a nonempty
    (T,) integer array with every value in [0, q)."""
    ms = np.asarray(ms)
    # numpy holds an int past 64 bits as an object, and a list mixing
    # negatives with ints past 2^63 as floats
    if ms.dtype.kind not in "iu" or ms.ndim != 1 or not ms.size:
        raise UsageError(f"messages must be a nonempty (T,) integer array, got {ms.dtype} "
                         f"of shape {ms.shape}")
    lo, hi = int(ms.min()), int(ms.max())
    if lo < 0 or hi >= spec.q:
        raise UsageError(f"message {lo if lo < 0 else hi} outside field of size {spec.q}")
    return ms.astype(spec.dtype, copy=False)


def draw_encryption(p: Params, rng: np.random.Generator, rows: int) -> tuple[np.ndarray, ...]:
    """The randomness X (rows, r) and noise E (rows, n) of rows encryptions, in order."""
    X = random_elements(p.field, rng, (rows, p.r))
    return X, noise_array(p, rng, (rows, p.n))


def encrypt_arrays(
    spec: FieldSpec, P: np.ndarray, ms: np.ndarray, X: np.ndarray, E: np.ndarray
) -> np.ndarray:
    """Row t is P x_t + ms[t]*1 + e_t: X P^T + ms + E.

    P is (..., n, r), ms (..., T), X (..., T, r), E (..., T, n); the
    leading axes broadcast, so one call encrypts under a stack of keys.
    One matmul_arrays call forms X P^T for one key and for a stack alike.
    It chooses which operand to table; at hom_encrypt's shapes (T = 32
    rows against n = 128 or 256 entries) that is X's columns.
    """
    ms = np.asarray(ms, dtype=spec.dtype)
    C = matmul_arrays(spec, X, np.swapaxes(P, -1, -2))
    return C ^ ms[..., None] ^ E


def encrypt_batch(pk: PublicKey, ms: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(T, n) ciphertext block for a (T,) message block; one fresh x, e per row."""
    p = pk.params
    ms = check_messages(p.field, ms)
    return encrypt_arrays(p.field, pk.P, ms, *draw_encryption(p, rng, ms.shape[0]))


def decrypt_batch(sk: SecretKey, C: np.ndarray) -> np.ndarray:
    """<y, c> for each row c of C; correctness is probabilistic, the value is defined."""
    spec = sk.params.field
    return dot_arrays(spec, sk.y_dec[None, :], np.asarray(C, dtype=spec.dtype))


# ---------------------------------------------------------------------------
# Encryption-space membership.
# ---------------------------------------------------------------------------


def enc_membership_arrays(
    p: Params, M: np.ndarray, S: np.ndarray, ms: np.ndarray, C: np.ndarray
) -> np.ndarray:
    """(K, T) audit over K stacked keys: entry (j, t) is True iff C[j, t]
    is a noiseless-on-S encryption of ms[j, t] under key j.

    M is (K, n, r), S (K, s), ms (K, T), C (K, T, n). c = Mx + m*1 + f
    with f zero on S constrains only the S rows: (c - m*1) restricted to S
    must lie in the column space of M_S, the S rows of M truncated to
    their s/3 live columns.
    """
    spec = p.field
    C = np.asarray(C, dtype=spec.dtype)
    ms = np.asarray(ms, dtype=spec.dtype)
    K, T = C.shape[:2]
    B = np.take_along_axis(M, S[:, :, None], axis=1)[..., : p.s // 3]
    base = rank_batch(spec, B)
    v = np.take_along_axis(C, S[:, None, :], axis=2) ^ ms[..., None]
    aug = np.concatenate([np.broadcast_to(B[:, None], (K, T) + B.shape[1:]), v[..., None]], axis=3)
    return rank_batch(spec, aug.reshape((K * T,) + aug.shape[2:])).reshape(K, T) == base[:, None]


def enc_membership_batch(sk: SecretKey, ms: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Row t is True iff C[t] is a noiseless-on-S encryption of ms[t]."""
    ms = check_messages(sk.params.field, ms)
    return enc_membership_arrays(sk.params, sk.M[None], np.asarray(sk.S)[None], ms[None],
                                 np.asarray(C)[None])[0]


def dec_membership_batch(sk: SecretKey, ms: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Row t is True iff C[t] decrypts to ms[t]."""
    return decrypt_batch(sk, C) == check_messages(sk.params.field, ms)
