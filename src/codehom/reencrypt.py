"""Reencryption: carrying decryptable ciphertexts back into encryption spaces.

A link from one key to the next is a bare (n_src, n_tgt) array Z whose
row i encrypts y_i, entry i of the source decryption vector, under the
target key; BoostAux.links stacks such arrays, one per part. Reencryption
is the linear map ReEnc(c) = cZ = sum_i c_i z_i, which for one row c
is matmul_arrays(spec, c[None], Z)[0]. When every row z_i is a
valid target encryption of y_i (a "good" link), linearity gives ReEnc(c)
in Enc'(<y,c>) for arbitrary c, so a link repairs proto-homomorphic
damage exactly.

A chain is its key pairs and links (ChainKeys). chain_eval_arrays takes
it as keys.level_params and keys.links, the two fields a BoostAux has.
chain_keygen_batch draws T chains in order, one after the other, and
then computes each level's keys and links for all T at once (the
draw-then-compute convention of scheme.py); chain_keygen is its T = 1
case.

chain evaluation convention: circuit.Schedule's, link l being the
crossing after level l of a chain spanning levels 0..L. Link 0
reencrypts the raw inputs; the gates of layer j run at level j and their
outputs cross link j. D layers therefore want D+1 links. One fewer is
accepted: the last layer then stays unreencrypted ("bare"), which still
decrypts correctly at level L but no longer lands in the encryption
space. Leftover links drain the outputs upward to the top level.

The length-preserving construction rebuilds each z_i from encrypted key
BITS: every bit is encrypted 2^d times, pushed through the CORR_d
self-corrector homomorphically, and the corrected bit encryptions are
recombined with powers of the field generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UsageError
from .circuit import Circuit, build_corr, compile_schedule, run_schedule
from .circuit import _mul_any, _xor_any  # noqa: F401  perfbench traces them at this path
from .field import FieldSpec, mul_arrays
from .linalg import matmul_arrays
from .scheme import (
    KeyStack,
    Params,
    PublicKey,
    SecretKey,
    draw_encryption,
    draw_key,
    enc_membership_batch,
    encrypt_arrays,
    encrypt_batch,
    key_stack,
    keygen,
    params_from_alpha,
    stack_tuples,
)

SIZE_CAP = 1 << 22  # largest level length chain generation will attempt


@dataclass(frozen=True)
class ChainKeys:
    """Key levels as (pk, sk) pairs, as in HomKeys.levels, and the links between them.

    links[i] is the (n_i, n_{i+1}) array whose row j encrypts y_j of level i
    under level i + 1's key, laid out as each part's link in BoostAux.links.
    """

    levels: tuple[tuple[PublicKey, SecretKey], ...]
    links: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.links) + 1:
            raise ParameterError("a chain needs exactly one more level than links")
        params = self.level_params
        for i, p in enumerate(params):
            if p.field != params[0].field:
                raise ParameterError("chain levels must share one field")
            if i and p.n < params[i - 1].n:
                raise ParameterError("chain level sizes must be nondecreasing")
        for i, Z in enumerate(self.links):
            if Z.shape != (params[i].n, params[i + 1].n):
                raise ParameterError(f"link {i} does not match its level sizes")

    @property
    def level_params(self) -> list[Params]:
        return [pk.params for pk, _ in self.levels]

    @property
    def depth(self) -> int:
        return len(self.links)


def aux_gen_basic(
    sk: SecretKey, pk_next: PublicKey, rng: np.random.Generator, eta: float | None = None
) -> np.ndarray:
    """The link from sk's level to pk_next's: row i encrypts y_i under pk_next.

    eta overrides the target noise rate; 0 makes the link good surely.
    """
    if sk.params.field != pk_next.params.field:
        raise UsageError("source and target keys must share one field")
    return encrypt_batch(pk_next, sk.y_dec, rng, eta=eta)


def aux_is_good(Z: np.ndarray, sk_src: SecretKey, sk_tgt: SecretKey) -> bool:
    """Membership audit with both secret keys: every row z_i in Enc'(y_i)."""
    return bool(enc_membership_batch(sk_tgt, sk_src.y_dec, Z).all())


# ---------------------------------------------------------------------------
# Chain construction.
# ---------------------------------------------------------------------------


def chain_sizes(n0: int, alpha: float, d: int) -> list[int]:
    """Level lengths n0^((1+alpha)^i), i = 0..d, rounded."""
    if d < 1:
        raise ParameterError(f"chain depth must be >= 1, got {d}")
    if alpha < 0:
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    sizes = [round(n0 ** ((1 + alpha) ** i)) for i in range(d + 1)]
    if sizes[-1] > SIZE_CAP:
        raise ParameterError(f"top level length {sizes[-1]} exceeds cap {SIZE_CAP}")
    return sizes


def _level_params(n_i: int, alpha: float, base: Params | None, field: FieldSpec | None) -> Params:
    if base is not None:
        return Params(n=n_i, r=base.r, s=base.s, field=base.field, eta=base.eta, alpha=alpha or None)
    p = params_from_alpha(n_i, alpha)
    if field is not None and p.field != field:
        p = Params(n=p.n, r=p.r, s=p.s, field=field, eta=p.eta, alpha=alpha)
    return p


@dataclass(frozen=True)
class ChainStack:
    """T chains of one shape: levels[i] holds every chain's level-i keys,
    links[i] is the (T, n_i, n_{i+1}) stack of their level-i links."""

    levels: tuple[KeyStack, ...]
    links: tuple[np.ndarray, ...]

    def chain(self, t: int) -> ChainKeys:
        return ChainKeys(tuple(ks.pair(t) for ks in self.levels),
                         tuple(Z[t] for Z in self.links))


def chain_keygen_batch(
    n0: int,
    alpha: float,
    d: int,
    rng: np.random.Generator,
    trials: int,
    base: Params | None = None,
    aux_eta: float | None = None,
) -> ChainStack:
    """trials fresh chains, each as chain_keygen would draw it, in turn.

    With alpha > 0 and no base, each level gets the alpha-family
    parameters at its own length (sharing the largest level's field).
    A flat chain (alpha = 0) has no parameter family to draw from, so it
    requires an explicit base whose r, s, eta every level inherits.
    Each chain draws its d + 1 keys, then its d links; the arithmetic
    then runs once per level over all chains.
    """
    sizes = chain_sizes(n0, alpha, d)
    if base is None and alpha == 0:
        raise ParameterError("a flat chain (alpha = 0) needs explicit base parameters")
    field = base.field if base is not None else _level_params(sizes[-1], alpha, None, None).field
    params = [_level_params(n_i, alpha, base, field) for n_i in sizes]
    keys, links = [], []
    for _ in range(trials):
        keys.append([draw_key(p, rng) for p in params])
        links.append([draw_encryption(q, rng, p.n, aux_eta) for p, q in zip(params, params[1:])])
    levels = tuple(key_stack(p, level) for p, level in zip(params, zip(*keys)))
    return ChainStack(levels, tuple(
        encrypt_arrays(field, tgt.P, src.y, *stack_tuples(draws))
        for src, tgt, draws in zip(levels, levels[1:], zip(*links))
    ))


def chain_keygen(
    n0: int,
    alpha: float,
    d: int,
    rng: np.random.Generator,
    base: Params | None = None,
    aux_eta: float | None = None,
) -> ChainKeys:
    """Fresh keys at geometrically growing lengths, linked by basic aux:
    chain_keygen_batch's one-chain case."""
    return chain_keygen_batch(n0, alpha, d, rng, 1, base, aux_eta).chain(0)


# ---------------------------------------------------------------------------
# The chain evaluation engine.
# ---------------------------------------------------------------------------


def chain_eval_arrays(
    level_params: list[Params],
    links: list[np.ndarray],
    c: Circuit,
    X: np.ndarray,
) -> list[np.ndarray]:
    """Evaluate a circuit through a chain, batched.

    X is (inputs, *batch, n_0); each link is (n_i, n_{i+1}) or carries
    extra leading batch axes that broadcast against *batch. Returns one
    (*batch, n_top) array per circuit output, n_top being the length of
    the top level. Only AND and G gates consume a level.
    """
    spec = level_params[0].field
    s = compile_schedule(c, False, len(links))
    if s.depth > len(links):
        raise UsageError(f"circuit needs {s.depth} layers but the chain has only {len(links)} links")
    X = np.asarray(X, dtype=spec.dtype)
    if X.shape[0] != len(c.inputs):
        raise UsageError(f"circuit takes {len(c.inputs)} inputs, got {X.shape[0]}")
    if X.shape[-1] != level_params[0].n:
        raise UsageError(f"inputs have length {X.shape[-1]}, level 0 expects {level_params[0].n}")

    def cross(level, W):
        # wires as matrix rows, so link batch axes broadcast against *batch
        rows = matmul_arrays(spec, np.moveaxis(W, 0, -2), links[level])
        return np.moveaxis(rows, -2, 0)

    top_shape = X.shape[1:-1] + (level_params[-1].n,)
    return run_schedule(spec, s, X, cross, lambda v: np.full(top_shape, v, dtype=spec.dtype))


# ---------------------------------------------------------------------------
# Length-preserving aux generation.
# ---------------------------------------------------------------------------


def preserving_sizes(n: int, alpha: float, d: int) -> list[int]:
    """Internal level lengths, derived from the top: size_i = n^((1+a)^(i-d))."""
    sizes = [round(n ** ((1 + alpha) ** (i - d))) for i in range(d + 1)]
    if sizes[-1] != n:
        raise ParameterError("top-level rounding failed to reproduce n")
    return sizes


def aux_gen_preserving(
    sk: SecretKey,
    pk_next: PublicKey,
    n0: int,
    alpha: float,
    d: int,
    rng: np.random.Generator,
    bit_eta: float | None = None,
    aux_eta: float | None = None,
) -> np.ndarray:
    """Rebuild each z_i from its bits through CORR_d, keeping length n.

    The internal chain runs levels 0..d at geometrically growing lengths
    ending at n, then one more level holding the caller's target key, so
    the corrected bit encryptions exit as genuine target encryptions.
    Only the target PUBLIC key is needed for that last link. Returns the
    (n, n) link array, like aux_gen_basic.

    bit_eta inflates (or silences) the noise of the 2^d bit encryptions;
    aux_eta does the same for every chain link.
    """
    p_src = sk.params
    p_tgt = pk_next.params
    if p_src.field != p_tgt.field:
        raise UsageError("source and target keys must share one field")
    if p_src.n != p_tgt.n:
        raise UsageError("length-preserving aux needs equal source and target lengths")
    if d < 2 or d % 2:
        raise ParameterError(f"corrector depth must be even and >= 2, got {d}")
    n = p_src.n
    spec = p_src.field
    sizes = preserving_sizes(n, alpha, d)
    if sizes[0] != n0:
        raise ParameterError(
            f"level-0 length {sizes[0]} derived from the top disagrees with n0={n0}"
        )
    base = None if alpha > 0 else p_src
    pks, sks = zip(*(keygen(_level_params(n_i, alpha, base, spec), rng) for n_i in sizes))
    pks += (pk_next,)
    links = [aux_gen_basic(sks[i], pks[i + 1], rng, eta=aux_eta) for i in range(d + 1)]

    k = spec.k
    bits = (sk.y_dec[:, None].astype(np.int64) >> np.arange(k)[None, :]) & 1
    copies = 1 << d
    ms = np.repeat(bits.reshape(-1), copies).astype(spec.dtype)  # (n*k*copies,)
    C = encrypt_batch(pks[0], ms, rng, eta=bit_eta)
    X = C.reshape(n * k, copies, sizes[0]).transpose(1, 0, 2)  # (copies, n*k, n0)
    params = [pk.params for pk in pks]
    zij = chain_eval_arrays(params, links, build_corr(d), X)[0]  # (n*k, n)
    zij = zij.reshape(n, k, n)
    # gamma^j, j = 0..k-1
    gpow = np.empty(k, dtype=spec.dtype)
    gpow[0] = 1
    g = np.full(1, spec.gamma.value, dtype=spec.dtype)
    for j in range(1, k):
        gpow[j] = mul_arrays(spec, gpow[j - 1 : j], g)[0]
    return np.bitwise_xor.reduce(mul_arrays(spec, zij, gpow[None, :, None]), axis=1)
