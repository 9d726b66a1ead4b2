"""Reencryption: carrying decryptable ciphertexts back into encryption spaces.

A link from one key to the next is a bare (n_src, n_tgt) array Z whose
row i encrypts y_i, entry i of the source decryption vector, under the
target key; BoostAux.links stacks such arrays, one per part. Reencryption
is the linear map ReEnc(c) = cZ = sum_i c_i z_i; reencrypt_rows, the one
link step of chains and boosts alike, applies it to every row of a
stack. When every row z_i is a valid target encryption of y_i (a "good"
link), linearity gives ReEnc(c) in Enc'(<y,c>) for arbitrary c, so a
link repairs proto-homomorphic damage exactly.

A chain is a ChainStack: a KeyStack per level, each link stacked as
(T, n_i, n_{i+1}) like BoostAux.links. chain_eval_arrays takes its
level_params and links, the two fields a BoostAux has, so level lengths
may differ from link to link, and a stack of links broadcasts against
the batch. chain_keygen_batch builds flat chains, every level a fresh
key at one base Params: it draws T chains in order, then computes each
level's keys and links for all T at once (the draw-then-compute
convention of scheme.py). chain_keygen is its stack of one.

chain evaluation convention: circuit.Schedule's, link l being the
crossing after level l of a chain spanning levels 0..L, run_schedule's
crossing being reencrypt_rows. Link 0 reencrypts the raw inputs; the
gates of layer j run at level j and their outputs cross link j. D
layers therefore want D+1 links. One fewer is accepted: the last layer
then stays unreencrypted ("bare"), which still decrypts correctly at
level L but no longer lands in the encryption space. Leftover links
drain the outputs upward to the top level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UsageError
from .circuit import Circuit, compile_schedule, run_schedule
from .circuit import _mul_any, _xor_any  # noqa: F401  perfbench traces them at this path
from .field import FieldSpec
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
    stack_tuples,
)


def aux_gen_basic(sk: SecretKey, pk_next: PublicKey, rng: np.random.Generator) -> np.ndarray:
    """The link from sk's level to pk_next's: row i encrypts y_i under pk_next."""
    if sk.params.field != pk_next.params.field:
        raise UsageError("source and target keys must share one field")
    return encrypt_batch(pk_next, sk.y_dec, rng)


def aux_is_good(Z: np.ndarray, sk_src: SecretKey, sk_tgt: SecretKey) -> bool:
    """Membership audit with both secret keys: every row z_i in Enc'(y_i)."""
    return bool(enc_membership_batch(sk_tgt, sk_src.y_dec, Z).all())


def reencrypt_rows(spec: FieldSpec, Z: np.ndarray, C: np.ndarray) -> np.ndarray:
    """ReEnc(c) = cZ for each row c of C; a stack of links Z broadcasts against C's batch."""
    return matmul_arrays(spec, C[..., None, :], Z)[..., 0, :]


# ---------------------------------------------------------------------------
# Chain construction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStack:
    """T chains of one shape: levels[i] holds every chain's level-i keys,
    links[i] is the (T, n_i, n_{i+1}) stack of their level-i links."""

    levels: tuple[KeyStack, ...]
    links: tuple[np.ndarray, ...]

    @property
    def level_params(self) -> list[Params]:
        return [ks.params for ks in self.levels]


def chain_keygen_batch(base: Params, d: int, rng: np.random.Generator, trials: int) -> ChainStack:
    """trials fresh chains of d links, each as chain_keygen would draw it, in turn.

    Each chain draws its d + 1 keys at base, then its d links; the
    arithmetic then runs once per level over all chains.
    """
    if d < 1:
        raise ParameterError(f"chain depth must be >= 1, got {d}")
    keys, links = [], []
    for _ in range(trials):
        keys.append([draw_key(base, rng) for _ in range(d + 1)])
        links.append([draw_encryption(base, rng, base.n) for _ in range(d)])
    levels = tuple(key_stack(base, level) for level in zip(*keys))
    return ChainStack(levels, tuple(
        encrypt_arrays(base.field, tgt.P, src.y, *stack_tuples(draws))
        for src, tgt, draws in zip(levels, levels[1:], zip(*links))
    ))


def chain_keygen(base: Params, d: int, rng: np.random.Generator) -> ChainStack:
    """d + 1 fresh keys at base, linked by basic aux: chain_keygen_batch's
    stack of one."""
    return chain_keygen_batch(base, d, rng, 1)


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
    if X.shape[-1] != level_params[0].n:
        raise UsageError(f"inputs have length {X.shape[-1]}, level 0 expects {level_params[0].n}")
    return run_schedule(spec, s, X, lambda level, W: reencrypt_rows(spec, links[level], W),
                        X.shape[1:-1] + (level_params[-1].n,))
