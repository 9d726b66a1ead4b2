"""Replicated layered scheme: k-part ciphertexts, boosted between levels.

A message is encrypted k times independently; decryption is a plurality
vote over the per-part decryptions, so up to half the parts can rot
before the answer moves. Gate operations act pointwise on parts and
degrade them from the strict encryption space (31k/32 good parts) to
the decodable one (15k/16); Boost is the repair step, recomputing every
part as an expander-routed approximate majority of the others while
moving the whole bundle to the next level key.

Evaluation follows the level convention of circuit.Schedule, with a
boost as the crossing step: inputs are boosted into level 1, layer-j
gates run at level j, and each layer's results are boosted to level
j+1, except that a circuit using all d layers runs its last layer bare,
landing in the decodable space of level d, where the final-level secret
key votes just as well.

Addition of parts is itself only proto-homomorphic here (two 31/32
bundles XOR to a 15/16 one), so by default XOR layers burn a boost
level exactly like multiplicative ones. `count_xor=False` lets XORs
ride within a level instead; each unboosted XOR roughly doubles the
per-part defect rate, eating into the 15/16 decoding margin, so stacks
of them trade key depth against that budget.

Messages entering evaluation must be bits: the majority tree only
reproduces values fixed by G(v, v) = 1 + v*v, which pins 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UsageError
from .booster import boost_arrays, boost_aux_gen, build_expander, chain_params
from .circuit import Circuit, apxmaj_depth, build_apxmaj, compile_schedule, run_schedule
from .field import FieldElement, FieldSpec
from .linalg import matmul_arrays
from .scheme import (
    Params,
    SecretKey,
    check_entries,
    check_key_entries,
    check_messages,
    dec_membership_batch,
    decrypt_batch,
    enc_membership_batch,
    encrypt_batch,
    keygen,
)


def enc_k_threshold(k: int) -> int:
    return -(-31 * k // 32)


def dec_k_threshold(k: int) -> int:
    return -(-15 * k // 16)


class KCiphertext:
    """k parts stacked as a (k, n) block, meant to mostly agree."""

    __slots__ = ("spec", "P")

    def __init__(self, spec: FieldSpec, P):
        P = np.asarray(P, dtype=spec.dtype)
        if P.ndim != 2 or not len(P):
            raise UsageError(f"part block must be 2-D with at least one part, got shape {P.shape}")
        self.spec = spec
        self.P = P

    @property
    def k(self) -> int:
        return self.P.shape[0]

    @property
    def n(self) -> int:
        return self.P.shape[1]

    def __repr__(self):
        return f"KCiphertext(k={self.k}, n={self.n})"


@dataclass(frozen=True)
class BoostConfig:
    """Knobs for the booster built into a key.

    mid_n is the ciphertext length inside the majority chains; boosting
    cost grows with its square, and it only has to carry a bit.
    """

    b: int = 16
    lambda_target: float = 0.6
    mid_n: int = 8
    verify_trials: int = 200


class HomKeys:
    """d+1 level key pairs plus the d boosts linking them.

    Decryption needs only the first and last secret keys (fresh and
    evaluated ciphertexts respectively); the middle ones are retained
    for audits. The public view is every public key and every boost.
    """

    __slots__ = ("params", "k", "levels", "boosts")

    def __init__(self, params: Params, k: int, levels, boosts):
        levels = tuple(levels)
        boosts = tuple(boosts)
        if len(levels) != len(boosts) + 1:
            raise UsageError(
                f"{len(levels)} levels need {len(levels) - 1} boosts, got {len(boosts)}"
            )
        for i, (pk, sk) in enumerate(levels):
            if pk.params != params or sk.params != params:
                raise UsageError(f"level {i} keys do not match the key set's parameters")
            # P = MR and y_dec . M = 0, so y_dec . P is the zero row whatever
            # the noise rate: a public key from another key set fails it.
            if matmul_arrays(params.field, sk.y_dec[None, :], pk.P).any():
                raise UsageError(f"level {i}'s public key does not match its secret key")
        for i, aux in enumerate(boosts):
            if aux.source_params != params or aux.target_params != params:
                raise UsageError(f"boost {i} does not link level {i} to level {i + 1}")
            if aux.graph.k != k:
                raise UsageError(f"boost {i} replicates {aux.graph.k} parts, keys say {k}")
            # Every decryption vector sums to 1, so the XOR of a good exit
            # link's rows encrypts 1 under the boost's target key in most
            # parts: a boost whose sums another level's key explains better
            # leads elsewhere, and one whose sums no level explains comes
            # from another key set.
            sums = np.bitwise_xor.reduce(aux.links[-1], axis=1)
            ones = [int((decrypt_batch(sk, sums) == 1).sum()) for _, sk in levels]
            j = int(np.argmax(ones))
            if 2 * ones[j] >= k and ones[j] > ones[i + 1]:
                raise UsageError(f"boost {i} leads into level {j}'s key, not level {i + 1}'s")
            if 2 * ones[i + 1] < k:
                raise UsageError(f"boost {i} does not lead into level {i + 1}'s key: its exit "
                                 f"link's row sums decrypt to 1 in {ones[i + 1]} of {k} parts")
        self.params = params
        self.k = k
        self.levels = levels
        self.boosts = boosts

    @property
    def depth(self) -> int:
        return len(self.boosts)

    @property
    def sk0(self) -> SecretKey:
        return self.levels[0][1]

    @property
    def sk_top(self) -> SecretKey:
        return self.levels[-1][1]

    @property
    def pks(self):
        return [pk for pk, _ in self.levels]

    def key_size_fields(self) -> int:
        """Total public key material, counted in field elements."""
        size = sum(pk.P.size for pk in self.pks)
        size += sum(link.size for aux in self.boosts for link in aux.links)
        return size

    def __repr__(self):
        return f"HomKeys(n={self.params.n}, k={self.k}, d={self.depth})"


# Most entries of a key set's d x k x k shape: each of the d boosts
# builds k majority chains, wired by an expander whose k x k draw comes
# first. Desk is 2 x 32 x 32; the largest shape tests build is 3 x 64 x 64.
KEY_SET_CAP = 1 << 20


def check_key_shape(k: int, d: int) -> None:
    """ParameterError unless k parts and depth d are a shape hom_keygen
    builds: k >= 32, d >= 1 and d * k * k within KEY_SET_CAP."""
    if k < 32:
        raise ParameterError(f"part count k={k} is below 32; the 15/16 and 31/32 "
                             "thresholds need that much granularity")
    if d < 1:
        raise ParameterError(f"depth must be >= 1, got {d}")
    check_entries("the key set's boosts x parts x parts", (d, k, k), KEY_SET_CAP)


# Most public field elements a key set may hold. Desk holds 460,800; at
# desk, --mid-n 64 makes 3.9 million of them in about 2 s, and --mid-n 128
# 13.6 million in about 8 s and 126 MB of v1 files.
KEY_FIELDS_CAP = 1 << 23


def key_set_fields(p: Params, k: int, d: int, cfg: BoostConfig) -> int:
    """The public field elements hom_keygen(p, k, d, cfg=cfg) builds, known
    before any draw: what key_size_fields() counts on the result.

    d + 1 level keys of n x r, and per boost k chains over the majority
    tree build_apxmaj draws, one n_l x n_{l+1} link per pair of adjacent
    chain_params levels.
    """
    chain = chain_params(p, p, apxmaj_depth(cfg.b), cfg.mid_n)
    return (d + 1) * p.n * p.r + d * k * sum(a.n * b.n for a, b in zip(chain, chain[1:]))


def hom_keygen(
    p: Params,
    k: int,
    d: int,
    rng: np.random.Generator,
    cfg: BoostConfig | None = None,
) -> HomKeys:
    """Sample d+1 independent level keys and the boost between each pair.

    The expander and the majority tree, given by its leaf row, are
    sampled once and shared: they carry no key material, only wiring.
    """
    check_key_shape(k, d)
    check_key_entries(p)
    cfg = cfg or BoostConfig()
    size = key_set_fields(p, k, d, cfg)
    if size > KEY_FIELDS_CAP:
        raise ParameterError(f"the key set would hold {size:,} public field elements, "
                             f"over the cap of {KEY_FIELDS_CAP:,}")
    graph = build_expander(k, cfg.b, cfg.lambda_target, rng)
    leaves = build_apxmaj(cfg.b, rng, verify_trials=cfg.verify_trials, spec=p.field)
    levels = [keygen(p, rng) for _ in range(d + 1)]
    boosts = [
        boost_aux_gen(levels[i][1], levels[i + 1][0], graph, leaves, rng, mid_n=cfg.mid_n)
        for i in range(d)
    ]
    return HomKeys(p, k, levels, boosts)


def hom_encrypt(hk: HomKeys, m: int, rng: np.random.Generator) -> KCiphertext:
    """k independent level-0 encryptions of one message.

    With boosts present the message must be a bit; anything wider
    survives encryption and voting but not evaluation.
    """
    ms = check_messages(hk.params.field, [m] * hk.k)
    if hk.boosts and ms[0] > 1:
        raise UsageError(f"boosted keys carry bits, got message {m}")
    return KCiphertext(hk.params.field, encrypt_batch(hk.levels[0][0], ms, rng))


def _fits(hk: HomKeys, kc: KCiphertext) -> bool:
    """kc has the keys' field, part count and ciphertext length."""
    return kc.spec == hk.params.field and kc.k == hk.k and kc.n == hk.params.n


def _plurality(hk: HomKeys, sk: SecretKey, kc: KCiphertext) -> FieldElement:
    if not _fits(hk, kc):
        raise UsageError(f"replicated ciphertext does not match the keys: {kc!r}")
    # unique sorts the values it counts (a count per value of the field
    # would be 2^k long) and argmax takes the first maximum: ties break
    # toward the smallest value
    values, counts = np.unique(decrypt_batch(sk, kc.P), return_counts=True)
    return FieldElement(kc.spec, int(values[np.argmax(counts)]))


def hom_decrypt(hk: HomKeys, kc: KCiphertext) -> FieldElement:
    """Plurality vote over per-part decryptions under the level-0 key."""
    return _plurality(hk, hk.sk0, kc)


def hdec(hk: HomKeys, kc: KCiphertext) -> FieldElement:
    """Plurality vote under the final-level key, for evaluated ciphertexts."""
    return _plurality(hk, hk.sk_top, kc)


def enc_k_contains(sk: SecretKey, m: int, P: np.ndarray) -> bool:
    """At least ceil(31k/32) of the k parts of the (k, n) block P in the
    strict encryption space of m."""
    return int(enc_membership_batch(sk, [m] * len(P), P).sum()) >= enc_k_threshold(len(P))


def dec_k_contains(sk: SecretKey, m: int, P: np.ndarray) -> bool:
    """At least ceil(15k/16) of the k parts of the (k, n) block P decrypting to m."""
    return int(dec_membership_batch(sk, [m] * len(P), P).sum()) >= dec_k_threshold(len(P))


def hom_eval(
    hk: HomKeys,
    c: Circuit,
    inputs: list[KCiphertext],
    count_xor: bool = True,
) -> list[KCiphertext]:
    """Evaluate a bit circuit on replicated ciphertexts.

    Inputs must decode to bits under the level-0 key; outputs land at
    level d, decryptable with hdec. compile_schedule(c, count_xor, d) is
    the schedule executed: its runs are the gates of each level, its
    carries the wires each boost moves. A circuit whose schedule depth
    equals d runs its final layer bare.

    Only the cone feeding the outputs is evaluated, matching the depth
    precondition, which ignores dead gates too.
    """
    p = hk.params
    spec = p.field
    d = hk.depth
    for i, kc in enumerate(inputs):
        if not _fits(hk, kc):
            raise UsageError(f"input {i} does not match the keys: {kc!r}")
    s = compile_schedule(c, count_xor, d)
    if s.depth > d:
        raise UsageError(f"circuit needs {s.depth} boosted layers, keys provide {d}")

    X = np.stack([kc.P for kc in inputs]) if inputs else np.empty((0, hk.k, p.n), spec.dtype)
    blocks = run_schedule(spec, s, X, lambda level, W: boost_arrays(hk.boosts[level], W),
                          (hk.k, p.n))
    return [KCiphertext(spec, block) for block in blocks]
