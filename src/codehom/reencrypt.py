"""Reencryption: carrying decryptable ciphertexts back into encryption spaces.

The auxiliary information for a link is the componentwise encryption of
the source decryption vector under the target key. Reencryption is then
a linear map: ReEnc(c) = sum_i c_i z_i. When every z_i is a valid target
encryption of y_i ("good" aux), linearity gives ReEnc(c) in Enc'(<y,c>)
for arbitrary c, so a link repairs proto-homomorphic damage exactly.

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
from .linalg import Vector, matmul_arrays
from .scheme import (
    Ciphertext,
    Params,
    PublicKey,
    SecretKey,
    enc_membership_batch,
    encrypt_batch,
    keygen,
    params_from_alpha,
)

SIZE_CAP = 1 << 22  # largest level length chain generation will attempt


class AuxKeyInfo:
    """One link: encryptions of the source y under the target key.

    Z is the (source_n, target_n) array whose row i is z_i.
    """

    __slots__ = ("Z", "source_n", "target_n", "target_params")

    def __init__(self, Z: np.ndarray, target_params: Params):
        self.Z = Z
        self.source_n = Z.shape[0]
        self.target_n = Z.shape[1]
        self.target_params = target_params

    def __repr__(self):
        return f"AuxKeyInfo({self.source_n} -> {self.target_n})"


class PreservingAux(AuxKeyInfo):
    """Length-preserving link, built bitwise through CORR_{corr_depth}."""

    __slots__ = ("corr_depth", "chain")

    def __init__(self, Z: np.ndarray, corr_depth: int, chain: "ChainKeys", target_params: Params):
        super().__init__(Z, target_params)
        self.corr_depth = corr_depth
        self.chain = chain

    def __repr__(self):
        return f"PreservingAux(n={self.source_n}, corr_depth={self.corr_depth})"


@dataclass(frozen=True)
class ChainKeys:
    """Key levels plus the aux links between consecutive ones.

    A level's secret half may be None when only the public key is known
    there (a chain closed onto someone else's key).
    """

    levels: tuple[tuple[Params, PublicKey, SecretKey | None], ...]
    aux: tuple[AuxKeyInfo, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.aux) + 1:
            raise ParameterError("a chain needs exactly one more level than links")
        field = self.levels[0][0].field
        for i, (p, _, _) in enumerate(self.levels):
            if p.field != field:
                raise ParameterError("chain levels must share one field")
            if i and p.n < self.levels[i - 1][0].n:
                raise ParameterError("chain level sizes must be nondecreasing")
        for i, a in enumerate(self.aux):
            if a.source_n != self.levels[i][0].n or a.target_n != self.levels[i + 1][0].n:
                raise ParameterError(f"link {i} does not match its level sizes")

    @property
    def depth(self) -> int:
        return len(self.aux)


def aux_gen_basic(
    sk: SecretKey, pk_next: PublicKey, rng: np.random.Generator, eta: float | None = None
) -> AuxKeyInfo:
    """Independent encryptions of each y_i under the next key.

    eta overrides the target noise rate; 0 makes the aux good surely.
    """
    if sk.params.field != pk_next.params.field:
        raise UsageError("source and target keys must share one field")
    Z = encrypt_batch(pk_next, sk.y_dec.data, rng, eta=eta)
    return AuxKeyInfo(Z, pk_next.params)


def aux_is_good(aux: AuxKeyInfo, sk_src: SecretKey, sk_tgt: SecretKey) -> bool:
    """Membership audit with both secret keys: every z_i in Enc'(y_i)."""
    return bool(enc_membership_batch(sk_tgt, sk_src.y_dec.data, aux.Z).all())


def reencrypt(aux: AuxKeyInfo, c: Ciphertext) -> Ciphertext:
    if c.v.len != aux.source_n:
        raise UsageError(f"ciphertext length {c.v.len}, link expects {aux.source_n}")
    spec = aux.target_params.field
    out = matmul_arrays(spec, c.v.data[None, :], aux.Z)[0]
    return Ciphertext(Vector(spec, out))


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


def chain_keygen(
    n0: int,
    alpha: float,
    d: int,
    rng: np.random.Generator,
    base: Params | None = None,
    aux_eta: float | None = None,
) -> ChainKeys:
    """Fresh keys at geometrically growing lengths, linked by basic aux.

    With alpha > 0 and no base, each level gets the alpha-family
    parameters at its own length (sharing the largest level's field).
    A flat chain (alpha = 0) has no parameter family to draw from, so it
    requires an explicit base whose r, s, eta every level inherits.
    """
    sizes = chain_sizes(n0, alpha, d)
    if base is None and alpha == 0:
        raise ParameterError("a flat chain (alpha = 0) needs explicit base parameters")
    field = base.field if base is not None else _level_params(sizes[-1], alpha, None, None).field
    levels = []
    for n_i in sizes:
        p = _level_params(n_i, alpha, base, field)
        pk, sk = keygen(p, rng)
        levels.append((p, pk, sk))
    aux = []
    for i in range(d):
        aux.append(aux_gen_basic(levels[i][2], levels[i + 1][1], rng, eta=aux_eta))
    return ChainKeys(tuple(levels), tuple(aux))


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
    sk_next: SecretKey | None = None,
    bit_eta: float | None = None,
    aux_eta: float | None = None,
) -> PreservingAux:
    """Rebuild each z_i from its bits through CORR_d, keeping length n.

    The internal chain runs levels 0..d at geometrically growing lengths
    ending at n, then one more level holding the caller's target key, so
    the corrected bit encryptions exit as genuine target encryptions.
    Only the target PUBLIC key is needed for that last link; pass
    sk_next too if the stored chain should keep the full pair around
    (membership audits want it).

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
    levels = []
    for n_i in sizes:
        p = _level_params(n_i, alpha, base, spec)
        pk_i, sk_i = keygen(p, rng)
        levels.append((p, pk_i, sk_i))
    levels.append((p_tgt, pk_next, sk_next))
    aux = [
        aux_gen_basic(levels[i][2], levels[i + 1][1], rng, eta=aux_eta)
        for i in range(len(levels) - 1)
    ]
    chain = ChainKeys(tuple(levels), tuple(aux))

    k = spec.k
    bits = (sk.y_dec.data[:, None].astype(np.int64) >> np.arange(k)[None, :]) & 1
    copies = 1 << d
    ms = np.repeat(bits.reshape(-1), copies).astype(spec.dtype)  # (n*k*copies,)
    C = encrypt_batch(levels[0][1], ms, rng, eta=bit_eta)
    X = C.reshape(n * k, copies, sizes[0]).transpose(1, 0, 2)  # (copies, n*k, n0)
    params = [p for p, _, _ in chain.levels]
    zij = chain_eval_arrays(params, [a.Z for a in chain.aux], build_corr(d), X)[0]  # (n*k, n)
    zij = zij.reshape(n, k, n)
    # gamma^j, j = 0..k-1
    gpow = np.empty(k, dtype=spec.dtype)
    gpow[0] = 1
    g = np.full(1, spec.gamma.value, dtype=spec.dtype)
    for j in range(1, k):
        gpow[j] = mul_arrays(spec, gpow[j - 1 : j], g)[0]
    Z = np.bitwise_xor.reduce(mul_arrays(spec, zij, gpow[None, :, None]), axis=1)
    return PreservingAux(Z, d, chain, p_tgt)
