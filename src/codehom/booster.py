"""Correctness booster: expander-routed homomorphic approximate majority.

A replicated ciphertext is k parts that mostly decrypt to the same bit.
Each boosted output part recomputes that bit as the approximate majority
of b input parts, the b chosen by one side of a random bipartite graph.
The majority circuit runs homomorphically through its own reencryption
chain (reencrypt_rows through each link), one independent chain per
output, so a surviving minority of bad parts cannot spread: outputs
seeing at most b/8 bad neighbors come out as valid fresh encryptions of
the right bit.

Two quantitative handles, both checked empirically elsewhere:
- random left-regular graphs concentrate their second singular value
  near 2/sqrt(b); targets below that floor are rejected rather than
  retried forever;
- mixing: when at most k/16 inputs are bad, outputs with b/8 or more
  bad neighbors number at most 16 lambda^2 k.

Messages must be bits here. Majority over a field makes no sense for
anything wider, so boosting a part that encrypts a non-bit silently
produces whatever the majority circuit does to junk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, ParameterError, UsageError
from .circuit import walk_gtree
from .reencrypt import reencrypt_rows
from .scheme import (
    Params,
    PublicKey,
    SecretKey,
    draw_encryption,
    encrypt_arrays,
    keygen,
    stack_tuples,
)


@dataclass(frozen=True)
class ExpanderGraph:
    """Left-regular bipartite graph: output j reads inputs adjacency[j]."""

    k: int
    b: int
    adjacency: np.ndarray  # (k, b), distinct entries per row
    lambda_measured: float


def second_singular_value(adjacency: np.ndarray) -> float:
    """sigma_2 of the degree-normalized biadjacency matrix of a (k, b) adjacency.

    Power iteration on A A^T finds the top eigenpair, deflating it
    exposes the second; no spectral library involved.
    """
    k, b = adjacency.shape
    B = np.zeros((k, k))
    np.add.at(B, (np.repeat(np.arange(k), b), adjacency.reshape(-1)), 1.0)
    M = (B @ B.T) / (b * b)

    def top_eig(mat, start):
        v = start / np.linalg.norm(start)
        lam = 0.0
        for _ in range(1000):
            w = mat @ v
            nrm = np.linalg.norm(w)
            if nrm < 1e-15:
                return 0.0, v
            w /= nrm
            cur = float(w @ mat @ w)
            if abs(cur - lam) < 1e-13:
                return cur, w
            lam, v = cur, w
        return lam, v

    lam1, v1 = top_eig(M, np.ones(k))
    M2 = M - lam1 * np.outer(v1, v1)
    start = np.zeros(k)
    start[0] = 1.0
    start -= (start @ v1) * v1
    if np.linalg.norm(start) < 1e-9:
        start = np.linspace(1, 2, k)
        start -= (start @ v1) * v1
    lam2, _ = top_eig(M2, start)
    return float(np.sqrt(max(lam2, 0.0)))


EXPANDER_DRAWS = 64  # graphs build_expander samples before giving up


def build_expander(k: int, b: int, lambda_target: float, rng: np.random.Generator) -> ExpanderGraph:
    """Sample left-regular graphs until one meets the target expansion.

    Random graphs sit near the 2/sqrt(b) floor, so a target below that
    is hopeless and fails fast with the floor in the message.
    """
    if not 1 <= b <= k:
        raise ParameterError(f"left degree b={b} must lie in [1, k={k}]")
    if k < 2:
        raise ParameterError(f"side size must be >= 2, got {k}")
    best = np.inf
    for _ in range(EXPANDER_DRAWS):
        adjacency = np.argsort(rng.random((k, k)), axis=1)[:, :b]
        lam = second_singular_value(adjacency)
        if lam <= lambda_target:
            return ExpanderGraph(k, b, adjacency, lam)
        best = min(best, lam)
    raise ConstructionError(
        f"no (k={k}, b={b}) graph reached lambda <= {lambda_target} in {EXPANDER_DRAWS} draws "
        f"(best {best:.4f}); random graphs concentrate near the 2/sqrt(b) "
        f"floor {2 / np.sqrt(b):.4f}"
    )


class BoostAux:
    """Per-output majority chains, flattened for stacked evaluation.

    The majority tree is its leaf row: assignment[i] is the input, among
    an output's b graph neighbours, that leaf i reads. links[l] holds all
    k outputs' level-l reencryption arrays stacked as (k, n_l, n_{l+1});
    the chains share sizes and differ in keys. Internal secret keys are
    not retained.
    """

    __slots__ = ("graph", "assignment", "level_params", "links")

    def __init__(self, graph, assignment, level_params, links):
        self.graph = graph
        self.assignment = assignment
        self.level_params = level_params
        self.links = links

    @property
    def source_params(self) -> Params:
        return self.level_params[0]

    @property
    def target_params(self) -> Params:
        return self.level_params[-1]

    @property
    def tree_depth(self) -> int:
        return len(self.links) - 1

    def __repr__(self):
        return (
            f"BoostAux(k={self.graph.k}, b={self.graph.b}, "
            f"n={self.source_params.n} -> {self.target_params.n})"
        )


def leaf_row_depth(leaves: np.ndarray, b: int) -> int:
    """Depth d of the majority tree with this leaf row over b inputs.

    UsageError unless the row is a 1-D integer array of length 2^d, d
    even and >= 2 as build_corr requires, reading only inputs below b.
    """
    d = leaves.size.bit_length() - 1
    if (leaves.ndim != 1 or leaves.dtype.kind not in "iu"
            or d < 2 or d % 2 or leaves.size != 1 << d):
        raise UsageError("leaf row must be a 1-D integer array of length 2^d, d even and >= 2")
    if leaves.min() < 0 or leaves.max() >= b:
        raise UsageError(f"leaf row reads inputs outside [0, {b}), the graph degree")
    return d


def chain_params(p_src: Params, p_tgt: Params, depth: int, mid_n: int) -> list[Params]:
    """The level params of one majority chain: the source, depth midway
    keys of length mid_n (r = max(s, mid_n // 2)), the target."""
    if mid_n < p_src.s:
        raise ParameterError(f"midway length {mid_n} is below the trapdoor size {p_src.s}")
    p_mid = Params(n=mid_n, r=max(p_src.s, mid_n // 2), s=p_src.s, field=p_src.field,
                   eta=p_src.eta)
    return [p_src] + [p_mid] * depth + [p_tgt]


def boost_aux_gen(
    sk: SecretKey,
    pk_next: PublicKey,
    graph: ExpanderGraph,
    leaves: np.ndarray,
    rng: np.random.Generator,
    mid_n: int = 8,
) -> BoostAux:
    """One fresh chain per output, threading the majority tree with this leaf row.

    The chain's keys are chain_params(source, target, tree depth,
    mid_n); every layer of the G-tree crosses one link. mid_n only
    has to carry the bit through, so it is small by default. Every draw
    is taken in the order of output, then level: a midway key, then the
    link into it. Each level's links are then encrypted for all outputs
    in one stacked call.
    """
    p_src = sk.params
    p_tgt = pk_next.params
    if p_src.field != p_tgt.field:
        raise UsageError("source and target keys must share one field")
    assignment = np.asarray(leaves)
    d_tree = leaf_row_depth(assignment, graph.b)
    level_params = chain_params(p_src, p_tgt, d_tree, mid_n)
    mids = [[] for _ in range(d_tree)]          # per level: each output's (P, y)
    draws = [[] for _ in range(d_tree + 1)]     # per link: each output's (X, E)
    for _ in range(graph.k):
        for l in range(d_tree):
            pk_mid, sk_mid = keygen(level_params[l + 1], rng)
            mids[l].append((pk_mid.P, sk_mid.y_dec))
            draws[l].append(draw_encryption(level_params[l + 1], rng, level_params[l].n))
        draws[d_tree].append(draw_encryption(p_tgt, rng, mid_n))
    mids = [stack_tuples(level) for level in mids]
    targets = [P for P, _ in mids] + [pk_next.P]
    sources = [sk.y_dec] + [y for _, y in mids]
    links = [
        encrypt_arrays(p_src.field, P, y, *stack_tuples(level))
        for P, y, level in zip(targets, sources, draws)
    ]
    return BoostAux(graph, assignment, level_params, links)


def boost_arrays(aux: BoostAux, C: np.ndarray) -> np.ndarray:
    """Boost raw part blocks: C is (..., k, n_src), result (..., k, n_tgt).

    The G-tree is walked by walk_gtree with all outputs (and any batch)
    folded into one array; each tree level ends with reencrypt_rows
    through that level's stacked links.
    """
    spec = aux.source_params.field
    k = aux.graph.k
    C = np.asarray(C, dtype=spec.dtype)
    if C.shape[-2] != k or C.shape[-1] != aux.source_params.n:
        raise UsageError(
            f"expected part block (..., {k}, {aux.source_params.n}), got {C.shape}"
        )
    X = np.moveaxis(C[..., aux.graph.adjacency, :], -2, 0)  # (b, ..., k, n_src)
    V = reencrypt_rows(spec, aux.links[0], X)[aux.assignment]
    return walk_gtree(spec, V, lambda level, V: reencrypt_rows(spec, aux.links[level], V))

