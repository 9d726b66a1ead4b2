"""Helpers that only tests use, built on the package's own types and kernels.

Unlike gf_refs, these share code with the package: each one writes out
a structure the package never needs in that form (a key row's tensor
row, a majority tree's netlist, an expander's bad-neighbour counts and
its mixing-lemma cap), so a test can check the package against it.
"""

import numpy as np

from codehom.booster import ExpanderGraph
from codehom.circuit import Circuit, Gate, build_corr
from codehom.field import FieldSpec, mul_arrays


def tensor_row_array(spec: FieldSpec, v: np.ndarray) -> np.ndarray:
    """Entry (j,l) of the result is v_j * v_l, row-major; handles batches."""
    v = np.asarray(v, dtype=spec.dtype)
    n = v.shape[-1]
    out = mul_arrays(spec, v[..., :, None], v[..., None, :])
    return out.reshape(v.shape[:-1] + (n * n,))


def gtree_circuit(m: int, leaves: np.ndarray) -> Circuit:
    """The netlist of the G-tree over inputs x0..x{m-1} whose leaf i reads leaves[i]."""
    tree = build_corr(len(leaves).bit_length() - 1)
    remap = {name: f"x{int(j)}" for name, j in zip(tree.inputs, leaves)}
    gates = [
        Gate(g.id, g.kind, tuple(remap.get(a, a) for a in g.args)) for g in tree.gates
    ]
    return Circuit([f"x{i}" for i in range(m)], gates, tree.outputs)


def bad_neighbor_counts(graph: ExpanderGraph, bad_mask: np.ndarray) -> np.ndarray:
    """Per output, how many of its b neighbors the mask marks bad."""
    return np.asarray(bad_mask)[..., graph.adjacency].sum(axis=-1)


def heavy_output_bound(graph: ExpanderGraph) -> float:
    """Mixing-lemma cap on outputs with >= b/8 bad neighbors: 16 lambda^2 k."""
    return 16.0 * graph.lambda_measured**2 * graph.k
