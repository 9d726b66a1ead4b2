"""Circuit IR, netlist parsing, the level schedule, and the two builders.

Gate kinds: XOR, AND, G, COPY, CONST0, CONST1, where G(x,y) = 1 - xy
(equal to 1 + xy here, characteristic 2). On {0,1} values XOR and AND
are the boolean gates and G is NAND.

One schedule and one interpreter serve hom_eval, chain evaluation and
batched plain evaluation: compile_schedule places each gate on a level
(see Schedule); run_schedule checks the input count, fills constant
outputs and takes the level-crossing step as a parameter. Which gates
consume a level depends on the evaluator: a plain chain reencrypts
only after multiplicative gates, the replicated scheme boosts after
additions too, hence count_xor. A circuit's depth under either rule is
compile_schedule(c, count_xor, 1).depth. eval_plain is the
field-element reference the array paths are checked against.

compile_schedule is the only code that decides levels. layerize writes
its schedule back out as a netlist, with a dummy gate (an AND with the
constant one) wherever a wire crosses a level no gate of its own
consumed: the schedule's netlist view.

CORR_d is the full G-tree self-corrector; APXMAJ is the randomly wired
approximate majority, built by sample-and-verify since the existence
argument it comes from is probabilistic. A G-tree is given by its leaf
row alone: leaf i reads input leaves[i], and walk_gtree pairs the leaves
as build_corr wires them. build_apxmaj returns that row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, count
from math import comb

import numpy as np

from .errors import ConstructionError, DataFormatError, ParameterError, UsageError
from .field import FieldElement, FieldSpec, mul_arrays, random_nonzero

_ARITY = {"XOR": 2, "AND": 2, "G": 2, "COPY": 1, "CONST0": 0, "CONST1": 0}
MULT_KINDS = ("AND", "G")
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Gate:
    id: str
    kind: str
    args: tuple[str, ...]


class Circuit:
    """Immutable DAG in topological order; operands must precede their gate."""

    __slots__ = ("inputs", "gates", "outputs", "kind_of")

    def __init__(self, inputs, gates, outputs):
        inputs = tuple(inputs)
        gates = tuple(gates)
        outputs = tuple(outputs)
        kind_of: dict[str, str] = {}
        for name in inputs:
            if not _ID_RE.match(name):
                raise UsageError(f"bad identifier {name!r}")
            if name in kind_of:
                raise UsageError(f"duplicate id {name!r}")
            kind_of[name] = "INPUT"
        for g in gates:
            if g.kind not in _ARITY:
                raise UsageError(f"gate {g.id!r} has unknown kind {g.kind!r}")
            if len(g.args) != _ARITY[g.kind]:
                raise UsageError(
                    f"gate {g.id!r}: {g.kind} takes {_ARITY[g.kind]} operand(s), got {len(g.args)}"
                )
            if not _ID_RE.match(g.id):
                raise UsageError(f"bad identifier {g.id!r}")
            if g.id in kind_of:
                raise UsageError(f"duplicate id {g.id!r}")
            for a in g.args:
                if a not in kind_of:
                    raise UsageError(f"gate {g.id!r} uses undefined wire {a!r}")
            kind_of[g.id] = g.kind
        if not outputs:
            raise UsageError("circuit has no outputs")
        for o in outputs:
            if o not in kind_of:
                raise UsageError(f"output {o!r} is undefined")
        self.inputs = inputs
        self.gates = gates
        self.outputs = outputs
        self.kind_of = kind_of

    @property
    def size(self) -> int:
        return len(self.gates)

    def __repr__(self):
        return f"Circuit({len(self.inputs)} in, {self.size} gates, {len(self.outputs)} out)"


def parse_netlist(text: str) -> Circuit:
    """One statement per line; `#` starts a comment. See format_netlist."""
    inputs: list[str] = []
    gates: list[Gate] = []
    outputs: list[str] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] in ("inputs", "input"):
            if len(tok) < 2:
                raise DataFormatError(f"line {ln}: empty input list")
            inputs.extend(tok[1:])
        elif tok[0] in ("outputs", "output"):
            if len(tok) < 2:
                raise DataFormatError(f"line {ln}: empty output list")
            outputs.extend(tok[1:])
        elif len(tok) >= 3 and tok[1] == "=":
            kind = tok[2]
            if kind not in _ARITY:
                raise DataFormatError(f"line {ln}: unknown gate kind {kind!r}")
            if len(tok) - 3 != _ARITY[kind]:
                raise DataFormatError(
                    f"line {ln}: {kind} takes {_ARITY[kind]} operand(s), got {len(tok) - 3}"
                )
            gates.append(Gate(tok[0], kind, tuple(tok[3:])))
        else:
            raise DataFormatError(f"line {ln}: cannot parse {line!r}")
    try:
        return Circuit(inputs, gates, outputs)
    except UsageError as e:
        raise DataFormatError(str(e)) from e


def format_netlist(c: Circuit) -> str:
    lines = []
    if c.inputs:
        lines.append("inputs " + " ".join(c.inputs))
    for g in c.gates:
        rhs = g.kind + ("" if not g.args else " " + " ".join(g.args))
        lines.append(f"{g.id} = {rhs}")
    lines.append("outputs " + " ".join(c.outputs))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plain evaluation.
# ---------------------------------------------------------------------------


def eval_plain(c: Circuit, inputs, spec: FieldSpec | None = None) -> list[FieldElement]:
    """Reference gate-by-gate evaluation over the field."""
    inputs = list(inputs)
    if len(inputs) != len(c.inputs):
        raise UsageError(f"circuit takes {len(c.inputs)} inputs, got {len(inputs)}")
    if inputs:
        spec = inputs[0].spec
        if any(v.spec != spec for v in inputs):
            raise UsageError("inputs come from different fields")
    elif spec is None:
        raise UsageError("input-free circuit needs an explicit field")
    one = FieldElement(spec, 1)
    zero = FieldElement(spec, 0)
    vals = dict(zip(c.inputs, inputs))
    for g in c.gates:
        if g.kind == "XOR":
            v = vals[g.args[0]] + vals[g.args[1]]
        elif g.kind == "AND":
            v = vals[g.args[0]] * vals[g.args[1]]
        elif g.kind == "G":
            v = one + vals[g.args[0]] * vals[g.args[1]]
        elif g.kind == "COPY":
            v = vals[g.args[0]]
        else:
            v = zero if g.kind == "CONST0" else one
        vals[g.id] = v
    return [vals[o] for o in c.outputs]


def eval_plain_array(spec: FieldSpec, c: Circuit, X: np.ndarray) -> np.ndarray:
    """Batched evaluation: X is (inputs, *batch), result (outputs, *batch)."""
    X = np.asarray(X, dtype=spec.dtype)
    # one level: with the identity as crossing, placement cannot matter
    s = compile_schedule(c, False, 1)
    return np.stack(run_schedule(spec, s, X, lambda level, W: W, X.shape[1:]))


# ---------------------------------------------------------------------------
# The compiled schedule and its array interpreter.
# ---------------------------------------------------------------------------


def _output_cone(c: Circuit) -> set[str]:
    args = {g.id: g.args for g in c.gates}
    needed = set(c.outputs)
    for g in reversed(c.gates):
        if g.id in needed:
            needed.update(args[g.id])
    return needed


def _xor_any(a, b):
    # arrays or the constant bits 0 and 1 as Python ints, which keep an array's dtype
    return a ^ b


def _mul_any(spec, a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a & b  # compile_schedule folding two constants
    return mul_arrays(spec, a, b)


def _gate(spec, kind: str, a, b):
    # XOR, AND or G on arrays or on the constant bits 0 and 1
    if kind == "XOR":
        return _xor_any(a, b)
    v = _mul_any(spec, a, b)
    return _xor_any(v, 1) if kind == "G" else v


@dataclass(frozen=True)
class Schedule:
    """A circuit's output cone compiled for evaluation over level crossings.

    The level convention of every evaluator: inputs cross at level 0 and
    arrive at level 1. A gate whose deepest operand has burnt j levels
    runs at level j+1; AND and G burn a level, XOR only under count_xor.
    After each level l < levels the wires still needed later cross to
    level l+1 together, and outputs are carried up to the last level.
    When the depth equals the level count, the last layer runs bare: no
    crossing follows it. Constant-only wires are folded into `consts`
    and never cross; COPY gates resolve to the wire they copy.
    """

    inputs: tuple[str, ...]
    consts: dict[str, int]
    outputs: tuple[str, ...]
    runs: tuple[tuple[Gate, ...], ...]  # runs[l]: gates run at level l; runs[0] is empty
    carries: tuple[tuple[str, ...], ...]  # carries[l]: wires crossing after level l
    depth: int
    levels: int


def compile_schedule(c: Circuit, count_xor: bool, levels: int) -> Schedule:
    """Place c on levels 1..levels; gates deeper than that pile onto the last."""
    if levels < 1:
        raise UsageError(f"evaluation needs at least one level, got {levels}")
    cone = _output_cone(c)
    consts: dict[str, int] = {}
    root: dict[str, str] = {}
    burnt = dict.fromkeys(c.inputs, 0)
    made = dict.fromkeys(c.inputs, 1)
    need: dict[str, int] = {}
    runs: list[list[Gate]] = [[] for _ in range(levels + 1)]
    for g in c.gates:
        if g.id not in cone:
            continue
        args = tuple(root.get(a, a) for a in g.args)
        if g.kind.startswith("CONST"):
            consts[g.id] = int(g.kind[-1])
        elif g.kind == "COPY":
            root[g.id] = args[0]
        elif all(a in consts for a in args):
            consts[g.id] = _gate(None, g.kind, consts[args[0]], consts[args[1]])
        else:
            base = max(burnt[a] for a in args if a not in consts)
            burnt[g.id] = base + (1 if count_xor or g.kind in MULT_KINDS else 0)
            made[g.id] = run = min(base + 1, levels)
            runs[run].append(Gate(g.id, g.kind, args))
            for a in args:
                need[a] = max(need.get(a, 0), run)
    outputs = tuple(root.get(o, o) for o in c.outputs)
    need.update(dict.fromkeys(outputs, levels))
    carries: list[list[str]] = [list(c.inputs)] + [[] for _ in range(levels - 1)]
    for w, level in made.items():
        for l in range(level, need.get(w, 0)):
            carries[l].append(w)
    depth = max((burnt[o] for o in outputs if o not in consts), default=0)
    return Schedule(c.inputs, consts, outputs, tuple(map(tuple, runs)),
                    tuple(map(tuple, carries)), depth, levels)


def run_schedule(spec: FieldSpec, s: Schedule, X: np.ndarray, cross, top_shape) -> list:
    """Interpret a schedule on arrays; one array per output.

    X stacks one array per schedule input on axis 0, else UsageError.
    cross(l, W) moves stacked wires from level l to l+1: a boost,
    reencrypt_rows through a link, or the identity. An output folded to
    a constant bit is np.full(top_shape, bit), every output's top shape.
    """
    if len(X) != len(s.inputs):
        raise UsageError(f"circuit takes {len(s.inputs)} inputs, got {len(X)}")
    vals: dict[str, np.ndarray] = {}
    if s.inputs:
        vals.update(zip(s.inputs, cross(0, X)))
    for level in range(1, s.levels + 1):
        for g in s.runs[level]:
            a, b = (s.consts[w] if w in s.consts else vals[w] for w in g.args)
            vals[g.id] = _gate(spec, g.kind, a, b)
        if level < s.levels and s.carries[level]:
            W = cross(level, np.stack([vals[w] for w in s.carries[level]]))
            vals.update(zip(s.carries[level], W))
    return [vals[o] if o in vals else np.full(top_shape, s.consts[o], spec.dtype)
            for o in s.outputs]


def layerize(c: Circuit, count_xor: bool = False) -> Circuit:
    """The netlist of compile_schedule(c, count_xor, depth), crossings written as gates.

    Each wire crossing after level l >= 1 gets a dummy AND with the
    constant one at l, unless a level-consuming gate made it at l; so in
    the result every crossing follows the gate that made its wire.
    Folded constants become CONST gates, COPYs and dead gates vanish.
    A dummy multiplies by one, so every evaluator gives it c's bytes.
    """
    s = compile_schedule(c, count_xor, max(compile_schedule(c, count_xor, 1).depth, 1))
    fresh = (f"__lift{i}" for i in count() if f"__lift{i}" not in c.kind_of)
    one = next(fresh)
    gates = [Gate(w, f"CONST{bit}", ()) for w, bit in s.consts.items()]
    cur: dict[str, str] = {}  # a carried wire's latest dummy
    for level in range(1, s.levels + 1):
        gates += [Gate(g.id, g.kind, tuple(cur.get(a, a) for a in g.args)) for g in s.runs[level]]
        own = {g.id for g in s.runs[level] if count_xor or g.kind in MULT_KINDS}
        for w in s.carries[level] if level < s.levels else ():
            if w not in own:
                lift = next(fresh)
                gates.append(Gate(lift, "AND", (cur.get(w, w), one)))
                cur[w] = lift
    if cur:
        gates.insert(0, Gate(one, "CONST1", ()))
    return Circuit(c.inputs, gates, [cur.get(o, o) for o in s.outputs])


# ---------------------------------------------------------------------------
# CORR and APXMAJ builders.
# ---------------------------------------------------------------------------


def build_corr(d: int) -> Circuit:
    """Full binary tree of G gates: 2^d inputs, depth d, 2^d - 1 gates."""
    if d < 2 or d % 2 != 0:
        raise UsageError(f"tree depth must be even and >= 2, got {d}")
    prev = [f"x{i}" for i in range(1 << d)]
    inputs = list(prev)
    gates: list[Gate] = []
    level = 0
    while len(prev) > 1:
        level += 1
        cur = []
        for i in range(0, len(prev), 2):
            gid = f"n{level}_{i // 2}"
            gates.append(Gate(gid, "G", (prev[i], prev[i + 1])))
            cur.append(gid)
        prev = cur
    return Circuit(inputs, gates, [prev[0]])


def walk_gtree(spec: FieldSpec, V: np.ndarray, cross) -> np.ndarray:
    """Evaluate a full G-tree from its leaf rows V (2^d, ...); returns the root.

    Tree level l pairs V[2i] with V[2i+1], as build_corr wires them, then
    calls cross(l, V) on the halved stack.
    """
    one = spec.dtype(1)
    for level in range(1, len(V).bit_length()):
        V = mul_arrays(spec, V[0::2], V[1::2])
        V ^= one
        V = cross(level, V)
    return V[0]


_EXHAUSTIVE_CAP = 100_000  # most boolean patterns verify_apxmaj enumerates

# Most leaf values verify_apxmaj gathers at once. The tree walks a block
# of patterns at a time, len(leaves) values per pattern: at m = 32 one
# gather of all 82,898 patterns over 16 m^2 = 16,384 leaves is 1.4 GB.
APXMAJ_BLOCK = 1 << 22


def _gtree_agrees(spec: FieldSpec, leaves: np.ndarray, m: int, patterns) -> bool:
    """True iff the G-tree over these m-input patterns gives each one's bit.

    A pattern (b, pos, values) sets every input to b, then input pos[i]
    to values[i]. Columns are walked APXMAJ_BLOCK // len(leaves) at a time;
    the walk draws nothing, so the verdict is the one walk over all
    patterns would give.
    """
    X = np.empty((m, len(patterns)), dtype=spec.dtype)
    want = np.empty(len(patterns), dtype=spec.dtype)
    for t, (b, pos, values) in enumerate(patterns):
        X[:, t] = want[t] = b
        for i, v in zip(pos, values):
            X[i, t] = v
    width = max(1, APXMAJ_BLOCK // len(leaves))
    for c0 in range(0, X.shape[1], width):
        root = walk_gtree(spec, X[leaves, c0 : c0 + width], lambda l, V: V)
        if not np.array_equal(root, want[c0 : c0 + width]):
            return False
    return True


def verify_apxmaj(
    leaves: np.ndarray,
    m: int,
    trials: int,
    rng: np.random.Generator,
    spec: FieldSpec,
) -> bool:
    """Check the 7/8-agreement contract of the G-tree with this leaf row.

    The tree runs through walk_gtree, the pairing convention the boost
    runs. A pattern is a bit b, the positions pos of at most m/8
    disagreeing inputs, and their values. Boolean patterns (values 1 - b)
    are enumerated exhaustively when there are few enough, sampled
    otherwise; once they pass, `trials` sampled patterns give their
    positions random nonzero field values. A sample draws b, then
    len(pos), then pos, then the values.
    """
    flips = m // 8

    def sampled(n: int, field: bool):
        for _ in range(n):
            b = int(rng.integers(2))
            j = int(rng.integers(flips + 1))
            pos = rng.choice(m, size=j, replace=False) if j else ()
            yield b, pos, random_nonzero(spec, rng, j) if field and j else (1 - b,) * j

    if 2 * sum(comb(m, j) for j in range(flips + 1)) <= _EXHAUSTIVE_CAP:
        boolean = [(b, pos, (1 - b,) * j) for b in (0, 1)
                   for j in range(flips + 1) for pos in combinations(range(m), j)]
    else:
        boolean = list(sampled(_EXHAUSTIVE_CAP, False))
    return _gtree_agrees(spec, leaves, m, boolean) and (
        trials <= 0 or _gtree_agrees(spec, leaves, m, list(sampled(trials, True))))


# Most inputs build_apxmaj takes. Verification walks a tree of 16 m^2
# leaves over up to _EXHAUSTIVE_CAP patterns: about 10 s at m = 32 and
# 40 s at m = 64 on a 2-core Xeon, and m = 512 did not finish in 20 s.
APXMAJ_MAX_INPUTS = 64


def apxmaj_depth(m: int) -> int:
    """Depth 2 log2(m) + 4 of the tree build_apxmaj draws for m inputs,
    so 16 m^2 leaves; m is a power of two."""
    return 2 * (m.bit_length() - 1) + 4


def build_apxmaj(
    m: int,
    rng: np.random.Generator,
    spec: FieldSpec,
    verify_trials: int = 200,
) -> np.ndarray:
    """Approximate majority on m wires: the leaf row of a randomly wired CORR_{2 log m + 4}.

    Random wiring satisfies the agreement contract with overwhelming
    probability but not certainty, so each sample is verified and
    resampled on failure, up to 64 times.
    """
    if m < 8 or m & (m - 1) != 0 or m > APXMAJ_MAX_INPUTS:
        raise ParameterError(
            f"input count must be a power of two in [8, {APXMAJ_MAX_INPUTS}], got {m}")
    for _ in range(64):
        leaves = rng.integers(m, size=1 << apxmaj_depth(m))
        if verify_apxmaj(leaves, m, verify_trials, rng, spec):
            return leaves
    raise ConstructionError(f"no verified wiring for m={m} after 64 attempts")
