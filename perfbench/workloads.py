"""The four benchmark workloads.

Each workload is a closed loop driven by one client thread. It builds
its fixed state in set-up, then runs one operation after another. The
inputs of operation i are drawn from the workload seed and i alone, so a
replay of operation i sees exactly the inputs the first run saw.

An operation has three steps. `prepare` draws its inputs, `execute` is
the timed region (what a user of the library waits for) and `check`
verifies the outputs afterwards. Timestamps inside `execute` come from
`self.now`, which the traced run replaces with a clock that skips the
part-health audit.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from codehom.analysis import BUDGET_TRIALS, error_budget
from codehom.circuit import Circuit, Gate, eval_plain, parse_netlist
from codehom.field import FieldElement, FieldSpec
from codehom.hom import BoostConfig, hdec, hom_encrypt, hom_eval, hom_keygen
from codehom.scheme import Params, params_from_alpha
from codehom.serial import load_hom_keys, save_hom_keys

# Seed-sequence tags, one per kind of draw, so that streams never overlap.
_KEYS, _CIRCUIT, _OP, _WARM = 1, 2, 3, 4

# The `desk` and `paper-dryrun` presets of `codehom hom-keygen`.
DESK_K, DESK_D = 32, 2
DESK_CFG = BoostConfig(b=16, lambda_target=0.6, mid_n=16)
DRYRUN_K, DRYRUN_D = 32, 1
DRYRUN_CFG = BoostConfig(b=16, lambda_target=0.6, mid_n=8)

README_NETLIST = "inputs a b c\nt = AND a b\ng0 = XOR t c\noutputs g0\n"
AND_NETLIST = "inputs a b\ng = AND a b\noutputs g\n"

# Trial counts of one `budget` operation, as a share of the library default.
BUDGET_SCALE = 0.25
WARMUP_SCALE = 0.05


def op_rng(seed: int, tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, i])


def desk_params() -> Params:
    return Params(n=128, r=48, s=12, field=FieldSpec(8), eta=0.0)


def scaled_trials(scale: float) -> dict:
    return {name: max(1, round(t * scale)) for name, t in BUDGET_TRIALS.items()}


def hom_keys_arrays(hk) -> list[np.ndarray]:
    """Every array of a key set, in a fixed order."""
    out = []
    for pk, sk in hk.levels:
        out += [pk.P.data, np.asarray(sk.S), sk.a.data, sk.M.data, sk.y_dec.data]
    for aux in hk.boosts:
        out += [aux.graph.adjacency, aux.assignment, *aux.links]
    return out


@dataclass
class Checked:
    """What `check` makes of one operation."""

    arrays: list            # everything the op produced, for the output digest
    failed: bool = False
    wrong: bool = False     # a wrong answer that is not a failure (noisy preset)
    note: str = ""
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Circuit stream for desk-eval.

_KINDS = ("XOR", "AND", "G")


def random_two_layer(rng: np.random.Generator, width: int) -> Circuit:
    """A 4-input, two-layer circuit with `width` gates, width >= 4.

    Layer 1 is three gates on distinct input pairs, at least one of them
    AND or G. Layer 2 is the other width - 3 gates; each reads one
    multiplicative layer-1 wire and one other layer-1 wire. Under
    count_xor=False every layer-1 wire therefore crosses the level-1
    boost and no input does: each circuit boosts 4 + 3 wires whatever its
    width and draw, so the work of an op does not depend on the seed.
    """
    inputs = ("a", "b", "c", "d")
    kinds1 = [_KINDS[j] for j in rng.integers(3, size=3)]
    if all(k == "XOR" for k in kinds1):
        kinds1[int(rng.integers(3))] = _KINDS[1 + int(rng.integers(2))]
    layer1 = ["u0", "u1", "u2"]
    gates = []
    for wire, kind in zip(layer1, kinds1):
        x, y = rng.choice(4, size=2, replace=False)
        gates.append(Gate(wire, kind, (inputs[x], inputs[y])))
    mult = [w for w, k in zip(layer1, kinds1) if k != "XOR"]
    used = set()
    outputs = []
    for j in range(width - 3):
        a = mult[int(rng.integers(len(mult)))]
        others = [w for w in layer1 if w != a]
        b = others[int(rng.integers(len(others)))]
        used.update((a, b))
        gates.append(Gate(f"v{j}", _KINDS[int(rng.integers(3))], (a, b)))
        outputs.append(f"v{j}")
    outputs += [w for w in layer1 if w not in used]
    return Circuit(inputs, gates, outputs)


# ---------------------------------------------------------------------------
# Workloads.


class Workload:
    name = ""
    why = ""
    setup_units = 3      # set-up is timed this many times; setup_s is the median
    same_units = True    # every unit rebuilds the same state from the same seed
    fixed_ops = 1        # ops covered by the output digest and the traced run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.now = time.perf_counter

    def setup_unit(self, j: int) -> list:
        """Build one unit of set-up state; returns its arrays for the digest."""
        raise NotImplementedError

    def prepare(self, i: int):
        raise NotImplementedError

    def execute(self, inp) -> tuple[object, dict]:
        """The timed region: returns the outputs and named stage times."""
        raise NotImplementedError

    def check(self, inp, out) -> Checked:
        raise NotImplementedError

    def audit_keys(self) -> dict:
        """id(BoostAux) -> (boost index, secret key of its target level)."""
        return {}


def _audit_map(key_sets) -> dict:
    return {
        id(aux): (i, hk.levels[i + 1][1])
        for hk in key_sets
        for i, aux in enumerate(hk.boosts)
    }


class DeskEval(Workload):
    name = "desk-eval"
    why = ("boosted hom_eval of 2-layer circuits at the desk preset: time goes to "
           "boost_arrays, then matmul_arrays and mul_arrays; keygen is set-up")
    fixed_ops = 6   # one full cycle of the circuit stream

    def setup_unit(self, j):
        self.hk = hom_keygen(desk_params(), DESK_K, DESK_D, op_rng(self.seed, _KEYS, 0),
                             cfg=DESK_CFG)
        return hom_keys_arrays(self.hk)

    def prepare(self, i):
        # The README netlist, then widths 4..8: the cycle fixes the work mix.
        if i % 6 == 0:
            c = parse_netlist(README_NETLIST)
        else:
            c = random_two_layer(op_rng(self.seed, _CIRCUIT, i), 3 + i % 6)
        rng = op_rng(self.seed, _OP, i)
        bits = [int(b) for b in rng.integers(2, size=len(c.inputs))]
        return c, bits, rng

    def execute(self, inp):
        c, bits, rng = inp
        t0 = self.now()
        kcs = [hom_encrypt(self.hk, b, rng) for b in bits]
        t1 = self.now()
        outs = hom_eval(self.hk, c, kcs, count_xor=False)
        t2 = self.now()
        got = [hdec(self.hk, o).value for o in outs]
        t3 = self.now()
        stages = {"encrypt_s": t1 - t0, "eval_s": t2 - t1, "hdec_s": t3 - t2}
        return (kcs, outs, got), stages

    def check(self, inp, out):
        c, bits, _ = inp
        kcs, outs, got = out
        spec = self.hk.params.field
        want = [v.value for v in eval_plain(c, [FieldElement(spec, b) for b in bits])]
        return Checked(
            [kc.P for kc in kcs] + [o.P for o in outs] + [np.asarray(got)],
            failed=got != want,
            note="" if got == want else f"hdec gave {got}, plain evaluation {want}",
        )

    def audit_keys(self):
        return _audit_map([self.hk])


class DeskKeygen(Workload):
    name = "desk-keygen"
    why = ("desk hom_keygen, save_hom_keys and load_hom_keys per op, no boosts: "
           "time goes to 771 small keygens, aux encryptions, APXMAJ and JSON")
    fixed_ops = 3

    def setup_unit(self, j):
        # A warm-up round trip; every unit repeats the same seed.
        inp = (op_rng(self.seed, _WARM, 0), self.workdir / "warmup")
        res = self.check(inp, self.execute(inp)[0])
        if res.failed:
            raise RuntimeError(f"warm-up round trip failed: {res.note}")
        return res.arrays

    def prepare(self, i):
        return op_rng(self.seed, _OP, i), self.workdir / f"keys{i}"

    def execute(self, inp):
        rng, directory = inp
        t0 = self.now()
        hk = hom_keygen(desk_params(), DESK_K, DESK_D, rng, cfg=DESK_CFG)
        t1 = self.now()
        save_hom_keys(hk, directory)
        t2 = self.now()
        loaded = load_hom_keys(directory)
        t3 = self.now()
        stages = {"keygen_s": t1 - t0, "key_save_s": t2 - t1, "key_load_s": t3 - t2}
        return (hk, loaded), stages

    def check(self, inp, out):
        directory = inp[1]
        arrays = hom_keys_arrays(out[0])
        back = hom_keys_arrays(out[1])
        same = len(arrays) == len(back) and all(
            a.shape == b.shape and np.array_equal(a, b) for a, b in zip(arrays, back)
        )
        size = sum(f.stat().st_size for f in directory.iterdir())
        shutil.rmtree(directory)
        return Checked(
            arrays,
            failed=not same,
            note="" if same else "loaded key arrays differ from the generated ones",
            extra={"key_bytes": size},
        )


class DryrunNoisy(Workload):
    name = "dryrun-noisy"
    why = ("one AND through the boost at the noisy paper-dryrun preset, n=256 with a "
           "wide entry link, rotating over six independently keyed key sets")
    setup_units = 6      # one unit per key set
    same_units = False
    fixed_ops = 12

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.key_sets = []
        self.circuit = parse_netlist(AND_NETLIST)

    def setup_unit(self, j):
        hk = hom_keygen(params_from_alpha(256, 0.25), DRYRUN_K, DRYRUN_D,
                        op_rng(self.seed, _KEYS, j), cfg=DRYRUN_CFG)
        self.key_sets.append(hk)
        return hom_keys_arrays(hk)

    def prepare(self, i):
        rng = op_rng(self.seed, _OP, i)
        a, b = (int(x) for x in rng.integers(2, size=2))
        return self.key_sets[i % len(self.key_sets)], a, b, rng

    def execute(self, inp):
        hk, a, b, rng = inp
        t0 = self.now()
        kcs = [hom_encrypt(hk, a, rng), hom_encrypt(hk, b, rng)]
        t1 = self.now()
        out = hom_eval(hk, self.circuit, kcs, count_xor=False)[0]
        t2 = self.now()
        got = hdec(hk, out).value
        t3 = self.now()
        stages = {"encrypt_s": t1 - t0, "eval_s": t2 - t1, "hdec_s": t3 - t2}
        return (kcs, out, got), stages

    def check(self, inp, out):
        _, a, b, _ = inp
        kcs, kc_out, got = out
        return Checked([kcs[0].P, kcs[1].P, kc_out.P, np.asarray([got])],
                       wrong=got != (a & b))

    def audit_keys(self):
        return _audit_map(self.key_sets)


class Budget(Workload):
    name = "budget"
    why = ("analysis.error_budget at a quarter of the default trials: the only path "
           "through chain_keygen, chain_eval_arrays, layerize and rank_batch")
    fixed_ops = 3

    def setup_unit(self, j):
        # A small warm-up budget; every unit repeats the same seed.
        rows = error_budget(op_rng(self.seed, _WARM, 0), trials=scaled_trials(WARMUP_SCALE))
        return [_rows_array(rows)]

    def prepare(self, i):
        return op_rng(self.seed, _OP, i)

    def execute(self, rng):
        t0 = self.now()
        rows = error_budget(rng, trials=scaled_trials(BUDGET_SCALE))
        t1 = self.now()
        # error_budget returns its rows in BUDGET_TRIALS order
        stages = {f"row.{key}.s": r.seconds for key, r in zip(BUDGET_TRIALS, rows)}
        stages["budget_s"] = t1 - t0
        return rows, stages

    def check(self, rng, rows):
        bad = [r.name for r in rows if not r.passed]
        return Checked([_rows_array(rows)], failed=bool(bad),
                       note=f"rows over their bound: {bad}" if bad else "")


def _rows_array(rows) -> np.ndarray:
    # The seed fixes the trials and failures of every row.
    return np.asarray([[r.trials, r.failures] for r in rows], dtype=np.int64)


WORKLOADS = {w.name: w for w in (DeskEval, DeskKeygen, DryrunNoisy, Budget)}
