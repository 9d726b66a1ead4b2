"""Netlist parsing, evaluation, the level schedule and its netlist view, CORR, and APXMAJ.

The boolean oracle below evaluates with Python ints and bit operators,
nothing shared with the field-based evaluator.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codehom import circuit
from codehom.circuit import (
    MULT_KINDS,
    Circuit,
    Gate,
    build_apxmaj,
    build_corr,
    compile_schedule,
    eval_plain,
    eval_plain_array,
    format_netlist,
    layerize,
    parse_netlist,
    verify_apxmaj,
    walk_gtree,
)
from codehom.errors import DataFormatError, ParameterError, UsageError
from codehom.field import FieldElement, FieldSpec, random_elements

from circuit_gen import random_circuit
from oracles import gtree_circuit

F16 = FieldSpec(4)


def bool_eval(c, bits):
    vals = dict(zip(c.inputs, bits))
    for g in c.gates:
        if g.kind == "XOR":
            v = vals[g.args[0]] ^ vals[g.args[1]]
        elif g.kind == "AND":
            v = vals[g.args[0]] & vals[g.args[1]]
        elif g.kind == "G":
            v = 1 - (vals[g.args[0]] & vals[g.args[1]])
        elif g.kind == "COPY":
            v = vals[g.args[0]]
        else:
            v = 0 if g.kind == "CONST0" else 1
        vals[g.id] = v
    return [vals[o] for o in c.outputs]


def fes(values):
    return [FieldElement(F16, v) for v in values]


# --- parsing -------------------------------------------------------------------


def test_parse_minimal():
    c = parse_netlist("inputs a b\ng1 = AND a b\noutput g1\n")
    assert c.size == 1
    assert compile_schedule(c, False, 1).depth == 1
    assert c.outputs == ("g1",)


def test_parse_self_xor():
    c = parse_netlist("inputs a\ng1 = XOR a a\noutputs g1")
    out = eval_plain(c, fes([9]))
    assert out[0].value == 0


def test_parse_comments_and_blank_lines():
    text = """
    # adder cell
    inputs a b cin

    s1 = XOR a b      # partial sum
    sum = XOR s1 cin
    c1 = AND a b
    c2 = AND s1 cin
    cout = XOR c1 c2
    outputs sum cout
    """
    c = parse_netlist(text)
    assert c.size == 5
    for a, b, cin in [(0, 0, 1), (1, 1, 0), (1, 1, 1)]:
        s, co = (v.value for v in eval_plain(c, fes([a, b, cin])))
        assert (s, co) == ((a + b + cin) % 2, int(a + b + cin >= 2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DataFormatError, match="line 2"):
        parse_netlist("inputs a\ng1 = NOR a a\noutputs g1")
    with pytest.raises(DataFormatError, match="line 1"):
        parse_netlist("inputs")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_netlist("inputs a\ng1 = AND a\noutputs g1")


def test_parse_semantic_errors_name_the_wire():
    with pytest.raises(DataFormatError, match="ghost"):
        parse_netlist("inputs a\ng1 = AND a ghost\noutputs g1")
    with pytest.raises(DataFormatError, match="duplicate"):
        parse_netlist("inputs a a\ng1 = COPY a\noutputs g1")
    with pytest.raises(DataFormatError, match="g2"):
        parse_netlist("inputs a\ng1 = COPY a\noutputs g2")


def test_netlist_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = random_circuit(rng)
        c2 = parse_netlist(format_netlist(c))
        assert c2.inputs == c.inputs
        assert c2.gates == c.gates
        assert c2.outputs == c.outputs


def test_constructor_rejects_forward_reference():
    with pytest.raises(UsageError):
        Circuit(["a"], [Gate("g1", "COPY", ("g2",)), Gate("g2", "COPY", ("a",))], ["g1"])


# --- evaluation ----------------------------------------------------------------


def test_gate_semantics():
    c = parse_netlist("inputs x y\na = AND x y\nb = XOR x y\ng = G x y\noutputs a b g")
    cases = {(1, 1): (1, 0, 0), (0, 0): (0, 0, 1), (1, 0): (0, 1, 1)}
    for (x, y), want in cases.items():
        got = tuple(v.value for v in eval_plain(c, fes([x, y])))
        assert got == want


def test_eval_matches_bool_oracle_exhaustive():
    rng = np.random.default_rng(2)
    for _ in range(30):
        c = random_circuit(rng, n_inputs=5, n_gates=10, kinds=("XOR", "AND", "COPY"))
        for pattern in range(32):
            bits = [(pattern >> i) & 1 for i in range(5)]
            got = [v.value for v in eval_plain(c, fes(bits))]
            assert got == bool_eval(c, bits)


def test_eval_array_matches_scalar():
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = random_circuit(rng, n_inputs=3, n_gates=15)
        X = random_elements(F16, rng, (3, 64))
        batched = eval_plain_array(F16, c, X)
        for t in range(64):
            scalar = eval_plain(c, fes(X[:, t].tolist()))
            assert batched[:, t].tolist() == [v.value for v in scalar]


def test_eval_input_checks():
    c = parse_netlist("inputs a b\ng1 = AND a b\noutputs g1")
    with pytest.raises(UsageError):
        eval_plain(c, fes([1]))
    with pytest.raises(UsageError):
        eval_plain(c, [FieldElement(F16, 1), FieldElement(FieldSpec(8), 1)])
    onlyconst = parse_netlist("c = CONST1\noutputs c")
    with pytest.raises(UsageError):
        eval_plain(onlyconst, [])
    assert eval_plain(onlyconst, [], spec=F16)[0].value == 1


# --- the level schedule and its netlist view ------------------------------------


def test_depth_measures():
    c = parse_netlist("inputs a b\ng1 = XOR a b\noutputs g1")
    assert compile_schedule(c, True, 1).depth == 1
    assert compile_schedule(c, False, 1).depth == 0
    corr = build_corr(4)
    assert compile_schedule(corr, True, 1).depth == 4
    assert compile_schedule(corr, False, 1).depth == 4


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count_xor=st.booleans())
def test_schedule_levels_are_consistent(seed, count_xor):
    # at every level count up to one past the depth, gates read only what
    # is live at their level, only live wires cross, and outputs reach the top
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_inputs=3, n_gates=int(rng.integers(1, 14)), p_const=0.25)
    depth = compile_schedule(c, count_xor, 1).depth
    for levels in range(1, depth + 2):
        s = compile_schedule(c, count_xor, levels)
        assert s.carries[0] == c.inputs
        for level in range(1, levels + 1):
            live = set(s.carries[level - 1])
            for g in s.runs[level]:
                assert all(a in s.consts or a in live for a in g.args)
                live.add(g.id)
            if level < levels:
                assert set(s.carries[level]) <= live
        assert {o for o in s.outputs if o not in s.consts} <= live


def test_layerize_preserves_function():
    rng = np.random.default_rng(4)
    for trial in range(300):
        c = random_circuit(rng, n_inputs=4, n_gates=int(rng.integers(2, 16)))
        lc = layerize(c, count_xor=bool(trial % 2))
        X = random_elements(F16, rng, (4, 8))
        want = eval_plain_array(F16, c, X)
        got = eval_plain_array(F16, lc, X)
        assert np.array_equal(want, got)


def test_layerize_structure():
    # in the netlist view every wire crossing a level was made there by a
    # level-consuming gate, and the depth is the raw circuit's
    rng = np.random.default_rng(5)
    for trial in range(100):
        c = random_circuit(rng, n_inputs=3, n_gates=int(rng.integers(2, 14)))
        count_xor = bool(trial % 2)
        depth = compile_schedule(c, count_xor, 1).depth
        s = compile_schedule(layerize(c, count_xor=count_xor), count_xor, max(depth, 1))
        assert s.depth == depth
        for level in range(1, s.levels):
            own = {g.id for g in s.runs[level] if count_xor or g.kind in MULT_KINDS}
            assert set(s.carries[level]) <= own
        if count_xor:
            assert depth >= compile_schedule(c, False, 1).depth


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count_xor=st.booleans())
def test_layerize_depth_is_schedule_depth(seed, count_xor):
    # constant-only gates (COPY of a constant included) fold in both
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_inputs=3, n_gates=int(rng.integers(1, 14)), p_const=0.25)
    lc = layerize(c, count_xor=count_xor)
    assert compile_schedule(lc, count_xor, 1).depth == compile_schedule(c, count_xor, 1).depth


def test_layerize_inserts_dummy_for_skew_paths():
    # a passes the AND layer raw, so it crosses into level 2 through a dummy
    c = parse_netlist("inputs a b\nm = AND a b\no = AND m a\noutputs o")
    lc = layerize(c)
    assert compile_schedule(lc, False, 1).depth == 2
    assert lc.size == c.size + 2  # the constant one and a's dummy


def test_layerize_corr_needs_no_dummies():
    corr = build_corr(4)
    lc = layerize(corr)
    assert lc.size == corr.size
    assert compile_schedule(lc, False, 1).depth == 4


def test_layerize_drops_dead_gates():
    c = parse_netlist("inputs a b\ndead = AND a b\no = XOR a b\noutputs o")
    lc = layerize(c)
    assert all(g.id != "dead" for g in lc.gates)
    assert compile_schedule(lc, False, 1).depth == 0


# --- CORR ----------------------------------------------------------------------


def test_corr_validation():
    with pytest.raises(UsageError):
        build_corr(3)
    with pytest.raises(UsageError):
        build_corr(0)


def test_corr_size():
    for d in (2, 4, 6):
        assert build_corr(d).size == (1 << d) - 1


def test_corr2_fixes_constant_inputs():
    corr = build_corr(2)
    for b in (0, 1):
        assert eval_plain(corr, fes([b] * 4))[0].value == b


def test_corr2_absorbs_one_arbitrary_coordinate():
    # three agreeing boolean inputs force the output for any field value
    # in the remaining slot; exhaustive over GF(16) and all positions
    corr = build_corr(2)
    for b in (0, 1):
        for pos in range(4):
            for z in range(F16.q):
                vals = [b] * 4
                vals[pos] = z
                assert eval_plain(corr, fes(vals))[0].value == b, (b, pos, z)


def test_corr4_absorbs_corruption_blocks():
    # depth 4: any single corrupted input per depth-2 block is absorbed
    corr = build_corr(4)
    rng = np.random.default_rng(6)
    for b in (0, 1):
        for _ in range(50):
            vals = [b] * 16
            for block in range(4):
                if rng.random() < 0.5:
                    vals[4 * block + int(rng.integers(4))] = int(rng.integers(F16.q))
            assert eval_plain(corr, fes(vals))[0].value == b


# --- APXMAJ --------------------------------------------------------------------


def test_apxmaj_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ParameterError):
        build_apxmaj(6, rng)
    with pytest.raises(ParameterError):
        build_apxmaj(4, rng)


def test_apxmaj_input_cap(monkeypatch):
    # Refused before any verification: 128 inputs verify over 262,144 leaves.
    def must_not_run(*args, **kwargs):
        raise AssertionError("build_apxmaj verified a wiring")
    monkeypatch.setattr(circuit, "verify_apxmaj", must_not_run)
    with pytest.raises(ParameterError, match=r"\[8, 64\], got 128"):
        build_apxmaj(128, np.random.default_rng(7))


def test_apxmaj_size_and_unanimity():
    rng = np.random.default_rng(8)
    c = gtree_circuit(8, build_apxmaj(8, rng))
    assert c.size == 16 * 64 - 1  # 1023
    assert len(c.inputs) == 8
    for b in (0, 1):
        assert eval_plain(c, fes([b] * 8))[0].value == b


def test_apxmaj_agreement_patterns():
    rng = np.random.default_rng(9)
    c = gtree_circuit(8, build_apxmaj(8, rng))
    # all 18 boolean patterns with >= 7 of 8 agreeing
    for b in (0, 1):
        for flip in [None] + list(range(8)):
            vals = [b] * 8
            if flip is not None:
                vals[flip] = 1 - b
            assert eval_plain(c, fes(vals))[0].value == b


def test_apxmaj_field_corruptions():
    rng = np.random.default_rng(10)
    c = gtree_circuit(8, build_apxmaj(8, rng))
    for _ in range(300):
        b = int(rng.integers(2))
        vals = [b] * 8
        vals[int(rng.integers(8))] = int(rng.integers(1, F16.q))
        assert eval_plain(c, fes(vals))[0].value == b


def test_verify_rejects_single_wire_tap():
    # every leaf reads input 0: flipping coordinate 0 flips the output
    bad = np.zeros(16 * 64, dtype=np.int64)
    assert not verify_apxmaj(bad, 8, 0, np.random.default_rng(11))


def test_verify_trials_zero_runs_boolean_part():
    rng = np.random.default_rng(12)
    c = build_apxmaj(8, rng)
    assert verify_apxmaj(c, 8, 0, rng)


def test_verify_apxmaj_walks_in_bounded_blocks(monkeypatch):
    # m = 16 with 5,000 trials gathers 4,096 leaves x 5,000 patterns, 20 MB
    # at once; walked in blocks the whole check stays well below that
    good = build_apxmaj(16, np.random.default_rng(14))
    tracemalloc.start()
    try:
        assert verify_apxmaj(good, 16, 5000, np.random.default_rng(15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    # half the leaves read input 0; the verdict and the rng state after it
    # match one walk over every pattern, and a walk in 7-pattern blocks
    bad = good.copy()
    bad[: len(bad) // 2] = 0
    default = circuit.APXMAJ_BLOCK
    for leaves, want in ((good, True), (bad, False)):
        got = []
        for block in (default, 1 << 62, 7 * len(leaves)):
            monkeypatch.setattr(circuit, "APXMAJ_BLOCK", block)
            rng = np.random.default_rng(16)
            got.append((verify_apxmaj(leaves, 16, 300, rng), int(rng.integers(1 << 62))))
        assert got[0][0] is want and got[1:] == got[:1] * 2


def test_gtree_circuit_matches_walk_gtree():
    # the netlist view pairs leaves exactly as the boost's tree walk does
    rng = np.random.default_rng(13)
    for m, d in ((4, 2), (8, 4), (16, 6)):
        leaves = rng.integers(m, size=1 << d)
        c = gtree_circuit(m, leaves)
        assert c.size == (1 << d) - 1 and len(c.inputs) == m
        X = random_elements(F16, rng, (m, 40))
        want = walk_gtree(F16, X[leaves], lambda level, V: V)
        assert np.array_equal(eval_plain_array(F16, c, X)[0], want)


def test_gtree_circuit_identity_row_is_corr():
    for d in (2, 4):
        assert format_netlist(gtree_circuit(1 << d, np.arange(1 << d))) == format_netlist(
            build_corr(d)
        )
