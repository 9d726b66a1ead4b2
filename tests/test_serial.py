"""Envelope round-trips and malformed-input rejection."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from codehom import serial
from codehom.circuit import format_netlist, parse_netlist
from codehom.cli import main
from codehom.errors import DataFormatError, UsageError
from codehom.field import FieldElement, FieldSpec
from codehom.hom import BoostConfig, hdec, hom_encrypt, hom_eval, hom_keygen
from codehom.scheme import Params, decrypt, draw_key, encrypt, key_stack, keygen

from oracles import gtree_circuit

GF16 = FieldSpec(4)
P16 = Params(n=16, r=6, s=3, field=GF16, eta=0.0)


def rng(seed):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def keypair():
    return keygen(P16, rng(5))


@pytest.fixture(scope="module")
def hom_keys():
    cfg = BoostConfig(b=8, lambda_target=0.9, verify_trials=40)
    return hom_keygen(P16, 32, 1, rng(9), cfg=cfg)


def test_public_key_round_trip(keypair, tmp_path):
    pk, _ = keypair
    serial.save_public_key(pk, tmp_path / "pk.json")
    back = serial.load_public_key(tmp_path / "pk.json")
    assert back.params == pk.params
    assert np.array_equal(back.P, pk.P)


def test_secret_key_round_trip(keypair, tmp_path):
    _, sk = keypair
    serial.save_secret_key(sk, tmp_path / "sk.json")
    back = serial.load_secret_key(tmp_path / "sk.json")
    assert back.S == sk.S
    assert np.array_equal(back.a, sk.a)
    assert np.array_equal(back.M, sk.M)
    assert np.array_equal(back.y_dec, sk.y_dec)


def test_keys_are_bare_field_arrays(tmp_path):
    # every way to get a key hands out plain arrays of the field's dtype
    p = Params(n=20, r=9, s=6, field=FieldSpec(8), eta=0.0)
    stack = key_stack(p, [draw_key(p, rng(t)) for t in range(2)])
    pk, sk = keygen(p, rng(7))
    serial.save_public_key(pk, tmp_path / "pk.json")
    serial.save_secret_key(sk, tmp_path / "sk.json")
    pairs = [(pk, sk), stack.pair(1),
             (serial.load_public_key(tmp_path / "pk.json"),
              serial.load_secret_key(tmp_path / "sk.json"))]
    want = {"P": (20, 9), "a": (20,), "M": (20, 9), "y_dec": (20,)}
    for pk_t, sk_t in pairs:
        got = {"P": pk_t.P, "a": sk_t.a, "M": sk_t.M, "y_dec": sk_t.y_dec}
        for name, arr in got.items():
            assert type(arr) is np.ndarray, name
            assert arr.dtype == p.field.dtype and arr.shape == want[name], name


def test_ciphertext_round_trip_decrypts(keypair, tmp_path):
    pk, sk = keypair
    c = encrypt(pk, FieldElement(GF16, 9), rng(1))
    serial.save_ciphertext(GF16, c, tmp_path / "ct.json")
    spec, back = serial.load_ciphertext(tmp_path / "ct.json")
    assert spec == GF16
    assert back.dtype == GF16.dtype and np.array_equal(back, c)
    assert decrypt(sk, back).value == 9


def test_kciphertext_nests_ct_envelopes(hom_keys, tmp_path):
    kc = hom_encrypt(hom_keys, 1, rng(3))
    serial.save_kciphertext(kc, tmp_path / "kct.json")
    doc = json.loads((tmp_path / "kct.json").read_text())
    assert doc["kind"] == "kct"
    assert len(doc["parts"]) == 32
    assert all(part["kind"] == "ct" for part in doc["parts"])
    back = serial.load_kciphertext(tmp_path / "kct.json")
    assert np.array_equal(back.P, kc.P)


def test_hom_keys_round_trip_evaluates_identically(hom_keys, tmp_path):
    serial.save_hom_keys(hom_keys, tmp_path / "keys")
    back = serial.load_hom_keys(tmp_path / "keys")
    assert back.k == hom_keys.k and back.depth == hom_keys.depth
    kc = hom_encrypt(hom_keys, 1, rng(3))
    c = parse_netlist("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    out_a = hom_eval(hom_keys, c, [kc, kc])[0]
    out_b = hom_eval(back, c, [kc, kc])[0]
    assert np.array_equal(out_a.P, out_b.P)
    assert hdec(back, out_b).value == 1


def test_boost_aux_doc_round_trip(hom_keys):
    aux = hom_keys.boosts[0]
    back = serial.decode_boost_aux(serial.encode_boost_aux(aux))
    assert np.array_equal(back.graph.adjacency, aux.graph.adjacency)
    assert np.array_equal(back.assignment, aux.assignment)
    assert back.level_params == aux.level_params
    assert all(np.array_equal(x, y) for x, y in zip(back.links, aux.links))


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text()
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5)
                   | st.lists(st.integers(0, 2**64 - 1), max_size=6)),
    max_leaves=40,
)


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@settings(max_examples=200, deadline=None)
@given(doc=JSON_TREES)
def test_writer_bytes_equal_json_dumps(doc, writer_dir):
    # Empty containers, bools, floats (nan and infinities too), None,
    # non-ASCII strings and lists of plain ints, nested.
    path = writer_dir / "doc.json"
    serial.save_json(doc, path)
    assert path.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode()


def test_writer_deep_nesting_and_tuples(tmp_path):
    doc = {"x": []}
    for depth in range(150):
        doc = [doc, depth, (True, None)] if depth % 2 else {"\u00e9\u4e2d": doc, "n": [depth, 2**64 - 1]}
    serial.save_json(doc, tmp_path / "deep.json")
    assert (tmp_path / "deep.json").read_bytes() == (json.dumps(doc, indent=1) + "\n").encode()


# Array leaves of every dtype the writer meets or must pass to tolist():
# uint64 past 2^63, negative int64, bool and float64 (nan too), 0-3
# dimensions with zero-length axes, at depth 0-3 among dicts and lists.
ARRAY_LEAVES = st.sampled_from(
    [np.uint8, np.uint16, np.uint32, np.uint64, np.int64, np.bool_, np.float64]
).flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)))


def _nested(depth):
    doc = ARRAY_LEAVES
    for _ in range(depth):
        item = doc | JSON_SCALARS
        doc = (st.lists(item, min_size=1, max_size=3)
               | st.dictionaries(st.text(max_size=3), item, min_size=1, max_size=3))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=st.integers(0, 3).flatmap(_nested))
def test_writer_array_leaves_equal_json_dumps(doc, writer_dir):
    path = writer_dir / "arrays.json"
    serial.save_json(doc, path)
    want = json.dumps(doc, indent=1, default=np.ndarray.tolist) + "\n"
    assert path.read_bytes() == want.encode()


def test_writer_key_file_bytes_equal_json_dumps(hom_keys, tmp_path):
    pk, sk = hom_keys.levels[0]
    for name, doc in [("boost", serial.encode_boost_aux(hom_keys.boosts[0])),
                      ("pk", serial.encode_public_key(pk)),
                      ("sk", serial.encode_secret_key(sk)),
                      ("kct", serial.encode_kciphertext(hom_encrypt(hom_keys, 1, rng(3))))]:
        serial.save_json(doc, tmp_path / name)
        want = json.dumps(doc, indent=1, default=np.ndarray.tolist) + "\n"
        assert (tmp_path / name).read_text() == want


def _array_leaves(doc):
    if isinstance(doc, np.ndarray):
        yield doc
    elif isinstance(doc, (list, dict)):
        for item in (doc.values() if isinstance(doc, dict) else doc):
            yield from _array_leaves(item)


def test_encoded_documents_own_their_arrays(keypair, hom_keys):
    # tests edit encoded documents in place; the shared keys must not see it
    pk, sk = keypair
    aux = hom_keys.boosts[0]
    kc = hom_encrypt(hom_keys, 1, rng(3))
    held = [pk.P, sk.a, sk.M, sk.y_dec,
            aux.graph.adjacency, aux.assignment, *aux.links, kc.P]
    before = [a.copy() for a in held]
    docs = [serial.encode_public_key(pk), serial.encode_secret_key(sk),
            serial.encode_boost_aux(aux), serial.encode_kciphertext(kc)]
    leaves = list(_array_leaves(docs))
    assert len(leaves) == 4 + 2 + len(aux.links) + kc.k
    for a in leaves:
        np.bitwise_not(a, out=a)
    assert all(np.array_equal(a, b) for a, b in zip(held, before))


def test_writer_unwritable_path_is_usage_error(tmp_path):
    with pytest.raises(UsageError, match="cannot write"):
        serial.save_json({"a": [1, 2]}, tmp_path)
    with pytest.raises(UsageError, match="cannot write"):
        serial.save_json({"a": [1, 2]}, tmp_path / "absent" / "x.json")


def test_rejects_wrong_format(keypair):
    pk, _ = keypair
    doc = serial.encode_public_key(pk)
    doc["format"] = "codehom/v0"
    with pytest.raises(DataFormatError, match="format"):
        serial.decode_public_key(doc)


def test_rejects_wrong_kind(keypair):
    pk, _ = keypair
    doc = serial.encode_public_key(pk)
    with pytest.raises(DataFormatError, match="kind"):
        serial.decode_secret_key(doc)


def test_rejects_out_of_range_entries(keypair):
    pk, _ = keypair
    doc = serial.encode_public_key(pk)
    doc["P"][0][0] = 16
    with pytest.raises(DataFormatError, match="outside"):
        serial.decode_public_key(doc)


def test_rejects_shape_mismatch(keypair):
    pk, _ = keypair
    doc = serial.encode_public_key(pk)
    doc["P"] = doc["P"][:-1]
    with pytest.raises(DataFormatError, match="16x6"):
        serial.decode_public_key(doc)


def test_rejects_missing_field(keypair):
    _, sk = keypair
    doc = serial.encode_secret_key(sk)
    del doc["y"]
    with pytest.raises(DataFormatError, match="missing field 'y'"):
        serial.decode_secret_key(doc)


def test_rejects_invalid_params(keypair):
    pk, _ = keypair
    doc = serial.encode_public_key(pk)
    doc["params"]["s"] = 4
    with pytest.raises(DataFormatError, match="invalid parameters"):
        serial.decode_public_key(doc)


def test_rejects_inconsistent_parts(hom_keys):
    kc = hom_encrypt(hom_keys, 0, rng(4))
    doc = serial.encode_kciphertext(kc)
    part = doc["parts"][3]
    for bad in ({**part, "c": part["c"][:-1]}, {**part, "field_k": 16}):
        doc["parts"][3] = bad
        with pytest.raises(DataFormatError, match="inconsistent parts"):
            serial.decode_kciphertext(doc)


def test_rejects_non_json_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(DataFormatError, match="not JSON"):
        serial.load_json(bad)


def test_rejects_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="no such file"):
        serial.load_json(tmp_path / "absent.json")


def test_rejects_bad_link_shape(hom_keys):
    doc = serial.encode_boost_aux(hom_keys.boosts[0])
    doc["links"][0] = doc["links"][0][:-1]
    with pytest.raises(DataFormatError, match=r"links\[0\]"):
        serial.decode_boost_aux(doc)


def test_rejects_truncated_assignment(hom_keys):
    doc = serial.encode_boost_aux(hom_keys.boosts[0])
    doc["assignment"] = doc["assignment"][: len(doc["assignment"]) // 2]
    with pytest.raises(DataFormatError, match="assignment"):
        serial.decode_boost_aux(doc)


def test_rejects_odd_depth_tree(hom_keys):
    # a consistent nine-level tree: CORR needs an even depth
    doc = serial.encode_boost_aux(hom_keys.boosts[0])
    doc["links"] = doc["links"][1:]
    doc["level_params"] = doc["level_params"][1:]
    doc["assignment"] = doc["assignment"][: 1 << 9]
    with pytest.raises(DataFormatError, match="even"):
        serial.decode_boost_aux(doc)


def test_loads_file_carrying_tree_netlist(hom_keys):
    # earlier files also stored the tree as a netlist; it is ignored
    aux = hom_keys.boosts[0]
    doc = serial.encode_boost_aux(aux)
    assert "circuit" not in doc
    doc["circuit"] = format_netlist(gtree_circuit(aux.graph.b, aux.assignment))
    back = serial.decode_boost_aux(doc)
    assert np.array_equal(back.assignment, aux.assignment)
    assert all(np.array_equal(x, y) for x, y in zip(back.links, aux.links))


def test_rejects_wrong_lambda(hom_keys):
    doc = serial.encode_boost_aux(hom_keys.boosts[0])
    doc["lambda_measured"] += 1e-6
    with pytest.raises(DataFormatError, match="second singular value"):
        serial.decode_boost_aux(doc)


def test_rejects_repeated_adjacency_entries(hom_keys):
    doc = serial.encode_boost_aux(hom_keys.boosts[0])
    row = doc["adjacency"][3]
    row[1] = row[0]
    with pytest.raises(DataFormatError, match="distinct"):
        serial.decode_boost_aux(doc)


def test_boost_link_count_must_fit_the_tree(hom_keys, tmp_path, capsys):
    # levels and links agree in number, but not with the assignment's tree
    doc = serial.encode_boost_aux(hom_keys.boosts[0])
    links, levels = doc["links"], doc["level_params"]
    d = len(links) - 1
    for n in (0, 1, 2, d + 2):
        bad = {**doc, "links": (links * 2)[:n], "level_params": (levels * 2)[:n + 1]}
        with pytest.raises(DataFormatError, match=f"depth {d} needs {d + 1} links, got {n}$"):
            serial.decode_boost_aux(bad)
    keys = tmp_path / "keys"
    serial.save_hom_keys(hom_keys, keys)
    serial.save_json({**doc, "links": [], "level_params": levels[:1]}, keys / "boost0.json")
    capsys.readouterr()
    out = str(tmp_path / "m.kct.json")
    assert main(["hom-encrypt", "--keys", str(keys), "--m", "1", "--out", out]) == 3
    assert f"needs {d + 1} links, got 0" in capsys.readouterr().err


def test_key_directory_must_match_meta(hom_keys, tmp_path):
    keys = tmp_path / "keys"
    serial.save_hom_keys(hom_keys, keys)
    small, _ = keygen(Params(n=8, r=6, s=3, field=GF16, eta=0.0), rng(6))
    good_pk = (keys / "level0.pk.json").read_text()
    serial.save_public_key(small, keys / "level0.pk.json")
    with pytest.raises(DataFormatError, match="level 0"):
        serial.load_hom_keys(keys)
    (keys / "level0.pk.json").write_text(good_pk)
    doc = serial.load_json(keys / "boost0.json")
    doc["level_params"][-1]["eta"] = 0.01
    serial.save_json(doc, keys / "boost0.json")
    with pytest.raises(DataFormatError, match="boost 0"):
        serial.load_hom_keys(keys)


def test_gf64_keys_load_and_reject_junk(tmp_path):
    # half of all GF(2^64) elements reach 2^63, past int64
    pk, sk = keygen(Params(n=16, r=6, s=3, field=FieldSpec(64), eta=0.0), rng(12))
    assert int(pk.P.max()) >= 2**63
    serial.save_public_key(pk, tmp_path / "pk.json")
    serial.save_secret_key(sk, tmp_path / "sk.json")
    assert np.array_equal(serial.load_public_key(tmp_path / "pk.json").P, pk.P)
    back = serial.load_secret_key(tmp_path / "sk.json")
    for a, b in ((back.a, sk.a), (back.M, sk.M), (back.y_dec, sk.y_dec)):
        assert np.array_equal(a, b)
    # as lists: an array entry would cast the junk or refuse it on assignment
    good = serial.encode_public_key(pk)["P"].tolist()
    for junk in (1.5, "x", True, -1, 2**64):
        doc = {**serial.encode_public_key(pk), "P": [row[:] for row in good]}
        doc["P"][0][0] = junk
        with pytest.raises(DataFormatError, match="P"):
            serial.decode_public_key(doc)
    doc = serial.encode_public_key(pk)
    doc["P"] = [good[0][:-1]] + good[1:]
    with pytest.raises(DataFormatError, match="P"):
        serial.decode_public_key(doc)


# A junk value of each JSON type, plus a ragged list.
JUNK = ("x", 5, [1], None, [[1, 2], [3]])


def test_mutated_key_fields_are_data_errors(hom_keys, tmp_path):
    keys = tmp_path / "keys"
    serial.save_hom_keys(hom_keys, keys)
    out = str(tmp_path / "m.kct.json")
    for name in ("meta.json", "level0.pk.json", "level0.sk.json", "boost0.json"):
        good = serial.load_json(keys / name)
        for field in good:
            for junk in JUNK:
                serial.save_json({**good, field: junk}, keys / name)
                with pytest.raises(DataFormatError):
                    serial.load_hom_keys(keys)
                assert main(["hom-encrypt", "--keys", str(keys), "--m", "1", "--out", out]) == 3
        serial.save_json(good, keys / name)
    # well-typed but out of range: a shape hom_keygen would refuse to build
    good = serial.load_json(keys / "meta.json")
    for bad in ({"k": 0, "depth": 0}, {"k": 31}, {"depth": 0}):
        serial.save_json({**good, **bad}, keys / "meta.json")
        with pytest.raises(DataFormatError, match="meta.json"):
            serial.load_hom_keys(keys)
        assert main(["hom-encrypt", "--keys", str(keys), "--m", "1", "--out", out]) == 3
    serial.save_json(good, keys / "meta.json")
    assert main(["hom-encrypt", "--keys", str(keys), "--m", "1", "--out", out]) == 0


def test_mutated_ciphertext_fields_are_data_errors(hom_keys, tmp_path):
    keys = tmp_path / "keys"
    serial.save_hom_keys(hom_keys, keys)
    good = serial.encode_kciphertext(hom_encrypt(hom_keys, 1, rng(8)))
    ct = tmp_path / "m.kct.json"
    docs = [{**good, field: junk} for field in good for junk in JUNK]
    docs += [{**good, "parts": [{**good["parts"][0], field: junk}] + good["parts"][1:]}
             for field in good["parts"][0] for junk in JUNK]
    # each part well formed on its own: one in another valid field, one an entry short
    part = good["parts"][3]
    docs += [{**good, "parts": good["parts"][:3] + [bad] + good["parts"][4:]}
             for bad in ({**part, "field_k": 16}, {**part, "c": part["c"][:-1]})]
    for doc in docs:
        serial.save_json(doc, ct)
        with pytest.raises(DataFormatError):
            serial.load_kciphertext(ct)
        assert main(["hom-decrypt", "--keys", str(keys), "--ct", str(ct)]) == 3
