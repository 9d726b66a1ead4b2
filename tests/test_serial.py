"""Envelope round-trips and malformed-input rejection."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codehom import serial
from codehom.circuit import format_netlist, parse_netlist
from codehom.cli import main
from codehom.errors import DataFormatError, UsageError
from codehom.field import FieldSpec
from codehom.hom import BoostConfig, hdec, hom_encrypt, hom_eval, hom_keygen
from codehom.scheme import Params, decrypt_batch, draw_key, encrypt_batch, key_stack, keygen

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
    c = encrypt_batch(pk, [9], rng(1))[0]
    serial.save_ciphertext(GF16, c, tmp_path / "ct.json")
    spec, back = serial.load_ciphertext(tmp_path / "ct.json")
    assert spec == GF16
    assert back.dtype == GF16.dtype and np.array_equal(back, c)
    assert decrypt_batch(sk, back[None]).tolist() == [9]


def test_kciphertext_is_one_block(hom_keys, tmp_path):
    # one (k, n) array of hex rows, a row per part, and no nested envelopes
    kc = hom_encrypt(hom_keys, 1, rng(3))
    serial.save_kciphertext(kc, tmp_path / "kct.json")
    doc = json.loads((tmp_path / "kct.json").read_text())
    assert list(doc) == ["format", "kind", "field_k", "parts"]
    assert (doc["format"], doc["kind"], doc["field_k"]) == ("codehom/v2", "kct", 4)
    assert doc["parts"]["shape"] == [32, 16]
    assert all(isinstance(row, str) and len(row) == 32 for row in doc["parts"]["rows"])
    back = serial.load_kciphertext(tmp_path / "kct.json")
    assert back.spec == GF16 and back.P.dtype == GF16.dtype and np.array_equal(back.P, kc.P)


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


def test_encoded_documents_own_their_arrays(keypair, hom_keys):
    # tests edit encoded documents in place; the shared keys must not see
    # it, so a document holds plain JSON values and no view of a key array
    pk, sk = keypair
    docs = [serial.encode_public_key(pk), serial.encode_secret_key(sk),
            serial.encode_boost_aux(hom_keys.boosts[0]),
            serial.encode_kciphertext(hom_encrypt(hom_keys, 1, rng(3)))]
    for doc in docs:
        assert json.loads(json.dumps(doc)) == doc


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
    doc["P"]["rows"][0] = "10" + doc["P"]["rows"][0][2:]
    with pytest.raises(DataFormatError, match="outside"):
        serial.decode_public_key(doc)


def test_rejects_shape_mismatch(keypair):
    pk, _ = keypair
    doc = serial.encode_public_key(pk)
    doc["P"] = {"shape": [15, 6], "rows": doc["P"]["rows"][:-1]}
    with pytest.raises(DataFormatError, match="16x6"):
        serial.decode_public_key(doc)


def test_rejects_missing_field(keypair):
    _, sk = keypair
    doc = serial.encode_secret_key(sk)
    del doc["a"]
    with pytest.raises(DataFormatError, match="missing field 'a'"):
        serial.decode_secret_key(doc)


def test_rejects_invalid_params(keypair):
    pk, _ = keypair
    doc = serial.encode_public_key(pk)
    doc["params"]["s"] = 4
    with pytest.raises(DataFormatError, match="invalid parameters"):
        serial.decode_public_key(doc)


def test_rejects_non_json_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(DataFormatError, match="not JSON"):
        serial.load_json(bad)


def test_rejects_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="no such file"):
        serial.load_json(tmp_path / "absent.json")


def _head(row_doc: dict, m: int) -> dict:
    """The first m entries of a 1-D v2 index array."""
    return {"shape": [m], "rows": [row_doc["rows"][0][: 2 * serial.INDEX_BYTES * m]]}


def test_rejects_bad_link_shape(hom_keys):
    # a well-formed (32, 8, 8) array where the (32, 16, 8) entry link belongs
    doc = serial.encode_boost_aux(hom_keys.boosts[0])
    doc["links"][0] = doc["links"][1]
    with pytest.raises(DataFormatError, match=r"links\[0\] must have shape"):
        serial.decode_boost_aux(doc)


def test_rejects_truncated_assignment(hom_keys):
    doc = serial.encode_boost_aux(hom_keys.boosts[0])
    doc["assignment"] = _head(doc["assignment"], doc["assignment"]["shape"][0] // 2)
    with pytest.raises(DataFormatError, match="assignment"):
        serial.decode_boost_aux(doc)


def test_rejects_odd_depth_tree(hom_keys):
    # a consistent nine-level tree: CORR needs an even depth
    doc = serial.encode_boost_aux(hom_keys.boosts[0])
    doc["links"] = doc["links"][1:]
    doc["level_params"] = doc["level_params"][1:]
    doc["assignment"] = _head(doc["assignment"], 1 << 9)
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
    rows, w = doc["adjacency"]["rows"], 2 * serial.INDEX_BYTES
    rows[3] = rows[3][:w] + rows[3][:w] + rows[3][2 * w:]
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


def test_gf64_keys_load_and_reject_junk(tmp_path, capsys):
    # half of all GF(2^64) elements reach 2^63, past int64
    gf64 = FieldSpec(64)
    pk, sk = keygen(Params(n=16, r=6, s=3, field=gf64, eta=0.0), rng(12))
    assert int(pk.P.max()) >= 2**63
    serial.save_public_key(pk, tmp_path / "pk.json")
    serial.save_secret_key(sk, tmp_path / "sk.json")
    back_pk = serial.load_public_key(tmp_path / "pk.json")
    back = serial.load_secret_key(tmp_path / "sk.json")
    for a, b in ((back_pk.P, pk.P), (back.a, sk.a), (back.M, sk.M), (back.y_dec, sk.y_dec)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # a ciphertext is one row of 16 hex digits an entry: a row of plain
    # integers, a non-hex digit, a sign, a 17-digit entry or a ragged
    # nesting is malformed data
    c = encrypt_batch(pk, [2**64 - 1], rng(13))[0]
    good = serial.encode_ciphertext(gf64, c)
    assert int(c.max()) >= 2**63
    assert np.array_equal(serial.decode_ciphertext(good)[1], c)
    (row,) = good["c"]["rows"]
    bad = [{**good["c"], "rows": rows}
           for rows in ([c.tolist()], ["x" + row[1:]], ["-" + row[1:]], [row + "0"],
                        [row[:112], row[112:]], [[row]])]
    bad.append({"shape": [2, 8], "rows": [row[:128], row[128:]]})
    ct, sk_path = tmp_path / "ct.json", str(tmp_path / "sk.json")
    for c in bad:
        with pytest.raises(DataFormatError, match="^c "):
            serial.decode_ciphertext({**good, "c": c})
        serial.save_json({**good, "c": c}, ct)
        capsys.readouterr()
        assert main(["decrypt", "--sk", sk_path, "--ct", str(ct)]) == 3
        assert "Traceback" not in capsys.readouterr().err
    serial.save_json(good, ct)
    assert main(["decrypt", "--sk", sk_path, "--ct", str(ct)]) == 0
    assert capsys.readouterr().out == "f" * 16 + "\n"


# A junk value of each JSON type, plus a ragged list.
JUNK = ("x", 5, [1], None, [[1, 2], [3]])


def test_mutated_key_fields_are_data_errors(hom_keys, tmp_path):
    keys = tmp_path / "keys"
    out = str(tmp_path / "m.kct.json")
    serial.save_hom_keys(hom_keys, keys)
    for name in ("meta.json", "level0.pk.json", "level0.sk.json", "boost0.json"):
        good = serial.load_json(keys / name)
        for field in good:
            for junk in JUNK:
                serial.save_json({**good, field: junk}, keys / name)
                with pytest.raises(DataFormatError):
                    serial.load_hom_keys(keys)
                assert main(["hom-encrypt", "--keys", str(keys), "--m", "1",
                             "--out", out]) == 3
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
    docs += [{**good, "parts": {**good["parts"], field: junk}}
             for field in good["parts"] for junk in JUNK]
    # rows of one field read under another: GF(2^16) takes 4 digits an entry
    docs.append({**good, "field_k": 16})
    for doc in docs:
        serial.save_json(doc, ct)
        with pytest.raises(DataFormatError):
            serial.load_kciphertext(ct)
        assert main(["hom-decrypt", "--keys", str(keys), "--ct", str(ct)]) == 3


# Mutations of one v2 array, {"shape": [...], "rows": [...]}, in a GF(16)
# key: one hex digit per nibble, two per entry.
HEX_MUTATIONS = {
    "odd hex length": lambda a: {**a, "rows": [a["rows"][0][:-1]] + a["rows"][1:]},
    "non-hex digit": lambda a: {**a, "rows": ["g" + a["rows"][0][1:]] + a["rows"][1:]},
    "space in a row": lambda a: {**a, "rows": [a["rows"][0][:2] + " " + a["rows"][0][3:]]
                                 + a["rows"][1:]},
    "wrong row width": lambda a: {**a, "rows": [r + "00" for r in a["rows"]]},
    "shape disagrees with rows": lambda a: {**a, "shape": [a["shape"][0] + 1] + a["shape"][1:]},
    "non-list rows": lambda a: {**a, "rows": "".join(a["rows"])},
    "entry >= q": lambda a: {**a, "rows": ["10" + a["rows"][0][2:]] + a["rows"][1:]},
    "empty first dimension": lambda a: {"shape": [0] + a["shape"][1:],
                                        "rows": [] if len(a["shape"]) > 1 else [""]},
    "empty last dimension": lambda a: {"shape": a["shape"][:-1] + [0],
                                       "rows": [""] * len(a["rows"])},
}


@pytest.mark.parametrize("case", list(HEX_MUTATIONS))
def test_mutated_hex_rows_are_data_errors(case, keypair, hom_keys, tmp_path, capsys):
    # one array at a time: a public key's P, a boost's link, a ct's c and a kct's parts
    mutate = HEX_MUTATIONS[case]
    pk, sk = keypair
    keys = tmp_path / "keys"
    pk_path, sk_path, ct_path, kct_path = (
        str(tmp_path / name) for name in ("pk.json", "sk.json", "ct.json", "m.kct.json"))
    serial.save_secret_key(sk, sk_path)
    serial.save_hom_keys(hom_keys, keys)
    boost_path = str(keys / "boost0.json")
    boost = serial.load_json(boost_path)
    links = boost["links"][:1] + [mutate(boost["links"][1])] + boost["links"][2:]
    pk_doc = serial.encode_public_key(pk)
    ct_doc = serial.encode_ciphertext(GF16, encrypt_batch(pk, [9], rng(1))[0])
    kct_doc = serial.encode_kciphertext(hom_encrypt(hom_keys, 1, rng(3)))
    out = str(tmp_path / "out.json")
    capsys.readouterr()
    for path, good, bad, argv in (
        (pk_path, pk_doc, {**pk_doc, "P": mutate(pk_doc["P"])},
         ["encrypt", "--pk", pk_path, "--m", "1", "--out", out]),
        (boost_path, boost, {**boost, "links": links},
         ["hom-encrypt", "--keys", str(keys), "--m", "1", "--out", out]),
        (ct_path, ct_doc, {**ct_doc, "c": mutate(ct_doc["c"])},
         ["decrypt", "--sk", sk_path, "--ct", ct_path]),
        (kct_path, kct_doc, {**kct_doc, "parts": mutate(kct_doc["parts"])},
         ["hom-decrypt", "--keys", str(keys), "--ct", kct_path, "--fresh"]),
    ):
        serial.save_json(bad, path)
        assert main(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        serial.save_json(good, path)


@pytest.mark.parametrize("name", ["meta.json", "level0.pk.json", "level0.sk.json", "boost0.json"])
def test_key_file_tagged_v1_is_data_error(name, hom_keys, tmp_path, capsys):
    # every file has one format, and v1 is none of them
    keys = tmp_path / "keys"
    serial.save_hom_keys(hom_keys, keys)
    doc = serial.load_json(keys / name)
    serial.save_json({**doc, "format": "codehom/v1"}, keys / name)
    with pytest.raises(DataFormatError, match="format 'codehom/v2', found 'codehom/v1'"):
        serial.load_hom_keys(keys)
    capsys.readouterr()
    out = str(tmp_path / "m.kct.json")
    assert main(["hom-encrypt", "--keys", str(keys), "--m", "1", "--out", out]) == 3
    err = capsys.readouterr().err
    assert "'codehom/v2'" in err and "Traceback" not in err
