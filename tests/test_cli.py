"""End-to-end command-line flows, exit codes, and determinism."""

import json
import shutil
import time

import pytest

import codehom.analysis
import codehom.cli
import codehom.errors
import codehom.hom
import codehom.serial
from codehom.analysis import MAX_TRIALS
from codehom.cli import main
from codehom.field import FieldSpec


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def base_key(tmp_path_factory):
    d = tmp_path_factory.mktemp("base")
    prefix = d / "key"
    assert main(["keygen", "--n", "24", "--r", "9", "--s", "3",
                 "--out", str(prefix), "--seed", "7"]) == 0
    return prefix


@pytest.fixture(scope="module")
def mini_keys(tmp_path_factory):
    d = tmp_path_factory.mktemp("hom") / "hk"
    assert main(["hom-keygen", "--n", "16", "--r", "6", "--s", "3", "--field-k", "4",
                 "--k", "32", "--d", "1", "--b", "8", "--lambda-target", "0.9",
                 "--mid-n", "8", "--out", str(d), "--seed", "11"]) == 0
    return d


def test_encrypt_decrypt_round_trip(base_key, tmp_path, capsys):
    ct = tmp_path / "ct.json"
    code, _, _ = run(capsys, "encrypt", "--pk", f"{base_key}.pk.json",
                     "--m", "1a", "--out", ct, "--seed", "3")
    assert code == 0
    code, out, _ = run(capsys, "decrypt", "--sk", f"{base_key}.sk.json", "--ct", ct)
    assert code == 0
    assert out.strip() == "1a"
    # a well-formed ciphertext of another length or field does not fit the key
    spec, c = codehom.serial.load_ciphertext(ct)
    for bad in ((spec, c[:-1]), (FieldSpec(16), c)):
        codehom.serial.save_ciphertext(*bad, ct)
        code, _, err = run(capsys, "decrypt", "--sk", f"{base_key}.sk.json", "--ct", ct)
        assert code == 1
        assert "does not match this key" in err


def test_gf64_round_trip(tmp_path, capsys):
    prefix = tmp_path / "k64"
    assert run(capsys, "keygen", "--n", "16", "--r", "6", "--s", "3", "--k", "64",
               "--out", prefix, "--seed", "4")[0] == 0
    ct = tmp_path / "ct.json"
    m = "f" * 16  # top bit set: the message itself needs uint64
    assert run(capsys, "encrypt", "--pk", f"{prefix}.pk.json", "--m", m,
               "--out", ct, "--seed", "5")[0] == 0
    code, out, _ = run(capsys, "decrypt", "--sk", f"{prefix}.sk.json", "--ct", ct)
    assert code == 0
    assert out.strip() == m


def test_keygen_validation_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "keygen", "--n", "24", "--r", "9", "--s", "4",
                       "--out", tmp_path / "x")
    assert code == 2
    assert "multiple of 3" in err
    code, _, _ = run(capsys, "keygen", "--n", "24", "--out", tmp_path / "x")
    assert code == 1
    code, _, _ = run(capsys, "keygen", "--n", "24", "--alpha", "0.25",
                     "--r", "9", "--out", tmp_path / "x")
    assert code == 1


def test_keygen_alpha_family(tmp_path, capsys):
    code, out, _ = run(capsys, "keygen", "--n", "64", "--alpha", "0.25",
                       "--out", tmp_path / "fam", "--seed", "1")
    assert code == 0
    assert "fam.pk.json" in out


def test_encrypt_rejects_bad_message(base_key, tmp_path, capsys):
    code, _, err = run(capsys, "encrypt", "--pk", f"{base_key}.pk.json",
                       "--m", "zz", "--out", tmp_path / "ct.json")
    assert code == 1 and "hex" in err
    code, _, err = run(capsys, "encrypt", "--pk", f"{base_key}.pk.json",
                       "--m", "1ff", "--out", tmp_path / "ct.json")
    assert code == 1 and "outside field" in err


def test_wrong_file_kind_is_data_error(base_key, capsys):
    code, _, err = run(capsys, "decrypt", "--sk", f"{base_key}.sk.json",
                       "--ct", f"{base_key}.pk.json")
    assert code == 3
    assert "kind" in err


def test_secret_key_with_bad_S_is_data_error(base_key, tmp_path, capsys):
    # keygen writes S as distinct, increasing indices; a bool is not an index
    ct = tmp_path / "ct.json"
    assert run(capsys, "encrypt", "--pk", f"{base_key}.pk.json", "--m", "1a",
               "--out", ct, "--seed", "3")[0] == 0
    with open(f"{base_key}.sk.json") as f:
        good = json.load(f)
    lo, mid, hi = good["S"]
    sk = tmp_path / "sk.json"
    for S in ([True, mid, hi], [lo, lo, lo], [lo, hi, mid], [mid, mid, hi]):
        sk.write_text(json.dumps({**good, "S": S}))
        code, _, err = run(capsys, "decrypt", "--sk", sk, "--ct", ct)
        assert code == 3, S
        assert "increasing row indices" in err
    sk.write_text(json.dumps(good))
    assert run(capsys, "decrypt", "--sk", sk, "--ct", ct)[:2] == (0, "1a\n")


def test_tampered_secret_key_is_data_error(base_key, mini_keys, tmp_path, capsys):
    # the loader computes M and y from S and the points a: a repeated point
    # would divide by zero in y's closed form. A v1 file, which carried M
    # and y, is not read; nor is a v1 ct or kct, whose arrays were lists of
    # plain integers, one nested ct per part of a kct.
    ct = tmp_path / "ct.json"
    assert run(capsys, "encrypt", "--pk", f"{base_key}.pk.json", "--m", "5a",
               "--out", ct, "--seed", "3")[0] == 0
    with open(f"{base_key}.sk.json") as f:
        good = json.load(f)
    row = good["a"]["rows"][0]
    w = len(row) // good["a"]["shape"][0]
    a = {**good["a"], "rows": [row[w:2 * w] + row[w:]]}
    sk = tmp_path / "sk.json"
    for name, doc, why in (("a", {**good, "a": a}, "distinct"),
                           ("format", {**good, "format": "codehom/v1"}, "'codehom/v2'")):
        sk.write_text(json.dumps(doc))
        code, _, err = run(capsys, "decrypt", "--sk", sk, "--ct", ct)
        assert code == 3, name
        assert why in err and "Traceback" not in err, name
    sk.write_text(json.dumps(good))
    assert run(capsys, "decrypt", "--sk", sk, "--ct", ct)[:2] == (0, "5a\n")
    kct = tmp_path / "m.kct.json"
    assert run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", "1", "--out", kct)[0] == 0
    spec, c = codehom.serial.load_ciphertext(ct)
    kc = codehom.serial.load_kciphertext(kct)

    def v1_ct(spec, c):
        return {"format": "codehom/v1", "kind": "ct", "field_k": spec.k, "c": c.tolist()}
    for path, doc, argv in (
        (ct, v1_ct(spec, c), ["decrypt", "--sk", f"{base_key}.sk.json", "--ct", ct]),
        (kct, {"format": "codehom/v1", "kind": "kct",
               "parts": [v1_ct(kc.spec, row) for row in kc.P]},
         ["hom-decrypt", "--keys", mini_keys, "--ct", kct, "--fresh"]),
    ):
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), doc["kind"]
        assert "'codehom/v2'" in err and "Traceback" not in err, doc["kind"]


def test_missing_file_is_data_error(base_key, tmp_path, capsys):
    code, _, err = run(capsys, "decrypt", "--sk", f"{base_key}.sk.json",
                       "--ct", tmp_path / "absent.json")
    assert code == 3
    assert "no such file" in err


@pytest.mark.parametrize("case", ["undecodable ct", "directory ct", "directory pk",
                                  "undecodable circuit", "directory circuit", "file as keys",
                                  "deeply nested ct"])
def test_unreadable_input_is_data_error(case, base_key, mini_keys, tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_bytes(b"\xff\xfe{}")  # not UTF-8
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)  # past the JSON parser's recursion limit
    argv = {
        "undecodable ct": ["decrypt", "--sk", f"{base_key}.sk.json", "--ct", junk],
        "directory ct": ["decrypt", "--sk", f"{base_key}.sk.json", "--ct", tmp_path],
        "directory pk": ["encrypt", "--pk", tmp_path, "--m", "1", "--out", tmp_path / "ct"],
        "undecodable circuit": ["hom-eval", "--keys", mini_keys, "--circuit", junk,
                                "--inputs", junk, "--out", tmp_path / "r"],
        "directory circuit": ["hom-eval", "--keys", mini_keys, "--circuit", tmp_path,
                              "--inputs", junk, "--out", tmp_path / "r"],
        "file as keys": ["hom-encrypt", "--keys", junk, "--m", "1", "--out", tmp_path / "m"],
        "deeply nested ct": ["decrypt", "--sk", f"{base_key}.sk.json", "--ct", deep],
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "cannot read" in err


@pytest.mark.parametrize("case", ["directory as ct", "file as key directory",
                                  "missing parent directory"])
def test_unwritable_output_is_usage_error(case, base_key, tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("")
    argv = {
        "directory as ct": ["encrypt", "--pk", f"{base_key}.pk.json", "--m", "1",
                            "--out", tmp_path],
        "file as key directory": ["hom-keygen", "--n", "16", "--r", "6", "--s", "3",
                                  "--field-k", "4", "--k", "32", "--d", "1", "--b", "8",
                                  "--lambda-target", "0.9", "--mid-n", "8",
                                  "--out", plain, "--seed", "1"],
        "missing parent directory": ["keygen", "--n", "24", "--r", "9", "--s", "3",
                                     "--out", tmp_path / "absent" / "x"],
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error: cannot write") and err.count("\n") == 1, err


def test_unknown_command_is_usage(capsys):
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert main(["hom-eval", "--help"]) == 0
    capsys.readouterr()


@pytest.fixture(scope="module")
def deep_keys(tmp_path_factory):
    d = tmp_path_factory.mktemp("deep") / "hk"
    assert main(["hom-keygen", "--n", "16", "--r", "6", "--s", "3", "--field-k", "4",
                 "--k", "32", "--d", "2", "--b", "8", "--lambda-target", "0.9",
                 "--mid-n", "8", "--out", str(d), "--seed", "11"]) == 0
    return d


def test_hom_and_matches_plaintext(mini_keys, tmp_path, capsys):
    net = tmp_path / "and.net"
    net.write_text("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    for a in (0, 1):
        for b in (0, 1):
            xa, xb = tmp_path / "a.kct.json", tmp_path / "b.kct.json"
            assert run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", str(a),
                       "--out", xa, "--seed", 5 + a)[0] == 0
            assert run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", str(b),
                       "--out", xb, "--seed", 8 + b)[0] == 0
            code, _, _ = run(capsys, "hom-eval", "--keys", mini_keys, "--circuit", net,
                             "--inputs", xa, xb, "--out", tmp_path / "r")
            assert code == 0
            code, out, _ = run(capsys, "hom-decrypt", "--keys", mini_keys,
                               "--ct", tmp_path / "r.kct.json")
            assert code == 0
            assert int(out.strip(), 16) == (a & b)


def test_hom_decrypt_fresh_level(mini_keys, tmp_path, capsys):
    ct = tmp_path / "m.kct.json"
    assert run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", "1",
               "--out", ct, "--seed", 2)[0] == 0
    code, out, _ = run(capsys, "hom-decrypt", "--keys", mini_keys, "--ct", ct, "--fresh")
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("parts", [1, 96])
def test_hom_decrypt_wrong_part_count_is_usage_error(parts, mini_keys, tmp_path, capsys):
    # the keys replicate 32 parts; the vote refuses any other count, as
    # hom-eval does
    ct = tmp_path / "m.kct.json"
    assert run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", "1",
               "--out", ct, "--seed", 2)[0] == 0
    doc = json.loads(ct.read_text())
    block = doc["parts"]
    doc["parts"] = {"shape": [parts, block["shape"][1]], "rows": (block["rows"] * 3)[:parts]}
    ct.write_text(json.dumps(doc))
    for fresh in ([], ["--fresh"]):
        code, out, err = run(capsys, "hom-decrypt", "--keys", mini_keys, "--ct", ct, *fresh)
        assert (code, out) == (1, "")
        assert f"does not match the keys: KCiphertext(k={parts}" in err
        assert "Traceback" not in err


def test_hom_eval_arity_mismatch(mini_keys, tmp_path, capsys):
    net = tmp_path / "and.net"
    net.write_text("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    ct = tmp_path / "m.kct.json"
    assert run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", "1",
               "--out", ct, "--seed", 2)[0] == 0
    code, _, err = run(capsys, "hom-eval", "--keys", mini_keys, "--circuit", net,
                       "--inputs", ct, "--out", tmp_path / "r")
    assert code == 1
    assert "2" in err


def test_hom_eval_multi_output_files(mini_keys, tmp_path, capsys):
    net = tmp_path / "two.net"
    net.write_text("inputs x0 x1\nt = AND x0 x1\nu = XOR x0 x1\noutputs t u\n")
    xa, xb = tmp_path / "a.kct.json", tmp_path / "b.kct.json"
    run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", "1", "--out", xa, "--seed", 3)
    run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", "0", "--out", xb, "--seed", 4)
    code, _, _ = run(capsys, "hom-eval", "--keys", mini_keys, "--circuit", net,
                     "--inputs", xa, xb, "--out", tmp_path / "r", "--cheap-xor")
    assert code == 0
    assert (tmp_path / "r0.kct.json").exists() and (tmp_path / "r1.kct.json").exists()
    _, out_t, _ = run(capsys, "hom-decrypt", "--keys", mini_keys,
                      "--ct", tmp_path / "r0.kct.json")
    _, out_u, _ = run(capsys, "hom-decrypt", "--keys", mini_keys,
                      "--ct", tmp_path / "r1.kct.json")
    assert out_t.strip() == "0" and out_u.strip() == "1"


def test_bad_netlist_is_data_error(mini_keys, tmp_path, capsys):
    net = tmp_path / "bad.net"
    net.write_text("inputs x0\nt = AND x0 x0 x0\noutputs t\n")
    ct = tmp_path / "m.kct.json"
    run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", "1", "--out", ct, "--seed", 2)
    code, _, _ = run(capsys, "hom-eval", "--keys", mini_keys, "--circuit", net,
                     "--inputs", ct, "--out", tmp_path / "r")
    assert code == 3


def test_bad_netlist_error_names_the_file(mini_keys, tmp_path, capsys):
    net = tmp_path / "nor.net"
    net.write_text("inputs x0 x1\nt = NOR x0 x1\noutputs t\n")
    code, out, err = run(capsys, "hom-eval", "--keys", mini_keys, "--circuit", net,
                         "--inputs", tmp_path / "absent.json", "--out", tmp_path / "r")
    assert code == 3
    assert out == ""
    assert err == f"error: bad netlist {net}: line 2: unknown gate kind 'NOR'\n"


@pytest.mark.parametrize("cls, want", [
    (codehom.errors.UsageError, 1),
    (codehom.errors.ParameterError, 2),
    (codehom.errors.ConstructionError, 2),
    (codehom.errors.DataFormatError, 3),
    (codehom.errors.BoundFailure, 4),
])
def test_error_class_sets_the_exit_code(cls, want, capsys, monkeypatch):
    def fail(args):
        raise cls("stop")
    monkeypatch.setattr(codehom.cli, "_cmd_selftest", fail)
    assert run(capsys, "selftest") == (want, "", "error: stop\n")


def test_tampered_boost_file_is_data_error(mini_keys, tmp_path, capsys):
    net = tmp_path / "and.net"
    net.write_text("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    ct = tmp_path / "m.kct.json"
    run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", "1", "--out", ct, "--seed", 2)
    keys = tmp_path / "keys"
    shutil.copytree(mini_keys, keys)
    doc = json.loads((keys / "boost0.json").read_text())
    m = doc["assignment"]["shape"][0] // 2
    doc["assignment"] = {"shape": [m], "rows": [doc["assignment"]["rows"][0][: 8 * m]]}
    (keys / "boost0.json").write_text(json.dumps(doc))
    code, _, err = run(capsys, "hom-eval", "--keys", keys, "--circuit", net,
                       "--inputs", ct, ct, "--out", tmp_path / "r")
    assert code == 3
    assert "assignment" in err


def _one_clean_error(err: str) -> bool:
    return err.count("error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("r", [2**40, 2**70], ids=["2^40", "2^70"])
def test_key_file_params_over_the_cap_are_data_errors(r, base_key, mini_keys, tmp_path, capsys):
    # An sk holds S and the points a; nothing else in it bounds r, and the
    # loader builds the n x r matrix M. Keygen's cap is checked first.
    ct = tmp_path / "ct.json"
    assert run(capsys, "encrypt", "--pk", f"{base_key}.pk.json", "--m", "1",
               "--out", ct, "--seed", "3")[0] == 0
    with open(f"{base_key}.sk.json") as f:
        doc = json.load(f)
    doc["params"]["r"] = r
    sk = tmp_path / "sk.json"
    sk.write_text(json.dumps(doc))
    keys = tmp_path / "keys"
    shutil.copytree(mini_keys, keys)
    doc = json.loads((keys / "level0.sk.json").read_text())
    doc["params"]["r"] = r
    (keys / "level0.sk.json").write_text(json.dumps(doc))
    for argv in (["decrypt", "--sk", sk, "--ct", ct],
                 ["hom-encrypt", "--keys", keys, "--m", "1", "--out", tmp_path / "m.kct.json"]):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (3, ""), argv[0]
        assert "n x r matrix" in err and "over the cap" in err and _one_clean_error(err)


def test_boost_graph_over_the_cap_is_data_error(mini_keys, tmp_path, capsys, monkeypatch):
    # The spectral check builds a k x k float matrix before k meets meta.json's;
    # a 60,000-row adjacency would make it 26.8 GiB. The declared k is capped first.
    def must_not_run(*args):
        raise AssertionError("the loader measured the graph's spectrum")
    monkeypatch.setattr(codehom.serial, "second_singular_value", must_not_run)
    keys = tmp_path / "keys"
    shutil.copytree(mini_keys, keys)
    doc = json.loads((keys / "boost0.json").read_text())
    k = 60_000
    doc.update(k=k, b=1, adjacency={"shape": [k, 1], "rows": [f"{i:08x}" for i in range(k)]})
    (keys / "boost0.json").write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "hom-encrypt", "--keys", keys, "--m", "1",
                         "--out", tmp_path / "m.kct.json")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (3, "")
    assert "60,000 x 60,000" in err and "over the cap" in err and _one_clean_error(err)


def test_swapped_boost_files_are_data_errors(deep_keys, tmp_path, capsys):
    # Every boost has the set's params, so only the keys tell a swap: the
    # XOR of an exit link's rows encrypts 1 under the boost's target key.
    keys = tmp_path / "keys"
    shutil.copytree(deep_keys, keys)
    out = tmp_path / "m.kct.json"
    assert run(capsys, "hom-encrypt", "--keys", keys, "--m", "1", "--out", out)[0] == 0
    (keys / "boost0.json").rename(keys / "swap.json")
    (keys / "boost1.json").rename(keys / "boost0.json")
    (keys / "swap.json").rename(keys / "boost1.json")
    code, stdout, err = run(capsys, "hom-encrypt", "--keys", keys, "--m", "1", "--out", out)
    assert (code, stdout) == (3, "")
    assert "boost 0 leads into level 2's key, not level 1's" in err and _one_clean_error(err)


def test_foreign_boost_file_is_data_error(deep_keys, tmp_path, capsys):
    # A boost from another key set of the same shape leads into none of
    # this set's keys: its exit link's row sums decrypt to 1 in few parts.
    other, keys = tmp_path / "other", tmp_path / "keys"
    assert run(capsys, "hom-keygen", "--n", "16", "--r", "6", "--s", "3", "--field-k", "4",
               "--k", "32", "--d", "2", "--b", "8", "--lambda-target", "0.9",
               "--mid-n", "8", "--out", other, "--seed", "12")[0] == 0
    shutil.copytree(deep_keys, keys)
    shutil.copy(other / "boost1.json", keys / "boost1.json")
    out = tmp_path / "m.kct.json"
    code, stdout, err = run(capsys, "hom-encrypt", "--keys", keys, "--m", "1", "--out", out)
    assert (code, stdout) == (3, "")
    assert "boost 1 does not lead into level 2's key" in err and _one_clean_error(err)


def test_foreign_public_key_is_data_error(tmp_path, capsys):
    # A level's pk from another key set of the same shape: y_dec . P is
    # no longer the zero row, and every command that loads the set says so.
    sets = {}
    for seed in (11, 12):
        sets[seed] = tmp_path / f"hk{seed}"
        assert run(capsys, "hom-keygen", "--n", "16", "--r", "6", "--s", "3", "--field-k", "4",
                   "--k", "32", "--d", "1", "--b", "8", "--lambda-target", "0.9",
                   "--mid-n", "8", "--out", sets[seed], "--seed", str(seed))[0] == 0
    keys, ct = sets[11], tmp_path / "m.kct.json"
    assert run(capsys, "hom-encrypt", "--keys", keys, "--m", "1", "--out", ct)[0] == 0
    shutil.copy(sets[12] / "level0.pk.json", keys / "level0.pk.json")
    for argv in (("hom-decrypt", "--keys", keys, "--ct", ct, "--fresh"),
                 ("hom-encrypt", "--keys", keys, "--m", "1", "--out", tmp_path / "x.kct.json")):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (3, "")
        assert "level 0's public key does not match its secret key" in err
        assert str(keys) in err and _one_clean_error(err)


def _bad_hex_row(doc):
    doc["links"][2]["rows"][0] += "0"


def _bad_index_set(doc):
    doc["S"] = [0, 0, 1]


def _bad_part(doc):
    rows = doc["parts"]["rows"]
    rows[3] = "x" + rows[3][1:]


@pytest.mark.parametrize("name, corrupt, want", [
    ("keys/boost1.json", _bad_hex_row, "links[2] rows must each be 16 hex digits"),
    ("keys/level2.sk.json", _bad_index_set, "S must list 3 increasing row indices below 16"),
    ("a.kct.json", _bad_part, "parts rows hold a character that is not a hex digit"),
], ids=["boost", "sk", "kct part"])
def test_load_errors_name_the_file(name, corrupt, want, deep_keys, tmp_path, capsys):
    shutil.copytree(deep_keys, tmp_path / "keys")
    keys, ct = tmp_path / "keys", tmp_path / "a.kct.json"
    assert run(capsys, "hom-encrypt", "--keys", keys, "--m", "1", "--out", ct)[0] == 0
    doc = json.loads((tmp_path / name).read_text())
    corrupt(doc)
    (tmp_path / name).write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "hom-decrypt", "--keys", keys, "--ct", ct, "--fresh")
    assert (code, stdout) == (3, "")
    assert err == f"error: {tmp_path / name}: {want}\n"


def test_analyze_rank_deterministic_branch(capsys):
    code, out, _ = run(capsys, "analyze", "rank", "--t", "9", "--s-overlap", "2",
                       "--trials", "200", "--seed", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["estimate"] == 0.0


def test_analyze_rank_all_field_points(capsys):
    # t = q = 16 draws every point of GF(16) in each trial.
    code, out, _ = run(capsys, "analyze", "rank", "--n", "16", "--r", "6", "--s", "3",
                       "--k", "4", "--t", "16", "--s-overlap", "3", "--trials", "5",
                       "--seed", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["trials"] == 5


def test_analyze_seed_reproducibility(capsys):
    argv = ["analyze", "rank", "--t", "9", "--trials", "1500",
            "--seed", "9", "--jobs", "3", "--format", "json"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    _, out2, _ = run(capsys, *argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("seconds"), b.pop("seconds")
    assert a == b
    assert a["trials"] == 1500


def test_analyze_noise_formats(capsys):
    code, out, _ = run(capsys, "analyze", "noise", "--eta", "0.1", "--trials", "400",
                       "--seed", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("name,trials")
    code, out, _ = run(capsys, "analyze", "noise", "--eta", "0", "--trials", "100",
                       "--seed", "2")
    assert code == 0
    assert "1.000000" in out


def test_analyze_budget_exit_codes(capsys):
    code, out, _ = run(capsys, "analyze", "budget", "--scale", "0.15", "--seed", "7")
    assert code == 0
    assert "verdict" in out
    code, _, err = run(capsys, "analyze", "budget", "--scale", "0.1",
                       "--negative-control", "--seed", "8")
    assert code == 4
    assert "violated" in err
    for scale in ("nan", "inf", "0", "-1"):
        code, _, err = run(capsys, "analyze", "budget", "--scale", scale, "--seed", "7")
        assert code == 1
        assert "--scale" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "budget", "--scale", "1e15", "--seed", "1"],
    ["analyze", "budget", "--scale", "1e300", "--seed", "1", "--format", "json"],
    ["analyze", "rank", "--trials", str(MAX_TRIALS + 1), "--seed", "1"],
    ["analyze", "noise", "--trials", "10000000000000", "--jobs", "1000000000000"],
    ["analyze", "noise", "--trials", "0"],
])
def test_analyze_trial_counts_outside_the_cap_exit_1(argv, capsys, monkeypatch):
    # Rejected before any experiment runs, so before anything is allocated.
    def must_not_run(*args, **kwargs):
        raise AssertionError("an experiment ran")
    for name in ("_encfail_row", "_reenc_row", "_corr_row", "_chain_row", "_boost_row"):
        monkeypatch.setattr(codehom.analysis, name, must_not_run)
    monkeypatch.setattr(codehom.cli, "rank_experiment", must_not_run)
    monkeypatch.setattr(codehom.cli, "randomness_recovery_experiment", must_not_run)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and f"[1, {MAX_TRIALS:,}]" in err


def test_analyze_budget_at_the_cap_is_accepted(capsys, monkeypatch):
    # encfail at scale 250 asks for exactly MAX_TRIALS trials; the rows are
    # stubbed, so only the check runs.
    seen = {}

    def row(trials, rng, *rest):
        seen[len(seen)] = trials
        return codehom.analysis._budget_row("stub", 1.0, trials, 0, 0.0, {})
    for name in ("_encfail_row", "_reenc_row", "_corr_row", "_chain_row", "_boost_row"):
        monkeypatch.setattr(codehom.analysis, name, row)
    assert run(capsys, "analyze", "budget", "--scale", "250", "--seed", "1")[0] == 0
    assert seen[0] == MAX_TRIALS
    assert run(capsys, "analyze", "budget", "--scale", "250.001", "--seed", "1")[0] == 1


@pytest.mark.parametrize("argv", [
    ["keygen", "--n", "16", "--r", "6", "--s", "3", "--k", "4", "--seed", "-3"],
    ["hom-keygen", "--seed", "-1"],
    ["analyze", "rank", "--trials", "3", "--seed", "-1"],
    ["selftest", "--seed", "-2"],
], ids=["keygen", "hom-keygen", "analyze-rank", "selftest"])
def test_negative_seed_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    # argparse refuses it, so nothing runs and nothing is written
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "argument --seed: expected a non-negative integer" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# Every request here is 1 TiB or more, so it fails at once where it is not
# refused, without using memory.
@pytest.mark.parametrize("argv,shape", [
    (["keygen", "--n", "40", "--r", "2000000", "--s", "3", "--k", "32"],
     "n x r matrix, 40 x 2,000,000"),
    (["keygen", "--n", "16", "--r", "1000000", "--s", "3", "--k", "32"],
     "r x r mixing factor, 1,000,000 x 1,000,000"),
    (["hom-keygen", "--n", "40", "--r", "2000000", "--s", "3", "--field-k", "32"],
     "n x r matrix, 40 x 2,000,000"),
    (["analyze", "rank", "--n", "40", "--r", "2000000000", "--s", "3", "--k", "32",
      "--t", "37", "--trials", "1000"],
     "trials x t x r rows, 1,000 x 37 x 2,000,000,000"),
    (["analyze", "noise", "--n", "60000", "--r", "60000000", "--s", "3", "--k", "16",
      "--trials", "1000000"],
     "trials x r windows, 1,000,000 x 60,000,000"),
], ids=["keygen-n-r", "keygen-r-r", "hom-keygen", "analyze-rank", "analyze-noise"])
def test_oversized_shapes_exit_2(argv, shape, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    assert shape in err and "over the cap" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,shape", [
    (["--k", "1000000000"], "2 x 1,000,000,000 x 1,000,000,000"),
    (["--b", "100000", "--k", "100000"], "2 x 100,000 x 100,000"),
    (["--n", "16", "--r", "6", "--s", "3", "--field-k", "4", "--d", "1000000"],
     "1,000,000 x 32 x 32"),
], ids=["k", "b-k", "d"])
def test_hom_keygen_oversized_key_set_exits_2(argv, shape, tmp_path, capsys, monkeypatch):
    # Refused before the expander draw, the first draw hom_keygen makes.
    def must_not_run(*args, **kwargs):
        raise AssertionError("hom_keygen drew its expander")
    monkeypatch.setattr(codehom.hom, "build_expander", must_not_run)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "hom-keygen", *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    assert f"boosts x parts x parts, {shape}" in err and "over the cap" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,size", [
    (["--mid-n", "200"], "31,455,232"),
    (["--field-k", "16", "--mid-n", "4096"], "11,878,287,360"),
], ids=["mid-n", "field-k-mid-n"])
def test_hom_keygen_oversized_key_material_exits_2(argv, size, tmp_path, capsys, monkeypatch):
    # The boost links grow as d * k * mid_n^2; refused before the first draw.
    def must_not_run(*args, **kwargs):
        raise AssertionError("hom_keygen drew its expander")
    monkeypatch.setattr(codehom.hom, "build_expander", must_not_run)
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "hom-keygen", *argv, "--seed", "1", "--out", "keys")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert f"would hold {size} public field elements" in err and "over the cap" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["analyze", "rank", "--trials", "3", "--jobs", "-5"],
    ["analyze", "rank", "--trials", "3", "--jobs", "0"],
    ["analyze", "noise", "--trials", "3", "--jobs", "0"],
    ["selftest", "--jobs", "0"],
], ids=["analyze-rank-negative", "analyze-rank", "analyze-noise", "selftest"])
def test_jobs_below_1_is_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv, "--seed", "1")
    assert code == 1
    assert out == ""
    assert "argument --jobs: expected an integer >= 1" in err
    assert "Traceback" not in err


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

    workers: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs,cpus,workers", [(8, 2, 2), (1000, 2, 2), (3, 16, 3), (8, None, 1)])
def test_jobs_run_on_at_most_cpu_count_threads(jobs, cpus, workers, capsys, monkeypatch):
    monkeypatch.setattr(codehom.cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(codehom.cli.os, "cpu_count", lambda: cpus)
    RecordingPool.workers = []
    code, out, _ = run(capsys, "analyze", "rank", "--trials", "100", "--jobs", jobs,
                       "--seed", "3", "--format", "json")
    assert code == 0
    assert RecordingPool.workers == [workers]
    assert json.loads(out)["trials"] == 100


def test_jobs_output_is_fixed_by_seed_and_jobs(capsys, monkeypatch):
    # The chunk split, and so the output, depends on --jobs alone, never on
    # the worker count: 8 chunks over 2 threads (the real pool) or run
    # serially give the report recorded before the pool was capped.
    argv = ["analyze", "rank", "--trials", "100", "--jobs", "8", "--seed", "3",
            "--format", "json"]
    monkeypatch.setattr(codehom.cli.os, "cpu_count", lambda: 2)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    real = json.loads(out)
    monkeypatch.setattr(codehom.cli, "ThreadPoolExecutor", RecordingPool)
    serial = json.loads(run(capsys, *argv)[1])
    real.pop("seconds"), serial.pop("seconds")
    assert real == serial
    assert (real["trials"], real["successes"]) == (100, 99)


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    assert "selftest passed" in out
