"""End-to-end command-line flows, exit codes, and determinism."""

import json
import shutil

import pytest

import codehom.analysis
import codehom.cli
from codehom.analysis import MAX_TRIALS
from codehom.cli import main


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
    doc = json.loads(ct.read_text())
    for bad in ({**doc, "c": doc["c"][:-1]}, {**doc, "field_k": 16}):
        ct.write_text(json.dumps(bad))
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


def test_tampered_secret_key_is_data_error(base_key, tmp_path, capsys):
    # decrypt reads y alone: a y that is nonzero off S decrypts to a wrong
    # plaintext, and a bad M or a repeated point goes unseen, unless the
    # loader checks M and y against the trapdoor that S and a define
    ct = tmp_path / "ct.json"
    assert run(capsys, "encrypt", "--pk", f"{base_key}.pk.json", "--m", "5a",
               "--out", ct, "--seed", "3")[0] == 0
    with open(f"{base_key}.sk.json") as f:
        good = json.load(f)
    off = min(set(range(len(good["a"]))) - set(good["S"]))
    y, a, M = good["y"][:], good["a"][:], [row[:] for row in good["M"]]
    y[off] = 1
    a[0] = a[1]
    M[0][0] ^= 1
    sk = tmp_path / "sk.json"
    for name, doc, why in (("y", {**good, "y": y}, "trapdoor"),
                           ("a", {**good, "a": a}, "distinct"),
                           ("M", {**good, "M": M}, "trapdoor")):
        sk.write_text(json.dumps(doc))
        code, _, err = run(capsys, "decrypt", "--sk", sk, "--ct", ct)
        assert code == 3, name
        assert why in err, name
    sk.write_text(json.dumps(good))
    assert run(capsys, "decrypt", "--sk", sk, "--ct", ct)[:2] == (0, "5a\n")


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


def test_tampered_boost_file_is_data_error(mini_keys, tmp_path, capsys):
    net = tmp_path / "and.net"
    net.write_text("inputs x0 x1\nt = AND x0 x1\noutputs t\n")
    ct = tmp_path / "m.kct.json"
    run(capsys, "hom-encrypt", "--keys", mini_keys, "--m", "1", "--out", ct, "--seed", 2)
    keys = tmp_path / "keys"
    shutil.copytree(mini_keys, keys)
    doc = json.loads((keys / "boost0.json").read_text())
    doc["assignment"] = doc["assignment"][: len(doc["assignment"]) // 2]
    (keys / "boost0.json").write_text(json.dumps(doc))
    code, _, err = run(capsys, "hom-eval", "--keys", keys, "--circuit", net,
                       "--inputs", ct, ct, "--out", tmp_path / "r")
    assert code == 3
    assert "assignment" in err


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
