"""Seeded key files, ciphertexts and reports, pinned byte for byte.

Each case runs one CLI command under a fixed seed and compares the
sha256 of what it wrote with a recorded digest. Any change to the RNG
stream, to the key arithmetic or to the JSON bytes shows up here; a
speed-up of keygen, of encryption, of the boost or of the key writer
must leave every digest as it is.
Key files are pinned twice: as this package writes them (codehom/v2),
and as the v1 writer in tests/v1_writer.py writes the same seeded keys,
whose digests are those of the files codehom wrote before v2. The v1
files must load to the same arrays as the v2 ones.
The error-budget report is pinned by its stdout: its text format carries
no timings, so the seed fixes every byte of it.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import codehom.cli
from codehom.cli import main
from codehom.serial import load_hom_keys, load_public_key, load_secret_key

import v1_writer


def tree_digest(root: Path) -> str:
    """sha256 over every file under root: relative name, NUL, bytes, sorted by name."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


# (argv, sha256 of the v1 files, sha256 of the v2 files the CLI writes)
CASES = {
    "hom-keygen desk": (
        ["hom-keygen", "--preset", "desk", "--seed", "1", "--out", "{out}/keys"],
        "aa605bcd1a168cb639fe42d8aecddf3f68ed1d87c5f6f5e8c7ebd8007cc4c4e0",
        "b91c5717eec6b59ff02771d0dd7d2d1daacb101e0f360a67584671f342394dbf",
    ),
    "hom-keygen paper-dryrun": (
        ["hom-keygen", "--preset", "paper-dryrun", "--seed", "1", "--out", "{out}/keys"],
        "64a7d926eef7c5891833830dcda122aab27668cfbc5774de20cf5f149d566fab",
        "ed8b8852e0d9f2c23f414d262e5a7953c827e4d84949a8e6c697b2efab88b0b2",
    ),
    "keygen k=8": (
        ["keygen", "--n", "40", "--r", "15", "--s", "9", "--k", "8",
         "--seed", "1", "--out", "{out}/key"],
        "b087a75361a16666c06830f389b39675d3aa3f9517783c8f659817be729cda8d",
        "0539b86e3bead5579c4d9fdd8a22fceb7e4bd815ba96be9108b20da01bad9af5",
    ),
    "keygen k=32": (
        ["keygen", "--n", "40", "--r", "15", "--s", "9", "--k", "32",
         "--seed", "1", "--out", "{out}/key"],
        "36c7751dc49386e839e03226f1af5d2f7b6b726298baf19c1b609c3169e77db2",
        "e25bd91015752002905ddcd3e03d9c86a5affd62812cdee36a3e640f3f4bf163",
    ),
    "keygen k=64": (
        ["keygen", "--n", "40", "--r", "15", "--s", "9", "--k", "64",
         "--seed", "1", "--out", "{out}/key"],
        "08886050927d97050d8c3061f9df406584388921b9c25a8964a12c9368d63719",
        "cd1f869eba08d32c0379a6415b3f7291280a193d43915a5deb516d9af0522ba3",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_seeded_key_files_are_pinned(case, tmp_path, capsys):
    argv, _, digest = CASES[case]
    assert main([a.format(out=tmp_path) for a in argv]) == 0
    capsys.readouterr()
    assert tree_digest(tmp_path) == digest


def _key_arrays(path: Path) -> list:
    if path.is_dir():
        hk = load_hom_keys(path)
        levels = hk.levels
        links = [a for aux in hk.boosts for a in (aux.graph.adjacency, aux.assignment, *aux.links)]
    else:
        levels = [(load_public_key(f"{path}.pk.json"), load_secret_key(f"{path}.sk.json"))]
        links = []
    return [a for pk, sk in levels for a in (pk.P, sk.a, sk.M, sk.y_dec, np.array(sk.S))] + links


@pytest.mark.parametrize("case", list(CASES))
def test_v1_key_files_are_pinned_and_load_as_v2(case, tmp_path, capsys, monkeypatch):
    argv, digest, _ = CASES[case]
    v1, v2 = tmp_path / "v1", tmp_path / "v2"
    v1.mkdir()
    v2.mkdir()
    assert main([a.format(out=v2) for a in argv]) == 0
    for name in ("save_public_key", "save_secret_key", "save_hom_keys"):
        monkeypatch.setattr(codehom.cli, name, getattr(v1_writer, name))
    assert main([a.format(out=v1) for a in argv]) == 0
    capsys.readouterr()
    assert tree_digest(v1) == digest
    out = argv[argv.index("--out") + 1].removeprefix("{out}/")
    old, new = _key_arrays(v1 / out), _key_arrays(v2 / out)
    assert len(old) == len(new)
    for a, b in zip(old, new):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    if case == "keygen k=64":
        assert int(new[0].max()) >= 2**63


def test_seeded_budget_report_is_pinned(capsys):
    assert main(["analyze", "budget", "--seed", "1", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ec523ef8eed7d83b8cdfd8ec5bad11604db1092b1abc76d0592761169ee355b3"
    )


AND_NETLIST = "inputs x0 x1\nt = AND x0 x1\noutputs t\n"

# (preset, sha256 of the two hom-encrypt files, sha256 of the hom-eval output)
CIPHERTEXT_CASES = {
    "desk": (
        "fb667878a7d6ef9a0848fc6c7a37d6b0f7e631d4210ef8d45310ac3d620b8183",
        "5fd1f0148f32a5ea7f2a5401339005b3c19a75651280e7f4f35d8b604b247b1b",
    ),
    "paper-dryrun": (
        "0ef53f5724ad7ff2d9f8765dbe82c4854300efcb1c04f60d4902a8616c3d5316",
        "c00b894c238438245bc8d23680d7e6936b12ababd1dc72a9932c3f951704e18a",
    ),
}


@pytest.mark.parametrize("preset", list(CIPHERTEXT_CASES))
def test_seeded_ciphertexts_are_pinned(preset, tmp_path, capsys):
    """Two seeded hom-encrypt files and the hom-eval of one AND over them."""
    enc_digest, eval_digest = CIPHERTEXT_CASES[preset]
    keys, cts, result = tmp_path / "keys", tmp_path / "ct", tmp_path / "eval"
    net = tmp_path / "and.net"
    net.write_text(AND_NETLIST)
    cts.mkdir()
    result.mkdir()
    assert main(["hom-keygen", "--preset", preset, "--seed", "1", "--out", str(keys)]) == 0
    for name, seed in (("a", "2"), ("b", "3")):
        assert main(["hom-encrypt", "--keys", str(keys), "--m", "1",
                     "--out", str(cts / f"{name}.kct.json"), "--seed", seed]) == 0
    assert main(["hom-eval", "--keys", str(keys), "--circuit", str(net), "--inputs",
                 str(cts / "a.kct.json"), str(cts / "b.kct.json"), "--out", str(result / "r")]) == 0
    capsys.readouterr()
    assert tree_digest(cts) == enc_digest
    assert tree_digest(result) == eval_digest


# (keygen case, sha256 of the seeded encrypt --m 5a file under that key)
BASE_CIPHERTEXT_CASES = {
    "keygen k=8": "29fac283f893cad903b1443d53d29aaff32e91d8269aac3bfcaa38ee2c09a9ae",
    "keygen k=64": "4e32efdae7c29d23b7c1acd83cd228140620b75a0a197003218437832c2f254d",
}


@pytest.mark.parametrize("case", list(BASE_CIPHERTEXT_CASES))
def test_seeded_base_ciphertext_is_pinned(case, tmp_path, capsys):
    """A seeded encrypt file under a pinned key, and decrypt's stdout on it."""
    argv, _, _ = CASES[case]
    assert main([a.format(out=tmp_path) for a in argv]) == 0
    ct = tmp_path / "ct.json"
    assert main(["encrypt", "--pk", str(tmp_path / "key.pk.json"), "--m", "5a",
                 "--out", str(ct), "--seed", "2"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(ct.read_bytes()).hexdigest() == BASE_CIPHERTEXT_CASES[case]
    assert main(["decrypt", "--sk", str(tmp_path / "key.sk.json"), "--ct", str(ct)]) == 0
    assert capsys.readouterr().out == "5a\n"
