"""Seeded key files, ciphertexts and reports, pinned byte for byte.

Each case runs one CLI command under a fixed seed and compares the
sha256 of what it wrote with a recorded digest. Any change to the RNG
stream, to the key arithmetic or to the JSON bytes shows up here; a
speed-up of keygen, of encryption, of the boost or of the key writer
must leave every digest as it is.
Every file is pinned as this package writes it, in codehom/v2: key
files, and ciphertexts as one hex-row array (a kct's (k, n) parts, a
ct's (n,) c). A v1 ciphertext of earlier versions is not read; the same
seed gives the same arrays, so the same --seed writes the pinned file.
The error-budget report is pinned by its stdout: its text format carries
no timings, so the seed fixes every byte of it.
"""

import hashlib
from pathlib import Path

import pytest

from codehom.cli import main


def tree_digest(root: Path) -> str:
    """sha256 over every file under root: relative name, NUL, bytes, sorted by name."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


# (argv, sha256 of the files the CLI writes)
CASES = {
    "hom-keygen desk": (
        ["hom-keygen", "--preset", "desk", "--seed", "1", "--out", "{out}/keys"],
        "b91c5717eec6b59ff02771d0dd7d2d1daacb101e0f360a67584671f342394dbf",
    ),
    "hom-keygen paper-dryrun": (
        ["hom-keygen", "--preset", "paper-dryrun", "--seed", "1", "--out", "{out}/keys"],
        "ed8b8852e0d9f2c23f414d262e5a7953c827e4d84949a8e6c697b2efab88b0b2",
    ),
    "keygen k=8": (
        ["keygen", "--n", "40", "--r", "15", "--s", "9", "--k", "8",
         "--seed", "1", "--out", "{out}/key"],
        "0539b86e3bead5579c4d9fdd8a22fceb7e4bd815ba96be9108b20da01bad9af5",
    ),
    "keygen k=32": (
        ["keygen", "--n", "40", "--r", "15", "--s", "9", "--k", "32",
         "--seed", "1", "--out", "{out}/key"],
        "e25bd91015752002905ddcd3e03d9c86a5affd62812cdee36a3e640f3f4bf163",
    ),
    "keygen k=64": (
        ["keygen", "--n", "40", "--r", "15", "--s", "9", "--k", "64",
         "--seed", "1", "--out", "{out}/key"],
        "cd1f869eba08d32c0379a6415b3f7291280a193d43915a5deb516d9af0522ba3",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_seeded_key_files_are_pinned(case, tmp_path, capsys):
    argv, digest = CASES[case]
    assert main([a.format(out=tmp_path) for a in argv]) == 0
    capsys.readouterr()
    assert tree_digest(tmp_path) == digest


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
        "4d0b97837e45d35f459d7477e7e61ce54492c9b6a2160632b4d778a5177e2365",
        "451709709ae9acf4e90e8d47d5b80a7c326285d1d0d86a85f3afdc686c2864c2",
    ),
    "paper-dryrun": (
        "37f71891cdf509c67a3ca4676a7ce1c9f0382008859d0eff4696be29b2d3cb9f",
        "28004c23a9bfceab5c9f0616f58a086be77c069406d01ca868d895cf9d30d99e",
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
    "keygen k=8": "3246b75e78ca35788dd4a660e8b2b775a256436e65b6093ec74f8c614adbacff",
    "keygen k=64": "79ba8bf230b12dd59eb907f946c6bc090ad170d49e4a28dff94712cf65be7ff3",
}


@pytest.mark.parametrize("case", list(BASE_CIPHERTEXT_CASES))
def test_seeded_base_ciphertext_is_pinned(case, tmp_path, capsys):
    """A seeded encrypt file under a pinned key, and decrypt's stdout on it."""
    argv, _ = CASES[case]
    assert main([a.format(out=tmp_path) for a in argv]) == 0
    ct = tmp_path / "ct.json"
    assert main(["encrypt", "--pk", str(tmp_path / "key.pk.json"), "--m", "5a",
                 "--out", str(ct), "--seed", "2"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(ct.read_bytes()).hexdigest() == BASE_CIPHERTEXT_CASES[case]
    assert main(["decrypt", "--sk", str(tmp_path / "key.sk.json"), "--ct", str(ct)]) == 0
    assert capsys.readouterr().out == "5a\n"
