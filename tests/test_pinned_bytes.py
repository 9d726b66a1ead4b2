"""Seeded key files and reports, pinned byte for byte.

Each case runs one CLI command under a fixed seed and compares the
sha256 of what it wrote with a recorded digest. Any change to the RNG
stream, to the key arithmetic or to the JSON bytes shows up here; a
speed-up of keygen or of the key writer must leave every digest as it is.
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


CASES = {
    "hom-keygen desk": (
        ["hom-keygen", "--preset", "desk", "--seed", "1", "--out", "{out}/keys"],
        "aa605bcd1a168cb639fe42d8aecddf3f68ed1d87c5f6f5e8c7ebd8007cc4c4e0",
    ),
    "hom-keygen paper-dryrun": (
        ["hom-keygen", "--preset", "paper-dryrun", "--seed", "1", "--out", "{out}/keys"],
        "64a7d926eef7c5891833830dcda122aab27668cfbc5774de20cf5f149d566fab",
    ),
    "keygen k=8": (
        ["keygen", "--n", "40", "--r", "15", "--s", "9", "--k", "8",
         "--seed", "1", "--out", "{out}/key"],
        "b087a75361a16666c06830f389b39675d3aa3f9517783c8f659817be729cda8d",
    ),
    "keygen k=32": (
        ["keygen", "--n", "40", "--r", "15", "--s", "9", "--k", "32",
         "--seed", "1", "--out", "{out}/key"],
        "36c7751dc49386e839e03226f1af5d2f7b6b726298baf19c1b609c3169e77db2",
    ),
    "keygen k=64": (
        ["keygen", "--n", "40", "--r", "15", "--s", "9", "--k", "64",
         "--seed", "1", "--out", "{out}/key"],
        "08886050927d97050d8c3061f9df406584388921b9c25a8964a12c9368d63719",
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
