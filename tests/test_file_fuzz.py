"""Fuzzed input files: every mutation ends in a documented exit code.

One seeded key directory, two replicated ciphertexts and an AND netlist
are built once. Each example replaces one JSON leaf of a key file or a
ciphertext (or one token of the netlist) with junk, runs hom-encrypt,
hom-eval and hom-decrypt in process, and restores the file. Every
command must return an exit code in 0-4; anything raised fails the test.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from codehom.cli import main

JUNK = (None, True, -1, 0, 2**40, 2**70, 1.5, math.nan, "x", "", [], {}, 10**6)
KEY_FILES = ("meta.json", "level0.pk.json", "level1.pk.json", "level0.sk.json",
             "level1.sk.json", "boost0.json")
FILES = tuple(f"keys/{name}" for name in KEY_FILES) + ("a.kct.json", "b.kct.json", "and.net")


def _leaf_paths(doc, path=()):
    # a list's middle entries (hex rows, parts) mutate like its first and last
    if isinstance(doc, dict) and doc:
        keys = doc
    elif isinstance(doc, list) and doc:
        keys = sorted({0, min(1, len(doc) - 1), len(doc) - 1})
    else:
        yield path
        return
    for key in keys:
        yield from _leaf_paths(doc[key], path + (key,))


def _replaced(doc, path, junk):
    if not path:
        return junk
    doc = doc.copy()
    doc[path[0]] = _replaced(doc[path[0]], path[1:], junk)
    return doc


class Seeded:
    """The seeded files' directory, their texts and each JSON file's leaf paths."""

    def __init__(self, d):
        self.dir = d
        self.texts = {name: (d / name).read_text() for name in FILES}
        self.leaves = {name: list(_leaf_paths(json.loads(text)))
                       for name, text in self.texts.items() if name.endswith(".json")}

    def mutate(self, name: str, pick: int, junk) -> None:
        text = self.texts[name]
        if name.endswith(".net"):
            tokens = text.split(" ")
            tokens[pick % len(tokens)] = str(junk)
            text = " ".join(tokens)
        else:
            path = self.leaves[name][pick % len(self.leaves[name])]
            text = json.dumps(_replaced(json.loads(text), path, junk), indent=1)
        (self.dir / name).write_text(text)

    def restore(self, name: str) -> None:
        (self.dir / name).write_text(self.texts[name])

    def __repr__(self):  # hypothesis prints it with every failing example
        return f"Seeded({self.dir})"


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    keys = str(d / "keys")
    assert main(["hom-keygen", "--n", "16", "--r", "6", "--s", "3", "--field-k", "4",
                 "--k", "32", "--d", "1", "--b", "8", "--lambda-target", "0.9",
                 "--mid-n", "4", "--out", keys, "--seed", "23"]) == 0
    for name, m, seed in (("a", "1", "24"), ("b", "0", "25")):
        assert main(["hom-encrypt", "--keys", keys, "--m", m,
                     "--out", str(d / f"{name}.kct.json"), "--seed", seed]) == 0
    (d / "and.net").write_text("inputs a b\nc = AND a b\noutputs c\n")
    return Seeded(d)


@settings(max_examples=120, deadline=2000, derandomize=True, database=None)
@given(name=st.sampled_from(FILES), pick=st.integers(0, 1 << 32), junk=st.sampled_from(JUNK))
def test_mutated_files_exit_with_a_documented_code(seeded, name, pick, junk):
    d = seeded.dir
    keys = str(d / "keys")
    seeded.mutate(name, pick, junk)
    try:
        for argv in (
            ["hom-encrypt", "--keys", keys, "--m", "1", "--out", str(d / "m.kct.json")],
            ["hom-eval", "--keys", keys, "--circuit", str(d / "and.net"),
             "--inputs", str(d / "a.kct.json"), str(d / "b.kct.json"), "--out", str(d / "c")],
            ["hom-decrypt", "--keys", keys, "--ct", str(d / "a.kct.json"), "--fresh"],
        ):
            assert main(argv) in range(5), argv
    finally:
        seeded.restore(name)
