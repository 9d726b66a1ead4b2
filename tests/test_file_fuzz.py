"""Fuzzed input files and flags: every mutation ends in a documented exit code.

One seeded key directory, two replicated ciphertexts and an AND netlist
are built once. Each file example replaces one JSON leaf of a key file
or a ciphertext (or one token of the netlist) with junk, runs
hom-encrypt, hom-eval and hom-decrypt in process, and restores the file.
Each flag example replaces one flag value of one subcommand with junk
and runs it in a fresh working directory. Every command must return an
exit code in 0-4; anything raised fails the test.
"""

import json
import math
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from codehom.cli import build_parser, main

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


# Flag values an argument parser or a size check has to turn away.
ARGV_JUNK = ("0", "-1", "1e400", "nan", "inf", "", "x", "0x10", "2147483648", str(10**20))
HOM_SHAPE = ["--n", "16", "--r", "6", "--s", "3", "--field-k", "4", "--eta", "0", "--k", "32",
             "--d", "1", "--b", "8", "--lambda-target", "0.9", "--mid-n", "4"]
ANALYZE = ["--n", "24", "--r", "9", "--s", "3", "--k", "8", "--eta", "0", "--trials", "50",
           "--jobs", "1", "--format", "text", "--seed", "1"]
# Each subcommand with every flag it is given spelled out; inputs come
# from the seeded directory, one level up from the working directory.
COMMANDS = (
    ["keygen", "--n", "16", "--r", "6", "--s", "3", "--k", "4", "--eta", "0",
     "--seed", "1", "--out", "out"],
    ["keygen", "--n", "16", "--alpha", "0.25", "--seed", "1", "--out", "out"],
    ["encrypt", "--pk", "../key.pk.json", "--m", "1", "--seed", "1", "--out", "out.json"],
    ["decrypt", "--sk", "../key.sk.json", "--ct", "../ct.json"],
    ["hom-keygen", "--preset", "desk", *HOM_SHAPE, "--seed", "1", "--out", "out"],
    ["hom-encrypt", "--keys", "../keys", "--m", "1", "--seed", "1", "--out", "out.kct.json"],
    ["hom-eval", "--keys", "../keys", "--circuit", "../and.net",
     "--inputs", "../a.kct.json", "../b.kct.json", "--out", "out"],
    ["hom-decrypt", "--keys", "../keys", "--ct", "../a.kct.json"],
    ["analyze", "rank", *ANALYZE, "--t", "9", "--s-overlap", "0"],
    ["analyze", "noise", *ANALYZE],
    ["analyze", "budget", "--scale", "0.01", "--format", "text", "--seed", "1"],
)
# (command, position of a flag value): the values after each --flag
SLOTS = tuple(
    (c, i) for c, argv in enumerate(COMMANDS) for i in range(2, len(argv))
    if not argv[i].startswith("--") and any(a.startswith("--") for a in argv[i - 2:i])
)


@pytest.fixture(scope="module")
def argv_dir(seeded):
    d = seeded.dir
    assert main(["keygen", "--n", "16", "--r", "6", "--s", "3", "--k", "4",
                 "--out", str(d / "key"), "--seed", "26"]) == 0
    assert main(["encrypt", "--pk", str(d / "key.pk.json"), "--m", "1",
                 "--out", str(d / "ct.json"), "--seed", "27"]) == 0
    return d


def test_every_flag_that_takes_a_value_is_fuzzed():
    fuzzed, defined = {}, {}
    for c, i in SLOTS:
        flag = next(a for a in reversed(COMMANDS[c][:i]) if a.startswith("--"))
        fuzzed.setdefault(tuple(COMMANDS[c][:2]), set()).add(flag)
    for name in fuzzed:
        sub = build_parser()
        for word in name:
            if word.startswith("--"):
                break
            sub = sub._subparsers._group_actions[0].choices[word]
        # store_true flags and --help take no value
        defined[name] = {opt for a in sub._actions if a.nargs != 0 for opt in a.option_strings}
    assert fuzzed == defined


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(slot=st.sampled_from(SLOTS), junk=st.sampled_from(ARGV_JUNK))
def test_mutated_flags_exit_with_a_documented_code(argv_dir, slot, junk):
    c, i = slot
    argv = list(COMMANDS[c])
    argv[i] = junk
    work = tempfile.mkdtemp(dir=argv_dir)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert main(argv) in range(5), argv
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
