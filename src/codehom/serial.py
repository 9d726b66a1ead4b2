"""JSON envelopes for keys, ciphertexts, and boost material.

Every file is one object tagged {"format": "codehom/v1", "kind": ...};
field elements are plain integers so a desk-scale file stays greppable
and diffable. The bytes written are json.dumps(doc, indent=1) plus a
newline, streamed out a piece at a time rather than built whole. The
encoders put copies of the key and ciphertext arrays in their documents,
and the writer turns an integer array into that same text a row and a
2-D slab at a time; the decoders accept arrays as well as lists. A
replicated ciphertext nests one complete ciphertext envelope per part.
A full key set is a directory, one file per level key and per boost,
under a meta file naming the shape.

Loaders validate types, structure and value ranges and raise
DataFormatError; a file that parses as JSON but violates a constructor
invariant counts as malformed data too. A secret key's M and y must be
the ones its S and distinct points a define; a key that broke that
rule would decrypt to wrong plaintexts without a word. A boost file
holds the majority tree as its leaf row alone; files that also carry
the tree's netlist under "circuit" still load, and that field is
ignored.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ParameterError, UsageError
from .booster import BoostAux, ExpanderGraph, leaf_row_depth, second_singular_value
from .field import FieldSpec
from .hom import HomKeys, KCiphertext, check_key_shape
from .scheme import Params, PublicKey, SecretKey, trapdoor_arrays

FORMAT = "codehom/v1"


def _expect(doc, kind: str) -> None:
    if not isinstance(doc, dict):
        raise DataFormatError(f"envelope must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT:
        raise DataFormatError(f"unknown format {doc.get('format')!r}, expected {FORMAT!r}")
    if doc.get("kind") != kind:
        raise DataFormatError(f"expected kind {kind!r}, found {doc.get('kind')!r}")


def _get(doc: dict, key: str):
    try:
        return doc[key]
    except KeyError:
        raise DataFormatError(f"missing field {key!r}") from None


def _int(doc: dict, key: str) -> int:
    v = _get(doc, key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise DataFormatError(f"{key} must be an integer, got {type(v).__name__}")
    return v


def _float(doc: dict, key: str) -> float:
    v = _get(doc, key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DataFormatError(f"{key} must be a number, got {type(v).__name__}")
    return float(v)


def _list(doc: dict, key: str) -> list:
    v = _get(doc, key)
    if not isinstance(v, list):
        raise DataFormatError(f"{key} must be a list, got {type(v).__name__}")
    return v


def _is_int_nest(data) -> bool:
    if isinstance(data, list):
        return all(_is_int_nest(x) for x in data)
    return isinstance(data, int) and not isinstance(data, bool)


def _int_array(data, what: str, ndim: int) -> np.ndarray:
    # int64, or uint64 for integers reaching 2^63 (GF(2^64) keys), which
    # numpy reads as float next to small ones; so later bounds checks see
    # every value unwrapped
    try:
        A = np.asarray(data)
        if A.dtype.kind in "fO" and _is_int_nest(data):
            A = np.asarray(data, dtype=np.uint64)
    except (ValueError, OverflowError):
        A = None  # ragged nesting, or integers outside uint64
    if A is None or (A.size and A.dtype.kind not in "iu"):
        raise DataFormatError(f"{what} must be nested integer lists")
    if A.ndim != ndim:
        raise DataFormatError(f"{what} must be {ndim}-dimensional, got shape {A.shape}")
    return A if A.dtype.kind == "u" else A.astype(np.int64, copy=False)


def _field_array(spec: FieldSpec, data, what: str, ndim: int) -> np.ndarray:
    A = _int_array(data, what, ndim)
    if A.size and (A.min() < 0 or A.max() >= spec.q):
        raise DataFormatError(f"{what} holds values outside [0, {spec.q})")
    return A.astype(spec.dtype)


# ---------------------------------------------------------------------------
# Parameters.


def encode_params(p: Params) -> dict:
    return {"n": p.n, "r": p.r, "s": p.s, "field_k": p.field.k, "eta": p.eta, "alpha": p.alpha}


def decode_params(doc) -> Params:
    if not isinstance(doc, dict):
        raise DataFormatError("params must be a JSON object")
    try:
        return Params(
            n=_int(doc, "n"),
            r=_int(doc, "r"),
            s=_int(doc, "s"),
            field=FieldSpec(_int(doc, "field_k")),
            eta=_float(doc, "eta"),
            alpha=None if doc.get("alpha") is None else _float(doc, "alpha"),
        )
    except (ParameterError, UsageError) as e:
        raise DataFormatError(f"invalid parameters: {e}") from None


# ---------------------------------------------------------------------------
# Keys and ciphertexts.


def encode_public_key(pk: PublicKey) -> dict:
    return {
        "format": FORMAT,
        "kind": "pk",
        "params": encode_params(pk.params),
        "P": pk.P.copy(),
    }


def decode_public_key(doc) -> PublicKey:
    _expect(doc, "pk")
    p = decode_params(_get(doc, "params"))
    P = _field_array(p.field, _get(doc, "P"), "P", 2)
    if P.shape != (p.n, p.r):
        raise DataFormatError(f"P must be {p.n}x{p.r}, got {P.shape[0]}x{P.shape[1]}")
    return PublicKey(P, p)


def encode_secret_key(sk: SecretKey) -> dict:
    return {
        "format": FORMAT,
        "kind": "sk",
        "params": encode_params(sk.params),
        "S": list(sk.S),
        "a": sk.a.copy(),
        "M": sk.M.copy(),
        "y": sk.y_dec.copy(),
    }


def decode_secret_key(doc) -> SecretKey:
    _expect(doc, "sk")
    p = decode_params(_get(doc, "params"))
    S = _get(doc, "S")
    if (not isinstance(S, list) or len(S) != p.s
            or any(isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < p.n for i in S)
            or any(i >= j for i, j in zip(S, S[1:]))):
        raise DataFormatError(f"S must list {p.s} increasing row indices below {p.n}")
    a = _field_array(p.field, _get(doc, "a"), "a", 1)
    M = _field_array(p.field, _get(doc, "M"), "M", 2)
    y = _field_array(p.field, _get(doc, "y"), "y", 1)
    if a.shape != (p.n,) or y.shape != (p.n,) or M.shape != (p.n, p.r):
        raise DataFormatError("secret key arrays do not match the declared parameters")
    # Distinct points first: a repeated one would divide by zero in y's closed form.
    if np.unique(a).size != p.n:
        raise DataFormatError("the points a must be distinct")
    M_want, y_want = trapdoor_arrays(p, np.array([S]), a[None])
    if not np.array_equal(M, M_want[0]) or not np.array_equal(y, y_want[0]):
        raise DataFormatError("M and y do not match the trapdoor that S and a define")
    return SecretKey(tuple(S), a, M, y, p)


def encode_ciphertext(spec: FieldSpec, c: np.ndarray) -> dict:
    return {"format": FORMAT, "kind": "ct", "field_k": spec.k, "c": c.copy()}


def decode_ciphertext(doc) -> tuple[FieldSpec, np.ndarray]:
    _expect(doc, "ct")
    try:
        spec = FieldSpec(_int(doc, "field_k"))
    except (ParameterError, UsageError) as e:
        raise DataFormatError(f"invalid field: {e}") from None
    c = _field_array(spec, _get(doc, "c"), "c", 1)
    if c.size == 0:
        raise DataFormatError("empty ciphertext")
    return spec, c


def encode_kciphertext(kc: KCiphertext) -> dict:
    return {
        "format": FORMAT,
        "kind": "kct",
        "parts": [encode_ciphertext(kc.spec, row) for row in kc.P],
    }


def decode_kciphertext(doc) -> KCiphertext:
    _expect(doc, "kct")
    parts = _get(doc, "parts")
    if not isinstance(parts, list) or not parts:
        raise DataFormatError("parts must be a non-empty list of ciphertext envelopes")
    rows = [decode_ciphertext(d) for d in parts]
    spec, first = rows[0]
    if any(s != spec or c.shape != first.shape for s, c in rows):
        raise DataFormatError("inconsistent parts: parts must share one field and one length")
    return KCiphertext(spec, np.stack([c for _, c in rows]))


# ---------------------------------------------------------------------------
# Boost material.


def encode_boost_aux(aux: BoostAux) -> dict:
    g = aux.graph
    return {
        "format": FORMAT,
        "kind": "boost-aux",
        "k": g.k,
        "b": g.b,
        "lambda_measured": g.lambda_measured,
        "adjacency": g.adjacency.copy(),
        "assignment": aux.assignment.copy(),
        "level_params": [encode_params(p) for p in aux.level_params],
        "links": [link.copy() for link in aux.links],
    }


def decode_boost_aux(doc) -> BoostAux:
    _expect(doc, "boost-aux")
    k, b = _int(doc, "k"), _int(doc, "b")
    if not 1 <= b <= k:
        raise DataFormatError(f"graph degree b={b} must lie in [1, k={k}]")
    adjacency = _int_array(_get(doc, "adjacency"), "adjacency", 2)
    if adjacency.shape != (k, b) or adjacency.min() < 0 or adjacency.max() >= k:
        raise DataFormatError(f"adjacency must be {k}x{b} with entries below {k}")
    if (np.diff(np.sort(adjacency, axis=1), axis=1) == 0).any():
        raise DataFormatError("every adjacency row must hold distinct entries")
    lam = _float(doc, "lambda_measured")
    if not abs(lam - second_singular_value(adjacency, k, b)) <= 1e-9:
        raise DataFormatError(f"lambda_measured {lam} is not the adjacency's second singular value")
    graph = ExpanderGraph(k, b, adjacency, lam)
    level_params = [decode_params(d) for d in _list(doc, "level_params")]
    raw_links = _list(doc, "links")
    if len(raw_links) != len(level_params) - 1:
        raise DataFormatError(
            f"{len(level_params)} levels need {len(level_params) - 1} links, "
            f"got {len(raw_links)}"
        )
    assignment = _int_array(_get(doc, "assignment"), "assignment", 1)
    try:
        d = leaf_row_depth(assignment, b)
    except UsageError as e:
        raise DataFormatError(f"bad assignment: {e}") from None
    if len(raw_links) != d + 1:
        raise DataFormatError(f"a tree of depth {d} needs {d + 1} links, got {len(raw_links)}")
    spec = level_params[0].field
    links = []
    for l, raw in enumerate(raw_links):
        L = _field_array(spec, raw, f"links[{l}]", 3)
        want = (k, level_params[l].n, level_params[l + 1].n)
        if L.shape != want:
            raise DataFormatError(f"links[{l}] must have shape {want}, got {L.shape}")
        links.append(L)
    return BoostAux(graph, assignment, level_params, links)


# ---------------------------------------------------------------------------
# File and directory plumbing.


def _cannot_write(path, e: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {e}")


# Decimal text of every uint8 value, the dtype of desk keys and links;
# indexing it with an array gives the array's text in one step. Saving a
# desk key directory took 0.03-0.04 s with it and 0.09-0.12 s with
# int.__repr__ for every entry (2-core Xeon), about 1.17x desk-keygen
# ops/s (BENCH_pr14.json, table_vs_single_seed13). Wider dtypes go
# through int.__repr__ as a ufunc, as fast as a join over tolist().
_U8_TEXT = np.array([str(v) for v in range(256)], dtype=object)
_INT_TEXT = np.frompyfunc(int.__repr__, 1, 1)


def _write_array(write, a: np.ndarray, level: int) -> None:
    # json.dumps(a.tolist(), indent=1) at this level for a non-empty integer
    # array of one or more dimensions: each innermost row is one join, each
    # 2-D slab one more join over its rows, written as soon as it is built.
    pad = "\n" + " " * level
    inner = pad + " "
    if a.ndim > 2:
        for i, sub in enumerate(a):
            write(("[" if i == 0 else ",") + inner)
            _write_array(write, sub, level + 1)
        write(pad + "]")
        return
    cells = (_U8_TEXT[a] if a.dtype == np.uint8 else _INT_TEXT(a.astype(object))).tolist()
    if a.ndim == 1:
        write("[" + inner + ("," + inner).join(cells) + pad + "]")
        return
    item = inner + " "
    rows = [("," + item).join(row) for row in cells]
    write("[" + inner + "[" + item + (inner + "]," + inner + "[" + item).join(rows)
          + inner + "]" + pad + "]")


def _write_json(write, obj, level: int) -> None:
    # json.dumps(obj, indent=1) in pieces: a non-empty integer array is
    # written by _write_array, any other array as its tolist(), and a scalar
    # is json.dumps's own text for it. Dict keys are str, as in every
    # envelope.
    if isinstance(obj, np.ndarray):
        if obj.size and obj.ndim and obj.dtype.kind in "iu":
            _write_array(write, obj, level)
            return
        obj = obj.tolist()
    pad = "\n" + " " * level
    inner = pad + " "
    if isinstance(obj, (list, tuple)) and obj:
        for i, item in enumerate(obj):
            write(("[" if i == 0 else ",") + inner)
            _write_json(write, item, level + 1)
        write(pad + "]")
    elif isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(obj.items()):
            write(("{" if i == 0 else ",") + inner + json.dumps(key) + ": ")
            _write_json(write, value, level + 1)
        write(pad + "}")
    else:
        write(json.dumps(obj))


def save_json(doc: dict, path) -> None:
    """Write doc to path; the bytes equal json.dumps(doc, indent=1) + "\n"."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            _write_json(f.write, doc, 0)
            f.write("\n")
    except OSError as e:
        raise _cannot_write(path, e) from None


def read_text(path) -> str:
    """A file's UTF-8 text; a file that cannot be read or decoded is malformed data."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataFormatError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise DataFormatError(f"cannot read {path}: {e}") from None


def load_json(path) -> dict:
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path} is not JSON: {e}") from None
    except RecursionError:
        raise DataFormatError(f"cannot read {path}: JSON nested too deeply") from None


def save_public_key(pk: PublicKey, path) -> None:
    save_json(encode_public_key(pk), path)


def load_public_key(path) -> PublicKey:
    return decode_public_key(load_json(path))


def save_secret_key(sk: SecretKey, path) -> None:
    save_json(encode_secret_key(sk), path)


def load_secret_key(path) -> SecretKey:
    return decode_secret_key(load_json(path))


def save_ciphertext(spec: FieldSpec, c: np.ndarray, path) -> None:
    save_json(encode_ciphertext(spec, c), path)


def load_ciphertext(path) -> tuple[FieldSpec, np.ndarray]:
    return decode_ciphertext(load_json(path))


def save_kciphertext(kc: KCiphertext, path) -> None:
    save_json(encode_kciphertext(kc), path)


def load_kciphertext(path) -> KCiphertext:
    return decode_kciphertext(load_json(path))


def save_hom_keys(hk: HomKeys, directory) -> None:
    """One file per level key and per boost under a meta file."""
    d = Path(directory)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _cannot_write(d, e) from None
    meta = {
        "format": FORMAT,
        "kind": "hom-keys",
        "k": hk.k,
        "depth": hk.depth,
        "params": encode_params(hk.params),
    }
    save_json(meta, d / "meta.json")
    for i, (pk, sk) in enumerate(hk.levels):
        save_json(encode_public_key(pk), d / f"level{i}.pk.json")
        save_json(encode_secret_key(sk), d / f"level{i}.sk.json")
    for i, aux in enumerate(hk.boosts):
        save_json(encode_boost_aux(aux), d / f"boost{i}.json")


def load_hom_keys(directory) -> HomKeys:
    d = Path(directory)
    meta = load_json(d / "meta.json")
    _expect(meta, "hom-keys")
    params = decode_params(_get(meta, "params"))
    k, depth = _int(meta, "k"), _int(meta, "depth")
    try:
        check_key_shape(k, depth)
    except ParameterError as e:
        raise DataFormatError(f"meta.json: {e}") from None
    levels = [
        (load_public_key(d / f"level{i}.pk.json"), load_secret_key(d / f"level{i}.sk.json"))
        for i in range(depth + 1)
    ]
    boosts = [decode_boost_aux(load_json(d / f"boost{i}.json")) for i in range(depth)]
    for i, (pk, sk) in enumerate(levels):
        if pk.params != params or sk.params != params:
            raise DataFormatError(f"level {i} keys do not match the parameters in meta.json")
    for i, aux in enumerate(boosts):
        if (aux.source_params != levels[i][0].params
                or aux.target_params != levels[i + 1][0].params):
            raise DataFormatError(f"boost {i} does not link level {i} to level {i + 1}")
    try:
        return HomKeys(params, k, levels, boosts)
    except UsageError as e:
        raise DataFormatError(f"inconsistent key directory: {e}") from None
