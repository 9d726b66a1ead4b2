"""JSON envelopes for keys, ciphertexts, and boost material.

Every file is one object {"format": "codehom/v2", "kind": ...}, the
kind one of pk, sk, ct, kct, boost-aux and the hom-keys meta. Each
integer array is an object {"shape": [...], "rows": [...]}, one hex
string per innermost row, each entry big-endian in a fixed number of
digits: twice the byte width of the field's dtype for field elements, 8
for the index arrays adjacency and assignment. So a row still diffs as
one line, and a desk key directory is about a quarter of its decimal
size. A ciphertext (ct) is its field_k and its (n,) array c; a
replicated ciphertext (kct) is its field_k and one (k, n) array parts,
a row per part. The bytes written are json.dumps(doc, indent=1) plus a
newline. A full key set is a directory, one file per level key and per
boost, under a meta file naming the shape. A file in any other format,
the v1 files of earlier versions among them (decimal lists, one nested
ct per part of a kct), is malformed data; the same seed writes the
same arrays again as v2.

Loaders validate types, structure and value ranges and raise
DataFormatError, whose message begins with the file's path; a file that
parses as JSON but violates a constructor invariant, such as a boost
that leads into another level's key, counts as malformed data too. A
secret key file holds S and the distinct points a; its M and y are
computed from them. A boost file holds the majority tree as its leaf
row alone.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ParameterError, UsageError
from .booster import BoostAux, ExpanderGraph, leaf_row_depth, second_singular_value
from .field import FieldSpec
from .hom import KEY_SET_CAP, HomKeys, KCiphertext, check_key_shape
from .scheme import Params, PublicKey, SecretKey, check_key_entries, trapdoor_arrays

V2 = "codehom/v2"

# Bytes per entry of the v2 index arrays (adjacency, assignment).
INDEX_BYTES = 4


def _expect(doc, kind: str, fmt: str) -> None:
    """DataFormatError unless doc is an envelope of this kind in its format."""
    if not isinstance(doc, dict):
        raise DataFormatError(f"envelope must be a JSON object, got {type(doc).__name__}")
    if doc.get("kind") != kind:
        raise DataFormatError(f"expected kind {kind!r}, found {doc.get('kind')!r}")
    if doc.get("format") != fmt:
        raise DataFormatError(f"{kind} files are in format {fmt!r}, found {doc.get('format')!r}")


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


def _hex_rows(a: np.ndarray, itemsize: int) -> dict:
    """A v2 array: a's shape, and each innermost row as big-endian hex,
    2 * itemsize digits an entry."""
    text = a.astype(f">u{itemsize}").tobytes().hex()
    width = 2 * itemsize * a.shape[-1]
    n_rows = math.prod(a.shape[:-1])
    return {"shape": list(a.shape),
            "rows": [text[i * width:(i + 1) * width] for i in range(n_rows)]}


def _hex_array(data, what: str, ndim: int, itemsize: int) -> np.ndarray:
    # Read-only, big-endian; every caller converts it to its own dtype.
    if not isinstance(data, dict):
        raise DataFormatError(f"{what} must be an object with a shape and hex rows")
    shape, rows = _get(data, "shape"), _get(data, "rows")
    if (not isinstance(shape, list) or len(shape) != ndim
            or any(isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in shape)):
        raise DataFormatError(f"{what} shape must list {ndim} non-negative integers")
    if not isinstance(rows, list) or not all(isinstance(row, str) for row in rows):
        raise DataFormatError(f"{what} rows must be a list of hex strings")
    n_rows = math.prod(shape[:-1])
    if len(rows) != n_rows:
        raise DataFormatError(f"{what} has {len(rows)} rows, its shape {shape} needs {n_rows}")
    width = 2 * itemsize * shape[-1]
    if any(len(row) != width for row in rows):
        raise DataFormatError(f"{what} rows must each be {width} hex digits")
    try:
        buf = bytes.fromhex("".join(rows))
    except ValueError:
        raise DataFormatError(f"{what} rows hold a character that is not a hex digit") from None
    # fromhex skips whitespace, so a row with a space in it decodes short
    if 2 * len(buf) != width * len(rows):
        raise DataFormatError(f"{what} rows hold a character that is not a hex digit")
    try:
        return np.frombuffer(buf, dtype=f">u{itemsize}").reshape(shape)
    except ValueError:
        raise DataFormatError(f"{what} shape {shape} is too large") from None


def _index_array(data, what: str, ndim: int) -> np.ndarray:
    return _hex_array(data, what, ndim, INDEX_BYTES).astype(np.int64)


def _field_array(spec: FieldSpec, data, what: str, ndim: int) -> np.ndarray:
    A = _hex_array(data, what, ndim, np.dtype(spec.dtype).itemsize)
    if A.size and A.max() >= spec.q:
        raise DataFormatError(f"{what} holds values outside [0, {spec.q})")
    return A.astype(spec.dtype)


def _field_rows(spec: FieldSpec, a: np.ndarray) -> dict:
    return _hex_rows(a, np.dtype(spec.dtype).itemsize)


# ---------------------------------------------------------------------------
# Parameters.


def encode_params(p: Params) -> dict:
    return {"n": p.n, "r": p.r, "s": p.s, "field_k": p.field.k, "eta": p.eta, "alpha": p.alpha}


def decode_params(doc) -> Params:
    if not isinstance(doc, dict):
        raise DataFormatError("params must be a JSON object")
    try:
        p = Params(
            n=_int(doc, "n"),
            r=_int(doc, "r"),
            s=_int(doc, "s"),
            field=FieldSpec(_int(doc, "field_k")),
            eta=_float(doc, "eta"),
            alpha=None if doc.get("alpha") is None else _float(doc, "alpha"),
        )
        check_key_entries(p)  # a key file's params meet keygen's cap before M is built
        return p
    except (ParameterError, UsageError) as e:
        raise DataFormatError(f"invalid parameters: {e}") from None


# ---------------------------------------------------------------------------
# Keys and ciphertexts.


def encode_public_key(pk: PublicKey) -> dict:
    return {
        "format": V2,
        "kind": "pk",
        "params": encode_params(pk.params),
        "P": _field_rows(pk.params.field, pk.P),
    }


def decode_public_key(doc) -> PublicKey:
    _expect(doc, "pk", V2)
    p = decode_params(_get(doc, "params"))
    P = _field_array(p.field, _get(doc, "P"), "P", 2)
    if P.shape != (p.n, p.r):
        raise DataFormatError(f"P must be {p.n}x{p.r}, got {P.shape[0]}x{P.shape[1]}")
    return PublicKey(P, p)


def encode_secret_key(sk: SecretKey) -> dict:
    return {
        "format": V2,
        "kind": "sk",
        "params": encode_params(sk.params),
        "S": list(sk.S),
        "a": _field_rows(sk.params.field, sk.a),
    }


def decode_secret_key(doc) -> SecretKey:
    _expect(doc, "sk", V2)
    p = decode_params(_get(doc, "params"))
    S = _get(doc, "S")
    if (not isinstance(S, list) or len(S) != p.s
            or any(isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < p.n for i in S)
            or any(i >= j for i, j in zip(S, S[1:]))):
        raise DataFormatError(f"S must list {p.s} increasing row indices below {p.n}")
    a = _field_array(p.field, _get(doc, "a"), "a", 1)
    if a.shape != (p.n,):
        raise DataFormatError(f"a must hold {p.n} points, got shape {a.shape}")
    # Distinct points first: a repeated one would divide by zero in y's closed form.
    if np.unique(a).size != p.n:
        raise DataFormatError("the points a must be distinct")
    M, y = trapdoor_arrays(p, np.array([S]), a[None])
    return SecretKey(tuple(S), a, M[0], y[0], p)


def _encode_block(spec: FieldSpec, kind: str, key: str, A: np.ndarray) -> dict:
    return {"format": V2, "kind": kind, "field_k": spec.k, key: _field_rows(spec, A)}


def _decode_block(doc, kind: str, key: str, ndim: int) -> tuple[FieldSpec, np.ndarray]:
    """A ct or kct envelope's field and its ndim-D array under key, no dimension empty."""
    _expect(doc, kind, V2)
    try:
        spec = FieldSpec(_int(doc, "field_k"))
    except (ParameterError, UsageError) as e:
        raise DataFormatError(f"invalid field: {e}") from None
    A = _field_array(spec, _get(doc, key), key, ndim)
    if 0 in A.shape:
        raise DataFormatError(f"{key} shape {list(A.shape)} has an empty dimension")
    return spec, A


def encode_ciphertext(spec: FieldSpec, c: np.ndarray) -> dict:
    return _encode_block(spec, "ct", "c", c)


def decode_ciphertext(doc) -> tuple[FieldSpec, np.ndarray]:
    return _decode_block(doc, "ct", "c", 1)


def encode_kciphertext(kc: KCiphertext) -> dict:
    return _encode_block(kc.spec, "kct", "parts", kc.P)


def decode_kciphertext(doc) -> KCiphertext:
    return KCiphertext(*_decode_block(doc, "kct", "parts", 2))


# ---------------------------------------------------------------------------
# Boost material.


def encode_boost_aux(aux: BoostAux) -> dict:
    g = aux.graph
    spec = aux.source_params.field
    return {
        "format": V2,
        "kind": "boost-aux",
        "k": g.k,
        "b": g.b,
        "lambda_measured": g.lambda_measured,
        "adjacency": _hex_rows(g.adjacency, INDEX_BYTES),
        "assignment": _hex_rows(aux.assignment, INDEX_BYTES),
        "level_params": [encode_params(p) for p in aux.level_params],
        "links": [_field_rows(spec, link) for link in aux.links],
    }


def decode_boost_aux(doc) -> BoostAux:
    _expect(doc, "boost-aux", V2)
    k, b = _int(doc, "k"), _int(doc, "b")
    if not 1 <= b <= k:
        raise DataFormatError(f"graph degree b={b} must lie in [1, k={k}]")
    # the spectral check below builds k x k floats; d * k * k is capped, and d >= 1
    if k * k > KEY_SET_CAP:
        raise DataFormatError(f"the boost graph's k x k, {k:,} x {k:,} = {k * k:,} entries, "
                              f"is over the cap of {KEY_SET_CAP:,}")
    adjacency = _index_array(_get(doc, "adjacency"), "adjacency", 2)
    if adjacency.shape != (k, b) or adjacency.min() < 0 or adjacency.max() >= k:
        raise DataFormatError(f"adjacency must be {k}x{b} with entries below {k}")
    if (np.diff(np.sort(adjacency, axis=1), axis=1) == 0).any():
        raise DataFormatError("every adjacency row must hold distinct entries")
    lam = _float(doc, "lambda_measured")
    if not abs(lam - second_singular_value(adjacency)) <= 1e-9:
        raise DataFormatError(f"lambda_measured {lam} is not the adjacency's second singular value")
    graph = ExpanderGraph(k, b, adjacency, lam)
    level_params = [decode_params(d) for d in _list(doc, "level_params")]
    raw_links = _list(doc, "links")
    if len(raw_links) != len(level_params) - 1:
        raise DataFormatError(
            f"{len(level_params)} levels need {len(level_params) - 1} links, "
            f"got {len(raw_links)}"
        )
    assignment = _index_array(_get(doc, "assignment"), "assignment", 1)
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


def save_json(doc: dict, path) -> None:
    """Write json.dumps(doc, indent=1) and a newline to path."""
    text = json.dumps(doc, indent=1) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
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


def _load(path, decode):
    """decode(load_json(path)); a DataFormatError from decode begins with the path."""
    doc = load_json(path)
    try:
        return decode(doc)
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from None


def save_public_key(pk: PublicKey, path) -> None:
    save_json(encode_public_key(pk), path)


def load_public_key(path) -> PublicKey:
    return _load(path, decode_public_key)


def save_secret_key(sk: SecretKey, path) -> None:
    save_json(encode_secret_key(sk), path)


def load_secret_key(path) -> SecretKey:
    return _load(path, decode_secret_key)


def save_ciphertext(spec: FieldSpec, c: np.ndarray, path) -> None:
    save_json(encode_ciphertext(spec, c), path)


def load_ciphertext(path) -> tuple[FieldSpec, np.ndarray]:
    return _load(path, decode_ciphertext)


def save_kciphertext(kc: KCiphertext, path) -> None:
    save_json(encode_kciphertext(kc), path)


def load_kciphertext(path) -> KCiphertext:
    return _load(path, decode_kciphertext)


def save_hom_keys(hk: HomKeys, directory) -> None:
    """One file per level key and per boost under a meta file."""
    d = Path(directory)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _cannot_write(d, e) from None
    meta = {
        "format": V2,
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


def _decode_meta(doc) -> tuple[Params, int, int]:
    """A hom-keys meta file's params, k and depth."""
    _expect(doc, "hom-keys", V2)
    params = decode_params(_get(doc, "params"))
    k, depth = _int(doc, "k"), _int(doc, "depth")
    try:
        check_key_shape(k, depth)
    except ParameterError as e:
        raise DataFormatError(str(e)) from None
    return params, k, depth


def load_hom_keys(directory) -> HomKeys:
    d = Path(directory)
    params, k, depth = _load(d / "meta.json", _decode_meta)
    levels = [
        (load_public_key(d / f"level{i}.pk.json"), load_secret_key(d / f"level{i}.sk.json"))
        for i in range(depth + 1)
    ]
    boosts = [_load(d / f"boost{i}.json", decode_boost_aux) for i in range(depth)]
    try:
        return HomKeys(params, k, levels, boosts)
    except UsageError as e:
        raise DataFormatError(f"{d}: inconsistent key directory: {e}") from None
