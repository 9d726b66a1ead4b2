"""A codehom/v1 writer for key files, which the package itself no longer writes.

v1 stores every array as nested lists of plain integers, and a secret
key with its M and y. These documents, passed through
json.dumps(indent=1) plus a newline, are byte for byte the key files
that codehom wrote before key files moved to codehom/v2, so tests can
pin those bytes and check that the loaders still read them.
"""

import json
from pathlib import Path

from codehom.serial import encode_params

V1 = "codehom/v1"


def encode_public_key(pk) -> dict:
    return {"format": V1, "kind": "pk", "params": encode_params(pk.params), "P": pk.P.tolist()}


def encode_secret_key(sk) -> dict:
    return {
        "format": V1,
        "kind": "sk",
        "params": encode_params(sk.params),
        "S": list(sk.S),
        "a": sk.a.tolist(),
        "M": sk.M.tolist(),
        "y": sk.y_dec.tolist(),
    }


def encode_boost_aux(aux) -> dict:
    g = aux.graph
    return {
        "format": V1,
        "kind": "boost-aux",
        "k": g.k,
        "b": g.b,
        "lambda_measured": g.lambda_measured,
        "adjacency": g.adjacency.tolist(),
        "assignment": aux.assignment.tolist(),
        "level_params": [encode_params(p) for p in aux.level_params],
        "links": [link.tolist() for link in aux.links],
    }


def write(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def save_public_key(pk, path) -> None:
    write(encode_public_key(pk), path)


def save_secret_key(sk, path) -> None:
    write(encode_secret_key(sk), path)


def save_hom_keys(hk, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    meta = {"format": V1, "kind": "hom-keys", "k": hk.k, "depth": hk.depth,
            "params": encode_params(hk.params)}
    write(meta, d / "meta.json")
    for i, (pk, sk) in enumerate(hk.levels):
        save_public_key(pk, d / f"level{i}.pk.json")
        save_secret_key(sk, d / f"level{i}.sk.json")
    for i, aux in enumerate(hk.boosts):
        write(encode_boost_aux(aux), d / f"boost{i}.json")
