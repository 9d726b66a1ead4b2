"""Spans around calls into the library, recorded from outside it.

`Tracer.install` wraps the public functions named in TARGETS and rebinds
every module-level alias of them: codehom modules import kernels such as
`mul_arrays`, `matmul_arrays` and `_mul_any` by name, so a call through
such an alias would otherwise bypass the wrapper and go uncounted.

A span is (name, start, end, parent, op id, work). Spans live in flat
arrays in memory and are written out once, at the end of the run. Work
is a count kept for two functions: elements produced by `mul_arrays` and
rows multiplied by `matmul_arrays`, which inside a boost are the rows
reencrypted.

Time is read from a clock that stops while the part-health audit runs,
so the audit's own time appears in no span.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from contextlib import contextmanager
from math import prod

import numpy as np

TARGETS = {
    "field": ("mul_arrays",),
    "linalg": ("matmul_arrays", "random_unimodular_array", "solve_canonical_array",
               "vandermonde_array", "rank_batch"),
    "scheme": ("keygen", "encrypt_batch", "decrypt_batch", "enc_membership_batch"),
    "reencrypt": ("aux_gen_basic", "chain_keygen", "chain_eval_arrays", "_mul_any",
                  "_xor_any"),
    "circuit": ("build_apxmaj", "eval_plain_array", "layerize"),
    "booster": ("build_expander", "boost_aux_gen", "boost_arrays"),
    "hom": ("hom_keygen", "hom_encrypt", "hom_eval", "hdec"),
    "serial": ("save_hom_keys", "load_hom_keys"),
    "analysis": ("error_budget",),
}

OP = "op"
MUL = "field.mul_arrays"
MATMUL = "linalg.matmul_arrays"
BOOST = "booster.boost_arrays"
KEYGEN = "scheme.keygen"
HOM_KEYGEN = "hom.hom_keygen"


def _mul_elems(spec, a, b) -> int:
    return prod(np.broadcast_shapes(np.shape(a), np.shape(b)))


def _matmul_rows(spec, A, B) -> int:
    sa, sb = np.shape(A), np.shape(B)
    return prod(np.broadcast_shapes(sa[:-2], sb[:-2])) * sa[-2]


WORK = {MUL: _mul_elems, MATMUL: _matmul_rows}


def expected_boost_elems(aux, shape) -> int:
    """Field products one boost_arrays call must make, from array shapes.

    Entry link: n_0 contraction steps over (b, W, k, n_1). Tree level l:
    (m >> l) gate products per part of length n_l, then the level-l link,
    n_l contraction steps over (m >> l, W, k, n_{l+1}); m is the leaf count.
    """
    W = prod(shape[:-2])
    k, b = aux.graph.k, aux.graph.b
    n = [p.n for p in aux.level_params]
    m = len(aux.assignment)
    total = n[0] * b * W * k * n[1]
    for level in range(1, aux.tree_depth + 1):
        rows = (m >> level) * W * k
        total += rows * n[level] + n[level] * rows * n[level + 1]
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ix: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("q")
        self.depth = array("i")
        self.outer = array("b")     # 1 if no span of the same name encloses it
        self.meta: dict[int, dict] = {}
        self._stack: list[int] = []
        self._open_by_name: dict[int, int] = {}
        self._stopped_ns = 0
        self._op_id = -1
        self.active = False
        self.audit_keys: dict = {}
        self.audit: dict[int, dict] = {}
        self._restore: list = []
        self.t0 = time.perf_counter_ns()

    # -- clock and spans ---------------------------------------------------

    def now(self) -> int:
        return time.perf_counter_ns() - self._stopped_ns

    @contextmanager
    def paused(self):
        """Run untraced, with the span clock stopped."""
        was, self.active = self.active, False
        t = time.perf_counter_ns()
        try:
            yield
        finally:
            self._stopped_ns += time.perf_counter_ns() - t
            self.active = was

    def _name_ix(self, name: str) -> int:
        ix = self._ix.get(name)
        if ix is None:
            ix = self._ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def open(self, nix: int, work: int = 0) -> int:
        i = len(self.start)
        depth = self._open_by_name.get(nix, 0)
        self._open_by_name[nix] = depth + 1
        self.name.append(nix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.work.append(work)
        self.depth.append(len(self._stack))
        self.outer.append(depth == 0)
        self.end.append(-1)
        self._stack.append(i)
        self.start.append(self.now())
        return i

    def close(self, i: int, nix: int) -> None:
        self.end[i] = self.now()
        self._stack.pop()
        self._open_by_name[nix] -= 1

    @contextmanager
    def op_span(self, op_id: int):
        self._op_id = op_id
        nix = self._name_ix(OP)
        i = self.open(nix)
        try:
            yield
        finally:
            self.close(i, nix)
            self._op_id = -1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, qname: str, fn):
        nix = self._name_ix(qname)
        measure = WORK.get(qname)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            work = measure(*args, **kwargs) if measure else 0
            i = tracer.open(nix, work)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i, nix)
            tracer._after(qname, i, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _after(self, qname, i, args, kwargs, out) -> None:
        if qname == BOOST:
            aux, C = args[0], args[1]
            self.meta[i] = {"expected_elems": expected_boost_elems(aux, np.shape(C))}
            if id(aux) in self.audit_keys:
                with self.paused():
                    self._audit_parts(aux, out)
        elif qname == HOM_KEYGEN:
            self.meta[i] = {"expected_keygens": len(out.levels) + sum(
                aux.graph.k * aux.tree_depth for aux in out.boosts)}

    def install(self, modules) -> None:
        """Wrap TARGETS and rebind every alias of them in `modules`."""
        import importlib

        wrappers = {}
        for mod_name, fns in TARGETS.items():
            mod = importlib.import_module(f"codehom.{mod_name}")
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, w)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    # -- part-health audit -------------------------------------------------

    def _audit_parts(self, aux, out) -> None:
        from codehom.hom import dec_k_threshold, enc_k_threshold
        from codehom.scheme import decrypt_batch, enc_membership_batch

        level, sk = self.audit_keys[id(aux)]
        k, n = out.shape[-2], out.shape[-1]
        P = np.asarray(out).reshape(-1, k, n)
        W = P.shape[0]
        dec = decrypt_batch(sk, P.reshape(-1, n)).reshape(W, k)
        q = sk.params.field.q
        plural = np.array([np.bincount(row, minlength=q).argmax() for row in dec],
                          dtype=dec.dtype)
        enc = enc_membership_batch(sk, np.repeat(plural, k), P.reshape(-1, n)).reshape(W, k)
        good_dec = dec == plural[:, None]
        a = self.audit.setdefault(level, dict.fromkeys(
            ("wires", "parts", "enc_parts", "dec_parts", "wires_enc_ok", "wires_dec_ok"), 0))
        a["wires"] += W
        a["parts"] += W * k
        a["enc_parts"] += int(enc.sum())
        a["dec_parts"] += int(good_dec.sum())
        a["wires_enc_ok"] += int((enc.sum(axis=1) >= enc_k_threshold(k)).sum())
        a["wires_dec_ok"] += int((good_dec.sum(axis=1) >= dec_k_threshold(k)).sum())

    # -- analysis ----------------------------------------------------------

    def columns(self) -> dict:
        c = {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
            "depth": np.frombuffer(self.depth, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
        }
        c["dur"] = c["end"] - c["start"]
        return c

    def subtree_sum(self, c: dict, values: np.ndarray) -> np.ndarray:
        """values summed over each span and all its descendants."""
        acc = values.astype(np.int64).copy()
        for d in range(int(c["depth"].max(initial=0)), 0, -1):
            rows = np.nonzero(c["depth"] == d)[0]
            np.add.at(acc, c["parent"][rows], acc[rows])
        return acc

    def write(self, path) -> None:
        c = self.columns()
        doc = {
            "names": self.names,
            "time_unit": "ns since trace start (audit time removed)",
            "name": c["name"].tolist(),
            "start": (c["start"] - self.t0).tolist(),
            "end": (c["end"] - self.t0).tolist(),
            "parent": c["parent"].tolist(),
            "op": c["op"].tolist(),
            "work": c["work"].tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f)
