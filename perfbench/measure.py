"""Run one workload: set-up, then a timed run or a traced run, then report.

Timed run (--trace 0): operations run back to back for --seconds of wall
time, and never fewer than the workload's fixed op count. It reports the
end-to-end metrics.

Traced run (--trace 1): the workload's fixed ops run once untraced and
then again with every library entry point wrapped (see tracing.py). The
replay must reproduce the untraced outputs bit for bit. It reports the
per-layer metrics, the tracing overhead (traced minus untraced time of
the same ops) and the coverage checks.

Both print a human-readable summary, one `report` JSON line with every
detail, and as the last line the JSON result object.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from codehom.analysis import BUDGET_TRIALS, wilson_interval
from tracing import BOOST, HOM_KEYGEN, KEYGEN, MATMUL, MUL, OP, Tracer
from workloads import WORKLOADS, Checked

# ROADMAP baseline on a 2-core desk machine, for the traced run's comparison.
BASELINE = {
    "desk hom_keygen s": 1.5,
    "desk hom_keygen scheme.keygen calls": 771,
    "desk hom_keygen field.mul_arrays s": 0.9,
    "load_hom_keys s": 0.09,
    "README hom_eval s": (1.1, 1.5),
    "README boost level 1 s": 0.36,
    "README boost level 2 s": 0.15,
    "README boost levels 3-12 s": 0.15,
    "README boost entry link s": 0.02,
    # implied: two boosts of 0.36 s at level 1 within 1.1-1.5 s; "over 97%"
    "README level 1 share of hom_eval": (0.48, 0.65),
    "README mul_arrays share of hom_eval": (0.97, 1.0),
}


def digest(arrays_list) -> str:
    h = hashlib.sha256()
    for arrays in arrays_list:
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape};".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    ordered = sorted(values)
    return {"value": ordered[n - 11], "percentile": round(100.0 * (n - 10) / n, 1),
            "samples": n}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    def __init__(self, args, declared: dict, thread_cap: int, nproc: int, workdir: Path,
                 outdir: Path):
        self.args = args
        self.declared = declared
        self.wl = WORKLOADS[args.workload](args.seed, workdir)
        self.outdir = outdir
        self.checks: dict[str, bool] = {}
        self.record = {
            "workload": args.workload,
            "why": self.wl.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "thread_cap": thread_cap,
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        }

    # -- steps -------------------------------------------------------------

    def setup(self) -> None:
        times, hashes = [], []
        for j in range(self.wl.setup_units):
            t0 = time.perf_counter()
            arrays = self.wl.setup_unit(j)
            times.append(time.perf_counter() - t0)
            hashes.append(digest([arrays]))
        if self.wl.same_units:
            self.checks["setup units identical"] = len(set(hashes)) == 1
        self.setup_times = times
        self.setup_digest = hashlib.sha256("".join(hashes).encode()).hexdigest()

    def one_op(self, i: int, tracer: Tracer | None = None):
        """Returns (seconds, stages, Checked); a raised exception is a failed op."""
        wl = self.wl
        try:
            inp = wl.prepare(i)
            with tracer.op_span(i) if tracer else nullcontext():
                t0 = wl.now()
                out, stages = wl.execute(inp)
                seconds = wl.now() - t0
            with tracer.paused() if tracer else nullcontext():
                checked = wl.check(inp, out)
        except Exception:
            note = traceback.format_exc()
            print(f"op {i} raised:\n{note}", file=sys.stderr)
            return None, {}, Checked([], failed=True, note=note.strip().splitlines()[-1])
        if checked.failed:
            print(f"op {i} failed: {checked.note}", file=sys.stderr)
        return seconds, stages, checked

    def timed(self) -> tuple[list, float]:
        ops = []
        start = time.perf_counter()
        i = 0
        while i < self.wl.fixed_ops or time.perf_counter() - start < self.args.seconds:
            ops.append(self.one_op(i))
            i += 1
        return ops, time.perf_counter() - start

    # -- reports -----------------------------------------------------------

    def op_digest(self, ops) -> str:
        fixed = ops[: self.wl.fixed_ops]
        return digest([c.arrays for _, _, c in fixed])

    def workload_metrics(self, ops) -> dict:
        """The end-to-end metrics named per workload, with units."""
        secs = [s for s, _, _ in ops if s is not None]

        def stage(key):
            return [st[key] for s, st, _ in ops if s is not None]

        name = self.wl.name
        m = {"op_s.p50": (statistics.median(secs), "s"), "op_s.tail": (tail(secs), "s")}
        if name in ("desk-eval", "dryrun-noisy"):
            m["circuit_s.p50"] = (statistics.median(secs), "s")
            m["circuit_s.tail"] = (tail(secs), "s")
            m["circuits_per_s"] = (len(secs) / sum(secs), "1/s")
        if name == "desk-keygen":
            m["keygen_s.p50"] = (statistics.median(stage("keygen_s")), "s")
            m["keygen_s.tail"] = (tail(stage("keygen_s")), "s")
            m["key_save_s.p50"] = (statistics.median(stage("key_save_s")), "s")
            m["key_load_s.p50"] = (statistics.median(stage("key_load_s")), "s")
            m["key_bytes"] = (statistics.median(c.extra["key_bytes"] for s, _, c in ops
                                                if s is not None), "bytes")
        if name == "dryrun-noisy":
            wrong = sum(c.wrong for s, _, c in ops if s is not None)
            lo, hi = wilson_interval(wrong, len(secs))
            m["wrong_rate"] = ({"value": wrong / len(secs), "wrong": wrong,
                                "trials": len(secs), "wilson95": [lo, hi],
                                "key_sets": len(self.wl.key_sets)}, "1")
        if name == "budget":
            m["budget_s.p50"] = (statistics.median(secs), "s")
            for key in BUDGET_TRIALS:
                m[f"row.{key}.s.p50"] = (statistics.median(stage(f"row.{key}.s")), "s")
        return m

    def result_line(self, attempted: int, failed: int, metrics: dict) -> dict:
        return {
            "correct": failed == 0 and all(self.checks.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def finish(self, report: dict, result: dict) -> int:
        report = {"record": self.record, "checks": self.checks, **report}
        tag = f"{self.wl.name}-seed{self.args.seed}-trace{self.args.trace}"
        (self.outdir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
        for name, ok in self.checks.items():
            print(f"check  {name}: {'ok' if ok else 'FAILED'}")
        print("report " + json.dumps(report))
        print(json.dumps(result))
        return 0

    # -- the two modes -----------------------------------------------------

    def run_timed(self) -> int:
        ops, wall = self.timed()
        secs = [s for s, _, _ in ops if s is not None]
        failed = sum(c.failed for _, _, c in ops)
        if not secs:
            raise RuntimeError(f"none of {len(ops)} operations completed")
        e2e = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ops_per_s": (len(secs) / sum(secs), "1/s"),
        }
        if set(e2e) != set(self.declared["end_to_end"]):
            raise RuntimeError("end-to-end metrics differ from those BENCHMARK.json declares")
        named = self.workload_metrics(ops)
        print(f"{self.wl.name}: {len(ops)} ops in {wall:.1f} s wall, seed {self.args.seed}, "
              f"{self.record['thread_cap']} BLAS/OpenMP threads on {self.record['nproc']} cpus")
        for k, (v, u) in {**e2e, **named}.items():
            print(f"metric {k} = {json.dumps(v)} {u}")
        report = {
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
            "setup_times_s": self.setup_times,
            "op_seconds": secs,
            "wall_s": wall,
            "digest": {"setup": self.setup_digest, "ops": self.op_digest(ops),
                       "ops_covered": min(len(ops), self.wl.fixed_ops)},
            "failures": [c.note for _, _, c in ops if c.failed],
        }
        return self.finish(report, self.result_line(len(ops), failed, e2e))

    def run_traced(self) -> int:
        n = self.wl.fixed_ops
        plain = [self.one_op(i) for i in range(n)]
        tracer = Tracer()
        tracer.audit_keys = self.wl.audit_keys()
        self.wl.now = lambda: tracer.now() / 1e9
        tracer.install(traced_modules())
        try:
            traced = [self.one_op(i, tracer) for i in range(n)]
        finally:
            tracer.uninstall()
            self.wl.now = time.perf_counter
        self.checks["traced replay bit-identical"] = self.op_digest(plain) == self.op_digest(traced)
        layers, detail = layer_metrics(self, tracer, plain, traced)
        spans_path = self.outdir / f"spans-{self.wl.name}-seed{self.args.seed}.json.gz"
        tracer.write(spans_path)
        print(f"{self.wl.name}: traced {n} fixed ops, seed {self.args.seed}, "
              f"{len(tracer.start)} spans written to {spans_path.name}")
        for k, (v, u) in layers.items():
            print(f"layer  {k} = {v} {u}")
        for line in detail.pop("baseline_lines", []):
            print(f"base   {line}")
        failed = sum(c.failed for _, _, c in plain + traced)
        report = {
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
            **detail,
            "digest": {"setup": self.setup_digest, "ops": self.op_digest(plain),
                       "ops_covered": n},
            "failures": [c.note for _, _, c in plain + traced if c.failed],
        }
        counts = {k: v for k, (v, u) in layers.items() if u in ("count", "bytes")}
        report["counts_digest"] = hashlib.sha256(
            json.dumps(counts, sort_keys=True).encode()).hexdigest()
        print(f"counts digest {report['counts_digest']}")
        metrics = {k: layers[k] for k in self.declared["per_layer"]}
        return self.finish(report, self.result_line(2 * n, failed, metrics))


def traced_modules():
    names = [m for m in sys.modules if m == "codehom" or m.startswith("codehom.")]
    return [sys.modules[m] for m in names] + [sys.modules["workloads"]]


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans.


def layer_metrics(run: Run, tr: Tracer, plain, traced) -> tuple[dict, dict]:
    c = tr.columns()
    names = tr.names
    ix = {name: i for i, name in enumerate(names)}
    dur = c["dur"].astype(np.float64)
    parent = c["parent"]
    has_parent = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    nm = c["name"]

    m: dict[str, tuple] = {}
    for name in names:
        sel = nm == ix[name]
        m[f"{name}.calls"] = (int(sel.sum()), "count")
        m[f"{name}.s"] = (float(dur[sel & c["outer"]].sum()) / 1e9, "s")
        m[f"{name}.self_s"] = (float(self_t[sel].sum()) / 1e9, "s")
    elems = int(c["work"][nm == ix[MUL]].sum())
    m[f"{MUL}.elems"] = (elems, "count")
    m[f"{MUL}.ns_per_elem"] = (m[f"{MUL}.s"][0] * 1e9 / elems if elems else 0.0, "ns")

    # Boost levels: level 0 ends with the first link's matmul, level l with
    # the l-th matmul after it; a level runs from the previous end.
    is_boost = nm == ix[BOOST]
    boost_rows = np.nonzero(is_boost)[0]
    mm = np.nonzero((nm == ix[MATMUL]) & has_parent)[0]
    mm = mm[is_boost[parent[mm]]]
    m["booster.reenc_rows"] = (int(c["work"][mm].sum()), "count")
    level_s: dict[int, float] = {}
    per_boost_levels = {}
    for b in boost_rows:
        kids = mm[parent[mm] == b]
        ends = c["end"][kids]
        starts = np.concatenate([[c["start"][b]], ends[:-1]])
        per_boost_levels[int(b)] = (ends - starts) / 1e9
        for level, s in enumerate((ends - starts) / 1e9):
            level_s[level] = level_s.get(level, 0.0) + float(s)
    depth = max(level_s, default=12)
    for level in range(depth + 1):
        m[f"booster.level.{level}.s"] = (level_s.get(level, 0.0), "s")

    # Coverage: mul_arrays elements inside each boost against the shapes,
    # scheme.keygen calls inside each hom_keygen against the key shape.
    mul_sub = tr.subtree_sum(c, np.where(nm == ix[MUL], c["work"], 0))
    keygen_sub = tr.subtree_sum(c, (nm == ix[KEYGEN]).astype(np.int64))
    boost_cov = [(int(mul_sub[b]), tr.meta[int(b)]["expected_elems"]) for b in boost_rows]
    hk_rows = np.nonzero(nm == ix[HOM_KEYGEN])[0]
    keygen_cov = [(int(keygen_sub[h]), tr.meta[int(h)]["expected_keygens"]) for h in hk_rows]
    if boost_cov:
        run.checks["mul_arrays elements per boost match the shapes"] = all(
            a == e for a, e in boost_cov)
    if keygen_cov:
        run.checks["scheme.keygen calls per hom_keygen match the key shape"] = all(
            a == e for a, e in keygen_cov)

    # Part-health audit, over every boost with a retained target key.
    total = {k: sum(a[k] for a in tr.audit.values())
             for k in ("wires", "parts", "enc_parts", "dec_parts", "wires_enc_ok",
                       "wires_dec_ok")}
    m["booster.audit_parts"] = (total["parts"], "count")
    m["booster.enc_parts"] = (total["enc_parts"], "count")
    m["booster.dec_parts"] = (total["dec_parts"], "count")
    audit = {
        "by_boost_index": tr.audit,
        "enc_parts_frac": total["enc_parts"] / total["parts"] if total["parts"] else None,
        "dec_parts_frac": total["dec_parts"] / total["parts"] if total["parts"] else None,
        "wires_meeting_31k/32": total["wires_enc_ok"],
        "wires_meeting_15k/16": total["wires_dec_ok"],
        "wires": total["wires"],
        "bit": "plurality of the part decryptions under the target level key",
    }

    # Op-level numbers and the tracing overhead on the same ops.
    ok_plain = [s for s, _, _ in plain if s is not None]
    ok_traced = [s for s, _, _ in traced if s is not None]
    op_rows = nm == ix[OP]
    m["op.self_s"] = (float(self_t[op_rows].sum()) / 1e9, "s")
    m["trace.ops"] = (len(traced), "count")
    m["trace.spans"] = (len(dur), "count")
    m["trace.untraced_s"] = (sum(ok_plain), "s")
    m["trace.traced_s"] = (sum(ok_traced), "s")
    m["trace.overhead_s"] = (sum(ok_traced) - sum(ok_plain), "s")
    key_bytes = [ch.extra["key_bytes"] for s, _, ch in traced if "key_bytes" in ch.extra]
    m["serial.key_bytes"] = (sum(key_bytes), "bytes")
    hdec_wrong = sum(ch.wrong for _, _, ch in traced)
    m["hom.hdec.wrong"] = (hdec_wrong, "count")
    for key in BUDGET_TRIALS:
        m[f"analysis.row.{key}.s"] = (
            sum(st.get(f"row.{key}.s", 0.0) for _, st, _ in traced), "s")

    op_total = m["trace.traced_s"][0]
    shares = {
        name: (m[name][0] / op_total if op_total else None)
        for name in (f"{MUL}.s", f"{MATMUL}.s", f"{BOOST}.s", "booster.level.1.s",
                     "hom.hom_eval.self_s", "scheme.keygen.s", "op.self_s")
    }
    detail = {
        "audit": audit,
        "share_of_traced_op_time": shares,
        "coverage": {"boost_mul_elems": boost_cov[:16], "boosts": len(boost_cov),
                     "hom_keygen_keygens": keygen_cov},
        "op_seconds_untraced": ok_plain,
        "op_seconds_traced": ok_traced,
        "overhead_frac": (sum(ok_traced) / sum(ok_plain) - 1) if ok_plain else None,
    }
    mul_ns = tr.subtree_sum(c, np.where(nm == ix[MUL], c["dur"], 0))
    detail.update(baseline(run, c, ix, plain, per_boost_levels, mul_ns, m))
    return m, detail


def baseline(run: Run, c, ix, plain, per_boost_levels, mul_ns, m) -> dict:
    """The ROADMAP baseline next to this run's numbers, where they apply."""
    rows = []
    name = run.wl.name
    ok = [(s, st) for s, st, _ in plain if s is not None]
    if name == "desk-keygen" and ok:
        rows.append(("desk hom_keygen s", statistics.median(st["keygen_s"] for _, st in ok),
                     "untraced median"))
        rows.append(("desk hom_keygen scheme.keygen calls",
                     m["scheme.keygen.calls"][0] / max(1, m["hom.hom_keygen.calls"][0]),
                     "traced, per hom_keygen"))
        rows.append(("desk hom_keygen field.mul_arrays s",
                     m[f"{MUL}.s"][0] / m["trace.ops"][0], "traced, per op"))
        rows.append(("load_hom_keys s", statistics.median(st["key_load_s"] for _, st in ok),
                     "untraced median"))
    if name == "desk-eval":
        # op 0 of every cycle of the circuit stream is the README netlist
        readme = [st["eval_s"] for i, (s, st, _) in enumerate(plain) if i % 6 == 0 and s]
        if readme:
            rows.append(("README hom_eval s", statistics.median(readme), "untraced median"))
        boosts = [lv for b, lv in per_boost_levels.items() if c["op"][b] % 6 == 0]
        evals = np.nonzero((c["name"] == ix["hom.hom_eval"]) & (c["op"] % 6 == 0))[0]
        if evals.size and boosts and all(len(lv) == len(boosts[0]) >= 3 for lv in boosts):
            lv = np.mean(boosts, axis=0)
            how = "traced, mean over the README op's boosts"
            rows.append(("README boost entry link s", float(lv[0]), how))
            rows.append(("README boost level 1 s", float(lv[1]), how))
            rows.append(("README boost level 2 s", float(lv[2]), how))
            rows.append(("README boost levels 3-12 s", float(lv[3:].sum()), how))
            eval_ns = float(c["dur"][evals].sum())
            how = "traced, README op"
            rows.append(("README level 1 share of hom_eval",
                         float(np.sum(boosts, axis=0)[1]) * 1e9 / eval_ns, how))
            rows.append(("README mul_arrays share of hom_eval",
                         float(mul_ns[evals].sum()) / eval_ns, how))
    out = []
    lines = []
    for key, value, how in rows:
        ref = BASELINE[key]
        if isinstance(ref, tuple):
            dev = 0.0 if ref[0] <= value <= ref[1] else (
                value / ref[0] - 1 if value < ref[0] else value / ref[1] - 1)
        else:
            dev = value / ref - 1
        out.append({"what": key, "baseline": ref, "measured": value, "how": how,
                    "deviation": dev})
        lines.append(f"{key}: baseline {ref}, measured {value:.4g} ({how}), "
                     f"deviation {dev:+.0%}")
    return {"baseline": out, "baseline_lines": lines}
