"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads desk-eval budget --seeds 1 2 3 4 5 [--seconds S]

Runs the benchmark once per (workload, seed), one run at a time, and
prints for every end-to-end metric its median and its spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. A benchmark is steady when each spread,
setup_s aside, is below a third of the metric's bound in BENCHMARK.json.
Every run's result line is appended to .perfbench_out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    steady = True
    for name in args.workloads:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a") as f:
                f.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            if proc.returncode or not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, result {result}")
                steady = False
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bounds[m] / 3
            steady &= ok
            print(f"{name:13s} {m:12s} median {med:.5g}  spread {spread:.3f}  "
                  f"bound {bounds[m]}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
