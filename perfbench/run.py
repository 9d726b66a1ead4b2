"""codehom benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--threads T]

NAME is one of desk-eval, desk-keygen, dryrun-noisy, budget, or `all`,
which runs the four in turn, each in its own process. Run it from the
root of a checkout: it imports codehom from `src/` there and exits with
code 2 when that is missing. Results and span files go to
`.perfbench_out/` in the checkout. BENCHMARK.json declares the metrics;
perfbench/README.md describes the workloads and what each metric means.

BLAS and OpenMP pools are capped at --threads (never above the CPU count)
before numpy is imported, so every run has the same thread budget.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("desk-eval", "desk-keygen", "dryrun-noisy", "budget")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=2,
                    help="cap for BLAS/OpenMP thread pools (default 2)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        ap.error("--seed must be >= 0, --seconds > 0 and --threads >= 1")
    return args


def run_all(args) -> int:
    """Each workload in a child process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--threads", str(args.threads)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("report "):
                print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "codehom" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {src}/codehom or {spec_path} is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap = min(args.threads, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    if args.workload == "all":
        return run_all(args)

    spec = json.loads(spec_path.read_text())
    declared = {key: [m["name"] for m in spec[key]] for key in ("end_to_end", "per_layer")}
    sys.path.insert(0, str(src))
    import measure  # imports numpy, so only after the thread cap is set

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = measure.Run(args, declared, cap, nproc, workdir, OUT)
    try:
        run.setup()
        return run.run_traced() if args.trace else run.run_timed()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
