"""The scripts under demos/ run to completion against the package, with stable stdout."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; its seed fixes every byte of it
STDOUT_SHA256 = {
    "layered_evaluation": "048c095f4f4e4054f7af521953064dcc63a48035195af18d6ebd1892bac3797e",
    "reencryption_chain": "4f8c064523820907f0bbb65484ff3561a7e5ced04e3909cb2a01c62776c19efb",
    "round_trip": "1772fe64cd8b3caf79bb25dcac68839fabe6c43f22a55bf4b66032144130e0ef",
}


def test_demos_found():
    assert [d.name for d in DEMOS] == [
        "layered_evaluation.py", "reencryption_chain.py", "round_trip.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    # Each demo seeds its generator, so two runs print the same stdout;
    # wall times and other run-dependent figures belong on stderr.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    outs = []
    for _ in range(2):
        done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == STDOUT_SHA256[demo.stem]
