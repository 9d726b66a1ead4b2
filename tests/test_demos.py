"""The scripts under demos/ run to completion against the package, with stable stdout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
