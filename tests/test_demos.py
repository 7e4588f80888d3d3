"""Smoke tests: every demo script runs to completion at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.mark.parametrize(
    "script, args",
    [
        ("feasibility_tables.py", []),
        ("estimator_grid.py", ["--n", "2000"]),
        ("bias_diagnostic.py", ["--replicates", "3", "--n-sim", "500"]),
    ],
)
def test_demo_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
