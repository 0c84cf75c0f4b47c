"""Smoke runs of the scripts under scripts/, which use the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, last_line", [
    ("run_ci_matrix.py", ["--samples", "10"], "all models verified"),
    ("convergence_study.py", ["--time", "1"], "drift decreases monotonically"),
])
def test_script_runs_to_its_verdict(script, args, last_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line
