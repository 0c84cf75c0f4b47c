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


def test_ci_matrix_prints_certified_rank_per_model():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_ci_matrix.py"), "--samples", "3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows, _ = proc.stdout.splitlines()
    assert header.split()[3] == "rank"
    assert len(rows) == 11
    for row in rows:
        label, rank = row.split()[0], row.split()[3]
        n = label[1:label.index(",")]
        assert rank == f"{n}/{n}", row


@pytest.mark.parametrize("args", [
    ["--alpha", "1/0"],
    ["--alpha", "1,,2"],
    ["--time", "0"],
    ["--time", "0.004"],
    ["--n", "0"],
])
def test_convergence_study_rejects_bad_input_with_one_error_line(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "convergence_study.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
