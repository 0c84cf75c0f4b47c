"""Smoke runs of the scripts under scripts/, which use the public API,
and a check that the names the benchmark's tracer wraps still exist."""

import contextlib
import importlib
import importlib.util
import io
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


def assert_rejected_with_one_error_line(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["--alpha", "1/0"],
    ["--alpha", "1,,2"],
    ["--time", "0"],
    ["--time", "0.004"],
    ["--n", "0"],
    ["--time", "1e308"],
])
def test_convergence_study_rejects_bad_input_with_one_error_line(args):
    assert_rejected_with_one_error_line("convergence_study.py", args)


@pytest.mark.parametrize("args", [["--samples", "0"], ["--seed", "-1"]])
def test_ci_matrix_rejects_bad_input_with_one_error_line(args):
    assert_rejected_with_one_error_line("run_ci_matrix.py", args)


def test_bench_tracer_targets_resolve(tmp_path, monkeypatch):
    """Every name in perfbench/tracing.TARGETS resolves in its module, a
    traced build and verify counts brackets through `num_terms`, the
    commutation pairs and the probe candidates, a traced simulate counts
    the bytes of its record and its CSV, and the wrapped cmd_* functions
    are the ones `main` calls, so a refactor cannot silently break or
    darken a traced bench run."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # for its dataclass
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(name) for name in tracing.TARGETS}
    for module_name, names in tracing.TARGETS.items():
        for dotted in names:
            owner = modules[module_name]
            for part in dotted.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{module_name}.{dotted}"

    cli = modules["magneflow.cli"]
    family, report = str(tmp_path / "family.json"), str(tmp_path / "report.json")
    cli.build_parser()  # built before tracing, as when untraced passes come first
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["build", "--n", "3", "--alpha", "1,1", "--out", family]) == 0
            assert cli.main(["verify", "--family", family, "--report", report]) == 0
            assert cli.main(["simulate", "--n", "3", "--alpha", "1,1", "--dt", "1e-3",
                             "--steps", "50", "--check-picture",
                             "--out", str(tmp_path / "orbit")]) == 0
    finally:
        tracer.restore()
    spans = {span[0] for span in tracer.spans}
    assert {"exactpoly.poisson_bracket", "verify.check_commutation",
            "verify.hamiltonian_membership", "verify.functional_independence",
            "verify.superintegrability_probe", "cli.cmd_build", "cli.cmd_verify"} <= spans
    assert tracer.counters["exactpoly.bracket_in_terms"] > 0
    assert tracer.counters["verify.rank_tests"] == 1
    assert tracer.counters["verify.pairs"] > 0
    assert tracer.counters["verify.probe_candidates"] > 0
    assert {"flow.integrate", "flow.picture_map", "flow.write_csv"} <= spans
    assert tracer.counters["flow.record_bytes"] > 0
    assert tracer.counters["flow.csv_bytes"] > 0
