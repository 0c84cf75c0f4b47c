#!/usr/bin/env python3
"""Benchmark of the magneflow command line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 60 --trace 0

Runs one workload (see workloads.py) through `magneflow.cli.main` inside
this single-threaded process, pass after pass, and starts no pass that
would end after --seconds seconds.  It checks every command's output.  The
program is imported from the `src/` directory next to this one; without it
the benchmark exits 1.

With --trace 0 it reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb) and prints error_rate and, on simulate-long, max_rel_drift.
With --trace 1 it alternates traced and untraced passes, reports the
per-layer metrics of tracing.PER_LAYER, the tracing overhead, and writes
the span table to
.perfbench-out/trace-<workload>-seed<seed>.json.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the raw per-pass figures.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-out"

# One single-threaded process: no verification thread pool, no BLAS threads.
ENV_PINS = {
    "MAGNEFLOW_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES = 21  # at least; SETUP_PER_PASS are taken after every pass, the rest at the end
SETUP_PER_PASS = 2
SETUP_TIMEOUT_S = 60
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PROGRAM_MODULES = ("magneflow.cli", "magneflow.verify", "magneflow.flow", "magneflow.sampling")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "simulate-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="only import the program, write the inputs into DIR, "
                        "print the monotonic clock and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def load_program():
    """Import magneflow from ../src, never from an installed copy."""
    if not (SRC / "magneflow" / "cli.py").is_file():
        raise SystemExit(f"error: magneflow sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    modules = {name: importlib.import_module(name) for name in PROGRAM_MODULES}
    origin = Path(modules["magneflow.cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: imported magneflow from {origin}, not from {SRC}")
    return modules


def time_setup(args, k: int) -> float:
    """Set-up time of a fresh process: from spawn until its inputs exist."""
    target = WORK / f"{args.workload}-{os.getpid()}-setup{k}"
    target.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(target)]
    try:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        return float(done.stdout.strip().splitlines()[-1]) - start
    finally:
        shutil.rmtree(target, ignore_errors=True)


def run_pass(cli, commands, modules, tracer=None):
    """Run every command once; wall time from the first call to the last return."""
    codes, outputs = [], []
    if tracer is not None:
        tracer.install(modules)
    try:
        start = time.perf_counter()
        for command in commands:
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                codes.append(cli.main(list(command.argv)))
            outputs.append(sink.getvalue())
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return wall, codes, outputs


def artifact_digest(commands) -> str:
    """Digest of every output of a pass; a missing file (already counted as
    a failed command) digests as empty."""
    digest = hashlib.sha256()
    for command in commands:
        for path in command.outputs:
            try:
                digest.update(Path(path).read_bytes())
            except OSError:
                digest.update(b"")
    return digest.hexdigest()


def environment(modules) -> dict:
    import numpy

    return {
        "pins": {key: os.environ.get(key) for key in ENV_PINS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "magneflow": modules["magneflow.cli"].__version__,
    }


def emit(name, value, unit, note=""):
    print(f"{name:<34} {value:<14.6g} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(ENV_PINS)
    modules = load_program()
    import checks
    import tracing
    import workloads

    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, Path(args.setup_probe))
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    cli = modules["magneflow.cli"]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    home = Path.cwd()
    try:
        # Relative file names keep the artifacts free of this run's directory.
        os.chdir(workdir)
        commands = workloads.prepare(args.workload, args.seed, Path("."))
        # Set-up samples are spread between the passes, so that they see the
        # same stretch of machine time as the passes do.
        setups = [time_setup(args, 0)]

        walls, traced_flags, traced_passes = [], [], []
        digests = set()
        attempted = failed = 0
        problems = []
        min_passes = 3 if args.trace else 1
        loop_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(walls) % 2 == 0
            tracer = tracing.Tracer() if traced else None
            wall, codes, outputs = run_pass(cli, commands, modules, tracer)
            walls.append(wall)
            traced_flags.append(traced)
            for command, code, output in zip(commands, codes, outputs):
                attempted += 1
                found = checks.check_command(command, code, reference)
                if found:
                    failed += 1
                    print(f"FAILED {' '.join(command.argv)}: {'; '.join(found)}")
                    print(output.rstrip())
            digests.add(artifact_digest(commands))
            if tracer is not None:
                traced_passes.append((wall, tracing.summarize(tracer.spans), tracer.counters))
            for _ in range(SETUP_PER_PASS):
                setups.append(time_setup(args, len(setups)))
            elapsed = time.perf_counter() - loop_start
            if len(walls) >= min_passes and elapsed * (len(walls) + 1) / len(walls) > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(args, len(setups)))
        drifts = []
        for command in commands:
            if command.kind == "simulate":
                try:
                    drifts.append(checks.max_rel_drift(json.loads(Path(command.outputs[1]).read_text())))
                except (OSError, ValueError, KeyError):
                    pass  # that command has failed its check already
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    if len(digests) != 1:
        problems.append("artifacts differ between passes of one seed (traced or untraced)")
    env = environment(modules)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(walls)}")
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        plain = [w for w, t in zip(walls, traced_flags) if not t]
        overhead = statistics.median(w for w, _, _ in traced_passes) - statistics.median(plain)
        per_pass = [tracing.layer_metrics(table, counters, wall, overhead)
                    for wall, table, counters in traced_passes]
        for name in tracing.DETERMINISTIC:
            if len({m[name] for m in per_pass}) != 1:
                problems.append(f"{name} differs between traced passes of one seed")
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        for name, unit in tracing.PER_LAYER:
            emit(name, metrics[name]["value"], unit)
        self_sum = metrics["trace.wall_s"]["value"] - metrics["trace.unattributed_s"]["value"]
        print(f"self times sum to {self_sum:.4f} s; untraced wall {statistics.median(plain):.4f} s; "
              f"tracing overhead {overhead:+.4f} s")
        TRACES.mkdir(exist_ok=True)
        _, table, _ = traced_passes[-1]
        trace_path = TRACES / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "metrics": {name: m["value"] for name, m in metrics.items()},
            "spans": {name: vars(row) for name, row in
                      sorted(table.items(), key=lambda item: -item[1].self_s)},
        }, indent=1) + "\n")
        print(f"span table: {trace_path.relative_to(ROOT)}")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        emit("wall_s", values["wall_s"], "s", f"median of {len(walls)} passes")
        emit("setup_s", values["setup_s"], "s", f"median of {len(setups)} fresh processes")
        emit("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss of this process")
        for drift in drifts:
            emit("max_rel_drift", drift, "1", "simulate drift report, checked against reference.json")
    emit("error_rate", failed / attempted, "1", f"{failed} failed of {attempted} commands")
    for problem in problems:
        print(f"PROBLEM {problem}")

    print(json.dumps({"passes_s": walls, "traced": traced_flags, "setup_s": setups,
                      "environment": env, "problems": problems}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
