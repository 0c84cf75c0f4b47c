#!/usr/bin/env python3
"""Write reference.json: the exact fields of `verify` for every model the
workloads verify, and the `max_rel_drift` of every simulate command, from
the current program.

    python3 perfbench/make_reference.py

Regenerate it only at a commit whose exact results are trusted; the
benchmark fails any verify command whose exact fields differ from it.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import chdir, redirect_stdout
from pathlib import Path

from run import HERE, ROOT, WORK, load_program
import checks
import workloads


def main() -> int:
    cli = load_program()["magneflow.cli"]
    models = workloads.VERIFY_MODELS
    workdir = WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    family, report = str(workdir / "family.json"), str(workdir / "report.json")
    exact = {}
    try:
        for n, alpha in sorted(set(models)):
            with redirect_stdout(io.StringIO()):
                codes = (cli.main(["build", "--n", str(n), "--alpha", alpha, "--out", family]),
                         cli.main(["verify", "--family", family, "--samples", workloads.SAMPLES,
                                   "--seed", "0", "--report", report]))
            if codes != (0, 0):
                raise SystemExit(f"model ({n}, {alpha}) exited {codes}")
            exact[workloads.model_key(n, alpha)] = checks.exact_fields(
                json.loads(open(report).read())["report"])
        drift = {}
        with chdir(workdir):
            for command in workloads.prepare("simulate-long", 0, Path(".")):
                with redirect_stdout(io.StringIO()):
                    if cli.main(list(command.argv)) != 0:
                        raise SystemExit(f"{' '.join(command.argv)} failed")
                drift[command.expect["model"]] = checks.max_rel_drift(
                    json.loads(Path(command.outputs[1]).read_text()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    out = {
        "commit": git.stdout.strip() or "unknown",
        "note": "Single cross-pair generators M(l,m) are not additional integrals, "
                "only the plane-symmetric pair combinations are; the known-red "
                "test_09 asserts the opposite and the benchmark keeps this result.",
        "models": exact,
        "max_rel_drift": drift,
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(exact)} models and {len(drift)} drifts to {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
