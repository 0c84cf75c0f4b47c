#!/usr/bin/env python3
"""Measure the baseline: repeated benchmark runs, one fresh process each.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs every workload of BENCHMARK.json once per seed 1..RUNS (cycling
through the workloads for each seed) with --trace 0, then two --trace 1
runs of seed 1 per workload, and stops if the exact counts of
tracing.DETERMINISTIC differ between those two runs.  Records per workload
the median, quartiles and spread (quartile distance over median) of every
end-to-end metric, the pooled per-pass wall times, the traced per-layer
table and the machine.  A spread that is not below a third of the
metric's bound in BENCHMARK.json is flagged as unsteady.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import stats
import tracing
from run import ENV_PINS, HERE, ROOT

RUN_TIMEOUT_S = 600
RUNS = 10
SEEDS = range(1, RUNS + 1)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = done.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{done.stdout}")
    return detail, result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = stats.quartiles(values)
    spread = stats.spread(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "steady": spread < bound / 3}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values = {w: {name: [] for name in bounds} for w in names}
    runs = {w: [] for w in names}
    attempted = {w: 0 for w in names}
    failed = {w: 0 for w in names}
    environment = None
    for seed in SEEDS:
        for workload in names:
            detail, result = run_once(workload, seed, seconds, 0)
            environment = detail["environment"]
            runs[workload].append({"seed": seed, "passes_s": detail["passes_s"],
                                   "setup_s": detail["setup_s"]})
            attempted[workload] += result["attempted"]
            failed[workload] += result["failed"]
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload:<18} seed {seed:<3} " + "  ".join(
                f"{name} {result['metrics'][name]['value']:.6g}" for name in bounds), flush=True)

    out = {
        "commit": git_sha(),
        "machine": {"cpu": cpu_model(), **environment},
        "env_pins": ENV_PINS,
        "run_seconds": seconds,
        "seeds": [SEEDS[0], SEEDS[-1]],
        "workloads": {},
    }
    for workload in names:
        end_to_end = {name: summarize(values[workload][name], bound) for name, bound in bounds.items()}
        passes = [wall for run in runs[workload] for wall in run["passes_s"]]
        _, traced = run_once(workload, SEEDS[0], seconds, 1)
        _, again = run_once(workload, SEEDS[0], seconds, 1)
        for name in tracing.DETERMINISTIC:
            first, second = traced["metrics"][name]["value"], again["metrics"][name]["value"]
            if first != second:
                raise SystemExit(f"{workload}: {name} is {first} in one traced run "
                                 f"and {second} in another of the same seed")
        out["workloads"][workload] = {
            "attempted": attempted[workload],
            "failed": failed[workload],
            "end_to_end": end_to_end,
            "pass_wall_s": {
                "count": len(passes),
                "median": stats.quartiles(passes)[1],
                f"p{stats.TAIL_LEVEL:g}": stats.tail(passes),
            },
            "runs": runs[workload],
            "per_layer_seed": SEEDS[0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, summary in end_to_end.items():
            flag = "" if summary["steady"] else "  UNSTEADY"
            print(f"{workload:<18} {name:<14} median {summary['median']:<12.6g} "
                  f"spread {summary['spread']:.4f} (bound {summary['bound']}){flag}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
