"""Output checks: one list of problems per CLI command, empty when it passed.

A command fails on a nonzero exit or on any of these:
- normal-form: rates off the generated ones, or a large reconstruction residual;
- build: a family without n members;
- verify: `passed: false`, a pair that is not `zero_polynomial`, a
  membership that is not `ok`, or exact fields that differ from
  reference.json (taken at the seed commit);
- simulate: `passed: false` in the drift report, a `max_rel_drift` more
  than DRIFT_TOL above the one in reference.json, or a CSV without one
  row per step.
"""

from __future__ import annotations

import json

RATE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
# Relative headroom over the seed commit's drift.  The drift differs across
# seeds only in its seventh digit, so this blocks trading accuracy for speed.
DRIFT_TOL = 0.05


def exact_fields(report: dict) -> dict:
    """The parts of a verification report that exact arithmetic fixes:
    pair statuses, membership coefficients, the probe's commutation flags
    and which probe candidates are additional integrals."""
    probes = report["probe_results"]
    membership = report["membership"]
    return {
        "pairs": [[p["left"], p["right"], p["status"]] for p in report["pair_results"]],
        "membership": membership["coefficients"] if membership["ok"] else None,
        "probe": [
            [p["label"], p["commutes_with_hamiltonian"], p["commutes_with_indicator_quads"]]
            for p in probes
        ],
        "additional_integrals": [p["label"] for p in probes if p["is_additional_integral"]],
    }


def max_rel_drift(drift_artifact: dict) -> float:
    """Largest max_rel_drift over every series, picture series included."""
    drift = drift_artifact["drift"]
    series = list(drift["series"].values())
    if "picture" in drift:
        series += drift["picture"]["series"].values()
    return max(entry["max_rel_drift"] for entry in series)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_normal_form(command, reference) -> list:
    form = _load(command.outputs[0])["normal_form"]
    want = command.expect["alphas"]
    problems = []
    if len(form["alphas"]) != len(want) or any(
        abs(got - rate) > RATE_TOL * rate for got, rate in zip(form["alphas"], want)
    ):
        problems.append(f"rates {form['alphas']} differ from {want}")
    if not form["residual"] <= RESIDUAL_TOL * max(want):
        problems.append(f"reconstruction residual {form['residual']:.3e}")
    return problems


def _check_build(command, reference) -> list:
    family = _load(command.outputs[0])["family"]
    members = len(family["integrals"])
    want = command.expect["members"]
    return [] if members == want else [f"family has {members} members, expected {want}"]


def _check_verify(command, reference) -> list:
    report = _load(command.outputs[0])["report"]
    problems = []
    if report["passed"] is not True:
        problems.append("report says passed: false")
    for pair in report["pair_results"]:
        if pair["status"] != "zero_polynomial":
            problems.append(f"pair {pair['left']},{pair['right']} is {pair['status']}")
    if report["membership"]["ok"] is not True:
        problems.append("membership is not ok")
    key = command.expect["model"]
    want = reference["models"].get(key)
    if want is None:
        problems.append(f"no reference for model {key}")
    else:
        got = exact_fields(report)
        problems += [f"exact field {name} differs from the reference"
                     for name in want if got[name] != want[name]]
    return problems


def _check_simulate(command, reference) -> list:
    csv_path, drift_path = command.outputs
    problems = []
    drift = _load(drift_path)
    if drift["passed"] is not True:
        problems.append("drift report says passed: false")
    key = command.expect["model"]
    want = reference["max_rel_drift"].get(key)
    if want is None:
        problems.append(f"no reference drift for model {key}")
    elif not max_rel_drift(drift) <= want * (1 + DRIFT_TOL):
        problems.append(f"max_rel_drift {max_rel_drift(drift):.6e} exceeds the reference "
                        f"{want:.6e} by more than {DRIFT_TOL:.0%}")
    with open(csv_path, "rb") as fh:
        rows = fh.read().count(b"\n") - 2
    if rows != command.expect["rows"]:
        problems.append(f"CSV has {rows} rows, expected {command.expect['rows']}")
    return problems


_CHECKS = {
    "normal-form": _check_normal_form,
    "build": _check_build,
    "verify": _check_verify,
    "simulate": _check_simulate,
}


def check_command(command, exit_code: int, reference: dict) -> list:
    """Problems with one finished command; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _CHECKS[command.kind](command, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
