"""Command line front-end.

Four subcommands cover the workflow: `normal-form` puts a skew matrix
into block form, `build` constructs the commuting family for a model,
`verify` runs the full verification pass over a family file, `simulate`
integrates one trajectory and reports conservation drifts.

Exit codes: 0 success, 1 verification or tolerance failure (including
integrator step failures), 2 input error (including files that cannot be
read or written), 3 internal error.  All artifacts are
deterministic for a fixed config and embed their kind, the tool version
and the config, which holds the seed of `verify` and `simulate`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, sampling
from .errors import InputError, StepError
from .exactpoly import parse_rational
from .flow import (
    MAX_ABS_DT,
    MIN_ABS_DT,
    drift_report,
    integrate,
    picture_map,
    project_initial,
    write_csv,
)
from .integral_family import IntegralFamily, commuting_basis
from .magnetic_model import MagneticModel, skew_normal_form
from .verify import run_verification

DEFAULT_DRIFT_TOL = 1e-5


def _parse_alphas(text: str):
    parts = [chunk.strip() for chunk in text.split(",")]
    if not all(parts):
        raise InputError(f"malformed alpha list: {text!r}")
    return tuple(parse_rational(part) for part in parts)


def _artifact(kind: str, args, payload: dict) -> dict:
    """The header of every output, the CSV's '#' line included: its kind,
    the tool version and, as its config, every option the command parsed;
    then the payload."""
    return {"artifact": kind, "version": __version__, "config": vars(args), **payload}


def _write_json(path: str, obj: dict):
    # The text is complete before the file is opened, so a non-finite
    # number leaves no partial artifact.
    text = json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON syntax, bytes that are not UTF-8, or an int
        # beyond the digit limit; RecursionError: nesting too deep.
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _float_array(value, depth: int, bad: str) -> np.ndarray:
    """A JSON list of numbers nested `depth` deep (1 for a vector, 2 for
    a matrix) as a float array; anything else raises InputError(bad).
    JSON true/false and strings such as "1" are not numbers, though numpy
    would convert them, and an integer beyond the float range is no float."""
    def numbers(v, level):
        if level == 0:
            return type(v) in (int, float)
        return isinstance(v, list) and all(numbers(e, level - 1) for e in v)

    if not numbers(value, depth):
        raise InputError(bad)
    try:
        return np.array(value, dtype=float)
    except (OverflowError, ValueError):  # a huge integer, or ragged rows
        raise InputError(bad) from None


def cmd_normal_form(args) -> int:
    infile = vars(args)["in"]
    data = _load_json(infile)
    if not isinstance(data, dict) or "omega" not in data:
        raise InputError(f"{infile} must contain an 'omega' matrix")
    omega = _float_array(data["omega"], 2, f"{infile} does not contain a numeric matrix")
    form = skew_normal_form(omega)
    _write_json(args.out, _artifact("skew-normal-form", args, {"normal_form": form.to_dict()}))
    return 0


def cmd_build(args) -> int:
    alphas = _parse_alphas(args.alpha)
    model = MagneticModel(n=args.n, alphas=alphas)
    family = commuting_basis(model)
    _write_json(args.out, _artifact("integral-family", args, {"family": family.to_dict()}))
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    data = _load_json(args.family)
    payload = data.get("family") if isinstance(data, dict) else None
    if not isinstance(payload, dict):
        raise InputError(f"{args.family} does not contain a family")
    family = IntegralFamily.from_dict(payload)
    report = run_verification(family, samples=args.samples, seed=args.seed)
    _write_json(args.report, _artifact("verification-report", args, {"report": report.to_dict()}))
    status = "PASS" if report.passed else "FAIL"
    print(f"verification {status} (report: {args.report})")
    return 0 if report.passed else 1


def _initial_state(args, model: MagneticModel):
    if args.init is not None:
        data = _load_json(args.init)
        bad = f"{args.init} must contain float arrays 'x' and 'p'"
        x, p = (data.get("x"), data.get("p")) if isinstance(data, dict) else (None, None)
        x, p = _float_array(x, 1, bad), _float_array(p, 1, bad)
        if x.shape != (model.n + 1,) or p.shape != (model.n + 1,):
            raise InputError(f"initial state must have {model.n + 1} components")
        x, p = project_initial(x, p)
        if not args.no_normalize:
            norm = float(np.linalg.norm(p))
            if norm == 0.0:
                raise InputError("initial momentum is zero; cannot normalize")
            p = p / norm
        return x, p
    rng = sampling.generator(args.seed, sampling.STREAM_SIMULATE)
    return sampling.constrained_point(rng, model.n)


def cmd_simulate(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise InputError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    if args.steps < 0:
        raise InputError(f"--steps must be non-negative, got {args.steps}")
    if args.record_every < 1:
        raise InputError(f"--record-every must be at least 1, got {args.record_every}")
    if not MIN_ABS_DT <= abs(args.dt) < MAX_ABS_DT:
        raise InputError(
            f"--dt must satisfy {MIN_ABS_DT:.4g} <= |dt| < {MAX_ABS_DT:.4g}, got {args.dt!r}"
        )
    alphas = _parse_alphas(args.alpha)
    model = MagneticModel(n=args.n, alphas=alphas)
    family = commuting_basis(model)
    x0, p0 = _initial_state(args, model)
    record = integrate(family, x0, p0, dt=args.dt, steps=args.steps,
                       record_every=args.record_every)
    drift = drift_report(record)
    if args.check_picture:
        drift["picture"] = drift_report(picture_map(record))

    csv_path = f"{args.out}.csv"
    write_csv(record, csv_path, _artifact("trajectory", args, {}))
    drift_path = f"{args.out}.drift.json"
    rel_drifts = [entry["max_rel_drift"] for entry in drift["series"].values()]
    if args.check_picture:
        rel_drifts += [entry["max_rel_drift"] for entry in drift["picture"]["series"].values()]
    passed = all(d <= args.tol for d in rel_drifts)
    _write_json(drift_path, _artifact("drift-report", args, {
        "drift": drift,
        "passed": passed,
    }))
    status = "PASS" if passed else "FAIL"
    print(f"simulate {status} (max relative drift {max(rel_drifts):.3e}, tol {args.tol:g})")
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each `parse_args`
    makes a fresh namespace, so calls of `main` share no values."""
    parser = argparse.ArgumentParser(
        prog="magneflow",
        description="Commuting integrals and constrained integration for "
        "magnetic geodesic flow on the sphere.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    nf = sub.add_parser("normal-form", help="block-diagonalize a skew matrix")
    nf.add_argument("--in", required=True, metavar="FILE")
    nf.add_argument("--out", required=True, metavar="FILE")

    build = sub.add_parser("build", help="construct the commuting family")
    build.add_argument("--n", type=int, required=True)
    build.add_argument("--alpha", required=True, metavar="CSV",
                       help="comma-separated exact fractions, one per plane")
    build.add_argument("--out", required=True, metavar="FILE")

    verify = sub.add_parser("verify", help="verify a family file")
    verify.add_argument("--family", required=True, metavar="FILE")
    verify.add_argument("--samples", type=int, default=100,
                        help="most rational points the independence certificate tries (>= 1)")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed of the certificate's rational points (>= 0)")
    verify.add_argument("--report", required=True, metavar="FILE")

    sim = sub.add_parser("simulate", help="integrate one trajectory")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--alpha", required=True, metavar="CSV")
    sim.add_argument("--dt", type=float, required=True)
    sim.add_argument("--steps", type=int, required=True)
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--init", metavar="FILE",
                       help="JSON file with initial 'x' and 'p' arrays")
    group.add_argument("--seed", type=int, default=0)
    sim.add_argument("--record-every", type=int, default=1)
    sim.add_argument("--tol", type=float, default=DEFAULT_DRIFT_TOL)
    sim.add_argument("--check-picture", action="store_true",
                     help="also check kinetic-energy conservation in the shifted picture")
    sim.add_argument("--no-normalize", action="store_true",
                     help="keep the momentum scale of --init instead of |P|=1")
    sim.add_argument("--out", required=True, metavar="PREFIX",
                     help="output prefix; writes PREFIX.csv and PREFIX.drift.json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep its code.
        return int(exc.code or 0)
    # The handler is looked up at call time, not bound into the cached
    # parser, so a wrapper set on a module's cmd_* function is called.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # Every bad input raises InputError, so anything else is a defect:
        # keep its traceback for the report.  Imported here, because a
        # module-level import adds about 0.15 MB to every run's peak RSS.
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
