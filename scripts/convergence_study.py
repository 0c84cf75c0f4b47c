"""Energy-drift convergence of the constrained splitting integrator.

Integrates one orbit of a fixed model over a fixed time window at a
ladder of step sizes and prints the maximum energy drift per step
size together with the observed convergence order between
consecutive rungs (expected close to 2).

Usage: python3 scripts/convergence_study.py [--n N] [--alpha CSV]
       [--time T] [--seed S]

Exits 0 when the drift falls monotonically, 1 when it does not, and 2
with one "error:" line on bad input.
"""

import argparse
import math
import sys

from magneflow import (
    InputError,
    MagneticModel,
    commuting_basis,
    drift_report,
    integrate,
    parse_rational,
)
from magneflow import sampling

DT_LADDER = (1e-2, 1e-3, 1e-4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--alpha", default="1")
    parser.add_argument("--time", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    try:
        return study(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def study(args) -> int:
    coarsest = DT_LADDER[0]
    if not (math.isfinite(args.time) and round(args.time / coarsest) >= 1):
        raise InputError(f"--time must give at least one step of {coarsest:g}, got {args.time!r}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    alphas = tuple(parse_rational(a) for a in args.alpha.split(","))
    model = MagneticModel(n=args.n, alphas=alphas)
    family = commuting_basis(model)
    rng = sampling.generator(args.seed, sampling.STREAM_SIMULATE)
    x0, p0 = sampling.constrained_point(rng, args.n)

    print(f"model ({args.n},({args.alpha})), T={args.time:g}, seed={args.seed}")
    print(f"{'dt':>8} {'steps':>8} {'max |dH|':>12} {'order':>7}")
    drifts = []
    for dt in DT_LADDER:
        steps = round(args.time / dt)
        record = integrate(model, x0, p0, dt=dt, steps=steps,
                           record_every=max(1, steps // 1000), family=family)
        drift = drift_report(record)["series"]["H"]["max_abs_drift"]
        order = ""
        if drifts:
            prev_dt, prev = drifts[-1]
            order = f"{math.log(prev / drift) / math.log(prev_dt / dt):7.3f}"
        print(f"{dt:>8g} {steps:>8} {drift:>12.3e} {order:>7}")
        drifts.append((dt, drift))

    monotone = all(a[1] > b[1] for a, b in zip(drifts, drifts[1:]))
    print("drift decreases monotonically" if monotone else "drift is NOT monotone")
    return 0 if monotone else 1


if __name__ == "__main__":
    sys.exit(main())
