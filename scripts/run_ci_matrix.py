"""Run the full verification pass over the standard model matrix.

Prints one row per model with the commutation statuses, the certified
rank mod 2^61-1 over the expected rank, the membership flag, and the
wall time.

Usage: python3 scripts/run_ci_matrix.py [--samples N] [--seed S]

Exits 0 when every model verifies, 1 when one fails, and 2 with one
"error:" line on bad input.
"""

import argparse
import sys
import time
from fractions import Fraction

from magneflow import InputError, MagneticModel, commuting_basis, run_verification

MATRIX = (
    (2, "1"),
    (3, "1,2"),
    (3, "1,1"),
    (4, "1,2"),
    (4, "1,1"),
    (5, "1,2,3"),
    (5, "1,1,2"),
    (5, "1,1,1"),
    (6, "1,1,1"),
    (7, "1,2,3,4"),
    (7, "1,1,2,2"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    try:
        return run_matrix(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_matrix(args) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    print(f"{'model':<16} {'pairs':>5} {'exact':>5} {'rank':>6} "
          f"{'member':>6} {'probe':>5} {'time':>8}")
    failures = 0
    for n, alpha in MATRIX:
        alphas = tuple(Fraction(a) for a in alpha.split(","))
        model = MagneticModel(n=n, alphas=alphas)
        family = commuting_basis(model)
        start = time.perf_counter()
        report = run_verification(family, samples=args.samples, seed=args.seed)
        elapsed = time.perf_counter() - start
        exact = sum(p.status == "zero_polynomial" for p in report.pair_results)
        label = f"({n},({alpha}))"
        independence = report.independence
        rank = f"{independence.ranks[-1]}/{independence.expected_rank}"
        print(f"{label:<16} {len(report.pair_results):>5} {exact:>5} "
              f"{rank:>6} "
              f"{str(report.membership.ok):>6} {len(report.probe_results):>5} "
              f"{elapsed:>7.2f}s")
        if not report.passed:
            failures += 1
    if failures:
        print(f"{failures} model(s) failed verification")
        return 1
    print("all models verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
