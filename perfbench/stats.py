"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

TAIL_LEVEL = 75.0
MIN_BEYOND = 10


def _rank(count: int, level: float) -> int:
    """1-based nearest rank of the `level` percentile among `count` samples."""
    return max(1, math.ceil(round(level * count / 100.0, 9)))


def percentile(values, level: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), level) - 1]


def tail(values) -> float | None:
    """The TAIL_LEVEL percentile of `values`, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    if len(values) - _rank(len(values), TAIL_LEVEL) < MIN_BEYOND:
        return None
    return percentile(values, TAIL_LEVEL)


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them; a single value
    is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf
