"""Deterministic sampling of constrained phase points.

All randomness flows from one integer seed through a counter-based
Philox generator; named substreams keep each check's draws independent
of which other checks ran before it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["STREAM_COMMUTATION", "STREAM_INDEPENDENCE", "STREAM_PROBE", "STREAM_SIMULATE",
           "generator", "constrained_point", "constrained_points"]

# Substream ids: the bracket classification points of `verify`, its
# independence rank test, its probe rank tests, and the initial state of
# `simulate`.
STREAM_COMMUTATION = 1
STREAM_INDEPENDENCE = 2
STREAM_PROBE = 3
STREAM_SIMULATE = 4


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for a (seed, substream) pair."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seed=ss))


def constrained_point(rng: np.random.Generator, n: int):
    """One point of the unit cotangent structure: |X| = 1, <X,P> = 0, |P| = 1.

    X is uniform on the sphere; P is a normalized tangential Gaussian.
    """
    d = n + 1
    while True:
        x = rng.standard_normal(d)
        r = np.linalg.norm(x)
        if r > 1e-12:
            x = x / r
            break
    while True:
        p = rng.standard_normal(d)
        p = p - (x @ p) * x
        r = np.linalg.norm(p)
        if r > 1e-12:
            p = p / r
            break
    return x, p


def constrained_points(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Stack of `count` flattened points (X block then P block)."""
    out = np.empty((count, 2 * (n + 1)))
    for k in range(count):
        x, p = constrained_point(rng, n)
        out[k, : n + 1] = x
        out[k, n + 1 :] = p
    return out
