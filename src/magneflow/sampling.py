"""Deterministic sampling of constrained phase points.

All randomness flows from one integer seed through a counter-based
Philox generator; named substreams keep each draw independent of which
other draws ran before it.  `verify` draws only exact `rational_point`s.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["STREAM_INDEPENDENCE", "STREAM_SIMULATE",
           "generator", "constrained_point", "constrained_points", "rational_point"]

# Substream ids, fixed because reports and orbits depend on them: the
# rational points of `verify`'s independence certificate (shared by the
# probe) and the initial state of `simulate`.
STREAM_INDEPENDENCE = 2
STREAM_SIMULATE = 4

# The denominator of the seeded coordinates in `rational_point`.
RATIONAL_GRID = 1 << 16


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


def rational_point(rng: np.random.Generator, n: int) -> tuple:
    """One rational point (X, P) of the constraint set, as Fraction lists.

    X = (2u, |u|^2 - 1) / (|u|^2 + 1) is the inverse stereographic
    projection of u in Q^n, and P = q - <q,X> X for q in Q^(n+1), so
    |X|^2 = 1 and <X,P> = 0 hold exactly.  u and q lie on the grid of
    multiples of 1/RATIONAL_GRID in [-1, 1].
    """
    grid = rng.integers(-RATIONAL_GRID, RATIONAL_GRID, size=2 * n + 1, endpoint=True)
    u = [Fraction(int(a), RATIONAL_GRID) for a in grid[:n]]
    q = [Fraction(int(a), RATIONAL_GRID) for a in grid[n:]]
    norm2 = sum(v * v for v in u)
    x = [2 * v / (norm2 + 1) for v in u] + [(norm2 - 1) / (norm2 + 1)]
    qx = sum(a * b for a, b in zip(q, x))
    return x, [a - qx * b for a, b in zip(q, x)]
