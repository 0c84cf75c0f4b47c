"""Seeded inputs and command lists of the benchmark workloads.

The seed drives every generated input: the normal-form matrices, the `--init`
states and `verify --seed`.

The `--init` states are a fixed orbit turned by seeded angles inside each
coordinate plane.  Those rotations are symmetries of the model and of the
integrator, so the seed moves the orbit's phase but not its shape, and
`max_rel_drift` stays comparable across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLES = "100"
DT = "1e-3"

# The model matrix of scripts/run_ci_matrix.py, copied so that the
# benchmark does not change when the script does.
CI_MATRIX = (
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
NORMAL_FORM_NS = (7, 11, 15, 21)


def distinct_alpha(n: int) -> str:
    """The rates 1, 2, ..., m of the n-sphere, one per plane."""
    return ",".join(str(k) for k in range(1, (n + 1) // 2 + 1))


# (7, 1,2,3,4) of the CI matrix is the smallest distinct-rate model; 11 and
# 15 add the larger ones, whose exact brackets outweigh their probe.
VERIFY_MODELS = CI_MATRIX + ((9, "1,1,1,1,1"), (11, distinct_alpha(11)), (15, distinct_alpha(15)))

LONG_MODEL = (4, "1,2")
LONG_STEPS = 100_000
LONG_ORBIT = ((0.5, 0.3, -0.4, 0.6, 0.37), (0.1, 0.7, 0.5, -0.2, 0.4))

_STREAM_MATRIX = 1
_STREAM_ORBIT = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the files it writes and what its check expects."""

    argv: tuple
    outputs: tuple
    expect: dict

    @property
    def kind(self) -> str:
        return self.argv[0]


def model_key(n: int, alpha: str) -> str:
    return f"{n}|{alpha}"


def _rng(seed: int, stream: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, tag])


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj) + "\n")


def skew_matrix(rng: np.random.Generator, d: int, rates) -> np.ndarray:
    """Q B Q^T for a random orthogonal Q and the plane-block matrix B of `rates`."""
    block = np.zeros((d, d))
    for k, rate in enumerate(rates):
        block[2 * k, 2 * k + 1] = rate
        block[2 * k + 1, 2 * k] = -rate
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    omega = q @ block @ q.T
    return 0.5 * (omega - omega.T)


def orbit_state(rng: np.random.Generator, orbit) -> tuple:
    """The base state of `orbit` on the unit cotangent set, turned by a
    random angle in every coordinate plane (2i-1, 2i)."""
    x = np.array(orbit[0], dtype=float)
    x /= np.linalg.norm(x)
    p = np.array(orbit[1], dtype=float)
    p -= (x @ p) * x
    p /= np.linalg.norm(p)
    for k in range(x.size // 2):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(phi), math.sin(phi)
        for vec in (x, p):
            u, v = vec[2 * k], vec[2 * k + 1]
            vec[2 * k], vec[2 * k + 1] = c * u - s * v, s * u + c * v
    return x, p


def _normal_form(workdir: Path, seed: int, n: int, tag: str) -> Command:
    m = (n + 1) // 2
    rates = list(range(1, m + 1))
    omega = skew_matrix(_rng(seed, _STREAM_MATRIX, n), n + 1, rates)
    src, out = workdir / f"{tag}.omega.json", workdir / f"{tag}.form.json"
    _write_json(src, {"omega": omega.tolist()})
    return Command(
        ("normal-form", "--in", str(src), "--out", str(out)),
        (str(out),),
        {"alphas": sorted(rates, reverse=True)},
    )


def _build_verify(workdir: Path, seed: int, n: int, alpha: str, tag: str) -> list:
    family, report = workdir / f"{tag}.family.json", workdir / f"{tag}.report.json"
    return [
        Command(
            ("build", "--n", str(n), "--alpha", alpha, "--out", str(family)),
            (str(family),),
            {"members": n},
        ),
        Command(
            ("verify", "--family", str(family), "--samples", SAMPLES,
             "--seed", str(seed), "--report", str(report)),
            (str(report),),
            {"model": model_key(n, alpha)},
        ),
    ]


def _simulate(workdir: Path, seed: int, model, orbit, steps: int, tag: str) -> Command:
    n, alpha = model
    x, p = orbit_state(_rng(seed, _STREAM_ORBIT, n), orbit)
    init, prefix = workdir / f"{tag}.init.json", workdir / tag
    _write_json(init, {"x": x.tolist(), "p": p.tolist()})
    return Command(
        ("simulate", "--n", str(n), "--alpha", alpha, "--dt", DT, "--steps", str(steps),
         "--init", str(init), "--check-picture", "--out", str(prefix)),
        (f"{prefix}.csv", f"{prefix}.drift.json"),
        {"rows": steps + 1, "model": model_key(n, alpha)},
    )


def prepare(workload: str, seed: int, workdir: Path) -> list:
    """Write the seeded inputs of `workload` into `workdir` and return its
    commands in run order.  The commands name their files as `workdir`
    joined with a fixed file name, so a relative `workdir` keeps every
    path, and with it the CSV metadata line, the same from run to run."""
    commands = []
    if workload == "verify":
        for n in NORMAL_FORM_NS:
            commands.append(_normal_form(workdir, seed, n, f"n{n}"))
        for n, alpha in VERIFY_MODELS:
            commands += _build_verify(workdir, seed, n, alpha, f"n{n}-{alpha.replace(',', '_')}")
    elif workload == "simulate-long":
        commands.append(_simulate(workdir, seed, LONG_MODEL, LONG_ORBIT, LONG_STEPS, "long"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return commands
