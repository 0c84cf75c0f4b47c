"""Constrained symplectic integration of the perturbed flow on the sphere.

One step is a Strang splitting

    rotate(dt/2) . rattle(dt) . rotate(dt/2)

where `rotate` is the exact flow of the rotational part (each coordinate
plane turns by an angle proportional to its strength parameter) and
`rattle` is the classical two-multiplier step for the kinetic-plus-
potential part subject to |X| = 1 and <X, P> = 0.  The composition is
symmetric, so it is time reversible and second order, and both
constraints are enforced at every step rather than drifting.

The potential, the kinetic term and both constraints are invariant under
the plane turns, so rattle commutes with rotate: a step equals
rotate(dt) . rattle(dt), and k steps equal rotate(k dt) . rattle(dt)^k
(the equivariance of symmetric splittings, Hairer, Lubich and Wanner,
Geometric Numerical Integration, ch. IV).  The integrator uses exactly
that.  Its RATTLE steps work on Python floats, one operation at a time in
a fixed order: at d = 5 a numpy step spends nearly all its time in
per-call overhead, and its `@` dot products round as the BLAS kernel
chosen at run time does (an FMA chain on some CPUs, a plain sum on
others); the scalar steps do not depend on the BLAS build.  For each
(potential, dt) they are generated as one function on local floats that
loops over steps itself: its body is straight-line code, with the
constants of dt folded per coordinate and written as literals, and it is
compiled once.  `integrate` runs the RATTLE steps of a whole orbit in one
call of it, packs the rows it yields into one block of doubles, and then
turns each recorded row once, by the angle of its step, with numpy.
`step` runs one kernel step and the turn of one step.  At d = 5,
recording every step, a step takes about 2.5 us inside `integrate`; a
loop of `step` calls takes about 40 us per step, most of it numpy's
per-call cost of the turn (Python 3.11, one core).

The diagnostics of a record (the family members and H, and H_kin in the
picture) and its constraint residuals (the polynomials |X|^2 - 1 and
<X, P>, see `_residual_polys`) come from `compiled_evaluator`, and the
picture's momentum shift from `sigma_sharp`.  Each value is elementwise
products and sums over its own row in a fixed order, so it depends on no
other row, on no block size and on no BLAS kernel, and a loop over
Python floats in the same order gives its bits.  A series with a value
that is not finite raises InputError, so no artifact reports NaN.

`write_csv` prints every number as `%.17g` does, byte for byte, but with
numpy instead of one `%` per value.  The 17 digits of a value come from
Dekker's exact product with 10**K held as a double-double (Loitsch's
method), and the text from lookup tables.  A value whose rounding the
double-double cannot settle (non-finite, |v| outside 1e-280..1e280, a
remainder within 2**-30 of a tie, a misjudged decimal exponent) goes to
`%` itself; on a typical orbit there are none.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputError, StepError
from .exactpoly import _from_monomials, _unit, compiled_evaluator
from .integral_family import IntegralFamily
from .magnetic_model import (
    MagneticModel,
    _x_square_terms,
    gauge_shift,
    hamiltonian_pert,
    kinetic_energy,
)

__all__ = [
    "project_initial",
    "step",
    "TrajectoryRecord",
    "integrate",
    "picture_map",
    "drift_report",
    "write_csv",
]

INITIAL_TOLERANCE = 1e-6
# RATTLE's constraint quadratic has the coefficient dt**4, which overflows
# from MAX_ABS_DT on.  Its constant term |w|^2 - 1 carries about one
# rounding unit eps of error, and the multiplier divides it by dt**2, so
# the half-step momentum gets a radial error of about eps/dt.  The
# tangency projection removes that to a relative eps, which leaves an
# error of about eps**2/dt: one rounding unit at MIN_ABS_DT = eps, and
# noise of order one at dt = 1e-32.
MAX_ABS_DT = sys.float_info.max ** 0.25
MIN_ABS_DT = sys.float_info.epsilon
CSV_FORMAT = "%.17g"
# Rows formatted at a time by write_csv; its scratch arrays peak at about
# 500 bytes per value.
CSV_CHUNK_ROWS = 256


def project_initial(x, p):
    """Snap an almost-admissible initial state onto the constraint set.

    Non-finite states, states whose |x|^2 or |p|^2 overflows, and states
    further than 1e-6 from the sphere or from tangency, are rejected as
    input errors instead of silently repaired.
    """
    x = np.array(x, dtype=float)
    p = np.array(p, dtype=float)
    if x.shape != p.shape or x.ndim != 1:
        raise InputError("initial state must be two vectors of equal length")
    with np.errstate(over="ignore", invalid="ignore"):
        squares = (float(x @ x), float(p @ p))
    if not all(math.isfinite(s) for s in squares):
        raise InputError("initial state must be finite, with finite |x|^2 and |p|^2")
    norm = np.linalg.norm(x)
    if abs(norm - 1.0) > INITIAL_TOLERANCE:
        raise InputError(f"initial position is off the sphere by {abs(norm - 1.0):.3e}")
    x = x / norm
    radial = float(x @ p)
    if abs(radial) > INITIAL_TOLERANCE * max(1.0, float(np.linalg.norm(p))):
        raise InputError(f"initial momentum has radial component {radial:.3e}")
    p = p - radial * x
    return x, p


def _literal(v: float) -> str:
    """Source text of a float constant, exact for every value."""
    return f"({v!r})" if math.isfinite(v) else f"float({str(v)!r})"


@functools.lru_cache(maxsize=16)
def _step_kernel(two_a_floats: tuple, dt: float):
    """RATTLE steps of size dt for these potential coefficients, as one
    generated function kernel(x, p, steps, every) on local Python floats.

    The kernel is a generator.  It unpacks x and p once, runs steps
    1..steps, and yields the row (k * dt, x0.., p0..) after each step k
    with k % every == 0 or k == steps, so the last row is the final
    state.  A failed step raises StepError(message, k).  The body of a
    step is straight-line code, generated once per key, and turns no
    plane: see `_turn_rows`.  Every constant that depends only on the
    coefficients and dt is computed here and written as an exact
    literal, folded per coordinate: with a = two_a / 2,

        w = (1 - dt*dt*a) * x + dt * p
        y = w - dt*dt*lam * x
        q = p - (dt*a + dt*lam) * x - dt*a * y
        p' = q - (<y, q> / <y, y>) * y

    and zero-coefficient coordinates drop their zero terms.  Each dot
    product is one expression, summed left to right.
    """
    d = len(two_a_floats)
    dt_ = _literal(dt)

    def names(u):
        return ", ".join(f"{u}{k}" for k in range(d))

    def dot(name, u, v):
        return f"{name} = " + " + ".join(f"{u}{k} * {v}{k}" for k in range(d))

    halves = [0.5 * two_a for two_a in two_a_floats]
    body = [
        f"w{k} = x{k} + {dt_} * p{k}" if a == 0.0
        else f"w{k} = {_literal(1.0 - dt * dt * a)} * x{k} + {dt_} * p{k}"
        for k, a in enumerate(halves)
    ]
    body += [
        dot("wx", "w", "x"),
        dot("ww", "w", "w"),
        f"b = {_literal(-2.0 * dt * dt)} * wx",
        "defect = ww - 1.0",
        f"disc = b * b - {_literal(4.0 * dt ** 4)} * defect",
        "if not disc >= 0.0:  # also catches a NaN from overflow",
        f"    raise StepError({f'constraint projection lost the sphere (dt={dt:g})'!r}, k)",
        "lam = 0.0 if defect == 0.0 else 2.0 * defect / (-b + sqrt(disc))",
        f"shift = {_literal(dt * dt)} * lam",
        f"dt_lam = {dt_} * lam",
    ]
    for k, a in enumerate(halves):
        body.append(f"y{k} = w{k} - shift * x{k}")
        if a == 0.0:
            body.append(f"q{k} = p{k} - dt_lam * x{k}")
        else:
            dt_a = _literal(dt * a)
            body.append(f"q{k} = p{k} - ({dt_a} + dt_lam) * x{k} - {dt_a} * y{k}")
    body += [dot("yq", "y", "q"), dot("yy", "y", "y"), "mu = yq / yy"]
    body += [f"p{k} = q{k} - mu * y{k}" for k in range(d)]
    body += [
        f"{names('x')} = {names('y')}",
        "if k % every == 0 or k == steps:",
        f"    yield (k * {dt_}, {names('x')}, {names('p')})",
    ]
    lines = [
        "def kernel(x, p, steps, every):",
        f"    {names('x')} = map(float, x)",
        f"    {names('p')} = map(float, p)",
        "    for k in range(1, steps + 1):",
        *(f"        {line}" for line in body),
    ]
    namespace = {"StepError": StepError, "sqrt": math.sqrt}
    exec(compile("\n".join(lines) + "\n", f"<flow step kernel, d={d}>", "exec"), namespace)
    return namespace["kernel"]


def _turn_rows(xs, ps, ks, alpha_floats: tuple, dt: float):
    """Turn the rows of xs and ps in place by the rotational flow of
    ks[r] steps: plane i of row r turns by -phi, phi = ks[r] * alpha_i * dt / 2,

        (u, v) -> (c*u + s*v, c*v - s*u),  c = cos(phi), s = sin(phi),

    alike for positions and momenta.  Zero-rate planes and the unpaired
    last coordinate are left as they are.  The temporaries are those of
    one plane at a time.
    """
    for i, alpha in enumerate(alpha_floats):
        if alpha == 0.0:
            continue
        phi = ks * (0.5 * alpha * dt)
        c, s = np.cos(phi), np.sin(phi)
        del phi
        for vec in (xs, ps):
            u, v = vec[:, 2 * i], vec[:, 2 * i + 1]
            turned = c * u
            turned += s * v
            v *= c
            v -= s * u
            u[...] = turned


def step(x, p, model: MagneticModel, dt: float):
    """One full symmetric step of size dt (dt may be negative).

    x and p are sequences of d = n + 1 numbers; the new state comes back
    as two lists of Python floats.  The step is the Strang splitting

        rotate(dt/2) . rattle(dt) . rotate(dt/2)

    where rotate(tau) turns plane i by -alpha_i * tau / 2, alike for
    positions and momenta, and rattle(dt) is one RATTLE step for
    0.5|P|^2 + U(X), with the gradient 2a*X, on the unit cotangent set.
    The position multiplier solves a scalar quadratic through its
    subtraction-free root, so it stays O(dt^0) accurate.  A negative
    discriminant means the step cannot reach the sphere and is reported
    as a StepError.

    U, the kinetic term and both constraints are invariant under the
    plane turns, so rattle commutes with rotate and the step equals
    rotate(dt) . rattle(dt): one step of the kernel of (potential, dt),
    see `_step_kernel`, then `_turn_rows` with one step.  It is the last
    row of `integrate` with steps=1, bit for bit; a loop of `step` calls
    turns at every step and agrees with `integrate` to rounding only.
    """
    d = model.n + 1
    if len(x) != d or len(p) != d:
        raise InputError(f"state vectors have lengths {len(x)} and {len(p)}, model needs {d}")
    if dt == 0.0:
        return list(map(float, x)), list(map(float, p))
    kernel = _step_kernel(model.two_a_floats, float(dt))
    try:
        row = next(kernel(x, p, 1, 1))  # (t, x, p) after the step
    except StepError as exc:
        raise StepError(exc.args[0]) from None
    xs, ps = np.array([row[1 : d + 1]]), np.array([row[d + 1 :]])
    _turn_rows(xs, ps, np.ones(1), model.alpha_floats, float(dt))
    return xs[0].tolist(), ps[0].tolist()


@dataclass
class TrajectoryRecord:
    """Recorded states and diagnostics of one integration run.

    family is the family the run was integrated with, and so carries the
    model whose flow the states follow.  xs and ps have one row per
    recorded state; diagnostics maps a label to the series of that
    quantity along the recorded states, in a fixed insertion order that
    the CSV writer reuses.
    """
    family: IntegralFamily
    times: np.ndarray
    xs: np.ndarray
    ps: np.ndarray
    diagnostics: dict
    sphere_residual: np.ndarray
    tangency_residual: np.ndarray


def _diagnostic_polys(family: IntegralFamily) -> list:
    """(label, polynomial) of every diagnostic: the members, then H."""
    return [*zip(family.labels(), family.members()), ("H", hamiltonian_pert(family.model))]


def _residual_polys(n: int) -> tuple:
    """The constraint residuals c1 = |X|^2 - 1, with the terms X1^2 ..
    X{n+1}^2 and then -1, and c2 = <X, P>, with the terms X1P1 ..
    X{n+1}P{n+1}: `compiled_evaluator` adds them in that order."""
    width = 2 * (n + 1)
    sphere = _x_square_terms(n, [1] * (n + 1)) + [(0, -1, 1)]
    tangency = [(_unit(width, k) + _unit(width, n + 1 + k), 1, 1) for k in range(n + 1)]
    return _from_monomials(n, sphere), _from_monomials(n, tangency)


def _series(label: str, poly, states: np.ndarray) -> np.ndarray:
    """poly along the rows of states.  The states are finite, so a value
    that is not is an overflow of double precision: it raises InputError
    naming the series, before any artifact is written, and numpy prints
    no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = compiled_evaluator(poly)(states)
    if not np.isfinite(values).all():
        raise InputError(
            f"the {label} series is not finite along the orbit: "
            "the state overflows double precision"
        )
    return values


def integrate(
    family: IntegralFamily, x0, p0, dt: float, steps: int, record_every: int = 1
) -> TrajectoryRecord:
    """Integrate the flow of family.model from (x0, p0) and evaluate its
    conserved quantities.

    The initial state is projected (within tolerance) before the run.
    The RATTLE steps of the whole run are one call of the kernel of
    (potential, dt), see `_step_kernel`.  The rows of step 0, of every
    record_every-th step and of the last step fill one (rows, 1 + 2d)
    block of doubles, allocated once, from which the record's times, xs
    and ps are copied; a block that cannot be allocated raises
    InputError.  Then each recorded row of step k > 0 is turned once by
    the rotational flow of k steps (`_turn_rows`): the step
    rotate(dt/2) . rattle . rotate(dt/2) equals rotate(dt) . rattle, and
    k of them equal rotate(k dt) . rattle^k, because rattle commutes with
    the plane turns.  So row k has the bits of the last row of a run with
    steps=k.  Row 0 is not turned.  A failed step k raises StepError
    with the prefix "step k: ".  Every member of the family is evaluated
    along the recorded states, then the Hamiltonian and the constraint
    residuals; a series with a value that is not finite raises
    InputError (see `_series`).  The record carries the family.
    """
    if not (isinstance(steps, int) and steps >= 0):
        raise InputError(f"steps must be a nonnegative integer, got {steps!r}")
    if not MIN_ABS_DT <= abs(dt) < MAX_ABS_DT:
        raise InputError(
            f"dt must satisfy {MIN_ABS_DT:.4g} <= |dt| < {MAX_ABS_DT:.4g}, got {dt!r}"
        )
    if not (isinstance(record_every, int) and record_every >= 1):
        raise InputError(f"record_every must be a positive integer, got {record_every!r}")

    model = family.model
    x, p = project_initial(x0, p0)
    if x.size != model.n + 1:
        raise InputError(
            f"state has dimension {x.size}, model needs {model.n + 1}"
        )

    d = x.size
    x, p = x.tolist(), p.tolist()
    kernel = _step_kernel(model.two_a_floats, float(dt))
    rows = chain([(0.0, *x, *p)], kernel(x, p, steps, record_every))
    count = steps // record_every + 1 + (steps % record_every != 0)
    too_long = InputError(
        f"a record of {count} rows does not fit in memory; "
        "lower --steps or raise --record-every"
    )
    if count * (1 + 2 * d) > sys.maxsize // 8:  # more bytes than any address space
        raise too_long
    try:
        # One allocation of the final size, filled in C; appending each row
        # to an array("d") took about 1.6 times as long.
        values = np.fromiter(chain.from_iterable(rows), float, count * (1 + 2 * d))
    except StepError as exc:
        message, k = exc.args
        raise StepError(f"step {k}: {message}") from None
    except MemoryError:
        raise too_long from None
    # Rows (t, x, p), copied out before the evaluator's states are stacked.
    # Views of the block would spare two copies, but over repeated
    # simulate-long commands in one process they raised the peak RSS from
    # 75 to 88 MB: glibc then kept more of the freed heap resident.
    block = values.reshape(count, 1 + 2 * d)
    times, xs, ps = (
        np.ascontiguousarray(a) for a in (block[:, 0], block[:, 1 : 1 + d], block[:, 1 + d :])
    )
    del values, block
    steps_of_rows = np.minimum(np.arange(1.0, count) * record_every, steps)
    _turn_rows(xs[1:], ps[1:], steps_of_rows, model.alpha_floats, float(dt))
    del steps_of_rows
    states = np.hstack([xs, ps])

    diagnostics = {label: _series(label, poly, states)
                   for label, poly in _diagnostic_polys(family)}
    sphere, tangency = (_series(label, poly, states)
                        for label, poly in zip(("c1", "c2"), _residual_polys(model.n)))
    return TrajectoryRecord(family, times, xs, ps, diagnostics, sphere, tangency)


def picture_map(record: TrajectoryRecord) -> TrajectoryRecord:
    """Transport a recorded trajectory to the plain-kinetic picture of the
    model it was integrated under, record.family.model.

    Each state gets the momentum shift p -> p + sigma#(x); in the image
    picture the relevant conserved quantity is the kinetic energy alone,
    reported as the single diagnostic series H_kin.  Conservation of that
    series is the dynamical form of the equivalence between the two
    descriptions of the flow.  The shift leaves X as it is, so the image
    shares the record's family, times, positions and sphere residual arrays.
    """
    model = record.family.model
    shifted_p = gauge_shift(record.xs, record.ps, model)
    states = np.hstack([record.xs, shifted_p])
    h_kin = _series("H_kin", kinetic_energy(model.n), states)
    tangency = _series("picture c2", _residual_polys(model.n)[1], states)
    return TrajectoryRecord(
        family=record.family,
        times=record.times,
        xs=record.xs,
        ps=shifted_p,
        diagnostics={"H_kin": h_kin},
        sphere_residual=record.sphere_residual,
        tangency_residual=tangency,
    )


def drift_report(record: TrajectoryRecord) -> dict:
    """Drift of every diagnostic series relative to its initial value,
    plus worst-case constraint residuals."""
    out: dict = {"series": {}, "constraints": {}}
    for label, series in record.diagnostics.items():
        base = float(series[0])
        drift = np.abs(series - base)
        scale = max(abs(base), 1.0)
        out["series"][label] = {
            "initial": base,
            "max_abs_drift": float(drift.max()),
            "max_rel_drift": float(drift.max() / scale),
            "final_drift": float(abs(float(series[-1]) - base)),
        }
    out["constraints"] = {
        "max_sphere_residual": float(np.abs(record.sphere_residual).max()),
        "max_tangency_residual": float(np.abs(record.tangency_residual).max()),
    }
    return out


# -- CSV text ------------------------------------------------------------------
#
# _csv_bytes prints a float v with 1e-280 <= |v| <= 1e280 from the integer
# N = round(D), D = |v| * 10**K and K = 16 - floor(log10|v|), whose 17
# digits are those of %.17g.  10**K is held as a double-double hi + lo,
# and Dekker's exact two-product splits |v| * hi into an integer-valued
# double (D >= 1e16 > 2**53) and a remainder below 10.  The remainder is
# known to about 2**-48, so it rounds with certainty unless it lies within
# _ROUND_GUARD of a half.  Those values, and all others the arithmetic
# cannot settle, are printed with CSV_FORMAT.

_CSV_MIN_ABS, _CSV_MAX_ABS = 1e-280, 1e280
_POW10_MIN, _POW10_MAX = -264, 297  # K for floor(log10|v|) in [-281, 280]
_ROUND_GUARD = 2.0 ** -30
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's split of a double into halves

# Every value gets a 32-byte source of eight words: sign, NUL, ',', '\n';
# its 17 digits after three '0's; '.', '0', 'e', NUL; the exponent.
_SRC_SIGN, _SRC_NUL, _SRC_COMMA, _SRC_NEWLINE = 0, 1, 2, 3
_SRC_D0, _SRC_DOT, _SRC_ZERO, _SRC_E, _SRC_EXP = 7, 24, 25, 26, 28
_SLOT = 26  # output bytes per value: at most 24 characters and a separator
_EXP_OFFSET = 300
# Layouts: %.17g prints fixed notation for decimal exponents -4..16 (codes
# 0..20) and exponent notation otherwise (code 21); zero is code 22.
_EXP_LAYOUT, _ZERO_LAYOUT = 21, 22


def _split(a):
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


def _words(strings) -> np.ndarray:
    """ASCII strings of at most four bytes, NUL-padded, one uint32 each."""
    return np.frombuffer(b"".join(s.encode().ljust(4, b"\0") for s in strings), np.uint32)


_SIGN_WORDS = _words(["\0\0,\n", "-\0,\n"])
_MARK_WORD = _words([".0e"])[0]


def _csv_slot_table() -> np.ndarray:
    """Source byte of every output byte, one row per (layout, trailing zeros
    of the digits, last column).  Each source byte carries the digit index
    from which on trailing zeros drop it (0: never)."""
    digits = [(_SRC_D0 + i, i) for i in range(17)]
    sign, zero = (_SRC_SIGN, 0), (_SRC_ZERO, 0)
    layouts = []
    for x in range(-4, 17):
        if x >= 0:
            fraction = [(_SRC_DOT, x + 1)] + digits[x + 1:] if x < 16 else []
            layouts.append([sign] + [(s, 0) for s, _ in digits[:x + 1]] + fraction)
        else:
            layouts.append([sign, zero, (_SRC_DOT, 0)] + [zero] * (-x - 1) + digits)
    exponent = [(_SRC_E, 0)] + [(_SRC_EXP + j, 0) for j in range(4)]
    layouts.append([sign, digits[0], (_SRC_DOT, 1)] + digits[1:] + exponent)
    layouts.append([sign, zero])
    table = np.full((len(layouts), 17, 2, _SLOT), _SRC_NUL, np.intp)
    for code, layout in enumerate(layouts):
        for zeros in range(17):
            kept = [s for s, drop_from in layout if not 0 < 17 - zeros <= drop_from]
            table[code, zeros, :, : len(kept)] = kept
    table[:, :, 0, -1] = _SRC_COMMA
    table[:, :, 1, -1] = _SRC_NEWLINE
    return table.reshape(-1, _SLOT)


@functools.cache
def _csv_tables() -> tuple:
    """The read-only tables of _csv_bytes, built on first use so that a
    process that writes no CSV does not pay for them:

    - hi, high and low halves of hi, lo: the double-double hi + lo = 10**K
      for K in [_POW10_MIN, _POW10_MAX], from exact int division;
    - the ASCII words of 0000..9999 and of the exponents;
    - the slot table.
    """
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    digit_words = np.frombuffer(
        (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8),
        np.uint32,
    )
    exp_words = _words(f"{e:+03d}" for e in range(-_EXP_OFFSET, _EXP_OFFSET + 1))
    tables = (hi, *_split(hi), np.array(lo), digit_words, exp_words, _csv_slot_table())
    for table in tables:
        table.flags.writeable = False
    return tables


def _csv_bytes(block: np.ndarray) -> bytes:
    """The CSV lines of a (rows, cols) float block: exactly the bytes of
    ",".join(CSV_FORMAT % v for v in row) + "\n" for every row.

    Values whose digits are certain are printed with numpy; the others
    (non-finite, outside 1e-280..1e280, within 2**-30 of a rounding tie,
    or with a misjudged decimal exponent) are formatted with CSV_FORMAT.
    """
    hi_table, hi_high_table, hi_low_table, lo_table, digit_words, exp_words, slots = _csv_tables()
    rows, cols = block.shape
    v = block.ravel()
    n = v.size
    a = np.abs(v)
    certain = (a >= _CSV_MIN_ABS) & (a <= _CSV_MAX_ABS)
    a = np.where(certain, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.intp)
    k = 16 - x - _POW10_MIN
    high = a * hi_table.take(k)
    a_high, a_low = _split(a)
    b_high, b_low = hi_high_table.take(k), hi_low_table.take(k)
    # high + rest = a * (hi + lo): high exactly, rest to about 2**-48.
    rest = (((a_high * b_high - high) + a_high * b_low + a_low * b_high) + a_low * b_low
            + a * lo_table.take(k))
    rest_floor = np.floor(rest)
    frac = rest - rest_floor
    floor_digits = high.astype(np.int64) + rest_floor.astype(np.int64)
    digits = floor_digits + (frac > 0.5)
    certain &= (
        (floor_digits >= 10 ** 16) & (digits < 10 ** 17) & (np.abs(frac - 0.5) > _ROUND_GUARD)
    )

    groups = np.empty((n, 5), np.intp)  # four digits each, the first one "000d"
    upper = digits // 10 ** 8
    lower = digits - upper * 10 ** 8
    groups[:, 0] = upper // 10 ** 8
    groups[:, 1] = upper // 10 ** 4 % 10 ** 4
    groups[:, 2] = upper % 10 ** 4
    groups[:, 3] = lower // 10 ** 4
    groups[:, 4] = lower % 10 ** 4
    src = np.empty((n, 8), np.uint32)
    src[:, 0] = _SIGN_WORDS.take(np.signbit(v).view(np.uint8))
    src[:, 1:6] = digit_words.take(groups)
    src[:, 6] = _MARK_WORD
    src[:, 7] = exp_words.take(x + _EXP_OFFSET, mode="clip")
    src = src.view(np.uint8)

    zeros = np.argmax(src[:, _SRC_D0 + 16 : _SRC_D0 - 1 : -1] != ord("0"), axis=1)
    code = np.where((x >= -4) & (x <= 16), x + 4, _EXP_LAYOUT)
    code[v == 0] = _ZERO_LAYOUT
    slot = (code * 17 + zeros) * 2
    slot.reshape(rows, cols)[:, -1] += 1
    index = slots.take(slot, axis=0)
    index += np.arange(0, src.size, src.shape[1])[:, None]
    out = src.ravel().take(index)
    for i in np.flatnonzero(~certain & (v != 0)).tolist():
        text = (CSV_FORMAT % v[i] + ("\n" if i % cols == cols - 1 else ",")).encode()
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0")


def write_csv(record: TrajectoryRecord, path, header: dict):
    """Write a trajectory as deterministic CSV.

    Line 1 is a '#' comment carrying `header` as canonical JSON;
    line 2 is the header t, X1.., P1.., diagnostic labels, c1, c2 where
    c1 = |X|^2 - 1 and c2 = <X, P>.  All numbers use repr-exact %.17g,
    byte for byte as CSV_FORMAT prints them: numpy makes each value's 17
    digits from a double-double product with 10**K and lays out the text,
    and only a value whose rounding it cannot settle (non-finite, outside
    1e-280..1e280, within 2**-30 of a tie, or with a misjudged decimal
    exponent) is printed with CSV_FORMAT.
    Rows are formatted CSV_CHUNK_ROWS at a time, so memory does not grow
    with the number of rows.
    """
    d = record.xs.shape[1]
    labels = (
        ["t"]
        + [f"X{i}" for i in range(1, d + 1)]
        + [f"P{i}" for i in range(1, d + 1)]
        + list(record.diagnostics.keys())
        + ["c1", "c2"]
    )
    columns = [record.times, *record.xs.T, *record.ps.T, *record.diagnostics.values(),
               record.sphere_residual, record.tangency_residual]
    with open(path, "wb") as fh:
        fh.write(("# " + json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write((",".join(labels) + "\n").encode())
        for s in range(0, record.times.size, CSV_CHUNK_ROWS):
            fh.write(_csv_bytes(np.column_stack([c[s : s + CSV_CHUNK_ROWS] for c in columns])))
