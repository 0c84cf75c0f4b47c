"""Constrained integrator: geometry, reversibility, order, drift, output."""

import json
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magneflow import (
    InputError,
    MagneticModel,
    StepError,
    commuting_basis,
    drift_report,
    integrate,
    picture_map,
    project_initial,
    step,
    write_csv,
)
from magneflow import sampling
from magneflow.flow import CSV_CHUNK_ROWS, CSV_FORMAT, MIN_ABS_DT, TrajectoryRecord, _csv_bytes


def model_of(n, *alphas):
    return MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))


def seeded_state(n, seed=42):
    rng = sampling.generator(seed, sampling.STREAM_SIMULATE)
    return sampling.constrained_point(rng, n)


# -- initial state handling ---------------------------------------------------


def test_project_initial_snaps_small_defects():
    x = np.array([1.0 + 3e-7, 0.0, 0.0])
    p = np.array([1e-7, 1.0, 0.0])
    x2, p2 = project_initial(x, p)
    assert abs(np.linalg.norm(x2) - 1.0) < 1e-15
    assert abs(x2 @ p2) < 1e-15


def test_project_initial_rejects_large_defects():
    with pytest.raises(InputError):
        project_initial(np.array([1.01, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(InputError):
        project_initial(np.array([1.0, 0.0, 0.0]), np.array([0.01, 1.0, 0.0]))
    with pytest.raises(InputError):
        project_initial(np.ones((2, 3)), np.ones((2, 3)))


def test_project_initial_rejects_overflowing_squares():
    for x, p in (([1.0, 0.0, 0.0], [0.0, 1e200, 0.0]), ([1e200, 0.0, 0.0], [0.0, 1.0, 0.0])):
        with pytest.raises(InputError, match="finite"):
            project_initial(np.array(x), np.array(p))
    _, p = project_initial(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1e100, 0.0]))
    assert p[1] == 1e100


# -- the numpy reference step ------------------------------------------------------
#
# `step` runs on Python floats.  The vectorised step below is the oracle it
# is checked against: the same splitting, with numpy element-wise arithmetic
# and `@` dot products.


def reference_rotate(x, p, model, tau):
    """Exact flow of the rotational part for time tau: plane k turns by
    -alpha_k * tau / 2, alike for positions and momenta."""
    x = np.array(x, dtype=float)
    p = np.array(p, dtype=float)
    for k, alpha in enumerate(float(a) for a in model.alphas):
        if alpha == 0.0:
            continue
        i, j = 2 * k, 2 * k + 1
        phi = alpha * tau / 2.0
        c, s = math.cos(phi), math.sin(phi)
        for vec in (x, p):
            u, v = vec[i], vec[j]
            vec[i] = c * u + s * v
            vec[j] = -s * u + c * v
    return x, p


def reference_rattle(x0, p0, model, dt):
    """One RATTLE step for 0.5|P|^2 + U(X) on the unit cotangent set."""
    two_a = 2.0 * np.array([float(a) for a in model.a])
    g0 = two_a * x0
    w = x0 + dt * p0 - 0.5 * dt * dt * g0
    a2 = dt ** 4
    b = -2.0 * dt * dt * float(w @ x0)
    c = float(w @ w) - 1.0
    disc = b * b - 4.0 * a2 * c
    assert disc >= 0.0
    lam = 0.0 if c == 0.0 else 2.0 * c / (-b + math.sqrt(disc))
    x1 = w - dt * dt * lam * x0
    p_half = p0 - 0.5 * dt * (g0 + 2.0 * lam * x0)
    q = p_half - 0.5 * dt * (two_a * x1)
    mu = float(x1 @ q) / (dt * float(x1 @ x1))
    return x1, q - dt * mu * x1


def reference_step(x, p, model, dt):
    x, p = reference_rotate(x, p, model, dt / 2.0)
    x, p = reference_rattle(x, p, model, dt)
    return reference_rotate(x, p, model, dt / 2.0)


def assert_close_in_ulps(got, want, ulps):
    """Componentwise agreement to `ulps` rounding units of the vector's
    largest entry (a dot product rounds at that scale, not at the scale
    of a small component)."""
    got, want = np.asarray(got), np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= ulps * np.finfo(float).eps * scale


# Zero rates, odd and even d.  The test states have speeds from 1e-3 to
# about 3, so |dt * p| <= 0.3 for the largest dt.  Towards |dt * p| = 1 the
# constraint quadratic amplifies the one-rounding difference of the dot
# products, to about 10 ulps at dt = 0.1 and speed 10.
REFERENCE_MODELS = [
    (2, ("0",)), (2, ("1",)), (3, ("0", "2")), (3, ("1", "1")),
    (4, ("1", "2")), (4, ("0", "3/2")), (7, ("1", "0", "3", "1/2")), (7, ("0", "0", "0", "0")),
]


@pytest.mark.parametrize("n, alphas", REFERENCE_MODELS)
def test_step_matches_numpy_reference(n, alphas):
    model = model_of(n, *alphas)
    rng = np.random.default_rng(n)
    for _ in range(200):
        x, p = sampling.constrained_point(rng, n)
        p = p * 10.0 ** rng.uniform(-3, 0.5)
        dt = float(rng.choice([1e-2, -1e-2, 0.1, -0.1, 1e-5, -1e-5]))
        got_x, got_p = step(x, p, model, dt)
        want_x, want_p = reference_step(x, p, model, dt)
        assert all(type(v) is float for v in got_x + got_p)
        assert_close_in_ulps(got_x, want_x, 4)
        assert_close_in_ulps(got_p, want_p, 4)


@pytest.mark.parametrize("n, alphas", [(4, ("1", "2")), (5, ("1", "1", "2"))])
def test_orbit_matches_numpy_reference(n, alphas):
    model = model_of(n, *alphas)
    x0, p0 = seeded_state(n)
    steps = 10_000
    rec = integrate(model, x0, p0, dt=1e-2, steps=steps, record_every=steps)
    x, p = project_initial(x0, p0)
    for _ in range(steps):
        x, p = reference_step(x, p, model, 1e-2)
    assert np.max(np.abs(rec.xs[-1] - x)) < 1e-11
    assert np.max(np.abs(rec.ps[-1] - p)) < 1e-11


def test_zero_step_returns_copies():
    model = model_of(2, 1)
    x0, p0 = [1.0, 0.0, -0.0], [0.0, 1.0, 0.0]
    x, p = step(x0, p0, model, 0.0)
    assert (x, p) == (x0, p0) and x is not x0 and p is not p0


# -- geometry of single flows ---------------------------------------------------


def test_zero_rate_flow_stays_on_great_circle():
    model = model_of(2, 0)
    x0 = np.array([1.0, 0.0, 0.0])
    p0 = np.array([0.0, 1.0, 0.0])
    rec = integrate(model, x0, p0, dt=1e-3, steps=1000)
    # the orbit never leaves the coordinate plane spanned by x0, p0
    assert np.max(np.abs(rec.xs[:, 2])) < 1e-13
    # and matches the unit-speed circle in phase
    t_final = rec.times[-1]
    expected = np.array([math.cos(t_final), math.sin(t_final), 0.0])
    assert np.max(np.abs(rec.xs[-1] - expected)) < 1e-5


def test_rotation_subflow_closed_form():
    """One step is the closed-form turn of each plane by alpha*dt/4 on
    both sides of the RATTLE step; the unpaired last coordinate does not
    turn."""
    model = model_of(2, 2)
    rng = np.random.default_rng(1)
    x, p = sampling.constrained_point(rng, 2)
    dt = 0.37
    phi = 2.0 * (dt / 2.0) / 2.0  # alpha * tau / 2 with tau = dt / 2
    c, s = math.cos(phi), math.sin(phi)
    turn = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    x1, p1 = reference_rattle(turn @ x, turn @ p, model, dt)
    got_x, got_p = step(x, p, model, dt)
    assert_close_in_ulps(got_x, turn @ x1, 4)
    assert_close_in_ulps(got_p, turn @ p1, 4)


def test_single_step_reversibility():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    x1, p1 = step(x0, p0, model, 1e-3)
    x2, p2 = step(x1, p1, model, -1e-3)
    assert np.max(np.abs(x2 - x0)) < 1e-12
    assert np.max(np.abs(p2 - p0)) < 1e-12


def test_many_step_reversibility():
    model = model_of(3, 1, 2)
    x0, p0 = seeded_state(3)
    k = 1000
    fwd = integrate(model, x0, p0, dt=1e-3, steps=k)
    back = integrate(model, fwd.xs[-1], fwd.ps[-1], dt=-1e-3, steps=k)
    assert np.max(np.abs(back.xs[-1] - x0)) < 1e-10 * k
    assert np.max(np.abs(back.ps[-1] - p0)) < 1e-10 * k


def test_constraints_preserved_along_flow():
    model = model_of(4, 1, "3/2")
    x0, p0 = seeded_state(4)
    rec = integrate(model, x0, p0, dt=1e-2, steps=1000)
    assert np.max(np.abs(rec.sphere_residual)) < 1e-10
    assert np.max(np.abs(rec.tangency_residual)) < 1e-10


# -- conservation and order -------------------------------------------------------


def test_family_members_conserved_along_flow():
    model = model_of(2, 1)
    fam = commuting_basis(model)
    x0, p0 = seeded_state(2)
    rec = integrate(model, x0, p0, dt=1e-3, steps=5000, record_every=10, family=fam)
    report = drift_report(rec)
    for label in ("F1", "F2", "H"):
        assert report["series"][label]["max_rel_drift"] < 1e-5


def test_coordinates_are_not_conserved():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    rec = integrate(model, x0, p0, dt=1e-3, steps=10000, record_every=20)
    assert np.max(np.abs(rec.xs[:, 0] - rec.xs[0, 0])) > 0.3


def test_halving_dt_quarters_energy_drift():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)

    def h_drift(dt, steps):
        rec = integrate(model, x0, p0, dt=dt, steps=steps, record_every=10)
        return drift_report(rec)["series"]["H"]["max_abs_drift"]

    ratio = h_drift(2e-3, 1000) / h_drift(1e-3, 2000)
    assert 3.0 <= ratio <= 5.0


def test_long_run_energy_error_stays_bounded():
    """A symmetric symplectic splitting keeps its energy error at O(dt^2)
    with no secular drift (Hairer, Lubich and Wanner, Geometric Numerical
    Integration, ch. IX).  Over 1e5 steps the error stays below dt^2 (the
    seeded orbits reach about 0.25 dt^2), and the worst error in the last
    fifth of the run is no larger than twice the worst in the first fifth."""
    model = model_of(4, 1, 2)
    x0, p0 = seeded_state(4)
    dt = 1e-2
    rec = integrate(model, x0, p0, dt=dt, steps=100_000, record_every=10)
    h_error = np.abs(rec.diagnostics["H"] - rec.diagnostics["H"][0])
    fifth = h_error.size // 5
    assert h_error.max() < dt * dt
    assert h_error[-fifth:].max() <= 2.0 * h_error[:fifth].max()


def test_drift_decreases_towards_exact_flow():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    drifts = []
    for dt, steps in ((1e-1, 20), (1e-2, 200), (1e-3, 2000)):
        rec = integrate(model, x0, p0, dt=dt, steps=steps)
        drifts.append(drift_report(rec)["series"]["H"]["max_abs_drift"])
    assert drifts[0] > drifts[1] > drifts[2]


# -- picture map --------------------------------------------------------------------


def test_picture_map_conserves_kinetic_energy():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    rec = integrate(model, x0, p0, dt=1e-3, steps=5000, record_every=10)
    shifted = picture_map(rec, model)
    report = drift_report(shifted)
    assert report["series"]["H_kin"]["max_rel_drift"] < 1e-5
    assert shifted.meta["picture"] == "kinetic"
    # tangency survives the shift because the field is orthogonal to X
    assert np.max(np.abs(shifted.tangency_residual)) < 1e-10


def test_picture_map_zero_rates_is_identity():
    model = model_of(2, 0)
    x0, p0 = seeded_state(2)
    rec = integrate(model, x0, p0, dt=1e-3, steps=100)
    shifted = picture_map(rec, model)
    assert np.array_equal(shifted.xs, rec.xs)
    assert np.array_equal(shifted.ps, rec.ps)


def test_double_shift_breaks_conservation():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    rec = integrate(model, x0, p0, dt=1e-3, steps=5000, record_every=10)
    once = picture_map(rec, model)
    twice = picture_map(once, model)
    single_drift = drift_report(once)["series"]["H_kin"]["max_rel_drift"]
    double_drift = drift_report(twice)["series"]["H_kin"]["max_rel_drift"]
    assert double_drift > 1e-3
    assert double_drift > 100 * single_drift


# -- bookkeeping and failure modes -----------------------------------------------------


def test_zero_steps_records_initial_state_only():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    rec = integrate(model, x0, p0, dt=1e-3, steps=0)
    assert rec.times.shape == (1,)
    assert np.array_equal(rec.times, [0.0])
    report = drift_report(rec)
    assert report["series"]["H"]["max_abs_drift"] == 0.0


def test_recording_stride_includes_last_step():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    rec = integrate(model, x0, p0, dt=1e-3, steps=105, record_every=10)
    assert rec.times[0] == 0.0
    assert abs(rec.times[-1] - 0.105) < 1e-15
    assert rec.times.shape == (12,)  # 0, 10, ..., 100, 105


@pytest.mark.parametrize("steps, every", [(0, 1), (6, 1), (10, 5), (11, 5), (3, 7), (7, 7)])
def test_recorded_rows_match_the_stride(steps, every):
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    rec = integrate(model, x0, p0, dt=1e-2, steps=steps, record_every=every)
    ks = sorted({0, steps, *range(0, steps + 1, every)})
    assert rec.times.tolist() == [k * 1e-2 for k in ks]
    assert rec.xs.shape == rec.ps.shape == (len(ks), 3)
    x, p = project_initial(x0, p0)
    rows = [(x, p)]
    for k in range(1, steps + 1):
        x, p = step(x, p, model, 1e-2)
        rows.append((x, p))
    assert np.array_equal(rec.xs, [rows[k][0] for k in ks])
    assert np.array_equal(rec.ps, [rows[k][1] for k in ks])


def test_integrate_validates_parameters():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    with pytest.raises(InputError):
        integrate(model, x0, p0, dt=0.0, steps=10)
    with pytest.raises(InputError):
        integrate(model, x0, p0, dt=MIN_ABS_DT / 2, steps=10)
    with pytest.raises(InputError):
        integrate(model, x0, p0, dt=1e-3, steps=-1)
    with pytest.raises(InputError):
        integrate(model, x0, p0, dt=1e-3, steps=10, record_every=0)
    with pytest.raises(InputError):
        integrate(model_of(3, 1, 1), x0, p0, dt=1e-3, steps=10)


@pytest.mark.parametrize("seed", [2, 7])
def test_tiny_steps_stay_at_roundoff(seed):
    """Down to MIN_ABS_DT the RATTLE solve keeps the orbit on the
    constraint set and the integrals at roundoff.  Above about 1e-5 the
    drift is the O(dt^2) splitting error, which dt**2 bounds here."""
    model = model_of(4, 1, 2)
    fam = commuting_basis(model)
    x0, p0 = seeded_state(4, seed)
    ladder = [10.0 ** -k for k in range(3, 16, 2)] + [MIN_ABS_DT, -MIN_ABS_DT]
    for dt in ladder:
        report = drift_report(integrate(model, x0, p0, dt=dt, steps=5, family=fam))
        worst = max(entry["max_rel_drift"] for entry in report["series"].values())
        assert worst <= 1e-12 + dt * dt, dt
        assert max(report["constraints"].values()) <= 1e-14, dt


def test_family_model_mismatch_rejected():
    model = model_of(2, 1)
    fam = commuting_basis(model_of(2, 2))
    x0, p0 = seeded_state(2)
    with pytest.raises(InputError):
        integrate(model, x0, p0, dt=1e-3, steps=10, family=fam)


def test_oversized_step_fails_loudly():
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    with pytest.raises(StepError) as err:
        integrate(model, x0, p0, dt=2.0, steps=10)
    assert "step" in str(err.value)


def test_csv_output_round_trips(tmp_path):
    model = model_of(2, 1)
    fam = commuting_basis(model)
    x0, p0 = seeded_state(2)
    rec = integrate(model, x0, p0, dt=1e-3, steps=50, record_every=10, family=fam)
    path = tmp_path / "orbit.csv"
    write_csv(rec, path, extra_meta={"seed": 42})
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0][2:])
    assert lines[0].startswith("# ")
    assert meta["seed"] == 42
    assert meta["model"] == {"n": 2, "alphas": ["1"]}
    assert lines[1] == "t,X1,X2,X3,P1,P2,P3,F1,F2,H,c1,c2"
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert data.shape == (rec.times.size, 12)
    # 17 significant digits reproduce the doubles bit for bit
    assert np.array_equal(data[:, 1:4], rec.xs)
    assert np.array_equal(data[:, 4:7], rec.ps)


def test_csv_matches_value_by_value_formatting(tmp_path):
    """The chunked writer produces the bytes of formatting every value on
    its own, across a ragged last chunk and awkward values."""
    rng = np.random.default_rng(8)
    rows = CSV_CHUNK_ROWS + 1000
    xs = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    xs[0] = [-0.0, 5e-324, 1.7976931348623157e308]
    rec = TrajectoryRecord(
        times=np.arange(rows) * 1e-3, xs=xs, ps=rng.standard_normal((rows, 3)),
        diagnostics={"H": rng.standard_normal(rows)},
        sphere_residual=rng.standard_normal(rows) * 1e-16,
        tangency_residual=np.zeros(rows), meta={"k": 1},
    )
    path = tmp_path / "rows.csv"
    write_csv(rec, path)
    body = path.read_text().splitlines()[2:]
    table = np.column_stack([rec.times, rec.xs, rec.ps, rec.diagnostics["H"],
                             rec.sphere_residual, rec.tangency_residual])
    assert body == [",".join("%.17g" % v for v in row) for row in table]


# Values at the edges of the vectorised formatter: rounding ties (the second
# rounds up to even), a carry into 1e17, the layout edges, two- and
# three-digit exponents, signed zero, subnormals and non-finite values.
HAND_PICKED = [
    1000000000000000.25, 1000000000000000.75, 99999999999999999.0,
    9.9999999999999991e-05, 1e-4, 1e16, 1e17, 1e99, 1e100, 1e-100,
    -0.0, 0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


def _near_power_of_ten(exponent, ulps):
    value = 10.0 ** exponent
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


_CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    # every layout of %.17g, fixed and exponent notation, with full mantissas
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-30, 70)),
    st.builds(_near_power_of_ten, st.integers(-300, 300), st.integers(-3, 3)),
    # exact ties of the 17th digit
    st.builds(lambda i, q: math.copysign(abs(i) + q, i),
              st.integers(-2 ** 51, 2 ** 51).filter(lambda i: abs(i) >= 10 ** 15),
              st.sampled_from([0.25, 0.75])),
    st.sampled_from(HAND_PICKED),
)


@st.composite
def _csv_blocks(draw):
    """A block of 1-300 rows and 1-20 columns whose entries are picked from
    up to 40 drawn values."""
    values = np.array(draw(st.lists(_CSV_VALUES, min_size=1, max_size=40)))
    shape = (draw(st.integers(1, 300)), draw(st.integers(1, 20)))
    picks = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return values[picks.integers(values.size, size=shape)]


def _oracle(block):
    return "".join(",".join(CSV_FORMAT % v for v in row) + "\n" for row in block.tolist()).encode()


@given(_csv_blocks())
@example(np.array([HAND_PICKED]))
@example(np.array(HAND_PICKED)[:, None])
@settings(max_examples=200, deadline=None)
def test_csv_bytes_match_value_by_value_formatting(block):
    assert _csv_bytes(block) == _oracle(block)


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    """The writer formats a chunk of rows at a time, so its peak allocation
    is the same for 2e4 and 2e5 rows; a full table of the columns would
    add 80 bytes per row here."""
    def peak_bytes(rows):
        rng = np.random.default_rng(rows)
        rec = TrajectoryRecord(
            times=np.arange(rows) * 1e-3, xs=rng.standard_normal((rows, 3)),
            ps=rng.standard_normal((rows, 3)), diagnostics={"H": rng.standard_normal(rows)},
            sphere_residual=rng.standard_normal(rows) * 1e-16,
            tangency_residual=rng.standard_normal(rows) * 1e-16, meta={},
        )
        tracemalloc.start()
        try:
            write_csv(rec, tmp_path / "rows.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(20_000), peak_bytes(200_000)
    assert abs(large - small) < 2 * 2 ** 20, (small, large)
