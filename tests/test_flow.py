"""Constrained integrator: geometry, reversibility, order, drift, output."""

import dataclasses
import json
import math
import tracemalloc
import warnings
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
    kinetic_energy,
    picture_map,
    project_initial,
    step,
    write_csv,
)
from magneflow import flow, sampling
from magneflow.flow import CSV_CHUNK_ROWS, CSV_FORMAT, MIN_ABS_DT, TrajectoryRecord, _csv_bytes
from magneflow.magnetic_model import sigma_sharp
from oracles import scalar_dot, scalar_evaluate


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
# is checked against: the Strang splitting, with numpy element-wise
# arithmetic and `@` dot products.


def reference_turn(x, p, angles):
    """Plane k (coordinates 2k, 2k + 1) turned by angles[k], alike for
    positions and momenta; a zero angle leaves its plane as it is."""
    x = np.array(x, dtype=float)
    p = np.array(p, dtype=float)
    for k, phi in enumerate(angles):
        if phi == 0.0:
            continue
        i, j = 2 * k, 2 * k + 1
        c, s = math.cos(phi), math.sin(phi)
        for vec in (x, p):
            u, v = vec[i], vec[j]
            vec[i] = c * u + s * v
            vec[j] = -s * u + c * v
    return x, p


def reference_rotate(x, p, model, tau):
    """Exact flow of the rotational part for time tau: plane k turns by
    -alpha_k * tau / 2, alike for positions and momenta."""
    return reference_turn(x, p, [float(a) * tau / 2.0 for a in model.alphas])


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


# Zero rates, odd and even d, and d = 62, whose dot products are sums of
# 62 terms.  The test states have speeds from 1e-3 to about 3, so
# |dt * p| <= 0.3 for the largest dt.  Towards |dt * p| = 1 the constraint
# quadratic amplifies the one-rounding difference of the dot products, to
# about 10 ulps at dt = 0.1 and speed 10.
REFERENCE_MODELS = [
    (2, ("0",)), (2, ("1",)), (3, ("0", "2")), (3, ("1", "1")),
    (4, ("1", "2")), (4, ("0", "3/2")), (7, ("1", "0", "3", "1/2")), (7, ("0", "0", "0", "0")),
    (61, tuple(("0", "1", "3/2", "0", "5")[k % 5] for k in range(31))),
]


@pytest.mark.parametrize("n, alphas", REFERENCE_MODELS)
def test_rattle_commutes_with_plane_turns(n, alphas):
    """The premise of the kernel: U, the kinetic term and both constraints
    are invariant under the turns of the coordinate planes, so a RATTLE
    step of a turned state is the turned RATTLE step."""
    model = model_of(n, *alphas)
    rng = np.random.default_rng(n)
    for _ in range(200):
        x, p = sampling.constrained_point(rng, n)
        p = p * 10.0 ** rng.uniform(-3, 0.5)
        dt = float(rng.choice([1e-2, -1e-2, 0.1, -0.1, 1e-5, -1e-5]))
        angles = rng.uniform(-math.pi, math.pi, (n + 1) // 2)
        got_x, got_p = reference_rattle(*reference_turn(x, p, angles), model, dt)
        want_x, want_p = reference_turn(*reference_rattle(x, p, model, dt), angles)
        assert_close_in_ulps(got_x, want_x, 4)
        assert_close_in_ulps(got_p, want_p, 4)


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
    """The orbit is rattle^steps turned once by the rotational flow of the
    whole run.  (A loop of Strang steps accumulates the rounding of two
    turns per step: 1.1e-11 and 2.1e-11 from this orbit.)"""
    model = model_of(n, *alphas)
    fam = commuting_basis(model)
    x0, p0 = seeded_state(n)
    steps = 10_000
    rec = integrate(fam, x0, p0, dt=1e-2, steps=steps, record_every=steps)
    x, p = project_initial(x0, p0)
    for _ in range(steps):
        x, p = reference_rattle(x, p, model, 1e-2)
    x, p = reference_rotate(x, p, model, steps * 1e-2)
    assert np.max(np.abs(rec.xs[-1] - x)) < 1e-11
    assert np.max(np.abs(rec.ps[-1] - p)) < 1e-11


def test_zero_step_returns_copies():
    model = model_of(2, 1)
    x0, p0 = [1.0, 0.0, -0.0], [0.0, 1.0, 0.0]
    x, p = step(x0, p0, model, 0.0)
    assert (x, p) == (x0, p0) and x is not x0 and p is not p0


@pytest.mark.parametrize("size", [4, 6])
def test_step_rejects_state_of_wrong_length(size):
    model = model_of(4, 1, 2)
    x, p = seeded_state(4)
    wrong = [0.0] * size
    for args in ((wrong, p), (x, wrong), (wrong, wrong)):
        with pytest.raises(InputError, match="model needs 5"):
            step(*args, model, 1e-2)
    with pytest.raises(InputError):
        step(wrong, p, model, 0.0)


def test_integrate_makes_one_kernel_call_per_run(monkeypatch):
    """integrate runs the whole orbit in one call of the step kernel,
    whatever the number of steps and the recording stride."""
    calls = []
    step_kernel = flow._step_kernel

    def counting_step_kernel(*key):
        kernel = step_kernel(*key)

        def counting_kernel(x, p, steps, every):
            calls.append((steps, every))
            return kernel(x, p, steps, every)

        return counting_kernel

    monkeypatch.setattr(flow, "_step_kernel", counting_step_kernel)
    fam = commuting_basis(model_of(4, 1, 2))
    x0, p0 = seeded_state(4)
    rec = integrate(fam, x0, p0, dt=1e-2, steps=37, record_every=5)
    assert calls == [(37, 5)]
    assert rec.times.shape == (9,)


def test_one_kernel_per_rates_and_dt():
    model = model_of(4, 1, 2)
    fam = commuting_basis(model)
    x0, p0 = seeded_state(4)
    kernel = flow._step_kernel(model.two_a_floats, 1e-2)
    before = flow._step_kernel.cache_info()
    integrate(fam, x0, p0, dt=1e-2, steps=20)
    integrate(commuting_basis(model_of(4, 1, 2)), x0, p0, dt=1e-2, steps=20)
    after = flow._step_kernel.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2
    assert flow._step_kernel(model.two_a_floats, 1e-2) is kernel
    assert flow._step_kernel(model.two_a_floats, -1e-2) is not kernel


# -- geometry of single flows ---------------------------------------------------


def test_zero_rate_flow_stays_on_great_circle():
    fam = commuting_basis(model_of(2, 0))
    x0 = np.array([1.0, 0.0, 0.0])
    p0 = np.array([0.0, 1.0, 0.0])
    rec = integrate(fam, x0, p0, dt=1e-3, steps=1000)
    # the orbit never leaves the coordinate plane spanned by x0, p0
    assert np.max(np.abs(rec.xs[:, 2])) < 1e-13
    # and matches the unit-speed circle in phase
    t_final = rec.times[-1]
    expected = np.array([math.cos(t_final), math.sin(t_final), 0.0])
    assert np.max(np.abs(rec.xs[-1] - expected)) < 1e-5


def test_rotation_subflow_closed_form():
    """One step is the RATTLE step followed by the closed-form turn of
    each plane by alpha*dt/2; the unpaired last coordinate does not
    turn."""
    model = model_of(2, 2)
    rng = np.random.default_rng(1)
    x, p = sampling.constrained_point(rng, 2)
    dt = 0.37
    phi = 2.0 * dt / 2.0  # alpha * tau / 2 with tau = dt
    c, s = math.cos(phi), math.sin(phi)
    turn = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    x1, p1 = reference_rattle(x, p, model, dt)
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


def test_backward_run_returns_to_the_start():
    """A run with -dt from the last row of a run with dt retraces it: the
    rows are turned by k * alpha * dt / 2, so backwards by the opposite
    angle."""
    fam = commuting_basis(model_of(4, 1, 2))
    x0, p0 = project_initial(*seeded_state(4))
    fwd = integrate(fam, x0, p0, dt=1e-2, steps=200)
    assert np.max(np.abs(fwd.xs[-1] - x0)) > 0.1
    back = integrate(fam, fwd.xs[-1], fwd.ps[-1], dt=-1e-2, steps=200)
    assert np.max(np.abs(back.xs[-1] - x0)) < 1e-12
    assert np.max(np.abs(back.ps[-1] - p0)) < 1e-12


def test_many_step_reversibility():
    fam = commuting_basis(model_of(3, 1, 2))
    x0, p0 = seeded_state(3)
    k = 1000
    fwd = integrate(fam, x0, p0, dt=1e-3, steps=k)
    back = integrate(fam, fwd.xs[-1], fwd.ps[-1], dt=-1e-3, steps=k)
    assert np.max(np.abs(back.xs[-1] - x0)) < 1e-10 * k
    assert np.max(np.abs(back.ps[-1] - p0)) < 1e-10 * k


def test_constraints_preserved_along_flow():
    fam = commuting_basis(model_of(4, 1, "3/2"))
    x0, p0 = seeded_state(4)
    rec = integrate(fam, x0, p0, dt=1e-2, steps=1000)
    assert np.max(np.abs(rec.sphere_residual)) < 1e-10
    assert np.max(np.abs(rec.tangency_residual)) < 1e-10


# -- conservation and order -------------------------------------------------------


def test_family_members_conserved_along_flow():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)
    rec = integrate(fam, x0, p0, dt=1e-3, steps=5000, record_every=10)
    report = drift_report(rec)
    for label in ("F1", "F2", "H"):
        assert report["series"][label]["max_rel_drift"] < 1e-5


def test_coordinates_are_not_conserved():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)
    rec = integrate(fam, x0, p0, dt=1e-3, steps=10000, record_every=20)
    assert np.max(np.abs(rec.xs[:, 0] - rec.xs[0, 0])) > 0.3


def test_halving_dt_quarters_energy_drift():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)

    def h_drift(dt, steps):
        rec = integrate(fam, x0, p0, dt=dt, steps=steps, record_every=10)
        return drift_report(rec)["series"]["H"]["max_abs_drift"]

    ratio = h_drift(2e-3, 1000) / h_drift(1e-3, 2000)
    assert 3.0 <= ratio <= 5.0


def test_plane_momenta_drift_stays_below_the_per_step_turns():
    """The plane momenta F3 = M_12 and F4 = M_34 are invariant under the
    plane turns.  Turning every row once, instead of twice per step by
    rounded cos/sin literals whose c^2 + s^2 - 1 is about 1e-16, removes
    most of their drift: over this 1e5-step orbit their max |drift| was
    3.6e-12 and 3.9e-12 with the per-step turns, and is 5.9e-13 and
    9.4e-13 now.  The rest still grows with the run length; it comes from
    the rounding of the kernel's folded constants."""
    fam = commuting_basis(model_of(4, 1, 2))
    x0 = np.array([0.5, 0.3, -0.4, 0.6, 0.37])
    x0 /= np.linalg.norm(x0)
    p0 = np.array([0.1, 0.7, 0.5, -0.2, 0.4])
    p0 -= (x0 @ p0) * x0
    p0 /= np.linalg.norm(p0)
    rec = integrate(fam, x0, p0, dt=1e-3, steps=100_000)
    for label in ("F3", "F4"):
        series = rec.diagnostics[label]
        assert np.max(np.abs(series - series[0])) < 2e-12, label


@pytest.mark.slow
def test_long_run_energy_error_stays_bounded():
    """A symmetric symplectic splitting keeps its energy error at O(dt^2)
    with no secular drift (Hairer, Lubich and Wanner, Geometric Numerical
    Integration, ch. IX).  Over 1e6 steps the error stays below dt^2 (the
    seeded orbits reach about 0.25 dt^2), and the worst error in the last
    fifth of the run is no larger than twice the worst in the first fifth."""
    fam = commuting_basis(model_of(4, 1, 2))
    x0, p0 = seeded_state(4)
    dt = 1e-2
    rec = integrate(fam, x0, p0, dt=dt, steps=1_000_000, record_every=100)
    h_error = np.abs(rec.diagnostics["H"] - rec.diagnostics["H"][0])
    fifth = h_error.size // 5
    assert h_error.max() < dt * dt
    assert h_error[-fifth:].max() <= 2.0 * h_error[:fifth].max()


def test_drift_decreases_towards_exact_flow():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)
    drifts = []
    for dt, steps in ((1e-1, 20), (1e-2, 200), (1e-3, 2000)):
        rec = integrate(fam, x0, p0, dt=dt, steps=steps)
        drifts.append(drift_report(rec)["series"]["H"]["max_abs_drift"])
    assert drifts[0] > drifts[1] > drifts[2]


# -- picture map --------------------------------------------------------------------


def test_picture_map_conserves_kinetic_energy():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)
    rec = integrate(fam, x0, p0, dt=1e-3, steps=5000, record_every=10)
    shifted = picture_map(rec)
    report = drift_report(shifted)
    assert report["series"]["H_kin"]["max_rel_drift"] < 1e-5
    # tangency survives the shift because the field is orthogonal to X
    assert np.max(np.abs(shifted.tangency_residual)) < 1e-10


@pytest.mark.parametrize("n, alphas", [(4, (1, 2)), (5, (1, 0, 2))])
def test_diagnostics_and_residuals_match_scalar_loops(n, alphas):
    """Every diagnostic and residual of a row is the scalar loop over
    that row's floats, bit for bit, in the record and in the picture."""
    model = model_of(n, *alphas)
    family = commuting_basis(model)
    x0, p0 = seeded_state(n)
    rec = integrate(family, x0, p0, dt=1e-3, steps=300, record_every=7)
    shifted = picture_map(rec)
    polys = dict(flow._diagnostic_polys(family))
    polys["H_kin"] = kinetic_energy(n)

    def same(got, want):
        assert np.asarray(got).tobytes() == np.array(want, dtype=float).tobytes()

    for r in (rec, shifted):
        same(r.tangency_residual, [scalar_dot(x, p) for x, p in zip(r.xs, r.ps)])
        states = np.hstack([r.xs, r.ps])
        for label, series in r.diagnostics.items():
            same(series, [scalar_evaluate(polys[label], row) for row in states])
    same(rec.sphere_residual, [scalar_dot(x, x) - 1.0 for x in rec.xs])


def test_picture_map_zero_rates_is_identity():
    fam = commuting_basis(model_of(2, 0))
    x0, p0 = seeded_state(2)
    rec = integrate(fam, x0, p0, dt=1e-3, steps=100)
    shifted = picture_map(rec)
    assert np.array_equal(shifted.xs, rec.xs)
    assert np.array_equal(shifted.ps, rec.ps)


def test_picture_map_shares_positions_and_shifts_momenta():
    model = model_of(4, 1, 2)
    x0, p0 = seeded_state(4)
    rec = integrate(commuting_basis(model), x0, p0, dt=1e-3, steps=200)
    shifted = picture_map(rec)
    assert shifted.xs is rec.xs
    assert shifted.ps.tobytes() == (rec.ps + sigma_sharp(model, rec.xs)).tobytes()


def test_double_shift_breaks_conservation():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)
    rec = integrate(fam, x0, p0, dt=1e-3, steps=5000, record_every=10)
    once = picture_map(rec)
    twice = picture_map(once)
    single_drift = drift_report(once)["series"]["H_kin"]["max_rel_drift"]
    double_drift = drift_report(twice)["series"]["H_kin"]["max_rel_drift"]
    assert double_drift > 1e-3
    assert double_drift > 100 * single_drift


def test_picture_map_reads_the_model_of_its_record():
    """picture_map shifts by the model of the record's family.  When it
    took the model as a second argument, an orbit of (4; 1,2) mapped
    under (4; 1,3) read an H_kin drift of about 0.48, with no error."""
    x0, p0 = seeded_state(4)
    families = [commuting_basis(model_of(4, 1, 2)), commuting_basis(model_of(4, 1, 3))]
    for family, other in (families, families[::-1]):
        rec = integrate(family, x0, p0, dt=5e-4, steps=4000)
        shifted = picture_map(rec)
        assert shifted.family is rec.family
        assert drift_report(shifted)["series"]["H_kin"]["max_rel_drift"] < 1e-6
        wrong = picture_map(dataclasses.replace(rec, family=other))
        assert drift_report(wrong)["series"]["H_kin"]["max_rel_drift"] > 0.1


# -- bookkeeping and failure modes -----------------------------------------------------


def test_zero_steps_records_initial_state_only():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)
    rec = integrate(fam, x0, p0, dt=1e-3, steps=0)
    assert rec.times.shape == (1,)
    assert np.array_equal(rec.times, [0.0])
    report = drift_report(rec)
    assert report["series"]["H"]["max_abs_drift"] == 0.0


def test_recording_stride_includes_last_step():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)
    rec = integrate(fam, x0, p0, dt=1e-3, steps=105, record_every=10)
    assert rec.times[0] == 0.0
    assert abs(rec.times[-1] - 0.105) < 1e-15
    assert rec.times.shape == (12,)  # 0, 10, ..., 100, 105


def assert_rows_are_single_runs(family, x0, p0, steps, every):
    """Each recorded row of a run is, bit for bit, the last row of a run
    that stops at that row's step, and the first row is the projected
    initial state."""
    rec = integrate(family, x0, p0, dt=1e-2, steps=steps, record_every=every)
    ks = sorted({0, steps, *range(0, steps + 1, every)})
    assert rec.times.tolist() == [k * 1e-2 for k in ks]
    d = family.model.n + 1
    assert rec.xs.shape == rec.ps.shape == (len(ks), d)
    x, p = project_initial(x0, p0)
    assert rec.xs[0].tolist() == x.tolist() and rec.ps[0].tolist() == p.tolist()
    for row, k in enumerate(ks[1:], start=1):
        single = integrate(family, x0, p0, dt=1e-2, steps=k, record_every=k)
        assert single.times.shape == (2,)
        assert np.array_equal(rec.xs[row], single.xs[-1])
        assert np.array_equal(rec.ps[row], single.ps[-1])


@pytest.mark.parametrize("steps, every", [(0, 1), (6, 1), (10, 5), (11, 5), (3, 7), (7, 7)])
def test_recorded_rows_match_the_stride(steps, every):
    model = model_of(2, 1)
    x0, p0 = seeded_state(2)
    assert_rows_are_single_runs(commuting_basis(model), x0, p0, steps, every)


def test_orbit_rows_are_bit_identical_to_single_runs_at_n61():
    """At d = 62, with a stride that does not divide the number of steps,
    each recorded row is the last row of a run that stops there, and
    `step` is the run with steps=1."""
    model = model_of(61, *(("0", "1", "3/2", "0", "5")[k % 5] for k in range(31)))
    fam = commuting_basis(model)
    x0, p0 = seeded_state(61)
    assert_rows_are_single_runs(fam, x0, p0, 200, 9)
    x, p = project_initial(x0, p0)
    one = integrate(fam, x0, p0, dt=1e-2, steps=1)
    got_x, got_p = step(x, p, model, 1e-2)
    assert got_x == one.xs[-1].tolist() and got_p == one.ps[-1].tolist()


def test_integrate_memory_is_the_recorded_rows():
    """integrate packs the recorded rows into one block of doubles and
    copies them out, so its peak is the rows, one copy of them (the
    states the evaluator reads) and the evaluator's working chunk.  A
    Python list of the floats would take about 32 bytes per value, four
    times the 8 bytes of the record."""
    fam = commuting_basis(model_of(4, 1, 2))
    x0, p0 = seeded_state(4)
    integrate(fam, x0, p0, dt=1e-3, steps=10)  # compile the kernel and the evaluator
    tracemalloc.start()
    try:
        rec = integrate(fam, x0, p0, dt=1e-3, steps=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [rec.times, rec.xs, rec.ps, rec.sphere_residual, rec.tangency_residual,
              *rec.diagnostics.values()]
    record_bytes = sum(a.nbytes for a in arrays)
    assert peak < 2 * record_bytes + 2 * 2 ** 20, (peak, record_bytes)


def test_integrate_validates_parameters():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)
    with pytest.raises(InputError):
        integrate(fam, x0, p0, dt=0.0, steps=10)
    with pytest.raises(InputError):
        integrate(fam, x0, p0, dt=MIN_ABS_DT / 2, steps=10)
    with pytest.raises(InputError):
        integrate(fam, x0, p0, dt=1e-3, steps=-1)
    with pytest.raises(InputError):
        integrate(fam, x0, p0, dt=1e-3, steps=10, record_every=0)
    with pytest.raises(InputError):
        integrate(commuting_basis(model_of(3, 1, 1)), x0, p0, dt=1e-3, steps=10)


@pytest.mark.parametrize("seed", [2, 7])
def test_tiny_steps_stay_at_roundoff(seed):
    """Down to MIN_ABS_DT the RATTLE solve keeps the orbit on the
    constraint set and the integrals at roundoff.  Above about 1e-5 the
    drift is the O(dt^2) splitting error, which dt**2 bounds here."""
    fam = commuting_basis(model_of(4, 1, 2))
    x0, p0 = seeded_state(4, seed)
    ladder = [10.0 ** -k for k in range(3, 16, 2)] + [MIN_ABS_DT, -MIN_ABS_DT]
    for dt in ladder:
        report = drift_report(integrate(fam, x0, p0, dt=dt, steps=5))
        worst = max(entry["max_rel_drift"] for entry in report["series"].values())
        assert worst <= 1e-12 + dt * dt, dt
        assert max(report["constraints"].values()) <= 1e-14, dt


def test_series_that_overflow_are_input_errors():
    """A series with a value that overflows is named in an InputError,
    the first one in the record (here |p|^2 is finite, but the quadratic
    members and H are not) and H_kin in the picture, and numpy prints no
    warning."""
    fam = commuting_basis(model_of(2, 1))
    x0 = [1.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^the F1 series is not finite along the orbit"):
            integrate(fam, x0, [0.0, 9e153, 9e153], dt=1e-3, steps=0)
        one_row = np.zeros(1)
        rec = TrajectoryRecord(
            family=fam, times=one_row, xs=np.array([x0]), ps=np.array([[0.0, 2e154, 0.0]]),
            diagnostics={}, sphere_residual=one_row, tangency_residual=one_row,
        )
        with pytest.raises(InputError, match="^the H_kin series is not finite"):
            picture_map(rec)


def test_oversized_step_fails_loudly():
    fam = commuting_basis(model_of(2, 1))
    x0, p0 = seeded_state(2)
    with pytest.raises(StepError) as err:
        integrate(fam, x0, p0, dt=2.0, steps=10)
    assert "step" in str(err.value)


def test_step_error_names_dt_and_step():
    """At speed 10 and dt = 1 the first step cannot reach the sphere."""
    model = model_of(2, 1)
    fam = commuting_basis(model)
    x0, p0 = [1.0, 0.0, 0.0], [0.0, 10.0, 0.0]
    message = "constraint projection lost the sphere (dt=1)"
    with pytest.raises(StepError) as err:
        step(x0, p0, model, 1.0)
    assert str(err.value) == message
    with pytest.raises(StepError) as err:
        integrate(fam, x0, p0, dt=1.0, steps=3)
    assert str(err.value) == "step 1: " + message
    with pytest.raises(StepError, match=r"\(dt=nan\)"):
        step(x0, [0.0, 1.0, 0.0], model, math.nan)


@pytest.mark.parametrize("every", [1, 7])
def test_step_error_names_a_later_step(every):
    """A step that fails after others succeeded is named by its number,
    the k at which a loop of `step` calls fails."""
    model = model_of(4, 1, 2)
    fam = commuting_basis(model)
    x0, p0 = seeded_state(4, seed=1)
    x, p = project_initial(x0, p0)
    message = None
    for k in range(1, 101):
        try:
            x, p = step(x, p, model, 0.85)
        except StepError as exc:
            message = str(exc)
            break
    assert k > 1 and message == "constraint projection lost the sphere (dt=0.85)"
    with pytest.raises(StepError) as err:
        integrate(fam, x0, p0, dt=0.85, steps=100, record_every=every)
    assert str(err.value) == f"step {k}: {message}"


def test_csv_output_round_trips(tmp_path):
    model = model_of(2, 1)
    fam = commuting_basis(model)
    x0, p0 = seeded_state(2)
    rec = integrate(fam, x0, p0, dt=1e-3, steps=50, record_every=10)
    path = tmp_path / "orbit.csv"
    header = {"model": model.to_dict(), "seed": 42}
    write_csv(rec, path, header)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert json.loads(lines[0][2:]) == header
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
        family=commuting_basis(model_of(2, 1)),
        times=np.arange(rows) * 1e-3, xs=xs, ps=rng.standard_normal((rows, 3)),
        diagnostics={"H": rng.standard_normal(rows)},
        sphere_residual=rng.standard_normal(rows) * 1e-16,
        tangency_residual=np.zeros(rows),
    )
    path = tmp_path / "rows.csv"
    write_csv(rec, path, {"k": 1})
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
            family=commuting_basis(model_of(2, 1)),
            times=np.arange(rows) * 1e-3, xs=rng.standard_normal((rows, 3)),
            ps=rng.standard_normal((rows, 3)), diagnostics={"H": rng.standard_normal(rows)},
            sphere_residual=rng.standard_normal(rows) * 1e-16,
            tangency_residual=rng.standard_normal(rows) * 1e-16,
        )
        tracemalloc.start()
        try:
            write_csv(rec, tmp_path / "rows.csv", {})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(20_000), peak_bytes(200_000)
    assert abs(large - small) < 2 * 2 ** 20, (small, large)
