"""Constrained integrator: geometry, reversibility, order, drift, output."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

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
from magneflow.flow import CSV_CHUNK_ROWS, MIN_ABS_DT, TrajectoryRecord, _rotate


def model_of(n, *alphas):
    return MagneticModel(n=n, alphas=tuple(F(a) for a in alphas))


def seeded_state(n, seed=42):
    rng = sampling.generator(seed, 4)
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
    model = model_of(2, 2)
    rng = np.random.default_rng(1)
    x = rng.normal(size=3)
    p = rng.normal(size=3)
    tau = 0.37
    x2, p2 = _rotate(x, p, model, tau)
    phi = 2.0 * tau / 2.0  # alpha * tau / 2
    c, s = math.cos(phi), math.sin(phi)
    for before, after in ((x, x2), (p, p2)):
        assert abs(after[0] - (c * before[0] + s * before[1])) < 1e-14
        assert abs(after[1] - (-s * before[0] + c * before[1])) < 1e-14
        assert after[2] == before[2]


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
