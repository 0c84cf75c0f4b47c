import json
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "reference.json").read_text())
KEY = workloads.model_key(3, "1,1")


def report_from_reference(key):
    """A verification report whose exact fields equal the reference."""
    want = REFERENCE["models"][key]
    extra = set(want["additional_integrals"])
    return {"report": {
        "passed": True,
        "pair_results": [{"left": l, "right": r, "status": s} for l, r, s in want["pairs"]],
        "membership": {"ok": True, "coefficients": want["membership"]},
        "probe_results": [
            {"label": label, "commutes_with_hamiltonian": h,
             "commutes_with_indicator_quads": q, "is_additional_integral": label in extra}
            for label, h, q in want["probe"]
        ],
    }}


@pytest.fixture
def verify_command(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report_from_reference(KEY)))
    return workloads.Command(("verify",), (str(path),), {"model": KEY})


def test_reference_report_passes(verify_command):
    assert checks.check_command(verify_command, 0, REFERENCE) == []


def test_flipped_pair_status_fails(verify_command):
    path = Path(verify_command.outputs[0])
    artifact = json.loads(path.read_text())
    artifact["report"]["pair_results"][1]["status"] = "zero_on_constraints"
    path.write_text(json.dumps(artifact))
    problems = checks.check_command(verify_command, 0, REFERENCE)
    assert "exact field pairs differs from the reference" in problems
    assert any("zero_on_constraints" in p for p in problems)


def test_flipped_probe_flag_fails(verify_command):
    path = Path(verify_command.outputs[0])
    artifact = json.loads(path.read_text())
    artifact["report"]["probe_results"][0]["is_additional_integral"] ^= True
    path.write_text(json.dumps(artifact))
    assert checks.check_command(verify_command, 0, REFERENCE) == [
        "exact field additional_integrals differs from the reference"]


def test_nonzero_exit_fails(verify_command):
    assert checks.check_command(verify_command, 1, REFERENCE) == ["exit code 1"]


def test_missing_output_fails(tmp_path):
    command = workloads.Command(("build",), (str(tmp_path / "absent.json"),), {"members": 2})
    assert checks.check_command(command, 0, REFERENCE)[0].startswith("unreadable output")


def test_reference_keeps_single_generators_out():
    for fields in REFERENCE["models"].values():
        assert all("+" in label or "-" in label for label in fields["additional_integrals"])


def test_inputs_repeat_for_a_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    workloads.prepare("verify", 7, first)
    workloads.prepare("verify", 7, second)
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_orbit_state_is_admissible_and_keeps_plane_invariants():
    base = workloads.orbit_state(np.random.default_rng(0), workloads.LONG_ORBIT)
    turned = workloads.orbit_state(np.random.default_rng(1), workloads.LONG_ORBIT)
    for x, p in (base, turned):
        assert np.linalg.norm(x) == pytest.approx(1.0)
        assert x @ p == pytest.approx(0.0, abs=1e-15)
    for k in range(2):
        i, j = 2 * k, 2 * k + 1
        (x0, p0), (x1, p1) = base, turned
        assert x0[i] ** 2 + x0[j] ** 2 == pytest.approx(x1[i] ** 2 + x1[j] ** 2)
        assert x0[i] * p0[j] - x0[j] * p0[i] == pytest.approx(x1[i] * p1[j] - x1[j] * p1[i])


def simulate_command(tmp_path, drift):
    """A finished simulate command with one row per step and the given drift."""
    prefix = tmp_path / "long"
    Path(f"{prefix}.csv").write_text("# meta\nt,x\n" + "0,0\n" * 3)
    Path(f"{prefix}.drift.json").write_text(json.dumps({"passed": True, "drift": {
        "series": {"H": {"max_rel_drift": drift}},
        "picture": {"series": {"K": {"max_rel_drift": drift / 2}}},
    }}))
    return workloads.Command(("simulate",), (f"{prefix}.csv", f"{prefix}.drift.json"),
                             {"rows": 3, "model": workloads.model_key(4, "1,2")})


def test_reference_drift_passes(tmp_path):
    drift = REFERENCE["max_rel_drift"][workloads.model_key(4, "1,2")]
    assert checks.check_command(simulate_command(tmp_path, drift), 0, REFERENCE) == []


def test_larger_drift_fails(tmp_path):
    drift = REFERENCE["max_rel_drift"][workloads.model_key(4, "1,2")] * (1 + 2 * checks.DRIFT_TOL)
    problems = checks.check_command(simulate_command(tmp_path, drift), 0, REFERENCE)
    assert len(problems) == 1 and problems[0].startswith("max_rel_drift")
