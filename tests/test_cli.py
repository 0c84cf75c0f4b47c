"""End-to-end coverage of the command line front-end.

Every test drives `main(argv)` in process and checks exit codes, printed
status lines, and artifact files.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import pkgutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magneflow
from magneflow import IntegralFamily, __version__
from magneflow.cli import _write_json, build_parser, main
from magneflow.flow import MAX_ABS_DT, MIN_ABS_DT
from magneflow.magnetic_model import skew_normal_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def build_family(tmp_path, capsys, n=3, alpha="1,2", name="family.json"):
    path = tmp_path / name
    code, _, _ = run(capsys, "build", "--n", str(n), "--alpha", alpha, "--out", str(path))
    assert code == 0
    return path


# -- build ---------------------------------------------------------------------


def test_build_writes_family_artifact(tmp_path, capsys):
    path = build_family(tmp_path, capsys, n=4, alpha="1,1")
    data = json.loads(path.read_text())
    assert data["artifact"] == "integral-family"
    assert data["version"] == __version__
    assert data["config"]["n"] == 4
    integrals = data["family"]["integrals"]
    assert [item["tag"] for item in integrals] == ["quad", "quad", "linear", "linear"]
    kinds = [item["provenance"]["kind"] for item in integrals]
    assert kinds == ["indicator", "limit", "killing", "killing"]


def test_build_is_deterministic(tmp_path, capsys):
    a = build_family(tmp_path, capsys, name="a.json")
    b = build_family(tmp_path, capsys, name="b.json")
    # the config echoes the output path, which differs; normalize it away
    assert a.read_bytes().replace(b"a.json", b"x.json") == \
        b.read_bytes().replace(b"b.json", b"x.json")


def test_build_rejects_bad_alphas(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert run(capsys, "build", "--n", "3", "--alpha", "1", "--out", out)[0] == 2
    assert run(capsys, "build", "--n", "3", "--alpha", "1,0.5", "--out", out)[0] == 2
    assert run(capsys, "build", "--n", "3", "--alpha", "1,,2", "--out", out)[0] == 2
    assert run(capsys, "build", "--n", "0", "--alpha", "1", "--out", out)[0] == 2


# -- verify -------------------------------------------------------------------


def test_build_then_verify_passes(tmp_path, capsys):
    family = build_family(tmp_path, capsys)
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--family", str(family),
        "--samples", "40", "--seed", "7", "--report", str(report_path),
    )
    assert code == 0
    assert out.strip() == f"verification PASS (report: {report_path})"
    report = json.loads(report_path.read_text())
    assert report["artifact"] == "verification-report"
    assert report["config"]["seed"] == 7
    body = report["report"]
    assert body["passed"] is True
    assert body["membership"]["ok"] is True
    statuses = {entry["status"] for entry in body["pair_results"]}
    assert statuses == {"zero_polynomial"}


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    family = build_family(tmp_path, capsys)
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        code, _, _ = run(
            capsys, "verify", "--family", str(family),
            "--samples", "40", "--seed", "7", "--report", str(path),
        )
        assert code == 0
    first, second = (p.read_bytes() for p in paths)
    # the config echoes the report path, which differs; normalize it away
    assert first.replace(b"r1.json", b"rX.json") == second.replace(b"r2.json", b"rX.json")


def test_verify_flags_tampered_family(tmp_path, capsys):
    family = build_family(tmp_path, capsys, n=2, alpha="1")
    data = json.loads(family.read_text())
    # replace the linear integral with X1*P1, which commutes with nothing
    bad = {"n": 2, "terms": [{"c": "1", "e": [1, 0, 0, 1, 0, 0]}]}
    assert data["family"]["integrals"][-1]["tag"] == "linear"
    data["family"]["integrals"][-1]["poly"] = bad
    family.write_text(json.dumps(data))
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--family", str(family),
        "--samples", "40", "--seed", "7", "--report", str(report_path),
    )
    assert code == 1
    assert out.startswith("verification FAIL")
    body = json.loads(report_path.read_text())["report"]
    assert body["passed"] is False
    statuses = {entry["status"] for entry in body["pair_results"]}
    assert "nonzero" in statuses


def test_verify_with_one_sample_passes(tmp_path, capsys):
    family = build_family(tmp_path, capsys, n=4, alpha="1,1")
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--family", str(family),
                     "--samples", "1", "--report", str(report_path))
    assert code == 0
    body = json.loads(report_path.read_text())["report"]
    assert body["passed"] is True
    independence = body["independence"]
    assert independence["certified"] is True
    assert (independence["rank"], independence["expected_rank"]) == (4, 4)
    assert independence["points_tried"] == 1
    assert [p["raises_rank"] for p in body["probe_results"]].count(True) == 6


def test_verify_fails_uncertified_family_with_duplicated_member(tmp_path, capsys):
    family = build_family(tmp_path, capsys, n=3, alpha="1,2")
    data = json.loads(family.read_text())
    integrals = data["family"]["integrals"]
    assert [entry["tag"] for entry in integrals[1:]] == ["linear", "linear"]
    integrals[2]["poly"] = integrals[1]["poly"]
    family.write_text(json.dumps(data))
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--family", str(family),
                       "--samples", "7", "--report", str(report_path))
    assert code == 1
    assert out.startswith("verification FAIL")
    body = json.loads(report_path.read_text())["report"]
    assert {entry["status"] for entry in body["pair_results"]} == {"zero_polynomial"}
    independence = body["independence"]
    assert independence["certified"] is False
    assert (independence["rank"], independence["expected_rank"]) == (2, 3)
    assert independence["points_tried"] == 7
    assert body["passed"] is False


def test_verify_rejects_malformed_input(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    report = str(tmp_path / "report.json")
    code, _, err = run(capsys, "verify", "--family", str(garbage), "--report", report)
    assert code == 2
    assert "error:" in err
    code, _, _ = run(capsys, "verify", "--family", str(tmp_path / "missing.json"),
                     "--report", report)
    assert code == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"artifact": "integral-family"}))
    code, _, _ = run(capsys, "verify", "--family", str(wrong), "--report", report)
    assert code == 2
    # only the build artifact is read, not the bare family object inside it
    artifact = json.loads(build_family(tmp_path, capsys, n=2, alpha="1").read_text())
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(artifact["family"]))
    code, _, err = run(capsys, "verify", "--family", str(bare), "--report", report)
    assert code == 2 and one_error_line(err)


@pytest.mark.parametrize("field, value, message", [
    ("model.n", 4.5, "'n' must be an integer, got 4.5"),
    ("model.n", "4", "'n' must be an integer, got '4'"),
    ("model.n", True, "'n' must be an integer, got True"),
    ("poly.n", 4.9, "'n' must be an integer, got 4.9"),
    ("model.alphas", "12", "'alphas' must be a list, got '12'"),
], ids=["model-n-4.5", "model-n-str", "model-n-true", "every-poly-n-4.9", "alphas-str"])
def test_verify_rejects_non_integer_dimensions_and_string_rates(tmp_path, capsys,
                                                                field, value, message):
    """int() would read each n as 4 (true as 1), and a string of rates as
    one rate per character, so verify would pass a family it misread."""
    family = build_family(tmp_path, capsys, n=4, alpha="1,2")
    data = json.loads(family.read_text())
    owner, key = field.split(".")
    records = ([data["family"]["model"]] if owner == "model"
               else [item["poly"] for item in data["family"]["integrals"]])
    for record in records:
        record[key] = value
    family.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--family", str(family), "--report", str(report))
    assert code == 2 and one_error_line(err) and message in err
    assert not report.exists()


# (literal, sha256 of the family read back) with the first coefficient
# of F1 of (3, 1,2) replaced by the literal, and the sha256 of the report
# of `verify --family f.json --report r.json`, which every accepted
# literal shares: the report fails and holds no coefficient, so the family
# digest shows the value read.  The report digest moved when the
# artifact's top-level copy of the seed was dropped, and again when the
# report dropped its copies of the seed and samples that the config holds.
LITERAL_DIGESTS = (
    ("2/4", "557a2fb007bf8828f76a13164ff09d21d16845550bba015a356d1a1ec6c7c76a"),
    (" 1/2 ", "557a2fb007bf8828f76a13164ff09d21d16845550bba015a356d1a1ec6c7c76a"),
    ("+3", "edd4d4d5785cf133a774cb0d66d5abf11ea39725fda36745bbe1e79f9d5e7dbf"),
    (3, "edd4d4d5785cf133a774cb0d66d5abf11ea39725fda36745bbe1e79f9d5e7dbf"),
    ("-0", "5c5983c70a5cb320aa6e3ccb4e19f4b555873fda24b4cac727fa2e3007c4d44a"),
)
LITERAL_REPORT_DIGEST = "5e3b21fb8d2b85b685dc54a4c62888c12bd54168e39f45f86dab11b45364d680"


def verify_with_literal(tmp_path, capsys, monkeypatch, literal):
    monkeypatch.chdir(tmp_path)
    data = json.loads(build_family(tmp_path, capsys).read_text())
    data["family"]["integrals"][0]["poly"]["terms"][0]["c"] = literal
    Path("f.json").write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--family", "f.json", "--report", "r.json")
    return code, err, data["family"]


@pytest.mark.parametrize("literal, family_digest", LITERAL_DIGESTS,
                         ids=[str(literal) for literal, _ in LITERAL_DIGESTS])
def test_verify_reads_coefficient_literals(tmp_path, capsys, monkeypatch, literal, family_digest):
    code, err, family = verify_with_literal(tmp_path, capsys, monkeypatch, literal)
    assert code == 1 and err == ""
    report = hashlib.sha256(Path("r.json").read_bytes()).hexdigest()
    assert report == LITERAL_REPORT_DIGEST
    text = json.dumps(IntegralFamily.from_dict(family).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == family_digest


@pytest.mark.parametrize("literal, message", [
    ("1/0", "zero denominator: '1/0'"),
    ("1.5", "not an exact fraction literal: '1.5'"),
    ("1e3", "not an exact fraction literal: '1e3'"),
    ("", "not an exact fraction literal: ''"),
    (True, "not an exact fraction literal: True"),
    (None, "not an exact fraction literal: None"),
])
def test_verify_rejects_coefficient_literals(tmp_path, capsys, monkeypatch, literal, message):
    code, err, _ = verify_with_literal(tmp_path, capsys, monkeypatch, literal)
    assert code == 2 and err == f"error: malformed polynomial term: {message}\n"
    assert not Path("r.json").exists()


@pytest.mark.parametrize("bad", [1.5, "2", True, -1])
def test_verify_rejects_non_integer_exponents(tmp_path, capsys, bad):
    family = build_family(tmp_path, capsys, n=2, alpha="1")
    data = json.loads(family.read_text())
    data["family"]["integrals"][0]["poly"]["terms"][0]["e"][0] = bad
    family.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--family", str(family), "--report", str(report))
    assert code == 2
    assert one_error_line(err) and "exponent" in err
    assert not report.exists()


@pytest.mark.parametrize("value, message", [
    (True, "malformed polynomial term: exponents must be a list of integers, got [True, "),
    (-1, "negative exponent in (-1, "),
    (65, "has degree above 64"),
    (256, "has degree above 64"),
])
def test_verify_rejects_out_of_range_exponents(tmp_path, capsys, value, message):
    family = build_family(tmp_path, capsys, n=2, alpha="1")
    data = json.loads(family.read_text())
    data["family"]["integrals"][0]["poly"]["terms"][0]["e"][0] = value
    family.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--family", str(family), "--report", str(report))
    assert code == 2
    assert one_error_line(err) and message in err
    assert not report.exists()


@pytest.mark.parametrize("samples", ["-1", "0"])
def test_verify_rejects_bad_sample_counts(tmp_path, capsys, samples):
    family = build_family(tmp_path, capsys)
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--family", str(family),
                       "--samples", samples, "--report", str(report))
    assert code == 2
    assert err.startswith("error:") and "--samples" in err
    assert not report.exists()


def test_verify_rejects_negative_seed(tmp_path, capsys):
    family = build_family(tmp_path, capsys)
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--family", str(family),
                       "--seed", "-5", "--report", str(report))
    assert code == 2
    assert err.startswith("error:") and "--seed" in err
    assert not report.exists()


@given(
    samples=st.one_of(st.integers(-3, 4), st.sampled_from([-2**63, -2**70])),
    seed=st.one_of(st.integers(-3, 3), st.sampled_from([-2**70, 2**64, 2**70])),
)
@settings(max_examples=40, deadline=None)
def test_verify_flag_boundary_property(samples, seed):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        family, report = Path(tmp) / "f.json", Path(tmp) / "r.json"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(["build", "--n", "2", "--alpha", "1", "--out", str(family)])
            code = main(["verify", "--family", str(family), f"--samples={samples}",
                         f"--seed={seed}", "--report", str(report)])
        written = report.exists()
    invalid = [flag for flag, ok in (("--samples", samples >= 1), ("--seed", seed >= 0)) if not ok]
    if invalid:
        assert code == 2 and one_error_line(err.getvalue()) and not written
        assert any(flag in err.getvalue() for flag in invalid)
    else:
        assert code == 0 and err.getvalue() == "" and written


# -- normal-form --------------------------------------------------------------


def test_normal_form_canonical_input(tmp_path, capsys):
    infile = tmp_path / "omega.json"
    infile.write_text(json.dumps({"omega": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}))
    out = tmp_path / "form.json"
    code, _, _ = run(capsys, "normal-form", "--in", str(infile), "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["artifact"] == "skew-normal-form"
    form = data["normal_form"]
    assert form["alphas"] == pytest.approx([1.0])
    assert form["residual"] < 1e-12
    q = np.array(form["Q"])
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)


def test_normal_form_tiny_matrices(tmp_path, capsys):
    out = tmp_path / "form.json"
    skew, symmetric = tmp_path / "skew.json", tmp_path / "symmetric.json"
    skew.write_text(json.dumps({"omega": [[0, 1e-170], [-1e-170, 0]]}))
    symmetric.write_text(json.dumps({"omega": [[0, 1e-170], [1e-170, 0]]}))
    assert run(capsys, "normal-form", "--in", str(skew), "--out", str(out))[0] == 0
    assert json.loads(out.read_text())["normal_form"]["alphas"] == [1e-170]
    out.unlink()
    code, _, err = run(capsys, "normal-form", "--in", str(symmetric), "--out", str(out))
    assert code == 2 and err.startswith("error: matrix is not skew-symmetric")
    assert not out.exists()


def test_normal_form_rejects_bad_matrices(tmp_path, capsys):
    out = str(tmp_path / "form.json")
    not_skew = tmp_path / "bad.json"
    not_skew.write_text(json.dumps({"omega": [[0, 1], [1, 0]]}))
    assert run(capsys, "normal-form", "--in", str(not_skew), "--out", out)[0] == 2
    no_key = tmp_path / "nokey.json"
    no_key.write_text(json.dumps({"data": [[0]]}))
    assert run(capsys, "normal-form", "--in", str(no_key), "--out", out)[0] == 2
    # only {"omega": ...} is read: no "matrix" key, no bare list
    for payload in ({"matrix": [[0, 1], [-1, 0]]}, [[0, 1], [-1, 0]]):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(payload))
        code, _, err = run(capsys, "normal-form", "--in", str(other), "--out", out)
        assert code == 2 and one_error_line(err)
        assert not (tmp_path / "form.json").exists()
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"omega": [[0, 1], [1]]}))
    assert run(capsys, "normal-form", "--in", str(ragged), "--out", out)[0] == 2
    # non-finite entries, and entries whose Frobenius norm overflows: exit 2,
    # and no partial artifact
    for value in (float("nan"), float("inf"), 1e200):
        matrix = tmp_path / f"{value}.json"
        matrix.write_text(json.dumps({"omega": [[0.0, value, 0.0], [-value, 0.0, 0.0], [0.0] * 3]}))
        code, _, err = run(capsys, "normal-form", "--in", str(matrix), "--out", out)
        assert code == 2 and err.startswith("error: matrix")
        assert not (tmp_path / "form.json").exists()


def test_normal_form_is_deterministic(tmp_path, capsys):
    infile = tmp_path / "omega.json"
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((6, 6))
    infile.write_text(json.dumps({"omega": (raw - raw.T).tolist()}))
    a, b = tmp_path / "first.json", tmp_path / "second.json"
    for out in (a, b):
        assert run(capsys, "normal-form", "--in", str(infile), "--out", str(out))[0] == 0
    # the config echoes the output path, which differs; normalize it away
    assert a.read_bytes().replace(b"first.json", b"x.json") == \
        b.read_bytes().replace(b"second.json", b"x.json")


def test_normal_form_near_repeated_rates(tmp_path, capsys):
    """Rates 1e-9 apart still give an orthogonal frame that reconstructs
    Omega, for the matrices Q B Q^T of five seeded orthogonal Q."""
    block = np.zeros((8, 8))
    for k, rate in enumerate([1.0, 1 + 1e-9, 1 + 2e-9, 1 + 3e-9]):
        block[2 * k, 2 * k + 1], block[2 * k + 1, 2 * k] = rate, -rate
    infile, out = tmp_path / "omega.json", tmp_path / "form.json"
    for seed in range(1, 6):
        q_rand, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 8)))
        omega = q_rand @ block @ q_rand.T
        infile.write_text(json.dumps({"omega": omega.tolist()}))
        assert run(capsys, "normal-form", "--in", str(infile), "--out", str(out))[0] == 0
        form = json.loads(out.read_text())["normal_form"]
        q = np.array(form["Q"])
        assert np.linalg.norm(q.T @ q - np.eye(8)) <= 1e-12, seed
        assert form["residual"] <= 1e-12 * np.linalg.norm(omega), seed
        rebuilt = np.zeros((8, 8))
        for k, alpha in enumerate(form["alphas"]):
            rebuilt[2 * k, 2 * k + 1], rebuilt[2 * k + 1, 2 * k] = alpha, -alpha
        assert np.linalg.norm(q @ rebuilt @ q.T - omega) <= 1e-12 * np.linalg.norm(omega), seed


_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e300, 1.7976931348623157e308,
                     5e-324, -0.0]),
)


@st.composite
def matrix_inputs(draw):
    """(JSON payload, expected to be accepted): finite skew matrices built
    as A - A^T, and matrices with a non-finite or huge entry, an entry
    that is no number (a string, a bool, an integer beyond the float
    range), a non-square or ragged shape, or no rows."""
    kind = draw(st.sampled_from(
        ["skew", "bad_entry", "non_number", "non_square", "ragged", "empty"]))
    d = draw(st.integers(1, 4))
    if kind == "skew":
        a = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d * d, max_size=d * d)))
        a = a.reshape(d, d)
        return (a - a.T).tolist(), True
    if kind == "bad_entry":
        rows = [[0.0] * d for _ in range(d)]
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e300]))
        rows[i][j] = value
        rows[j][i] = -value
        return rows, False
    if kind == "non_number":
        rows = [[0.0] * d for _ in range(d)]
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[i][j] = draw(st.sampled_from(["0", "1", True, False, 10 ** 400, -(10 ** 400)]))
        return rows, False
    if kind == "non_square":
        cols = draw(st.integers(0, 4).filter(lambda c: c != d))
        return [[draw(_ENTRIES) for _ in range(cols)] for _ in range(d)], False
    if kind == "ragged":
        return [[draw(_ENTRIES) for _ in range(k + 1)] for k in range(d + 1)], False
    return [], False


@given(matrix_inputs())
@settings(max_examples=60, deadline=None)
def test_normal_form_matrix_boundary_property(case):
    matrix, accepted = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "m.json", Path(tmp) / "form.json"
        # json.dumps writes NaN and Infinity, which json.load reads back
        src.write_text(json.dumps({"omega": matrix}))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["normal-form", "--in", str(src), "--out", str(out)])
        written = out.exists()
    if accepted:
        assert code == 0 and err.getvalue() == "" and written
    else:
        assert code == 2 and one_error_line(err.getvalue()) and not written


def test_artifacts_are_strict_json(tmp_path):
    path = tmp_path / "out.json"
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            _write_json(str(path), {"a": [1.0, {"b": value}]})
        with pytest.raises(ValueError):
            _write_json(str(path), {"e": [0, 1], "x": [1, 2, value]})
        assert not path.exists()
    _write_json(str(path), {"b": [1.0], "a": 2})
    assert path.read_text() == '{"a": 2, "b": [1.0]}\n'


def strict_constant(name):
    raise ValueError(f"{name} is not strict JSON")


ARTIFACT_RUNS = {
    "normal-form": ["--in", "m.json", "--out", "a.json"],
    "build": ["--n", "3", "--alpha", "1,2", "--out", "a.json"],
    "verify": ["--family", "f.json", "--samples", "10", "--report", "a.json"],
    "simulate": ["--n", "2", "--alpha", "1", "--dt", "1e-2", "--steps", "50",
                 "--check-picture", "--out", "a"],
}


def write_artifact(tmp_path, capsys, monkeypatch, command, *extra):
    """Run `command` with its ARTIFACT_RUNS arguments and `extra` in
    tmp_path and return the text of its JSON artifact."""
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps({"omega": [[0, 1.5, 0], [-1.5, 0, 0], [0, 0, 0]]}))
    Path("i.json").write_text(json.dumps({"x": [1.0, 0.0, 0.0], "p": [0.0, 2.0, 0.0]}))
    build_family(tmp_path, capsys, name="f.json")
    assert run(capsys, command, *ARTIFACT_RUNS[command], *extra)[0] == 0
    return Path("a.drift.json" if command == "simulate" else "a.json").read_text()


@pytest.mark.parametrize("command", ARTIFACT_RUNS)
def test_artifacts_are_one_line_of_sorted_strict_json(tmp_path, capsys, monkeypatch, command):
    text = write_artifact(tmp_path, capsys, monkeypatch, command)
    assert len(text.splitlines()) == 1 and text.endswith("\n")
    obj = json.loads(text, parse_constant=strict_constant)
    assert text == json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("command", ARTIFACT_RUNS)
def test_config_echoes_every_parsed_option(tmp_path, capsys, monkeypatch, command):
    """An artifact's config is the parsed namespace: one key per option of
    the subcommand, and the subcommand.  So two simulate runs that differ
    only in --no-normalize, whose orbits differ, echo different configs.
    The config is the only echo of the inputs: no top-level seed, no
    drift tol, and the CSV's '#' line is the header of kind trajectory."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    dests = {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}
    artifact = json.loads(write_artifact(tmp_path, capsys, monkeypatch, command))
    config = artifact["config"]
    assert set(config) == dests | {"command"} and config["command"] == command
    assert "seed" not in artifact
    if command == "simulate":
        assert "tol" not in artifact
        configs = []
        for extra in ([], ["--no-normalize"]):
            text = write_artifact(tmp_path, capsys, monkeypatch, command, "--init", "i.json", *extra)
            drift = json.loads(text)
            with open("a.csv") as fh:
                header = json.loads(fh.readline()[2:])
            assert header == {
                "artifact": "trajectory", "version": drift["version"], "config": drift["config"],
            }
            configs.append(drift["config"])
        assert configs[0] != configs[1]


def test_non_finite_artifact_is_a_defect(tmp_path, capsys, monkeypatch):
    """Every input boundary rejects non-finite values, so an artifact that
    would hold one is a defect: exit 3, and no file."""
    infile, out = tmp_path / "omega.json", tmp_path / "form.json"
    infile.write_text(json.dumps({"omega": [[0, 1], [-1, 0]]}))
    monkeypatch.setattr("magneflow.cli.skew_normal_form", lambda omega: dataclasses.replace(
        skew_normal_form(omega), alphas=np.array([math.nan])))
    code, _, err = run(capsys, "normal-form", "--in", str(infile), "--out", str(out))
    assert code == 3 and not out.exists()
    defects = [line for line in err.splitlines() if line.startswith("internal error:")]
    assert len(defects) == 1 and defects[0].startswith(
        "internal error: ValueError: Out of range float values are not JSON compliant")


# -- simulate -----------------------------------------------------------------


def test_simulate_zero_rate_great_circle(tmp_path, capsys):
    prefix = tmp_path / "run"
    code, out, _ = run(
        capsys, "simulate", "--n", "2", "--alpha", "0", "--dt", "1e-3",
        "--steps", "500", "--seed", "3", "--record-every", "10",
        "--out", str(prefix),
    )
    assert code == 0
    assert out.startswith("simulate PASS")
    drift = json.loads((tmp_path / "run.drift.json").read_text())
    assert drift["passed"] is True
    # geodesic flow: every member is conserved to machine precision
    for entry in drift["drift"]["series"].values():
        assert entry["max_rel_drift"] < 1e-10
    assert drift["drift"]["constraints"]["max_sphere_residual"] < 1e-10
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "t,X1,X2,X3,P1,P2,P3,F1,F2,H,c1,c2"
    assert len(lines) == 2 + 51


def test_simulate_coarse_step_exceeds_tolerance(tmp_path, capsys):
    prefix = tmp_path / "coarse"
    code, out, _ = run(
        capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "0.5",
        "--steps", "200", "--seed", "3", "--out", str(prefix),
    )
    assert code == 1
    assert out.startswith("simulate FAIL")
    drift = json.loads((tmp_path / "coarse.drift.json").read_text())
    assert drift["passed"] is False


def test_simulate_oversized_step_exits_one(tmp_path, capsys):
    code, _, err = run(
        capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "2.0",
        "--steps", "10", "--seed", "3", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "integration failed" in err


@pytest.mark.parametrize("steps", ["100000000000000", "10" + "0" * 20])
def test_simulate_rejects_a_record_that_cannot_fit_in_memory(tmp_path, capsys, steps):
    # 1e14 rows are about 7.8 PiB, which numpy refuses before touching
    # memory; 1e21 rows are more bytes than an address space holds.
    code, out, err = run(
        capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3",
        "--steps", steps, "--seed", "3", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert out == ""
    assert one_error_line(err)
    assert "--steps" in err and "--record-every" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_init_file_normalization(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"x": [1.0, 0.0, 0.0], "p": [0.0, 2.0, 0.0]}))

    def first_row(prefix, *extra):
        code, _, _ = run(
            capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3",
            "--steps", "5", "--init", str(init), "--out", str(tmp_path / prefix),
            *extra,
        )
        assert code == 0
        return np.loadtxt(tmp_path / f"{prefix}.csv", delimiter=",", skiprows=2)[0]

    normalized = first_row("norm")
    assert np.linalg.norm(normalized[4:7]) == pytest.approx(1.0, abs=1e-12)
    raw = first_row("raw", "--no-normalize")
    assert np.linalg.norm(raw[4:7]) == pytest.approx(2.0, abs=1e-12)


def test_simulate_rejects_bad_init(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"x": [1.0, 0.0], "p": [0.0, 1.0]}))
    code, _, _ = run(
        capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3",
        "--steps", "5", "--init", str(init), "--out", str(tmp_path / "x"),
    )
    assert code == 2
    for state in (
        {"x": [1.1, 0.0, 0.0], "p": [0.0, 1.0, 0.0]},
        {"x": [float("nan"), 0.0, 0.0], "p": [0.0, 1.0, 0.0]},
        {"x": [1.0, 0.0, 0.0], "p": [0.0, float("nan"), 0.0]},
        {"x": [1.0, 0.0, 0.0], "p": [0.0, float("inf"), 0.0]},
        {"x": [True, False, False], "p": [False, True, False]},
        {"x": ["1", "0", "0"], "p": [0.0, 1.0, 0.0]},
        {"x": [10 ** 400, 0, 0], "p": [0, 1, 0]},
        {"x": [[1.0], [0.0], [0.0]], "p": [0.0, 1.0, 0.0]},
        {"x": [1.0, 0.0, 0.0]},
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    ):
        init.write_text(json.dumps(state))
        code, _, _ = run(
            capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3",
            "--steps", "5", "--init", str(init), "--out", str(tmp_path / "x"),
        )
        assert code == 2
    assert not (tmp_path / "x.csv").exists()
    init.write_text(json.dumps({"x": [1, 0, 0], "p": [0, 1, 0]}))  # JSON integers are numbers
    code, _, _ = run(
        capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3",
        "--steps", "5", "--init", str(init), "--out", str(tmp_path / "x"),
    )
    assert code == 0


def test_simulate_huge_init_momentum(tmp_path, capsys):
    """|p|^2 overflowing is an input error; a representable but far too
    fast state is a step failure.  Neither prints a numpy warning."""
    init = tmp_path / "init.json"
    argv = ["simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3", "--steps", "5",
            "--no-normalize", "--init", str(init), "--out", str(tmp_path / "x")]
    for speed, want, prefix in ((1e200, 2, "error:"), (1e100, 1, "integration failed:")):
        init.write_text(json.dumps({"x": [1.0, 0.0, 0.0], "p": [0.0, speed, 0.0]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv)
        assert code == want
        assert caught == []
        assert len(err.splitlines()) == 1 and err.startswith(prefix)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("picture", [[], ["--check-picture"]], ids=["record", "picture"])
def test_simulate_overflowing_series_exit_two(tmp_path, capsys, picture):
    """|p|^2 is finite, so the state passes the input checks, but the
    quadratic members and H overflow: exit 2 with one error line naming
    the first such series, and no file.  (From --steps 1 on, the first
    step fails first: exit 1.)"""
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"x": [1, 0, 0], "p": [0, 9e153, 9e153]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3", "--steps", "0",
            "--init", str(init), "--no-normalize", *picture, "--out", str(tmp_path / "x"),
        )
    assert code == 2 and out == "" and one_error_line(err)
    assert caught == []
    assert err.startswith("error: the F1 series is not finite along the orbit")
    assert [p.name for p in tmp_path.iterdir()] == ["init.json"]


INIT_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200, 1e-200, 0.0, -0.0, 1.0]),
    st.floats(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.just(10 ** 400),
)
INIT_NON_LISTS = st.one_of(
    st.none(), st.booleans(), INIT_NUMBERS, st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), INIT_NUMBERS, max_size=2),
)
INIT_VECTORS = st.one_of(
    st.lists(INIT_NUMBERS, min_size=3, max_size=3),
    st.lists(INIT_NUMBERS, max_size=5),
    st.lists(st.lists(INIT_NUMBERS, max_size=3), max_size=3),
    INIT_NON_LISTS,
)


@st.composite
def near_admissible_states(draw):
    """A unit state at n=2, pushed off the sphere and given a radial
    momentum of up to ten times the 1e-6 input tolerance."""
    off = draw(st.floats(-1e-5, 1e-5))
    radial = draw(st.floats(-1e-5, 1e-5))
    speed = draw(st.sampled_from([1.0, 1e-160, 1e-3, 1e3, 1e100]))
    return {"x": [1.0 + off, 0.0, 0.0], "p": [radial, speed, 0.0]}


INIT_PAYLOADS = st.one_of(
    st.fixed_dictionaries({"x": INIT_VECTORS, "p": INIT_VECTORS}),
    near_admissible_states(),
    st.dictionaries(st.sampled_from(["x", "p", "y"]), INIT_VECTORS, max_size=2),
    INIT_VECTORS,
)


@given(payload=INIT_PAYLOADS, normalize=st.booleans())
@settings(max_examples=150, deadline=None)
def test_simulate_init_file_property(payload, normalize):
    """Whatever an --init file holds, simulate exits 0, 1 or 2 without a
    traceback or a numpy warning, and an exit 2 prints one `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        init = Path(tmp) / "init.json"
        init.write_text(json.dumps(payload))
        code = main(["simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3", "--steps", "3",
                     "--init", str(init), "--out", str(Path(tmp) / "x"),
                     *([] if normalize else ["--no-normalize"])])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert caught == []
    if code == 2:
        assert one_error_line(err)


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"),
    ("--tol", "inf"),
    ("--tol", "-1e-5"),
    ("--dt", "nan"),
    ("--dt", "1e300"),
    ("--dt", "5e-324"),
    ("--dt", "1e-20"),
    ("--seed", "-1"),
    ("--steps", "-1"),
    ("--record-every", "0"),
])
def test_simulate_rejects_bad_flag_values(tmp_path, capsys, flag, value):
    argv = {"--dt": "1e-3", "--tol": "1e-5", "--seed": "3", "--steps": "5",
            "--record-every": "1"}
    argv[flag] = value
    code, _, err = run(
        capsys, "simulate", "--n", "2", "--alpha", "1",
        *(f"{key}={val}" for key, val in argv.items()), "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert err.startswith(f"error: {flag} ") and len(err.splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2e-308, 1e-200, -1e-200, 1e300, -1e300, 1e-3, -1e-3]


def flag_is_valid(flag, value):
    """Which `simulate` flag values the front end and `integrate` accept."""
    if flag == "--dt":
        return MIN_ABS_DT <= abs(value) < MAX_ABS_DT
    if flag == "--tol":
        return math.isfinite(value) and value >= 0.0
    if flag == "--record-every":
        return value >= 1
    return value >= 0  # --steps, --seed


@given(
    dt=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(-0.1, 0.1), st.floats()),
    tol=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
    seed=st.integers(-1, 3),
    steps=st.integers(-1, 5),
    record_every=st.integers(-1, 3),
)
@settings(max_examples=60, deadline=None)
def test_simulate_flag_boundary_property(dt, tol, seed, steps, record_every):
    values = {"--dt": dt, "--tol": tol, "--seed": seed, "--steps": steps,
              "--record-every": record_every}
    # --flag=VALUE, so that argparse does not read a value like -1e-200 as a flag
    argv = [f"{flag}={value!r}" for flag, value in values.items()]
    invalid = [flag for flag, value in values.items() if not flag_is_valid(flag, value)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(["simulate", "--n", "2", "--alpha", "1", *argv,
                     "--out", str(Path(tmp) / "x")])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if invalid:
        assert code == 2
        error_lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(error_lines) == 1
        assert any(flag in error_lines[0] for flag in invalid)
    else:
        assert code in (0, 1)


def test_simulate_check_picture(tmp_path, capsys):
    prefix = tmp_path / "pic"
    code, _, _ = run(
        capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3",
        "--steps", "1000", "--seed", "3", "--record-every", "10",
        "--check-picture", "--out", str(prefix),
    )
    assert code == 0
    drift = json.loads((tmp_path / "pic.drift.json").read_text())
    picture = drift["drift"]["picture"]["series"]
    assert set(picture) == {"H_kin"}
    assert picture["H_kin"]["max_rel_drift"] < 1e-5


def test_successive_mains_do_not_share_values(tmp_path, capsys):
    """main builds its parser once per process; each call still parses
    into its own namespace, so a flag of one call leaks into no other."""
    assert build_parser() is build_parser()
    family = build_family(tmp_path, capsys, n=2, alpha="1")
    common = ["simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3", "--steps", "20"]
    configs = []
    for extra in (["--check-picture", "--seed", "3", "--record-every", "5"], []):
        prefix = tmp_path / f"run{len(configs)}"
        assert run(capsys, *common, *extra, "--out", str(prefix))[0] == 0
        drift = json.loads((tmp_path / f"{prefix.name}.drift.json").read_text())
        configs.append((drift["config"], drift["config"]["seed"], "picture" in drift["drift"]))
        code, _, _ = run(capsys, "verify", "--family", str(family),
                         "--report", str(tmp_path / "report.json"))
        assert code == 0
    (first, first_seed, first_picture), (second, second_seed, second_picture) = configs
    assert (first["check_picture"], first["record_every"], first_seed) == (True, 5, 3)
    assert (second["check_picture"], second["record_every"], second_seed) == (False, 1, 0)
    assert first_picture and not second_picture


def test_simulate_outputs_are_deterministic(tmp_path, capsys):
    argv = ["simulate", "--n", "3", "--alpha", "1,2", "--dt", "1e-3",
            "--steps", "100", "--seed", "11"]
    for prefix in ("d1", "d2"):
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / prefix))
        assert code == 0
    for suffix in (".csv", ".drift.json"):
        one = (tmp_path / f"d1{suffix}").read_bytes().replace(b"d1", b"dX")
        two = (tmp_path / f"d2{suffix}").read_bytes().replace(b"d2", b"dX")
        assert one == two


# sha256 of `simulate --check-picture` outputs (dt 1e-3, 2000 steps, seed 42).
# Both were taken when the artifact header became the only echo of the
# inputs (CSV line 1 became that header, and the drift report lost its
# top-level `seed` and `tol`); the CSV rows below line 1 and the drift
# values kept their bytes.
# A refactor keeps these bytes or changes a digest on purpose and says why.
SIMULATE_DIGESTS = (
    (4, "1,2", 1,
     "3c6f082114c6f4ea4bc07077c57ebd24c9a517870380beff3021bffdacd0a9fb",
     "312e3c5592d8173cbab54dc479a65c4cec561337a0588a61a25205577af7a116"),
    (5, "1,1,2", 7,
     "ff569fec6e2d61cde67df18dc12b93dd1a9ceee408b2d6b71b8df15f42a92148",
     "c394178df36bb13b81c3463894916515e81142a5b4e10ff432ee7b1ea3d334b2"),
)


@pytest.mark.parametrize("n, alpha, every, csv_digest, drift_digest", SIMULATE_DIGESTS,
                         ids=["n4", "n5-every7"])
def test_simulate_matches_golden_digest(tmp_path, capsys, monkeypatch,
                                        n, alpha, every, csv_digest, drift_digest):
    monkeypatch.chdir(tmp_path)  # the CSV metadata records the --out prefix
    code, _, _ = run(capsys, "simulate", "--n", str(n), "--alpha", alpha, "--dt", "1e-3",
                     "--steps", "2000", "--seed", "42", "--record-every", str(every),
                     "--check-picture", "--out", "sim")
    assert code == 0
    for name, digest in (("sim.csv", csv_digest), ("sim.drift.json", drift_digest)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("alpha, message", [
    ("1/1" + "0" * 400, "a polynomial coefficient is beyond the float range"),
    ("1" + "0" * 400, "a potential coefficient alpha^2/4 is beyond the float range"),
], ids=["1/10^400", "10^400"])
def test_simulate_rejects_rates_beyond_the_float_range(tmp_path, capsys, alpha, message):
    """The exact engine takes any rate; simulate's floats cannot."""
    code, _, err = run(capsys, "simulate", "--n", "2", "--alpha", alpha, "--dt", "1e-3",
                       "--steps", "10", "--out", str(tmp_path / "s"))
    assert code == 2 and err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())
    build_family(tmp_path, capsys, n=2, alpha=alpha)


# -- parser-level behaviour -----------------------------------------------------


REMOVED_NAMES = {"sigma_linear", "potential", "uhlenbeck_integral", "x_var", "p_var"}


def test_public_names_resolve():
    """Every name in the __all__ of the package and of each submodule
    resolves, and none of the builders that no command runs is left."""
    names = [info.name for info in pkgutil.iter_modules(magneflow.__path__)]
    modules = [magneflow] + [
        importlib.import_module(f"magneflow.{name}") for name in names if name != "__main__"
    ]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert all(hasattr(module, name) for name in exported), module.__name__
        assert not any(hasattr(module, name) for name in REMOVED_NAMES), module.__name__


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == f"magneflow {__version__}"


def test_unwritable_output_exits_two_and_defects_exit_three(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "build", "--n", "2", "--alpha", "1",
                       "--out", str(tmp_path / "missing" / "f.json"))
    assert code == 2 and one_error_line(err)

    def broken(model):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr("magneflow.cli.commuting_basis", broken)
    code, _, err = run(capsys, "build", "--n", "2", "--alpha", "1",
                       "--out", str(tmp_path / "f.json"))
    assert code == 3
    assert err.splitlines()[-1] == "internal error: RuntimeError: broken invariant"
    assert "Traceback" in err


BAD_JSON_FILES = {
    "undecodable": b"\xff\xfe\x00garbage",
    "over-nested": b"[" * 100_000 + b"]" * 100_000,
    "long-integer": b'{"x": 1' + b"0" * 5000 + b"}",
}
BAD_JSON_RUNS = {
    "verify-family": ["verify", "--family", "bad.json", "--report", "out.json"],
    "normal-form-in": ["normal-form", "--in", "bad.json", "--out", "out.json"],
    "simulate-init": ["simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3", "--steps", "5",
                      "--init", "bad.json", "--out", "out"],
}


@pytest.mark.parametrize("content", BAD_JSON_FILES.values(), ids=BAD_JSON_FILES)
@pytest.mark.parametrize("argv", BAD_JSON_RUNS.values(), ids=BAD_JSON_RUNS)
def test_unparseable_json_inputs_exit_two(tmp_path, capsys, monkeypatch, argv, content):
    """Bytes that are not UTF-8, nesting deeper than the parser's recursion
    limit and an integer beyond Python's digit limit are bad input."""
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_bytes(content)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and one_error_line(err)
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "build", "--n", "3")[0] == 2
    init = tmp_path / "init.json"
    init.write_text("{}")
    code, _, _ = run(
        capsys, "simulate", "--n", "2", "--alpha", "1", "--dt", "1e-3",
        "--steps", "5", "--init", str(init), "--seed", "4",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
