"""The benchmark's output checks accept real outputs and reject perturbed ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from micz9 import cli  # noqa: E402

SWEEP = (2, 1, 1, 2, "3/2")  # N = 3, J != L, non-integer charge
POINTS = 24


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def flags(n, Q, L, J, Z="1"):
    return ("--n", str(n), "--Q", str(Q), "--L", str(L), "--J", str(J), "--Z", Z)


@pytest.fixture(scope="module")
def sweep_csv():
    rc, out, _ = run(
        "sweep", *flags(*SWEEP), "--mode", "float", "--log", "--points", str(POINTS),
        "--a-min", "1e-3", "--a-max", "1e6", "--format", "csv",
    )
    assert rc == 0
    return out


def check_sweep(text):
    checks.check_sweep(text, *SWEEP, 1e-3, 1e6, POINTS)


def edit_row(text, index, fn):
    lines = text.splitlines()
    lines[1 + index] = ",".join(fn(lines[1 + index].split(",")))
    return "\n".join(lines) + "\n"


def test_sweep_accepts_program_output(sweep_csv):
    check_sweep(sweep_csv)


def test_sweep_rejects_perturbed_k(sweep_csv):
    def bump(row):
        a, k, K = float(row[0]), row[1], float(row[2]) * (1 + 1e-7)
        return [row[0], k, repr(K), repr(K / a)]  # K_over_a kept consistent

    with pytest.raises(checks.CheckError, match="eigvalsh"):
        check_sweep(edit_row(sweep_csv, 40, bump))


def test_sweep_rejects_k_over_a_mismatch(sweep_csv):
    def bump(row):
        return row[:3] + [repr(float(row[3]) * (1 + 1e-12))]

    with pytest.raises(checks.CheckError, match="K_over_a"):
        check_sweep(edit_row(sweep_csv, 7, bump))


def test_sweep_rejects_missing_row_and_disorder(sweep_csv):
    lines = sweep_csv.splitlines()
    with pytest.raises(checks.CheckError, match="rows"):
        check_sweep("\n".join(lines[:-1]) + "\n")
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(checks.CheckError):
        check_sweep("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def w_record():
    rc, out, _ = run("wmatrix", "--mode", "exact", *flags(3, 2, 1, 1))  # N = 4, J = L
    assert rc == 0
    return json.loads(out)


def test_wmatrix_accepts_program_output(w_record):
    checks.check_wmatrix(json.dumps(w_record), 3, 2, 1, 1)


def test_wmatrix_rejects_perturbed_entry(w_record):
    rec = json.loads(json.dumps(w_record))
    entry = rec["payload"]["matrix"][1][2]
    entry["coeff"] = str(Fraction(entry["coeff"]) * Fraction(1000001, 1000000))
    with pytest.raises(checks.CheckError, match="W\\^T W"):
        checks.check_wmatrix(json.dumps(rec), 3, 2, 1, 1)


def test_wmatrix_rejects_orthogonal_but_wrong_columns(w_record):
    rec = json.loads(json.dumps(w_record))
    for row in rec["payload"]["matrix"]:
        row[0], row[1] = row[1], row[0]
    with pytest.raises(checks.CheckError, match="M9"):
        checks.check_wmatrix(json.dumps(rec), 3, 2, 1, 1)


@pytest.fixture(scope="module")
def verify_out():
    rc, out, _ = run("verify", *flags(1, 0, 0, 0))
    assert rc == 0
    return out


def test_verify_accepts_passing_record(verify_out):
    assert checks.check_verify(0, verify_out, "", known_fault=False) is True


def test_verify_rejects_record_missing_a_check(verify_out):
    rec = json.loads(verify_out)
    rec["payload"]["checks"] = [c for c in rec["payload"]["checks"] if c["name"] != "ode_residuals"]
    with pytest.raises(checks.CheckError, match="eleven"):
        checks.check_verify(0, json.dumps(rec), "", known_fault=False)


def test_verify_rejects_failing_check(verify_out):
    rec = json.loads(verify_out)
    rec["payload"]["checks"][3]["ok"] = False
    with pytest.raises(checks.CheckError, match="failing"):
        checks.check_verify(0, json.dumps(rec), "", known_fault=False)


def test_verify_known_fault_only_where_expected():
    err = "LimitMismatch: parabolic limit failed\n"
    assert checks.check_verify(3, "", err, known_fault=True) is False
    with pytest.raises(checks.CheckError):
        checks.check_verify(3, "", err, known_fault=False)
    with pytest.raises(checks.CheckError):
        checks.check_verify(4, "", "OrthogonalityViolation: x\n", known_fault=True)
