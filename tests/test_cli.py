"""CLI contract: payload schemas, exit codes, determinism, mode agreement."""

import contextlib
import decimal
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import micz9
from micz9 import _backend, cli, coeffs, exactscalar, interbasis, spheroidal, wavefield
from micz9.cli import SWEEP_MAX_ENTRIES, _fmt, _fmt_array, _render, main
from micz9.exactscalar import RadicalScalar, root_to_float
from micz9.sector import enumerate_sectors, validate_sector


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "micz9.cli", *argv], capture_output=True, text=True
    )


def run_json(*argv):
    out = run_cli(*argv)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


SECTOR = ("--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "1")


def verify_argv(n, Q, L, J, Z="1"):
    return ["verify", "--n", str(n), "--Q", str(Q), "--L", str(L), "--J", str(J), "--Z", str(Z)]


def test_states_exact():
    rec = run_json("states", *SECTOR)
    assert rec["schema_version"] == "1"
    assert rec["command"] == "states"
    assert rec["sector"] == {"n": 1, "Q": 0, "L": 0, "J": 0, "Z": "1"}
    p = rec["payload"]
    assert p["N"] == 2
    assert p["energy"] == "-1/50"
    assert p["alpha"] == "2/5"
    assert p["lambda_range"] == ["0", "1"]
    assert p["m9_eigenvalues"] == ["1", "-1"]


def test_states_energy_2002():
    rec = run_json("states", "--n", "2", "--Q", "0", "--L", "0", "--J", "2", "--Z", "1")
    assert rec["payload"]["energy"] == "-1/72"


def test_states_parity_error_exit_2():
    out = run_cli("states", "--n", "0", "--Q", "0", "--L", "1", "--J", "0", "--Z", "1")
    assert out.returncode == 2
    assert "ParityMismatch" in out.stderr


def test_wmatrix_exact_payload():
    rec = run_json("wmatrix", *SECTOR, "--mode", "exact")
    m = rec["payload"]["matrix"]
    assert m[0][0] == {"coeff": "1/2", "radicand": "2"}
    assert m[1][1] == {"coeff": "-1/2", "radicand": "2"}
    assert rec["payload"]["row_index"] == "lambda_ascending"


def test_m9_exact_payload():
    rec = run_json("m9", "--n", "2", "--Q", "0", "--L", "0", "--J", "2", "--Z", "1")
    p = rec["payload"]
    assert p["matrix"][0][0] == {"coeff": "-6/5", "radicand": "1"}
    assert p["matrix"][0][1] == {"coeff": "2/5", "radicand": "6"}
    assert p["trace"] == "-2"
    assert p["eigenvalues"] == ["0", "-2"]


def test_kspectrum():
    rec = run_json("kspectrum", *SECTOR, "--mode", "float", "--a", "5")
    K = [float(x) for x in rec["payload"]["K"]]
    assert abs(K[0] - (-4 - math.sqrt(17))) < 1e-12
    assert abs(K[1] - (-4 + math.sqrt(17))) < 1e-12
    assert run_json("kspectrum", *SECTOR, "--a", "5") == rec  # float is the default mode
    out = run_cli("kspectrum", *SECTOR, "--mode", "exact", "--a", "5")  # exact mode rejected
    assert out.returncode == 2
    out = run_cli("kspectrum", *SECTOR, "--mode", "float")  # missing --a
    assert out.returncode == 2


def test_non_finite_or_overflowing_focal_distance_exit_2():
    for argv in (
        ("kspectrum", "--a", "inf"),
        ("kspectrum", "--a", "1e300"),
        ("tcoeffs", "--a", "nan"),
        ("sweep", "--a-min", "1", "--a-max", "inf", "--points", "3"),
        ("sweep", "--a-min", "1", "--a-max", "1e300", "--points", "3", "--log"),
        ("limits", "--a-small", "nan"),
        ("limits", "--a-large", "inf"),
    ):
        out = run_cli(*argv[:1], *SECTOR, "--mode", "float", *argv[1:])
        assert out.returncode == 2, argv
        assert "ValidationError" in out.stderr and "Traceback" not in out.stderr, argv
    out = run_cli("kspectrum", *SECTOR, "--mode", "float", "--a", "1e300")
    assert "sqrt(float max)" in out.stderr


def test_overflowing_charge_exit_2():
    for argv in (
        ("states", "--n", "1", "--Q", "0", "--L", "0", "--J", "2", "--mode", "float",
         "--Z", "1e160"),  # Z fits a float, the energy does not
        ("verify", "--n", "0", "--Q", "0", "--L", "0", "--J", "0", "--Z", "1e400"),
        ("sweep", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "1e400",
         "--mode", "float", "--a-min", "1", "--a-max", "2", "--points", "3"),
        ("kspectrum", *SECTOR[:-2], "--Z", "7.7e154", "--mode", "float", "--a", "1"),
    ):
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert "ValidationError" in out.stderr and "Traceback" not in out.stderr, argv


@pytest.mark.parametrize(
    "argv",
    [  # a focal distance a whose aZ underflows to 0.0 is refused where aZ is formed
        ["kspectrum", *verify_argv(2, 0, 0, 2, "1e-400")[1:], "--a", "1"],
        # K(a)'s coupling per unit aZ at (2,0,0,2) is 0.1633, so at aZ = 1e-323 it rounds
        # to 0.0; limits meets the spherical distance 1e-8/Z, not finite there, first
        ["tcoeffs", *verify_argv(2, 0, 0, 2, "1e-323")[1:], "--mode", "float", "--a", "1"],
        ["limits", *verify_argv(2, 0, 0, 2, "1e-323")[1:], "--mode", "float"],
        ["limits", *verify_argv(2, 0, 0, 2, "1e-323")[1:], "--mode", "float",
         "--a-small", "1e-3", "--a-large", "1e300"],
        ["kspectrum", *verify_argv(2, 0, 0, 2, "1.5e-323")[1:], "--mode", "float", "--a", "1"],
        # Z itself rounds to 0.0, so no a has an aZ, and the default limit distances, 1e-8/Z
        # and aZ/Z, are undefined
        ["sweep", *verify_argv(2, 0, 0, 2, "1e-400")[1:], "--a-min", "1", "--a-max", "2"],
        ["limits", *verify_argv(2, 0, 0, 2, "1e-400")[1:], "--mode", "float"],
        # a subnormal focal distance rounds K(a)'s couplings to 0.0
        ["tcoeffs", *verify_argv(2, 0, 0, 2)[1:], "--mode", "float", "--a", "5e-324"],
        ["kspectrum", *verify_argv(2, 0, 0, 2)[1:], "--mode", "float", "--a", "5e-324"],
        ["limits", *verify_argv(2, 0, 0, 2)[1:], "--mode", "float", "--a-small", "5e-324"],
        # K/a overflows on a subnormal grid
        ["sweep", *SECTOR, "--mode", "float", "--a-min", "1e-320", "--a-max", "1e-319",
         "--points", "3"],
        # 1e-8/Z overflows: the default distances are not finite, named by the charge with no
        # RuntimeWarning on the way; a given a aZ of which underflows is named with the charge
        ["tcoeffs", *verify_argv(0, 2, 0, 0, "1e-320")[1:], "--a", "1e-10"],
        ["limits", *verify_argv(0, 2, 0, 0, "5e-324")[1:], "--a-small", "1e-3",
         "--a-large", "1e5"],
        ["limits", *verify_argv(0, 2, 0, 0, "1e-320")[1:], "--mode", "float"],
        ["limits", *verify_argv(0, 2, 0, 0, "5e-324")[1:], "--mode", "float"],
        # aZ = 1.5e-320 is subnormal: with fewer than 53 bits it would put K 1.6e-3 off
        ["kspectrum", *verify_argv(3, 0, 0, 0, "1e-320")[1:], "--a", "1.5"],
    ],
)
def test_underflowing_charge_or_focal_distance_exit_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ValidationError: "), err
    assert len(err) <= 200, err  # the charge is printed short, not as a full fraction
    if not any(x.startswith("--a") for x in argv):  # no focal distance given: the charge is named
        assert "focal distance a =" not in err and "Z = " in err, err


@pytest.mark.parametrize(
    "argv",
    [  # a charge that is not positive, and an empty sector that prints its charge
        ["states", "--n", "2", "--Q", "0", "--L", "0", "--J", "2", "--Z=-1e-320"],
        ["states", "--n", "0", "--Q", "0", "--L", "2", "--J", "2", "--Z=1e-320"],
    ],
)
def test_tiny_charge_in_an_error_message_is_printed_short(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert len(err) <= 200, err


@pytest.mark.parametrize("Z", [
    "1e30000000", "1e1000000", "1e-1001", "0.01e1003", "1e99999999999999999999999999",
    # no exponent, but a numerator or denominator past 1,001 digits
    pytest.param("1/1" + "0" * 2200, id="1/1e2200"),
    pytest.param("2" + "0" * 3000 + "1/3" + "0" * 3000, id="2e3000/3e3000"),
    pytest.param("0." + "0" * 2200 + "1", id="1e-2201"),
])
def test_a_charge_beyond_its_decimal_exponent_bound_exits_2_at_once(Z):
    # Fraction("1e30000000") would build 10^30000000 first: 47 s and 64 MB; str(Fraction)
    # of a charge written out in digits once passed Python's 4,300-digit limit
    argv = ["states", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", Z]
    out = subprocess.run([sys.executable, "-m", "micz9.cli", *argv],
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith(f"ValidationError: Z = {Z[:60]}") and "out of range" in out.stderr
    assert len(out.stderr.encode()) <= 200, out.stderr


@pytest.mark.parametrize("Z", ["5e-324", "1e-1000", "1000e-1003", "0.000001e160", "1.7e154",
                               "1E-5", "2.5e+1"])
def test_a_decimal_charge_inside_the_exponent_bound_is_read(Z, capsys):
    argv = ["states", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", Z]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["sector"]["Z"] == str(Fraction(Z))


@pytest.mark.parametrize("Z", ["x" * 300, "1/" * 150, "\u00e9" * 300, "1" * 300, "-" + "1" * 300],
                         ids=["letters", "slashes", "accents", "huge", "negative"])
def test_a_long_charge_is_echoed_clipped(Z, capsys):
    # not a rational, too large for a float, or not positive: one named line of at most 200 B
    assert main(["states", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", f"--Z={Z}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(("ValidationError: ", "NonpositiveCharge: ")), err
    assert err.count("\n") == 1 and len(err.encode()) <= 200, err


@pytest.mark.parametrize("log", [[], ["--log"]])
def test_sweep_whose_grid_repeats_a_point_names_the_flags(log, capsys):
    argv = ["sweep", "--n", "3", "--Q", "0", "--L", "0", "--J", "0", "--a-min", "1",
            "--a-max", "1.0000000000000002", "--points", "5", *log]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ValidationError: --points 5 ") and err.count("\n") == 1
    assert "--a-min 1.0" in err and "--a-max 1.0000000000000002" in err and "a_grid" not in err


def test_coarse_sweep_at_another_charge_reports_its_low_overlap(capsys):
    # the eigenvectors of aZ = 0.0004 and aZ = 400000 nearly swap, so the overlap is low, yet
    # ascending order labels each branch and every K is the 2 x 2 closed form's
    argv = ["sweep", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "2/5",
            "--a-min", "1e-3", "--a-max", "1e6", "--points", "2"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)["payload"]
    assert err == "" and float(payload["min_branch_overlap"]) < 0.9
    aZ = np.array([0.0004, 400000.0])
    for sign, branch in zip((-1, 1), payload["branches"]):
        K = np.array([float(point["K"]) for point in branch["points"]])
        # atol: the closed form itself cancels at the small aZ, where K ~ aZ^2/200
        expect = -4 + sign * np.sqrt(16 + aZ**2 / 25)
        np.testing.assert_allclose(K, expect, rtol=1e-12, atol=1e-14)


def test_a_fine_sweep_past_an_avoided_crossing_is_written(capsys):
    # 200 log points are coarse for (40,0,0,0), whose overlap dips below 0.9: the sweep
    # reports that and writes its branches, which are the pointwise solve's sorted K
    s = validate_sector(40, 0, 0, 0)
    argv = ["sweep", "--n", "40", "--Q", "0", "--L", "0", "--J", "0", "--a-min", "0.01",
            "--a-max", "1000", "--points", "200", "--log"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)["payload"]
    assert err == "" and float(payload["min_branch_overlap"]) < 0.9
    grid = np.logspace(-2, 3, 200)
    K, min_overlap = spheroidal.sweep_branches(s, grid)
    assert payload["min_branch_overlap"] == _fmt(min_overlap)
    assert K.tobytes() == spheroidal.separation_constants(s, grid).K.tobytes()
    assert [[point["K"] for point in b["points"]] for b in payload["branches"]] == \
        _fmt_array(K.T).tolist()


def test_unbuildable_sweep_exit_2():
    # a sweep whose eigenvector stack would need 32 TB is refused before the grid is built
    out = run_cli("sweep", *SECTOR, "--mode", "float", "--a-min", "1", "--a-max", "2",
                  "--points", "1000000000000")
    assert out.returncode == 2 and out.stdout == ""
    assert "ValidationError" in out.stderr and "Traceback" not in out.stderr
    assert f"2 to {SWEEP_MAX_ENTRIES} / N^2" in run_cli("sweep", "--help").stdout


@pytest.mark.parametrize(
    "sector",
    # n + Q/2 = 12, the n + Q/2 = 6 sectors whose O(1/a) term once broke the parabolic
    # limit, n + Q/2 = 16, where the continuant once lost its trailing components, and
    # charges far from 1, where both limits were once taken at a fixed a instead of aZ
    [(12, 0, 0, 0)]
    + [(6 - Q // 2, Q, L, J) for Q in (0, 2, 4) for L in (0, 2) for J in (0, 2)]
    + [(16, 0, 0, 0), (16, 2, 2, 2)]
    + [(3, 1, 0, 1, "1/1000"), (8, 0, 0, 0, "1000"), (8, 0, 0, 0, "100000")]
    + [(2, 0, 0, 2, "1e-160"), (2, 0, 0, 2, "1e-5")],  # K(a)'s couplings stay above 0.0
)
def test_verify_passes_past_the_desk_sweep(sector, capsys):
    assert main(verify_argv(*sector)) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["payload"]["ok"] is True


def test_verify_builds_w_once(monkeypatch, capsys):
    calls = {"w_matrix": 0, "separation_constants": 0, "tridiag_eigh": 0, "build_k_matrix": 0,
             "t_by_continuant": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(interbasis, "w_matrix")
    count(spheroidal, "separation_constants")  # one solve entry, for one a or a stack
    count(spheroidal, "tridiag_eigh")  # K(a) is solved once, at every focal distance
    count(spheroidal, "build_k_matrix")
    count(spheroidal, "t_by_continuant")  # every column of all six spectra in one call
    assert main(verify_argv(8, 0, 0, 0)) == 0, capsys.readouterr().err
    assert calls == {"w_matrix": 1, "separation_constants": 1, "tridiag_eigh": 1,
                     "build_k_matrix": 1, "t_by_continuant": 1}


def test_verify_does_each_sectors_shared_work_once(monkeypatch, capsys):
    calls = dict.fromkeys(
        ["laguerre", "_recurrence_rows", "np_recurrence", "squarefree_split", "_first_order"], 0
    )

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for module, name in [(_backend, "laguerre"), (interbasis, "_recurrence_rows"),
                         (exactscalar, "squarefree_split"), (coeffs, "np_recurrence"),
                         (spheroidal, "_first_order")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(verify_argv(8, 0, 0, 0)) == 0, capsys.readouterr().err
    # three runs for the quadrature and three for the radial and both parabolic equations
    # together, not three each
    assert calls["laguerre"] == 6
    assert calls["_recurrence_rows"] == 1  # w_recurrence_exact reads the rows of W's proof
    # one exact G, read by W's build and by one first-order frame, which the parabolic distance
    # and the parabolic check share; no float W^T Lambda W
    assert calls["np_recurrence"] == 2
    assert calls["_first_order"] == 1
    # 9 row roots and 5 column roots in w_matrix, the other 4 columns mirrors at L = J, and M9's
    # 8 couplings; the brute force reads W's roots
    assert calls["squarefree_split"] == 22


def test_verify_evaluates_m9_once(monkeypatch, capsys):
    calls = 0
    original = coeffs._m9_offdiag_sq

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(coeffs, "_m9_offdiag_sq", counted)
    for Z in ("1", "2/5"):  # the exact layers are cached per (n, Q, L, J), whatever the charge
        coeffs.m9_tridiagonal.cache_clear()
        spheroidal._k_pencil.cache_clear()
        calls = 0
        assert main(verify_argv(8, 0, 0, 0, Z)) == 0, capsys.readouterr().err
        assert calls == 8, Z  # the N - 1 couplings of M9, each once


@pytest.mark.slow
def test_verify_sweep_to_sixteen(capsys):
    """Opt-in (pytest -m slow): verify on every sector with n + Q/2 <= 16, Q, L, J <= 4."""
    failed = []
    for s in enumerate_sectors(16, 4, 4):
        code = main(verify_argv(s.n, s.Q, s.L, s.J))
        capsys.readouterr()
        if code != 0:
            failed.append((s.n, s.Q, s.L, s.J, code))
    assert not failed


@pytest.mark.parametrize("sector", [(3, 0, 0, 0), (2, 0, 0, 2), (0, 2, 0, 0), (5, 2, 2, 2)])
def test_verify_record_is_the_same_at_every_charge(sector, capsys):
    # verify's focal distances are aZ and its radial points Zr, and no kernel reads Z: the
    # record at any charge is the Z = 1 record but for the sector's Z (at 1e-400 and 1e-320
    # verify once exited 2, and from 1e62 it exited 3)
    assert main(verify_argv(*sector)) == 0
    at_one = capsys.readouterr().out.splitlines()
    for Z in ("1e-400", "1e-320", "1e-300", "2/5", "1e60", "1e150"):
        assert main(verify_argv(*sector, Z)) == 0, (Z, capsys.readouterr().err)
        lines = capsys.readouterr().out.splitlines()
        differ = [(x, y) for x, y in zip(lines, at_one) if x != y]
        assert len(lines) == len(at_one)
        assert differ == [(f'    "Z": "{Fraction(Z)}"', '    "Z": "1"')], Z


def test_verify_at_extreme_charges_checks_what_it_checks_at_one(capsys):
    # at Z = 1e-17 aZ was at most 1e-15, where K(a) = -Lambda to the last bit and the
    # eigenproblem's orthogonality read exactly 0; at Z = 1e62 alpha r left the float range
    assert main(verify_argv(3, 0, 0, 0, "1e-17")) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["payload"]["checks"]}
    assert checks["spheroidal_eigenproblem"]["detail"].endswith(
        "orthogonality 6.6613381477509392e-16")
    assert main(verify_argv(3, 0, 0, 0, "1e62")) == 0, capsys.readouterr().err


@pytest.mark.parametrize("a", [1.5, 37.5])
@pytest.mark.parametrize("Z", ["2/5", "7/3", "1e-300", "1e150"])
def test_kspectrum_at_a_charge_is_kspectrum_at_its_az(a, Z, capsys):
    # the charge enters once, as aZ = a float(Z): the K bits are those of Z = 1 at that aZ
    flags = ["--n", "4", "--Q", "2", "--L", "1", "--J", "1"]
    assert main(["kspectrum", *flags, "--Z", Z, "--a", repr(a)]) == 0
    at_z = json.loads(capsys.readouterr().out)["payload"]
    assert main(["kspectrum", *flags, "--Z", "1", "--a", repr(a * float(Fraction(Z)))]) == 0
    at_one = json.loads(capsys.readouterr().out)["payload"]
    assert at_z["a"] == repr(a) and at_z["K"] == at_one["K"]


def test_closed_stdout_exits_141_with_no_traceback():
    # a reader that stops early, like | head -c 50: one stated code and an empty stderr
    argv = ["sweep", *SECTOR, "--a-min", "1e-3", "--a-max", "1e6", "--points", "20000", "--log",
            "--format", "csv"]
    child = subprocess.Popen([sys.executable, "-m", "micz9.cli", *argv], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    assert child.stdout.read(50).startswith(b"a,n_k,K,K_over_a\n")
    child.stdout.close()
    assert child.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT == 141
    assert child.stderr.read() == b""
    child.stderr.close()


def test_help_to_a_closed_stdout_exits_141_with_no_traceback():
    read, write = os.pipe()
    os.close(read)  # closed before the child writes a byte
    child = subprocess.run([sys.executable, "-m", "micz9.cli", "sweep", "--help"], stdout=write,
                           stderr=subprocess.PIPE, timeout=60)
    os.close(write)
    assert child.returncode == 141 and child.stderr == b""


def test_verify_passes_where_the_parabolic_limit_once_failed(capsys):
    # at the old fixed aZ = 1e6 the column error was 1.03e-4 against a tol of 1e-4
    assert main(verify_argv(48, 0, 0, 0)) == 0, capsys.readouterr().err


def test_verify_records_a_residual_past_the_float_range(monkeypatch, capsys):
    # at Z = 1e60 alpha r reached 1e59 and one radial state overflowed; verify's points are
    # Zr now, so it passes there, and points far out stand in: verify reports the overflow as a
    # failed check in its record (exit 3) instead of a warning and "max residual nan"
    assert main(verify_argv(5, 2, 2, 2, "1e60")) == 0, capsys.readouterr().err
    capsys.readouterr()
    original = wavefield.ode_residuals

    def far_out(s, which, pts):  # radial points 1e60 times farther; cos(theta) as it is
        return original(s, which, pts * 1e60 if which != "angular" else pts)

    monkeypatch.setattr(wavefield, "ode_residuals", far_out)
    assert main(verify_argv(5, 2, 2, 2)) == 3
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["payload"]["checks"]}
    assert [name for name, c in checks.items() if not c["ok"]] == ["ode_residuals"]
    assert checks["ode_residuals"]["detail"] == "max relative residual inf"


@pytest.mark.slow
@pytest.mark.parametrize("sector", [(64, 0, 0, 0), (100, 0, 0, 0), (100, 4, 4, 4), (90, 3, 1, 4)])
def test_verify_passes_at_large_n(sector, capsys):
    """Opt-in (pytest -m slow): the parabolic limit at its default distance holds up to N = 101."""
    assert main(verify_argv(*sector)) == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "module, name, wrong, failing, code",
    [
        (interbasis, "w_via_cg", [(0, 0)], "cg_oracle_exact", 4),  # internal
        (wavefield, "w_overlap_stable", 12345.0, "quadrature_overlap", 3),  # numerical
    ],
)
def test_verify_exit_code_follows_failing_check(
    module, name, wrong, failing, code, monkeypatch, capsys
):
    monkeypatch.setattr(module, name, lambda *args, **kw: wrong)
    assert main(["verify", *SECTOR[:-2]]) == code
    out, err = capsys.readouterr()
    rec = json.loads(out)
    assert rec["payload"]["ok"] is False
    assert [c["name"] for c in rec["payload"]["checks"] if not c["ok"]] == [failing]
    error = "InternalConsistencyError" if code == 4 else "NumericalError"
    assert err == f"{error}: verify failed {failing}\n"


def test_verify_failure_line_stays_short(monkeypatch, capsys):
    # every check failing at once names more than 200 B of checks: the line is cut there
    assert main(["verify", *SECTOR]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["payload"]["checks"]]
    monkeypatch.setattr(cli, "_verify_checks", lambda s: ((name, False, "") for name in names))
    assert main(["verify", *SECTOR]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"InternalConsistencyError: verify failed {names[0]} {names[1]} ")
    assert err.endswith("...\n") and len(err.encode()) == 201 and err.count("\n") == 1


@pytest.mark.parametrize("residual", [Fraction(1, 10**400), Fraction(10**400)])
def test_verify_recurrence_residual_is_judged_exactly(residual, monkeypatch, capsys):
    # below the smallest float and above the largest: neither may pass or overflow
    original = interbasis.w_recurrence_residual

    def tampered(W):
        resid = original(W)
        resid[0][0] = RadicalScalar(residual)
        return resid

    monkeypatch.setattr(interbasis, "w_recurrence_residual", tampered)
    assert main(["verify", *SECTOR]) == 4
    rec = json.loads(capsys.readouterr().out)
    failed = [c for c in rec["payload"]["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["w_recurrence_exact"]
    assert failed[0]["detail"] != "max residual 0"


def test_verify_runs_on_the_python_310_localcontext(monkeypatch, capsys):
    # decimal.localcontext takes keyword arguments only from Python 3.11 on
    real = decimal.localcontext
    monkeypatch.setattr(decimal, "localcontext", lambda ctx=None: real(ctx))
    assert main(["verify", *SECTOR]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["payload"]["ok"] is True


def test_tcoeffs():
    rec = run_json("tcoeffs", *SECTOR, "--mode", "float", "--a", "5")
    branches = rec["payload"]["branches"]
    assert len(branches) == 2
    for b in branches:
        assert float(b["max_diff_vs_inverse_iteration"]) < 1e-10


def test_sweep_csv():
    out = run_cli(
        "sweep", *SECTOR, "--mode", "float", "--format", "csv",
        "--a-min", "0.1", "--a-max", "10", "--points", "5", "--log",
    )
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "a,n_k,K,K_over_a"
    assert len(lines) == 1 + 5 * 2  # one row per (grid point, branch)
    a0, nk0, K0, Kov0 = lines[1].split(",")
    assert float(a0) == 0.1 and nk0 == "0"
    assert abs(float(K0) / float(a0) - float(Kov0)) < 1e-12


def test_sweep_record_mode():
    rec = run_json(
        "sweep", *SECTOR, "--mode", "float",
        "--a-min", "0.5", "--a-max", "2.0", "--points", "3",
    )
    assert len(rec["payload"]["branches"]) == 2
    assert len(rec["payload"]["branches"][0]["points"]) == 3


@pytest.mark.parametrize(
    "sector",
    # N = 1, 2, 15 and 21, whose 4,200 CSV rows span two of cli._CSV_CHUNK_ROWS; then N = 3
    # from a = 1e-16, where K = 7.7e-35 and K/a = -8e16 lie past both ends of the range that
    # cli._fmt_fields writes itself, 1e-4 <= |v| < 1e16
    [(0, 0, 0, 0, "1"), (2, 0, 0, 2, "7/3"), (14, 0, 0, 0, "1"), (22, 0, 0, 4, "1"),
     (2, 0, 0, 0, "1", -16, 3)],
)
def test_sweep_text_matches_per_value_rendering(sector, capsys):
    n, Q, L, J, Z, *decades = sector
    lo, hi = decades or (-3, 6)
    flags = [*verify_argv(n, Q, L, J, Z)[1:], "--mode", "float", "--log", "--points", "200",
             "--a-min", f"1e{lo}", "--a-max", f"1e{hi}"]
    grid = np.logspace(lo, hi, 200)  # a; the kernels take aZ
    K = spheroidal.sweep_branches(validate_sector(n, Q, L, J), grid * float(Fraction(Z)))[0]
    cell = {  # (point, branch) -> the three printed values, one format call each
        (i, k): [format(float(x), ".17g") for x in (a, K[i, k], K[i, k] / a)]
        for i, a in enumerate(grid) for k in range(K.shape[1])
    }
    if decades:
        values = np.abs([float(v) for cells in cell.values() for v in cells])
        assert values.min() < 1e-4 and values.max() >= 1e16
    assert main(["sweep", *flags, "--format", "csv"]) == 0
    rows = "".join(f"{a},{k},{K},{r}\n" for (i, k), (a, K, r) in cell.items())
    assert capsys.readouterr().out == "a,n_k,K,K_over_a\n" + rows
    assert main(["sweep", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["branches"] == [
        {"n_k": k, "points": [
            dict(zip(("a", "K", "K_over_a"), cell[i, k])) for i in range(grid.size)
        ]}
        for k in range(K.shape[1])
    ]


def test_sweep_never_runs_the_sign_convention(monkeypatch, capsys):
    # sweep reads its columns only through |<T_p, T_p+1>|, which no column's sign changes:
    # its K and overlap are those of the signed spectrum bit for bit
    s = validate_sector(5, 2, 1, 1, Fraction(7, 3))
    flags = [*verify_argv(5, 2, 1, 1, "7/3")[1:], "--mode", "float", "--log", "--points", "200",
             "--a-min", "1e-3", "--a-max", "1e6"]
    grid = np.logspace(-3, 6, 200)
    signed = spheroidal.separation_constants(s, grid * (7 / 3))
    rows = "".join(f"{_fmt(a)},{k},{_fmt(K)},{_fmt(K / a)}\n"
                   for a, Ks in zip(grid, signed.K) for k, K in enumerate(Ks))
    T = signed.T
    overlap = np.abs(np.einsum("pij,pij->pj", T[:-1], T[1:])).min()

    def refuse(*args, **kwargs):
        raise AssertionError("sweep ran the sign convention")

    monkeypatch.setattr(spheroidal, "sign_fix_columns", refuse)
    assert main(["sweep", *flags, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "a,n_k,K,K_over_a\n" + rows
    assert main(["sweep", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["min_branch_overlap"] == _fmt(overlap)
    K_s = [[point["K"] for point in branch["points"]] for branch in payload["branches"]]
    assert K_s == _fmt_array(signed.K.T).tolist()


def _sweep_record(s, grid):
    """The sweep record as one whole dict over a grid of a, a _fmt call per printed value."""
    Ks, min_overlap = spheroidal.sweep_branches(s, grid * float(s.Z))
    branches = [
        {"n_k": k, "points": [
            {"a": _fmt(a), "K": _fmt(K), "K_over_a": _fmt(K / a)}
            for a, K in zip(grid, Ks[:, k])
        ]}
        for k in range(s.size)
    ]
    return {"schema_version": cli.SCHEMA_VERSION, "command": "sweep",
            "sector": cli._sector_record(s), "mode": "float",
            "payload": {"min_branch_overlap": _fmt(min_overlap), "branches": branches}}


@pytest.mark.parametrize("sector, points", [
    ((0, 0, 0, 0, "1"), 2 * cli._CSV_CHUNK_ROWS + 1),  # N = 1, three chunks
    ((2, 0, 0, 2, "7/3"), cli._CSV_CHUNK_ROWS + 904),  # N = 3, two chunks per branch
])
def test_sweep_record_streams_the_rendering_of_the_whole_record(sector, points, capsys):
    n, Q, L, J, Z = sector
    assert main(["sweep", *verify_argv(n, Q, L, J, Z)[1:], "--log", "--points", str(points),
                 "--a-min", "1e-2", "--a-max", "1e5"]) == 0
    grid = np.logspace(-2, 5, points)
    record = _sweep_record(validate_sector(n, Q, L, J, Fraction(Z)), grid)
    assert capsys.readouterr().out == _render(record) + "\n"


def test_float_commands_never_build_the_exact_pencil(monkeypatch, capsys):
    # the float pencil is rounded from the integers of coeffs.k_pencil: no Fraction entry,
    # which only coeffs._k_entries builds
    flags = verify_argv(5, 2, 1, 1, "7/3")[1:]
    argvs = [["verify", *flags], ["kspectrum", *flags, "--a", "2.5"],
             ["sweep", *flags, "--log", "--points", "200", "--a-min", "1e-3", "--a-max", "1e6",
              "--format", "csv"]]
    outputs = []
    for argv in argvs:
        spheroidal._k_pencil.cache_clear()
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("a float command built the exact pencil")

    monkeypatch.setattr(coeffs, "_k_entries", refuse)
    for argv, out in zip(argvs, outputs):
        spheroidal._k_pencil.cache_clear()
        assert main(argv) == 0, capsys.readouterr().err
        assert capsys.readouterr().out == out


# One CLI call in a fresh interpreter; its own peak RSS (VmHWM) in KB goes to stderr after its
# output.  Not ru_maxrss: a child's starts at the RSS its parent had when it was spawned, which a
# long pytest session makes large.
_PEAK_HWM = """
import sys
from micz9.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")),
      file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.slow
def test_sweep_csv_memory_stays_bounded_on_a_long_grid(tmp_path):
    """Opt-in (pytest -m slow): 2^20 points at N = 1, 26 MB of CSV, in under 120 MB of RSS."""
    points = 1 << 20
    argv = ["sweep", "--n", "0", "--Q", "0", "--L", "0", "--J", "0", "--log",
            "--points", str(points), "--a-min", "1e-3", "--a-max", "1e6", "--format", "csv"]
    out = tmp_path / "sweep.csv"
    with out.open("w") as f:
        run = subprocess.run([sys.executable, "-c", _PEAK_HWM, *argv], stdout=f,
                             stderr=subprocess.PIPE, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stderr) < 120 * 1024  # 88 MB measured, numpy 2 on x86-64 Linux
    grid = np.logspace(-3, 6, points)
    Ks = spheroidal.sweep_branches(validate_sector(0, 0, 0, 0), grid)[0]
    want = hashlib.sha256(b"a,n_k,K,K_over_a\n")
    step = 1 << 16
    for lo in range(0, points, step):  # one format call per value, a slice at a time
        rows = zip(grid[lo : lo + step], Ks[lo : lo + step, 0])
        want.update("".join(f"{_fmt(a)},0,{_fmt(K)},{_fmt(K / a)}\n" for a, K in rows).encode())
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want.hexdigest()


@pytest.mark.slow
def test_sweep_record_memory_stays_bounded_on_a_long_grid(tmp_path):
    """Opt-in (pytest -m slow): a 2^18-point record at N = 1, 40 MB of text, in under 100 MB."""
    points = 1 << 18
    argv = ["sweep", "--n", "0", "--Q", "0", "--L", "0", "--J", "0", "--log",
            "--points", str(points), "--a-min", "1e-3", "--a-max", "1e6"]
    out = tmp_path / "sweep.json"
    with out.open("w") as f:
        run = subprocess.run([sys.executable, "-c", _PEAK_HWM, *argv], stdout=f,
                             stderr=subprocess.PIPE, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stderr) < 100 * 1024
    record = _sweep_record(validate_sector(0, 0, 0, 0), np.logspace(-3, 6, points))
    assert out.read_text() == _render(record) + "\n"


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
@example(np.array([5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0, np.inf, -np.inf, np.nan]))
# the ends of _fmt_fields' fixed-notation range, and the floats next to powers of ten
@example(np.array([1e-4, np.nextafter(1e-4, 0), 9.9999999999999995e-5, 9.99999999999999912e-5,
                   -1e-4, 1e16, np.nextafter(1e16, 0), 9999999999999998.0, -1e16, 1e17]))
@example(np.array([[0.1, 0.99999999999999994, 1.0, 9.9999999999999982, 10.0],
                   [99.999999999999986, 1e15, np.nextafter(1e15, 0), 999999999999999.88, 1.5]]))
def test_fmt_array_matches_fmt_elementwise(x):
    text = _fmt_array(x)
    assert text.shape == x.shape
    assert text.ravel().tolist() == [_fmt(v) for v in x.ravel()]


def _neighbours(x, steps):
    """x and its nearest `steps` floats on either side."""
    out, down, up = [x], x, x
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def test_fmt_array_matches_percent_on_a_million_values():
    # seeded: random mantissas in every decade from 1e-6 to 1e18, both signs, with their
    # neighbours; every power of ten from 1e-5 to 1e17 with 200 floats on either side;
    # 17-digit ties; and the values _fmt_fields leaves to "%.17g" itself
    rng = np.random.default_rng(44)
    decades = (1 + 9 * rng.random((24, 7000))) * 10.0 ** np.arange(-6, 18)[:, None]
    powers = 10.0 ** np.arange(-5, 18)
    x = np.concatenate([
        _neighbours(np.concatenate([decades.ravel(), -decades.ravel()]), 1),
        _neighbours(np.concatenate([powers, -powers]), 200),
        *(int(1.2345678901234567 * 10**X) + (2 * np.arange(-5000, 5000) + 1) / 2 ** (17 - X)
          for X in (13, 14, 15)),  # ties at the 17th digit, 1234567890123456 + (2i+1)/4 and such
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf, np.nan],
    ])
    assert x.size > 10**6
    assert _fmt_array(x).tolist() == ("%.17g\n" * x.size % tuple(x.tolist())).splitlines()


# quotes, backslashes, control and non-ASCII characters, and any other code point
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
                | st.characters())
_RECORDS = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_RECORDS)
@example({"a": [], "b": {}, "c": [{}, [[]]], "": None})
def test_render_is_json_dumps_indent_2(x):
    assert _render(x) == json.dumps(x, indent=2)


_FLOAT_AT_A = ["--mode", "float", "--a", "1.5"]


@pytest.mark.parametrize("sector", [("1", "0", "0", "0"), ("4", "2", "0", "2")])
@pytest.mark.parametrize(
    "command",
    [
        *(["states", "--mode", m] for m in ("exact", "float")),
        *(["wmatrix", "--mode", m] for m in ("exact", "float")),
        *(["m9", "--mode", m] for m in ("exact", "float")),
        ["kspectrum", *_FLOAT_AT_A],
        ["tcoeffs", *_FLOAT_AT_A],
        ["limits", "--mode", "float"],
        ["sweep", "--mode", "float", "--a-min", "0.1", "--a-max", "10", "--points", "5"],
        ["verify"],
    ],
    ids=" ".join,
)
def test_every_record_is_its_own_indent_2_rendering(command, sector, capsys):
    n, Q, L, J = sector
    assert main([*command, "--n", n, "--Q", Q, "--L", L, "--J", J]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_limits():
    rec = run_json("limits", *SECTOR, "--mode", "float")
    p = rec["payload"]
    assert max(float(x) for x in p["spherical"]["value_errors"]) < 1e-12
    assert max(float(x) for x in p["parabolic"]["column_errors"]) < 1e-4
    assert p["parabolic"]["branch_np"] == [0, 1]


@pytest.mark.parametrize("flag", [["--a-small", "0.5"], ["--a-large", "1e4"]])
def test_limit_mismatch_names_only_the_worst_branches(flag, capsys):
    # N = 21: the whole per-branch error arrays used to go to stderr
    argv = ["limits", "--n", "20", "--Q", "0", "--L", "0", "--J", "0", "--mode", "float", *flag]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("LimitMismatch: ") and "at n_k = " in err, err
    assert len(err) <= 200, err


@pytest.mark.parametrize("Z", ["1/1000", "1000"])
def test_limits_default_distances_follow_the_charge(Z, capsys):
    # the kernels take the same aZ at every charge, printed in the user's a, aZ/Z; so the
    # errors are those of Z = 1, bit for bit
    argv = ["limits", "--n", "8", "--Q", "0", "--L", "0", "--J", "0", "--mode", "float"]
    assert main([*argv, "--Z", Z]) == 0, capsys.readouterr().err
    p = json.loads(capsys.readouterr().out)["payload"]
    assert main([*argv, "--Z", "1"]) == 0, capsys.readouterr().err
    at_one = json.loads(capsys.readouterr().out)["payload"]
    zf = float(Fraction(Z))
    assert float(p["spherical"]["a_small"]) == spheroidal.SPHERICAL_AZ / zf == 1e-8 / zf
    # where the first-order correction is ten times the tol
    aZ = spheroidal.parabolic_distance(interbasis.w_matrix(validate_sector(8, 0, 0, 0)))
    assert float(p["parabolic"]["a_large"]) == aZ / zf
    for limit, a in (("spherical", "a_small"), ("parabolic", "a_large")):
        assert {**p[limit], a: None} == {**at_one[limit], a: None}


@pytest.mark.parametrize("flag", ["--a-small", "--a-large"])
def test_limits_keeps_a_given_focal_distance_even_at_zero(flag, capsys):
    # a given flag replaces its default even when it is falsy: 0 is refused, not defaulted
    assert main(["limits", *SECTOR, "--mode", "float", flag, "0"]) == 2
    assert capsys.readouterr().err == f"ValidationError: limits needs {flag} > 0\n"


@pytest.mark.parametrize("flag, a", [("--a-small", "-1"), ("--a-small", "0"),
                                     ("--a-large", "-1"), ("--a-large", "0")])
def test_limits_refuses_a_distance_that_is_not_positive_in_the_users_a(flag, a, monkeypatch,
                                                                        capsys):
    # at Z = 2/5 the kernel would see aZ = -0.4 for a = -1: the refusal names the flag, as
    # kspectrum's names --a, and no aZ that the user did not give; W is not built first
    monkeypatch.setattr(interbasis, "w_matrix", lambda s: pytest.fail("W built"))
    argv = ["limits", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "2/5", flag, a]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"ValidationError: limits needs {flag} > 0\n"


def test_a_log_sweep_to_the_largest_float_is_refused_in_one_line(capsys):
    # 10**log10(a_max) rounds past the largest float: numpy's overflow warning (an error
    # under this suite's filterwarnings) and the kernel's "aZ = inf" are not what is printed
    argv = ["sweep", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--a-min", "1e-3",
            "--a-max", "1.7976931348623157e308", "--points", "5", "--log"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("ValidationError: --a-max 1.7976931348623157e+308 "), err


@pytest.mark.parametrize("Z, flags", [("1e-310", ["--a-small", "1e3", "--a-large", "1e300"]),
                                      ("1e-305", ["--a-large", "1e300"])])
def test_limits_computes_no_default_for_a_given_distance(Z, flags, monkeypatch, capsys):
    # the parabolic default, at least 1e4 / Z, is not finite at these charges: a given
    # distance replaces it uncomputed, so the error names what fails at the distances used,
    # a Z = 1e300 Z below the parabolic check's 1e4, and no first-order frame is built
    calls = 0
    original = spheroidal._first_order

    def counted(W):
        nonlocal calls
        calls += 1
        return original(W)

    monkeypatch.setattr(spheroidal, "_first_order", counted)
    assert main(["limits", "--n", "3", "--Q", "0", "--L", "0", "--J", "0", "--Z", Z, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"ValidationError: a_large Z = 1e+300 * {Z} must be at least 1e4\n"
    assert calls == 0


def test_limits_refuses_a_small_a_large_before_any_solve(monkeypatch, capsys):
    # at (2,0,0,2) the spherical check fails at a_small = 0.5 (LimitMismatch, exit 3): the
    # a_large refusal comes first, before K(a) is built at either distance
    monkeypatch.setattr(spheroidal, "separation_constants", lambda s, a: pytest.fail("solved"))
    argv = ["limits", "--n", "2", "--Q", "0", "--L", "0", "--J", "2", "--a-small", "0.5",
            "--a-large", "100"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "ValidationError: a_large Z = 100.0 * 1 must be at least 1e4\n"


@pytest.mark.parametrize("flags, err", [
    (["--a-large", "100"], "a_large Z = 100.0 * 1 must be at least 1e4"),
    (["--Z", "1e-300", "--a-small", "1e-10", "--a-large", "100"],  # --a-small is named first
     "focal distance a = 1e-10 at Z = 1e-300 gives aZ = 1e-310, "
     "not a finite normal positive float"),
], ids=["a_large", "a_small_first"])
def test_limits_refuses_a_given_distance_before_w_is_built(flags, err, monkeypatch, capsys):
    # exact W at N = 61 takes about 0.1 s, which a refused flag does not wait for
    monkeypatch.setattr(interbasis, "w_matrix", lambda s: pytest.fail("W built"))
    assert main(["limits", "--n", "60", "--Q", "0", "--L", "0", "--J", "0", *flags]) == 2
    assert capsys.readouterr() == ("", f"ValidationError: {err}\n")


@pytest.mark.parametrize("command", ["kspectrum", "tcoeffs"])
def test_a_missing_focal_distance_is_named_before_the_sector_is_read(command, capsys):
    # --a is a required flag: its absence is a flag error, reported before a bad sector
    assert main([command, "--n", "-1", "--Q", "0", "--L", "0", "--J", "0"]) == 2
    assert capsys.readouterr() == ("", f"ValidationError: {command} needs --a\n")


def test_verify_trivial_sector():
    out = run_cli("verify", "--n", "0", "--Q", "0", "--L", "0", "--J", "0", "--Z", "1")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["payload"]["ok"] is True
    names = [c["name"] for c in rec["payload"]["checks"]]
    assert "quadrature_overlap" in names and "parabolic_limit" in names


def test_verify_determinism():
    a = run_cli("verify", "--n", "2", "--Q", "1", "--L", "1", "--J", "0", "--Z", "1")
    b = run_cli("verify", "--n", "2", "--Q", "1", "--L", "1", "--J", "0", "--Z", "1")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_twice_in_one_process_prints_the_same(capsys):
    # the second run reads the cached Gauss rules, K(a) pencils and M9: nothing
    # the first run computed in place may have changed them
    argv = verify_argv(3, 1, 0, 1, "2/5")
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_float_exact_agreement():
    ex = run_json("states", *SECTOR, "--mode", "exact")["payload"]
    fl = run_json("states", *SECTOR, "--mode", "float")["payload"]
    for key in ("energy", "alpha"):
        want = float(Fraction(ex[key]))
        got = float(fl[key])
        assert abs(got - want) <= 2 * math.ulp(max(abs(want), 1e-300))
    exw = run_json("wmatrix", *SECTOR, "--mode", "exact")["payload"]["matrix"]
    flw = run_json("wmatrix", *SECTOR, "--mode", "float")["payload"]["matrix"]
    for i in range(2):
        for j in range(2):
            rec = exw[i][j]
            x = RadicalScalar(Fraction(rec["coeff"]), Fraction(rec["radicand"]))
            want = root_to_float(x.coeff.numerator, x.coeff.denominator, x.radicand)
            got = float(flw[i][j])
            assert abs(got - want) <= 2 * math.ulp(max(abs(want), 1e-300))


def test_rational_charge():
    rec = run_json("states", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "2/5")
    assert rec["sector"]["Z"] == "2/5"
    assert rec["payload"]["energy"] == "-2/625"  # -2 (2/5)^2 / 100
    out = run_cli("states", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "zebra")
    assert out.returncode == 2


def test_csv_rejected_outside_sweep():
    out = run_cli("states", *SECTOR, "--format", "csv")
    assert out.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["wmatrix", "--tol", "1e-3"],
        ["states", "--nodes", "5"],
        ["m9", "--format", "record"],
        ["verify", "--mode", "float"],
        ["verify", "--nodes", "48"],
        ["verify", "--tol", "1e-8"],
    ],
    ids=" ".join,
)
def test_a_flag_the_command_does_not_read_exits_2(argv):
    out = run_cli(*argv, *SECTOR)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == f"ValidationError: {argv[0]} does not read '{argv[1]}'\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        ([], "no command: give one of states, wmatrix, m9, kspectrum, tcoeffs, sweep, limits, "
             "verify"),
        (["energy", *SECTOR], "unknown command 'energy': give one of states, wmatrix, m9, "
                              "kspectrum, tcoeffs, sweep, limits, verify"),
        (["sweep", *SECTOR, "--a-min", "1", "--a-max", "2", "--poi", "5"],
         "sweep does not read '--poi'"),  # an abbreviation, which argparse accepted
        (["states", *SECTOR, "--mo", "float"], "states does not read '--mo'"),
        (["states", *SECTOR, "5"], "states does not read '5'"),
        (["sweep", *SECTOR, "--a-min", "1", "--a-max", "2", "--log=yes"],
         "sweep does not read '--log=yes'"),
        (["kspectrum", *SECTOR, "--a"], "kspectrum --a needs a value"),
        (["states", "--n", "1", "--Q", "0", "--L", "0", "--J"], "states --J needs a value"),
        (["states", "--n", "one", "--Q", "0", "--L", "0", "--J", "0"],
         "states cannot read --n 'one' as int"),
        (["kspectrum", *SECTOR, "--a=x"], "kspectrum cannot read --a 'x' as float"),
        (["states", *SECTOR, "--mode", "complex"],
         "states cannot read --mode 'complex' as one of exact, float"),
        (["tcoeffs", *SECTOR, "--mode", "exact"],
         "tcoeffs cannot read --mode 'exact' as one of float"),
        (["states", "--n", "1", "--L", "0"], "states needs --Q --J"),
        (["sweep", *SECTOR, "--a-max", "2"], "sweep needs --a-min"),
        (["kspectrum", *SECTOR, "--a", "-inf"], "kspectrum --a = -inf must be finite"),
        (["sweep", *SECTOR, "--a-min", "-1", "--a-max", "2"], "sweep needs --a-min > 0"),
        (["states", *SECTOR, "--n=" + "9" * 5000],  # clipped to 80 B
         "states cannot read --n '" + "9" * 76 + "... as int"),
        (["states", *SECTOR, "--\udcff"], "states does not read '--\\udcff'"),
    ],
    ids=lambda x: " ".join(x[:1] + x[9:])[:40] if isinstance(x, list) else "",
)
def test_a_bad_argv_is_one_named_line_naming_the_command_and_flag(argv, err, capsys):
    assert main(argv) == 2
    out, printed = capsys.readouterr()
    assert out == "" and printed == f"ValidationError: {err}\n"
    assert len(printed.encode(errors="backslashreplace")) <= 200


@pytest.mark.parametrize("flags", [
    ["--n=1", "--Q=0", "--L=0", "--J=0", "--mode=float", "--Z=1"],  # --flag=value
    ["--n", "7", "--Q", "0", "--L", "0", "--J", "0", "--mode", "float", "--n", "1"],  # last wins
    ["--mode", "float", "--J", "0", "--L", "0", "--Q", "0", "--n", "1"],  # in any order
])
def test_each_spelling_of_the_flags_gives_the_same_record(flags, capsys):
    assert main(["states", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--mode", "float"]) == 0
    want = capsys.readouterr().out
    assert main(["states", *flags]) == 0
    assert capsys.readouterr().out == want


def test_a_value_is_taken_as_it_is_even_with_a_leading_dash(capsys):
    # argparse refused --Z -2/5 as a missing value; it now reaches the charge's own check
    assert main(["states", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "-2/5"]) == 2
    assert capsys.readouterr().err == "NonpositiveCharge: Z = -0.4 must be positive\n"
    assert main(["kspectrum", *SECTOR, "--a", "-1"]) == 2
    assert capsys.readouterr().err == "ValidationError: kspectrum needs --a > 0\n"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sweep", "--help"], ["sweep", *SECTOR, "-h"],
                                  ["limits", "--a-small", "-h"], ["energy", "--help"]],
                         ids=" ".join)
def test_help_anywhere_prints_on_stdout_and_exits_0(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: micz9 ")
    if argv[0] in cli.COMMANDS:  # each flag the command reads, with its default
        assert all(f"\n  {flag} " in out for flag in cli.COMMANDS[argv[0]][2])
    else:  # the command list
        assert all(f"\n  {command} " in out for command in cli.COMMANDS)
    if argv[0] == "sweep":
        assert f"2 to {SWEEP_MAX_ENTRIES} / N^2 (default: 2)" in out
        assert "{record,csv}" in out and "--a-min   A_MIN          (required)" in out


def test_main_entrypoint_inprocess(capsys):
    assert main(["states", *SECTOR]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["payload"]["N"] == 2


# sha256 of stdout, pinned before W was rebuilt from its factored form:
# exact outputs never move.
GOLDEN = [
    (("wmatrix", "16", "0", "0", "0"),
     "72c00f1d267315ce5004d5d222da2d9ca7d0e4bdaa046035225f0ba9b3f725bd"),
    (("wmatrix", "20", "2", "0", "0"),
     "054b68a2efd1c5f6ea55e1ebecae5bab07f92f9d9a510f2ab9a3328af7a3aa4c"),
    (("m9", "4", "2", "0", "2"),
     "aab16d7fd7c895e07ca30ae66ef45328911d70841932f9d7339ac241575b8ec8"),
    # beyond N = 22, pinned while W was still proved by the O(N^3) W^T W sum
    (("wmatrix", "40", "0", "0", "0"),
     "6ab9764aa4294b4e4e941d7c02d07583766e91afa630eabb7c020d003cc512eb"),
    (("wmatrix", "60", "0", "0", "0"),
     "4b48bad69ebeeca25fa01ba953b4280adda60a9b597b6b92dfebfbad47a9108e"),
    (("wmatrix", "30", "3", "1", "4"),
     "d16f112b576b573f32219a9f9d226fc1510ad69e5571948389093f63821b8636"),
    # pinned before W was built from half its columns at L = J: L != J, and L = J at even N
    (("wmatrix", "13", "3", "1", "0"),
     "450f6be95386698b6f7612e12510ff6a18aff1d04feb5abacad135ef52e352d1"),
    (("wmatrix", "61", "0", "0", "0"),
     "2feb0dbced4e2ba9d5889e41ea0647269ba0c456c5f5c6d2c48164ef98f9baf2"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_exact_output_is_pinned(argv, digest, capsys):
    cmd, n, Q, L, J = argv
    assert main([cmd, "--mode", "exact", "--n", n, "--Q", Q, "--L", L, "--J", J]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the concatenated stdout of exact states, wmatrix and m9, sector by
# sector over enumerate_sectors(5, 4, 4), pinned before the polynomial kernels
# and the package exports were cut down
SWEEP_EXACT_DIGEST = "23e8907f5902502b9d51592192f2a3ffb0845bb4fdc9c2dde293a47e1181547b"


def test_exact_sweep_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for s in enumerate_sectors(5, 4, 4):
        flags = ["--n", str(s.n), "--Q", str(s.Q), "--L", str(s.L), "--J", str(s.J)]
        for cmd in ("states", "wmatrix", "m9"):
            assert main([cmd, "--mode", "exact", *flags]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SWEEP_EXACT_DIGEST


def _records(rows) -> list:
    """{coeff, radicand} records of (num, den, f) rows, written from RadicalScalar values."""
    values = ([RadicalScalar(Fraction(n, d), f) for n, d, f in row] for row in rows)
    return [[{"coeff": str(x.coeff), "radicand": str(x.radicand)} for x in row] for row in values]


def test_exact_matrices_print_as_json_dumps_of_their_records(capsys):
    # the one entry template against json.dumps of records built here, entry by entry
    sectors = [*enumerate_sectors(5, 4, 4),
               validate_sector(20, 2, 0, 0), validate_sector(30, 3, 1, 4)]
    for s in sectors:
        flags = ["--n", str(s.n), "--Q", str(s.Q), "--L", str(s.L), "--J", str(s.J)]
        for cmd, mat in (("wmatrix", interbasis.w_matrix(s).printed),
                         ("m9", coeffs.m9_spherical_matrix(s))):
            assert main([cmd, "--mode", "exact", *flags]) == 0
            out = capsys.readouterr().out
            record = json.loads(out)
            record["payload"]["matrix"] = _records(mat)
            assert out == json.dumps(record, indent=2) + "\n", (cmd, s)


def test_exact_w_is_printed_without_a_radical_scalar(monkeypatch, capsys):
    # no entry, root or zero of W or M9 becomes an object on its way to stdout
    def refuse(*args, **kwargs):
        raise AssertionError("an exact matrix command built a RadicalScalar")

    monkeypatch.setattr(RadicalScalar, "__init__", refuse)
    monkeypatch.setattr(RadicalScalar, "_raw", refuse)
    pinned = dict(GOLDEN)
    for argv in (("wmatrix", "16", "0", "0", "0"), ("m9", "4", "2", "0", "2")):
        cmd, n, Q, L, J = argv
        assert main([cmd, "--mode", "exact", "--n", n, "--Q", Q, "--L", L, "--J", J]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pinned[argv]


# sha256 of exact wmatrix stdout at large N, pinned while the core was still built
# from 3F2 rows
GOLDEN_LARGE = [
    (("200", "0", "0", "0"), "de3a7aa96398eaa1c9e8f792b6212a98e886dddbe723646a55ae0319efdf16ea"),
    (("120", "3", "1", "4"), "5c3a5cdd8bb47005e07b89696f64664adb3a218fb95109d545b11609439e217b"),
]


@pytest.mark.slow
@pytest.mark.parametrize("sector, digest", GOLDEN_LARGE)
def test_exact_output_at_large_n_is_pinned(sector, digest, capsys):
    """Opt-in (pytest -m slow): exact W at N = 201 and N = 121, byte for byte."""
    n, Q, L, J = sector
    assert main(["wmatrix", "--mode", "exact", "--n", n, "--Q", Q, "--L", L, "--J", J]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Runs argvs in a fresh interpreter where any import of numpy raises ImportError,
# and prints each one's exit code and stdout digest.
_NUMPY_FREE = """
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None
from micz9 import cli
result = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    result.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps(result))
"""


def test_exact_commands_run_without_numpy(capsys):
    pinned = {(cmd, *sector): digest for (cmd, *sector), digest in GOLDEN}
    argvs, want = [], []
    for n, Q, L, J in dict.fromkeys(key[1:] for key in pinned):
        flags = ["--n", n, "--Q", Q, "--L", L, "--J", J]
        for cmd, mode in (("states", "exact"), ("states", "float"), ("wmatrix", "exact"),
                          ("m9", "exact")):
            argvs.append([cmd, "--mode", mode, *flags])
            digest = pinned.get((cmd, n, Q, L, J)) if mode == "exact" else None
            if digest is None:  # not pinned: the output of this process, which has numpy
                assert main(argvs[-1]) == 0
                digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            want.append([0, digest])
    run = subprocess.run([sys.executable, "-c", _NUMPY_FREE, json.dumps(argvs)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == want


def test_importing_the_cli_loads_every_module_but_no_numpy():
    # perfbench/tracer.py patches only the micz9 modules loaded when it installs, and the
    # benchmark imports micz9.cli alone before that: all of micz9 must be loaded, numpy not
    code = ("import sys, micz9.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('micz9', 'numpy', 'argparse'))));"
            "import io, contextlib; "
            "contextlib.redirect_stdout(io.StringIO()).__enter__(); "
            "code = micz9.cli.main(['wmatrix', '--mode', 'exact', '--n', '3', '--Q', '0', "
            "'--L', '0', '--J', '0']); "
            "print('argparse' in sys.modules, code, file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    files = pathlib.Path(micz9.__file__).parent.glob("*.py")
    modules = sorted(["micz9"] + [f"micz9.{p.stem}" for p in files if p.stem != "__init__"])
    assert run.returncode == 0 and run.stdout == f"{modules}\n", run.stdout + run.stderr
    assert run.stderr == "False 0\n"  # the command line is parsed without argparse


def test_package_exports_only_the_cli_surface():
    public = {
        name for name, value in vars(micz9).items()
        if not isinstance(value, types.ModuleType) and not name.startswith("__")
    }
    assert public | {"__version__"} == {
        "BACKEND", "RadicalScalar", "validate_sector", "enumerate_sectors", "lambda_range",
        "__version__",
    }
    assert micz9.__version__


def test_a_bad_argv_between_two_good_calls_leaves_the_second_unchanged(capsys):
    calls = [["wmatrix", *SECTOR], ["m9", *SECTOR, "--mode", "float"]]
    outs = []
    for argv in calls:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    for bad in (["wmatrix", "--n", "one", "--Q", "0", "--L", "0", "--J", "0"],
                ["m9", *SECTOR, "--mode", "complex"], ["m9", *SECTOR, "--bogus=1"]):
        assert main(bad) == 2  # returned, not raised
        assert capsys.readouterr().out == ""
        for argv, out in zip(calls, outs):  # the table keeps no value of the bad call
            assert main(argv) == 0 and capsys.readouterr().out == out


# ----------------------------------------------------------------------
# argv fuzz: every argv ends in exit 0 with a record (CSV for a CSV sweep),
# or in exit 2, 3 or 4 with a named error on stderr, or, for a verify whose
# check fails, in exit 3 or 4 with a record naming it and one line on stderr
# naming the error class and the checks, or, with -h or --help, in exit 0 with
# help on stdout; main returns and never raises, exits 1, prints a traceback or
# warns.  Sizes stay small: n <= 5, at most 8 sweep points.
# ----------------------------------------------------------------------

def _mostly(valid, other):
    """Nine draws in ten from valid, the rest from other."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else other)


_FLOAT_TEXT = _mostly(
    st.floats(1e-3, 1e3).map(repr),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "5e-324", "1e-300", "1e300", "one"]),
)
_FLAG_VALUES = {
    "--mode": st.sampled_from(["exact", "float", "complex"]),
    "--a": _FLOAT_TEXT,
    "--a-min": _FLOAT_TEXT,
    "--a-max": _FLOAT_TEXT,
    "--points": st.integers(-1, 8).map(str),
    "--log": st.none(),
    "--format": st.sampled_from(["record", "csv", "xml"]),
    "--a-small": _FLOAT_TEXT,
    "--a-large": _FLOAT_TEXT,
    "--nodes": st.integers(1, 48).map(str),
    "--tol": _FLOAT_TEXT,
}
_READS = {  # the flags each command reads besides the sector
    "states": ["--mode"], "wmatrix": ["--mode"], "m9": ["--mode"],
    "kspectrum": ["--mode", "--a"], "tcoeffs": ["--mode", "--a"],
    "sweep": ["--mode", "--a-min", "--a-max", "--points", "--log", "--format"],
    "limits": ["--mode", "--a-small", "--a-large"], "verify": [],
}
_CHARGE = _mostly(
    st.sampled_from(["1", "2/5", "3/2", "1000", "1/1000"]),
    st.sampled_from(["1e-5", "1e-170", "1e-320", "1e60", "1e150", "1e160", "1e400", "0", "-1",
                     "1/0", "two"]),
)


@st.composite
def _argvs(draw):
    command = draw(_mostly(st.sampled_from(list(_READS)), st.just("energy")))
    argv = [command]
    for flag, top in (("--n", 5), ("--Q", 4), ("--L", 4), ("--J", 4)):
        value = draw(_mostly(st.integers(0, top).map(str), st.sampled_from([None, "-1", "x"])))
        if value is not None:
            argv += [flag, value]
    argv += ["--Z", draw(_CHARGE)]
    flags = [flag for flag in _READS.get(command, []) if draw(st.integers(0, 3))]
    flags += draw(_mostly(st.just([]), st.sampled_from(sorted(_FLAG_VALUES)).map(lambda f: [f])))
    flags += draw(_mostly(st.just([]), st.sampled_from(flags or ["--n"]).map(lambda f: [f])))
    for flag in flags:  # a drawn flag again is a repeat, which the last one wins
        value = draw(_FLAG_VALUES.get(flag, st.integers(0, 5).map(str)))
        spelling = draw(st.integers(0, 9))
        if spelling == 0:  # abbreviated, refused
            flag = flag[:-1]
        if value is None:
            argv += [flag]
        elif spelling == 1:
            argv += [f"{flag}={value}"]
        else:
            argv += [flag, value]
    if draw(st.integers(0, 19)) == 0:  # a trailing flag with no value
        argv += [draw(st.sampled_from(["--Z", "--n", *_READS.get(command, [])]))]
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_argvs())
def test_every_argv_ends_in_a_record_or_a_named_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if "-h" in argv or "--help" in argv:
        assert code == 0 and err == "" and out.startswith("usage: micz9 "), (argv, code, err)
    elif code == 0:
        assert err == "", (argv, err)
        if out.startswith("a,n_k,"):  # told by the output: of a repeated --format, the last wins
            assert argv[0] == "sweep" and ("csv" in argv or "--format=csv" in argv), argv
            header, *rows = out.splitlines()
            assert header == "a,n_k,K,K_over_a" and rows, (argv, out)
            assert all(len([float(x) for x in row.split(",")]) == 4 for row in rows), argv
        else:
            assert json.loads(out)["command"] == argv[0], argv
    elif argv[0] == "verify" and out:  # a failed check, named in the record and on stderr
        failed = [c["name"] for c in json.loads(out)["payload"]["checks"] if not c["ok"]]
        exact = any(name.endswith("_exact") for name in failed)
        error = "InternalConsistencyError" if exact else "NumericalError"
        assert failed and code == (4 if exact else 3), (argv, code, err)
        line = f"{error}: verify failed {' '.join(failed)}"
        assert err == line + "\n" and len(line.encode()) <= 200, (argv, err)
    else:
        assert code in (2, 3, 4), (argv, code, err)
        assert re.fullmatch(r"[A-Z]\w+: [^\n]+\n", err), (argv, code, err)
        assert "Traceback" not in err and out == "", (argv, code, out, err)
        if code == 2 and err.startswith("ValidationError: "):
            assert len(err.encode()) <= 200, (argv, err)
