"""CLI contract: payload schemas, exit codes, determinism, mode agreement."""

import decimal
import hashlib
import json
import math
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import micz9
from micz9 import coeffs, interbasis, spheroidal, wavefield
from micz9.cli import SWEEP_MAX_ENTRIES, _fmt, _fmt_array, _render, build_parser, main
from micz9.exactscalar import RadicalScalar
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


def test_overflowing_charge_or_bad_tol_exit_2():
    for argv in (
        ("states", "--n", "1", "--Q", "0", "--L", "0", "--J", "2", "--mode", "float",
         "--Z", "1e160"),  # Z fits a float, the energy does not
        ("verify", "--n", "0", "--Q", "0", "--L", "0", "--J", "0", "--Z", "1e400"),
        ("sweep", "--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "1e400",
         "--mode", "float", "--a-min", "1", "--a-max", "2", "--points", "3"),
        ("kspectrum", *SECTOR[:-2], "--Z", "7.7e154", "--mode", "float", "--a", "1"),
        ("verify", *SECTOR, "--tol", "nan"),
        ("verify", *SECTOR, "--tol", "0"),
    ):
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert "ValidationError" in out.stderr and "Traceback" not in out.stderr, argv


@pytest.mark.parametrize(
    "argv",
    [  # K(a)'s couplings round to 0.0 at Z = 1e-165 and below
        verify_argv(2, 0, 0, 2, "1e-165"),
        ["tcoeffs", *verify_argv(2, 0, 0, 2, "1e-165")[1:], "--mode", "float", "--a", "1"],
        ["limits", *verify_argv(2, 0, 0, 2, "1e-165")[1:], "--mode", "float"],
        ["kspectrum", *verify_argv(2, 0, 0, 2, "1e-320")[1:], "--mode", "float", "--a", "1"],
        # Z itself rounds to 0.0, so the default limit distances 1e-8/Z and 1e6/Z are undefined
        verify_argv(2, 0, 0, 2, "1e-400"),
        ["limits", *verify_argv(2, 0, 0, 2, "1e-400")[1:], "--mode", "float"],
        # a subnormal focal distance rounds K(a)'s couplings to 0.0
        ["tcoeffs", *verify_argv(2, 0, 0, 2)[1:], "--mode", "float", "--a", "5e-324"],
        ["kspectrum", *verify_argv(2, 0, 0, 2)[1:], "--mode", "float", "--a", "5e-324"],
        ["limits", *verify_argv(2, 0, 0, 2)[1:], "--mode", "float", "--a-small", "5e-324"],
        # K/a overflows on a subnormal grid
        ["sweep", *SECTOR, "--mode", "float", "--a-min", "1e-320", "--a-max", "1e-319",
         "--points", "3"],
    ],
)
def test_underflowing_charge_or_focal_distance_exit_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ValidationError: "), err
    assert len(err) <= 200, err  # the charge is printed short, not as a full fraction


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


def test_unbuildable_node_count_exit_2():
    # the last doubled Gauss rule would need a 71 PiB dense Jacobi matrix
    out = run_cli(*verify_argv(2, 0, 0, 0), "--nodes", "100000000")
    assert out.returncode == 2 and out.stdout == ""
    assert "ValidationError" in out.stderr and "Traceback" not in out.stderr
    top = wavefield.MAX_RULE_NODES >> wavefield.OVERLAP_DOUBLINGS
    assert f"1..{top}" in run_cli("verify", "--help").stdout
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
    calls = {"w_matrix": 0, "tridiag_eigh": 0, "build_k_matrix": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(interbasis, "w_matrix")
    count(spheroidal, "tridiag_eigh")  # K(a) is solved once, at every focal distance
    count(spheroidal, "build_k_matrix")
    assert main(verify_argv(8, 0, 0, 0)) == 0, capsys.readouterr().err
    assert calls == {"w_matrix": 1, "tridiag_eigh": 1, "build_k_matrix": 1}


def test_verify_evaluates_m9_once(monkeypatch, capsys):
    coeffs.m9_tridiagonal.cache_clear()
    spheroidal._k_pencil.cache_clear()
    calls = 0
    original = coeffs._m9_offdiag_sq

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(coeffs, "_m9_offdiag_sq", counted)
    assert main(verify_argv(8, 0, 0, 0)) == 0, capsys.readouterr().err
    assert calls == 8  # the N - 1 couplings of M9, each once


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
    rec = json.loads(capsys.readouterr().out)
    assert rec["payload"]["ok"] is False
    assert [c["name"] for c in rec["payload"]["checks"] if not c["ok"]] == [failing]


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
    [(0, 0, 0, 0, "1"), (2, 0, 0, 2, "7/3"), (14, 0, 0, 0, "1")],  # N = 1, 2 and 15
)
def test_sweep_text_matches_per_value_rendering(sector, capsys):
    n, Q, L, J, Z = sector
    flags = [*verify_argv(n, Q, L, J, Z)[1:], "--mode", "float", "--log", "--points", "200",
             "--a-min", "1e-3", "--a-max", "1e6"]
    grid = np.logspace(-3, 6, 200)
    sw = spheroidal.sweep_branches(validate_sector(n, Q, L, J, Fraction(Z)), grid)
    cell = {  # (point, branch) -> the three printed values, one format call each
        (i, k): [format(float(x), ".17g") for x in (a, sw.K[i, k], sw.K_over_a[i, k])]
        for i, a in enumerate(grid) for k in range(sw.K.shape[1])
    }
    assert main(["sweep", *flags, "--format", "csv"]) == 0
    rows = "".join(f"{a},{k},{K},{r}\n" for (i, k), (a, K, r) in cell.items())
    assert capsys.readouterr().out == "a,n_k,K,K_over_a\n" + rows
    assert main(["sweep", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["branches"] == [
        {"n_k": k, "points": [
            dict(zip(("a", "K", "K_over_a"), cell[i, k])) for i in range(grid.size)
        ]}
        for k in range(sw.K.shape[1])
    ]


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
@example(np.array([5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0, np.inf, -np.inf, np.nan]))
def test_fmt_array_matches_fmt_elementwise(x):
    text = _fmt_array(x)
    assert text.shape == x.shape
    assert text.ravel().tolist() == [_fmt(v) for v in x.ravel()]


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
    argv = ["limits", "--n", "8", "--Q", "0", "--L", "0", "--J", "0", "--Z", Z, "--mode", "float"]
    assert main(argv) == 0, capsys.readouterr().err
    p = json.loads(capsys.readouterr().out)["payload"]
    assert float(p["spherical"]["a_small"]) == 1e-8 / float(Fraction(Z))
    assert float(p["parabolic"]["a_large"]) == 1e6 / float(Fraction(Z))


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
            want = RadicalScalar.from_record(exw[i][j]).to_float()
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
    ],
    ids=" ".join,
)
def test_a_flag_the_command_does_not_read_exits_2(argv):
    out = run_cli(*argv, *SECTOR)
    assert out.returncode == 2 and out.stdout == ""
    assert "unrecognized arguments" in out.stderr and "Traceback" not in out.stderr


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


def test_cached_parser_matches_a_fresh_one(capsys):
    calls = [["wmatrix", *SECTOR], ["m9", *SECTOR, "--mode", "float"]]
    outs = []
    for argv in calls:  # in a row, on the one cached parser
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    for argv, out in zip(calls, outs):
        build_parser.cache_clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == out
    with pytest.raises(SystemExit) as exc:  # a bad argv after a good call still exits 2
        main(["wmatrix", "--n", "one", "--Q", "0", "--L", "0", "--J", "0"])
    assert exc.value.code == 2
    assert main(calls[0]) == 0 and capsys.readouterr().out == outs[0]
