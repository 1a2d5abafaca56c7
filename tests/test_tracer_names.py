"""The benchmark still finds every function it traces and every check it expects.

perfbench/tracer.py patches micz9's public functions by module and name and
reads the bound arguments of two of them; a function deleted or renamed in
micz9, or a renamed parameter, would otherwise only show at ``--trace 1``.
perfbench/checks.py rejects a ``verify`` record whose check names are not
exactly its own list, so a renamed or added check would fail every
benchmark operation.  Its exact-W check also runs here on the ``exact``
workload's sectors, so a wrong W fails the tests, not only the benchmark.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from micz9 import cli, sector

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# Kept for the trace but no longer on any command's path.  k_diag and
# k_offdiag read single integer pairs of coeffs.k_pencil, which the
# float K(a) is rounded from as a whole.  w_matrix builds W from its row
# factors, integer core and column radicands, and proves it orthogonal on
# them; w_coefficient runs the same row kernel on the one row of its entry,
# unproved, for library callers.
_UNCALLED = {"k_diag", "k_offdiag", "w_coefficient"}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_named_function(capsys):
    tracer_mod = _load("tracer")
    tracer = tracer_mod.Tracer()
    original = cli.main
    tracer.install()
    try:
        assert cli.main(["verify", "--n", "1", "--Q", "0", "--L", "0", "--J", "0"]) == 0
        after_verify = {name: stat.calls for name, stat in tracer.stats.items()}
        sweep = ["sweep", "--n", "2", "--Q", "0", "--L", "0", "--J", "2", "--mode", "float",
                 "--a-min", "0.1", "--a-max", "10", "--points", "20", "--log"]
        assert cli.main(sweep) == 0
        # kspectrum solves one matrix through separation_constants, as verify above solves a
        # stack; sweep solves its stack with build_k_matrix and tridiag_eigh directly
        kspectrum = ["kspectrum", "--n", "2", "--Q", "0", "--L", "0", "--J", "2",
                     "--mode", "float", "--a", "1.5"]
        assert cli.main(kspectrum) == 0
    finally:
        tracer.uninstall()
    assert cli.main is original
    capsys.readouterr()
    names = {fn for _, fn in tracer_mod.WRAPPED}
    assert set(tracer.stats) == names
    uncalled = {name for name, stat in tracer.stats.items() if stat.calls == 0}
    assert uncalled == _UNCALLED
    # backend.poly.busy_s and wavefield.ode_residuals.busy_s cover verify's ladders
    for name in ("laguerre", "jacobi", "ode_residuals"):
        assert after_verify[name] > 0, name
    counters = tracer.snapshot()["_counters"]
    assert counters["gauss_rule_builds"] > 0 and counters["overlap_nodes"] > 0


# perfbench/run.py's order in a fresh interpreter: micz9 and micz9.cli, then the tracer installed
_FRESH_TRACE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)
import micz9
from micz9 import cli
tracer = tracer_mod.Tracer()
tracer.install()
code = cli.main(["verify", "--n", "1", "--Q", "0", "--L", "0", "--J", "0"])
print(json.dumps([code, {name: stat.calls for name, stat in tracer.stats.items()}]))
"""


def test_tracer_reaches_the_float_layers_from_a_fresh_import_of_the_cli():
    # the test above runs after other test modules have imported the float side
    run = subprocess.run([sys.executable, "-c", _FRESH_TRACE, str(_PERFBENCH / "tracer.py")],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    code, calls = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    for name in ("tridiag_eigh", "laguerre", "jacobi", "separation_constants", "gauss_rule",
                 "w_overlap_stable", "ode_residuals", "check_parabolic_limit"):
        assert calls[name] > 0, name


def test_verify_yields_the_benchmark_check_names_in_order():
    s = sector.validate_sector(1, 0, 0, 0, 1)
    names = tuple(name for name, _, _ in cli._verify_checks(s))
    assert names == _load("checks").VERIFY_CHECKS


# EXACT_SECTORS of perfbench/run.py: N = 9..21
_EXACT_SECTORS = (
    (8, 2, 1, 1), (10, 1, 0, 1), (12, 4, 2, 2),
    (13, 3, 1, 0), (14, 0, 0, 0), (14, 2, 1, 1),
    (16, 2, 1, 1), (16, 4, 0, 0), (18, 4, 0, 0),
)


@pytest.mark.parametrize("n, Q, L, J", _EXACT_SECTORS)
def test_exact_w_passes_the_benchmark_check(n, Q, L, J, capsys):
    flags = ["--n", str(n), "--Q", str(Q), "--L", str(L), "--J", str(J)]
    assert cli.main(["wmatrix", "--mode", "exact", *flags]) == 0
    _load("checks").check_wmatrix(capsys.readouterr().out, n, Q, L, J)
