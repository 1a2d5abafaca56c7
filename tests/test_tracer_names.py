"""The benchmark's trace mode still finds and wraps every function it names.

perfbench/tracer.py patches micz9's public functions by module and name and
reads the bound arguments of two of them; a function deleted or renamed in
micz9, or a renamed parameter, would otherwise only show at ``--trace 1``.
"""

import importlib.util
import pathlib

from micz9 import cli

_TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Kept for the trace but no longer on any command's path.  w_matrix builds
# W from its row, column and core factors; w_coefficient reads one entry of
# the same factors for library callers.
_UNCALLED = {"k_diag", "k_offdiag", "w_coefficient"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_named_function(capsys):
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    original = cli.main
    tracer.install()
    try:
        assert cli.main(["verify", "--n", "1", "--Q", "0", "--L", "0", "--J", "0"]) == 0
        sweep = ["sweep", "--n", "2", "--Q", "0", "--L", "0", "--J", "2", "--mode", "float",
                 "--a-min", "0.1", "--a-max", "10", "--points", "20", "--log"]
        assert cli.main(sweep) == 0
        # separation_constants is on neither path above: verify solves through spectra
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
    counters = tracer.snapshot()["_counters"]
    assert counters["gauss_rule_builds"] > 0 and counters["overlap_nodes"] > 0
