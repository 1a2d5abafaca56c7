"""tools/identity.py: the byte-identity corpus and its comparison with another checkout."""

import importlib.util
import pathlib
import subprocess
import sys

import numpy as np

from micz9 import spheroidal

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"


def _tool():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_corpus_reads_its_sectors_from_the_benchmark():
    groups = _tool().corpus()
    assert len(groups["verify"]) == 181 and len(groups["exact"]) == 10
    assert len(groups["wmatrix-large"]) == 6
    assert len(groups["desk-z1"]) == len(groups["desk-z3/2"]) == 169 * 12
    names = {"sweep-z1", "sweep-z-other", "charge-1e-400", "charge-1e150", "errors", "help",
             "wmatrix-large", "charge-0", "charge-1e400", "charge-5e-324"}
    assert names < set(groups)


def test_the_corpus_reports_no_difference_against_its_own_tree():
    argv = [sys.executable, str(TOOL), "--groups", "exact,help", "--against", str(ROOT)]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    heads = [line.split()[:2] for line in lines[:3]]
    assert heads == [["exact", "10"], ["help", "9"], ["all", "19"]]
    assert lines[-1] == "0 of 2 groups differ"


def test_the_corpus_names_a_group_after_a_one_ulp_change(monkeypatch):
    tool = _tool()
    sector = ["--n", "4", "--Q", "2", "--L", "1", "--J", "1", "--Z", "1"]
    groups = {
        "states": [["states", *sector]],
        "kspectrum": [["kspectrum", *sector, "--a", a] for a in ("1.5", "2.5")],
    }
    theirs = tool.run_against(groups, ROOT)  # this tree, unchanged, in a child
    original = spheroidal.tridiag_eigh

    def nudged(diag, off):  # the largest K of every spectrum one ulp up
        K, T = original(diag, off)
        K[..., -1] = np.nextafter(K[..., -1], np.inf)
        return K, T

    monkeypatch.setattr(spheroidal, "tridiag_eigh", nudged)
    mine = tool.call_digests(groups, ROOT / "src")
    assert mine["states"] == theirs["states"]
    assert tool.differences(groups, mine, theirs) == {"kspectrum": (0, groups["kspectrum"][0])}
