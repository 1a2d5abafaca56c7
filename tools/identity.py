"""Byte-identity corpus of the micz9 command line.

    python tools/identity.py [--groups NAME,...] [--against CHECKOUT]

Runs a fixed corpus of argv lists through ``micz9.cli.main`` in this
process, on the ``src`` of the checkout this file sits in, and prints one
sha256 per group, over each call's argv, exit code, stdout and stderr, and
one over all groups.  The sector lists come from ``perfbench/run.py``, so
the corpus follows the benchmark's workloads.

``--against CHECKOUT`` runs the same corpus on CHECKOUT's ``src`` in a
child process and names each group whose digest differs, with the first
call in it that differs; the exit code is then 1 if any group differs.
Float output depends on the host's numpy and LAPACK, so digests are only
compared between two trees on one machine, never against a stored value.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# every command once, after the sector flags; sweep in both formats
_COMMANDS = (
    *(["states", "--mode", m] for m in ("exact", "float")),
    *(["wmatrix", "--mode", m] for m in ("exact", "float")),
    *(["m9", "--mode", m] for m in ("exact", "float")),
    ["kspectrum", "--a", "1.5"],
    ["tcoeffs", "--a", "1.5"],
    *(["sweep", "--a-min", "0.1", "--a-max", "10", "--points", "5", "--log", "--format", f]
      for f in ("record", "csv")),
    ["limits"],
    ["verify"],
)
_EXTREME_CHARGES = ("1e-400", "1e-320", "1e-17", "1e62", "1e150", "0", "1e400", "5e-324")
_EXTREME_SECTORS = ((3, 0, 0, 0), (2, 0, 0, 2), (0, 2, 0, 0), (5, 2, 2, 2))
_LARGE_SECTORS = ((60, 0, 0, 0), (100, 2, 1, 1), (150, 0, 0, 0))  # exact W at N = 61..151
_FLAG_ERRORS = {  # flags after the sector (1,0,0,0) at Z = 1, or in place of it
    "states": [["--mode", "complex"], ["--a", "1"]],
    "kspectrum": [[], *(["--a", x] for x in ("0", "-1", "inf", "nan", "5e-324", "1e300", "x"))],
    "tcoeffs": [[], ["--a", "0"], ["--a", "nan"], ["--a", "5e-324"], ["--a", "1e300"]],
    "sweep": [
        [], ["--a-min", "1"], ["--a-min", "2", "--a-max", "1"], ["--a-min", "1", "--a-max", "1"],
        ["--a-min", "1", "--a-max", "2", "--points", "1"],
        ["--a-min", "1", "--a-max", "2", "--points", "1000000000000"],
        ["--a-min", "1", "--a-max", "1.0000000000000002", "--points", "5"],
        ["--a-min", "1", "--a-max", "inf"], ["--a-min", "1", "--a-max", "1e300", "--log"],
        ["--a-min", "1e-320", "--a-max", "1e-319", "--points", "3"],
        ["--a-min", "1e-3", "--a-max", "1e6"], ["--a-min", "1", "--a-max", "2", "--format", "xml"],
        ["--a-min", "1e-3", "--a-max", "1.7976931348623157e308", "--points", "5", "--log"],
    ],
    "limits": [["--a-small", x] for x in ("0", "nan", "0.5", "5e-324", "-1")]
    + [["--a-large", x] for x in ("0", "inf", "100", "1e300")]
    + [["--Z", "2/5", "--a-small", "-1"], ["--Z", "2/5", "--a-large", "0"]],  # a later --Z wins
    "verify": [["--mode", "exact"]],
}
_SECTOR_ERRORS = (  # the sector flags themselves
    ["--n", "1", "--Q", "1", "--L", "0", "--J", "0"],
    ["--n", "-1", "--Q", "0", "--L", "0", "--J", "0"],
    ["--n", "0", "--Q", "0", "--L", "2", "--J", "2"],
    ["--n", "1", "--Q", "0", "--L", "0"],
    ["--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "0"],
    ["--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "x"],
    ["--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "1e160"],
)


def _bench():
    """perfbench/run.py as a module, for its sector lists and argv builders."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports its neighbours by name
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus() -> dict[str, list[list[str]]]:
    """Group name -> argv lists, in a fixed order."""
    bench = _bench()
    flags = bench.sector_flags
    groups = {"verify": [["verify", *flags(*s)]
                         for s in bench.verify_sectors() + list(bench.VERIFY_KNOWN_FAULT)]}
    sweeps = [c for N, equal, _ in bench.SWEEP_STRATA for c in bench.sweep_candidates(N, equal)[:6]]
    for name, charges in (("sweep-z1", ["1"]), ("sweep-z-other", bench.SWEEP_CHARGES)):
        groups[name] = [["sweep", *flags(*c, Z), *bench.SWEEP_FLAGS, *form]
                        for Z in charges for c in sweeps for form in ([], ["--format", "record"])]
    groups["exact"] = [["wmatrix", "--mode", "exact", *flags(*s)]
                       for s in (*bench.EXACT_SECTORS, bench.ANCHORS["exact"][:4])]
    groups["wmatrix-large"] = [["wmatrix", "--mode", m, *flags(*s)]
                               for s in _LARGE_SECTORS for m in ("exact", "float")]
    desk = bench.verify_sectors()  # the sectors of enumerate_sectors(4, 4, 4), in its order
    for Z in ("1", "3/2"):
        groups[f"desk-z{Z}"] = [[c[0], *flags(*s, Z), *c[1:]] for s in desk for c in _COMMANDS]
    for Z in _EXTREME_CHARGES:
        groups[f"charge-{Z}"] = [[c[0], *flags(*s, Z), *c[1:]]
                                 for s in _EXTREME_SECTORS for c in _COMMANDS]
    one = flags(1, 0, 0, 0)
    groups["errors"] = [
        *([c, *one, *f] for c, fs in _FLAG_ERRORS.items() for f in fs),
        *([c[0], *s] for c in _COMMANDS[::2] for s in _SECTOR_ERRORS),
        [], ["energy", *one],
    ]
    groups["help"] = [["--help"], *([c, "--help"] for c in dict.fromkeys(c[0] for c in _COMMANDS))]
    return groups


def _call_digest(main, argv) -> str:
    """sha256 of one call's argv, exit code (or what it raised), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")  # every call prints its own warnings
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
        except Exception as exc:  # a traceback is a result too
            code = f"raised {type(exc).__name__}: {exc}"
    text = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def call_digests(groups: dict, src: Path) -> dict[str, list[str]]:
    """Each group's per-call digests, with micz9 imported from src."""
    sys.path.insert(0, str(src))
    import micz9
    from micz9 import cli

    if Path(micz9.__file__).resolve().parent != src.resolve() / "micz9":
        raise SystemExit(f"micz9 imported from {micz9.__file__}, not from {src}")
    return {name: [_call_digest(cli.main, argv) for argv in calls]
            for name, calls in groups.items()}


def _digest(parts) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def differences(groups: dict, mine: dict, theirs: dict) -> dict[str, tuple[int, list[str]]]:
    """Group -> (index, argv) of its first call that differs, for each group that differs."""
    return {
        name: next((i, argv) for i, (argv, a, b) in enumerate(zip(calls, mine[name], theirs[name]))
                   if a != b)
        for name, calls in groups.items() if mine[name] != theirs[name]
    }


def run_against(groups: dict, checkout: Path) -> dict[str, list[str]]:
    """call_digests of groups on checkout's src, in a child process."""
    child = subprocess.run(
        [sys.executable, __file__, "--child", str(checkout / "src")],
        input=json.dumps(groups), capture_output=True, text=True, check=False,
    )
    if child.returncode:
        raise SystemExit(f"the run on {checkout} exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--groups", help="comma-separated group names (default: all)")
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)  # a src; corpus on stdin
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(call_digests(json.load(sys.stdin), args.child)))
        return 0
    groups = corpus()
    if args.groups:
        unknown = set(args.groups.split(",")) - set(groups)
        if unknown:
            parser.error(f"unknown groups {sorted(unknown)}; known: {', '.join(groups)}")
        groups = {name: groups[name] for name in args.groups.split(",")}
    mine = call_digests(groups, ROOT / "src")
    width = max(map(len, groups))
    for name, digests in mine.items():
        print(f"{name:<{width}}  {len(digests):5}  {_digest(digests)}")
    print(f"{'all':<{width}}  {sum(map(len, mine.values())):5}  "
          f"{_digest(_digest(d) for d in mine.values())}")
    if args.against is None:
        return 0
    differ = differences(groups, mine, run_against(groups, args.against))
    print(f"\nagainst {args.against}:")
    for name, (i, argv) in differ.items():
        print(f"{name:<{width}}  differs first at call {i + 1} of {len(groups[name])}: "
              f"{' '.join(argv)}")
    print(f"{len(differ)} of {len(groups)} groups differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
