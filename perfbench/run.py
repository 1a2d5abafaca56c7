"""End-to-end benchmark of the micz9 command line, with an optional per-layer trace.

    python3 perfbench/run.py --workload sweep|verify|exact --seed N --seconds S --trace 0|1

Run from the root of a checkout; micz9 is imported from its ``src``.  Each
operation is one ``micz9.cli.main(argv)`` call in this process with stdout
and stderr captured, so the figures cover the ``cli`` layer and everything
beneath it but not interpreter start.  Only ``setup_s`` counts interpreter
start: it is the median, over several fresh processes, of the time from
spawning the process to the result of one cold operation (``cold.py``).
Every timing is scaled to nominal host speed by ``hostspeed.py``.

A run attempts whole rounds of the workload's operations, in an order the
seed shuffles, until ``--seconds`` have passed, and checks every output
with ``checks.py``.  The last line of stdout is the result as one JSON
object; the line before it records the backend, thread count, rounds and
the unscaled figures.  See README.md for the workloads and metrics.
"""

import os

# Pin numeric-library threads before numpy loads: numpy's OpenBLAS is built
# for up to 64 threads, and the fresh processes inherit this too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from hostspeed import HostSpeed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

SWEEP_A_MIN, SWEEP_A_MAX, SWEEP_POINTS = 1e-3, 1e6, 200
SWEEP_FLAGS = [
    "--mode", "float", "--log", "--points", str(SWEEP_POINTS),
    "--a-min", "1e-3", "--a-max", "1e6", "--format", "csv",
]
# Two sweeps per stratum: (block dimension N, J = L?, charge kind), N = 2..15.
# The seed picks two distinct sectors (Q, L, J <= 4) within each stratum and
# their non-integer charges.  Every N, and two draws of each, keep the median
# operation among many of similar cost, so op_p50_s depends little on the
# draw; J = L and J != L each meet Z = 1 and non-integer Z.
SWEEP_STRATA = (
    (2, True, "one"), (3, False, "one"), (4, True, "rational"), (5, False, "rational"),
    (6, True, "one"), (7, False, "one"), (8, True, "rational"), (9, False, "rational"),
    (10, True, "one"), (11, False, "one"), (12, True, "rational"), (13, False, "rational"),
    (14, True, "one"), (15, False, "one"),
)
SWEEP_CHARGES = ("2/5", "3/2", "7/3")
SWEEP_DRAWS = 2

# check_parabolic_limit fixes a = 1e6 and tol = 1e-4 and never subtracts the
# O(1/a) term, so these n+Q/2 = 6 sectors exit 3 with LimitMismatch.
VERIFY_KNOWN_FAULT = tuple(
    (6 - Q // 2, Q, L, J) for Q in (0, 2, 4) for L in (0, 2) for J in (0, 2)
)

# N = 9..21 with varying Q, L and J.  The large-N sectors are the cheaper
# ones of their size so that a round stays near ten seconds, and three
# sectors share the median size N = 15 so that op_p50_s rests on many timings.
EXACT_SECTORS = (
    (8, 2, 1, 1), (10, 1, 0, 1), (12, 4, 2, 2),
    (13, 3, 1, 0), (14, 0, 0, 0), (14, 2, 1, 1),
    (16, 2, 1, 1), (16, 4, 0, 0), (18, 4, 0, 0),
)

# The cold operation each set-up measures.  Fixed, so set-up time does not
# depend on the seed: it fills the Gauss rules (verify) or the 78k-prime
# list (exact, N = 17) from empty.
ANCHORS = {
    "sweep": (4, 0, 0, 0, "1"),
    "verify": (4, 0, 0, 0, "1"),
    "exact": (16, 0, 0, 0, "1"),
}


def sector_flags(n, Q, L, J, Z="1"):
    return ["--n", str(n), "--Q", str(Q), "--L", str(L), "--J", str(J), "--Z", Z]


def sweep_candidates(N, equal):
    """Sectors of block dimension N with Q, L, J <= 4 and J == L iff equal."""
    out = []
    for Q in range(5):
        for L in range(5):
            for J in range(5):
                two_n = 2 * (N - 1) - Q + L + J
                if (Q - L - J) % 2 or two_n < 0 or (J == L) != equal:
                    continue
                out.append((two_n // 2, Q, L, J))
    return out


def verify_sectors():
    """The acceptance-suite sectors: n+Q/2 <= 4 with Q, L, J <= 4 (169 of them)."""
    out = []
    for Q in range(5):
        for L in range(5):
            for J in range(5):
                if (Q - L - J) % 2:
                    continue
                n = max(0, (L + J - Q + 1) // 2)
                while 2 * n + Q <= 8:
                    out.append((n, Q, L, J))
                    n += 1
    return out


class Op:
    """One CLI call and the check that judges its output.

    ``check(rc, out, err)`` returns True for a good result, False for the
    known fault, and raises checks.CheckError for anything else.
    """

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def sweep_op(n, Q, L, J, Z):
    def check(rc, out, err):
        if rc != 0:
            raise checks.CheckError(f"sweep exited {rc}: {err.strip()[:200]}")
        checks.check_sweep(out, n, Q, L, J, Z, SWEEP_A_MIN, SWEEP_A_MAX, SWEEP_POINTS)
        return True

    return Op(["sweep", *sector_flags(n, Q, L, J, Z), *SWEEP_FLAGS], check)


def verify_op(n, Q, L, J):
    known = (n, Q, L, J) in VERIFY_KNOWN_FAULT
    return Op(
        ["verify", *sector_flags(n, Q, L, J)],
        lambda rc, out, err: checks.check_verify(rc, out, err, known),
    )


def exact_op(n, Q, L, J):
    def check(rc, out, err):
        if rc != 0:
            raise checks.CheckError(f"wmatrix exited {rc}: {err.strip()[:200]}")
        checks.check_wmatrix(out, n, Q, L, J)
        return True

    return Op(["wmatrix", "--mode", "exact", *sector_flags(n, Q, L, J)], check)


def build_workload(name, rng):
    """(ops of one round, anchor op) for a workload; the seed picks sweep sectors."""
    if name == "sweep":
        ops = []
        for N, equal, charge in SWEEP_STRATA:
            for n, Q, L, J in rng.sample(sweep_candidates(N, equal), SWEEP_DRAWS):
                Z = "1" if charge == "one" else rng.choice(SWEEP_CHARGES)
                ops.append(sweep_op(n, Q, L, J, Z))
        return ops, sweep_op(*ANCHORS["sweep"])
    if name == "verify":
        sectors = verify_sectors() + list(VERIFY_KNOWN_FAULT)
        return [verify_op(*s) for s in sectors], verify_op(*ANCHORS["verify"][:4])
    if name == "exact":
        return [exact_op(*s) for s in EXACT_SECTORS], exact_op(*ANCHORS["exact"][:4])
    raise ValueError(f"unknown workload {name!r}")


def run_op(cli, op):
    """Run one CLI call with captured output; (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # verify exits 3 through SystemExit when a check fails
            rc = exc.code
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


def cold_setup(anchor):
    """Spawn a fresh interpreter that runs the anchor op once; (seconds, report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "cold.py"), json.dumps(anchor.argv)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"cold set-up process exited {proc.returncode}")
    return t1 - t0, json.loads(line)


def blas_threads():
    """Thread count OpenBLAS reports through its C API, or None if not found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            return int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def layer_metrics(before, after, rounds, import_s):
    """Per-layer metrics: timed-phase totals per round, Gauss-rule builds per run."""

    def d(fn, field):
        b = before.get(fn, {}).get(field, 0)
        return (after.get(fn, {}).get(field, 0) - b) / rounds

    def c(key):
        return (after["_counters"][key] - before["_counters"][key]) / rounds

    values = {
        "backend.tridiag_eigh.calls": d("tridiag_eigh", "calls"),
        "backend.tridiag_eigh.busy_s": d("tridiag_eigh", "busy_s"),
        "backend.poly.busy_s": d("laguerre", "busy_s") + d("jacobi", "busy_s"),
        "exactscalar.squarefree_split.calls": d("squarefree_split", "calls"),
        "exactscalar.squarefree_split.busy_s": d("squarefree_split", "busy_s"),
        "coeffs.k_entries.calls": d("k_diag", "calls") + d("k_offdiag", "calls"),
        "coeffs.k_entries.self_s": d("k_diag", "self_s") + d("k_offdiag", "self_s"),
        "coeffs.m9_spherical_matrix.busy_s": d("m9_spherical_matrix", "busy_s"),
        "interbasis.w_coefficient.calls": d("w_coefficient", "calls"),
        "interbasis.w_coefficient.self_s": d("w_coefficient", "self_s"),
        "interbasis.w_matrix.self_s": d("w_matrix", "self_s"),
        "interbasis.oracles.busy_s": d("w_via_cg", "busy_s")
        + d("w_recurrence_residual", "busy_s")
        + d("m9_matrix_bruteforce", "busy_s"),
        "spheroidal.build_k_matrix.calls": d("build_k_matrix", "calls"),
        "spheroidal.build_k_matrix.self_s": d("build_k_matrix", "self_s"),
        "spheroidal.separation_constants.busy_s": d("separation_constants", "busy_s"),
        "spheroidal.sweep_branches.self_s": d("sweep_branches", "self_s"),
        "spheroidal.t_by_continuant.calls": d("t_by_continuant", "calls"),
        "spheroidal.t_by_continuant.busy_s": d("t_by_continuant", "busy_s"),
        "spheroidal.limits.busy_s": d("check_spherical_limit", "busy_s")
        + d("check_parabolic_limit", "busy_s"),
        "wavefield.gauss_rule.calls": d("gauss_rule", "calls"),
        "wavefield.gauss_rule.builds": after["_counters"]["gauss_rule_builds"],
        "wavefield.gauss_rule.busy_s": d("gauss_rule", "busy_s"),
        "wavefield.w_overlap_quadrature.calls": d("w_overlap_quadrature", "calls"),
        "wavefield.w_overlap_quadrature.busy_s": d("w_overlap_quadrature", "busy_s"),
        "wavefield.overlap.doublings": c("overlap_doublings"),
        "wavefield.overlap.nodes": c("overlap_nodes"),
        "wavefield.ode_residuals.busy_s": d("ode_residuals", "busy_s"),
        "cli.main.self_s": d("main", "self_s"),
        "setup.import_s": import_s,
    }
    return {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"} for k, v in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("sweep", "verify", "exact"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Importing here first also leaves the bytecode cache written, so the
    # fresh processes below all import from it.
    sys.path.insert(0, str(ROOT / "src"))
    import micz9
    from micz9 import cli

    if Path(micz9.__file__).resolve().parent != ROOT / "src" / "micz9":
        raise SystemExit(f"micz9 imported from {micz9.__file__}, not from {ROOT / 'src'}")

    rng = random.Random(args.seed)
    ops, anchor = build_workload(args.workload, rng)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    correct = True

    def judge(op, rc, out, err):
        nonlocal correct
        try:
            return op.check(rc, out, err)
        except (checks.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            print(f"check failed for {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
            correct = False
            return False

    # The anchor runs cold in this process too: it fills the lazy tables
    # before timing, and every fresh process must print what it printed.
    _, anchor_rc, out, err = run_op(cli, anchor)
    judge(anchor, anchor_rc, out, err)
    anchor_digest = hashlib.sha256(out.encode()).hexdigest()

    speed = HostSpeed()
    setups = [speed.measure(cold_setup, anchor) for _ in range(SETUP_REPEATS)]
    if any(r["rc"] != anchor_rc or r["sha256"] != anchor_digest for _, (_, r) in setups):
        print("a fresh process printed other output than the in-process anchor", file=sys.stderr)
        correct = False

    before = tracer.snapshot() if tracer else None
    samples, raw_times, failed, rounds = {}, [], 0, 0
    start = time.perf_counter()
    while True:
        rng.shuffle(ops)
        for op in ops:
            dt, (raw, rc, out, err) = speed.measure(run_op, cli, op)
            samples.setdefault(tuple(op.argv), []).append(dt)
            raw_times.append(raw)
            if not judge(op, rc, out, err):
                failed += 1
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    timed_s = time.perf_counter() - start
    after = tracer.snapshot() if tracer else None

    # Throughput of one round at each operation's median time, so one
    # timing caught by a host phase change does not carry a whole run.
    attempted = rounds * len(ops)
    round_s = sum(statistics.median(v) for v in samples.values())
    ops_per_s = (attempted - failed) / rounds / round_s
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": micz9.BACKEND,
        "blas_threads": blas_threads(),
        "traced": bool(tracer),
        "rounds": rounds,
        "ops_per_round": len(ops),
        "timed_s": timed_s,
        "ops_per_s": ops_per_s,
        "setup_samples_s": [dt for dt, _ in setups],
        "raw_setup_samples_s": [raw for _, (raw, _) in setups],
        "raw_op_p50_s": statistics.median(raw_times),
        "raw_ops_per_s": (attempted - failed) / sum(raw_times),
        "calibration_p50_s": statistics.median(speed.samples),
    }
    if tracer:
        tracer.uninstall()
        import_s = statistics.median(r["import_s"] for _, (_, r) in setups)
        metrics = layer_metrics(before, after, rounds, import_s)
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"info": info, "before": before, "after": after}, indent=1))
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(dt for dt, _ in setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(t for v in samples.values() for t in v), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
