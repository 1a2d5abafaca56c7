"""Acceptance suite: every criterion at its stated tolerance, one line each.

The sector sweep is exhaustive over Q <= 4, L, J <= 4 with n + Q/2 <= 4
(desk scale, N <= 6).  Exact checks carry zero tolerance; float checks
carry the pinned tolerances.  Run with -s to watch the PASS/FAIL lines.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import micz9 as mz
from micz9 import coeffs, interbasis, spheroidal, wavefield

SECTORS = list(mz.enumerate_sectors(4, 4, 4, 1))
_W_CACHE: dict = {}


def wmat(s):
    W = _W_CACHE.get(s)
    if W is None:
        W = interbasis.w_matrix(s)
        _W_CACHE[s] = W
    return W


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_w_orthogonality_exact():
    zero = mz.RadicalScalar.zero()
    for s in SECTORS:
        W = wmat(s).entries  # w_matrix itself raises on any deviation
        n = s.size
        for i in range(n):
            for j in range(i, n):
                col = sum((W[k][i] * W[k][j] for k in range(n)), zero)
                assert col == (1 if i == j else 0), (s, i, j)
    report(1, "W orthogonality (exact)", True, f"{len(SECTORS)} sectors, zero error")


def test_criterion_02_m9_equivalence():
    worst = 0.0
    for s in SECTORS:
        closed = coeffs.m9_spherical_matrix(s)
        brute = interbasis.m9_matrix_bruteforce(wmat(s))
        n = s.size
        assert all(closed[i][j] == brute[i][j] for i in range(n) for j in range(n)), s
        got = np.sort(np.linalg.eigvalsh(coeffs.matrix_to_float(closed)))
        want = np.sort([float(v.fraction) for v in coeffs.m9_eigenvalues(s)])
        worst = max(worst, float(np.abs(got - want).max()))
    report(2, "M9 closed form vs brute force", worst <= 1e-12,
           f"exact equality; float spectrum off by {worst:.2e} <= 1e-12")


def test_criterion_03_w_recurrence_exact():
    for s in SECTORS:
        resid = interbasis.w_recurrence_residual(wmat(s))
        assert all(x.is_zero for row in resid for x in row), s
    report(3, "W recurrence residual (exact)", True, "identically zero on the sweep")


def test_criterion_04_cg_oracle_exact():
    for s in SECTORS:
        assert interbasis.w_via_cg(wmat(s)) == [], s  # positions of differing entries
    report(4, "Clebsch-Gordan oracle (exact)", True, "equal on every entry")


def test_criterion_05_quadrature_certification():
    wavefield.w_overlap_stable(SECTORS[0])  # warm kernels
    t0 = time.perf_counter()
    worst = 0.0
    for s in SECTORS:
        q = wavefield.w_overlap_stable(s, n_q=48, tol=1e-10)
        worst = max(worst, float(np.abs(q - wmat(s).to_float()).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 20.0
    report(5, "quadrature certification", ok,
           f"max |quad - exact| {worst:.2e} <= 1e-8, {elapsed:.1f}s <= 20s")


def test_criterion_06_spheroidal_eigenproblem():
    worst_res = worst_ortho = 0.0
    for s in SECTORS:
        for a in (0.1, 1.0, 10.0, 100.0):
            mat = spheroidal.build_k_matrix(s, a)
            spectrum = spheroidal.separation_constants(s, a)
            scale = max(mat.norm(), 1e-300)
            for k in range(s.size):
                r = np.abs(mat.matvec(spectrum.T[:, k]) - spectrum.K[k] * spectrum.T[:, k]).max()
                worst_res = max(worst_res, float(r) / scale)
            worst_ortho = max(
                worst_ortho, float(np.abs(spectrum.T.T @ spectrum.T - np.eye(s.size)).max())
            )
    s1 = mz.validate_sector(1, 0, 0, 0, 1)
    K = spheroidal.separation_constants(s1, 5.0).K
    oracle = np.array([-4 - np.sqrt(17.0), -4 + np.sqrt(17.0)])  # quadratic formula
    worst_k = float(np.abs(K - oracle).max())
    ok = worst_res <= 1e-12 and worst_ortho <= 1e-12 and worst_k <= 1e-12
    report(6, "spheroidal eigenproblem", ok,
           f"residual {worst_res:.2e}, orthogonality {worst_ortho:.2e}, "
           f"2x2 oracle {worst_k:.2e}, all <= 1e-12")


def test_criterion_07_continuant_path():
    worst = 0.0
    for s in SECTORS:
        for a in np.logspace(-2, 3, 6):
            spectrum = spheroidal.separation_constants(s, float(a))
            for k in range(s.size):
                col = spheroidal.t_by_continuant(spectrum.matrix, float(spectrum.K[k]))
                worst = max(worst, float(np.abs(col - spectrum.T[:, k]).max()))
    report(7, "continuant vs the LAPACK eigenvector", worst <= 1e-8,
           f"max column diff {worst:.2e} <= 1e-8 over a in [1e-2, 1e3]")


def test_criterion_08_spherical_limit():
    worst_val = worst_vec = worst_raw = 0.0
    for s in SECTORS:
        rep = spheroidal.check_spherical_limit(spheroidal.separation_constants(s, 1e-8),
                                               tol_value=1e-12, tol_vector=1e-6)
        worst_val = max(worst_val, rep.max_value_error)
        worst_vec = max(worst_vec, rep.max_vector_error)
        worst_raw = max(worst_raw, float(rep.raw_gaps.max()))
    report(8, "spherical limit (first-order-corrected)",
           worst_val <= 1e-12 and worst_vec <= 1e-6,
           f"value error {worst_val:.2e} <= 1e-12, columns {worst_vec:.2e} <= 1e-6; "
           f"raw gap to the bare constant {worst_raw:.2e} (O(a) when J != L)")


def test_criterion_09_parabolic_limit():
    worst_set = worst_col = 0.0
    for s in SECTORS:
        rep = spheroidal.check_parabolic_limit(wmat(s), spheroidal.separation_constants(s, 1e6),
                                               tol=1e-4)
        worst_set = max(worst_set, rep.max_set_error)
        worst_col = max(worst_col, rep.max_column_error)
    report(9, "parabolic limit", worst_set <= 1e-4 and worst_col <= 1e-4,
           f"set error {worst_set:.2e}, eigenvalue-matched columns {worst_col:.2e}, "
           f"both <= 1e-4")


RPTS = np.array([0.5, 1.0, 2.0, 5.0])
CPTS = np.array([-0.9, -0.4, 0.0, 0.4, 0.9])


def test_criterion_10_ode_residuals():
    res = np.concatenate([  # one equation per lambda or n_p
        wavefield.ode_residuals(s, which, CPTS if which == "angular" else RPTS)
        for s in mz.enumerate_sectors(3, 4, 4, 1)
        for which in ("radial", "angular", "parabolic_u", "parabolic_v")
    ])
    worst = res.max()
    report(10, "separated-equation residuals", worst < 1e-8,
           f"max relative residual {worst:.2e} < 1e-8 over {res.size} equations")


def _run_verify(args):
    return subprocess.run(
        [sys.executable, "-m", "micz9.cli", "verify", *args],
        capture_output=True, text=True,
    )


@pytest.mark.parametrize("sector_args", [
    ("--n", "1", "--Q", "0", "--L", "0", "--J", "0", "--Z", "1"),
    ("--n", "1", "--Q", "1", "--L", "0", "--J", "1", "--Z", "1"),
])
def test_criterion_11_determinism(sector_args):
    a = _run_verify(sector_args)
    b = _run_verify(sector_args)
    assert a.returncode == 0, a.stderr
    identical = a.stdout == b.stdout and a.returncode == b.returncode
    ok = identical and json.loads(a.stdout)["payload"]["ok"]
    report(11, "verify determinism", ok,
           f"byte-identical consecutive runs for {' '.join(sector_args)}")
