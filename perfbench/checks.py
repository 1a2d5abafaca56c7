"""Output checks for the benchmark, independent of the program's arithmetic.

Nothing here imports micz9.  The reference matrices are rebuilt in float64
from the paper's closed forms, and the program's outputs are judged against
them with numpy's dense LAPACK routines:

* ``check_sweep``: every CSV row's K against ``numpy.linalg.eigvalsh`` of
  the dense K(a), the row count, the a grid, ascending K at every point,
  and K_over_a = K/a;
* ``check_wmatrix``: W^T W = I and M9 W[:, n_p] = (n+Q/2-J-2n_p) W[:, n_p]
  for the exact ``{coeff, radicand}`` records turned into floats;
* ``check_verify``: a passing record with all eleven named checks, or the
  known ``LimitMismatch`` fault on the sectors that have it.

Each checker raises ``CheckError`` with the reason when an output is wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

VERIFY_CHECKS = (
    "w_orthogonality_exact",
    "w_recurrence_exact",
    "m9_equivalence_exact",
    "m9_eigenvalues_float",
    "cg_oracle_exact",
    "quadrature_overlap",
    "spheroidal_eigenproblem",
    "continuant_agreement",
    "spherical_limit",
    "parabolic_limit",
    "ode_residuals",
)

# K from bisection plus Rayleigh polish against dense LAPACK: both are
# backward stable, so they agree to a few ulps of the matrix norm.
SWEEP_K_RTOL = 1e-11
W_ORTHO_TOL = 1e-11
W_EIGEN_RTOL = 1e-11


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def _block(n: int, Q: int, L: int, J: int):
    """(N, lambda ladder ascending, m = n+Q/2, h = (L+J)/2, d = (J-L)/2)."""
    N = (2 * n + Q - L - J) // 2 + 1
    h = (L + J) / 2
    return N, [h + i for i in range(N)], n + Q / 2, h, (J - L) / 2


def coupling(n: int, Q: int, L: int, J: int, lam: float) -> float:
    """B_lambda, the M9 coupling between ladder rungs lambda-1 and lambda."""
    _, _, m, h, d = _block(n, Q, L, J)
    rad = (
        (m - lam + 1)
        * (m + lam + 7)
        * (lam - h)
        * (lam + h + 6)
        * (lam + 3 - d)
        * (lam + 3 + d)
        / ((lam + 3) ** 2 * (2 * lam + 7) * (2 * lam + 5))
    )
    return math.sqrt(rad)


def m9_dense(n: int, Q: int, L: int, J: int) -> np.ndarray:
    """Tridiagonal ninth Runge-Lenz matrix in the spherical basis, lambda ascending."""
    N, lams, _, _, _ = _block(n, Q, L, J)
    M = np.zeros((N, N))
    for i, lam in enumerate(lams):
        M[i, i] = -(J - L) * (L + J + 6) * (2 * n + Q + 8) / (8 * (lam + 3) * (lam + 4))
    for i in range(N - 1):
        M[i, i + 1] = M[i + 1, i] = coupling(n, Q, L, J, lams[i + 1])
    return M


def k_dense(n: int, Q: int, L: int, J: int, aZ: float) -> np.ndarray:
    """Separation-constant matrix K(a) at fused focal parameter aZ = a*Z."""
    N, lams, _, _, _ = _block(n, Q, L, J)
    K = np.zeros((N, N))
    for i, lam in enumerate(lams):
        K[i, i] = aZ * (J - L) * (L + J + 6) / (4 * (lam + 3) * (lam + 4)) - lam * (lam + 7)
    scale = 2 * aZ / (2 * n + Q + 8)
    for i in range(N - 1):
        K[i, i + 1] = K[i + 1, i] = -scale * coupling(n, Q, L, J, lams[i + 1])
    return K


def check_sweep(
    text: str, n: int, Q: int, L: int, J: int, Z: str, a_min: float, a_max: float, points: int
) -> None:
    """Check a ``sweep --log --format csv`` output against dense eigvalsh."""
    N = _block(n, Q, L, J)[0]
    lines = text.splitlines()
    if not lines or lines[0] != "a,n_k,K,K_over_a":
        raise CheckError(f"sweep header is {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != points * N:
        raise CheckError(f"sweep has {len(rows)} rows, want {points} points x N = {N}")
    grid = np.logspace(math.log10(a_min), math.log10(a_max), points)
    zf = float(Fraction(Z))
    for ip in range(points):
        block = rows[ip * N : (ip + 1) * N]
        a = float(block[0][0])
        if not math.isclose(a, grid[ip], rel_tol=1e-12):
            raise CheckError(f"grid point {ip} is a = {a}, want {grid[ip]}")
        Ks = []
        for k, row in enumerate(block):
            if len(row) != 4 or float(row[0]) != a or int(row[1]) != k:
                raise CheckError(f"malformed row {row} at grid point {ip}, branch {k}")
            K, K_over_a = float(row[2]), float(row[3])
            if not math.isclose(K_over_a, K / a, rel_tol=4e-16, abs_tol=0.0):
                raise CheckError(f"K_over_a = {K_over_a} is not K/a = {K / a} at a = {a}")
            Ks.append(K)
        if any(k1 >= k2 for k1, k2 in zip(Ks, Ks[1:])):
            raise CheckError(f"K not ascending at a = {a}: {Ks}")
        dense = k_dense(n, Q, L, J, a * zf)
        ref = np.linalg.eigvalsh(dense)
        tol = SWEEP_K_RTOL * max(1.0, float(np.abs(dense).sum(axis=1).max()))
        err = float(np.abs(np.array(Ks) - ref).max())
        if err > tol:
            raise CheckError(f"K deviates from dense eigvalsh by {err:.3e} > {tol:.3e} at a = {a}")


def _radical(rec: dict) -> float:
    coeff = Fraction(rec["coeff"])
    radicand = Fraction(rec["radicand"])
    if radicand < 0:
        raise CheckError(f"negative radicand in {rec}")
    return float(coeff) * math.sqrt(radicand)


def check_wmatrix(text: str, n: int, Q: int, L: int, J: int) -> None:
    """Check a ``wmatrix --mode exact`` record: orthogonality and M9 eigencolumns."""
    rec = json.loads(text)
    if rec.get("command") != "wmatrix" or rec.get("mode") != "exact":
        raise CheckError(f"record is {rec.get('command')}/{rec.get('mode')}, want wmatrix/exact")
    sec = rec["sector"]
    if (sec["n"], sec["Q"], sec["L"], sec["J"]) != (n, Q, L, J):
        raise CheckError(f"record sector {sec} is not {(n, Q, L, J)}")
    N = _block(n, Q, L, J)[0]
    rows = rec["payload"]["matrix"]
    if len(rows) != N or any(len(r) != N for r in rows):
        raise CheckError(f"W is not {N} x {N}")
    W = np.array([[_radical(x) for x in r] for r in rows])
    ortho = float(np.abs(W.T @ W - np.eye(N)).max())
    if ortho > W_ORTHO_TOL:
        raise CheckError(f"|W^T W - I| = {ortho:.3e} > {W_ORTHO_TOL:.0e}")
    M = m9_dense(n, Q, L, J)
    mu = np.array([n + Q / 2 - J - 2 * n_p for n_p in range(N)])
    resid = float(np.abs(M @ W - W * mu).max())
    tol = W_EIGEN_RTOL * max(1.0, float(np.abs(M).sum(axis=1).max()))
    if resid > tol:
        raise CheckError(f"|M9 W - W diag(mu)| = {resid:.3e} > {tol:.3e}")


def check_verify(rc: int, out: str, err: str, known_fault: bool) -> bool:
    """Judge one ``verify`` run; True if it passed, False for the known fault.

    A known-fault sector may either pass (once the fault is mended) or exit 3
    with LimitMismatch named on stderr; any other outcome, on any sector,
    raises CheckError.
    """
    if rc == 0:
        rec = json.loads(out)
        payload = rec["payload"]
        names = [c["name"] for c in payload["checks"]]
        if sorted(names) != sorted(VERIFY_CHECKS):
            raise CheckError(f"verify checks are {names}, want the eleven named checks")
        failing = [c["name"] for c in payload["checks"] if c["ok"] is not True]
        if failing or payload["ok"] is not True or rec.get("command") != "verify":
            raise CheckError(f"verify exited 0 but reports failing checks {failing}")
        return True
    if known_fault and rc == 3 and "LimitMismatch" in err:
        return False
    raise CheckError(f"verify exited {rc} with stderr {err.strip()[:200]!r}")
