"""Prolate-spheroidal separation constants and their basis transformation.

The separation constants K at focal distance a are the eigenvalues of the
symmetric tridiagonal N x N matrix K(a) = -Lambda - a (alpha/2) M9, with
Lambda = diag(lambda(lambda+7)) and M9 the ninth Runge-Lenz matrix.  The
exact pencil coeffs.k_pencil is rounded once per sector (which carries
the charge Z), so K(a) costs one multiply-add per entry, and
build_k_matrix, its one float builder, takes a whole list of a to be
solved in one batch.  Each spectrum keeps the matrix it was solved from,
which the continuant route and both limit checks read.  The eigenvector
columns are the expansion coefficients of each spheroidal state over
the spherical basis.  Columns follow the sign
convention "first nonzero entry positive" (numerically: first entry
exceeding 1e-12 of the column's max magnitude, which keeps the
convention deterministic when leading entries underflow near the a -> 0
limit).

Two independent routes compute the eigenvectors from the same float
entries: LAPACK's dense eigh on the whole stack of matrices, and the
continuant (three-term minor) recurrence at one eigenvalue of one solved
matrix.  The continuant is twisted: ratios of leading minors run down
from the top of the ladder and ratios of trailing minors up from the
bottom, and the column is built outward from the index where the two
meet best, so each half runs in its stable direction.  At small a, K(a)
is strongly graded and the trailing components of a column fall far
below its peak; a one-sided recurrence would need the shift to many more
bits than double precision to reproduce them.

Labeling: n_k is ascending eigenvalue order at every a.  Eigenvalues of
the irreducible tridiagonal matrix are simple for a > 0, so this
labeling is continuity-consistent across the whole range.  Under it the
a -> 0 spectrum is -(n+Q/2-n_k)(n+Q/2-n_k+7) per branch, while the
a -> infinity K/a values match the parabolic set with branch i pairing
with parabolic label n_p = i (equivalently N-1-n_k in the descending
convention).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import coeffs
from ._backend import _tridiag_product, tridiag_eigh
from .errors import (
    BranchMatchAmbiguous,
    DegenerateShift,
    LimitMismatch,
    ValidationError,
)
from .interbasis import WMatrix
from .sector import Sector, alpha_scale, lambda_range, m9_parabolic_eigenvalue

_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class SymTridiagonal:
    """diag (..., N) and offdiag (..., N-1), float64; matvec and norm read one matrix."""

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.shape[-1]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T v for a vector v (N,) or a block of columns (N, M)."""
        v = np.asarray(v, dtype=np.float64)
        return _tridiag_product(self.diag, self.offdiag, v.reshape(self.size, -1)).reshape(v.shape)

    def norm(self) -> float:
        """Infinity norm."""
        r = np.abs(self.diag)
        r[1:] += np.abs(self.offdiag)
        r[:-1] += np.abs(self.offdiag)
        return float(r.max())


@functools.lru_cache(maxsize=64)
def _k_pencil(s: Sector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float pencil of K(a) = -Lambda - a (alpha/2) M9, each entry rounded once.

    Returns (-lambda(lambda+7), the diagonal slope, the coupling slope),
    lambda ascending, from the exact coeffs.k_pencil at the sector's charge;
    a charge whose entries overflow a float, or whose couplings (all
    positive) underflow to 0, raises ValidationError.
    Read-only: the cache hands the same arrays to every call.
    """
    lam_term, slope, coupling_sq = coeffs.k_pencil(s)
    Z = s.Z  # float K(a) scales with the sector's charge
    try:
        pencil = (
            np.array([float(x) for x in lam_term]),
            np.array([float(Z * x) for x in slope]),
            -np.sqrt(np.array([float(Z * Z * x) for x in coupling_sq])),
        )
    except OverflowError as exc:
        raise ValidationError(f"K(a) at Z = {Z} leaves the float range") from exc
    if not pencil[2].all():
        raise ValidationError(f"K(a) at Z = {Z} leaves the float range: a coupling underflows to 0")
    for part in pencil:
        part.setflags(write=False)
    return pencil


_COUPLING_LIMIT = math.sqrt(np.finfo(np.float64).max)  # squared couplings must stay finite


def build_k_matrix(s: Sector, a) -> SymTridiagonal:
    """Separation-constant matrix K(a) at focal distance a >= 0 (float entries).

    K(a) = -Lambda - a (alpha/2) M9 from the sector's float pencil:
    diag[i] carries the lambda_i diagonal, offdiag[i] the negative
    coupling at lambda_{i+1}, lambda ascending.  A scalar a gives one
    matrix; a 1-d sequence of P values gives the stack, diag (P, N) and
    offdiag (P, N-1), the layout tridiag_eigh solves.  Any other shape, a
    negative or non-finite a, or an a > 0 whose couplings would overflow
    when squared or round to 0.0 raises ValidationError; at a = 0 the
    couplings are exactly 0.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim > 1:
        raise ValidationError(f"focal distances must be a number or a 1-d list, not {a.shape}")
    stack = np.atleast_1d(a)
    for bad, need in ((~np.isfinite(stack), "finite"), (stack < 0, "non-negative")):
        if bad.any():
            raise ValidationError(f"focal distance a = {stack[bad][0]} must be {need}")
    lam_term, diag_slope, off_slope = _k_pencil(s)
    with np.errstate(over="ignore"):  # checked just below
        diag = lam_term + stack[:, None] * diag_slope
        off = stack[:, None] * off_slope
    bad = (
        ~np.isfinite(diag).all(axis=1)
        | (np.abs(off) > _COUPLING_LIMIT).any(axis=1)
        | ((off == 0.0).any(axis=1) & (stack > 0))  # the pencil's couplings are all nonzero
    )
    if bad.any():
        raise ValidationError(
            f"K(a) at a = {stack[bad][0]} leaves the float range: entries must be finite and "
            f"couplings nonzero and at most sqrt(float max) = {_COUPLING_LIMIT:.4g} in magnitude"
        )
    return SymTridiagonal(diag, off) if a.ndim else SymTridiagonal(diag[0], off[0])


def sign_fix_columns(V: np.ndarray) -> np.ndarray:
    """Flip columns so the first above-threshold entry is positive (in place).

    V is (..., N, M): every column of every matrix in the stack.
    """
    mag = np.abs(V)
    above = mag > _SIGN_TOL * mag.max(axis=-2, keepdims=True)
    lead = np.take_along_axis(V, np.argmax(above, axis=-2)[..., None, :], axis=-2)
    V *= np.where(lead < 0.0, -1.0, 1.0)
    return V


@dataclass(frozen=True)
class SpheroidalSpectrum:
    """Eigenvalues K (ascending, index n_k) and coefficient columns T of matrix K(a)."""

    sector: Sector
    a: float
    K: np.ndarray
    T: np.ndarray
    matrix: SymTridiagonal


def _solve(s: Sector, a_values):
    """(a (P,), K(a) stack, K (P, N), T (P, N, N)) at each positive a, in one batched solve."""
    a = np.asarray(a_values, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError("focal distances must form a non-empty 1-d list")
    if not (a > 0).all():
        raise ValidationError(f"focal distance a = {a[~(a > 0)][0]} must be positive")
    mat = build_k_matrix(s, a)
    K, T = tridiag_eigh(mat.diag, mat.offdiag)
    return a, mat, K, sign_fix_columns(T)


def spectra(s: Sector, a_values) -> list[SpheroidalSpectrum]:
    """Spectra at each focal distance in a_values, solved as one batch."""
    a, mat, K, T = _solve(s, a_values)
    rows = zip(a, K, T, mat.diag, mat.offdiag)
    return [SpheroidalSpectrum(s, float(x), k, t, SymTridiagonal(d, e)) for x, k, t, d, e in rows]


def separation_constants(s: Sector, a) -> SpheroidalSpectrum:
    """Full spectrum of the separation-constant matrix at focal distance a."""
    return spectra(s, [a])[0]


def _pivot_ratios(shifted: list, off2: list, pivmin: float) -> list:
    """Ratios D_i = shifted_i - off2_{i-1} / D_{i-1} of successive leading minors.

    A ratio smaller than pivmin in magnitude is replaced by -pivmin, which
    keeps every off2 / D finite (LAPACK's safe-minimum pivot).
    """
    out = []
    for i, x in enumerate(shifted):
        piv = x - off2[i - 1] / out[-1] if i else x
        out.append(-pivmin if abs(piv) < pivmin else piv)
    return out


def t_by_continuant(mat: SymTridiagonal, K: float) -> np.ndarray:
    """Column of one tridiagonal mat at its eigenvalue K, by the twisted minor recurrence.

    Ratios of leading minors of (mat - K) run down from the top
    (D+_i = d_i - K - e_{i-1}^2 / D+_{i-1}) and ratios of trailing minors
    run up from the bottom (D-_i, the same recurrence reversed).  The twist
    index r minimizes |D+_r + D-_r - (d_r - K)|, the last diagonal entry of
    the twisted factorization, which is smallest where the column peaks
    (Fernando 1997; Parlett & Dhillon, LAA 1997).  With v_r = 1 the column
    follows as v_i = -e_i v_{i+1} / D+_i above r and v_i = -e_{i-1} v_{i-1}
    / D-_i below it: each side runs in the direction in which its
    components decay, so double precision suffices however strongly K(a)
    is graded.  The route reads the entries of a solved spectrum's matrix
    and shares nothing else with the LAPACK route.  A non-finite K raises
    ValidationError; a zero coupling (K(a) at a = 0) or a non-finite column
    raises DegenerateShift.
    """
    if not math.isfinite(K):
        raise ValidationError(f"eigenvalue K = {K} must be finite")
    n = mat.size
    if n == 1:
        return np.ones(1)
    e = mat.offdiag.tolist()
    if 0.0 in e:
        raise DegenerateShift(f"zero coupling at position {e.index(0.0)} of the tridiagonal")
    shifted = (mat.diag - K).tolist()
    off2 = [x * x for x in e]
    pivmin = sys.float_info.min * max(1.0, max(off2))
    lead = _pivot_ratios(shifted, off2, pivmin)
    trail = _pivot_ratios(shifted[::-1], off2[::-1], pivmin)[::-1]
    r = min(range(n), key=lambda i: abs(lead[i] + trail[i] - shifted[i]))

    v = [0.0] * n
    v[r] = 1.0
    for i in range(r - 1, -1, -1):
        v[i] = -e[i] * v[i + 1] / lead[i]
    for i in range(r + 1, n):
        v[i] = -e[i - 1] * v[i - 1] / trail[i]
    col = np.array(v)
    if not np.isfinite(col).all():
        raise DegenerateShift(f"non-finite continuant column at K = {K}")
    col /= np.linalg.norm(col)
    return sign_fix_columns(col.reshape(-1, 1)).ravel()


@dataclass(frozen=True)
class BranchSweep:
    """K and K/a per (grid point, branch), branches continuity-checked."""

    sector: Sector
    a_grid: np.ndarray
    K: np.ndarray  # shape (len(a_grid), N)
    K_over_a: np.ndarray
    min_overlap: float


def sweep_branches(s: Sector, a_grid) -> BranchSweep:
    """Track all N branches over an ascending positive grid of a values.

    Ascending-order labeling is continuity-consistent (simple spectra);
    the adjacent-point eigenvector overlap per branch certifies it and
    raises BranchMatchAmbiguous at or below 0.9 (grid too coarse), naming
    the first failing pair of points.  An a so small that K/a overflows
    raises ValidationError.
    """
    a_grid = np.asarray(a_grid, dtype=np.float64)
    if a_grid.ndim != 1 or a_grid.size < 1:
        raise ValidationError("a_grid must be a 1-d array of at least one point")
    if not (np.diff(a_grid) > 0).all() or not (a_grid > 0).all():
        raise ValidationError("a_grid must be ascending and positive")
    _, _, K, T = _solve(s, a_grid)
    with np.errstate(over="ignore"):  # checked just below
        K_over_a = K / a_grid[:, None]
    bad = ~np.isfinite(K_over_a).all(axis=1)
    if bad.any():
        raise ValidationError(f"K/a at a = {a_grid[bad][0]} leaves the float range")
    worst = np.abs(np.einsum("pij,pij->pj", T[:-1], T[1:])).min(axis=1, initial=1.0)
    bad = np.flatnonzero(worst <= 0.9)
    if bad.size:
        ip = int(bad[0])
        raise BranchMatchAmbiguous(
            f"branch overlap {worst[ip]:.3f} <= 0.9 between a = {a_grid[ip]} "
            f"and a = {a_grid[ip + 1]} in sector {s}"
        )
    min_overlap = float(worst.min(initial=1.0))
    return BranchSweep(s, a_grid, K, K_over_a, min_overlap)


@dataclass(frozen=True)
class SphericalLimitReport:
    sector: Sector
    a_small: float
    value_errors: np.ndarray  # |K - diag entry|, the O(a^2) remainder
    raw_gaps: np.ndarray  # |K + lam(lam+7)|, O(a) when J != L
    vector_errors: np.ndarray  # max-norm distance of T columns to unit vectors

    @property
    def max_value_error(self) -> float:
        return float(self.value_errors.max())

    @property
    def max_vector_error(self) -> float:
        return float(self.vector_errors.max())


def check_spherical_limit(
    spectrum: SpheroidalSpectrum, tol_value: float = 1e-12, tol_vector: float = 1e-6
) -> SphericalLimitReport:
    """Verify the small-a degeneration of a spectrum solved at a small a.

    Branch n_k lands on angular label lambda = n+Q/2-n_k: its eigenvalue
    must match the corresponding diagonal entry of the solved matrix to
    tol_value (the remainder is O(a^2); the diagonal itself is
    -lambda(lambda+7) plus an O(a) shift that vanishes when J = L), and
    its column must approach that coordinate unit vector to tol_vector.
    Raises LimitMismatch with per-branch diagnostics on failure.
    """
    s, mat, a_small = spectrum.sector, spectrum.matrix, spectrum.a
    n = s.size
    lams = lambda_range(s)
    value_errors = np.empty(n)
    raw_gaps = np.empty(n)
    vector_errors = np.empty(n)
    for n_k in range(n):
        idx = n - 1 - n_k  # position of lambda = m - n_k in the ascending ladder
        lam = lams[idx].fraction
        value_errors[n_k] = abs(spectrum.K[n_k] - mat.diag[idx])
        raw_gaps[n_k] = abs(spectrum.K[n_k] + float(lam * (lam + 7)))
        vector_errors[n_k] = np.abs(spectrum.T[:, n_k] - np.eye(n)[idx]).max()
    report = SphericalLimitReport(s, a_small, value_errors, raw_gaps, vector_errors)
    if report.max_value_error > tol_value or report.max_vector_error > tol_vector:
        raise LimitMismatch(
            f"spherical limit failed for {s} at a = {a_small}: "
            f"value errors {value_errors}, vector errors {vector_errors}"
        )
    return report


@dataclass(frozen=True)
class ParabolicLimitReport:
    sector: Sector
    a_large: float
    set_errors: np.ndarray  # sorted K/a vs sorted first-order targets, over Z
    branch_np: np.ndarray  # eigenvalue-matched parabolic label per branch
    column_errors: np.ndarray  # max-norm distance of T columns to first-order W columns

    @property
    def max_set_error(self) -> float:
        return float(self.set_errors.max())

    @property
    def max_column_error(self) -> float:
        return float(self.column_errors.max())


def check_parabolic_limit(
    W: WMatrix, spectrum: SpheroidalSpectrum, tol: float = 1e-4
) -> ParabolicLimitReport:
    """Verify the large-a degeneration of a spectrum against the parabolic constants.

    In the parabolic basis (the columns of W) K(a) = -Lambda - a (alpha/2)
    M9 is -G - a (alpha/2) diag(mu), with G = W^T Lambda W and mu_p =
    n+Q/2-J-2n_p, so to first order in 1/a the set {K/a} must approach
    {-(alpha/2) mu_p - G_pp/a} and each branch's column the renormalized
    W[:,p] + sum_{q != p} W[:,q] G_qp / (a (alpha/2) (mu_p - mu_q)), with p
    matched per eigenvalue rather than per descending label.  Subtracting
    the first-order term keeps the check valid as G grows with N.  K(a)
    depends on a and Z only through aZ, and K/a scales with Z, so the K/a
    errors are divided by Z and the spectrum's a Z must be at least 1e4:
    the same aZ and tol then mean the same check at every charge.  W must
    belong to the spectrum's sector.  Raises LimitMismatch on failure.
    """
    s, a_large = spectrum.sector, spectrum.a
    if W.sector != s:
        raise ValidationError(f"W of sector {W.sector} given for a spectrum of sector {s}")
    zf = float(s.Z)
    if not a_large * zf >= 1e4:
        raise ValidationError(f"a_large Z = {a_large} * {s.Z} must be at least 1e4")
    n = s.size
    half_alpha = alpha_scale(s) / 2  # sqrt(-2E)
    lead = np.array(
        [-float(half_alpha * m9_parabolic_eigenvalue(s, n_p).fraction) for n_p in range(n)]
    )
    w = W.to_float()
    lam = -_k_pencil(s)[0]  # Lambda = diag(lambda(lambda+7))
    G = w.T @ (lam[:, None] * w)
    targets = lead - np.diag(G) / a_large
    gaps = a_large * (lead[:, None] - lead[None, :])  # [q, p] = a (alpha/2) (mu_p - mu_q)
    np.fill_diagonal(gaps, np.inf)
    columns = w + w @ (G / gaps)
    columns /= np.linalg.norm(columns, axis=0)
    ratios = spectrum.K / a_large
    set_errors = np.abs(np.sort(ratios) - np.sort(targets)) / zf

    branch_np = np.empty(n, dtype=np.int64)
    column_errors = np.empty(n)
    for i in range(n):
        j = int(np.argmin(np.abs(targets - ratios[i])))
        branch_np[i] = j
        column_errors[i] = np.abs(spectrum.T[:, i] - columns[:, j]).max()
    report = ParabolicLimitReport(s, a_large, set_errors, branch_np, column_errors)
    if len(set(branch_np.tolist())) != n:
        raise LimitMismatch(f"parabolic limit matching is not a bijection for {s}: {branch_np}")
    if report.max_set_error > tol or report.max_column_error > tol:
        raise LimitMismatch(
            f"parabolic limit failed for {s} at a = {a_large}: "
            f"set errors {set_errors}, column errors {column_errors}"
        )
    return report
