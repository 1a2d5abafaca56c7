"""Prolate-spheroidal separation constants and their basis transformation.

The separation constants K at focal distance a are the eigenvalues of the
symmetric tridiagonal N x N matrix K(a) = -Lambda - a (alpha/2) M9, with
Lambda = diag(lambda(lambda+7)) and M9 the ninth Runge-Lenz matrix.  As
alpha = 4Z/(2n+Q+8), K depends on a and Z only through aZ: everything here
works at Z = 1 and reads no charge, so each a below is the user's aZ.  The
exact pencil, the integer pairs of coeffs.k_pencil, is rounded once per
(n, Q, L, J), so K(a) costs one multiply-add per entry.  build_k_matrix,
its one float builder, and separation_constants, the one solve, take a
scalar a for one matrix or a list of a for the stack, solved in one batch.
Each spectrum keeps the matrix it was solved from, which the continuant
route and both limit checks read; a stack's rows and slices are spectra
too.  SPHERICAL_AZ and parabolic_distance alone place the limit checks.
The eigenvector columns are the expansion coefficients of each spheroidal
state over the spherical basis.  Columns follow the sign convention "first
nonzero entry positive" (numerically: first entry exceeding 1e-12 of the
column's max magnitude, which keeps the convention deterministic when
leading entries underflow near the a -> 0 limit).  sweep_branches alone
skips the convention: it reads its columns only through the magnitudes of
their overlaps.

Two independent routes compute the eigenvectors from the same float
entries: LAPACK's dense eigh on the whole stack of matrices, and the
twisted continuant recurrence (t_by_continuant) at every eigenvalue of a
stack at once, which stays accurate however strongly K(a) is graded.

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

from . import coeffs  # numpy is imported where used: the CLI loads this module for every command
from ._backend import _tridiag_product, tridiag_eigh
from .errors import (
    DegenerateShift,
    LimitMismatch,
    ValidationError,
)
from .exactscalar import sqrt_ratio
from .interbasis import WMatrix
from .sector import Sector

_SIGN_TOL = 1e-12
_PARABOLIC_TOL = 1e-4  # check_parabolic_limit's tolerance, which parabolic_distance aims for
PARABOLIC_MIN_AZ = 1e4  # the least aZ at which the parabolic first-order check applies
SPHERICAL_AZ = 1e-8  # the aZ at which check_spherical_limit is taken


@dataclass(frozen=True)
class SymTridiagonal:
    """One matrix, diag (N,) and offdiag (N-1,), or a stack, diag (P, N) and offdiag (P, N-1)."""

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.shape[-1]

    def __getitem__(self, i) -> "SymTridiagonal":
        """Matrix i of a stack, or a sub-stack for a slice."""
        if self.diag.ndim != 2:
            raise ValidationError("only a stack of tridiagonals can be indexed")
        return SymTridiagonal(self.diag[i], self.offdiag[i])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """T v, matrix by matrix, for vectors (..., N) or blocks of columns (..., N, M)."""
        import numpy as np
        v = np.asarray(v, dtype=np.float64)
        vector = v.ndim == self.diag.ndim
        TV = _tridiag_product(self.diag, self.offdiag, v[..., None] if vector else v)
        return TV[..., 0] if vector else TV

    def norm(self):
        """Infinity norm: a float for one matrix, an array (P,) for a stack."""
        r = abs(self.diag)
        r[..., 1:] += abs(self.offdiag)
        r[..., :-1] += abs(self.offdiag)
        return float(r.max()) if r.ndim == 1 else r.max(axis=-1)


@functools.lru_cache(maxsize=64)
def _k_pencil(s: Sector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float pencil of K(a) = -Lambda - a (alpha/2) M9 per unit aZ, each entry rounded once.

    Returns (-lambda(lambda+7), the diagonal slope, the coupling slope),
    lambda ascending: each diagonal coeffs.k_pencil pair by one correctly
    rounded int division, and each coupling sqrt_ratio of its pair, within
    1 ulp.  Read-only: the cache hands the same arrays to every call, at any Z.
    """
    import numpy as np
    lam_term, slope, coupling_sq = coeffs.k_pencil(s)
    pencil = (
        np.array([num / den for num, den in lam_term]),
        np.array([num / den for num, den in slope]),
        -np.array([sqrt_ratio(num, den) for num, den in coupling_sq]),
    )
    for part in pencil:
        part.setflags(write=False)
    return pencil


_COUPLING_LIMIT = math.sqrt(sys.float_info.max)  # squared couplings must stay finite


def build_k_matrix(s: Sector, a) -> SymTridiagonal:
    """Separation-constant matrix K(a) at focal distance aZ = a >= 0 (float entries).

    K(a) = -Lambda - a (alpha/2) M9 from the sector's float pencil:
    diag[i] carries the lambda_i diagonal, offdiag[i] the negative
    coupling at lambda_{i+1}, lambda ascending.  A scalar a gives one
    matrix; a 1-d sequence of P values gives the stack, diag (P, N) and
    offdiag (P, N-1), the layout tridiag_eigh solves.  Any other shape, a
    negative or non-finite a, or an a > 0 whose couplings would overflow
    when squared or round to 0.0 raises ValidationError; at a = 0 the
    couplings are exactly 0.
    """
    import numpy as np
    a = np.asarray(a, dtype=np.float64)
    if a.ndim > 1:
        raise ValidationError(f"focal distances must be a number or a 1-d list, not {a.shape}")
    stack = np.atleast_1d(a)
    for bad, need in ((~np.isfinite(stack), "finite"), (stack < 0, "non-negative")):
        if bad.any():
            raise ValidationError(f"focal distance aZ = {stack[bad][0]} must be {need}")
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
            f"K(a) at aZ = {stack[bad][0]} leaves the float range: entries must be finite and "
            f"couplings nonzero and at most sqrt(float max) = {_COUPLING_LIMIT:.4g} in magnitude"
        )
    return SymTridiagonal(diag, off) if a.ndim else SymTridiagonal(diag[0], off[0])


def sign_fix_columns(V: np.ndarray) -> np.ndarray:
    """Flip columns so the first above-threshold entry is positive (in place).

    V is (..., N, M): every column of every matrix in the stack.
    """
    import numpy as np
    mag = np.abs(V)
    above = mag > _SIGN_TOL * mag.max(axis=-2, keepdims=True)
    *batch, N, M = V.shape  # one fancy index into the (B, N, M) stack reads each column's lead
    B, first = math.prod(batch), np.argmax(above, axis=-2)
    lead = V.reshape(B, N, M)[np.arange(B)[:, None], first.reshape(B, M), np.arange(M)]
    V *= np.where(lead < 0.0, -1.0, 1.0).reshape(*batch, 1, M)
    return V


@dataclass(frozen=True)
class SpheroidalSpectrum:
    """Eigenvalues K (ascending, index n_k) and coefficient columns T of K(a).

    A float a: K (N,), T (N, N) and one matrix.  An array a (P,): K (P, N),
    T (P, N, N) and the stack, whose row i or slice is spectrum[i].
    """

    sector: Sector
    a: float | np.ndarray
    K: np.ndarray
    T: np.ndarray
    matrix: SymTridiagonal

    def __getitem__(self, i) -> "SpheroidalSpectrum":
        mat, a = self.matrix[i], self.a[i]
        return SpheroidalSpectrum(self.sector, a if a.ndim else float(a), self.K[i], self.T[i], mat)


def separation_constants(s: Sector, a) -> SpheroidalSpectrum:
    """Spectrum of K(a) at one focal distance a > 0, or of the stack at a 1-d list, in one batch."""
    import numpy as np
    a = np.asarray(a, dtype=np.float64)
    stack = np.atleast_1d(a)
    if a.ndim > 1 or a.size == 0:
        raise ValidationError("focal distances must form a non-empty 1-d list")
    if not (stack > 0).all():
        raise ValidationError(f"focal distance aZ = {stack[~(stack > 0)][0]} must be positive")
    mat = build_k_matrix(s, a)
    K, T = tridiag_eigh(mat.diag, mat.offdiag)
    return SpheroidalSpectrum(s, a if a.ndim else float(a), K, sign_fix_columns(T), mat)


def t_by_continuant(mat: SymTridiagonal, K) -> np.ndarray:
    """Columns of tridiagonals at their eigenvalues, by the twisted minor recurrence.

    mat is one matrix, diag (N,), or a stack, diag (P, N); K holds M
    eigenvalues of each, (M,) or (P, M), and the columns come back as
    (N, M) or (P, N, M); a scalar K on one matrix gives its (N,) column.
    Ratios of leading minors of (mat - K) run down from the top
    (D+_i = d_i - K - e_{i-1}^2 / D+_{i-1}) and ratios of trailing minors
    run up from the bottom (D-_i, the same recurrence reversed); a ratio
    below pivmin in magnitude becomes -pivmin, which keeps every e^2 / D
    finite (LAPACK's safe-minimum pivot, one per matrix).  The twist index
    r is the first to minimize |D+_r + D-_r - (d_r - K)|, the last diagonal
    entry of the twisted factorization, which is smallest where the column
    peaks (Fernando 1997; Parlett & Dhillon, LAA 1997).  With v_r = 1 the
    column follows as v_i = -e_i v_{i+1} / D+_i above r and v_i = -e_{i-1}
    v_{i-1} / D-_i below it: each side runs in the direction in which its
    components decay, so double precision suffices however strongly K(a)
    is graded.  The matrix and its reversal run side by side (the D+ of
    the reversal are the D-, and its column below the twist is the part
    above it), position first, so each step is one operation over every
    column.  A non-finite K raises ValidationError, and a zero coupling
    (K(a) at a = 0) or a column that is not finite or whose norm overflows
    raises DegenerateShift, each naming the first bad entry.
    """
    import numpy as np
    K = np.asarray(K, dtype=np.float64)
    stacked = mat.diag.ndim == 2
    if mat.diag.ndim > 2 or (K.shape[:-1] != mat.diag.shape[:-1] if K.ndim else stacked):
        raise ValidationError(f"eigenvalues {K.shape} do not fit tridiagonals {mat.diag.shape}")
    if not np.isfinite(K).all():
        raise ValidationError(f"eigenvalue K = {float(K[~np.isfinite(K)][0])} must be finite")
    n, out_shape = mat.size, mat.diag.shape + K.shape[-1:]  # K.shape[-1:] is () for a scalar
    if n == 1:
        return np.ones(out_shape)
    zero = mat.offdiag == 0.0
    if zero.any():
        *p, i = np.argwhere(zero)[0]
        at = f"tridiagonal {p[0]}" if stacked else "the tridiagonal"
        raise DegenerateShift(f"zero coupling at position {i} of {at}")
    K = K.reshape(mat.diag.size // n, K.shape[-1] if K.ndim else 1)  # (P, M), P = 1 for one
    # axes: position, then the matrix (0) and its reversal (1), then P and M
    e = mat.offdiag.reshape(len(K), n - 1).T[:, None, :, None]
    e = np.concatenate([e, e[::-1]], axis=1)
    with np.errstate(all="ignore"):  # a column that is not finite raises below
        shifted = mat.diag.reshape(len(K), n).T[:, None, :, None] - K
        off2 = e * e
        pivmin = sys.float_info.min * np.maximum(1.0, off2.max(axis=(0, 1)))
        piv = np.concatenate([shifted, shifted[::-1]], axis=1)  # D+ of both: the reversal's are D-
        for i in range(n):
            if i:
                np.subtract(piv[i], off2[i - 1] / piv[i - 1], out=piv[i])
            np.copyto(piv[i], -pivmin, where=np.abs(piv[i]) < pivmin)
        r = np.argmin(np.abs(piv[:, 0] + piv[::-1, 1] - shifted[:, 0]), axis=0)
        # v_r = 1, then down the matrix through D- and down the reversal (up the matrix) through D+
        pos = np.arange(n)[:, None, None, None] - np.stack([r, n - 1 - r])  # from the twist
        w = (pos == 0) * 1.0
        den, neg_e, after = piv[::-1, ::-1], -e, pos > 0  # den[i] = (D-_i, D+_{N-1-i})
        for i in range(1, n):
            np.copyto(w[i], neg_e[i - 1] * w[i - 1] / den[i], where=after[i])
        up, down = w[::-1, 1].transpose(1, 2, 0), w[:, 0].transpose(1, 2, 0)
        rows = np.where(np.arange(n) < r[..., None], up, down)  # (P, M, N): row per column
        sq = rows[..., None, :] @ rows[..., :, None]  # (P, M, 1, 1): a BLAS dot, as in norm
    bad = ~np.isfinite(sq[..., 0, 0])  # a non-finite entry, or a norm that overflows
    if bad.any():
        raise DegenerateShift(f"non-finite continuant column at K = {float(K[bad][0])}")
    rows /= np.sqrt(sq)[..., 0]
    return sign_fix_columns(rows.swapaxes(1, 2)).reshape(out_shape)


def sweep_branches(s: Sector, a_grid) -> tuple[np.ndarray, float]:
    """K per (grid point, branch) over an ascending positive grid of a, and the least overlap.

    Branch n_k is the k-th smallest K at every point: the spectra are
    simple, so ascending order is the branch label on any grid.  The least
    adjacent-point eigenvector overlap |<T_p, T_p+1>| over every branch is
    only reported; a low one says the grid is coarse near an avoided
    crossing, not that any K is wrong.  K is separation_constants' K bit for
    bit, but the columns are solved and read here without its sign
    convention, which no overlap's magnitude reads.
    """
    import numpy as np
    a_grid = np.asarray(a_grid, dtype=np.float64)
    if a_grid.ndim != 1 or a_grid.size < 1:
        raise ValidationError("a_grid must be a 1-d array of at least one point")
    if not (np.diff(a_grid) > 0).all() or not (a_grid > 0).all():
        raise ValidationError("a_grid must be ascending and positive")
    mat = build_k_matrix(s, a_grid)
    K, T = tridiag_eigh(mat.diag, mat.offdiag)
    overlaps = np.abs(np.einsum("pij,pij->pj", T[:-1], T[1:]))
    return K, float(overlaps.min(initial=1.0))


@dataclass(frozen=True)
class SphericalLimitReport:
    value_errors: np.ndarray  # |K - diag entry|, the O(a^2) remainder
    raw_gaps: np.ndarray  # |K + lam(lam+7)|, O(a) when J != L
    vector_errors: np.ndarray  # max-norm distance of T columns to unit vectors

    @property
    def max_value_error(self) -> float:
        return float(self.value_errors.max())

    @property
    def max_vector_error(self) -> float:
        return float(self.vector_errors.max())


def _worst(kind: str, errors: np.ndarray) -> str:
    """The largest of the per-branch errors and its branch n_k, for a LimitMismatch message."""
    i = int(errors.argmax())
    return f"worst {kind} error {errors[i]:.3g} at n_k = {i}"


def check_spherical_limit(
    spectrum: SpheroidalSpectrum, tol_value: float = 1e-12, tol_vector: float = 1e-6
) -> SphericalLimitReport:
    """Verify the small-a degeneration of a spectrum solved at a small a.

    Branch n_k lands on angular label lambda = n+Q/2-n_k: its eigenvalue
    must match the corresponding diagonal entry of the solved matrix to
    tol_value (the remainder is O(a^2); the diagonal itself is
    -lambda(lambda+7) plus an O(a) shift that vanishes when J = L), and
    its column must approach that coordinate unit vector to tol_vector.
    Raises LimitMismatch, naming the worst branch of each error, on failure.
    """
    import numpy as np
    if spectrum.K.ndim != 1:  # a stack's axis would be read as the branches
        raise ValidationError("the spherical limit check takes one spectrum, not a stack")
    s, mat, a_small = spectrum.sector, spectrum.matrix, spectrum.a
    # branch n_k lands on position N-1-n_k of the ascending ladder; raw gap |K + lambda(lambda+7)|
    value_errors = np.abs(spectrum.K - mat.diag[::-1])
    raw_gaps = np.abs(spectrum.K - _k_pencil(s)[0][::-1])
    vector_errors = np.abs(spectrum.T - np.eye(s.size)[::-1]).max(axis=0)
    report = SphericalLimitReport(value_errors, raw_gaps, vector_errors)
    if report.max_value_error > tol_value or report.max_vector_error > tol_vector:
        raise LimitMismatch(
            f"spherical limit failed for {s} at aZ = {a_small}: "
            f"{_worst('value', value_errors)}, {_worst('vector', vector_errors)}"
        )
    return report


@dataclass(frozen=True)
class ParabolicLimitReport:
    set_errors: np.ndarray  # K/a (ascending, so by n_k) vs sorted first-order targets
    branch_np: np.ndarray  # eigenvalue-matched parabolic label per branch
    column_errors: np.ndarray  # max-norm distance of T columns to first-order W columns

    @property
    def max_set_error(self) -> float:
        return float(self.set_errors.max())

    @property
    def max_column_error(self) -> float:
        return float(self.column_errors.max())


def _first_order(W: WMatrix):
    """Float W, G's diagonal and shift, the first-order column correction times a alpha.

    G = W^T Lambda W is the tridiagonal coeffs.np_recurrence and mu_p falls by 2 per n_p, so the
    gaps to q = p +- 1 are +-a alpha: shift[:, p] = W[:,p+1] G_p,p+1 - W[:,p-1] G_p-1,p.
    """
    import numpy as np
    s, w = W.sector, W.to_float()
    lower, diag, upper = coeffs.np_recurrence(s)
    g_off = -np.array([sqrt_ratio(x * y, 1) for x, y in zip(lower[1:], upper)])
    shift = np.zeros_like(w)
    shift[:, :-1] = w[:, 1:] * g_off
    shift[:, 1:] -= w[:, :-1] * g_off
    g_diag = np.add(diag, (s.L + s.J) * (s.L + s.J + 14) / 4)  # h(h+7), h = (L+J)/2
    g_diag.flags.writeable = shift.flags.writeable = False  # both readers share them
    return w, g_diag, shift


def _frame(W: WMatrix):
    """_first_order(W), run once per W: the parabolic distance and check both read it.

    It is kept in W's __dict__ beside W's cached views, so a copy by
    dataclasses.replace runs its own.
    """
    frame = W.__dict__.get("_first_order")
    if frame is None:
        frame = W.__dict__["_first_order"] = _first_order(W)
    return frame


def parabolic_distance(W: WMatrix) -> float:
    """check_parabolic_limit's focal distance aZ.

    Never below PARABOLIC_MIN_AZ, it is where the check's first-order
    column correction, which falls as 1/(aZ), is 10 tol: a missing or wrong
    correction fails the check, while the remainder, about (10 tol)^2,
    stays well inside tol.
    """
    s = W.sector  # alpha = 4/(2n+Q+8) at Z = 1, one int division
    correction = float(abs(_frame(W)[2]).max()) / (4 / (2 * s.n + s.Q + 8))
    return max(correction / (10 * _PARABOLIC_TOL), PARABOLIC_MIN_AZ)


def check_parabolic_limit(
    W: WMatrix, spectrum: SpheroidalSpectrum, tol: float = _PARABOLIC_TOL
) -> ParabolicLimitReport:
    """Verify the large-a degeneration of a spectrum against the parabolic constants.

    In the parabolic basis (the columns of W) K(a) = -Lambda - a (alpha/2)
    M9 is -G - a (alpha/2) diag(mu), with G = W^T Lambda W and mu_p =
    n+Q/2-J-2n_p, so to first order in 1/a the set {K/a} must approach
    {-(alpha/2) mu_p - G_pp/a} and each branch's column the renormalized
    W[:,p] + sum_{q = p +- 1} W[:,q] G_qp / (a (alpha/2) (mu_p - mu_q)), G
    being the closed-form tridiagonal coeffs.np_recurrence, with p matched per
    eigenvalue rather than per descending label.  Subtracting the first-order
    term keeps the check valid as G grows with N.  The spectrum's aZ must be
    at least PARABOLIC_MIN_AZ; parabolic_distance places it.  W must belong to
    the spectrum's sector.  Raises LimitMismatch on failure.
    """
    import numpy as np
    if spectrum.K.ndim != 1:
        raise ValidationError("the parabolic limit check takes one spectrum, not a stack")
    s, a_large = spectrum.sector, spectrum.a
    if W.sector != s:
        raise ValidationError(f"W of sector {W.sector} given for a spectrum of sector {s}")
    if not a_large >= PARABOLIC_MIN_AZ:
        raise ValidationError(f"aZ = {a_large} must be at least 1e4 for the parabolic limit")
    n, alpha = s.size, 4 / (2 * s.n + s.Q + 8)  # alpha at Z = 1
    w, g_diag, shift = _frame(W)
    targets = -alpha / 4 * np.array(coeffs.m9_twice_eigenvalues(s)) - g_diag / a_large
    columns = w + shift / (a_large * alpha)
    columns /= np.linalg.norm(columns, axis=0)
    k_over_a = spectrum.K / a_large
    set_errors = np.abs(np.sort(k_over_a) - np.sort(targets))

    branch_np = np.argmin(np.abs(targets - k_over_a[:, None]), axis=1)  # [branch, target] grid
    column_errors = np.abs(spectrum.T - columns[:, branch_np]).max(axis=0)
    report = ParabolicLimitReport(set_errors, branch_np, column_errors)
    if len(set(branch_np.tolist())) != n:
        counts = np.bincount(branch_np, minlength=n)
        n_p = int(np.argmax(counts))
        raise LimitMismatch(
            f"parabolic limit matching is not a bijection for {s}: "
            f"n_p = {n_p} matches {counts[n_p]} branches"
        )
    if report.max_set_error > tol or report.max_column_error > tol:
        raise LimitMismatch(
            f"parabolic limit failed for {s} at aZ = {a_large}: "
            f"{_worst('set', set_errors)}, {_worst('column', column_errors)}"
        )
    return report
