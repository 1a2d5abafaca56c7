"""Prolate-spheroidal separation constants and their basis transformation.

The separation constants K at focal distance a are the eigenvalues of the
symmetric tridiagonal N x N matrix K(a) = -Lambda - a (alpha/2) M9, with
Lambda = diag(lambda(lambda+7)) and M9 the ninth Runge-Lenz matrix.  Both
routes to K(a) read the exact pencil coeffs.k_pencil: the float route
rounds it once per (sector, Z), so K(a) costs one multiply-add per entry
and a whole grid of a is solved in one batch, and the continuant route
takes its exact diagonal and squared couplings from it with one
multiply-add per entry.  The eigenvector columns are the expansion
coefficients of each spheroidal state over the spherical basis.  Columns
follow the sign convention "first nonzero entry positive" (numerically:
first entry exceeding 1e-12 of the column's max magnitude, which keeps
the convention deterministic when leading entries underflow near the
a -> 0 limit).

Two independent routes compute the eigenvectors: inverse iteration on
the tridiagonal matrix, and the continuant (leading-principal-minor)
recurrence.  The continuant column starts the coupling product one step
above the ladder bottom, where the coupling is identically zero; as
written with the full product every component would vanish.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coeffs, interbasis
from ._backend import tridiag_eigh
from .errors import (
    BranchMatchAmbiguous,
    DegenerateShift,
    LimitMismatch,
    ValidationError,
)
from .sector import Sector, alpha_scale, lambda_range, m9_parabolic_eigenvalue

_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class SymTridiagonal:
    """diag (length N) and offdiag (length N-1), float64."""

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.size > 1:
            out[1:] += self.offdiag * v[:-1]
            out[:-1] += self.offdiag * v[1:]
        return out

    def norm(self) -> float:
        """Infinity norm."""
        n = self.size
        if n == 1:
            return abs(float(self.diag[0]))
        r = np.abs(self.diag).copy()
        r[1:] += np.abs(self.offdiag)
        r[:-1] += np.abs(self.offdiag)
        return float(r.max())


@functools.lru_cache(maxsize=64)
def _k_pencil(s: Sector, Z: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float pencil of K(a) = -Lambda - a (alpha/2) M9, each entry rounded once.

    Returns (-lambda(lambda+7), the diagonal slope, the coupling slope),
    lambda ascending, from the exact coeffs.k_pencil at charge Z; a Z whose
    entries overflow a float raises ValidationError.  Read-only: the cache
    hands the same arrays to every call.
    """
    lam_term, slope, coupling_sq = coeffs.k_pencil(s)
    try:
        pencil = (
            np.array([float(x) for x in lam_term]),
            np.array([float(Z * x) for x in slope]),
            -np.sqrt(np.array([float(Z * Z * x) for x in coupling_sq])),
        )
    except OverflowError as exc:
        raise ValidationError(f"K(a) at Z = {Z} leaves the float range") from exc
    for part in pencil:
        part.setflags(write=False)
    return pencil


_COUPLING_LIMIT = math.sqrt(np.finfo(np.float64).max)  # squared couplings must stay finite


def _k_entries(s: Sector, a_values, Z) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (P, N) and couplings (P, N-1) of K(a) at each a >= 0."""
    a = np.asarray(a_values, dtype=np.float64)
    for bad, need in ((~np.isfinite(a), "finite"), (a < 0, "non-negative")):
        if bad.any():
            raise ValidationError(f"focal distance a = {a[bad][0]} must be {need}")
    Zf = Fraction(s.Z if Z is None else Z)
    if Zf <= 0:
        raise ValidationError(f"Z = {Z} must be positive")
    lam_term, diag_slope, off_slope = _k_pencil(s, Zf)
    with np.errstate(over="ignore"):  # checked just below
        diag = lam_term + a[:, None] * diag_slope
        off = a[:, None] * off_slope
    bad = ~np.isfinite(diag).all(axis=1) | (np.abs(off) > _COUPLING_LIMIT).any(axis=1)
    if bad.any():
        raise ValidationError(
            f"K(a) at a = {a[bad][0]} leaves the float range: entries must be finite and "
            f"couplings at most sqrt(float max) = {_COUPLING_LIMIT:.4g} in magnitude"
        )
    return diag, off


def build_k_matrix(s: Sector, a, Z=None) -> SymTridiagonal:
    """Separation-constant matrix at focal distance a (float entries).

    K(a) = -Lambda - a (alpha/2) M9 from the sector's float pencil:
    diag[i] carries the lambda_i diagonal, offdiag[i] the negative
    coupling at lambda_{i+1}, lambda ascending.  Z defaults to the
    sector's charge.  A non-finite a, or one whose couplings would
    overflow when squared, raises ValidationError.
    """
    diag, off = _k_entries(s, [a], Z)
    return SymTridiagonal(diag[0], off[0])


def sign_fix_columns(V: np.ndarray, tol: float = _SIGN_TOL) -> np.ndarray:
    """Flip columns so the first above-threshold entry is positive (in place).

    V is (..., N, M): every column of every matrix in the stack.
    """
    mag = np.abs(V)
    above = mag > tol * mag.max(axis=-2, keepdims=True)
    lead = np.take_along_axis(V, np.argmax(above, axis=-2)[..., None, :], axis=-2)
    V *= np.where(lead < 0.0, -1.0, 1.0)
    return V


@dataclass(frozen=True)
class SpheroidalSpectrum:
    """Eigenvalues K (ascending, index n_k) and coefficient columns T."""

    sector: Sector
    a: float
    Z: float
    K: np.ndarray
    T: np.ndarray

    @property
    def size(self) -> int:
        return self.K.shape[0]


def _solve(s: Sector, a_values, Z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a (P,), K (P, N), T (P, N, N)) at every positive a, in one batched solve."""
    a = np.asarray(a_values, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError("focal distances must form a non-empty 1-d list")
    if not (a > 0).all():
        raise ValidationError(f"focal distance a = {a[~(a > 0)][0]} must be positive")
    K, T = tridiag_eigh(*_k_entries(s, a, Z))
    return a, K, sign_fix_columns(T)


def spectra(s: Sector, a_values, Z=None) -> list[SpheroidalSpectrum]:
    """Spectra at each focal distance in a_values, solved as one batch."""
    a, K, T = _solve(s, a_values, Z)
    Zf = float(s.Z if Z is None else Z)
    return [SpheroidalSpectrum(s, float(a[i]), Zf, K[i], T[i]) for i in range(a.size)]


def separation_constants(s: Sector, a, Z=None) -> SpheroidalSpectrum:
    """Full spectrum of the separation-constant matrix at focal distance a."""
    return spectra(s, [a], Z)[0]


_NEWTON_BITS = 300  # working precision of the refined shift


def _continuant_minors(diag, off2, K: Fraction):
    """Leading principal minors p_0..p_N of (matrix - K) and their K-derivatives.

    Exact rational arithmetic: diag entries and squared couplings are
    rational for any representable a and rational Z.
    """
    p = [Fraction(1), diag[0] - K]
    dp = [Fraction(0), Fraction(-1)]
    for i in range(1, len(diag)):
        shifted = diag[i] - K
        p.append(shifted * p[i] - off2[i - 1] * p[i - 1])
        dp.append(-p[i] + shifted * dp[i] - off2[i - 1] * dp[i - 1])
    return p, dp


def _round_to_bits(x: Fraction, bits: int) -> Fraction:
    scaled = x * (1 << bits)
    return Fraction(round(scaled), 1 << bits)


def t_by_continuant(s: Sector, a, Z, K: float) -> np.ndarray:
    """Coefficient column at eigenvalue K from the principal-minor recurrence.

    Components are the leading principal minors of (matrix - K) divided by
    the running product of couplings, with the product starting one step
    above the ladder bottom (empty product = 1).  The minors are evaluated
    in exact rational arithmetic after Newton-refining K on the top minor
    (the characteristic polynomial): the column is so sensitive to the
    shift on strongly graded matrices that a double-precision K alone
    cannot reproduce the eigenvector's small trailing components.  K only
    seeds the refinement, so the route stays independent of inverse
    iteration.  The exact entries come from coeffs.k_pencil.  An a or Z
    that build_k_matrix rejects, or a non-finite K, raises ValidationError;
    a zero interior coupling (a = 0) or a float-range overflow raises
    DegenerateShift and the caller falls back to inverse iteration.
    """
    _k_entries(s, [a], Z)  # the float route's checks on a and Z
    if not math.isfinite(K):
        raise ValidationError(f"eigenvalue seed K = {K} must be finite")
    n = s.size
    if n == 1:
        return np.ones(1)
    aZ = Fraction(a) * Fraction(s.Z if Z is None else Z)
    lam_term, slope, coupling_sq = coeffs.k_pencil(s)
    diag = [c + aZ * x for c, x in zip(lam_term, slope)]
    aZ2 = aZ * aZ
    off2 = [aZ2 * x for x in coupling_sq]
    try:
        off_f = [-math.sqrt(float(x)) for x in off2]  # the couplings, each rounded once
    except OverflowError as exc:
        raise DegenerateShift(f"coupling overflow in sector {s} at a = {a}") from exc
    if any(x == 0.0 for x in off_f):
        raise DegenerateShift(f"zero coupling in sector {s} at a = {a}")

    shift = _round_to_bits(Fraction(K), _NEWTON_BITS)
    for _ in range(4):
        p, dp = _continuant_minors(diag, off2, shift)
        if dp[n] == 0:
            break
        step = p[n] / dp[n]
        shift = _round_to_bits(shift - step, _NEWTON_BITS)
        if abs(step) < Fraction(1, 10**30) * (1 + abs(shift)):
            break
    p, _ = _continuant_minors(diag, off2, shift)

    v = np.empty(n, dtype=np.float64)
    v[0] = 1.0
    coupling = 1.0
    try:
        for i in range(1, n):
            coupling *= -off_f[i - 1]  # positive: matrix stores the negatives
            v[i] = float(p[i]) / coupling
    except OverflowError as exc:
        raise DegenerateShift(f"continuant overflow in sector {s} at a = {a}") from exc
    if not np.isfinite(v).all():
        raise DegenerateShift(f"continuant over/underflow in sector {s} at a = {a}")
    v /= np.linalg.norm(v)
    return sign_fix_columns(v.reshape(-1, 1)).ravel()


@dataclass(frozen=True)
class BranchSweep:
    """K and K/a per (grid point, branch), branches continuity-checked."""

    sector: Sector
    Z: float
    a_grid: np.ndarray
    K: np.ndarray  # shape (len(a_grid), N)
    K_over_a: np.ndarray
    min_overlap: float


def sweep_branches(s: Sector, Z, a_grid) -> BranchSweep:
    """Track all N branches over an ascending positive grid of a values.

    Ascending-order labeling is continuity-consistent (simple spectra);
    the adjacent-point eigenvector overlap per branch certifies it and
    raises BranchMatchAmbiguous at or below 0.9 (grid too coarse), naming
    the first failing pair of points.
    """
    a_grid = np.asarray(a_grid, dtype=np.float64)
    if a_grid.ndim != 1 or a_grid.size < 1:
        raise ValidationError("a_grid must be a 1-d array of at least one point")
    if not (np.diff(a_grid) > 0).all() or not (a_grid > 0).all():
        raise ValidationError("a_grid must be ascending and positive")
    _, K, T = _solve(s, a_grid, Z)
    worst = np.abs(np.einsum("pij,pij->pj", T[:-1], T[1:])).min(axis=1, initial=1.0)
    bad = np.flatnonzero(worst <= 0.9)
    if bad.size:
        ip = int(bad[0])
        raise BranchMatchAmbiguous(
            f"branch overlap {worst[ip]:.3f} <= 0.9 between a = {a_grid[ip]} "
            f"and a = {a_grid[ip + 1]} in sector {s}"
        )
    min_overlap = float(worst.min(initial=1.0))
    return BranchSweep(s, float(Fraction(s.Z if Z is None else Z)), a_grid, K, K / a_grid[:, None], min_overlap)


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
    s: Sector, Z=None, a_small: float = 1e-8, tol_value: float = 1e-12, tol_vector: float = 1e-6
) -> SphericalLimitReport:
    """Verify the small-a degeneration, branch by ascending branch.

    Branch n_k lands on angular label lambda = n+Q/2-n_k: its eigenvalue
    must match the corresponding diagonal entry of the matrix at a_small
    to tol_value (the remainder is O(a^2); the diagonal itself is
    -lambda(lambda+7) plus an O(a) shift that vanishes when J = L), and
    its column must approach that coordinate unit vector to tol_vector.
    Raises LimitMismatch with per-branch diagnostics on failure.
    """
    if not a_small > 0:
        raise ValidationError(f"a_small = {a_small} must be positive")
    spectrum = separation_constants(s, a_small, Z)
    mat = build_k_matrix(s, a_small, Z)
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
        e_col = np.zeros(n)
        e_col[idx] = 1.0
        vector_errors[n_k] = np.abs(spectrum.T[:, n_k] - e_col).max()
    report = SphericalLimitReport(s, float(a_small), value_errors, raw_gaps, vector_errors)
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
    set_errors: np.ndarray  # sorted K/a vs sorted first-order targets
    branch_np: np.ndarray  # eigenvalue-matched parabolic label per branch
    value_errors: np.ndarray  # per-branch |K/a - matched target|
    column_errors: np.ndarray  # max-norm distance of T columns to first-order W columns

    @property
    def max_set_error(self) -> float:
        return float(self.set_errors.max())

    @property
    def max_column_error(self) -> float:
        return float(self.column_errors.max())


def check_parabolic_limit(
    s: Sector, Z=None, a_large: float = 1e6, tol: float = 1e-4
) -> ParabolicLimitReport:
    """Verify the large-a degeneration against the parabolic constants.

    In the parabolic basis (the columns of W) K(a) = -Lambda - a (alpha/2)
    M9 is -G - a (alpha/2) diag(mu), with G = W^T Lambda W and mu_p =
    n+Q/2-J-2n_p, so to first order in 1/a the set {K/a} must approach
    {-(alpha/2) mu_p - G_pp/a} and each branch's column the renormalized
    W[:,p] + sum_{q != p} W[:,q] G_qp / (a (alpha/2) (mu_p - mu_q)), with p
    matched per eigenvalue rather than per descending label.  Subtracting
    the first-order term keeps the check valid as G grows with N.
    Raises LimitMismatch on failure.
    """
    if not a_large >= 1e4:
        raise ValidationError(f"a_large = {a_large} must be at least 1e4")
    Zf = Fraction(s.Z if Z is None else Z)
    sZ = Sector(s.n, s.Q, s.L, s.J, Zf)
    spectrum = separation_constants(sZ, a_large)
    n = s.size
    half_alpha = alpha_scale(sZ) / 2  # sqrt(-2E)
    lead = np.array(
        [-float(half_alpha * m9_parabolic_eigenvalue(sZ, n_p).fraction) for n_p in range(n)]
    )
    W = interbasis.w_matrix(sZ).to_float()
    lam = -_k_pencil(sZ, Zf)[0]  # Lambda = diag(lambda(lambda+7))
    G = W.T @ (lam[:, None] * W)
    targets = lead - np.diag(G) / a_large
    gaps = a_large * (lead[:, None] - lead[None, :])  # [q, p] = a (alpha/2) (mu_p - mu_q)
    np.fill_diagonal(gaps, np.inf)
    columns = W + W @ (G / gaps)
    columns /= np.linalg.norm(columns, axis=0)
    ratios = spectrum.K / a_large
    set_errors = np.abs(np.sort(ratios) - np.sort(targets))

    branch_np = np.empty(n, dtype=np.int64)
    value_errors = np.empty(n)
    column_errors = np.empty(n)
    for i in range(n):
        j = int(np.argmin(np.abs(targets - ratios[i])))
        branch_np[i] = j
        value_errors[i] = abs(ratios[i] - targets[j])
        column_errors[i] = np.abs(spectrum.T[:, i] - columns[:, j]).max()
    report = ParabolicLimitReport(
        sZ, float(a_large), set_errors, branch_np, value_errors, column_errors
    )
    if len(set(branch_np.tolist())) != n:
        raise LimitMismatch(f"parabolic limit matching is not a bijection for {s}: {branch_np}")
    if report.max_set_error > tol or report.max_column_error > tol:
        raise LimitMismatch(
            f"parabolic limit failed for {s} at a = {a_large}: "
            f"set errors {set_errors}, column errors {column_errors}"
        )
    return report
