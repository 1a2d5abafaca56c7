"""Closed-form coefficient kernels and the exact K(a) pencil.

The coupling between adjacent angular blocks and the diagonal of the
ninth Runge-Lenz component M9 in the spherical basis come from closed
forms in the integers (n, Q, L, J, 2 lambda).  m9_tridiagonal evaluates them
once per sector into one cached rational tridiagonal, the one source of every
M9 and K(a) entry: m9_spherical_matrix is its exact view in W's printed form,
rows of integers (num, den, f) of (num/den) sqrt(f), and k_pencil scales
it into the exact pencil of K(a) = -Lambda - a (alpha/2) M9, Lambda =
diag(lambda(lambda+7)) and alpha/2 = 2Z/(2n+Q+8), as integer pairs (num,
den) per unit aZ, free of the charge.  k_diag and k_offdiag read single
entries of those pairs, and spheroidal rounds them once per (n, Q, L, J)
into the float pencil from which it builds K(a), one multiply-add per entry.
M9's spectrum is m9_twice_eigenvalues, the ints 2 mu_p = 2n+Q-2J-4n_p, read
by W's proof, the parabolic limit, the ODE oracle and the CLI: every label
here is doubled.  np_recurrence, the Leonard pair's other half, is the one
source of G = W^T Lambda W, tridiagonal in n_p: W's core and the parabolic
limit's float G.  Matrices in lambda are indexed by lambda ascending (rows
and columns), which is also recorded in the CLI output metadata.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import ValidationError
from .exactscalar import RadicalScalar, rational_root, root_to_float
from .sector import Sector, _rational, _short, lambda_index


def _m9_offdiag_sq(s: Sector, l2: int) -> Fraction:
    """B_lambda squared at l2 = 2 lambda, a rational closed form built in integers.

    With m = n+Q/2, h = (L+J)/2 and d = (J-L)/2, B^2 is
    (m-l+1)(m+l+7)(l-h)(l+h+6)(l+3-d)(l+3+d) / ((l+3)^2 (2l+7)(2l+5)),
    and on doubled labels each factor is an integer over 2.
    """
    m2, h2, d2 = 2 * s.n + s.Q, s.L + s.J, s.J - s.L
    num = (m2 - l2 + 2) * (m2 + l2 + 14) * (l2 - h2) * (l2 + h2 + 12)
    return Fraction(num * (l2 + 6 - d2) * (l2 + 6 + d2), 16 * (l2 + 6) ** 2 * (l2 + 7) * (l2 + 5))


def _m9_diag(s: Sector, l2: int) -> Fraction:
    """M9[lambda, lambda] at l2 = 2 lambda: -(J-L)(L+J+6)(2n+Q+8) / (2 (l2+6)(l2+8))."""
    return Fraction(-(s.J - s.L) * (s.L + s.J + 6) * (2 * s.n + s.Q + 8), 2 * (l2 + 6) * (l2 + 8))


@functools.lru_cache(maxsize=64)
def m9_tridiagonal(s: Sector) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """M9 as (diagonal, squared couplings B^2), lambda ascending, evaluated once per sector.

    B^2[i] couples positions i and i+1 and is B^2 at the larger lambda;
    the coupling itself is the non-negative root B.  Each entry is one
    Fraction of integers on the doubled labels.
    """
    l2s = range(s.L + s.J, 2 * s.n + s.Q + 1, 2)
    return tuple(_m9_diag(s, l2) for l2 in l2s), tuple(_m9_offdiag_sq(s, l2) for l2 in l2s[1:])


@functools.lru_cache(maxsize=64)
def np_recurrence(s: Sector) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(lower, diag, upper) of G = W^T Lambda W, tridiagonal in n_p, evaluated once per sector.

    Lambda W = W G on row k of W's integer core: lower[p] x[p-1] + upper[p] x[p+1]
    = (diag[p] - k(L+J+k+7)) x[p], n_v = n_top - p, with lower[p] = p (n_v+L+4),
    upper[p] = (p+J+4) n_v and diag[p] = 2 p n_v + (L+4) p + (J+4) n_v.  Then
    G_pp = diag[p] + h(h+7), h = (L+J)/2, and G_p,p+1 = -sqrt(lower[p+1] upper[p]).
    """
    L, J, n_top, ps = s.L, s.J, s.size - 1, range(s.size)
    return (tuple(p * (n_top - p + L + 4) for p in ps),
            tuple(2 * p * (n_top - p) + (L + 4) * p + (J + 4) * (n_top - p) for p in ps),
            tuple((p + J + 4) * (n_top - p) for p in ps))


def k_pencil(s: Sector) -> tuple[list[tuple[int, int]], ...]:
    """Exact pencil of K(a) as unreduced integer pairs (num, den): the one source, exact or float.

    With g = 2/(2n+Q+8), K(a) has the diagonal -lambda(lambda+7) - aZ g
    M9[lambda, lambda] and, between positions i and i+1, the coupling
    -aZ g B at the larger lambda.  The three lists hold -lambda(lambda+7),
    the slope -g M9[lambda, lambda] per unit aZ, and g^2 B^2 per unit
    (aZ)^2, lambda ascending: m9_tridiagonal scaled by -g and g^2.  The
    charge of s is not used.
    """
    g_den, (diag, coupling_sq) = 2 * s.n + s.Q + 8, m9_tridiagonal(s)  # the scale g = 2 / g_den
    return ([(-l2 * (l2 + 14), 4) for l2 in range(s.L + s.J, 2 * s.n + s.Q + 1, 2)],
            [(-2 * x.numerator, g_den * x.denominator) for x in diag],
            [(4 * x.numerator, g_den * g_den * x.denominator) for x in coupling_sq])


def _k_entries(s: Sector, lam, aZ) -> tuple[Fraction, Fraction]:
    """K(a)'s diagonal and squared coupling at lambda and aZ >= 0, read from k_pencil."""
    i = lambda_index(s, lam)[1]
    aZ = _rational("aZ", aZ)
    if aZ < 0:
        raise ValidationError(f"aZ = {_short(aZ)} must be non-negative")
    const, slope, coupling_sq = k_pencil(s)
    diag = Fraction(*const[i]) + aZ * Fraction(*slope[i])
    return diag, aZ * aZ * Fraction(*coupling_sq[i - 1]) if i else Fraction(0)


def k_diag(s: Sector, lam, aZ) -> Fraction:
    """Diagonal -lambda(lambda+7) - a (alpha/2) M9[lambda, lambda] of K(a)."""
    return _k_entries(s, lam, aZ)[0]


def k_offdiag(s: Sector, lam, aZ) -> RadicalScalar:
    """Magnitude a (alpha/2) B_lambda; the matrix itself carries the negative."""
    return RadicalScalar(1, _k_entries(s, lam, aZ)[1])


def m9_spherical_matrix(s: Sector) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """N x N symmetric tridiagonal matrix of the ninth Runge-Lenz component.

    The exact view of m9_tridiagonal in W's printed form: entry [i, j] is
    the integers (num, den, f) of (num/den) sqrt(f), num/den in lowest
    terms, f squarefree and zero (0, 1, 1).  Rows and columns are indexed
    by lambda ascending; a diagonal entry is (num, den, 1), and the entry
    between positions i and i+1 is the root B at the larger lambda.
    """
    diag, coupling_sq = m9_tridiagonal(s)
    n = len(diag)
    mat = [[(0, 1, 1)] * n for _ in range(n)]
    for i, x in enumerate(diag):
        mat[i][i] = (x.numerator, x.denominator, 1)
    for i, b_sq in enumerate(coupling_sq):  # B > 0 on the interior of the ladder
        mat[i][i + 1] = mat[i + 1][i] = rational_root(b_sq.numerator, b_sq.denominator)
    return tuple(map(tuple, mat))


def m9_twice_eigenvalues(s: Sector) -> range:
    """2 mu_p = 2n+Q-2J-4n_p, n_p ascending: the one source of M9's spectrum, Fraction(t, 2)."""
    return range(2 * s.n + s.Q - 2 * s.J, 2 * s.L - 2 * s.n - s.Q - 4, -4)


def matrix_to_float(rows):
    """Rows of (num, den, f) as a float64 array, each entry within 1 ulp by root_to_float."""
    import numpy as np  # a zero entry is 0.0, as root_to_float gives it
    return np.array([[root_to_float(*x) if x[0] else 0.0 for x in row] for row in rows])
