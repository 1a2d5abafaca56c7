"""Closed-form coefficient kernels and the exact K(a) pencil.

The coupling between adjacent angular blocks and the diagonal of the
ninth Runge-Lenz component M9 in the spherical basis come from closed
forms in (n, Q, L, J, lambda).  The spheroidal separation-constant matrix
K(a) = -Lambda - a (alpha/2) M9, with Lambda = diag(lambda(lambda+7)) and
alpha/2 = 2Z/(2n+Q+8), is a linear pencil in which a and Z only ever
enter through the product aZ: k_pencil holds its exact pieces once per
sector, and spheroidal rounds them once per (sector, Z) into the float
pencil from which both its dense-eigensolver and its continuant routes
build K(a) with one multiply-add per entry.  Matrices here are
indexed by lambda ascending (rows and columns), which is also recorded in
the CLI output metadata.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .exactscalar import RadicalScalar
from .sector import HalfInt, Sector, lambda_index, lambda_range, m9_parabolic_eigenvalue


def _m9_offdiag_sq(s: Sector, lam) -> Fraction:
    """B_lambda squared, a rational closed form."""
    l, _ = lambda_index(s, lam)
    m = s.m.fraction
    h = s.lam_min.fraction
    d = Fraction(s.J - s.L, 2)
    return (
        (m - l + 1)
        * (m + l + 7)
        * (l - h)
        * (l + h + 6)
        * (l + 3 - d)
        * (l + 3 + d)
        / ((l + 3) ** 2 * (2 * l + 7) * (2 * l + 5))
    )


def m9_offdiag(s: Sector, lam) -> RadicalScalar:
    """Coupling B_lambda between blocks lambda-1 and lambda; B at (L+J)/2 is 0.

    Non-negative, and strictly positive on the interior of the ladder,
    which makes the tridiagonal matrices built from it irreducible.
    """
    return RadicalScalar.sqrt(_m9_offdiag_sq(s, lam))


def m9_diag(s: Sector, lam) -> Fraction:
    """Diagonal element -(J-L)(L+J+6)(2n+Q+8) / (8 (lambda+3)(lambda+4))."""
    l, _ = lambda_index(s, lam)
    num = -(s.J - s.L) * (s.L + s.J + 6) * (2 * s.n + s.Q + 8)
    return Fraction(num) / (8 * (l + 3) * (l + 4))


@functools.lru_cache(maxsize=64)
def k_pencil(s: Sector) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact pencil of K(a): (constant term, diagonal slope, squared coupling).

    With g = 2/(2n+Q+8), K(a) has the diagonal -lambda(lambda+7) - aZ g
    M9[lambda, lambda] and, between positions i and i+1, the coupling
    -aZ g B at the larger lambda.  The three tuples hold -lambda(lambda+7),
    the slope -g M9[lambda, lambda] per unit aZ, and g^2 B^2 per unit
    (aZ)^2, lambda ascending.  The charge of s is not used.
    """
    g = Fraction(2, 2 * s.n + s.Q + 8)
    lams = [lam.fraction for lam in lambda_range(s)]
    return (
        tuple(-l * (l + 7) for l in lams),
        tuple(-g * m9_diag(s, l) for l in lams),
        tuple(g * g * _m9_offdiag_sq(s, l) for l in lams[1:]),
    )


# k_diag and k_offdiag are single K(a) entries; perfbench/tracer.py wraps them by name.


def _focal(s: Sector, aZ) -> Fraction:
    """a (alpha/2) = aZ g for aZ >= 0."""
    aZ = Fraction(aZ)
    if aZ < 0:
        raise ValidationError(f"aZ = {aZ} must be non-negative")
    return aZ * Fraction(2, 2 * s.n + s.Q + 8)


def k_diag(s: Sector, lam, aZ) -> Fraction:
    """Diagonal -lambda(lambda+7) - a (alpha/2) M9[lambda, lambda]."""
    l, _ = lambda_index(s, lam)
    return -l * (l + 7) - _focal(s, aZ) * m9_diag(s, l)


def k_offdiag(s: Sector, lam, aZ) -> RadicalScalar:
    """Magnitude a (alpha/2) B_lambda; the matrix itself carries the negative."""
    return _focal(s, aZ) * m9_offdiag(s, lam)


def m9_spherical_matrix(s: Sector) -> list[list[RadicalScalar]]:
    """N x N symmetric tridiagonal matrix of the ninth Runge-Lenz component.

    Rows and columns indexed by lambda ascending; the off-diagonal entry
    between positions i and i+1 is B at the larger lambda.
    """
    lams = lambda_range(s)
    n = s.size
    zero = RadicalScalar.zero()
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for i, lam in enumerate(lams):
        mat[i][i] = RadicalScalar.from_rational(m9_diag(s, lam))
    for i in range(n - 1):
        b = m9_offdiag(s, lams[i + 1])
        mat[i][i + 1] = b
        mat[i + 1][i] = b
    return mat


def m9_eigenvalues(s: Sector) -> list[HalfInt]:
    """Spectrum {n + Q/2 - J - 2 n_p}, in n_p order (descending values)."""
    return [m9_parabolic_eigenvalue(s, n_p) for n_p in range(s.size)]


def matrix_to_float(mat: list[list[RadicalScalar]]) -> np.ndarray:
    return np.array([[x.to_float() for x in row] for row in mat], dtype=np.float64)
