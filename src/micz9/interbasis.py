"""Spherical-parabolic interbasis matrix W and its exact cross-oracles.

The parabolic basis is the eigenbasis of the ninth Runge-Lenz component
M9, and W carries the spherical basis onto it.  W is built once from its
closed form (sign, factorial prefactors, and a terminating 3F2 at unit
argument summed exactly with incremental term ratios) and is orthogonal,
exactly: every bilinear sum over the parabolic index keeps a common
radicand because the n_p-dependent radical squares away.

The oracles check the two matrix identities that make W the eigenbasis,
with mu_p = n+Q/2-J-2n_p and M9 the closed-form tridiagonal matrix:

* M9 W = W diag(mu): w_recurrence_residual returns the difference, which
  must be exactly zero (row by row it is the three-term recurrence of W
  in lambda), and
* W diag(mu) W^T = M9: m9_matrix_bruteforce rebuilds the left side.

Independently, each entry written as a single SU(2) Clebsch-Gordan value
(Condon-Shortley/Varshalovich phases, evaluated by the Racah sum) must
equal the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coeffs
from .errors import IndexOutOfRange, OrthogonalityViolation
from .exactscalar import RadicalScalar, exact_factorial
from .sector import (
    HalfInt,
    Sector,
    lambda_index,
    lambda_range,
    np_index,
)


def _f32_unit_terminating(a1: int, a2: int, a3: int, b1: int, b2: int, kmax: int) -> Fraction:
    """Sum_{k=0..kmax} (a1)_k (a2)_k (a3)_k / ((b1)_k (b2)_k k!), exactly.

    a1 = -kmax truncates the series; the incremental term ratio avoids
    ever forming the huge Pochhammer products.  b2 may be a non-positive
    integer as long as the series terminates before its zero (guaranteed
    here because kmax <= -b2).
    """
    total = term = Fraction(1)
    for k in range(kmax):
        term *= Fraction((a1 + k) * (a2 + k) * (a3 + k), (b1 + k) * (b2 + k) * (k + 1))
        total += term
    return total


def _as_index(x) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise IndexOutOfRange(f"{x} is not an integer index")
    return int(f)


def w_coefficient(s: Sector, lam, n_p: int) -> RadicalScalar:
    """Entry W[lambda, n_p] of the spherical-parabolic transformation, exact."""
    l, k_lam = lambda_index(s, lam)  # k_lam: ladder position of lambda
    n_p = np_index(s, n_p)

    m, h, d = s.m.fraction, s.lam_min.fraction, Fraction(s.J - s.L, 2)
    n_top = s.size - 1  # n + Q/2 - (L+J)/2
    n_v = n_top - n_p

    pref = Fraction(exact_factorial(n_top), exact_factorial(s.L + 3))
    rad = Fraction(exact_factorial(l + h + 6), exact_factorial(k_lam))
    rad *= Fraction(
        _as_index(2 * l + 7) * exact_factorial(l - d + 3),
        exact_factorial(m + l + 7) * exact_factorial(m - l) * exact_factorial(l + d + 3),
    )
    rad *= Fraction(
        exact_factorial(n_p + s.J + 3) * exact_factorial(n_v + s.L + 3),
        exact_factorial(n_v) * exact_factorial(n_p),
    )
    hyp = _f32_unit_terminating(
        -k_lam, n_p - n_top, _as_index(l + h + 7), s.L + 4, -n_top, k_lam
    )
    sign = -1 if k_lam % 2 else 1
    return RadicalScalar(sign * pref * hyp, rad)


@dataclass(frozen=True)
class WMatrix:
    """Exact W: rows indexed by lambda ascending, columns by n_p ascending."""

    sector: Sector
    entries: tuple[tuple[RadicalScalar, ...], ...]

    @property
    def size(self) -> int:
        return self.sector.size

    def to_float(self) -> np.ndarray:
        return coeffs.matrix_to_float(self.entries)


def _assert_orthogonal(entries) -> None:
    """Exact W^T W = I; for a square W this implies W W^T = I as well."""
    n = len(entries)
    for i in range(n):
        for j in range(i, n):
            dot = sum((entries[k][i] * entries[k][j] for k in range(n)), RadicalScalar.zero())
            if dot != (1 if i == j else 0):
                raise OrthogonalityViolation(f"W^T W deviates from identity at ({i},{j}): {dot}")


def w_matrix(s: Sector) -> WMatrix:
    """All N^2 entries of W, with exact orthogonality verified before return."""
    lams = lambda_range(s)
    entries = tuple(
        tuple(w_coefficient(s, lam, n_p) for n_p in range(s.size)) for lam in lams
    )
    _assert_orthogonal(entries)
    return WMatrix(s, entries)


@dataclass(frozen=True)
class CGArgs:
    """SU(2) Clebsch-Gordan arguments C^{c,gamma}_{a,alpha; b,beta}."""

    a: HalfInt
    alpha: HalfInt
    b: HalfInt
    beta: HalfInt
    c: HalfInt
    gamma: HalfInt

    @classmethod
    def from_values(cls, a, alpha, b, beta, c, gamma) -> "CGArgs":
        return cls(*(HalfInt.from_value(v) for v in (a, alpha, b, beta, c, gamma)))


def clebsch_gordan(args: CGArgs) -> RadicalScalar:
    """Exact SU(2) Clebsch-Gordan coefficient (Condon-Shortley phases).

    Evaluated by the single-sum Racah formula over exact rationals.
    Selection-rule failures (gamma != alpha+beta, triangle violations,
    projections out of range, inconsistent half-integers) return zero.
    """
    a, al = args.a.fraction, args.alpha.fraction
    b, be = args.b.fraction, args.beta.fraction
    c, ga = args.c.fraction, args.gamma.fraction

    if ga != al + be:
        return RadicalScalar.zero()
    if abs(al) > a or abs(be) > b or abs(ga) > c:
        return RadicalScalar.zero()
    if c < abs(a - b) or c > a + b:
        return RadicalScalar.zero()
    # projections must differ from their momenta by integers, and the
    # three momenta must couple to an integer total
    for top, bottom in ((a, al), (b, be), (c, ga), (a + b + c, 0)):
        if (top - bottom).denominator != 1:
            return RadicalScalar.zero()

    fact = exact_factorial
    pref = Fraction(2 * c + 1, 1)
    pref *= Fraction(
        fact(a + b - c) * fact(a - b + c) * fact(-a + b + c), fact(a + b + c + 1)
    )
    pref *= Fraction(
        fact(a + al) * fact(a - al) * fact(b + be) * fact(b - be) * fact(c + ga) * fact(c - ga)
    )

    k_lo = int(max(0, -(c - b + al), -(c - a - be)))
    k_hi = int(min(a + b - c, a - al, b + be))
    total = Fraction(0)
    for k in range(k_lo, k_hi + 1):
        den = (
            fact(k)
            * fact(a + b - c - k)
            * fact(a - al - k)
            * fact(b + be - k)
            * fact(c - b + al + k)
            * fact(c - a - be + k)
        )
        total += Fraction((-1) ** k, den)
    return RadicalScalar(total, pref)


def w_via_cg(s: Sector, lam, n_p: int) -> RadicalScalar:
    """W[lambda, n_p] through its single-Clebsch-Gordan form (cross-oracle).

    Must equal w_coefficient exactly on every valid index pair.
    """
    l, _ = lambda_index(s, lam)
    n_p = np_index(s, n_p)
    nf = Fraction(s.n)
    qjl = Fraction(s.Q + s.J - s.L, 4)
    qlj = Fraction(s.Q - s.J + s.L, 4)
    ljq = Fraction(s.L + s.J - s.Q, 4)
    args = CGArgs.from_values(
        (nf + 3) / 2 + qjl,
        n_p - nf / 2 + ljq + Fraction(s.J + 3, 2),
        (nf + 3) / 2 + qlj,
        nf / 2 - ljq - n_p + Fraction(s.L + 3, 2),
        l + 3,
        s.lam_min.fraction + 3,
    )
    expo = _as_index(s.m.fraction - l - n_p)
    sign = -1 if expo % 2 else 1
    return sign * clebsch_gordan(args)


def m9_matrix_bruteforce(W: WMatrix) -> list[list[RadicalScalar]]:
    """Ninth Runge-Lenz matrix rebuilt as W diag(mu) W^T from the given W.

    Exact; must equal coeffs.m9_spherical_matrix entrywise.
    """
    w, n = W.entries, W.size
    mu = [v.fraction for v in coeffs.m9_eigenvalues(W.sector)]
    scaled = [[m * x for m, x in zip(mu, row)] for row in w]
    return [
        [sum((a * b for a, b in zip(scaled[i], w[j])), RadicalScalar.zero()) for j in range(n)]
        for i in range(n)
    ]


def w_recurrence_residual(W: WMatrix) -> list[list[RadicalScalar]]:
    """Exact residual M9 W - W diag(mu), every entry zero for a correct W.

    M9 is coeffs.m9_spherical_matrix, so row lambda of the residual is the
    three-term recurrence of W in lambda at each n_p:
    (M9[lambda, lambda] - mu_p) W[lambda, n_p] + B_lambda W[lambda-1, n_p]
    + B_{lambda+1} W[lambda+1, n_p], with out-of-range W terms zero.
    """
    m9 = coeffs.m9_spherical_matrix(W.sector)
    w, n = W.entries, W.size
    mu = [v.fraction for v in coeffs.m9_eigenvalues(W.sector)]
    out = []
    for i in range(n):
        band = range(max(i - 1, 0), min(i + 2, n))  # M9 is tridiagonal
        out.append([
            sum((m9[i][k] * w[k][p] for k in band), RadicalScalar.zero()) - mu[p] * w[i][p]
            for p in range(n)
        ])
    return out
