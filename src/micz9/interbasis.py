"""Spherical-parabolic interbasis matrix W and its exact cross-oracles.

The parabolic basis is the eigenbasis of the ninth Runge-Lenz component
M9, and W carries the spherical basis onto it.  Its closed form factors as
W = diag(sqrt A) R diag(sqrt B): A(lambda) and B(n_p) are the lambda-only
and n_p-only factorial ratios of the radicand, and the rational core R is
sign * n_top!/(L+3)! * a terminating 3F2 at unit argument.  W is proved
orthogonal on these factors, in integers, before its N^2 entries are
assembled from one square root per row and one per column.

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

import math
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

    a1 = -kmax truncates the series.  Horner's rule on the term ratios,
    1 + t_0 (1 + t_1 (1 + ...)), keeps one integer numerator/denominator
    pair, so only the total becomes a Fraction.  b2 may be a non-positive
    integer as long as the series terminates before its zero (guaranteed
    here because kmax <= -b2).
    """
    num = den = 1
    for k in reversed(range(kmax)):
        step = (b1 + k) * (b2 + k) * (k + 1)
        num, den = den * step + (a1 + k) * (a2 + k) * (a3 + k) * num, den * step
    return Fraction(num, den)


def _as_index(x) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise IndexOutOfRange(f"{x} is not an integer index")
    return int(f)


def _row(s: Sector, lam) -> tuple[int, int, Fraction]:
    """Ladder position k of lambda, the 3F2 parameter l+h+7, and A(lambda)."""
    l, k = lambda_index(s, lam)
    m, h, d = s.m.fraction, s.lam_min.fraction, Fraction(s.J - s.L, 2)
    fact = exact_factorial
    rad = Fraction(
        fact(l + h + 6) * _as_index(2 * l + 7) * fact(l - d + 3),
        fact(k) * fact(m + l + 7) * fact(m - l) * fact(l + d + 3),
    )
    return k, _as_index(l + h + 7), rad


def _column_radicand(s: Sector, n_p: int) -> Fraction:
    """B(n_p), the n_p-only part of the radicand; n_v = n_top - n_p."""
    n_v = s.size - 1 - n_p
    fact = exact_factorial
    return Fraction(fact(n_p + s.J + 3) * fact(n_v + s.L + 3), fact(n_v) * fact(n_p))


def _factors(s: Sector, lams, nps) -> tuple[list, list, list]:
    """Row radicands A, rational core R and column radicands B on the given labels."""
    rows = [_row(s, lam) for lam in lams]
    nps = [np_index(s, n_p) for n_p in nps]
    n_top = s.size - 1
    pref = Fraction(exact_factorial(n_top), exact_factorial(s.L + 3))
    f32 = _f32_unit_terminating
    core = [
        [(-1) ** k * pref * f32(-k, n_p - n_top, c, s.L + 4, -n_top, k) for n_p in nps]
        for k, c, _ in rows
    ]
    return [a for _, _, a in rows], core, [_column_radicand(s, n_p) for n_p in nps]


def w_coefficient(s: Sector, lam, n_p: int) -> RadicalScalar:
    """Entry W[lambda, n_p] of the spherical-parabolic transformation, exact."""
    (a,), ((r,),), (b,) = _factors(s, [lam], [n_p])
    return RadicalScalar.sqrt(a) * RadicalScalar.sqrt(b) * r


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


def _assert_orthogonal(row_rad, core, col_rad) -> None:
    """Exact W^T W = I for W = diag(sqrt A) R diag(sqrt B), in integers.

    W^T W = I is R^T diag(A) R = diag(1/B).  With A = a/D over a common
    denominator D and column j of R = r_j/d_j over its own, that reads
    sum_k a_k r_ki r_kj = 0 for i != j and D d_i^2 / B_i for i == j.  For
    a square W it implies W W^T = I as well.
    """
    n = len(core)
    den = math.lcm(*(x.denominator for x in row_rad))
    a = [x.numerator * (den // x.denominator) for x in row_rad]
    d = [math.lcm(*(row[j].denominator for row in core)) for j in range(n)]
    cols = [[row[j].numerator * (d[j] // row[j].denominator) for row in core] for j in range(n)]
    for i in range(n):
        ar = [x * y for x, y in zip(a, cols[i])]
        b = col_rad[i]
        for j in range(i, n):
            dot = sum(x * y for x, y in zip(ar, cols[j]))
            ok = dot * b.numerator == den * d[i] ** 2 * b.denominator if i == j else dot == 0
            if not ok:
                value = RadicalScalar(Fraction(dot, den * d[i] * d[j]), b * col_rad[j])
                raise OrthogonalityViolation(f"W^T W deviates from identity at ({i},{j}): {value}")


def w_matrix(s: Sector) -> WMatrix:
    """All N^2 entries R sqrt(A) sqrt(B) of W, proved orthogonal on A, R, B first."""
    row_rad, core, col_rad = _factors(s, lambda_range(s), range(s.size))
    _assert_orthogonal(row_rad, core, col_rad)
    roots_b = [RadicalScalar.sqrt(b) for b in col_rad]
    entries = tuple(
        tuple(root_a * root_b * r for root_b, r in zip(roots_b, row))
        for root_a, row in zip(map(RadicalScalar.sqrt, row_rad), core)
    )
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
