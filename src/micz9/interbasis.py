"""Spherical-parabolic interbasis matrix W and its exact cross-oracles.

The parabolic basis is the eigenbasis of the ninth Runge-Lenz component
M9, and W carries the spherical basis onto it.  Its closed form factors as
W = diag(sqrt A) R diag(sqrt B): A(lambda) and B(n_p) are the lambda-only
and n_p-only factorial ratios of the radicand, and the rational core R is
sign * n_top!/(L+3)! * a terminating 3F2 at unit argument.  W is proved
orthogonal on these factors, in integers, before its N^2 entries are
assembled from one square root per row and one per column.  WMatrix keeps
the factors next to the entries.

The oracles check the two matrix identities that make W the eigenbasis,
with mu_p = n+Q/2-J-2n_p and M9 the closed-form tridiagonal matrix.  Both
run on the factors, in integers, and take square roots only to scale a
nonzero result:

* M9 W = W diag(mu): divided by sqrt(A_lambda) sqrt(B_p), row lambda is
  the three-term recurrence of R in lambda, whose couplings
  M9[lambda, k] sqrt(A_k / A_lambda) are rational on a correct W;
  w_recurrence_residual returns the difference, which must be exactly zero;
* W diag(mu) W^T = M9: m9_matrix_bruteforce sums R diag(B mu) R^T, the
  left side divided by sqrt(A_i A_j).

Independently of the 3F2, each printed entry must equal its single SU(2)
Clebsch-Gordan form (Condon-Shortley/Varshalovich phases).  On W the CG
prefactor splits into a part per row and a part per column, and only the
Racah sum couples the two; w_via_cg builds each part once and sums each
Racah series in integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coeffs
from .errors import IndexOutOfRange, OrthogonalityViolation, RadicandMismatch
from .exactscalar import RadicalScalar
from .sector import Sector, lambda_index, lambda_range, np_index


def _f32_unit_terminating(
    a1: int, a2: int, a3: int, b1: int, b2: int, kmax: int
) -> tuple[int, int]:
    """Sum_{k=0..kmax} (a1)_k (a2)_k (a3)_k / ((b1)_k (b2)_k k!) as integers (num, den).

    a1 = -kmax truncates the series.  Horner's rule on the term ratios,
    1 + t_0 (1 + t_1 (1 + ...)), keeps one integer numerator/denominator
    pair, unreduced, so the caller can fold its own prefactor in before
    the one reduction.  b2 may be a non-positive integer as long as the
    series terminates before its zero (guaranteed here because
    kmax <= -b2).
    """
    num = den = 1
    for k in reversed(range(kmax)):
        den *= (b1 + k) * (b2 + k) * (k + 1)
        num = den + (a1 + k) * (a2 + k) * (a3 + k) * num
    return num, den


def _as_index(x) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise IndexOutOfRange(f"{x} is not an integer index")
    return int(f)


def _row(s: Sector, lam) -> tuple[int, int, Fraction]:
    """Ladder position k of lambda, the 3F2 parameter c = L+J+k+7, and A(lambda).

    lambda = (L+J)/2 + k, so with n_top = N-1 every factorial argument of
    A(lambda) is an integer in k.
    """
    k = lambda_index(s, lam)[1]
    L, J, n_top = s.L, s.J, s.size - 1
    f = math.factorial
    rad = Fraction(
        f(L + J + k + 6) * (L + J + 2 * k + 7) * f(L + k + 3),
        f(k) * f(n_top + L + J + k + 7) * f(n_top - k) * f(J + k + 3),
    )
    return k, L + J + k + 7, rad


def _column_radicand(s: Sector, n_p: int) -> Fraction:
    """B(n_p), the n_p-only part of the radicand; n_v = n_top - n_p."""
    n_v = s.size - 1 - n_p
    f = math.factorial
    return Fraction(f(n_p + s.J + 3) * f(n_v + s.L + 3), f(n_v) * f(n_p))


def _factors(s: Sector, lams, nps) -> tuple[list, list, list]:
    """Row radicands A, rational core R and column radicands B on the given labels.

    R[k, n_p] is (-1)^k n_top!/(L+3)! times the 3F2; the sign and the
    prefactor go into the 3F2's integer pair, so each entry is one Fraction.
    """
    rows = [_row(s, lam) for lam in lams]
    nps = [np_index(s, n_p) for n_p in nps]
    n_top = s.size - 1
    pref_num, pref_den = math.factorial(n_top), math.factorial(s.L + 3)
    f32 = _f32_unit_terminating
    core = []
    for k, c, _ in rows:
        sign_num = -pref_num if k % 2 else pref_num
        core_row = []
        for n_p in nps:
            num, den = f32(-k, n_p - n_top, c, s.L + 4, -n_top, k)
            core_row.append(Fraction(sign_num * num, pref_den * den))
        core.append(core_row)
    return [a for _, _, a in rows], core, [_column_radicand(s, n_p) for n_p in nps]


def w_coefficient(s: Sector, lam, n_p: int) -> RadicalScalar:
    """Entry W[lambda, n_p] of the spherical-parabolic transformation, exact."""
    (a,), ((r,),), (b,) = _factors(s, [lam], [n_p])
    return RadicalScalar.sqrt(a) * RadicalScalar.sqrt(b) * r


@dataclass(frozen=True)
class WMatrix:
    """Exact W: rows indexed by lambda ascending, columns by n_p ascending.

    entries[i][p] is row_roots[i] * col_roots[p] * core[i][p], with the
    roots sqrt(row_radicands) and sqrt(col_radicands): the factors
    W = diag(sqrt A) R diag(sqrt B) that w_matrix built it from.  The
    roots are derived from the radicands, so they cannot disagree.
    """

    sector: Sector
    entries: tuple[tuple[RadicalScalar, ...], ...]
    row_radicands: tuple[Fraction, ...]
    core: tuple[tuple[Fraction, ...], ...]
    col_radicands: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return self.sector.size

    @functools.cached_property
    def row_roots(self) -> tuple[RadicalScalar, ...]:
        return tuple(map(RadicalScalar.sqrt, self.row_radicands))

    @functools.cached_property
    def col_roots(self) -> tuple[RadicalScalar, ...]:
        return tuple(map(RadicalScalar.sqrt, self.col_radicands))

    @functools.cached_property
    def _float(self) -> np.ndarray:
        out = coeffs.matrix_to_float(self.entries)
        out.flags.writeable = False
        return out

    def to_float(self) -> np.ndarray:
        """The entries as floats, each within 1 ulp; built once per W, read-only."""
        return self._float


def _integer_columns(core) -> tuple[list[int], list[list[int]]]:
    """Column j of R as r_j / d_j: the common denominators d and integer columns r."""
    n = len(core)
    d = [math.lcm(*(row[j].denominator for row in core)) for j in range(n)]
    cols = [[row[j].numerator * (d[j] // row[j].denominator) for row in core] for j in range(n)]
    return d, cols


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
    d, cols = _integer_columns(core)
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
    """All N^2 entries R sqrt(A) sqrt(B) of W, proved orthogonal on A, R, B first.

    Each root is built once, sqrt(A_i) = (s_i/q_i) sqrt(f_i) with f_i
    squarefree, and likewise sqrt(B_p).  An entry is then one reduction,
    in integers: coeff s_i s_p g r / (q_i q_p) and radicand
    (f_i/g)(f_p/g), g = gcd(f_i, f_p), which is already squarefree.
    """
    row_rad, core, col_rad = _factors(s, lambda_range(s), range(s.size))
    _assert_orthogonal(row_rad, core, col_rad)
    roots_a = tuple(map(RadicalScalar.sqrt, row_rad))
    roots_b = tuple(map(RadicalScalar.sqrt, col_rad))
    cols = [(x.coeff.numerator, x.coeff.denominator, x.radicand.numerator) for x in roots_b]
    raw, zero = RadicalScalar._raw, RadicalScalar.zero()
    entries = []
    for root_a, core_row in zip(roots_a, core):
        s_a, q_a, f_a = root_a.coeff.numerator, root_a.coeff.denominator, root_a.radicand.numerator
        row = []
        for (s_b, q_b, f_b), r in zip(cols, core_row):
            if r:
                g = math.gcd(f_a, f_b)
                coeff = Fraction(s_a * s_b * g * r.numerator, q_a * q_b * r.denominator)
                row.append(raw(coeff, Fraction((f_a // g) * (f_b // g))))
            else:
                row.append(zero)
        entries.append(tuple(row))
    W = WMatrix(s, tuple(entries), tuple(row_rad), tuple(map(tuple, core)), tuple(col_rad))
    W.__dict__.update(row_roots=roots_a, col_roots=roots_b)  # fill the caches with the roots built
    return W


def _cg_row(a2: int, b2: int, c2: int, g2: int) -> tuple[int, Fraction] | None:
    """a+b-c and the prefactor's (a, b, c, gamma) part, or None off the selection rules.

    Arguments are doubled, so half-integers are ints.  The part is
    (2c+1) (a+b-c)! (a-b+c)! (-a+b+c)! (c+gamma)! (c-gamma)! / (a+b+c+1)!.
    The rules checked: |gamma| <= c, the triangle |a-b| <= c <= a+b, and
    integer c-gamma and a+b+c.
    """
    if abs(g2) > c2 or not abs(a2 - b2) <= c2 <= a2 + b2 or (c2 - g2) % 2 or (a2 + b2 + c2) % 2:
        return None
    f = math.factorial
    x1 = (a2 + b2 - c2) // 2
    num = (c2 + 1) * f(x1) * f(x1 + c2 - b2) * f(x1 + c2 - a2)
    num *= f((c2 + g2) // 2) * f((c2 - g2) // 2)
    return x1, Fraction(num, f(x1 + c2 + 1))


def _cg_column(a2: int, al2: int, b2: int, be2: int, g2: int) -> tuple[tuple[int, ...], int] | None:
    """(a+alpha, a-alpha, b+beta, b-beta) and the product of their factorials.

    Arguments are doubled, as in _cg_row.  The product is the prefactor's
    (alpha, beta) part.  None off the selection rules: gamma = alpha+beta,
    |alpha| <= a, |beta| <= b, and integer a-alpha and b-beta.
    """
    if g2 != al2 + be2 or abs(al2) > a2 or abs(be2) > b2 or (a2 - al2) % 2 or (b2 - be2) % 2:
        return None
    ints = ((a2 + al2) // 2, (a2 - al2) // 2, (b2 + be2) // 2, (b2 - be2) // 2)
    return ints, math.prod(map(math.factorial, ints))


def _racah_sum(x1: int, column: tuple[int, ...]) -> Fraction:
    """The Racah series sum_k (-1)^k / (k! (x1-k)! (x2-k)! (x3-k)! (y1+k)! (y2+k)!).

    x1 = a+b-c, and column = (a+alpha, x2 = a-alpha, x3 = b+beta, b-beta),
    so y1 = c-b+alpha = a+alpha-x1 and y2 = c-a-beta = b-beta-x1.  Summed
    from its first term by Horner's rule on the term ratios, in integers,
    as _f32_unit_terminating does.
    """
    u, x2, x3, v = column
    y1, y2 = u - x1, v - x1
    lo, hi = max(0, -y1, -y2), min(x1, x2, x3)  # lo <= hi on the selection rules
    num = den = 1
    for k in reversed(range(lo, hi)):
        step = (k + 1) * (y1 + k + 1) * (y2 + k + 1)
        num, den = den * step - (x1 - k) * (x2 - k) * (x3 - k) * num, den * step
    f = math.factorial
    lead = f(lo) * f(x1 - lo) * f(x2 - lo) * f(x3 - lo) * f(y1 + lo) * f(y2 + lo)
    return Fraction(-num if lo % 2 else num, den * lead)


def w_via_cg(W: WMatrix) -> list[tuple[int, int]]:
    """Positions (row, n_p) where a printed entry of W differs from its CG form.

    Entry [lambda, n_p] is (-1)^(m-l-n_p) C^{l+3, h+3}_{a, alpha; b, beta},
    with h = (L+J)/2, a and b fixed by the sector and alpha, beta by n_p.
    The prefactor under the root is a row part times a column part, each
    built once; only the Racah sum S couples them.  An entry agrees when
    it has the sign of (-1)^(m-l-n_p) S and its square equals row part x
    column part x S^2, compared in integers.  The oracle reads only the
    printed entries, never the factors or the 3F2 they came from, and
    returns [] for a correct W.
    """
    s = W.sector
    # the CG arguments, doubled: a and b per sector, alpha and beta per n_p
    ljq = _as_index(Fraction(s.L + s.J - s.Q, 2))
    a2, b2, g2 = s.n + 3 + s.J - ljq, s.n + 3 + s.L - ljq, s.lam_min.twice + 6
    columns = [
        _cg_column(a2, 2 * n_p - s.n + ljq + s.J + 3, b2, s.n - ljq - 2 * n_p + s.L + 3, g2)
        for n_p in range(s.size)
    ]
    bad = []  # W's arguments meet every selection rule, so no part is None
    for i, (lam, entries) in enumerate(zip(lambda_range(s), W.entries)):
        x1, row_part = _cg_row(a2, b2, lam.twice + 6, g2)
        odd = (s.m.twice - lam.twice) // 2 % 2
        for n_p, (x, (ints, column_part)) in enumerate(zip(entries, columns)):
            S = _racah_sum(x1, ints)
            want = S.numerator if (odd + n_p) % 2 == 0 else -S.numerator
            sq = x.square()
            ok = x.sign() == (want > 0) - (want < 0) and (
                sq.numerator * row_part.denominator * S.denominator**2
                == sq.denominator * row_part.numerator * column_part * S.numerator**2
            )
            if not ok:
                bad.append((i, n_p))
    return bad


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The non-negative rational whose square is q >= 0, or None if there is none."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


def w_recurrence_residual(W: WMatrix) -> list[list[RadicalScalar]]:
    """Exact residual M9 W - W diag(mu), every entry zero for a correct W.

    M9 is coeffs.m9_tridiagonal, so row lambda of the residual is the
    three-term recurrence of W in lambda at each n_p.  It is summed on the
    factors: entry [lambda, p] is sqrt(A_lambda) sqrt(B_p) times
    sum_k M9[lambda, k] sqrt(A_k / A_lambda) R[k, p] - mu_p R[lambda, p].
    The coupling b_lambda sqrt(A_(lambda-1) / A_lambda), b_lambda >= 0 the
    root of M9's squared coupling, is rational on a correct W, and so is
    its mirror b_lambda sqrt(A_lambda / A_(lambda-1)); each row of the sum
    then runs in integers over R's column denominators.  Raises
    RadicandMismatch if a coupling is irrational: the residual then leaves
    the c*sqrt(d) class, and A is wrong.
    """
    s, n = W.sector, W.size
    m9_diag, coupling_sq = coeffs.m9_tridiagonal(s)
    mu = [v.fraction for v in coeffs.m9_eigenvalues(s)]
    A = W.row_radicands
    down = [Fraction(0)] * n  # [i]: M9[i, i-1] sqrt(A[i-1] / A[i])
    for i, b_sq in enumerate(coupling_sq, 1):
        t = _rational_sqrt(b_sq * A[i - 1] / A[i])
        if t is None:
            raise RadicandMismatch(f"M9 coupling^2 {b_sq} times A[{i - 1}]/A[{i}] is no square")
        down[i] = t
    up = [down[i + 1] * A[i + 1] / A[i] for i in range(n - 1)] + [Fraction(0)]
    d, cols = _integer_columns(W.core)
    mu_den = math.lcm(*(x.denominator for x in mu))
    zero = RadicalScalar.zero()
    out = []
    for i, diag in enumerate(m9_diag):
        e = math.lcm(down[i].denominator, up[i].denominator, diag.denominator, mu_den)
        lo, mid, hi = (x.numerator * (e // x.denominator) for x in (down[i], diag, up[i]))
        row = []
        for p, (m, dp, r) in enumerate(zip(mu, d, cols)):
            v = (mid - m.numerator * (e // m.denominator)) * r[i]
            if i:
                v += lo * r[i - 1]
            if i + 1 < n:
                v += hi * r[i + 1]
            row.append(zero if v == 0 else W.row_roots[i] * W.col_roots[p] * Fraction(v, dp * e))
        out.append(row)
    return out


def m9_matrix_bruteforce(W: WMatrix) -> list[list[RadicalScalar]]:
    """Ninth Runge-Lenz matrix rebuilt as W diag(mu) W^T from the given W.

    Exact; must equal coeffs.m9_spherical_matrix entrywise.  Entry [i, j]
    is sqrt(A_i A_j) times [R diag(B mu) R^T]_ij, a sum of integers over
    one common denominator; only its nonzero entries are scaled by the
    two row roots.
    """
    n = W.size
    mu = [v.fraction for v in coeffs.m9_eigenvalues(W.sector)]
    d, cols = _integer_columns(W.core)
    weights = [b * m / (dp * dp) for b, m, dp in zip(W.col_radicands, mu, d)]
    den = math.lcm(*(w.denominator for w in weights))
    weights = [w.numerator * (den // w.denominator) for w in weights]
    rows = list(zip(*cols))
    zero = RadicalScalar.zero()
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        weighted = [w * x for w, x in zip(weights, rows[i])]
        for j in range(i, n):  # W diag(mu) W^T is symmetric for every W
            dot = sum(x * y for x, y in zip(weighted, rows[j]))
            if dot:
                out[i][j] = out[j][i] = W.row_roots[i] * W.row_roots[j] * Fraction(dot, den)
    return out
