"""Spherical-parabolic interbasis matrix W and its exact cross-oracles.

The parabolic basis is the eigenbasis of the ninth Runge-Lenz component M9,
and W carries the spherical basis onto it.  Its closed form factors as W =
diag(sqrt A') C diag(sqrt B) with C an integer matrix: row k of C is a
terminating 3F2 at unit argument over n_p, at its least scale (the lcm of
its reduced denominators, so the row is primitive) and with W's phase
(-1)^k.  A'(lambda) = A(lambda) (n_top!/(L+3)!)^2 / scale^2, A the
lambda-only factorial ratio of the radicand; B(n_p) is the n_p-only
ratio.  M9 and Lambda = diag(lambda(lambda+7)) act on W as a Leonard
pair, so C has two three-term recurrences: M9's in lambda, and the dual
one in n_p through G = W^T Lambda W, the closed-form tridiagonal
coeffs.np_recurrence.  C is built by the n_p one alone, a row in O(N)
integer steps by _factor_row, which finds the least scale as it runs, so
every step is on integers of a core entry's size and no content is
divided out: w_matrix runs every row, and w_coefficient the one row of
its entry.  At L = J the two spins of W's Clebsch-Gordan form below are
equal, and their exchange symmetry
(Varshalovich, Moskalev & Khersonskii 1988, 8.4.3) gives
W[lambda, n_top - n_p] = (-1)^k W[lambda, n_p], k lambda's ladder
position, with B(n_top - n_p) = B(n_p): the build computes the columns
n_p >= floor(N/2) and mirrors the rest (_mirrored_columns).  The proof
below still reads all N^2 entries of the factors, so a mirror wrong in
some rows raises; a column of the wrong sign throughout keeps W
orthogonal, and w_via_cg names it.  The build and its proof run on
integers and integer (num, den) pairs with exact divisions: a Fraction is
built only for W's row_radicands and col_radicands fields, one per row and
one per column.  Every exact matrix here is held in W's printed form, rows
of the integers (num, den, f) of (num/den) sqrt(f) that the CLI prints,
with no Fraction or RadicalScalar per entry: _printed_entries reduces a row
root times a column root times an integer over a per-row denominator, one
gcd per entry, for W, the brute-force M9 and the recurrence residual alike.
WMatrix keeps the factors next to the printed entries; its roots and floats
are views built when read.  With mu_p = n+Q/2-J-2n_p and M9 the closed-form
tridiagonal matrix, w_matrix proves W orthogonal on the factors by the
lambda recurrence, which the build never reads, in O(N^2) integer
operations, with no W^T W sum:

* M9 W = W diag(mu), divided by sqrt(A'_lambda) sqrt(B_p), is the
  three-term recurrence of C in lambda, whose couplings
  M9[lambda, k] sqrt(A'_k / A'_lambda) are rational on a correct W.  Its
  residual is exactly zero, and as M9 is symmetric with distinct mu_p,
  that makes W^T W diagonal;
* the column norms sum_k A'_k C[k, p]^2 = 1/B_p make that diagonal I.

W keeps that residual's rows and its roots from the proof: verify's
w_recurrence_residual reports those rows, and m9_matrix_bruteforce sums
W diag(mu) W^T = M9 on the factors, as C diag(B mu) C^T scaled by the
kept roots sqrt(A'_i) sqrt(A'_j), into the printed form that
coeffs.m9_spherical_matrix gives, so the two compare with one ==.
Independently of the 3F2, each printed entry must equal its single SU(2)
Clebsch-Gordan form (Condon-Shortley/Varshalovich phases).  On W the CG
prefactor splits into a part per row and a part per column, and only the
Racah sum couples the two; w_via_cg builds each part once and sums each
Racah series in integers, each a (num, den) pair in lowest terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import coeffs
from .errors import OrthogonalityViolation, RadicandMismatch
from .exactscalar import RadicalScalar, rational_root
from .sector import Sector, lambda_index, np_index


def _row(s: Sector, k: int) -> tuple[int, int]:
    """A(lambda) (n_top!/(L+3)!)^2 at ladder position k, lambda = (L+J)/2 + k, as integers (num, den).

    A is the lambda-only factorial ratio of W's radicand; over the square
    of row k's scale it is A', which _factor_row forms.  num/den is not
    reduced; its one reduction is that Fraction.
    """
    L, J, n_top = s.L, s.J, s.size - 1
    f = math.factorial
    return (f(L + J + k + 6) * (L + J + 2 * k + 7) * f(L + k + 3) * f(n_top) ** 2,
            f(L + 3) ** 2 * f(k) * f(n_top - k) * f(n_top + L + J + k + 7) * f(J + k + 3))


def _column_radicand(s: Sector, n_p: int) -> Fraction:
    """B(n_p), the n_p-only part of the radicand; n_v = n_top - n_p."""
    n_v = s.size - 1 - n_p
    f = math.factorial
    return Fraction(f(n_p + s.J + 3) * f(n_v + s.L + 3), f(n_v) * f(n_p))


def _mirrored_columns(s: Sector) -> int:
    """How many columns of W, n_p = 0 .. lo-1, the build mirrors: floor(N/2) at L = J, else 0.

    At L = J the exchange symmetry C^{c gamma}_{a alpha; b beta} =
    (-1)^(a+b-c) C^{c gamma}_{b beta; a alpha} of W's Clebsch-Gordan form
    (Varshalovich, Moskalev & Khersonskii 1988, 8.4.3) gives
    C[k, n_top - n_p] = (-1)^k C[k, n_p] and B(n_top - n_p) = B(n_p).
    """
    return s.size // 2 if s.L == s.J else 0


def _factor_row(s: Sector, k: int, recurrence) -> tuple[Fraction, list[int]]:
    """A'_k and row k of the integer core C, n_p ascending, in O(N) steps on core-sized integers.

    Row k of C is the 3F2(-k, n_p-n_top, L+J+k+7; L+4, -n_top; 1) over
    n_p, run by recurrence, coeffs.np_recurrence(s), down from n_p = n_top,
    where the 3F2 is 1; upper[n_top] is 0.  The row starts at (-1)^k, W's
    phase convention, with scale 1.  Where the step's division by
    lower[p] > 0 would leave a remainder, x and the entry after it take the
    least factor m = lower[p] / gcd(num, lower[p]) that makes it whole, the
    scale takes m, and the entries already written take the product of
    their later factors in one pass at the end.  The final scale is the lcm
    of the row's reduced 3F2 denominators, so the row is primitive,
    C[k] = (-1)^k scale 3F2, and A' = A (n_top!/(L+3)!)^2 / scale^2 from
    _row's closed form.  At L = J the recurrence stops at n_p = floor(N/2)
    and the columns below are filled by the Clebsch-Gordan exchange
    symmetry C[k, n_p] = (-1)^k C[k, n_top - n_p] (_mirrored_columns);
    _prove_orthogonal still reads every entry.
    """
    lower, diag, upper = recurrence
    shift = k * (s.L + s.J + k + 7)
    lo = _mirrored_columns(s)
    x, after, scale = -1 if k % 2 else 1, 0, 1  # the numerators at n_p and n_p + 1
    row, marks = [x], [(0, 1)]  # n_p descending; marks: (entries written, m) at each rescale
    for p in range(s.size - 1, lo, -1):
        num = (diag[p] - shift) * x - upper[p] * after
        q, r = divmod(num, lower[p])
        if r:  # num m / lower[p] = num / h is whole for the least m = lower[p] / h
            h = math.gcd(r, lower[p])
            m = lower[p] // h
            q, x, scale = num // h, x * m, scale * m
            marks.append((len(row), m))
        x, after = q, x
        row.append(x)
    end, f = len(row), 1
    for j, m in reversed(marks):  # row[j:end] was written before the rescales in f
        if f != 1:
            row[j:end] = [v * f for v in row[j:end]]
        end, f = j, f * m
    row.reverse()  # n_p = lo .. n_top
    if lo:
        mirror = row[: -lo - 1 : -1]  # at n_p = 0 .. lo-1, the entries at n_top - n_p
        row = ([-v for v in mirror] if k % 2 else mirror) + row
    a_num, a_den = _row(s, k)
    return Fraction(a_num, a_den * scale * scale), row


def _factors(s: Sector) -> tuple[list[Fraction], list[list[int]], list[Fraction]]:
    """Row factors A', integer core C and column radicands B of the whole W, in O(N^2) steps.

    _factor_row runs each row at its least scale and forms its A' from
    that scale alone.  Each A' and B is one Fraction, the field WMatrix keeps;
    the proof reads their numerators; B is mirrored like C.  The build
    never reads M9 or mu, so _prove_orthogonal's lambda recurrence checks
    it on an identity it was not built from.
    """
    recurrence = coeffs.np_recurrence(s)
    row_rad, core = [], []
    for k in range(s.size):
        a, row = _factor_row(s, k, recurrence)
        row_rad.append(a)
        core.append(row)
    lo = _mirrored_columns(s)
    col_rad = [_column_radicand(s, n_p) for n_p in range(lo, s.size)]
    return row_rad, core, col_rad[: -lo - 1 : -1] + col_rad if lo else col_rad


def w_coefficient(s: Sector, lam, n_p: int) -> RadicalScalar:
    """Entry W[lambda, n_p] of the spherical-parabolic transformation, exact but unproved.

    sqrt(A') sqrt(B) C[k, p], the integer kept out of the root, from the one
    row _factor_row runs in O(N) steps at its least scale, which also
    gives A'.
    """
    k, p = lambda_index(s, lam)[1], np_index(s, n_p)
    a, row = _factor_row(s, k, coeffs.np_recurrence(s))
    return RadicalScalar(1, a) * RadicalScalar(1, _column_radicand(s, p)) * row[p]


@dataclass(frozen=True)
class WMatrix:
    """Exact W: rows indexed by lambda ascending, columns by n_p ascending.

    printed[i][p] is entry [i, p] as the integers (num, den, f) of
    (num/den) sqrt(f), num/den in lowest terms, f squarefree and zero
    (0, 1, 1): the form the CLI prints.  w_matrix reduced it from the
    factors W = diag(sqrt A') C diag(sqrt B), C an integer matrix, kept
    next to it.  The roots (s, q, f) of sqrt(row_radicands) and
    sqrt(col_radicands), the recurrence rows and the floats are views of
    the factors, built on first read or kept from w_matrix's proof; a copy
    by dataclasses.replace keeps none, so no view can disagree with the
    factors.
    """

    sector: Sector
    printed: tuple[tuple[tuple[int, int, int], ...], ...]
    row_radicands: tuple[Fraction, ...]
    core: tuple[tuple[int, ...], ...]
    col_radicands: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return self.sector.size

    @functools.cached_property
    def _roots(self) -> tuple[tuple[int, int, int], ...]:
        """(s, q, f) of each root (s/q) sqrt(f), rows then columns, from rational_root."""
        return tuple(rational_root(x.numerator, x.denominator)
                     for x in self.row_radicands + self.col_radicands)

    @functools.cached_property
    def _recurrence(self) -> tuple[tuple[int, list[int]], ...]:
        return tuple(_recurrence_rows(self.sector, self.row_radicands, self.core))

    @functools.cached_property
    def _float(self):
        out = coeffs.matrix_to_float(self.printed)
        out.flags.writeable = False
        return out

    def to_float(self):
        """The entries as floats, each within 1 ulp; built once per W, read-only."""
        return self._float


def _recurrence_rows(s: Sector, row_rad, core):
    """Rows i of M9 W - W diag(mu) over sqrt(A'_i) sqrt(B_p), as (e, ints v): entry p is v[p]/e.

    That entry is sum_k M9[i, k] sqrt(A'_k / A'_i) C[k, p] - mu_p C[i, p],
    M9 from coeffs.m9_tridiagonal.  Its coupling t_i = b_i sqrt(A'_(i-1) / A'_i),
    b_i >= 0 the root of M9's squared coupling, and the mirror
    b_i sqrt(A'_i / A'_(i-1)) = b_i^2 / t_i are rational on a correct W;
    each is an integer pair (num, den) in lowest terms, from one gcd and
    two isqrts for t_i and one gcd for its mirror.  Raises RadicandMismatch
    if t_i is not rational: the residual leaves the c*sqrt(d) class, and A'
    is wrong.
    """
    n = len(core)
    m9_diag, coupling_sq = coeffs.m9_tridiagonal(s)
    mu2 = coeffs.m9_twice_eigenvalues(s)  # 2 mu_p, an int: e is kept even
    a = [(x.numerator, x.denominator) for x in row_rad]
    down = [(0, 1)] * n  # [i]: M9[i, i-1] sqrt(A'[i-1] / A'[i])
    up = [(0, 1)] * n  # [i]: M9[i, i+1] sqrt(A'[i+1] / A'[i])
    for i, b_sq in enumerate(coupling_sq, 1):
        (p0, q0), (p1, q1), bn, bd = a[i - 1], a[i], b_sq.numerator, b_sq.denominator
        num, den = bn * p0 * q1, bd * q0 * p1
        g = math.gcd(num, den)
        num, den = num // g, den // g
        tn, td = math.isqrt(num), math.isqrt(den)
        if tn * tn != num or td * td != den:
            raise RadicandMismatch(f"the M9 coupling into row {i} of W is irrational for {s}")
        down[i] = tn, td
        num, den = bn * td, bd * tn
        g = math.gcd(num, den)
        up[i - 1] = num // g, den // g
    for i, diag in enumerate(m9_diag):
        (ln, ld), (hn, hd) = down[i], up[i]
        e = math.lcm(ld, hd, diag.denominator, 2)
        lo, mid, hi = ln * (e // ld), diag.numerator * (e // diag.denominator), hn * (e // hd)
        half = e // 2
        # lo is 0 at row 0 and hi at row n-1, so core[-1] and core[0] stand in there
        yield e, [(mid - m * half) * x + lo * y + hi * z
                  for m, x, y, z in zip(mu2, core[i], core[i - 1], core[(i + 1) % n])]


def _prove_orthogonal(s: Sector, row_rad, core, col_rad) -> tuple:
    """W^T W = I for W = diag(sqrt A') C diag(sqrt B), in O(N^2) integer operations.

    M9 is symmetric and its eigenvalues mu_p are distinct, so the zero
    residual M9 W = W diag(mu) makes (mu_q - mu_p) (W^T W)_pq = 0: W^T W is
    diagonal.  Its diagonal is B_p sum_k A'_k C[k, p]^2, so the column
    norms sum_k A'_k C[k, p]^2 = 1/B_p make it I.  Both hold for W D, D any
    diagonal of signs, so each column's phase is checked apart: row 0 of C
    is all ones, as the 3F2 at k = 0 is 1 and row 0's phase and scale are
    1.  The failed identity and its position go into the
    OrthogonalityViolation.  Returns the residual rows.
    """
    try:
        rows = tuple(_recurrence_rows(s, row_rad, core))
    except RadicandMismatch as exc:
        raise OrthogonalityViolation(f"residual: {exc}") from exc
    for i, (_, v) in enumerate(rows):
        if any(v):
            p = next(p for p, x in enumerate(v) if x)
            raise OrthogonalityViolation(f"residual (M9 W - W diag mu)[{i},{p}] != 0 for {s}")
    den = math.lcm(*(x.denominator for x in row_rad))
    a = [x.numerator * (den // x.denominator) for x in row_rad]
    for p, (col, b) in enumerate(zip(zip(*core), col_rad)):
        if sum(map(mul, a, map(mul, col, col))) * b.numerator != den * b.denominator:
            raise OrthogonalityViolation(f"norm (W^T W)[{p},{p}] != 1 for {s}")
    for p, x in enumerate(core[0]):
        if x != 1:
            raise OrthogonalityViolation(f"phase C[0,{p}] != 1 for {s}")
    return rows


def _printed_entries(row_roots, col_roots, ints, dens) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Entries r_i c_p ints[i][p] / dens[i] in printed form, r_i and c_p roots (s, q, f).

    A root (s/q) sqrt(f) is as rational_root gives it, f squarefree.  An
    entry is one reduction in integers: s_i s_p g x / (q_i q_p d_i) in
    lowest terms and the radicand (f_i/g)(f_p/g), g = gcd(f_i, f_p), which
    is already squarefree; a zero x gives (0, 1, 1).
    """
    gcd, out = math.gcd, []
    for (s_a, q_a, f_a), d, row in zip(row_roots, dens, ints):
        q_a *= d
        entries = []
        for (s_b, q_b, f_b), x in zip(col_roots, row):
            if x:
                g = gcd(f_a, f_b)
                num, den = s_a * s_b * g * x, q_a * q_b
                h = gcd(num, den)
                entries.append((num // h, den // h, (f_a // g) * (f_b // g)))
            else:
                entries.append((0, 1, 1))
        out.append(tuple(entries))
    return tuple(out)


def w_matrix(s: Sector) -> WMatrix:
    """W printed from its factors A', C, B, after _prove_orthogonal on them.

    Each root is reduced once, sqrt(A'_i) = (s_i/q_i) sqrt(f_i) by
    rational_root, and likewise sqrt(B_p); _printed_entries then reduces
    every entry sqrt(A'_i) C[i, p] sqrt(B_p) in one call.  At L = J only
    the columns n_p >= floor(N/2) are reduced and printed, and row i is
    mirrored by the Clebsch-Gordan exchange symmetry W[i, n_top - n_p] =
    (-1)^i W[i, n_p] (_mirrored_columns); the proof has read all N^2
    entries of the factors.
    """
    row_rad, core, col_rad = _factors(s)
    rows = _prove_orthogonal(s, row_rad, core, col_rad)
    n, lo = s.size, _mirrored_columns(s)
    roots = tuple(rational_root(x.numerator, x.denominator) for x in row_rad + col_rad[lo:])
    ints = [row[lo:] for row in core] if lo else core
    printed = _printed_entries(roots[:n], roots[n:], ints, [1] * n)
    if lo:  # a mirror is the last lo entries of a row over columns lo .. n_top, reversed
        roots = roots[:n] + roots[: -lo - 1 : -1] + roots[n:]
        full = []  # tuple() of generators here held ~1 MB more peak RSS over 2,000 builds
        for i, row in enumerate(printed):
            mirror = row[: -lo - 1 : -1]
            full.append((tuple([(-x, d, f) for x, d, f in mirror]) if i % 2 else mirror) + row)
        printed = tuple(full)
    W = WMatrix(s, printed, tuple(row_rad), tuple(map(tuple, core)), tuple(col_rad))
    W.__dict__.update(_roots=roots, _recurrence=rows)  # the cached views, already built
    return W


def _cg_row(a2: int, b2: int, c2: int, g2: int) -> tuple[int, tuple[int, int]] | None:
    """a+b-c and the prefactor's (a, b, c, gamma) part (num, den), or None off the selection rules.

    Arguments are doubled, so half-integers are ints.  The part is
    (2c+1) (a+b-c)! (a-b+c)! (-a+b+c)! (c+gamma)! (c-gamma)! / (a+b+c+1)!,
    in lowest terms.
    The rules checked: |gamma| <= c, the triangle |a-b| <= c <= a+b, and
    integer c-gamma and a+b+c.
    """
    if abs(g2) > c2 or not abs(a2 - b2) <= c2 <= a2 + b2 or (c2 - g2) % 2 or (a2 + b2 + c2) % 2:
        return None
    f = math.factorial
    x1 = (a2 + b2 - c2) // 2
    num = (c2 + 1) * f(x1) * f(x1 + c2 - b2) * f(x1 + c2 - a2)
    num *= f((c2 + g2) // 2) * f((c2 - g2) // 2)
    den = f(x1 + c2 + 1)
    g = math.gcd(num, den)
    return x1, (num // g, den // g)


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


def _racah_sum(x1: int, column: tuple[int, ...]) -> tuple[int, int]:
    """The Racah series sum_k (-1)^k / (k! (x1-k)! (x2-k)! (x3-k)! (y1+k)! (y2+k)!).

    x1 = a+b-c, and column = (a+alpha, x2 = a-alpha, x3 = b+beta, b-beta),
    so y1 = c-b+alpha = a+alpha-x1 and y2 = c-a-beta = b-beta-x1.  Summed
    from its first term by Horner's rule on the term ratios, in integers,
    and returned as (num, den) in lowest terms, den > 0: unreduced, their
    bits would grow with N in every entry's comparison.
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
    den *= lead
    g = math.gcd(num, den)
    return (-num if lo % 2 else num) // g, den // g


def w_via_cg(W: WMatrix) -> list[tuple[int, int]]:
    """Positions (row, n_p) where a printed entry of W differs from its CG form.

    Entry [lambda, n_p] is (-1)^(m-l-n_p) C^{l+3, h+3}_{a, alpha; b, beta},
    with h = (L+J)/2, a and b fixed by the sector and alpha, beta by n_p.
    The prefactor under the root is a row part times a column part, each
    built once; only the Racah sum S couples them.  A printed entry
    (num/den) sqrt(f) agrees when num has the sign of (-1)^(m-l-n_p) S and
    num^2 f / den^2 equals row part x column part x S^2, in integers.  The
    oracle reads only the printed entries, never the factors or the
    recurrence that built them, and returns [] for a correct W.
    """
    s = W.sector
    # the CG arguments, doubled: a and b per sector, alpha and beta per n_p
    ljq = (s.L + s.J - s.Q) // 2  # an integer: validate_sector enforces parity
    a2, b2, g2 = s.n + 3 + s.J - ljq, s.n + 3 + s.L - ljq, s.L + s.J + 6
    columns = [
        _cg_column(a2, 2 * n_p - s.n + ljq + s.J + 3, b2, s.n - ljq - 2 * n_p + s.L + 3, g2)
        for n_p in range(s.size)
    ]
    bad = []  # W's arguments meet every selection rule, so no part is None
    for i, row in enumerate(W.printed):
        l2 = s.L + s.J + 2 * i  # twice lambda; twice m is 2n+Q
        x1, (row_num, row_den) = _cg_row(a2, b2, l2 + 6, g2)
        odd = (2 * s.n + s.Q - l2) // 2 % 2
        for n_p, ((num, den, f), (ints, column_part)) in enumerate(zip(row, columns)):
            sn, sd = _racah_sum(x1, ints)
            want = sn if (odd + n_p) % 2 == 0 else -sn
            ok = (num > 0) - (num < 0) == (want > 0) - (want < 0) and (
                num * num * f * row_den * sd * sd == den * den * row_num * column_part * sn * sn
            )
            if not ok:
                bad.append((i, n_p))
    return bad


def w_recurrence_residual(W: WMatrix) -> list[list[RadicalScalar]]:
    """Exact residual M9 W - W diag(mu), every entry zero for a correct W.

    M9 is coeffs.m9_tridiagonal, so row lambda of the residual is the
    three-term recurrence of W in lambda at each n_p.  It is w_matrix's
    own kernel, _recurrence_rows, on W's factors (the rows its proof read,
    on a W from w_matrix).  _printed_entries reduces entry [i, p], v[p]/e
    of row i times sqrt(A'_lambda) sqrt(B_p), to integers, and each becomes
    a RadicalScalar.  Raises RadicandMismatch if a coupling is irrational.
    """
    dens, ints = zip(*W._recurrence)
    zero = RadicalScalar.zero()
    scaled = _printed_entries(W._roots[: W.size], W._roots[W.size :], ints, dens)
    return [[RadicalScalar._raw(Fraction(x, d), f) if x else zero for x, d, f in row]
            for row in scaled]


def m9_matrix_bruteforce(W: WMatrix) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Ninth Runge-Lenz matrix rebuilt as W diag(mu) W^T from the given W, in printed form.

    Exact; must equal coeffs.m9_spherical_matrix.  Entry [i, j] is
    sqrt(A'_i A'_j) times [C diag(B mu) C^T]_ij, a sum of integers over one
    common denominator, which _printed_entries scales by the two row roots.
    """
    n = W.size
    mu = [Fraction(t, 2) for t in coeffs.m9_twice_eigenvalues(W.sector)]
    weights = [b * m for b, m in zip(W.col_radicands, mu)]
    den = math.lcm(*(w.denominator for w in weights))
    weights = [w.numerator * (den // w.denominator) for w in weights]
    dots = [[0] * n for _ in range(n)]
    for i in range(n):
        weighted = [w * x for w, x in zip(weights, W.core[i])]
        for j in range(i, n):  # W diag(mu) W^T is symmetric for every W
            dots[i][j] = dots[j][i] = sum(x * y for x, y in zip(weighted, W.core[j]))
    roots = W._roots[:n]
    return _printed_entries(roots, roots, dots, [den] * n)
