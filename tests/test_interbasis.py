"""Interbasis matrix W: closed form, CG oracle, recurrence, brute force."""

import decimal
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from micz9 import coeffs
from micz9.coeffs import m9_spherical_matrix, m9_twice_eigenvalues, matrix_to_float
from micz9.errors import (
    IndexOutOfRange,
    InternalConsistencyError,
    OrthogonalityViolation,
    RadicandMismatch,
)
from micz9.exactscalar import RadicalScalar
from micz9.interbasis import (
    _cg_column,
    _cg_row,
    _column_radicand,
    _factors,
    _prove_orthogonal,
    _racah_sum,
    _recurrence_rows,
    _row,
    m9_matrix_bruteforce,
    w_coefficient,
    w_matrix,
    w_recurrence_residual,
    w_via_cg,
)
from micz9.sector import enumerate_sectors, lambda_range, validate_sector

S0 = validate_sector(0, 0, 0, 0, 1)
S1 = validate_sector(1, 0, 0, 0, 1)
S22 = validate_sector(2, 0, 0, 2, 1)
S4211 = validate_sector(4, 2, 1, 1, 1)  # N = 5, with exact zeros in its core

SQRT2_HALF = RadicalScalar(Fraction(1, 2), 2)


def radicals(rows) -> list[list[RadicalScalar]]:
    """Rows of printed (num, den, f) entries as RadicalScalar values, reduced anew."""
    return [[RadicalScalar(Fraction(n, d), f) for n, d, f in row] for row in rows]


def entries(W) -> list[list[RadicalScalar]]:
    """W's printed entries as RadicalScalar values."""
    return radicals(W.printed)


def printed(rows) -> tuple:
    """RadicalScalar rows in W's printed form."""
    return tuple(tuple((x.coeff.numerator, x.coeff.denominator, x.radicand) for x in row)
                 for row in rows)


def test_w_coefficient_hand_values():
    assert w_coefficient(S0, 0, 0) == 1
    assert w_coefficient(S1, 0, 0) == SQRT2_HALF
    assert w_coefficient(S1, 0, 1) == SQRT2_HALF
    assert w_coefficient(S1, 1, 0) == SQRT2_HALF
    assert w_coefficient(S1, 1, 1) == -SQRT2_HALF
    with pytest.raises(IndexOutOfRange):
        w_coefficient(S1, 2, 0)
    with pytest.raises(IndexOutOfRange):
        w_coefficient(S1, 0, 2)


def test_w_matrix_examples():
    assert w_matrix(S0).printed == (((1, 1, 1),),)
    W = w_matrix(S1)
    assert W.printed == (((1, 2, 2), (1, 2, 2)), ((1, 2, 2), (-1, 2, 2)))
    assert entries(W)[0][0] == SQRT2_HALF and entries(W)[1][1] == -SQRT2_HALF
    # any 1x1 sector is +-1; the leading entry is always positive
    for s in (validate_sector(0, 2, 1, 1, 1), validate_sector(1, 0, 0, 2, 1)):
        assert abs(w_matrix(s).to_float()[0, 0]) == 1.0


def test_w_first_row_positive():
    # the bottom-ladder row terminates the hypergeometric sum at its first
    # term, so every entry there is strictly positive
    for s in enumerate_sectors(3, 3, 3):
        W = w_matrix(s)
        assert all(isinstance(x, int) for row in W.core for x in row), s
        for n_p in range(s.size):
            assert W.printed[0][n_p][0] > 0


def test_orthogonality_exact_small_sweep():
    for s in enumerate_sectors(3, 3, 3):
        W = entries(w_matrix(s))  # construction proves W^T W = I, hence W W^T = I
        n = len(W)
        for i in range(n):
            row = sum((W[i][k] * W[i][k] for k in range(n)), RadicalScalar.zero())
            assert row == 1


S3110 = validate_sector(3, 1, 1, 0, 1)


def _core_row_by_3f2(s, k):
    """Row k of Horner numerators of 3F2(-k, n_p-n_top, L+J+k+7; L+4, -n_top; 1), n_p ascending.

    Horner's rule on the term ratios, 1 + t_0 (1 + t_1 (1 + ...)), has the
    denominator (L+4)_k (-n_top)_k k!, which depends on k alone; one pass
    runs every column on it, in O(k) steps per entry.  The series ends
    before the zero of (-n_top)_j because k <= n_top.
    """
    L, n_top, c = s.L, s.size - 1, s.L + s.J + k + 7
    den, row = 1, [1] * s.size
    for j in reversed(range(k)):
        den *= (L + 4 + j) * (j - n_top) * (j + 1)
        t = (j - k) * (c + j)
        row = [den + t * (n_p - n_top + j) * x for n_p, x in enumerate(row)]
    return row


def _factors_by_3f2_rows(s):
    """(A', C, B) from full 3F2 rows summed term by term, each divided by its content."""
    row_rad, core = [], []
    for k in range(s.size):
        a_num, a_den = _row(s, k)
        row = _core_row_by_3f2(s, k)
        g = math.gcd(*row)
        row_rad.append(Fraction(a_num * g * g, a_den))
        core.append([x // g for x in row])
    return row_rad, core, [_column_radicand(s, n_p) for n_p in range(s.size)]


REFERENCE_SECTORS = [*enumerate_sectors(6, 4, 4), validate_sector(60, 0, 0, 0),
                     validate_sector(100, 3, 1, 4)]


def test_factors_by_the_np_recurrence_equal_the_3f2_rows():
    for s in REFERENCE_SECTORS:
        assert _factors(s) == _factors_by_3f2_rows(s), s


def _factors_in_fractions(s):
    """(A', C, B) by the n_p recurrence with A' a Fraction throughout, from its closed form."""
    L, J, n_top, f = s.L, s.J, s.size - 1, math.factorial
    lower, diag, upper = coeffs.np_recurrence(s)
    row_rad, core, den = [], [], 1
    for k in range(s.size):
        a = Fraction(f(L + J + k + 6) * (L + J + 2 * k + 7) * f(n_top - k),
                     f(k) ** 3 * f(n_top + L + J + k + 7) * f(J + k + 3) * f(L + k + 3))
        shift = k * (L + J + k + 7)
        x, after, row = den, 0, [den]
        for p in range(n_top, 0, -1):
            x, after = ((diag[p] - shift) * x - upper[p] * after) // lower[p], x
            row.append(x)
        row.reverse()
        g = math.gcd(*row)
        row_rad.append(a * g * g)
        core.append([v // g for v in row])
        den *= (L + 4 + k) * (k - n_top) * (k + 1)
    return row_rad, core, [_column_radicand(s, n_p) for n_p in range(s.size)]


def _recurrence_rows_in_fractions(s, row_rad, core):
    """The rows (e, v) of M9 W - W diag(mu), each coupling a Fraction and its root checked."""
    n = len(core)
    m9_diag, coupling_sq = coeffs.m9_tridiagonal(s)
    mu2 = list(m9_twice_eigenvalues(s))
    down = [Fraction(0)] * n
    for i, b_sq in enumerate(coupling_sq, 1):
        q = b_sq * row_rad[i - 1] / row_rad[i]
        num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if num * num != q.numerator or den * den != q.denominator:
            raise RadicandMismatch(f"row {i}")
        down[i] = Fraction(num, den)
    up = [down[i + 1] * row_rad[i + 1] / row_rad[i] for i in range(n - 1)] + [Fraction(0)]
    rows = []
    for i, d in enumerate(m9_diag):
        e = math.lcm(down[i].denominator, up[i].denominator, d.denominator, 2)
        lo, mid, hi = (x.numerator * (e // x.denominator) for x in (down[i], d, up[i]))
        v = [(mid - m * (e // 2)) * x for m, x in zip(mu2, core[i])]
        if i:
            v = [y + lo * x for y, x in zip(v, core[i - 1])]
        if i + 1 < n:
            v = [y + hi * x for y, x in zip(v, core[i + 1])]
        rows.append((e, v))
    return tuple(rows)


def test_integer_build_and_proof_equal_their_fraction_reference():
    # _factors and _recurrence_rows run on integer pairs; the Fraction formulation they
    # replace must give the same (A', C, B) and the same rows (e, v), bit for bit
    for s in REFERENCE_SECTORS:
        A, C, B = _factors(s)
        assert (A, C, B) == _factors_in_fractions(s), s
        assert tuple(_recurrence_rows(s, A, C)) == _recurrence_rows_in_fractions(s, A, C), s
        if s.size > 1:  # 4 A': every coupling stays rational, and the rows are not zero
            A[-1] *= 4
            rows = tuple(_recurrence_rows(s, A, C))
            assert rows == _recurrence_rows_in_fractions(s, A, C) and any(rows[-1][1]), s
            A[-1] *= 2  # 8 A': the coupling into the last row turns irrational in both
            for rows in (_recurrence_rows, _recurrence_rows_in_fractions):
                with pytest.raises(RadicandMismatch, match=rf"row {s.size - 1}\b"):
                    tuple(rows(s, A, C))


@pytest.mark.parametrize("part", [0, 1, 2], ids=["lower", "diag", "upper"])
@pytest.mark.parametrize("nQLJ", [(4, 2, 1, 1), (20, 3, 1, 4), (60, 0, 0, 0)])
def test_the_proof_rejects_a_build_on_a_perturbed_np_recurrence(monkeypatch, nQLJ, part):
    # W is built by the n_p recurrence and proved by M9's lambda recurrence, which
    # reads nothing the build reads: one coefficient off by one must not pass
    s = validate_sector(*nQLJ)
    exact = coeffs.np_recurrence

    def perturbed(sector):
        coefficients = [list(c) for c in exact(sector)]  # a copy: the cached tuples stay exact
        coefficients[part][sector.size // 2] += 1
        return coefficients

    monkeypatch.setattr(coeffs, "np_recurrence", perturbed)
    with pytest.raises(OrthogonalityViolation):
        w_matrix(s)


@pytest.mark.parametrize("row, first_bad", [(0, "0,1"), (3, "2,1")], ids=["first", "last"])
def test_structural_proof_catches_one_doubled_core_entry(row, first_bad):
    # C[row][1] enters residual rows row-1, row and row+1; rows 0 and N-1 = 3 read another
    # row as their missing neighbour, at coupling 0, so the first failure is named exactly
    A, C, B = _factors(S3110)
    C[row][1] *= 2  # no entry of C is zero here
    with pytest.raises(OrthogonalityViolation, match=rf"^residual .*\[{first_bad}\] "):
        _prove_orthogonal(S3110, A, C, B)


def test_structural_proof_catches_a_doubled_row_factor():
    A, C, B = _factors(S3110)
    A[1] *= 2  # the couplings into rows 1 and 2 turn irrational
    with pytest.raises(OrthogonalityViolation, match=r"^residual: .* row 1 "):
        _prove_orthogonal(S3110, A, C, B)


def test_structural_proof_catches_a_doubled_column_radicand():
    A, C, B = _factors(S3110)
    B[1] *= 2  # M9 W = W diag(mu) holds for every column scaling; only the norm sees it
    with pytest.raises(OrthogonalityViolation, match=r"^norm .*\[1,1\]"):
        _prove_orthogonal(S3110, A, C, B)


def test_structural_proof_catches_a_doubled_core_column():
    for p in (2, S3110.size - 1):
        A, C, B = _factors(S3110)
        for row in C:
            row[p] *= 2
        with pytest.raises(OrthogonalityViolation, match=rf"^norm .*\[{p},{p}\]"):
            _prove_orthogonal(S3110, A, C, B)


@pytest.mark.parametrize("i", [0, 4], ids=["first", "last"])
def test_structural_proof_catches_a_perturbed_m9_diagonal(monkeypatch, i):
    # M9[i, i] enters residual row i alone, and C[i][0] is not zero at i = 0 or N-1 = 4
    s = S4211
    diag, coupling_sq = coeffs.m9_tridiagonal(s)
    perturbed = list(diag)
    perturbed[i] += Fraction(1, 10**30)
    monkeypatch.setattr(coeffs, "m9_tridiagonal", lambda _: (tuple(perturbed), coupling_sq))
    with pytest.raises(OrthogonalityViolation, match=rf"^residual .*\[{i},0\] "):
        w_matrix(s)


def test_errors_on_a_tampered_n_101_w_stay_short():
    s = validate_sector(100, 0, 0, 0, 1)
    A, C, B = _factors(s)
    for tamper in ("core", "row", "col"):
        a, c, b = list(A), [list(row) for row in C], list(B)
        if tamper == "core":
            c[50][50] *= 2
        elif tamper == "row":
            a[50] *= 2
        else:
            b[50] *= 2
        with pytest.raises(OrthogonalityViolation) as err:
            _prove_orthogonal(s, a, c, b)
        assert len(str(err.value).encode()) <= 200, tamper
        assert ("[50,50]" if tamper == "col" else "50") in str(err.value), tamper
    W = w_matrix(s)
    row = list(W.row_radicands)
    row[50] *= 2
    with pytest.raises(RadicandMismatch) as err:
        w_recurrence_residual(_with_factors(W, row=row))
    assert len(str(err.value).encode()) <= 200 and "row 50" in str(err.value)
    big = RadicalScalar.sqrt(math.factorial(1000))
    assert len(str(big.radicand)) > 200  # printed in full, this alone would pass the bound
    with pytest.raises(RadicandMismatch) as err:
        big + entries(W)[94][80]
    assert len(str(err.value).encode()) <= 200


def test_to_float_is_bitwise_the_correctly_rounded_square_root():
    # the int division c.num^2 r / c.den^2 is float(Fraction) of the square, bit for bit
    for s in enumerate_sectors(5, 4, 4):
        W, M9 = w_matrix(s), m9_spherical_matrix(s)
        for x in (*(x for row in entries(W) for x in row),
                  *(x for row in radicals(M9) for x in row)):
            mag = math.sqrt(float(x.square()))
            assert x.to_float().hex() == (-mag if x.coeff < 0 else mag).hex(), (s, x)
        for rows, F in ((W.printed, W.to_float()), (M9, matrix_to_float(M9))):
            for (n, d, f), y in zip((x for row in rows for x in row), F.ravel()):
                mag = math.sqrt(float(Fraction(n * n * f, d * d)))
                assert y.hex() == (-mag if n < 0 else mag).hex(), (s, n, d, f)


@pytest.mark.slow
def test_exact_w_at_n_201_is_orthogonal_in_float():
    """Opt-in (pytest -m slow): W^T W = I and M9 W = W diag(mu) in float at (200,0,0,0)."""
    s = validate_sector(200, 0, 0, 0, 1)
    F = w_matrix(s).to_float()
    assert np.abs(F.T @ F - np.eye(s.size)).max() <= 1e-11
    M = matrix_to_float(m9_spherical_matrix(s))
    mu = np.array(m9_twice_eigenvalues(s)) / 2
    assert np.abs(M @ F - F * mu).max() <= 1e-11


@pytest.mark.slow
def test_float_w_at_n_561_is_within_an_ulp_everywhere():
    """Opt-in (pytest -m slow): every float entry of W at (560,0,0,0) against a Decimal root.

    Many entries there are far below 1e-154, so their squares are subnormal
    or 0.0: only a root taken of a scaled quotient keeps them within 1 ulp.
    """
    W = w_matrix(validate_sector(560, 0, 0, 0, 1))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for (n, d, f), y in zip((x for row in W.printed for x in row), W.to_float().ravel()):
            want = math.copysign(float((decimal.Decimal(n * n * f) / (d * d)).sqrt()), n)
            assert abs(y - want) <= math.ulp(want), (n, d, f, y, want)


def test_w_matrix_entries_are_w_coefficient():
    # the whole-matrix build and the one-entry read agree component by component; N = 19
    # adds large radicands, whose roots share big factors gcd(f_a, f_b) in one entry
    for s in [*enumerate_sectors(6, 4, 4), validate_sector(16, 4, 0, 0, 1)]:
        W = w_matrix(s).printed
        for i, lam in enumerate(lambda_range(s)):
            assert W[i] == printed([[w_coefficient(s, lam, n_p) for n_p in range(s.size)]])[0], s


def test_w_coefficient_matches_w_matrix_at_n_61():
    # a lone entry's Horner numerator has no small content to divide out, so
    # w_coefficient keeps it out of the root: trial division on its square
    # would run to its largest prime, past 0.3 s at (8, 8), (12, 49) and (17, 18)
    s = validate_sector(60, 0, 0, 0, 1)
    W, lams = w_matrix(s).printed, list(lambda_range(s))
    for i, n_p in ((0, 0), (8, 8), (12, 49), (17, 18), (45, 17), (60, 59), (59, 60)):
        assert W[i][n_p] == printed([[w_coefficient(s, lams[i], n_p)]])[0][0], (i, n_p)


def clebsch_gordan(a, alpha, b, beta, c, gamma) -> RadicalScalar:
    """C^{c,gamma}_{a,alpha; b,beta} from w_via_cg's factors; zero off the selection rules."""
    a2, al2, b2, be2, c2, g2 = (int(2 * Fraction(v)) for v in (a, alpha, b, beta, c, gamma))
    row, column = _cg_row(a2, b2, c2, g2), _cg_column(a2, al2, b2, be2, g2)
    if row is None or column is None:
        return RadicalScalar.zero()
    (x1, row_part), (ints, column_part) = row, column
    return RadicalScalar(Fraction(*_racah_sum(x1, ints)), Fraction(*row_part) * column_part)


def test_clebsch_gordan_values():
    assert clebsch_gordan("1/2", "1/2", "1/2", "-1/2", 0, 0) == SQRT2_HALF
    assert clebsch_gordan("1/2", "-1/2", "1/2", "1/2", 0, 0) == -SQRT2_HALF
    assert clebsch_gordan(1, 1, "1/2", "1/2", "1/2", "1/2").is_zero
    assert clebsch_gordan("1/2", "1/2", "1/2", "1/2", 1, 1) == 1
    # selection rule: gamma != alpha + beta
    assert clebsch_gordan(1, 0, 1, 0, 1, 1).is_zero
    # triangle violation
    assert clebsch_gordan(1, 1, 1, 1, 3, 2).is_zero
    # 1 x 1 -> 2 stretched
    assert clebsch_gordan(1, 1, 1, 1, 2, 2) == 1
    # 1 x 1 -> 0: C = (-1)^(1-m) / sqrt(3)
    assert clebsch_gordan(1, 1, 1, -1, 0, 0) == RadicalScalar(Fraction(1, 3), 3)
    assert clebsch_gordan(1, 0, 1, 0, 0, 0) == RadicalScalar(Fraction(-1, 3), 3)


def test_w_via_cg_examples():
    # W of S1 by hand is [[1, 1], [1, -1]] / sqrt 2, and W of S0 is [[1]]
    assert w_via_cg(w_matrix(S0)) == []
    W = w_matrix(S1)
    by_hand = ((SQRT2_HALF, SQRT2_HALF), (SQRT2_HALF, -SQRT2_HALF))
    assert w_via_cg(replace(W, printed=printed(by_hand))) == []
    flipped = ((SQRT2_HALF, SQRT2_HALF), (SQRT2_HALF, SQRT2_HALF))
    assert w_via_cg(replace(W, printed=printed(flipped))) == [(1, 1)]
    W22 = w_matrix(S22)
    one_by_one = tuple(
        tuple(w_coefficient(S22, lam, n_p) for n_p in range(S22.size)) for lam in lambda_range(S22)
    )
    assert w_via_cg(replace(W22, printed=printed(one_by_one))) == []


def test_cg_oracle_full_sweep():
    for s in enumerate_sectors(3, 3, 3):
        assert w_via_cg(w_matrix(s)) == [], s


def test_m9_bruteforce_examples():
    mat = m9_matrix_bruteforce(w_matrix(S1))  # (num, den, f) of (num/den) sqrt(f)
    assert mat[0][0] == (0, 1, 1) and mat[0][1] == mat[1][0] == (1, 1, 1)
    mat0 = m9_matrix_bruteforce(w_matrix(S0))
    assert mat0 == (((0, 1, 1),),)
    mat22 = m9_matrix_bruteforce(w_matrix(S22))
    closed = m9_spherical_matrix(S22)
    assert all(mat22[i][j] == closed[i][j] for i in range(2) for j in range(2))


def test_m9_equivalence_small_sweep():
    for s in enumerate_sectors(3, 3, 3):
        brute = m9_matrix_bruteforce(w_matrix(s))
        closed = m9_spherical_matrix(s)
        n = s.size
        assert all(brute[i][j] == closed[i][j] for i in range(n) for j in range(n)), s


def test_w_recurrence_exact_small_sweep():
    for s in enumerate_sectors(3, 3, 3):
        resid = w_recurrence_residual(w_matrix(s))
        assert len(resid) == s.size and all(len(row) == s.size for row in resid), s
        assert all(x.is_zero for row in resid for x in row), s


def test_recurrence_residual_of_a_tampered_core_is_m9_w_minus_w_mu():
    # the reference sums M9 W - W diag(mu) entry by entry in RadicalScalar arithmetic;
    # a nonzero residual carries each row's denominator e into its values
    s, n = S4211, S4211.size
    W = w_matrix(s)
    core = [list(row) for row in W.core]
    core[1][1] *= 2
    w = [[RadicalScalar.sqrt(a) * RadicalScalar.sqrt(b) * c for b, c in zip(W.col_radicands, row)]
         for a, row in zip(W.row_radicands, core)]
    m9, mu = radicals(m9_spherical_matrix(s)), [Fraction(t, 2) for t in m9_twice_eigenvalues(s)]
    want = [[sum((m9[i][k] * w[k][p] for k in range(n)), -mu[p] * w[i][p]) for p in range(n)]
            for i in range(n)]
    got = w_recurrence_residual(_with_factors(W, core=core))
    assert got == want and sum(not x.is_zero for row in got for x in row) > 1


def test_odd_parity_sector():
    s = validate_sector(1, 1, 0, 1, 1)
    assert lambda_range(s) == [Fraction(1, 2), Fraction(3, 2)]
    W = w_matrix(s)
    assert w_via_cg(W) == []
    assert all(x.is_zero for row in w_recurrence_residual(W) for x in row)


def test_w_float_matches_exact():
    W = w_matrix(S1)
    F = W.to_float()
    assert abs(F[0, 0] - 0.7071067811865476) < 1e-15
    assert abs(F[1, 1] + 0.7071067811865476) < 1e-15


def test_w_float_is_built_once_and_read_only():
    W = w_matrix(S4211)
    F = W.to_float()
    assert W.to_float() is F and not F.flags.writeable
    # each entry within 1 ulp, as before
    assert np.array_equal(F, np.array([[x.to_float() for x in row] for row in entries(W)]))


def _with_factors(W, *, row=None, core=None, col=None):
    """Copy of W with some factors replaced; the printed entries stay."""
    return replace(
        W,
        row_radicands=W.row_radicands if row is None else tuple(row),
        core=W.core if core is None else tuple(map(tuple, core)),
        col_radicands=W.col_radicands if col is None else tuple(col),
    )


def roots(radicands) -> tuple:
    """(s, q, f) of each sqrt(x) = (s/q) sqrt(f), as RadicalScalar.sqrt reduces it."""
    return printed([map(RadicalScalar.sqrt, radicands)])[0]


def test_w_roots_follow_the_radicands():
    W = w_matrix(S4211)  # its roots and recurrence rows are the ones w_matrix's proof computed
    assert W._roots == roots(W.row_radicands + W.col_radicands)
    assert W._recurrence == tuple(_recurrence_rows(S4211, W.row_radicands, W.core))
    assert not any(x for _, v in W._recurrence for x in v)
    row = list(W.row_radicands)
    row[1] *= 2
    assert _with_factors(W, row=row)._roots[1] == roots(row[1:2])[0] != W._roots[1]
    row[1] *= 2  # 4 A: every coupling is rational, so the copy has recurrence rows of its own
    tampered = _with_factors(W, row=row)
    assert tampered._recurrence == tuple(_recurrence_rows(S4211, row, W.core)) != W._recurrence
    core = [list(r) for r in W.core]
    core[1][1] *= 2
    tampered = _with_factors(W, core=core)
    assert tampered._recurrence == tuple(_recurrence_rows(S4211, W.row_radicands, core))
    assert tampered._recurrence != W._recurrence and tampered._roots == W._roots


def _flags_of(W) -> tuple[bool, bool]:
    try:
        recurrence = any(not x.is_zero for row in w_recurrence_residual(W) for x in row)
    except InternalConsistencyError:  # an irrational coupling on the core
        recurrence = True
    closed, brute = m9_spherical_matrix(W.sector), m9_matrix_bruteforce(W)
    n = W.size
    return recurrence, any(brute[i][j] != closed[i][j] for i in range(n) for j in range(n))


def _flags(W) -> tuple[bool, bool]:
    """Whether the recurrence and the equivalence oracle each reject W.

    A copy by dataclasses.replace keeps none of the views w_matrix filled
    in, so the oracles rebuild its roots and recurrence rows from the
    factors; on W they must reach the same verdicts.
    """
    flags = _flags_of(W)
    assert _flags_of(replace(W)) == flags
    return flags


def test_factor_oracles_pass_the_untampered_w():
    W = w_matrix(S4211)
    assert _flags(W) == (False, False) and w_via_cg(W) == []


def test_factor_oracles_catch_a_tampered_core_entry():
    W = w_matrix(S4211)
    core = [list(row) for row in W.core]
    assert core[1][1] != 0  # scaling an exact zero of C would change nothing
    core[1][1] *= 2
    assert _flags(_with_factors(W, core=core)) == (True, True)


def test_factor_oracles_catch_a_tampered_row_radicand():
    W = w_matrix(S4211)
    row = list(W.row_radicands)
    row[1] *= 2
    assert _flags(_with_factors(W, row=row)) == (True, True)
    row[1] *= 2  # 4 A: the coupling is rational again, the residual is not zero
    assert _flags(_with_factors(W, row=row)) == (True, True)


def test_factor_oracles_catch_a_tampered_column_radicand():
    W = w_matrix(S4211)
    assert m9_twice_eigenvalues(W.sector)[0] != 0  # mu_0 != 0, so column 0 enters W diag(mu) W^T
    col = list(W.col_radicands)
    col[0] *= 2
    # M9 W = W diag(mu) holds for every column scaling of W; only the equivalence sees it
    assert _flags(_with_factors(W, col=col)) == (False, True)


def test_cg_oracle_reads_the_printed_entries_only():
    W = w_matrix(S4211)
    rows = entries(W)
    rows[1][1] = rows[1][1] * 2
    assert w_via_cg(replace(W, printed=printed(rows))) == [(1, 1)]
    core = [list(row) for row in W.core]
    core[1][1] *= 2  # the factors are not what the CG form checks
    assert w_via_cg(_with_factors(W, core=core)) == []
