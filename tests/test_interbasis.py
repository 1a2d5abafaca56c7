"""Interbasis matrix W: closed form, CG oracle, recurrence, brute force."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from micz9.coeffs import m9_spherical_matrix, matrix_to_float
from micz9.errors import IndexOutOfRange, InternalConsistencyError, OrthogonalityViolation
from micz9.exactscalar import RadicalScalar
from micz9.interbasis import (
    CGArgs,
    _assert_orthogonal,
    _factors,
    clebsch_gordan,
    m9_matrix_bruteforce,
    w_coefficient,
    w_matrix,
    w_recurrence_residual,
    w_via_cg,
)
from micz9.sector import HalfInt, enumerate_sectors, lambda_range, validate_sector

S0 = validate_sector(0, 0, 0, 0, 1)
S1 = validate_sector(1, 0, 0, 0, 1)
S22 = validate_sector(2, 0, 0, 2, 1)
S4211 = validate_sector(4, 2, 1, 1, 1)  # N = 5, with exact zeros in its core

SQRT2_HALF = RadicalScalar(Fraction(1, 2), 2)


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
    assert w_matrix(S0).entries[0][0] == 1
    W = w_matrix(S1)
    assert W.entries[0][0] == SQRT2_HALF and W.entries[1][1] == -SQRT2_HALF
    # any 1x1 sector is +-1; the leading entry is always positive
    for s in (validate_sector(0, 2, 1, 1, 1), validate_sector(1, 0, 0, 2, 1)):
        assert abs(w_matrix(s).entries[0][0].to_float()) == 1.0


def test_w_first_row_positive():
    # the bottom-ladder row terminates the hypergeometric sum at its first
    # term, so every entry there is strictly positive
    for s in enumerate_sectors(3, 3, 3):
        W = w_matrix(s)
        for n_p in range(s.size):
            assert W.entries[0][n_p].sign() == 1


def test_orthogonality_exact_small_sweep():
    for s in enumerate_sectors(3, 3, 3):
        W = w_matrix(s).entries  # construction proves W^T W = I, hence W W^T = I
        n = len(W)
        for i in range(n):
            row = sum((W[i][k] * W[i][k] for k in range(n)), RadicalScalar.zero())
            assert row == 1


def _factors_of_3110():
    s = validate_sector(3, 1, 1, 0, 1)
    return _factors(s, lambda_range(s), range(s.size))


def test_orthogonality_proof_catches_one_tampered_entry():
    A, R, B = _factors_of_3110()
    R[0][1] = R[0][1] * 2  # the first row is strictly positive
    with pytest.raises(OrthogonalityViolation, match=r"at \(0,1\)"):
        _assert_orthogonal(A, R, B)


def test_orthogonality_proof_catches_a_tampered_radicand():
    A, R, B = _factors_of_3110()
    with pytest.raises(OrthogonalityViolation, match=r"at \(0,0\)"):
        _assert_orthogonal([A[0] * 2, *A[1:]], R, B)
    with pytest.raises(OrthogonalityViolation, match=r"at \(1,1\)"):
        _assert_orthogonal(A, R, [B[0], B[1] * 2, *B[2:]])
    _assert_orthogonal(A, R, B)  # the untampered factors pass


def test_w_matrix_entries_are_w_coefficient():
    # the whole-matrix build and the one-entry read agree component by component
    for s in enumerate_sectors(6, 4, 4):
        W = w_matrix(s).entries
        for i, lam in enumerate(lambda_range(s)):
            for n_p in range(s.size):
                one = w_coefficient(s, lam, n_p)
                assert (W[i][n_p].coeff, W[i][n_p].radicand) == (one.coeff, one.radicand), s


def test_clebsch_gordan_values():
    assert clebsch_gordan(CGArgs.from_values("1/2", "1/2", "1/2", "-1/2", 0, 0)) == SQRT2_HALF
    assert clebsch_gordan(CGArgs.from_values("1/2", "-1/2", "1/2", "1/2", 0, 0)) == -SQRT2_HALF
    assert clebsch_gordan(CGArgs.from_values(1, 1, "1/2", "1/2", "1/2", "1/2")).is_zero
    assert clebsch_gordan(CGArgs.from_values("1/2", "1/2", "1/2", "1/2", 1, 1)) == 1
    # selection rule: gamma != alpha + beta
    assert clebsch_gordan(CGArgs.from_values(1, 0, 1, 0, 1, 1)).is_zero
    # triangle violation
    assert clebsch_gordan(CGArgs.from_values(1, 1, 1, 1, 3, 2)).is_zero
    # 1 x 1 -> 2 stretched
    assert clebsch_gordan(CGArgs.from_values(1, 1, 1, 1, 2, 2)) == 1
    # 1 x 1 -> 0: C = (-1)^(1-m) / sqrt(3)
    assert clebsch_gordan(CGArgs.from_values(1, 1, 1, -1, 0, 0)) == RadicalScalar(
        Fraction(1, 3), 3
    )
    assert clebsch_gordan(CGArgs.from_values(1, 0, 1, 0, 0, 0)) == RadicalScalar(
        Fraction(-1, 3), 3
    )


def test_w_via_cg_examples():
    # W of S1 by hand is [[1, 1], [1, -1]] / sqrt 2, and W of S0 is [[1]]
    assert w_via_cg(w_matrix(S0)) == []
    W = w_matrix(S1)
    by_hand = ((SQRT2_HALF, SQRT2_HALF), (SQRT2_HALF, -SQRT2_HALF))
    assert w_via_cg(replace(W, entries=by_hand)) == []
    flipped = ((SQRT2_HALF, SQRT2_HALF), (SQRT2_HALF, SQRT2_HALF))
    assert w_via_cg(replace(W, entries=flipped)) == [(1, 1)]
    W22 = w_matrix(S22)
    one_by_one = tuple(
        tuple(w_coefficient(S22, lam, n_p) for n_p in range(S22.size)) for lam in lambda_range(S22)
    )
    assert w_via_cg(replace(W22, entries=one_by_one)) == []


def test_cg_oracle_full_sweep():
    for s in enumerate_sectors(3, 3, 3):
        assert w_via_cg(w_matrix(s)) == [], s


def test_m9_bruteforce_examples():
    mat = m9_matrix_bruteforce(w_matrix(S1))
    assert mat[0][0].is_zero and mat[0][1] == 1 and mat[1][0] == 1
    mat0 = m9_matrix_bruteforce(w_matrix(S0))
    assert len(mat0) == 1 and mat0[0][0].is_zero
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


def test_odd_parity_sector():
    s = validate_sector(1, 1, 0, 1, 1)
    assert [l.twice for l in lambda_range(s)] == [1, 3]
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
    assert np.array_equal(F, matrix_to_float(W.entries))  # each entry within 1 ulp, as before


def _with_factors(W, *, row=None, core=None, col=None):
    """Copy of W with some factors replaced; the entries stay."""
    return replace(
        W,
        row_radicands=W.row_radicands if row is None else tuple(row),
        core=W.core if core is None else tuple(map(tuple, core)),
        col_radicands=W.col_radicands if col is None else tuple(col),
    )


def test_w_roots_follow_the_radicands():
    W = w_matrix(S4211)
    assert W.row_roots == tuple(map(RadicalScalar.sqrt, W.row_radicands))
    assert W.col_roots == tuple(map(RadicalScalar.sqrt, W.col_radicands))
    row = list(W.row_radicands)
    row[1] *= 2
    assert _with_factors(W, row=row).row_roots[1] == RadicalScalar.sqrt(row[1])


def _flags(W) -> tuple[bool, bool]:
    """Whether the recurrence and the equivalence oracle each reject W."""
    try:
        recurrence = any(not x.is_zero for row in w_recurrence_residual(W) for x in row)
    except InternalConsistencyError:  # an irrational coupling on the core
        recurrence = True
    closed, brute = m9_spherical_matrix(W.sector), m9_matrix_bruteforce(W)
    n = W.size
    return recurrence, any(brute[i][j] != closed[i][j] for i in range(n) for j in range(n))


def test_factor_oracles_pass_the_untampered_w():
    W = w_matrix(S4211)
    assert _flags(W) == (False, False) and w_via_cg(W) == []


def test_factor_oracles_catch_a_tampered_core_entry():
    W = w_matrix(S4211)
    core = [list(row) for row in W.core]
    assert core[1][1] != 0  # scaling an exact zero of R would change nothing
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
    assert W.sector.m.fraction - W.sector.J != 0  # mu_0 != 0, so column 0 enters W diag(mu) W^T
    col = list(W.col_radicands)
    col[0] *= 2
    # M9 W = W diag(mu) holds for every column scaling of W; only the equivalence sees it
    assert _flags(_with_factors(W, col=col)) == (False, True)


def test_cg_oracle_reads_the_printed_entries_only():
    W = w_matrix(S4211)
    entries = [list(row) for row in W.entries]
    entries[1][1] = entries[1][1] * 2
    assert w_via_cg(replace(W, entries=tuple(map(tuple, entries)))) == [(1, 1)]
    core = [list(row) for row in W.core]
    core[1][1] *= 2  # the factors are not what the CG form checks
    assert w_via_cg(_with_factors(W, core=core)) == []
