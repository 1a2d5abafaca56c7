"""Interbasis matrix W: closed form, CG oracle, recurrence, brute force."""

from fractions import Fraction

import pytest

from micz9.coeffs import m9_spherical_matrix
from micz9.errors import IndexOutOfRange, OrthogonalityViolation
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
            assert W.entries[0][n_p] > 0


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
    assert w_via_cg(S1, 0, 0) == SQRT2_HALF
    assert w_via_cg(S0, 0, 0) == 1
    for i, lam in enumerate(lambda_range(S22)):
        for n_p in range(S22.size):
            assert w_via_cg(S22, lam, n_p) == w_coefficient(S22, lam, n_p)


def test_cg_oracle_full_sweep():
    for s in enumerate_sectors(3, 3, 3):
        W = w_matrix(s)
        for i, lam in enumerate(lambda_range(s)):
            for n_p in range(s.size):
                assert w_via_cg(s, lam, n_p) == W.entries[i][n_p], (s, lam, n_p)


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
    for i, lam in enumerate(lambda_range(s)):
        for n_p in range(s.size):
            assert w_via_cg(s, lam, n_p) == W.entries[i][n_p]
    assert all(x.is_zero for row in w_recurrence_residual(W) for x in row)


def test_w_float_matches_exact():
    W = w_matrix(S1)
    F = W.to_float()
    assert abs(F[0, 0] - 0.7071067811865476) < 1e-15
    assert abs(F[1, 1] + 0.7071067811865476) < 1e-15
