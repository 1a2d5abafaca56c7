"""Closed-form coefficient kernels against hand-substituted values."""

from fractions import Fraction

import numpy as np
import pytest

from micz9.coeffs import (
    k_diag,
    k_offdiag,
    k_pencil,
    m9_spherical_matrix,
    m9_tridiagonal,
    m9_twice_eigenvalues,
    matrix_to_float,
)
from micz9.errors import LambdaOutOfRange, ValidationError
from micz9.sector import enumerate_sectors, lambda_range, validate_sector

S1 = validate_sector(1, 0, 0, 0, 1)
S22 = validate_sector(2, 0, 0, 2, 1)


def test_offdiag_examples():
    # squared couplings B^2, one per pair of adjacent lambda: none below the bottom of the ladder
    assert m9_tridiagonal(S1)[1] == (1,)  # sqrt(9) * sqrt(1/9), squared
    assert m9_tridiagonal(S22)[1] == (Fraction(24, 25),)
    assert m9_spherical_matrix(S22)[0][1] == (2, 5, 6)  # B = (2/5) sqrt(6)
    with pytest.raises(LambdaOutOfRange):
        k_offdiag(S1, 2, 1)


def test_k_diag_examples():
    assert k_diag(S1, 1, 5) == -8  # L == J kills the focal term
    assert k_diag(S1, 0, 17) == 0
    assert k_diag(S22, 1, 1) == Fraction(-39, 5)  # 2*8/(4*4*5) - 8
    with pytest.raises(ValidationError):
        k_diag(S1, 1, -1)
    # a focal product that is not a finite rational is named, not a bare ValueError
    with pytest.raises(ValidationError, match="aZ = nan"):
        k_diag(S1, 0, float("nan"))
    with pytest.raises(ValidationError, match="aZ = inf"):
        k_offdiag(S1, 1, float("inf"))


def test_k_offdiag_examples():
    assert k_offdiag(S1, 1, 5) == 1  # (2*5/10) * 1
    assert k_offdiag(S1, 0, 5).is_zero
    assert k_offdiag(S22, 2, 0).is_zero  # spherical limit


def test_m9_matrix_examples():
    # entries are (num, den, f) of (num/den) sqrt(f), zero (0, 1, 1)
    mat = m9_spherical_matrix(S1)
    assert mat[0][0] == mat[1][1] == (0, 1, 1)
    assert mat[0][1] == mat[1][0] == (1, 1, 1)

    mat = m9_spherical_matrix(S22)
    assert mat[0][0] == (-6, 5, 1)
    assert mat[1][1] == (-4, 5, 1)
    assert mat[0][1] == mat[1][0] == (2, 5, 6)  # (2/5) sqrt(6), B at lambda = 2

    mat = m9_spherical_matrix(validate_sector(0, 0, 0, 0, 1))
    assert mat == (((0, 1, 1),),)


def test_m9_eigenvalues_float_oracle():
    # spectrum of the closed-form matrix equals the parabolic eigenvalue set
    for s in enumerate_sectors(3, 3, 3):
        got = np.sort(np.linalg.eigvalsh(matrix_to_float(m9_spherical_matrix(s))))
        want = np.sort([t / 2 for t in m9_twice_eigenvalues(s)])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_m9_22_spectrum_det_trace():
    mat = matrix_to_float(m9_spherical_matrix(S22))
    assert abs(np.linalg.det(mat)) < 1e-14
    assert abs(np.trace(mat) + 2) < 1e-14


def test_offdiag_positive_interior():
    # every coupling strictly inside the ladder is nonzero: the tridiagonals are irreducible
    for s in enumerate_sectors(4, 4, 4):
        coupling_sq = m9_tridiagonal(s)[1]
        assert len(coupling_sq) == s.size - 1
        assert all(b_sq > 0 for b_sq in coupling_sq), s


def _m9_closed_forms(s, lam):
    """The paper's M9 diagonal and B^2 at lambda, written out here on undoubled labels."""
    n, Q, L, J = s.n, s.Q, s.L, s.J
    m, h, d = Fraction(2 * n + Q, 2), Fraction(L + J, 2), Fraction(J - L, 2)
    diag = Fraction(-(J - L) * (L + J + 6) * (2 * n + Q + 8)) / (8 * (lam + 3) * (lam + 4))
    b_sq = ((m - lam + 1) * (m + lam + 7) * (lam - h) * (lam + h + 6) * (lam + 3 - d)
            * (lam + 3 + d) / ((lam + 3) ** 2 * (2 * lam + 7) * (2 * lam + 5)))
    return diag, b_sq


def test_k_pencil_matches_entries():
    # the K(a) entries read from the pencil equal the closed forms, -lambda(lambda+7) -
    # aZ g M9[lambda, lambda] and (aZ g B)^2 with g = 2/(2n+Q+8); B is 0 at the bottom
    for aZ in (Fraction(0), Fraction(7, 3)):
        for s in enumerate_sectors(3, 3, 3):
            g = Fraction(2, 2 * s.n + s.Q + 8)
            for lam in lambda_range(s):
                diag, b_sq = _m9_closed_forms(s, lam)
                assert k_diag(s, lam, aZ) == -lam * (lam + 7) - aZ * g * diag, (s, lam)
                assert k_offdiag(s, lam, aZ).square() == (aZ * g) ** 2 * b_sq, (s, lam)
    # g = 1/6: slopes (6/5)/6 and (4/5)/6, squared coupling (24/25)/36
    pencil = [[Fraction(*x) for x in part] for part in k_pencil(S22)]
    assert pencil == [[-8, -18], [Fraction(1, 5), Fraction(2, 15)], [Fraction(2, 75)]]
