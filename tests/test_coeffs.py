"""Closed-form coefficient kernels against hand-substituted values."""

from fractions import Fraction

import numpy as np
import pytest

from micz9.coeffs import (
    k_diag,
    k_offdiag,
    k_pencil,
    m9_eigenvalues,
    m9_offdiag,
    m9_spherical_matrix,
    matrix_to_float,
)
from micz9.errors import LambdaOutOfRange, ValidationError
from micz9.exactscalar import RadicalScalar
from micz9.sector import enumerate_sectors, lambda_range, validate_sector

S1 = validate_sector(1, 0, 0, 0, 1)
S22 = validate_sector(2, 0, 0, 2, 1)


def test_offdiag_examples():
    assert m9_offdiag(S1, 0).is_zero  # bottom of the ladder
    assert m9_offdiag(S1, 1) == 1  # sqrt(9) * sqrt(1/9)
    assert m9_offdiag(S22, 2) == RadicalScalar(Fraction(2, 5), 6)
    with pytest.raises(LambdaOutOfRange):
        m9_offdiag(S1, 2)


def test_k_diag_examples():
    assert k_diag(S1, 1, 5) == -8  # L == J kills the focal term
    assert k_diag(S1, 0, 17) == 0
    assert k_diag(S22, 1, 1) == Fraction(-39, 5)  # 2*8/(4*4*5) - 8
    with pytest.raises(ValidationError):
        k_diag(S1, 1, -1)


def test_k_offdiag_examples():
    assert k_offdiag(S1, 1, 5) == 1  # (2*5/10) * 1
    assert k_offdiag(S1, 0, 5).is_zero
    assert k_offdiag(S22, 2, 0).is_zero  # spherical limit


def test_m9_matrix_examples():
    mat = m9_spherical_matrix(S1)
    assert mat[0][0].is_zero and mat[1][1].is_zero
    assert mat[0][1] == 1 and mat[1][0] == 1

    mat = m9_spherical_matrix(S22)
    assert mat[0][0] == Fraction(-6, 5)
    assert mat[1][1] == Fraction(-4, 5)
    assert mat[0][1] == RadicalScalar(Fraction(2, 5), 6)

    mat = m9_spherical_matrix(validate_sector(0, 0, 0, 0, 1))
    assert len(mat) == 1 and mat[0][0].is_zero


def test_m9_eigenvalues_float_oracle():
    # spectrum of the closed-form matrix equals the parabolic eigenvalue set
    for s in enumerate_sectors(3, 3, 3):
        got = np.sort(np.linalg.eigvalsh(matrix_to_float(m9_spherical_matrix(s))))
        want = np.sort([float(v.fraction) for v in m9_eigenvalues(s)])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_m9_22_spectrum_det_trace():
    mat = matrix_to_float(m9_spherical_matrix(S22))
    assert abs(np.linalg.det(mat)) < 1e-14
    assert abs(np.trace(mat) + 2) < 1e-14


def test_offdiag_positive_interior():
    for s in enumerate_sectors(4, 4, 4):
        lams = lambda_range(s)
        assert m9_offdiag(s, lams[0]).is_zero
        for lam in lams[1:]:
            assert m9_offdiag(s, lam).sign() == 1, (s, lam)


def test_k_pencil_matches_entries():
    # one multiply-add per entry reproduces the closed-form K(a) entries
    aZ = Fraction(7, 3)
    for s in enumerate_sectors(3, 3, 3):
        const, slope, coupling_sq = k_pencil(s)
        lams = lambda_range(s)
        assert [c + aZ * x for c, x in zip(const, slope)] == [k_diag(s, l, aZ) for l in lams]
        assert [aZ * aZ * x for x in coupling_sq] == [
            k_offdiag(s, l, aZ).square() for l in lams[1:]
        ]
    # g = 1/6: slopes (6/5)/6 and (4/5)/6, squared coupling (24/25)/36
    assert k_pencil(S22) == ((-8, -18), (Fraction(1, 5), Fraction(2, 15)), (Fraction(2, 75),))
