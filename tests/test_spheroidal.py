"""Spheroidal eigenproblem, continuant route, branch sweeps, and limits."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micz9 import _backend, coeffs
from micz9.errors import (
    BranchMatchAmbiguous,
    DegenerateShift,
    LimitMismatch,
    ValidationError,
)
from micz9.interbasis import w_matrix
from micz9.sector import enumerate_sectors, validate_sector
from micz9.spheroidal import (
    SymTridiagonal,
    build_k_matrix,
    check_parabolic_limit,
    check_spherical_limit,
    separation_constants,
    sign_fix_columns,
    sweep_branches,
    t_by_continuant,
)

S1 = validate_sector(1, 0, 0, 0, 1)
SQRT17 = math.sqrt(17.0)


def test_build_k_matrix_examples():
    mat = build_k_matrix(S1, 5.0)
    np.testing.assert_allclose(mat.diag, [0.0, -8.0])
    np.testing.assert_allclose(mat.offdiag, [-1.0])
    # a = 0: diagonal -lam(lam+7), zero couplings
    s = validate_sector(2, 0, 0, 2, 1)
    mat = build_k_matrix(s, 0.0)
    np.testing.assert_allclose(mat.diag, [-8.0, -18.0])
    np.testing.assert_allclose(mat.offdiag, [0.0])
    mat = build_k_matrix(validate_sector(0, 0, 0, 0, 1), 3.0)
    assert mat.size == 1 and mat.diag[0] == 0.0
    with pytest.raises(ValidationError):
        build_k_matrix(S1, -1.0)
    # a list of focal distances gives the stack, row by row the single-a matrices
    for s in (S1, validate_sector(5, 2, 1, 1, Fraction(7, 3))):
        a = [1e-3, 5.0, 1e4]
        stack = build_k_matrix(s, a)
        assert stack.diag.shape == (3, s.size) and stack.offdiag.shape == (3, s.size - 1)
        for i, ai in enumerate(a):
            one = build_k_matrix(s, ai)
            assert stack.diag[i].tobytes() == one.diag.tobytes()
            assert stack.offdiag[i].tobytes() == one.offdiag.tobytes()
    with pytest.raises(ValidationError):
        build_k_matrix(S1, [[1.0, 2.0]])


def test_k_matrix_exact_trace():
    # trace identity: sum of eigenvalues equals sum of diagonal, exactly
    aZ = Fraction(7, 2)
    for s in enumerate_sectors(3, 3, 3):
        const, slope, _ = coeffs.k_pencil(s)
        diag = [c + aZ * x for c, x in zip(const, slope)]
        spectrum = separation_constants(s, 3.5)
        assert abs(float(sum(diag)) - spectrum.K.sum()) < 1e-11 * max(1.0, abs(float(sum(diag))))


def test_eigen_examples():
    w, V = _backend.tridiag_eigh(np.array([0.0, -8.0]), np.array([-1.0]))
    np.testing.assert_allclose(w, [-4 - SQRT17, -4 + SQRT17], rtol=1e-15)
    w, V = _backend.tridiag_eigh(np.array([2.0, -3.0, 1.0]), np.zeros(2))
    np.testing.assert_allclose(w, [-3.0, 1.0, 2.0])
    w, V = _backend.tridiag_eigh(np.array([4.5]), np.zeros(0))
    assert w[0] == 4.5 and V[0, 0] == 1.0


def test_separation_constants_examples():
    spectrum = separation_constants(S1, 5.0)
    np.testing.assert_allclose(spectrum.K, [-4 - SQRT17, -4 + SQRT17], rtol=1e-14)
    spec0 = separation_constants(validate_sector(0, 0, 0, 0, 1), 2.0)
    assert spec0.K[0] == 0.0 and spec0.T[0, 0] == 1.0
    # a -> 0+: eigenvalues approach the diagonal -lam(lam+7) values
    spectrum = separation_constants(S1, 1e-8)
    np.testing.assert_allclose(spectrum.K, [-8.0, 0.0], atol=1e-15)
    with pytest.raises(ValidationError):
        separation_constants(S1, 0.0)


def test_continuant_pairing():
    # the column (1, 4+sqrt(17)) (normalized) belongs to K = -4-sqrt(17):
    # first recurrence row (A0 - K) T0 = Btilde1 T1 with A0 = 0, Btilde1 = 1
    spectrum = separation_constants(S1, 5.0)
    low = t_by_continuant(spectrum.matrix, float(spectrum.K[0]))
    expect = np.array([1.0, 4 + SQRT17])
    expect /= np.linalg.norm(expect)
    np.testing.assert_allclose(low, expect, rtol=1e-12)
    np.testing.assert_allclose(low, [0.122183, 0.992508], atol=1e-6)
    high = t_by_continuant(spectrum.matrix, float(spectrum.K[1]))
    np.testing.assert_allclose(high, [0.992508, -0.122183], atol=1e-6)


def test_continuant_matches_inverse_iteration():
    cases = [(s, float(a)) for s in enumerate_sectors(3, 3, 3) for a in np.logspace(-2, 3, 4)]
    # strongly graded at small a: the trailing components fall to ~1e-16 and below
    cases += [(validate_sector(n, Q, L, J, 1), 0.01)
              for n, Q, L, J in ((16, 0, 0, 0), (16, 2, 2, 2), (20, 0, 0, 0), (24, 0, 0, 0))]
    for s, a in cases:
        spectrum = separation_constants(s, a)
        for k in range(s.size):
            col = t_by_continuant(spectrum.matrix, float(spectrum.K[k]))
            assert np.abs(col - spectrum.T[:, k]).max() <= 1e-8, (s, a, k)


def test_continuant_trivial_and_degenerate():
    assert t_by_continuant(build_k_matrix(validate_sector(0, 0, 0, 0, 1), 2.0), 0.0)[0] == 1.0
    with pytest.raises(DegenerateShift):
        t_by_continuant(build_k_matrix(S1, 0.0), -8.0)
    for K in (math.inf, math.nan):  # a non-finite eigenvalue
        with pytest.raises(ValidationError):
            t_by_continuant(build_k_matrix(S1, 1.0), K)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 15), seed=st.integers(0, 2**31))
def test_continuant_solves_any_irreducible_tridiagonal(n, seed):
    # not compared with the eigh columns: clustered eigenvalues leave those free to rotate
    rng = np.random.default_rng(seed)
    d = rng.uniform(-10.0, 10.0, n)
    e = rng.choice([-1.0, 1.0], n - 1) * 10.0 ** rng.uniform(-8.0, 1.0, n - 1)
    mat = SymTridiagonal(d, e)
    for K in _backend.tridiag_eigh(d, e)[0]:
        v = t_by_continuant(mat, float(K))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.abs(mat.matvec(v) - K * v).max() <= 1e-12 * mat.norm(), (d, e, K)


def test_sign_convention():
    spectrum = separation_constants(S1, 5.0)
    for k in range(2):
        col = spectrum.T[:, k]
        lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
        assert lead > 0
    V = np.array([[-0.6, 0.8], [-0.8, -0.6]])
    sign_fix_columns(V)
    assert V[0, 0] > 0 and V[0, 1] > 0


def test_sweep_branches_2x2_closed_form():
    grid = np.logspace(-3, 6, 91)
    sw = sweep_branches(S1, grid)
    expect_low = -4 - np.sqrt(16 + grid**2 / 25)
    expect_high = -4 + np.sqrt(16 + grid**2 / 25)
    np.testing.assert_allclose(sw.K[:, 0], expect_low, rtol=1e-12)
    # the float oracle itself cancels near a -> 0 where K ~ a^2/200
    np.testing.assert_allclose(sw.K[:, 1], expect_high, rtol=1e-9, atol=1e-14)
    assert sw.min_overlap > 0.9
    # endpoints: K from ~-8 to ~-a/5 on branch 0, ~0 to +a/5 on branch 1
    assert abs(sw.K[0, 0] + 8) < 1e-4 and abs(sw.K_over_a[-1, 0] + 0.2) < 1e-4
    assert abs(sw.K[0, 1]) < 1e-4 and abs(sw.K_over_a[-1, 1] - 0.2) < 1e-4


def test_sweep_single_state_flat():
    s = validate_sector(1, 0, 0, 2, 1)  # N = 1, L != J
    grid = np.linspace(0.5, 2.0, 5)
    sw = sweep_branches(s, grid)
    diag0 = [build_k_matrix(s, float(a)).diag[0] for a in grid]
    np.testing.assert_allclose(sw.K[:, 0], diag0, rtol=1e-15)


def test_sweep_branches_never_cross():
    for s in enumerate_sectors(3, 3, 3):
        if s.size < 2:
            continue
        sw = sweep_branches(s, np.logspace(-2, 2, 41))
        gaps = np.diff(sw.K, axis=1)
        assert (gaps > 0).all(), s


def test_sweep_matches_pointwise_spectra():
    s = validate_sector(11, 0, 0, 0, Fraction(3, 2))  # N = 12
    grid = np.logspace(-3, 6, 150)
    assert grid.size * s.size**2 > _backend._CHUNK_ELEMENTS  # more than one solver chunk
    sw = sweep_branches(s, grid)
    for ip, a in enumerate(grid):
        K = separation_constants(s, float(a)).K
        assert np.abs(sw.K[ip] - K).max() <= 1e-13 * build_k_matrix(s, float(a)).norm(), a


def test_k_matrix_rejects_non_finite_and_overflow():
    for a in (math.inf, math.nan, 1e300):
        with pytest.raises(ValidationError):
            build_k_matrix(S1, a)
    with pytest.raises(ValidationError):
        sweep_branches(S1, np.array([1.0, 1e300]))


def test_sweep_coarse_grid_rejected():
    with pytest.raises(BranchMatchAmbiguous, match="a = 0.001 and a = 1000000.0"):
        sweep_branches(S1, np.array([1e-3, 1e6]))
    with pytest.raises(ValidationError):
        sweep_branches(S1, np.array([2.0, 1.0]))


def test_spherical_limit_examples():
    rep = check_spherical_limit(separation_constants(S1, 1e-8))
    assert rep.max_value_error <= 1e-12 and rep.max_vector_error <= 1e-6
    np.testing.assert_allclose(rep.raw_gaps, 0.0, atol=1e-14)  # L == J: no O(a) term

    rep = check_spherical_limit(separation_constants(validate_sector(0, 0, 0, 0, 1), 1e-8))
    assert rep.max_value_error == 0.0

    s = validate_sector(2, 0, 0, 2, 1)
    rep = check_spherical_limit(separation_constants(s, 1e-8))
    assert rep.max_value_error <= 1e-12
    # diagonal limit: K ~ -18 + a*2Z*8/(4*4*5) and -8 + a*2Z*8/(4*5*6) shifts
    np.testing.assert_allclose(rep.raw_gaps, [2e-9 * 2 / 3, 2e-9], rtol=1e-4)
    with pytest.raises(LimitMismatch, match=r"worst vector error \S+ at n_k = [01]$"):
        check_spherical_limit(separation_constants(s, 1e-8), tol_vector=1e-30)


def test_parabolic_limit_examples():
    rep = check_parabolic_limit(w_matrix(S1), separation_constants(S1, 1e6))
    assert rep.max_set_error <= 1e-4 and rep.max_column_error <= 1e-4
    # ascending branches pair with ascending parabolic labels
    assert list(rep.branch_np) == [0, 1]
    # K/a -> -1/5 and +1/5
    spectrum = separation_constants(S1, 1e6)
    np.testing.assert_allclose(spectrum.K / 1e6, [-0.2, 0.2], atol=1e-4)
    # branch with K/a -> +1/5 matches W column n_p = 1 = (1,-1)/sqrt(2)
    np.testing.assert_allclose(spectrum.T[:, 1], [2**-0.5, -(2**-0.5)], atol=1e-4)

    s = validate_sector(1, 0, 0, 2, 1)  # N = 1: K/a -> 0 iff n+Q/2-L-2n_k = 0
    rep = check_parabolic_limit(w_matrix(s), separation_constants(s, 1e6))
    assert rep.max_set_error <= 1e-4

    with pytest.raises(LimitMismatch, match=r"worst column error \S+ at n_k = [01]$"):
        check_parabolic_limit(w_matrix(S1), separation_constants(S1, 1e6), tol=1e-30)
    twin = replace(spectrum, K=spectrum.K[[0, 0]])  # both branches match n_p = 0
    with pytest.raises(LimitMismatch, match="n_p = 0 matches 2 branches"):
        check_parabolic_limit(w_matrix(S1), twin)
    with pytest.raises(ValidationError):
        check_parabolic_limit(w_matrix(S1), separation_constants(S1, 100.0))


def test_parabolic_limit_rejects_w_of_another_sector():
    other = validate_sector(1, 0, 0, 0, 2)  # S1 at another charge
    with pytest.raises(ValidationError):
        check_parabolic_limit(w_matrix(other), separation_constants(S1, 1e6))
