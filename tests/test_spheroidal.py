"""Spheroidal eigenproblem, continuant route, branch sweeps, and limits."""

import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micz9 import _backend, cli, coeffs, spheroidal
from micz9.errors import (
    DegenerateShift,
    LimitMismatch,
    ValidationError,
)
from micz9.interbasis import w_matrix
from micz9.sector import (
    alpha_scale,
    energy,
    enumerate_sectors,
    lambda_range,
    ratios,
    validate_sector,
)
from micz9.spheroidal import (
    SymTridiagonal,
    _first_order,
    build_k_matrix,
    check_parabolic_limit,
    check_spherical_limit,
    parabolic_distance,
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
        diag = [Fraction(*c) + aZ * Fraction(*x) for c, x in zip(const, slope)]
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


def test_separation_constants_takes_one_a_or_a_stack():
    s = validate_sector(5, 2, 1, 1, Fraction(7, 3))
    a = [1e-3, 5.0, 1e4]
    stack = separation_constants(s, a)
    n = s.size
    assert stack.a.tolist() == a and stack.K.shape == (3, n) and stack.T.shape == (3, n, n)
    assert stack.matrix.diag.shape == (3, n) and stack.matrix.offdiag.shape == (3, n - 1)
    for i, ai in enumerate(a):
        row = stack[i]
        assert isinstance(row.a, float) and row.a == ai and row.sector == s
        assert row.K.tobytes() == stack.K[i].tobytes() and row.T.tobytes() == stack.T[i].tobytes()
        assert row.matrix.diag.tobytes() == stack.matrix.diag[i].tobytes()
        assert row.matrix.offdiag.tobytes() == stack.matrix.offdiag[i].tobytes()
        one = separation_constants(s, ai)  # a scalar a: a float a and one matrix
        assert isinstance(one.a, float) and one.a == ai
        assert one.K.shape == (n,) and one.T.shape == (n, n) and one.matrix.diag.shape == (n,)
        assert np.abs(one.K - row.K).max() <= 1e-13 * one.matrix.norm()
    part = stack[1:]
    assert part.a.tolist() == a[1:] and part.K.shape == (2, n) and part.T.shape == (2, n, n)
    assert part.matrix.diag.tobytes() == stack.matrix.diag[1:].tobytes()
    with pytest.raises(ValidationError, match="only a stack"):
        separation_constants(s, 5.0)[0]
    for bad, message in (
        ([], "non-empty 1-d list"), ([[1.0, 2.0]], "non-empty 1-d list"),
        ([1.0, 0.0], "aZ = 0.0 must be positive"), (-1.0, "aZ = -1.0 must be positive"),
        ([1.0, math.nan], "aZ = nan must be positive"), ([math.inf], "aZ = inf must be finite"),
    ):
        with pytest.raises(ValidationError, match=message):
            separation_constants(s, bad)


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
    one = t_by_continuant(build_k_matrix(validate_sector(0, 0, 0, 0, 1), [1.0, 2.0]), [[0.0]] * 2)
    assert one.shape == (2, 1, 1) and (one == 1.0).all()
    empty = SymTridiagonal(np.zeros((0, 3)), np.zeros((0, 2)))  # no matrices, or no eigenvalues
    assert t_by_continuant(empty, np.zeros((0, 2))).shape == (0, 3, 2)
    assert t_by_continuant(build_k_matrix(S1, [1.0, 2.0]), np.zeros((2, 0))).shape == (2, 2, 0)
    with pytest.raises(DegenerateShift, match="position 0 of the tridiagonal$"):
        t_by_continuant(build_k_matrix(S1, 0.0), -8.0)
    for K in (math.inf, math.nan):  # a non-finite eigenvalue
        with pytest.raises(ValidationError):
            t_by_continuant(build_k_matrix(S1, 1.0), K)
    # a stack names the first bad entry: the matrix and position, the K, the column's K
    s = validate_sector(3, 0, 0, 0, 1)  # N = 4
    stack = build_k_matrix(s, [1.0, 0.0, 0.0])
    with pytest.raises(DegenerateShift, match="position 0 of tridiagonal 1$"):
        t_by_continuant(stack, np.zeros((3, 2)))
    K = np.zeros((3, 2))
    K[1, 1], K[2, 0] = -math.inf, math.nan
    with pytest.raises(ValidationError, match="K = -inf must"):
        t_by_continuant(build_k_matrix(s, [1.0, 2.0, 3.0]), K)
    with pytest.raises(ValidationError, match=r"eigenvalues \(3,\) do not fit"):
        t_by_continuant(stack, np.zeros(3))
    blowup = SymTridiagonal(np.array([[0.0, 1.0, 0.0]] * 2), np.array([[1.0, 1.0], [1e-300, 1e300]]))
    with pytest.raises(DegenerateShift, match="non-finite continuant column at K = 0.25$"):
        t_by_continuant(blowup, [[0.5, 0.0], [0.25, 0.0]])
    with pytest.raises(DegenerateShift, match="non-finite continuant column at K = 0.0$"):
        t_by_continuant(SymTridiagonal(blowup.diag[1], blowup.offdiag[1]), 0.0)


def _ref_pivot_ratios(shifted, off2, pivmin):
    out = []
    for i, x in enumerate(shifted):
        piv = x - off2[i - 1] / out[-1] if i else x
        out.append(-pivmin if abs(piv) < pivmin else piv)
    return out


def _ref_continuant(d, e, K):
    """One column, one Python-float step at a time: the twisted recurrence of t_by_continuant."""
    n = len(d)
    if n == 1:
        return np.ones(1)
    e = e.tolist()
    shifted = (d - K).tolist()
    off2 = [x * x for x in e]
    pivmin = sys.float_info.min * max(1.0, max(off2))
    lead = _ref_pivot_ratios(shifted, off2, pivmin)
    trail = _ref_pivot_ratios(shifted[::-1], off2[::-1], pivmin)[::-1]
    r = min(range(n), key=lambda i: abs(lead[i] + trail[i] - shifted[i]))
    v = [0.0] * n
    v[r] = 1.0
    for i in range(r - 1, -1, -1):
        v[i] = -e[i] * v[i + 1] / lead[i]
    for i in range(r + 1, n):
        v[i] = -e[i - 1] * v[i - 1] / trail[i]
    col = np.array(v)
    with np.errstate(over="ignore"):  # a norm that overflows is refused, like a non-finite entry
        norm = np.linalg.norm(col)
    if not np.isfinite(col).all() or not math.isfinite(norm):
        raise DegenerateShift(f"non-finite continuant column at K = {K}")
    col /= norm
    return sign_fix_columns(col.reshape(-1, 1)).ravel()


# graded couplings, and tiny ones whose squares underflow (with integer diagonals, the
# eigenvalues then hit the diagonal exactly and the pivots fall to the safe minimum)
_DECADES = st.sampled_from([(-8.0, 1.0), (-40.0, 0.0), (-170.0, -150.0), (-320.0, -300.0)])


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 4), n=st.integers(1, 12), decades=_DECADES, integer_diag=st.booleans(),
       seed=st.integers(0, 2**31))
def test_batched_continuant_is_the_one_column_recurrence(p, n, decades, integer_diag, seed):
    rng = np.random.default_rng(seed)
    d = rng.integers(-3, 4, (p, n)).astype(float) if integer_diag else rng.uniform(-10, 10, (p, n))
    e = rng.choice([-1.0, 1.0], (p, n - 1)) * 10.0 ** rng.uniform(*decades, (p, n - 1))
    K = _backend.tridiag_eigh(d, e)[0]
    try:
        ref = [[_ref_continuant(d[i], e[i], k) for k in K[i].tolist()] for i in range(p)]
    except DegenerateShift as exc:  # the batch names the same first column
        with pytest.raises(DegenerateShift, match=re.escape(str(exc))):
            t_by_continuant(SymTridiagonal(d, e), K)
        return
    cols = t_by_continuant(SymTridiagonal(d, e), K)
    assert cols.shape == (p, n, n)
    for i in range(p):
        for k in range(n):
            assert np.array_equal(cols[i, :, k], ref[i][k]), (i, k)
        one = t_by_continuant(SymTridiagonal(d[i], e[i]), K[i])  # one matrix, all its K
        assert np.array_equal(one, cols[i])


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


def test_stacked_matvec_and_norm_read_each_matrix():
    s = validate_sector(5, 2, 1, 1, Fraction(7, 3))
    a = [1e-3, 5.0, 1e4]
    stack = build_k_matrix(s, a)
    V = np.random.default_rng(3).standard_normal((3, s.size, 2))
    TV, norms = stack.matvec(V), stack.norm()
    assert TV.shape == V.shape and norms.shape == (3,)
    assert stack.matvec(V[..., 0]).tobytes() == TV[..., 0].tobytes()  # vectors (P, N)
    for i, ai in enumerate(a):
        one = build_k_matrix(s, ai)
        assert norms[i] == one.norm() and isinstance(one.norm(), float)
        assert one.matvec(V[i]).tobytes() == TV[i].tobytes()
        assert one.matvec(V[i, :, 1]).tobytes() == np.ascontiguousarray(TV[i, :, 1]).tobytes()
        dense = np.diag(one.diag) + np.diag(one.offdiag, 1) + np.diag(one.offdiag, -1)
        np.testing.assert_allclose(norms[i], np.abs(dense).sum(axis=1).max(), rtol=1e-15)
        np.testing.assert_allclose(TV[i], dense @ V[i], rtol=1e-14, atol=1e-14 * norms[i])


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
    K, min_overlap = sweep_branches(S1, grid)
    expect_low = -4 - np.sqrt(16 + grid**2 / 25)
    expect_high = -4 + np.sqrt(16 + grid**2 / 25)
    np.testing.assert_allclose(K[:, 0], expect_low, rtol=1e-12)
    # the float oracle itself cancels near a -> 0 where K ~ a^2/200
    np.testing.assert_allclose(K[:, 1], expect_high, rtol=1e-9, atol=1e-14)
    assert min_overlap > 0.9
    # endpoints: K from ~-8 to ~-a/5 on branch 0, ~0 to +a/5 on branch 1
    assert abs(K[0, 0] + 8) < 1e-4 and abs(K[-1, 0] / grid[-1] + 0.2) < 1e-4
    assert abs(K[0, 1]) < 1e-4 and abs(K[-1, 1] / grid[-1] - 0.2) < 1e-4


def test_sweep_single_state_flat():
    s = validate_sector(1, 0, 0, 2, 1)  # N = 1, L != J
    grid = np.linspace(0.5, 2.0, 5)
    K = sweep_branches(s, grid)[0]
    diag0 = [build_k_matrix(s, float(a)).diag[0] for a in grid]
    np.testing.assert_allclose(K[:, 0], diag0, rtol=1e-15)


def test_sweep_branches_never_cross():
    for s in enumerate_sectors(3, 3, 3):
        if s.size < 2:
            continue
        gaps = np.diff(sweep_branches(s, np.logspace(-2, 2, 41))[0], axis=1)
        assert (gaps > 0).all(), s


def test_sweep_matches_pointwise_spectra():
    s = validate_sector(11, 0, 0, 0, Fraction(3, 2))  # N = 12
    grid = np.logspace(-3, 6, 150)
    assert grid.size * s.size**2 > _backend._CHUNK_ELEMENTS  # more than one solver chunk
    swept = sweep_branches(s, grid)[0]
    # solved without the sign convention, the same stack gives the same K bit for bit
    assert swept.tobytes() == separation_constants(s, grid).K.tobytes()
    for ip, a in enumerate(grid):
        K = separation_constants(s, float(a)).K
        assert np.abs(swept[ip] - K).max() <= 1e-13 * build_k_matrix(s, float(a)).norm(), a


def test_k_matrix_rejects_non_finite_and_overflow():
    for a in (math.inf, math.nan, 1e300):
        with pytest.raises(ValidationError):
            build_k_matrix(S1, a)
    with pytest.raises(ValidationError):
        sweep_branches(S1, np.array([1.0, 1e300]))
    # the pencil is per unit aZ, so a charge whose Z^2 B^2 would overflow reads none of it
    s = validate_sector(1, 0, 0, 0, 10**200)
    assert separation_constants(s, 1.0).K.tobytes() == separation_constants(S1, 1.0).K.tobytes()


def test_sweep_coarse_grid_reports_its_overlap():
    # a grid too coarse to follow the eigenvectors still labels each K by ascending order
    grid = np.array([1e-3, 1e6])
    K, min_overlap = sweep_branches(S1, grid)
    assert min_overlap < 0.9
    assert K.tobytes() == separation_constants(S1, grid).K.tobytes()
    with pytest.raises(ValidationError):
        sweep_branches(S1, np.array([2.0, 1.0]))
    with pytest.raises(ValidationError, match="a_grid must be a 1-d array"):
        sweep_branches(S1, np.array([[1.0, 2.0], [3.0, 4.0]]))


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


@pytest.mark.parametrize("nQLJ, Z", [((1, 0, 0, 0), 1), ((4, 2, 1, 1), Fraction(2, 5)),
                                     ((12, 0, 2, 2), 1), ((20, 0, 0, 0), 1000)])
def test_parabolic_distance_keeps_the_first_order_terms_load_bearing(nQLJ, Z):
    # at a fixed aZ = 1e8 both first-order terms were below the tol for N < 64, so a check
    # without them passed too; at this distance each is larger than the tol, and the remainder
    # of the check stays near (10 tol)^2; the distance is an aZ, the same at every charge
    s = validate_sector(*nQLJ, Z)
    W = w_matrix(s)
    aZ = parabolic_distance(W)
    assert aZ >= 1e4 and aZ == parabolic_distance(w_matrix(validate_sector(*nQLJ)))
    spectrum = separation_constants(s, aZ)
    rep = check_parabolic_limit(W, spectrum)
    assert rep.max_set_error <= 1e-5 and rep.max_column_error <= 1e-5
    w = W.to_float()
    mu = [Fraction(t, 2) for t in coeffs.m9_twice_eigenvalues(s)]
    lead = [-float(alpha_scale(s) / s.Z / 2 * m) for m in mu]  # K/(aZ) to zeroth order
    set_zeroth = np.abs(np.sort(spectrum.K / aZ) - np.sort(lead)).max()
    column_zeroth = np.abs(spectrum.T - w[:, rep.branch_np]).max()
    assert set_zeroth > 1e-4 and column_zeroth > 1e-4, (set_zeroth, column_zeroth)


def test_the_first_order_frame_reads_g_from_its_closed_form():
    # G = W^T Lambda W in floats from the exact coeffs.np_recurrence, and the first-order
    # columns from its two off-diagonals, against the dense products they replace
    sectors = [*enumerate_sectors(8, 4, 4), validate_sector(60, 0, 0, 0),
               validate_sector(100, 3, 1, 4)]
    for s in sectors:
        W = w_matrix(s)
        w = W.to_float()
        lam = np.array([float(x * (x + 7)) for x in lambda_range(s)])
        G = w.T @ (lam[:, None] * w)
        tol = 1e-14 * max(1.0, np.abs(G).max())
        lower, diag, upper = coeffs.np_recurrence(s)
        h = Fraction(s.L + s.J, 2)
        off = [-math.sqrt(x * y) for x, y in zip(lower[1:], upper)]
        closed = np.diag([float(d + h * (h + 7)) for d in diag])
        closed += np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(closed - G).max() <= tol, s
        _, g_diag, shift = _first_order(W)
        assert np.abs(g_diag - np.diag(G)).max() <= tol, s
        alpha = float(alpha_scale(s))
        lead = -alpha / 2 * np.array(coeffs.m9_twice_eigenvalues(s)) / 2
        gaps = lead[:, None] - lead[None, :]  # a (alpha/2) (mu_p - mu_q) at a = 1
        np.fill_diagonal(gaps, np.inf)
        dense = w + w @ (G / gaps)
        assert np.abs(w + shift / alpha - dense).max() <= 1e-14 * np.abs(dense).max(), s


@pytest.mark.parametrize("nQLJ", [(2, 0, 0, 0), (2, 0, 0, 2), (3, 1, 1, 0), (1, 4, 3, 1),
                                  (4, 0, 2, 4)])
@pytest.mark.parametrize("aZ", [1.0, 37.5])
def test_k_depends_on_a_and_z_only_through_their_product(nQLJ, aZ):
    # the kernels take aZ and never read the charge: K at a given aZ is the Z = 1 K bit for bit
    one = validate_sector(*nQLJ, 1)
    K, swept = separation_constants(one, aZ).K, sweep_branches(one, [aZ, 1.01 * aZ])[0]
    for Z in ("1e-400", "1e-300", "2/5", "1e150"):
        s = validate_sector(*nQLJ, Fraction(Z))
        assert separation_constants(s, aZ).K.tobytes() == K.tobytes(), Z
        assert sweep_branches(s, [aZ, 1.01 * aZ])[0].tobytes() == swept.tobytes(), Z


@pytest.mark.parametrize("Z", ["1e-400", "1e-320", "5e-324", "1e-310"])
def test_limit_distances_name_a_charge_at_which_they_are_not_finite(Z, capsys):
    # the limit distances are aZ at every charge, but limits prints them in the user's a, aZ/Z:
    # Z rounds to 0.0 or 1e-8/Z overflows, and the spherical distance, checked first, is named;
    # at 1e-310 1e-8/Z is finite, and only the parabolic aZ/Z, at least 1e4/Z, overflows
    W = w_matrix(validate_sector(0, 2, 0, 0, Fraction(Z)))
    assert parabolic_distance(W) == parabolic_distance(w_matrix(validate_sector(0, 2, 0, 0)))
    which = "parabolic" if Z == "1e-310" else "spherical"
    assert cli.main(["limits", "--n", "0", "--Q", "2", "--L", "0", "--J", "0", "--Z", Z]) == 2
    err = capsys.readouterr().err
    assert err == f"ValidationError: the {which} limit distance at Z = {Z} is not finite\n"


def test_limit_checks_reject_a_stack():
    # a stack's first axis is not the branch axis: mat.diag[::-1] would reverse the stack
    both = separation_constants(S1, [1e-8, 1e6])
    with pytest.raises(ValidationError, match="not a stack"):
        check_spherical_limit(both)
    with pytest.raises(ValidationError, match="not a stack"):
        check_parabolic_limit(w_matrix(S1), both)
    assert check_spherical_limit(both[0]).max_vector_error <= 1e-6
    assert check_parabolic_limit(w_matrix(S1), both[1]).max_column_error <= 1e-4


def test_parabolic_limit_rejects_w_of_another_sector():
    other = validate_sector(1, 1, 0, 1, 1)  # another block of the same size
    with pytest.raises(ValidationError, match="W of sector"):
        check_parabolic_limit(w_matrix(other), separation_constants(S1, 1e6))
    # W does not depend on the charge: S1's W at another charge is S1's W
    check_parabolic_limit(w_matrix(validate_sector(1, 0, 0, 0, 2)), separation_constants(S1, 1e6))


def _outcome(f):
    """f()'s floats as exact hex text (bit for bit), or the class and text of what it raised."""
    try:
        return [x.hex() for x in np.ravel(f()).tolist()]
    except (ValidationError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _pencil_by_fractions(s):
    """The float pencil from exact Fraction entries: float() of each diagonal entry and the
    root of float() of each squared coupling, a normal float in every sector."""
    lam_term, slope, coupling_sq = ([Fraction(*x) for x in part] for part in coeffs.k_pencil(s))
    return np.array([float(x) for x in lam_term + slope]
                    + [-math.sqrt(float(x)) for x in coupling_sq])


def _parabolic_distance_by_fractions(W):
    """parabolic_distance with alpha/Z, the alpha of Z = 1, done as float() of a Fraction."""
    s = W.sector
    correction = float(abs(_first_order(W)[2]).max()) / float(alpha_scale(s) / s.Z)
    return max(correction / (10 * 1e-4), 1e4)


_DESK = [(s.n, s.Q, s.L, s.J) for s in enumerate_sectors()]


# A charge m1 10^e1 / (m2 10^e2) spans 10^-1000 .. 10^1000, inside sector._rational's
# 1,001-digit bound, across both ends of the float range and of its square (the energy
# and the squared couplings).
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_DESK), st.integers(1, 10**6), st.integers(0, 994),
       st.integers(1, 10**6), st.integers(0, 994))
@example((4, 0, 0, 0), 1, 0, 1, 0)
@example((2, 2, 1, 1), 2, 0, 5, 0)
@example((1, 2, 0, 2), 2, 155, 1, 0)  # the energy overflows, Z does not
@example((1, 2, 0, 2), 1, 0, 1, 170)  # the energy underflows, Z does not
@example((3, 1, 1, 0), 17, 308, 1, 0)  # Z itself overflows
@example((3, 1, 1, 0), 1, 0, 7, 322)  # Z is subnormal
@example((3, 1, 1, 0), 1, 0, 1, 330)  # Z underflows to 0
def test_float_constants_are_the_exact_values_rounded_once(nQLJ, m1, e1, m2, e2):
    """Z, E, alpha, the float pencil and alpha/Z: one int division each, float() of a Fraction.

    The couplings are roots, bitwise the root of float() of their square.
    The pencil and the parabolic distance are per unit aZ: the charge does not enter them.
    """
    s = validate_sector(*nQLJ, Fraction(m1 * 10**e1, m2 * 10**e2))
    for pair, exact in zip(ratios(s), (s.Z, energy(s), alpha_scale(s))):
        assert Fraction(*pair) == exact
        assert _outcome(lambda: pair[0] / pair[1]) == _outcome(lambda: float(exact))
    got = np.concatenate(spheroidal._k_pencil(s))  # free of the charge
    assert got.tobytes() == _pencil_by_fractions(s).tobytes()
    W = w_matrix(s)
    assert spheroidal.parabolic_distance(W) == _parabolic_distance_by_fractions(W)
