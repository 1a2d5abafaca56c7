"""Wavefunctions, Gauss rules, overlap quadrature, and equation residuals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from micz9 import _backend
from micz9.errors import ConvergenceFailure, DomainError, IndexOutOfRange, ValidationError
from micz9.interbasis import w_matrix
from micz9.sector import alpha_scale, enumerate_sectors, lambda_range, validate_sector
from micz9.wavefield import (
    _basis_factors,
    _padded,
    basis_overlap,
    gauss_rule,
    ode_residuals,
    psi_parabolic,
    psi_spherical,
    w_overlap_quadrature,
    w_overlap_stable,
)

S0 = validate_sector(0, 0, 0, 0, 1)
S1 = validate_sector(1, 0, 0, 0, 1)


def test_laguerre_examples():
    # d/dx L_k^{(s)} = -L_{k-1}^{(s+1)}, as the radial and parabolic residuals use it
    h = 1e-6
    der = -_backend.laguerre(2, 3.0, 1.7)[-1]
    lag = _backend.laguerre(3, 2.0, [1.7 + h, 1.7 - h])[-1]
    assert abs(der - (lag[0] - lag[1]) / (2 * h)) < 1e-5


def test_jacobi_examples():
    # d/dx P_k^{(p,q)} = (k+p+q+1)/2 P_{k-1}^{(p+1,q+1)}, as the angular residual uses it
    h = 1e-6
    der = 0.5 * (4 + 3.0 + 5.0 + 1) * _backend.jacobi(3, 4.0, 6.0, -0.2)[-1]
    jac = _backend.jacobi(4, 3.0, 5.0, [-0.2 + h, -0.2 - h])[-1]
    assert abs(der - (jac[0] - jac[1]) / (2 * h)) < 1e-5 * max(1, abs(der))


def test_gauss_rule_classical_values():
    r = gauss_rule("legendre", 2)
    np.testing.assert_allclose(r.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-15)
    np.testing.assert_allclose(r.weights, [1.0, 1.0], rtol=1e-14)
    r = gauss_rule("laguerre", 1, 0.0)
    np.testing.assert_allclose(r.nodes, [1.0])
    np.testing.assert_allclose(r.weights, [1.0])
    with pytest.raises(ValidationError):
        gauss_rule("legendre", 0)
    with pytest.raises(ValidationError):
        gauss_rule("chebyshev", 4)


def test_gauss_exactness_ladder():
    # exact on the whole polynomial degree ladder <= 2 n_q - 1
    r = gauss_rule("legendre", 12)
    for j in range(24):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        got = float(r.weights @ r.nodes**j)
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact)), j
    r = gauss_rule("laguerre", 10, 8.0)
    for j in range(20):
        exact = math.factorial(8 + j)
        got = float(r.weights @ r.nodes**j)
        assert abs(got - exact) <= 1e-13 * exact, j


def test_gauss_highdegree_moment():
    r = gauss_rule("legendre", 64)
    got = float(r.weights @ r.nodes**126)
    assert abs(got - 2 / 127) <= 1e-13 * (2 / 127)


def test_cached_rule_is_read_only():
    # basis_overlap multiplies in place; a cached rule must not be writable through it
    rule = gauss_rule("laguerre", 48, 8.0)
    assert gauss_rule("laguerre", 48, 8.0) is rule
    for part in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            part[0] = 0.0
        with pytest.raises(ValueError):
            part[:, None] *= 2.0


# ----------------------------------------------------------------------
# reference: one state at a time, as the factors were evaluated before the
# per-basis ladders (each recurrence rolled from degree 0 for every state)
# ----------------------------------------------------------------------


def _ref_laguerre(k, s, x):
    pm = np.ones_like(x)
    if k == 0:
        return pm
    pc = 1.0 + s - x
    for j in range(1, k):
        pn = ((2.0 * j + s + 1.0 - x) * pc - (j + s) * pm) / (j + 1.0)
        pm, pc = pc, pn
    return pc


def _ref_jacobi(k, p, q, x):
    pm = np.ones_like(x)
    if k == 0:
        return pm
    pc = (p + 1.0) + (p + q + 2.0) * (x - 1.0) / 2.0
    for j in range(1, k):
        c = 2.0 * j + p + q
        den = 2.0 * (j + 1.0) * (j + 1.0 + p + q) * c
        a1 = (c + 1.0) * (p * p - q * q)
        a2 = c * (c + 1.0) * (c + 2.0)
        a3 = 2.0 * (j + p) * (j + q) * (c + 2.0)
        pn = ((a1 + a2 * x) * pc - a3 * pm) / den
        pm, pc = pc, pn
    return pc


def _ref_spherical_factor(s, lam, X, C):
    l, k = lam.fraction, (lam.twice - s.L - s.J) // 2
    m, h, d = s.m.fraction, s.lam_min.fraction, Fraction(s.J - s.L, 2)
    f = lambda v: math.factorial(int(v))  # noqa: E731
    norm = math.sqrt(float(Fraction(
        f(m - l) * (2 * l + 7).numerator * f(l - h) * f(l + h + 6),
        (2 * s.n + s.Q + 8) * f(m + l + 7) * f(l - d + 3) * f(l + d + 3),
    )))
    lamf = float(l)
    n_r = int(m - l)
    return (
        norm
        * X**lamf
        * _ref_laguerre(n_r, float(2 * lamf + 7), X)
        * 2.0 ** (-(s.L + s.J + 7) / 2)
        * (1 - C) ** (s.L / 2)
        * (1 + C) ** (s.J / 2)
        * _ref_jacobi(k, float(s.L + 3), float(s.J + 3), C)
    )


def _ref_parabolic_factor(s, n_p, U, V):
    n_v = s.size - 1 - n_p
    f = math.factorial
    norm = math.sqrt(float(Fraction(
        f(n_p) * f(n_v), (2 * s.n + s.Q + 8) * f(n_p + s.J + 3) * f(n_v + s.L + 3)
    )))
    return (
        norm
        * 2.0**-3.5
        * U ** (s.J / 2)
        * _ref_laguerre(n_p, float(s.J + 3), U)
        * V ** (s.L / 2)
        * _ref_laguerre(n_v, float(s.L + 3), V)
    )


@pytest.mark.parametrize("n_q", [48, 96])
@pytest.mark.parametrize(
    "nQLJ",
    # L = J = 0, L = 0 < J, J = 0 < L, L and J > 0; half-integer lambda (odd Q) in the last three
    [(2, 0, 0, 0), (8, 0, 0, 0), (2, 0, 0, 2), (2, 0, 2, 0), (3, 2, 1, 1),
     (2, 1, 1, 0), (3, 1, 0, 1), (4, 3, 2, 1)],
)
def test_basis_columns_equal_the_per_state_factors_bitwise(nQLJ, n_q):
    s = validate_sector(*nQLJ, Fraction(2, 5))
    X = gauss_rule("laguerre", n_q, 8.0).nodes[:, None]
    C = gauss_rule("legendre", n_q).nodes[None, :]
    U, V = X * (1 + C) / 2, X * (1 - C) / 2
    sph = np.stack([_ref_spherical_factor(s, lam, X, C) for lam in lambda_range(s)], axis=-1)
    par = np.stack([_ref_parabolic_factor(s, n_p, U, V) for n_p in range(s.size)], axis=-1)
    assert np.array_equal(_basis_factors(s, "spherical", X, C), sph)
    assert np.array_equal(_basis_factors(s, "parabolic", X, C), par)


_LADDER_X = st.lists(st.floats(-40, 40, allow_nan=False), min_size=1, max_size=6)


@given(k=st.integers(0, 24), s=st.integers(0, 40), x=_LADDER_X)
def test_laguerre_ladder_rows_are_the_single_degree_values(k, s, x):
    x = np.array(x)
    ladder = _backend.laguerre(k, s / 2, x)
    assert ladder.shape == (k + 1, x.size)
    for j in range(k + 1):
        assert np.array_equal(ladder[j], _ref_laguerre(j, s / 2, x), equal_nan=True)


@given(k=st.integers(0, 24), p=st.integers(-1, 16), q=st.integers(-1, 16), x=_LADDER_X)
def test_jacobi_ladder_rows_are_the_single_degree_values(k, p, q, x):
    x = np.array(x) / 40
    ladder = _backend.jacobi(k, p / 2, q / 2, x)
    assert ladder.shape == (k + 1, x.size)
    for j in range(k + 1):
        assert np.array_equal(ladder[j], _ref_jacobi(j, p / 2, q / 2, x), equal_nan=True)


def test_negative_degree_is_zero_or_an_empty_ladder():
    x = np.array([0.5, 2.0])
    assert _backend.laguerre(-1, 3.0, x).shape == (0, 2)
    assert _backend.laguerre(-1, 3.0, 0.5).shape == (0,)
    assert _backend.jacobi(-2, 1.0, 2.0, x).shape == (0, 2)
    # padded, degrees -1 and -2 read 0: the radial residual's P' at the top lambda is -0.0
    top = -_padded(_backend.laguerre(-1, 3.0, x))[-1]
    assert np.array_equal(top, [0.0, 0.0]) and np.signbit(top).all()


def test_psi_spherical_norm_and_orthogonality():
    gram = basis_overlap(S1, "spherical", "spherical", 64)
    assert abs(gram[0, 0] - 1) < 1e-10
    assert abs(gram[0, 1]) < 1e-12
    # degenerate sector: constant angular part
    v1 = psi_spherical(S0, 0, 2.0, -0.3)
    v2 = psi_spherical(S0, 0, 2.0, 0.8)
    assert v1 == pytest.approx(v2, rel=1e-15)
    alpha = float(alpha_scale(S0))
    expect = math.sqrt(1 / 288) * alpha**4.5 * math.exp(-alpha) * 2.0**-3.5
    assert psi_spherical(S0, 0, 2.0, 0.1) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(IndexOutOfRange):
        psi_spherical(S1, 2, 1.0, 0.0)
    with pytest.raises(DomainError):
        psi_spherical(S1, 0, -1.0, 0.0)


def test_psi_parabolic_norm_and_orthogonality():
    gram = basis_overlap(S1, "parabolic", "parabolic", 64)
    assert abs(gram[0, 0] - 1) < 1e-10
    assert abs(gram[0, 1]) < 1e-10
    # (0,0,0,0): pure exponential in u+v
    u, v = 1.3, 0.7
    alpha = float(alpha_scale(S0))
    expect = math.sqrt(1 / 288) * 2.0**-3.5 * alpha**4.5 * math.exp(-alpha * (u + v) / 4)
    assert psi_parabolic(S0, 0, u, v) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(DomainError):
        psi_parabolic(S1, 0, -0.1, 1.0)


def test_w_overlap_examples():
    assert abs(w_overlap_quadrature(S0, 48)[0, 0] - 1.0) < 1e-10
    q = w_overlap_quadrature(S1, 64)
    assert abs(q[0, 0] - 0.7071067811865476) < 1e-8
    assert abs(q[1, 1] + 0.7071067811865476) < 1e-8


def test_w_overlap_stable_full_matrix():
    for s in (S1, validate_sector(2, 0, 0, 2, 1), validate_sector(1, 1, 0, 1, 1)):
        q = w_overlap_stable(s)
        assert q.shape == (s.size, s.size), s
        assert np.abs(q - w_matrix(s).to_float()).max() <= 1e-8, s


def test_w_overlap_stable_convergence_failure():
    # successive doublings never agree to within 0, which is a numerical failure
    with pytest.raises(ConvergenceFailure) as exc:
        w_overlap_stable(S1, tol=0.0)
    assert exc.value.exit_code == 3


RPTS = np.array([0.5, 1.0, 2.0, 5.0])
CPTS = np.array([-0.9, 0.0, 0.9])


def test_ode_residual_examples():
    assert ode_residuals(S1, "radial", RPTS)[0] < 1e-10  # lambda = 0
    assert ode_residuals(S0, "parabolic_u", RPTS)[0] < 1e-12  # n_p = 0
    assert ode_residuals(validate_sector(2, 0, 0, 2, 1), "angular", CPTS)[1] < 1e-9  # lambda = 2


def test_ode_residual_sweep():
    for s in enumerate_sectors(3, 3, 3):
        for which, pts in (("radial", RPTS), ("angular", CPTS),
                           ("parabolic_u", RPTS), ("parabolic_v", RPTS)):
            worst = ode_residuals(s, which, pts)
            assert worst.shape == (s.size,), (s, which)  # one per lambda or n_p
            assert worst.max() < 1e-8, (s, which)


def test_ode_residual_domain_checks():
    with pytest.raises(DomainError):
        ode_residuals(S1, "radial", [0.0, 1.0])
    with pytest.raises(DomainError):
        ode_residuals(S1, "angular", [1.0])
    with pytest.raises(ValidationError):
        ode_residuals(S1, "azimuthal", [0.5])
