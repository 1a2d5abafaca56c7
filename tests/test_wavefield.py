"""Wavefunctions, Gauss rules, overlap quadrature, and equation residuals."""

import math

import numpy as np
import pytest

from micz9.errors import ConvergenceFailure, DomainError, IndexOutOfRange, ValidationError
from micz9.interbasis import w_matrix
from micz9.sector import HalfInt, alpha_scale, enumerate_sectors, lambda_range, validate_sector
from micz9.wavefield import (
    basis_overlap,
    gauss_rule,
    jacobi_gen,
    jacobi_gen_pair,
    laguerre_gen,
    laguerre_gen_pair,
    norm_parabolic,
    norm_spherical,
    ode_residuals,
    psi_parabolic,
    psi_spherical,
    w_overlap_quadrature,
    w_overlap_stable,
)

S0 = validate_sector(0, 0, 0, 0, 1)
S1 = validate_sector(1, 0, 0, 0, 1)


def test_laguerre_examples():
    assert laguerre_gen(0, 4.0, 2.3) == 1.0
    assert laguerre_gen(1, 2.0, 0.5) == 2.5
    assert laguerre_gen(2, 0.0, 0.0) == 1.0  # binom(k+s, k)
    val, der = laguerre_gen_pair(3, 2.0, 1.7)
    h = 1e-6
    fd = (laguerre_gen(3, 2.0, 1.7 + h) - laguerre_gen(3, 2.0, 1.7 - h)) / (2 * h)
    assert abs(der - fd) < 1e-5


def test_jacobi_examples():
    assert jacobi_gen(0, 1.0, 2.0, 0.5) == 1.0
    assert jacobi_gen(1, 0.0, 0.0, 0.3) == pytest.approx(0.3)
    assert jacobi_gen(1, 4.0, 2.0, 1.0) == pytest.approx(5.0)  # p + 1 at x = 1
    val, der = jacobi_gen_pair(4, 3.0, 5.0, -0.2)
    h = 1e-6
    fd = (jacobi_gen(4, 3.0, 5.0, -0.2 + h) - jacobi_gen(4, 3.0, 5.0, -0.2 - h)) / (2 * h)
    assert abs(der - fd) < 1e-5 * max(1, abs(der))
    with pytest.raises(ValidationError):
        jacobi_gen(2, -1.0, 0.0, 0.5)


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


def test_psi_spherical_norm_and_orthogonality():
    gram = basis_overlap(S1, "spherical", "spherical", 64)
    assert abs(gram[0, 0] - 1) < 1e-10
    assert abs(gram[0, 1]) < 1e-12
    # degenerate sector: constant angular part
    v1 = psi_spherical(S0, 0, 2.0, -0.3)
    v2 = psi_spherical(S0, 0, 2.0, 0.8)
    assert v1 == pytest.approx(v2, rel=1e-15)
    alpha = float(alpha_scale(S0))
    expect = norm_spherical(S0, 0) * alpha**4.5 * math.exp(-alpha) * 2.0**-3.5
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
    expect = norm_parabolic(S0, 0) * 2.0**-3.5 * alpha**4.5 * math.exp(-alpha * (u + v) / 4)
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
    assert ode_residuals(S1, "radial", 0, RPTS) < 1e-10
    assert ode_residuals(S0, "parabolic_u", 0, RPTS) < 1e-12
    assert ode_residuals(validate_sector(2, 0, 0, 2, 1), "angular", 2, CPTS) < 1e-9


def test_ode_residual_sweep():
    for s in enumerate_sectors(3, 3, 3):
        for lam in lambda_range(s):
            assert ode_residuals(s, "radial", lam, RPTS) < 1e-8, (s, lam)
            assert ode_residuals(s, "angular", lam, CPTS) < 1e-8, (s, lam)
        for n_p in range(s.size):
            assert ode_residuals(s, "parabolic_u", n_p, RPTS) < 1e-8, (s, n_p)
            assert ode_residuals(s, "parabolic_v", n_p, RPTS) < 1e-8, (s, n_p)


def test_ode_residual_domain_checks():
    with pytest.raises(DomainError):
        ode_residuals(S1, "radial", 0, [0.0, 1.0])
    with pytest.raises(DomainError):
        ode_residuals(S1, "angular", 0, [1.0])
    with pytest.raises(ValidationError):
        ode_residuals(S1, "azimuthal", 0, [0.5])
