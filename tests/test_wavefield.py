"""Wavefunctions, Gauss rules, overlap quadrature, and equation residuals."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from micz9 import _backend, wavefield
from micz9.errors import ConvergenceFailure, DomainError, ValidationError
from micz9.interbasis import w_matrix
from micz9.sector import alpha_scale, energy, enumerate_sectors, lambda_range, validate_sector
from micz9.wavefield import (
    _basis_factors,
    _ladder,
    _laguerre_terms,
    _over_envelope,
    basis_overlap,
    gauss_rule,
    ode_residuals,
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


@pytest.mark.parametrize("n_q, order", [(4.5, 0.0), (4.0, 8.0), ("4", 8.0), (4, math.nan),
                                        (4, math.inf), (4, -math.inf)])
def test_gauss_rule_rejects_a_non_integer_count_or_a_non_finite_order(n_q, order):
    # checked before the cache lookup: 4.5 once built a 5-node rule, nan a LinAlgError
    with pytest.raises(ValidationError):
        gauss_rule("laguerre", n_q, order)


@pytest.mark.parametrize("kind, order, message", [
    ("legendre", 1.0, "legendre rule takes no order parameter"),
    ("laguerre", -1.0, "laguerre order must exceed -1, got -1.0"),
], ids=["legendre", "laguerre"])
def test_gauss_rule_rejects_an_order_outside_its_family(kind, order, message):
    with pytest.raises(ValidationError, match=message):
        gauss_rule(kind, 4, order=order)


def test_basis_overlap_rejects_an_unknown_basis():
    with pytest.raises(ValidationError, match="unknown basis 'cartesian'"):
        basis_overlap(S1, "spherical", "cartesian", 4)


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
    l, k = lam, int(lam - Fraction(s.L + s.J, 2))
    m, h, d = Fraction(2 * s.n + s.Q, 2), Fraction(s.L + s.J, 2), Fraction(s.J - s.L, 2)
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
    # a degree-0 ladder, as at the top lambda of the radial residual: P' and P'' are zero rows
    _, P1, P2 = _ladder(0, (3.0,), x, derivs=True)
    assert P1.shape == P2.shape == (1, 2) and not P1.any() and not P2.any()


@given(k=st.integers(0, 12), p=st.integers(-1, 12), q=st.integers(-1, 12), x=_LADDER_X,
       jacobi=st.booleans())
def test_derivative_ladder_is_the_backend_identity(k, p, q, x, jacobi):
    # values: bitwise the one _backend run; derivatives: each degree from its own _backend call
    poly = _backend.jacobi if jacobi else _backend.laguerre
    params = (p / 2, q / 2) if jacobi else (p / 2,)
    t = np.array(x) / 40 if jacobi else np.array(x)
    assert np.array_equal(_ladder(k, params, t), poly(k, *params, t))
    P, P1, P2 = _ladder(k, params, t, derivs=True)
    assert np.array_equal(P, poly(k, *params, t))
    assert P1.shape == P2.shape == P.shape

    def scale(d, j):  # d/dt F_d^(a) = scale F_{d-1}^(a+1), a = params + j
        return -1.0 if not jacobi else (d + sum(params) + 2 * j + 1) / 2

    for d in range(k + 1):
        one = poly(d - 1, *(a + 1 for a in params), t)
        two = poly(d - 2, *(a + 2 for a in params), t)
        assert np.array_equal(P1[d], scale(d, 0) * one[-1] if d >= 1 else np.zeros_like(t))
        want = scale(d, 0) * (scale(d - 1, 1) * two[-1]) if d >= 2 else np.zeros_like(t)
        assert np.array_equal(P2[d], want)


def _state(s, basis, x, c):
    """The normalized state 0 of a basis at x = alpha r and c = cos(theta)."""
    alpha = float(alpha_scale(s))
    return alpha**4.5 * math.exp(-x / 2) * float(_basis_factors(s, basis, x, c)[0])


def test_psi_spherical_norm_and_orthogonality():
    gram = basis_overlap(S1, "spherical", "spherical", 64)
    assert abs(gram[0, 0] - 1) < 1e-10
    assert abs(gram[0, 1]) < 1e-12
    # degenerate sector: constant angular part
    alpha = float(alpha_scale(S0))
    v1 = _state(S0, "spherical", alpha * 2.0, -0.3)
    v2 = _state(S0, "spherical", alpha * 2.0, 0.8)
    assert v1 == pytest.approx(v2, rel=1e-15)
    expect = math.sqrt(1 / 288) * alpha**4.5 * math.exp(-alpha) * 2.0**-3.5
    assert _state(S0, "spherical", alpha * 2.0, 0.1) == pytest.approx(expect, rel=1e-14)


def test_psi_parabolic_norm_and_orthogonality():
    gram = basis_overlap(S1, "parabolic", "parabolic", 64)
    assert abs(gram[0, 0] - 1) < 1e-10
    assert abs(gram[0, 1]) < 1e-10
    # (0,0,0,0): pure exponential in u+v, at r = (u+v)/2 and cos(theta) = (u-v)/(u+v)
    u, v = 1.3, 0.7
    alpha = float(alpha_scale(S0))
    expect = math.sqrt(1 / 288) * 2.0**-3.5 * alpha**4.5 * math.exp(-alpha * (u + v) / 4)
    got = _state(S0, "parabolic", alpha * (u + v) / 2, (u - v) / (u + v))
    assert got == pytest.approx(expect, rel=1e-14)


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


def _exact_degree_nodes(s):
    """Gauss nodes that integrate a spherical-parabolic product exactly: floor(n+Q/2) + 4."""
    return (2 * s.n + s.Q + 8) // 2


def test_w_overlap_stable_uses_the_exact_degree_node_count():
    for s in enumerate_sectors(4, 4, 4):
        n_q = _exact_degree_nodes(s)
        q = w_overlap_stable(s)
        assert np.abs(q - w_overlap_quadrature(s, 2 * n_q)).max() <= 1e-13, s
        # one node fewer misses W: the count is derived, not padded
        short = w_overlap_quadrature(s, n_q - 1)
        assert np.abs(short - w_matrix(s).to_float()).max() > 1e-11, s


def test_spherical_norms_do_not_underflow_at_large_n():
    # the top spherical norms of N = 89 underflow to 0.0 unless num / den is scaled first
    s = validate_sector(88, 0, 0, 0, 1)
    n_q = _exact_degree_nodes(s)
    assert np.abs(w_overlap_stable(s) - w_matrix(s).to_float()).max() <= 1e-8
    for basis in ("spherical", "parabolic"):
        gram = basis_overlap(s, basis, basis, n_q)
        assert np.abs(gram - np.eye(s.size)).max() <= 1e-12, basis


def test_w_overlap_stable_names_an_overlap_that_is_not_finite():
    # at N = 151 the radial factors overflow at n_q = 154: one named error, no warning
    with pytest.raises(ConvergenceFailure, match=r"not finite at n_q = 154 for \(n=150,") as exc:
        w_overlap_stable(validate_sector(150, 0, 0, 0, 1))
    assert len(f"{type(exc.value).__name__}: {exc.value}\n".encode()) <= 200


def test_w_overlap_stable_refuses_a_rule_past_the_largest_before_any_work(monkeypatch):
    # (1023,0,0,0) is a valid sector whose exact-degree rule needs n_q = 1027 nodes: a
    # numerical limit of the quadrature, not a bad input, so no gauss_rule ValidationError
    monkeypatch.setattr(wavefield, "gauss_rule", lambda *a, **k: pytest.fail("rule built"))
    with pytest.raises(ConvergenceFailure, match=rf"n_q = 1027 > {wavefield.MAX_RULE_NODES} "):
        w_overlap_stable(validate_sector(1023, 0, 0, 0, 1))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["radial", "angular", "parabolic_u", "parabolic_v"])
def test_ode_residuals_reject_a_point_that_is_not_finite(which, bad):
    # nan slipped past the <= 0 and |c| >= 1 checks, and inf raised a numpy RuntimeWarning
    with pytest.raises(DomainError, match="finite"):
        ode_residuals(S1, which, [0.5, bad])


def test_radial_residual_holds_at_large_n():
    # x^lambda underflowed from N ~ 150: these read 2.2e-9, 1.4e-7 and 1.0 with the envelope formed
    for nQLJ in ((150, 0, 0, 0), (150, 3, 1, 2), (200, 0, 0, 0)):
        assert ode_residuals(validate_sector(*nQLJ), "radial", [0.5, 1, 2, 5]).max() <= 1e-8, nQLJ


def _ref_radial_terms(s, pts):
    """The radial terms from three ladders per state, top rows read, in the shared form (x -2).

    At Z = 1, where the points are rho = Zr: the energy over Z^2 and alpha over Z.
    """
    E, alpha = float(energy(s) / s.Z**2), float(alpha_scale(s) / s.Z)
    lam = ((s.L + s.J) / 2 + np.arange(s.size))[:, None]
    x = alpha * pts
    tops = [[rows[-1] for rows in _ladder(s.size - 1 - k, (2 * lk + 7,), x, derivs=True)]
            for k, lk in enumerate(lam[:, 0])]
    P, P1, P2 = np.array(tops).transpose(1, 0, 2)
    g, xg1, x2g2 = _over_envelope(lam - x / 2, -lam, x, P, P1, P2)
    return (x2g2, 8.0 * xg1, -lam * (lam + 7) * g, (2.0 * pts) * g, (2 * E * pts * pts) * g,
            (0.0 * pts) * g)


def test_radial_terms_equal_the_per_state_ladders_bitwise():
    large = [validate_sector(150, 3, 1, 2), validate_sector(299, 2, 0, 2)]
    for s in [*enumerate_sectors(3, 3, 3, Fraction(2, 5)), *large]:
        got = _laguerre_terms(s, ("radial",), RPTS)
        for got, want in zip(got, _ref_radial_terms(s, RPTS)):
            assert np.array_equal(got, want), s


_LAGUERRE = ("radial", "parabolic_u", "parabolic_v")


def test_one_run_for_three_equations_gives_each_equations_residuals_bitwise():
    for s in [*enumerate_sectors(3, 3, 3), validate_sector(150, 3, 1, 2)]:
        each = [ode_residuals(s, which, RPTS) for which in _LAGUERRE]
        assert np.array_equal(ode_residuals(s, _LAGUERRE, RPTS), np.concatenate(each)), s
        assert np.array_equal(ode_residuals(s, ["parabolic_v", "radial"], RPTS),
                              np.concatenate(each[::-2])), s
    for bad in [(), ("radial", "angular"), ("radial", "azimuthal")]:
        with pytest.raises(ValidationError):
            ode_residuals(S1, bad, RPTS)


# rows of wavefield._laguerre_rows that multiply a term of the equation
_COEFFICIENT_ROWS = {"c1": 1, "cZ": 2, "cE": 3, "c0": 7, "c_sigma": 8}


@pytest.mark.parametrize("coefficient", list(_COEFFICIENT_ROWS))
@pytest.mark.parametrize("which", _LAGUERRE)
def test_a_wrong_coefficient_fails_its_equation(monkeypatch, which, coefficient):
    # the shared builder keeps every term of each equation: one wrong value shows on every sector
    original = wavefield._laguerre_rows

    def wrong(*args):
        rows = original(*args)
        rows[_COEFFICIENT_ROWS[coefficient]] += 0.5
        return rows

    monkeypatch.setattr(wavefield, "_laguerre_rows", wrong)
    for s in enumerate_sectors(3, 3, 3):
        assert ode_residuals(s, which, RPTS).max() > 1e-8, s


def test_radial_residual_runs_one_ladder_set_at_any_n(monkeypatch):
    calls = []
    original = _backend.laguerre

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(_backend, "laguerre", counted)
    counts = []
    for n in (4, 40, 120):
        calls.clear()
        ode_residuals(validate_sector(n, 0, 0, 0), "radial", RPTS)
        counts.append(len(calls))
    assert counts == [3, 3, 3]  # values, first and second derivatives; it was 3 N


def test_radial_residual_at_n_400_warns_of_no_discarded_degree():
    # the degrees past each state's own overflow from N ~ 365; they are thrown away unseen
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ode_residuals(validate_sector(399, 0, 0, 0), "radial", RPTS).max() <= 1e-8


def test_ode_residuals_past_the_float_range_are_infinite():
    # alpha r ~ 1e59 overflowed P with a RuntimeWarning, and verify read "max residual nan"; the
    # points are Zr, so a large charge no longer takes them there, but points far out still do
    worst = ode_residuals(validate_sector(5, 2, 2, 2), "radial", RPTS * 1e60)
    assert np.isinf(worst[0]) and (worst[1:] <= 1e-8).all()  # the lowest lambda overflows


@pytest.mark.slow
def test_ode_residual_sweep_at_large_n():
    """Opt-in (pytest -m slow): all four equations, N from 150 to 300, Q, L, J <= 4 mixed."""
    families = [(Q, L, J) for Q in range(5) for L in range(5) for J in range(5)
                if (Q - L - J) % 2 == 0]
    rpts, cpts = [0.5, 1.0, 2.0, 5.0], [-0.9, -0.3, 0.0, 0.4, 0.9]
    for i, size in enumerate(range(150, 301, 10)):
        for Q, L, J in (families[(7 * i) % len(families)], families[(7 * i + 31) % len(families)]):
            s = validate_sector(size - 1 - (Q - L - J) // 2, Q, L, J, 1)
            assert s.size == size
            for which in ("radial", "angular", "parabolic_u", "parabolic_v"):
                worst = ode_residuals(s, which, cpts if which == "angular" else rpts).max()
                assert worst <= 1e-8, (s, which, worst)
