"""Closed-form wavefunction factors, Gauss quadrature, and residual oracles.

Everything here is the independent numeric side of the cross-checks: the
explicit bound-state factors (radial-angular and parabolic products of
exponentials, powers, generalized Laguerre and Jacobi polynomials), Gauss
rules built by Golub-Welsch from the LAPACK eigenvalues of the Jacobi
matrix, overlap integrals under the reduced measure r^8 (1-c^2)^3 dr dc
with c = cos(theta), and the residuals of the four separated differential
equations evaluated with analytic derivatives.

Every state is alpha^{9/2} e^{-x/2}, x = alpha r, times a bare factor
whose closed form is written once, and evaluated per basis as the
columns below.  Quadrature never exponentiates the nodes: paired
states carry a total weight exp(-alpha r), which the generalized Laguerre
rule of order 8 absorbs exactly, and the polynomial remainder has integer
powers for every parity-valid sector.  For a spherical-parabolic pair
that remainder has degree 2m in x and 2m+6 in c (with m = n+Q/2 and the
(1-c^2)^3 of the measure folded into the Legendre weights), so
(2n+Q+8)//2 = floor(m)+4 nodes make both tensor rules exact up to
roundoff; w_overlap_stable uses exactly that count.  The bare
factors of a whole basis are evaluated once on the tensor grid, as the
columns of a matrix Phi, and all overlaps of two bases come out as one
Gram matrix Phi_bra^T diag(w) Phi_ket.

Each basis is evaluated once per sector: one polynomial ladder per family
(a single recurrence run returns every degree), norms from integer
factorials, and each column multiplied in place in the closed form's
order, skipping unit envelopes, so the columns are bitwise the one-state
products.  The separated-equation residuals likewise evaluate every state
of an equation in one pass and return one residual per state; powers and
exponentials stay on the points array alone, so every residual is bitwise
its one-state value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import ConvergenceFailure, DomainError, ValidationError
from .sector import Sector, alpha_scale, energy


# ----------------------------------------------------------------------
# Gauss rules (Golub-Welsch on the Jacobi matrices)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    kind: str  # "legendre" | "laguerre"
    order: float  # weight exponent for laguerre, 0 for legendre
    nodes: np.ndarray
    weights: np.ndarray


_rule_cache: dict = {}


def _recurrence(diag, off, q0, x):
    """q_n, q_n' and q_0^2 + ... + q_{n-1}^2 at x, from q_0 = q0 by the Jacobi recurrence.

    q_{k+1} = ((x - diag_k) q_k - off_{k-1} q_{k-1}) / off_k, and the top q_n
    is left undivided: its zeros are the nodes, and with q0 = 1/sqrt(mu0)
    the q_k are orthonormal, so the sum is the Christoffel sum of the weights.
    """
    n = diag.shape[0]
    pm, dpm, dpc = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    pc, S = np.full_like(x, q0), np.zeros_like(x)
    for k in range(n):
        S += pc * pc
        sub = off[k - 1] if k > 0 else 0.0
        top = off[k] if k < n - 1 else 1.0  # dividing by 1.0 is exact
        pn = ((x - diag[k]) * pc - sub * pm) / top
        dpn = (pc + (x - diag[k]) * dpc - sub * dpm) / top
        pm, pc, dpm, dpc = pc, pn, dpc, dpn
    return pc, dpc, S


MAX_RULE_NODES = 1024  # the largest Gauss rule built: an 8 MB dense Jacobi matrix


def gauss_rule(kind: str, n_q: int, order: float = 0.0) -> QuadratureRule:
    """Gauss rule with n_q nodes: legendre on [-1,1] or laguerre x^order e^-x.

    Golub-Welsch on the symmetric Jacobi matrix of the family, with the
    nodes from LAPACK's dense eigenvalues-only solver; the nodes are then
    Newton-polished against the recurrence's own top polynomial and the
    weights come from the Christoffel sum, which is the eigenvector
    first-component formula evaluated consistently with the polished
    nodes.  Weights whose magnitude underflows double precision come out
    as exact zeros (huge Laguerre rules only).
    """
    if not 1 <= n_q <= MAX_RULE_NODES:
        raise ValidationError(f"n_q = {n_q} must be in 1..{MAX_RULE_NODES}")
    key = (kind, n_q, float(order))
    hit = _rule_cache.get(key)
    if hit is not None:
        return hit
    if kind == "legendre":
        if order != 0.0:
            raise ValidationError("legendre rule takes no order parameter")
        diag = np.zeros(n_q)
        ks = np.arange(1.0, n_q)
        off = ks / np.sqrt(4.0 * ks * ks - 1.0)
        mu0 = 2.0
    elif kind == "laguerre":
        if order <= -1:
            raise ValidationError(f"laguerre order must exceed -1, got {order}")
        idx = np.arange(n_q, dtype=np.float64)
        diag = 2.0 * idx + order + 1.0
        ks = np.arange(1.0, n_q)
        off = np.sqrt(ks * (ks + order))
        mu0 = math.gamma(order + 1.0)
    else:
        raise ValidationError(f"unknown rule kind {kind!r}")
    nodes = np.linalg.eigvalsh(_backend._dense(diag, off)) if n_q > 1 else np.array([diag[0]])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # S overflows: w = 0
        for _ in range(2 if n_q > 1 else 0):
            q, dq, _ = _recurrence(diag, off, 1.0, nodes)
            step = q / dq
            nodes = nodes - np.where(np.isfinite(step), step, 0.0)
        S = _recurrence(diag, off, 1.0 / math.sqrt(mu0), nodes)[2]
        weights = np.where(np.isfinite(S), 1.0 / S, 0.0)
    for part in (nodes, weights):  # the cache hands the same arrays to every caller
        part.setflags(write=False)
    rule = QuadratureRule(kind, float(order), nodes, weights)
    _rule_cache[key] = rule
    return rule


# ----------------------------------------------------------------------
# wavefunction factors
# ----------------------------------------------------------------------


def _spherical_norms(s: Sector) -> list[float]:
    """Normalizations of the radial-angular states, lambda ascending.

    Under r^8 (1-c^2)^3 dr dc.  Every factorial argument is an integer for a
    parity-valid sector, and each norm is the square root of one correctly
    rounded int / int, which is what float(Fraction) gives, taken after a
    scaling by a power of 4 that keeps the quotient from underflowing.
    """
    f = math.factorial
    m2, h2, d2 = 2 * s.n + s.Q, s.L + s.J, s.J - s.L  # twice n+Q/2, (L+J)/2, (J-L)/2
    out = []
    for l2 in range(h2, m2 + 1, 2):
        num = f((m2 - l2) // 2) * (l2 + 7) * f((l2 - h2) // 2) * f((l2 + h2) // 2 + 6)
        den = (m2 + 8) * f((m2 + l2) // 2 + 7) * f((l2 - d2) // 2 + 3) * f((l2 + d2) // 2 + 3)
        # num / den alone underflows from N = 87; the scalings by 4**j and 2**-j are exact
        j = max(0, (den.bit_length() - num.bit_length()) // 2)
        out.append(math.sqrt((num << 2 * j) / den) * 2.0**-j)
    return out


def _parabolic_norms(s: Sector) -> list[float]:
    """Normalizations of the parabolic states, n_p ascending, under the same measure."""
    f = math.factorial
    n_top = s.size - 1
    return [
        math.sqrt(
            f(n_p) * f(n_top - n_p)
            / ((2 * s.n + s.Q + 8) * f(n_p + s.J + 3) * f(n_top - n_p + s.L + 3))
        )
        for n_p in range(s.size)
    ]


def _product_into(out: np.ndarray, head, factors) -> None:
    """out = head * f_1 * f_2 * ..., multiplied left to right in place.

    A None factor is a unit envelope (a zero power), skipped because
    multiplying by 1.0 is exact; the order of the rest is kept, so the
    result is bitwise the closed form's.
    """
    factors = [f for f in factors if f is not None]
    np.multiply(head, factors[0], out=out)
    for f in factors[1:]:
        np.multiply(out, f, out=out)


def _spherical_columns(s: Sector, X, C, ks) -> np.ndarray:
    """Bare radial-angular factors at x = alpha r and c = cos(theta), stacked last.

    ks are ladder positions (lambda = (L+J)/2 + k).  One Jacobi ladder
    serves every state; the Laguerre order 2 lambda + 7 changes with the
    state, so each radial polynomial is its own run on the radial nodes.
    """
    jac = _backend.jacobi(max(ks), s.L + 3, s.J + 3, C)
    env = 2.0 ** (-(s.L + s.J + 7) / 2)
    left = (1 - C) ** (s.L / 2) if s.L else None
    right = (1 + C) ** (s.J / 2) if s.J else None
    norms = _spherical_norms(s)
    out = np.empty(np.broadcast_shapes(np.shape(X), np.shape(C)) + (len(ks),))
    for col, k in enumerate(ks):
        lamf = (s.L + s.J + 2 * k) / 2
        radial = norms[k] * X**lamf if lamf else norms[k]
        radial = radial * _backend.laguerre(s.size - 1 - k, 2 * lamf + 7, X)[-1] * env
        _product_into(out[..., col], radial, (left, right, jac[k]))
    return out


def _parabolic_columns(s: Sector, U, V, n_ps) -> np.ndarray:
    """Bare parabolic factors at (U, V) = alpha (u, v) / 2, so U + V = x, stacked last.

    One Laguerre ladder in U and one in V serve every state.
    """
    n_top = s.size - 1
    lag_u = _backend.laguerre(max(n_ps), s.J + 3, U)
    lag_v = _backend.laguerre(n_top - min(n_ps), s.L + 3, V)
    u_env = U ** (s.J / 2) if s.J else None
    v_env = V ** (s.L / 2) if s.L else None
    norms = _parabolic_norms(s)
    out = np.empty(np.broadcast_shapes(np.shape(U), np.shape(V)) + (len(n_ps),))
    for col, n_p in enumerate(n_ps):
        factors = (u_env, lag_u[n_p], v_env, lag_v[n_top - n_p])
        _product_into(out[..., col], norms[n_p] * 2.0**-3.5, factors)
    return out


# ----------------------------------------------------------------------
# overlap quadrature under r^8 (1-c^2)^3 dr dc
# ----------------------------------------------------------------------


def _basis_factors(s: Sector, basis: str, X, C) -> np.ndarray:
    """Bare factors of every state of one basis on the (x, c) grid, stacked last."""
    states = range(s.size)
    if basis == "spherical":
        return _spherical_columns(s, X, C, states)
    if basis == "parabolic":
        return _parabolic_columns(s, X * (1 + C) / 2, X * (1 - C) / 2, states)
    raise ValidationError(f"unknown basis {basis!r}")


def basis_overlap(s: Sector, bra: str, ket: str, n_q: int) -> np.ndarray:
    """N x N Gram matrix <bra_i|ket_j> over r^8 (1-c^2)^3 dr dc.

    bra and ket name a basis: "spherical" (states by lambda ascending) or
    "parabolic" (by n_p ascending).  The radial rule is generalized
    Laguerre of order 8 in x = alpha*r (the pair's exponential weight,
    absorbed exactly); the angular rule is Legendre with (1-c^2)^3 folded
    into its weights.  With the bare factors of each basis on the n_q x n_q
    tensor grid as the columns of Phi, the result is Phi_bra^T diag(w)
    Phi_ket, w the product weights.  The radial sum runs first at each
    angular node and the angular sum last: the Laguerre weights span
    hundreds of decades, and one flat sum over the whole grid loses up to
    ten times more to roundoff.  Bit-stable for a fixed node count.  Factors
    that overflow (large N, many nodes) give entries that are not finite,
    with no warning.
    """
    rx = gauss_rule("laguerre", n_q, order=8.0)
    rc = gauss_rule("legendre", n_q)
    X = rx.nodes[:, None]
    C = rc.nodes[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        phi_bra = _basis_factors(s, bra, X, C)
        phi_bra *= rx.weights[:, None, None]
        phi_ket = _basis_factors(s, ket, X, C)
        per_c = phi_bra.transpose(1, 2, 0) @ phi_ket.transpose(1, 0, 2)  # (c, bra, ket)
        return np.tensordot(rc.weights * (1 - rc.nodes**2) ** 3, per_c, axes=1)


def w_overlap_quadrature(s: Sector, n_q: int) -> np.ndarray:
    """Spherical-parabolic overlaps: the quadrature route to the whole of W."""
    return basis_overlap(s, "spherical", "parabolic", n_q)


def w_overlap_stable(s: Sector) -> np.ndarray:
    """W by quadrature at the exact-degree node count (2n+Q+8)//2.

    With m = n+Q/2, a spherical-parabolic product is x^8 e^{-x} times a
    polynomial of degree 2m in x, and of degree 2m+6 in c once (1-c^2)^3
    is folded into the Legendre weights.  An n-node Gauss rule is exact to
    degree 2n-1, so floor(m)+4 nodes make both tensor rules exact.  Raises
    ConvergenceFailure if the matrix is not finite (its factors overflow
    at large N).
    """
    n_q = (2 * s.n + s.Q + 8) // 2
    val = w_overlap_quadrature(s, n_q)
    if not np.isfinite(val).all():
        raise ConvergenceFailure(f"overlap matrix is not finite at n_q = {n_q} for {s}")
    return val


# ----------------------------------------------------------------------
# separated-equation residuals (analytic derivatives)
# ----------------------------------------------------------------------


def _powers(nu: float, x):
    """x^nu, x^(nu-1), x^(nu-2), each 0 where its coefficient in g', g'' vanishes."""
    zero = np.zeros_like(x)
    xnm1 = x ** (nu - 1) if nu != 0 else zero
    xnm2 = x ** (nu - 2) if nu not in (0, 1) else zero
    return x**nu, xnm1, xnm2


def _exp_poly_derivs(nu, xn, xnm1, xnm2, ex, P, P1, P2):
    """g = x^nu e^{-x/2} P(x) and its first two derivatives, from P, P', P''."""
    g = xn * ex * P
    g1 = ex * ((nu * xnm1 - xn / 2) * P + xn * P1)
    g2 = ex * (
        (nu * (nu - 1) * xnm2 - nu * xnm1 + xn / 4) * P + (2 * nu * xnm1 - xn) * P1 + xn * P2
    )
    return g, g1, g2


def _scaled_residual(terms) -> np.ndarray:
    total = sum(terms)
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    return np.abs(total) / np.maximum(scale, 1e-300)


def _padded(ladder: np.ndarray) -> np.ndarray:
    """A ladder with two zero rows in front: row d + 2 holds degree d, and degrees -1, -2 are 0."""
    return np.concatenate([np.zeros((2,) + ladder.shape[1:]), ladder])


def _radial_terms(s: Sector, pts, Zf, E, alpha):
    """Radial equation terms of every lambda, one row per state."""
    n_top = s.size - 1
    lams = [(s.L + s.J) / 2 + k for k in range(s.size)]
    x = alpha * pts
    ex = np.exp(-x / 2)
    # P = L_j^{(o)} with o = 2 lambda + 7 and j = n+Q/2 - lambda, P' = -L_{j-1}^{(o+1)} and
    # P'' = L_{j-2}^{(o+2)}; o + 2 is the next lambda's order, so its ladder holds P''
    ladders, P1 = [], []
    for k, lam in enumerate(lams):
        ladders.append(_backend.laguerre(n_top - k, 2 * lam + 7, x))
        P1.append(-_padded(_backend.laguerre(n_top - k - 1, 2 * lam + 8, x))[-1])
    P, P1 = np.array([lad[-1] for lad in ladders]), np.array(P1)
    zero = np.zeros_like(x)
    P2 = np.array([lad[-2] if len(lad) > 1 else zero for lad in ladders[1:]] + [zero])
    xn, xnm1, xnm2 = (np.array(p) for p in zip(*(_powers(lam, x) for lam in lams)))
    lam = np.array(lams)[:, None]
    g, g1, g2 = _exp_poly_derivs(lam, xn, xnm1, xnm2, ex, P, P1, P2)
    R, R1, R2 = g, alpha * g1, alpha * alpha * g2
    return (
        -0.5 * (R2 + 8.0 * R1 / pts),
        (lam * (lam + 7) / (2 * pts * pts)) * R,
        -(Zf / pts) * R,
        -E * R,
    )


def _angular_terms(s: Sector, c):
    """Angular equation terms of every lambda, one row per state."""
    ks = np.arange(s.size)
    p, q = s.L + 3, s.J + 3
    # d/dc P_k^{(p,q)} = (k+p+q+1)/2 P_{k-1}^{(p+1,q+1)}, twice
    n_top = s.size - 1
    lad = [_padded(_backend.jacobi(n_top - j, p + j, q + j, c)) for j in range(3)]
    w1 = (0.5 * (ks + p + q + 1))[:, None]
    w2 = (0.5 * (ks + p + q + 2))[:, None]
    P, P1, P2 = lad[0][ks + 2], w1 * lad[1][ks + 1], w1 * (w2 * lad[2][ks])
    st2 = 1 - c * c
    st = np.sqrt(st2)
    phi = (1 - c) ** (s.L / 2) * (1 + c) ** (s.J / 2)
    psi1 = -(s.L / 2) / (1 - c) + (s.J / 2) / (1 + c)
    psi2 = -(s.L / 2) / (1 - c) ** 2 - (s.J / 2) / (1 + c) ** 2
    u = phi * P
    u1 = phi * (psi1 * P + P1)
    u2 = phi * ((psi1 * psi1 + psi2) * P + 2 * psi1 * P1 + P2)
    # theta derivatives of u(cos(theta))
    ut = -st * u1
    utt = -c * u1 + st2 * u2
    lam = ((s.L + s.J) / 2 + ks)[:, None]
    return (
        utt,
        7.0 * (c / st) * ut,
        -(s.L * (s.L + 6) / (2 * (1 - c))) * u,
        -(s.J * (s.J + 6) / (2 * (1 + c))) * u,
        lam * (lam + 7) * u,
    )


def _parabolic_terms(s: Sector, which: str, pts, Zf, E, alpha):
    """Parabolic u or v equation terms of every n_p, one row per state."""
    n_top = s.size - 1
    n_p = np.arange(s.size)
    sigma = (alpha / 4) * ((2 * s.n + s.Q - 2 * s.J - 4 * n_p) / 2)  # (alpha/4) M9 eigenvalue
    if which == "parabolic_u":
        nu, ks, order, barrier, sig = s.J / 2, n_p, s.J + 3, s.J * (s.J + 6), -sigma
    else:
        nu, ks, order, barrier, sig = s.L / 2, n_top - n_p, s.L + 3, s.L * (s.L + 6), +sigma
    x = alpha * pts / 2
    # d/dx L_k^{(o)} = -L_{k-1}^{(o+1)}, twice
    lad = [_padded(_backend.laguerre(n_top - j, order + j, x)) for j in range(3)]
    P, P1, P2 = lad[0][ks + 2], -lad[1][ks + 1], lad[2][ks]
    g, g1, g2 = _exp_poly_derivs(nu, *_powers(nu, x), np.exp(-x / 2), P, P1, P2)
    F, F1, F2 = g, (alpha / 2) * g1, (alpha / 2) ** 2 * g2
    return (
        pts * F2,
        4.0 * F1,
        -(barrier / (4 * pts)) * F,
        (Zf / 2) * F,
        (E * pts / 2) * F,
        sig[:, None] * F,
    )


def ode_residuals(s: Sector, which: str, points) -> np.ndarray:
    """Max relative residual of one separated equation on interior points, per state.

    which: "radial" or "angular" (one entry per lambda, ascending), or
    "parabolic_u" or "parabolic_v" (one per n_p).  The closed-form factor
    and its analytic derivatives are plugged into the equation; each
    residual is scaled by the largest participating term.  Each power,
    root and exponential is taken on the points array, as for a single
    state, so every entry is bitwise the one-state value; the ladders and
    the rest are shared by all states.
    """
    pts = np.asarray(points, dtype=np.float64).ravel()
    if pts.size == 0:
        raise DomainError("need at least one evaluation point")
    Zf, E, alpha = float(s.Z), float(energy(s)), float(alpha_scale(s))
    if which == "angular":
        if np.any(np.abs(pts) >= 1):
            raise DomainError("angular points must satisfy |cos(theta)| < 1")
        terms = _angular_terms(s, pts)
    elif which == "radial":
        if np.any(pts <= 0):
            raise DomainError("radial points must satisfy r > 0")
        terms = _radial_terms(s, pts, Zf, E, alpha)
    elif which in ("parabolic_u", "parabolic_v"):
        if np.any(pts <= 0):
            raise DomainError("parabolic points must be positive")
        terms = _parabolic_terms(s, which, pts, Zf, E, alpha)
    else:
        raise ValidationError(f"unknown equation selector {which!r}")
    return _scaled_residual(terms).max(axis=-1)
