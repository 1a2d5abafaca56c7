"""Closed-form wavefunction factors, Gauss quadrature, and residual oracles.

Everything here is the independent numeric side of the cross-checks: the
explicit bound-state factors (radial-angular and parabolic products of
exponentials, powers, generalized Laguerre and Jacobi polynomials), Gauss
rules built by Golub-Welsch from the LAPACK eigenvalues of the Jacobi
matrix, overlap integrals under the reduced measure r^8 (1-c^2)^3 dr dc
with c = cos(theta), and the residuals of the four separated differential
equations evaluated with analytic derivatives.

Every state is alpha^{9/2} e^{-x/2}, x = alpha r, times a bare factor
whose closed form is written once; psi_spherical and psi_parabolic add
the common part back.  Quadrature never exponentiates the nodes: paired
states carry a total weight exp(-alpha r), which the generalized Laguerre
rule of order 8 absorbs exactly, and the polynomial remainder has integer
powers for every parity-valid sector, so the tensor rules are exact up
to roundoff once the node count covers the polynomial degree.  The bare
factors of a whole basis are evaluated once on the tensor grid, as the
columns of a matrix Phi, and all overlaps of two bases come out as one
Gram matrix Phi_bra^T diag(w) Phi_ket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _backend
from .errors import ConvergenceFailure, DomainError, ValidationError
from .exactscalar import exact_factorial
from .sector import (
    Sector,
    alpha_scale,
    energy,
    lambda_index,
    lambda_range,
    m9_parabolic_eigenvalue,
    np_index,
)


# ----------------------------------------------------------------------
# orthogonal polynomials
# ----------------------------------------------------------------------


def laguerre_gen(k: int, s: float, x):
    """Generalized Laguerre L_k^{(s)}(x) by the three-term recurrence."""
    return _backend.laguerre(k, s, x)


def laguerre_gen_pair(k: int, s: float, x):
    """(value, derivative); d/dx L_k^{(s)} = -L_{k-1}^{(s+1)}."""
    return _backend.laguerre(k, s, x), -_backend.laguerre(k - 1, s + 1, x)


def jacobi_gen(k: int, p: float, q: float, x):
    """Jacobi P_k^{(p,q)}(x) by the three-term recurrence (p, q > -1)."""
    if p <= -1 or q <= -1:
        raise ValidationError(f"jacobi parameters must exceed -1, got ({p}, {q})")
    return _backend.jacobi(k, p, q, x)


def jacobi_gen_pair(k: int, p: float, q: float, x):
    """(value, derivative) via the degree-lowering identity."""
    val = jacobi_gen(k, p, q, x)
    der = 0.5 * (k + p + q + 1) * _backend.jacobi(k - 1, p + 1, q + 1, x)
    return val, der


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


def _orthonormal_last_pair(diag, off, x):
    """Unnormalized top polynomial q_n and derivative at x, via the recurrence."""
    n = diag.shape[0]
    pm = np.zeros_like(x)
    dpm = np.zeros_like(x)
    pc = np.ones_like(x)
    dpc = np.zeros_like(x)
    for k in range(n - 1):
        sub = off[k - 1] if k > 0 else 0.0
        pn = ((x - diag[k]) * pc - sub * pm) / off[k]
        dpn = (pc + (x - diag[k]) * dpc - sub * dpm) / off[k]
        pm, pc = pc, pn
        dpm, dpc = dpc, dpn
    sub = off[n - 2] if n > 1 else 0.0
    q = (x - diag[n - 1]) * pc - sub * pm
    dq = pc + (x - diag[n - 1]) * dpc - sub * dpm
    return q, dq


def _christoffel_weights(diag, off, mu0, x):
    """Gauss weights 1 / sum_k ptilde_k(x)^2 with orthonormal ptilde."""
    n = diag.shape[0]
    pm = np.zeros_like(x)
    pc = np.full_like(x, 1.0 / math.sqrt(mu0))
    S = pc * pc
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # S overflows: w = 0
        for k in range(n - 1):
            sub = off[k - 1] if k > 0 else 0.0
            pn = ((x - diag[k]) * pc - sub * pm) / off[k]
            pm, pc = pc, pn
            S += pc * pc
        w = 1.0 / S
    return np.where(np.isfinite(S), w, 0.0)


MAX_RULE_NODES = 1024  # the largest Gauss rule built: an 8 MB dense Jacobi matrix
OVERLAP_DOUBLINGS = 3  # how often w_overlap_stable doubles its rule


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
    if n_q == 1:
        nodes = np.array([diag[0]])
    else:
        nodes = np.linalg.eigvalsh(_backend._dense(diag, off))
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for _ in range(2):
                q, dq = _orthonormal_last_pair(diag, off, nodes)
                step = q / dq
                nodes = nodes - np.where(np.isfinite(step), step, 0.0)
    rule = QuadratureRule(kind, float(order), nodes, _christoffel_weights(diag, off, mu0, nodes))
    _rule_cache[key] = rule
    return rule


# ----------------------------------------------------------------------
# wavefunction factors
# ----------------------------------------------------------------------


def norm_spherical(s: Sector, lam) -> float:
    """Normalization of the radial-angular factor under r^8 (1-c^2)^3 dr dc."""
    l, _ = lambda_index(s, lam)
    m, h, d = s.m.fraction, s.lam_min.fraction, Fraction(s.J - s.L, 2)
    f = exact_factorial
    rad = Fraction(
        f(m - l) * (2 * l + 7).numerator * f(l - h) * f(l + h + 6),
        (2 * s.n + s.Q + 8) * f(m + l + 7) * f(l - d + 3) * f(l + d + 3),
    )
    return math.sqrt(float(rad))


def norm_parabolic(s: Sector, n_p: int) -> float:
    """Normalization of the parabolic factor under the same reduced measure."""
    n_p = np_index(s, n_p)
    n_v = s.size - 1 - n_p
    f = exact_factorial
    rad = Fraction(
        f(n_p) * f(n_v),
        (2 * s.n + s.Q + 8) * f(n_p + s.J + 3) * f(n_v + s.L + 3),
    )
    return math.sqrt(float(rad))


def _spherical_factor(s: Sector, lam, X, C):
    """Bare radial-angular factor at x = alpha r and c = cos(theta)."""
    l, k = lambda_index(s, lam)
    lamf = float(l)
    n_r = int(s.m.fraction - l)
    return (
        norm_spherical(s, lam)
        * X**lamf
        * laguerre_gen(n_r, 2 * lamf + 7, X)
        * 2.0 ** (-(s.L + s.J + 7) / 2)
        * (1 - C) ** (s.L / 2)
        * (1 + C) ** (s.J / 2)
        * jacobi_gen(k, s.L + 3, s.J + 3, C)
    )


def _parabolic_factor(s: Sector, n_p, U, V):
    """Bare parabolic factor at (U, V) = alpha (u, v) / 2, so U + V = x."""
    n_p = np_index(s, n_p)
    n_v = s.size - 1 - n_p
    return (
        norm_parabolic(s, n_p)
        * 2.0**-3.5
        * U ** (s.J / 2)
        * laguerre_gen(n_p, s.J + 3, U)
        * V ** (s.L / 2)
        * laguerre_gen(n_v, s.L + 3, V)
    )


def psi_spherical(s: Sector, lam, r, c):
    """Radial-angular factor at (r, cos(theta)); normalized, sign of the
    closed form (positive leading Jacobi/Laguerre coefficients)."""
    r = np.asarray(r, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if np.any(r <= 0):
        raise DomainError("psi_spherical needs r > 0")
    if np.any(np.abs(c) > 1):
        raise DomainError("psi_spherical needs |cos(theta)| <= 1")
    alpha = float(alpha_scale(s))
    x = alpha * r
    out = alpha**4.5 * np.exp(-x / 2) * _spherical_factor(s, lam, x, c)
    return out if out.shape else float(out)


def psi_parabolic(s: Sector, n_p: int, u, v):
    """Parabolic factor at (u, v) = (r+z, r-z); normalized."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(u < 0) or np.any(v < 0):
        raise DomainError("psi_parabolic needs u, v >= 0")
    alpha = float(alpha_scale(s))
    U = alpha * u / 2
    V = alpha * v / 2
    out = alpha**4.5 * np.exp(-(U + V) / 2) * _parabolic_factor(s, n_p, U, V)
    return out if out.shape else float(out)


# ----------------------------------------------------------------------
# overlap quadrature under r^8 (1-c^2)^3 dr dc
# ----------------------------------------------------------------------


def _basis_factors(s: Sector, basis: str, X, C) -> np.ndarray:
    """Bare factors of every state of one basis on the (x, c) grid, stacked last."""
    if basis == "spherical":
        cols = [_spherical_factor(s, lam, X, C) for lam in lambda_range(s)]
    elif basis == "parabolic":
        U = X * (1 + C) / 2
        V = X * (1 - C) / 2
        cols = [_parabolic_factor(s, n_p, U, V) for n_p in range(s.size)]
    else:
        raise ValidationError(f"unknown basis {basis!r}")
    return np.stack(cols, axis=-1)


def basis_overlap(s: Sector, bra: str, ket: str, n_q: int = 64) -> np.ndarray:
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
    ten times more to roundoff.  Bit-stable for a fixed node count.
    """
    rx = gauss_rule("laguerre", n_q, order=8.0)
    rc = gauss_rule("legendre", n_q)
    X = rx.nodes[:, None]
    C = rc.nodes[None, :]
    phi_bra = _basis_factors(s, bra, X, C) * rx.weights[:, None, None]
    phi_ket = _basis_factors(s, ket, X, C)
    per_c = phi_bra.transpose(1, 2, 0) @ phi_ket.transpose(1, 0, 2)  # (c, bra, ket)
    return np.tensordot(rc.weights * (1 - rc.nodes**2) ** 3, per_c, axes=1)


def w_overlap_quadrature(s: Sector, n_q: int = 64) -> np.ndarray:
    """Spherical-parabolic overlaps: the quadrature route to the whole of W."""
    return basis_overlap(s, "spherical", "parabolic", n_q)


def check_node_count(n_q: int) -> None:
    """Reject a starting node count whose last doubled rule cannot be built."""
    top = MAX_RULE_NODES >> OVERLAP_DOUBLINGS
    if not 1 <= n_q <= top:
        raise ValidationError(
            f"node count {n_q} must be in 1..{top} ({OVERLAP_DOUBLINGS} doublings)"
        )


def w_overlap_stable(s: Sector, n_q: int = 48, tol: float = 1e-10) -> np.ndarray:
    """Node-doubled W: doubles n_q until successive matrices agree entrywise to tol.

    Raises ConvergenceFailure if they still differ after OVERLAP_DOUBLINGS,
    and ValidationError, before any rule is built, if the last rule would
    exceed MAX_RULE_NODES.
    """
    check_node_count(n_q)
    val = w_overlap_quadrature(s, n_q)
    change = math.inf
    for _ in range(OVERLAP_DOUBLINGS):
        n_q *= 2
        nxt = w_overlap_quadrature(s, n_q)
        change = float(np.abs(nxt - val).max())
        if change < tol:
            return nxt
        val = nxt
    raise ConvergenceFailure(
        f"overlap matrix failed to stabilize to {tol} by n_q = {n_q} for {s}: "
        f"last change {change:.3g}"
    )


# ----------------------------------------------------------------------
# separated-equation residuals (analytic derivatives)
# ----------------------------------------------------------------------


def _exp_poly_derivs(nu: float, k: int, order: float, x):
    """g = x^nu e^{-x/2} L_k^{(order)}(x) and its first two derivatives."""
    P, P1 = laguerre_gen_pair(k, order, x)
    P2 = -laguerre_gen_pair(k - 1, order + 1, x)[1]
    ex = np.exp(-x / 2)
    xn = x**nu
    xnm1 = x ** (nu - 1) if nu != 0 else np.zeros_like(x)
    xnm2 = x ** (nu - 2) if nu not in (0, 1) else np.zeros_like(x)
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


def ode_residuals(s: Sector, which: str, index, points) -> float:
    """Max relative residual of one separated equation on interior points.

    which: "radial" or "angular" (index = lambda), "parabolic_u" or
    "parabolic_v" (index = n_p).  The closed-form factor and its
    analytic derivatives are plugged into the equation; each residual is
    scaled by the largest participating term.
    """
    pts = np.asarray(points, dtype=np.float64).ravel()
    if pts.size == 0:
        raise DomainError("need at least one evaluation point")
    Zf = float(s.Z)
    E = float(energy(s))
    alpha = float(alpha_scale(s))

    if which == "radial":
        l, _ = lambda_index(s, index)
        if np.any(pts <= 0):
            raise DomainError("radial points must satisfy r > 0")
        lamf = float(l)
        x = alpha * pts
        g, g1, g2 = _exp_poly_derivs(lamf, int(s.m.fraction - l), 2 * lamf + 7, x)
        R, R1, R2 = g, alpha * g1, alpha * alpha * g2
        terms = (
            -0.5 * (R2 + 8.0 * R1 / pts),
            (lamf * (lamf + 7) / (2 * pts * pts)) * R,
            -(Zf / pts) * R,
            -E * R,
        )
        return float(_scaled_residual(terms).max())

    if which == "angular":
        l, k = lambda_index(s, index)
        if np.any(np.abs(pts) >= 1):
            raise DomainError("angular points must satisfy |cos(theta)| < 1")
        lamf = float(l)
        c = pts
        st2 = 1 - c * c
        st = np.sqrt(st2)
        p, q = s.L + 3, s.J + 3
        P, P1 = jacobi_gen_pair(k, p, q, c)
        P2 = 0.5 * (k + p + q + 1) * jacobi_gen_pair(k - 1, p + 1, q + 1, c)[1]
        phi = (1 - c) ** (s.L / 2) * (1 + c) ** (s.J / 2)
        psi1 = -(s.L / 2) / (1 - c) + (s.J / 2) / (1 + c)
        psi2 = -(s.L / 2) / (1 - c) ** 2 - (s.J / 2) / (1 + c) ** 2
        u = phi * P
        u1 = phi * (psi1 * P + P1)
        u2 = phi * ((psi1 * psi1 + psi2) * P + 2 * psi1 * P1 + P2)
        # theta derivatives of u(cos(theta))
        ut = -st * u1
        utt = -c * u1 + st2 * u2
        terms = (
            utt,
            7.0 * (c / st) * ut,
            -(s.L * (s.L + 6) / (2 * (1 - c))) * u,
            -(s.J * (s.J + 6) / (2 * (1 + c))) * u,
            lamf * (lamf + 7) * u,
        )
        return float(_scaled_residual(terms).max())

    if which in ("parabolic_u", "parabolic_v"):
        n_p = np_index(s, index)
        if np.any(pts <= 0):
            raise DomainError("parabolic points must be positive")
        sigma = (alpha / 4) * float(m9_parabolic_eigenvalue(s, n_p).fraction)
        if which == "parabolic_u":
            nu, k, order, barrier, sig = s.J / 2, n_p, s.J + 3, s.J * (s.J + 6), -sigma
        else:
            n_v = s.size - 1 - n_p
            nu, k, order, barrier, sig = s.L / 2, n_v, s.L + 3, s.L * (s.L + 6), +sigma
        x = alpha * pts / 2
        g, g1, g2 = _exp_poly_derivs(nu, k, order, x)
        F, F1, F2 = g, (alpha / 2) * g1, (alpha / 2) ** 2 * g2
        terms = (
            pts * F2,
            4.0 * F1,
            -(barrier / (4 * pts)) * F,
            (Zf / 2) * F,
            (E * pts / 2) * F,
            sig * F,
        )
        return float(_scaled_residual(terms).max())

    raise ValidationError(f"unknown equation selector {which!r}")
