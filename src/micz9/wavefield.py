"""Closed-form wavefunction factors, Gauss quadrature, and residual oracles.

Everything here is the independent numeric side of the cross-checks: the
explicit bound-state factors (radial-angular and parabolic products of
exponentials, powers, generalized Laguerre and Jacobi polynomials), Gauss
rules built by Golub-Welsch from the LAPACK eigenvalues of the Jacobi
matrix, overlap integrals under the reduced measure r^8 (1-c^2)^3 dr dc
with c = cos(theta), and the residuals of the four separated differential
equations evaluated with analytic derivatives.

Every state is alpha^{9/2} e^{-x/2}, x = alpha r, times a bare factor
whose closed form is written once, and evaluated per basis as the columns
below.  As alpha = 4Z/(2n+Q+8), x is 4 Zr/(2n+Q+8): nothing here reads the
charge, the quadrature runs in x and the residuals at Z = 1, at points Zr.
Quadrature never exponentiates the nodes: paired states carry a total
weight exp(-alpha r), which the generalized Laguerre rule of order 8
absorbs exactly, and the polynomial remainder has integer powers for every
parity-valid sector; w_overlap_stable takes the node count that makes both
tensor rules exact.  The bare factors of a whole basis are evaluated once
on the tensor grid, as the columns of a matrix Phi, and all overlaps of
two bases come out as one Gram matrix Phi_bra^T diag(w) Phi_ket.

Each basis is evaluated once per sector: one polynomial ladder per family
(a single recurrence run returns every degree), norms from integer
factorials, and each column one left-to-right product in the closed
form's order, so the columns are bitwise the one-state products; a zero
power gives 1.0, and multiplying by it is exact.  The separated-equation
residuals read the same ladder kernel with its two derivatives and never
form the envelope: each equation is divided by it, so no power of the
point underflows at large N, and the radial and both parabolic equations
then share one form, evaluated for every state of all three in one
Laguerre pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _backend, coeffs  # numpy loads where used: the CLI imports this for every command
from .errors import ConvergenceFailure, DomainError, ValidationError
from .exactscalar import sqrt_ratio
from .sector import Sector


# ----------------------------------------------------------------------
# Gauss rules (Golub-Welsch on the Jacobi matrices)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


_rule_cache: dict = {}


def _recurrence(diag, off, q0, x):
    """q_n, q_n' and q_0^2 + ... + q_{n-1}^2 at x, from q_0 = q0 by the Jacobi recurrence.

    q_{k+1} = ((x - diag_k) q_k - off_{k-1} q_{k-1}) / off_k, and the top q_n
    is left undivided: its zeros are the nodes, and with q0 = 1/sqrt(mu0)
    the q_k are orthonormal, so the sum is the Christoffel sum of the weights.
    """
    import numpy as np
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
    import numpy as np
    if not isinstance(n_q, (int, np.integer)) or not 1 <= n_q <= MAX_RULE_NODES:
        raise ValidationError(f"n_q = {n_q!r} must be an integer in 1..{MAX_RULE_NODES}")
    if not math.isfinite(order):
        raise ValidationError(f"rule order must be finite, got {order}")
    key = (kind, int(n_q), float(order))
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
    rule = QuadratureRule(nodes, weights)
    _rule_cache[key] = rule
    return rule


# ----------------------------------------------------------------------
# wavefunction factors
# ----------------------------------------------------------------------


def _spherical_norms(s: Sector) -> list[float]:
    """Normalizations of the radial-angular states, lambda ascending.

    Under r^8 (1-c^2)^3 dr dc.  Every factorial argument is an integer for a
    parity-valid sector, and each norm is sqrt_ratio of one exact int / int:
    within 1 ulp, and 0.0 only where the norm itself is below the float range.
    """
    f = math.factorial
    m2, h2, d2 = 2 * s.n + s.Q, s.L + s.J, s.J - s.L  # twice n+Q/2, (L+J)/2, (J-L)/2
    out = []
    for l2 in range(h2, m2 + 1, 2):
        num = f((m2 - l2) // 2) * (l2 + 7) * f((l2 - h2) // 2) * f((l2 + h2) // 2 + 6)
        den = (m2 + 8) * f((m2 + l2) // 2 + 7) * f((l2 - d2) // 2 + 3) * f((l2 + d2) // 2 + 3)
        out.append(sqrt_ratio(num, den))  # num / den alone underflows from N = 87
    return out


def _parabolic_norms(s: Sector) -> list[float]:
    """Normalizations of the parabolic states, n_p ascending, under the same measure."""
    f = math.factorial
    n_top = s.size - 1
    return [
        sqrt_ratio(f(n_p) * f(n_top - n_p),
                   (2 * s.n + s.Q + 8) * f(n_p + s.J + 3) * f(n_top - n_p + s.L + 3))
        for n_p in range(s.size)
    ]


def _ladder(k: int, params: tuple, t, derivs: bool = False):
    """Degrees 0..k at t of L^(p) (params = (p,)) or P^(p,q) (params = (p, q)), stacked first.

    The values are one _backend run; a Laguerre p may be an array of orders
    broadcasting against t.  With derivs, (values, d/dt, d2/dt2)
    come back, each derivative from the ladder one parameter step up by
    d/dt L_d^(p) = -L_{d-1}^(p+1) or d/dt P_d^(p,q) = (d+p+q+1)/2 P_{d-1}^(p+1,q+1).
    """
    import numpy as np
    poly = _backend.laguerre if len(params) == 1 else _backend.jacobi
    rows = poly(k, *params, t)
    if not derivs:
        return rows

    def d_dt(lower, a):  # d/dt F^(a), degree 0 (zero) and up, from F^(a+1) one degree lower
        d = np.arange(1.0, len(lower) + 1).reshape((-1,) + (1,) * (rows.ndim - 1))
        scale = -1.0 if len(a) == 1 else (d + sum(a) + 1) / 2
        return np.concatenate([np.zeros((1,) + rows.shape[1:]), scale * lower])

    up1, up2 = (tuple(a + j for a in params) for j in (1, 2))
    second = d_dt(d_dt(poly(k - 2, *up2, t), up1), params)[: k + 1]  # degree 0 needs no degree -2
    return rows, d_dt(poly(k - 1, *up1, t), params), second


def _spherical_columns(s: Sector, X, C) -> np.ndarray:
    """Bare radial-angular factors at x = alpha r and c = cos(theta), stacked by k.

    Column k is lambda = (L+J)/2 + k.  One Jacobi ladder serves every state, and one
    Laguerre run over every order 2 lambda + 7 gives each radial polynomial as a row.
    """
    import numpy as np
    n_top, lamfs = s.size - 1, [(s.L + s.J + 2 * k) / 2 for k in range(s.size)]
    jac = _ladder(n_top, (s.L + 3, s.J + 3), C)
    orders = np.reshape([2 * lamf + 7 for lamf in lamfs], (-1,) + (1,) * np.ndim(X))
    lag = _ladder(n_top, (orders,), X)  # degrees past a state's own may overflow, unread
    env = 2.0 ** (-(s.L + s.J + 7) / 2)
    left = (1 - C) ** (s.L / 2)
    right = (1 + C) ** (s.J / 2)
    norms = _spherical_norms(s)
    out = np.empty(np.broadcast_shapes(np.shape(X), np.shape(C)) + (s.size,))
    for k, lamf in enumerate(lamfs):
        out[..., k] = norms[k] * X**lamf * lag[n_top - k, k] * env * left * right * jac[k]
    return out


def _parabolic_columns(s: Sector, U, V) -> np.ndarray:
    """Bare parabolic factors at (U, V) = alpha (u, v) / 2, so U + V = x, stacked by n_p.

    One Laguerre ladder in U and one in V serve every state.
    """
    import numpy as np
    n_top = s.size - 1
    lag_u, lag_v = _ladder(n_top, (s.J + 3,), U), _ladder(n_top, (s.L + 3,), V)
    u_env = U ** (s.J / 2)
    v_env = V ** (s.L / 2)
    norms = _parabolic_norms(s)
    out = np.empty(np.broadcast_shapes(np.shape(U), np.shape(V)) + (s.size,))
    for n_p in range(s.size):
        out[..., n_p] = norms[n_p] * 2.0**-3.5 * u_env * lag_u[n_p] * v_env * lag_v[n_top - n_p]
    return out


# ----------------------------------------------------------------------
# overlap quadrature under r^8 (1-c^2)^3 dr dc
# ----------------------------------------------------------------------


def _basis_factors(s: Sector, basis: str, X, C) -> np.ndarray:
    """Bare factors of every state of one basis on the (x, c) grid, stacked last."""
    if basis == "spherical":
        return _spherical_columns(s, X, C)
    if basis == "parabolic":
        return _parabolic_columns(s, X * (1 + C) / 2, X * (1 - C) / 2)
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
    import numpy as np
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
    ConvergenceFailure if n_q passes MAX_RULE_NODES, before any rule is
    built, or if the matrix is not finite (its factors overflow at large N).
    """
    import numpy as np
    n_q = (2 * s.n + s.Q + 8) // 2
    if n_q > MAX_RULE_NODES:  # the quadrature's own node count, not a bad input
        raise ConvergenceFailure(f"overlap quadrature needs n_q = {n_q} > {MAX_RULE_NODES} at {s}")
    val = w_overlap_quadrature(s, n_q)
    if not np.isfinite(val).all():
        raise ConvergenceFailure(f"overlap matrix is not finite at n_q = {n_q} for {s}")
    return val


# ----------------------------------------------------------------------
# separated-equation residuals (analytic derivatives)
# ----------------------------------------------------------------------


def _over_envelope(hpsi, h2dpsi, h, P, P1, P2):
    """f / E, h f' / E and h^2 f'' / E for f = E P, given h psi and h^2 psi', psi = E'/E.

    f' = E (psi P + P') and f'' = E ((psi^2 + psi') P + 2 psi P' + P''): the
    envelope E is never formed, and with h the point's own scale no
    negative power of the point is formed either.
    """
    hP1 = h * P1
    return P, hpsi * P + hP1, (hpsi * hpsi + h2dpsi) * P + 2.0 * hpsi * hP1 + h * h * P2


def _laguerre_rows(s: Sector, names):
    """Rows x/r, c1, cZ, cE, order, degree, nu, c0, cs; a column per state of each named equation.

    Divided by its envelope x^nu e^{-x/2}, the radial equation (times r^2,
    scaled by -2) and the parabolic u and v equations (times u or v) read
    x^2 g'' + c1 x g' + (c0 + cZ r + cE r^2 + cs r) g, g = L_degree^(order)(x), cs r the M9 term,
    at Z = 1: alpha = 4/(2n+Q+8), E = -2/(2n+Q+8)^2 and the radial cZ = 2Z = 2.
    """
    import numpy as np
    d = 2 * s.n + s.Q + 8
    alpha, E = 4 / d, -2 / d**2  # each one correctly rounded int division
    h, n_top, mu2 = (s.L + s.J) / 2, s.size - 1, coeffs.m9_twice_eigenvalues(s)
    half = (alpha / 2, 4, 0.5, E / 2)
    table = {  # state k's column; lambda = h + k, and sigma = alpha mu_p / 4 at n_p = k
        "radial": lambda k: (alpha, 8, 2, 2 * E, 2 * (h + k) + 7, n_top - k, h + k,
                             -(h + k) * (h + k + 7), 0),
        "parabolic_u": lambda k: (*half, s.J + 3, k, s.J / 2, -s.J * (s.J + 6) / 4,
                                  -(alpha / 4 * (mu2[k] / 2))),
        "parabolic_v": lambda k: (*half, s.L + 3, n_top - k, s.L / 2, -s.L * (s.L + 6) / 4,
                                  alpha / 4 * (mu2[k] / 2)),
    }
    columns = [table[w](k) for w in names for k in range(s.size)]
    return np.array(columns, dtype=np.float64).T


def _laguerre_terms(s: Sector, names, pts):
    """Terms of the named radial and parabolic equations, a row per state of each; see above."""
    import numpy as np
    xr, c1, cZ, cE, order, degree, nu, c0, cs = _laguerre_rows(s, names)[..., None]
    x = xr * pts
    # one run over every state's order, read at the state's own degree; the degrees past it may
    # overflow, under ode_residuals' errstate, unread
    ladders = _ladder(s.size - 1, (order,), x, derivs=True)
    P, P1, P2 = (rows[degree[:, 0].astype(int), np.arange(len(x))] for rows in ladders)
    g, xg1, x2g2 = _over_envelope(nu - x / 2, -nu, x, P, P1, P2)
    return x2g2, c1 * xg1, c0 * g, (cZ * pts) * g, (cE * pts * pts) * g, (cs * pts) * g


def _angular_terms(s: Sector, c):
    """Angular equation terms of every lambda, one row per state, times (1-c^2) / envelope."""
    import numpy as np
    P, P1, P2 = _ladder(s.size - 1, (s.L + 3, s.J + 3), c, derivs=True)
    a, b = 1 + c, 1 - c
    h, hl, hj = a * b, s.L / 2, s.J / 2
    u, hu1, h2u2 = _over_envelope(hj * b - hl * a, -hl * a * a - hj * b * b, h, P, P1, P2)
    lam = ((s.L + s.J) / 2 + np.arange(s.size))[:, None]
    # theta derivatives of u(cos(theta)): sin^2 u_tt = h^2 u'' - c h u', sin^2 cot u_t = -c h u'
    return (
        h2u2 - c * hu1,
        -7.0 * c * hu1,
        -(s.L * (s.L + 6) / 2) * a * u,
        -(s.J * (s.J + 6) / 2) * b * u,
        lam * (lam + 7) * h * u,
    )


def ode_residuals(s: Sector, which: str | tuple[str, ...], points) -> np.ndarray:
    """Max relative residual of separated equations on interior points, per state.

    The points are cos(theta), or Zr, at which the residual is that of Z = 1.
    which: "radial" or "angular" (one entry per lambda, ascending),
    "parabolic_u" or "parabolic_v" (one per n_p), or a tuple of all but
    "angular", entries in its order from one Laguerre run.  Each factor is
    an envelope E (a power of x times e^{-x/2}, or (1-c)^(L/2) (1+c)^(J/2))
    times a polynomial P; the equation is linear, so it is divided by E
    and multiplied by r^2, 1-c^2 or the parabolic point, and evaluated from
    P, P', P'' and E's log-derivative alone.  Each residual is scaled by the
    largest participating term, which a constant factor leaves unchanged.
    A state whose terms leave the float range (Zr far out) gets an
    infinite residual: the check fails, with no warning.
    """
    import numpy as np
    pts = np.asarray(points, dtype=np.float64).ravel()
    if pts.size == 0 or not np.isfinite(pts).all():
        raise DomainError("need one or more evaluation points, all finite")
    names = tuple(which) if isinstance(which, (tuple, list)) else (which,)
    if names == ("angular",):
        if np.any(np.abs(pts) >= 1):
            raise DomainError("angular points must satisfy |cos(theta)| < 1")
    elif not names or not set(names) <= {"radial", "parabolic_u", "parabolic_v"}:
        raise ValidationError(f"unknown equation selector {which!r}")
    elif np.any(pts <= 0):
        raise DomainError(f"{which} points must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf below
        terms = (_angular_terms(s, pts) if names == ("angular",)
                 else _laguerre_terms(s, names, pts))
        scale = np.maximum.reduce([np.abs(t) for t in terms])
        rel = np.abs(sum(terms)) / np.maximum(scale, 1e-300)
    return np.where(np.isfinite(rel), rel, np.inf).max(axis=-1)
