"""Numerical kernels in vectorized numpy.

Symmetric tridiagonal eigenproblems are solved for a whole stack of
matrices at once: diagonals of shape (P, N) and couplings of shape
(P, N-1), with every (matrix, eigenvalue) pair carried along one array
axis, so a branch sweep or a list of focal distances costs one call.
Eigenvalues come from bisection on Sturm sign counts (Barth, Martin and
Wilkinson 1967; LAPACK ``dstebz``), eigenvectors from inverse iteration
with a partially pivoted tridiagonal factorization made once per shift
(LAPACK ``dstein``).  Exactly zero couplings split a matrix into
irreducible blocks; each eigenpair is computed on its own block, so
degenerate spectra across blocks stay exactly orthogonal.  Large stacks
are solved in chunks of at most ``_CHUNK_ELEMENTS`` matrix entries, which
bounds the working memory.

The generalized Laguerre and Jacobi polynomials are evaluated by their
three-term recurrences.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure

BACKEND = "numpy"

_EPS = float(np.finfo(np.float64).eps)
_PIVMIN_FLOOR = 1e-290
# P * N * N entries per chunk: under 1 MB of working arrays at N = 15.
_CHUNK_ELEMENTS = 1 << 13


def _sturm_counts(d, e2, x, pivmin, first, last):
    """Eigenvalues not above x among rows first..last-1 of each matrix.

    LDL^T sign counts, with a pivot below pivmin in magnitude replaced by
    -pivmin (so it counts as negative).  d (N, ...) and e2 (N-1, ...) hold
    the diagonals and squared couplings row-major and broadcast against x,
    as pivmin does.  first and last delimit an irreducible block per
    element of x, or are None for the whole matrix: the recurrence restarts
    at every zero coupling, so the count of a block is a difference of
    running counts.
    """
    dx = d - x
    neg = np.empty(dx.shape, dtype=bool)
    q = dx[0]
    t = np.empty_like(q)
    for i in range(dx.shape[0]):
        if i:
            np.divide(e2[i - 1], q, out=t)
            np.subtract(dx[i], t, out=q)
        np.less(q, pivmin, out=neg[i])
        np.minimum(q, -pivmin, out=q, where=neg[i])
    if first is None:
        return np.add.reduce(neg, axis=0, dtype=np.int64)
    cum = np.zeros((neg.shape[0] + 1,) + neg.shape[1:], dtype=np.int64)
    np.cumsum(neg, axis=0, out=cum[1:])
    shape = (1,) + neg.shape[1:]
    last = np.broadcast_to(last, shape)
    first = np.broadcast_to(first, shape)
    return (np.take_along_axis(cum, last, 0) - np.take_along_axis(cum, first, 0))[0]


def _bisect(d, e, rtol, first, last):
    """Eigenvalues by bisection, ascending per slot.

    Slot k of matrix p gets eigenvalue k - first[p, k] of its block, or
    eigenvalue k of the whole matrix if first is None.  A slot stops when
    its interval is rtol-narrow relative to its endpoints or cannot be
    halved in floating point, and after 250 halvings at most.  Each pass
    counts at the midpoint and both quarter points and so makes two
    halvings: the same points and results as plain bisection, with half
    the passes over the rows.
    """
    P, n = d.shape
    e2 = e * e
    pivmin = np.maximum(_PIVMIN_FLOOR, e2.max(axis=1) * _PIVMIN_FLOOR)[:, None]
    radius = np.zeros((P, n))
    radius[:, :-1] += np.abs(e)
    radius[:, 1:] += np.abs(e)
    lo = (d - radius).min(axis=1, keepdims=True)
    hi = (d + radius).max(axis=1, keepdims=True)
    pad = 2.0 * _EPS * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300) + pivmin
    a = np.repeat(lo - pad, n, axis=1)
    b = np.repeat(hi + pad, n, axis=1)
    k = np.arange(n) if first is None else np.arange(n) - first
    dT = d.T[:, None, :, None]
    e2T = e2.T[:, None, :, None]

    def halvable(a, b, mid):
        return (mid > a) & (mid < b) & ((b - a) > rtol * np.maximum(-a, b))  # max |a|, |b|

    x = np.empty((3, P, n))
    mid, q_lo, q_hi = x
    for _ in range(125):
        np.add(a, b, out=mid)
        mid *= 0.5
        active = halvable(a, b, mid)
        if not np.count_nonzero(active):
            break
        np.add(a, mid, out=q_lo)
        q_lo *= 0.5
        np.add(mid, b, out=q_hi)
        q_hi *= 0.5
        c_mid, c_lo, c_hi = _sturm_counts(dT, e2T, x, pivmin, first, last)
        up = (c_mid <= k) & active
        a = np.where(up, mid, a)
        b = np.where(active > up, mid, b)  # active and not up
        # the second halving's midpoint is the quarter point inside [a, b]
        mid2 = np.where(up, q_hi, q_lo)
        active &= halvable(a, b, mid2)
        up = (np.where(up, c_hi, c_lo) <= k) & active
        a = np.where(up, mid2, a)
        b = np.where(active > up, mid2, b)
    return 0.5 * (a + b)


def _factor_shifted(sd, se):
    """LU with partial pivoting of the tridiagonals (diag sd, coupling se), one per column.

    sd is (N, m), se is (N-1, m).  Returns (swap, mult, u0, u1, u2): the row
    exchange and multiplier of each elimination step and the three
    diagonals of U, zero pivots replaced by +-pivmin.
    """
    n, m = sd.shape
    pivmin = _PIVMIN_FLOOR
    u0 = sd.copy()
    u1 = se.copy()
    u2 = np.zeros((max(n - 2, 0), m))
    swap = np.empty((n - 1, m), dtype=bool)
    mult = np.empty((n - 1, m))
    zero = np.zeros(m)
    for i in range(n - 1):
        sub = se[i]
        sw = np.abs(sub) > np.abs(u0[i])
        t0 = u0[i].copy()
        t1 = u1[i].copy()
        nxt = u1[i + 1] if i < n - 2 else zero
        u0[i] = np.where(sw, sub, t0)
        u1[i] = np.where(sw, u0[i + 1], t1)
        if i < n - 2:
            u2[i] = np.where(sw, nxt, 0.0)
        r0 = np.where(sw, t0, sub)
        r1 = np.where(sw, t1, u0[i + 1])
        piv = u0[i]
        piv = np.where(np.abs(piv) < pivmin, np.where(piv >= 0.0, pivmin, -pivmin), piv)
        u0[i] = piv
        mu = r0 / piv
        u0[i + 1] = r1 - mu * u1[i]
        if i < n - 2:
            u1[i + 1] = np.where(sw, 0.0, nxt) - mu * u2[i]
        swap[i] = sw
        mult[i] = mu
    last = u0[n - 1]
    u0[n - 1] = np.where(np.abs(last) < pivmin, np.where(last >= 0.0, pivmin, -pivmin), last)
    return swap, mult, u0, u1, u2


def _solve_factored(factors, b):
    """Solve with the factors of _factor_shifted for right-hand sides b (N, m)."""
    swap, mult, u0, u1, u2 = factors
    n = b.shape[0]
    x = b.copy()
    for i in range(n - 1):
        xi = np.where(swap[i], x[i + 1], x[i])
        x[i + 1] = np.where(swap[i], x[i], x[i + 1]) - mult[i] * xi
        x[i] = xi
    x[n - 1] /= u0[n - 1]
    if n >= 2:
        x[n - 2] = (x[n - 2] - u1[n - 2] * x[n - 1]) / u0[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
    return x


def _inverse_iteration(sd, se, support, maxit, restol):
    """Unit eigenvectors of the shifted tridiagonals (sd, se), one per column.

    support (N, m) is 1 on the rows of each column's block and 0 elsewhere,
    or (N, 1) ones when no column's matrix splits; the start vector lives
    there, and the solves keep it there because the block's boundary
    couplings are exactly zero.  Returns (X, iters), with
    iters -1 where the residual never reached restol within maxit solves.
    """
    n, m = sd.shape
    factors = _factor_shifted(sd, se)
    ramp = np.cumsum(support, axis=0) - 1.0  # row index within the block
    B = (1.0 + 1e-3 * ramp) * support  # deterministic start, no zero components
    B /= np.sqrt((B * B).sum(axis=0))
    X = B = np.broadcast_to(B, (n, m))
    iters = np.full(m, -1, dtype=np.int64)
    done = np.zeros(m, dtype=bool)
    for it in range(maxit):
        Y = _solve_factored(factors, B)
        amax = np.abs(Y).max(axis=0)  # pre-scale: squared norms of
        good = (amax > 0.0) & np.isfinite(amax)  # near-singular solves overflow
        with np.errstate(invalid="ignore", over="ignore"):
            Y /= np.where(good, amax, 1.0)
            Y /= np.where(good, np.sqrt((Y * Y).sum(axis=0)), 1.0)
        fresh = good & ~done
        X = np.where(fresh, Y, X)
        R = sd * X
        R[1:] += se * X[:-1]
        R[:-1] += se * X[1:]
        newly = fresh & (np.abs(R).max(axis=0) <= restol)
        iters[newly] = it + 1
        done |= newly
        if done.all():
            break
        B = np.where(done, B, X)
    return X, iters


def _orthogonalize_clusters(w, V, cluster_tol):
    """Gram-Schmidt inside runs of eigenvalues closer than cluster_tol (in place).

    w (P, N) ascending, V (P, N, N) with eigenvector columns.
    """
    P, n = w.shape
    idx = np.arange(n)
    opens = np.ones((P, n), dtype=bool)
    opens[:, 1:] = np.diff(w, axis=1) > cluster_tol
    start = np.maximum.accumulate(np.where(opens, idx, 0), axis=1)
    for j in np.flatnonzero((start < idx).any(axis=0)):
        sj = start[:, j]
        for i in range(int(sj.min()), j):
            dot = np.where(sj <= i, np.einsum("pr,pr->p", V[:, :, i], V[:, :, j]), 0.0)
            V[:, :, j] -= dot[:, None] * V[:, :, i]
        nrm = np.sqrt(np.einsum("pr,pr->p", V[:, :, j], V[:, :, j]))
        renorm = (sj < j) & (nrm > 0.0)
        V[:, :, j] /= np.where(renorm, nrm, 1.0)[:, None]


def _eigh_chunk(d, e, rtol, maxit):
    P, n = d.shape
    scale = np.maximum(np.abs(d).max(axis=1) + np.abs(e).max(axis=1), 1e-300)
    # block of each row: [first, last) between exactly zero couplings
    if (e == 0.0).any():
        cut = np.zeros((P, n + 1), dtype=bool)
        cut[:, 0] = cut[:, n] = True
        cut[:, 1:n] = e == 0.0
        idx = np.arange(n + 1)
        first = np.maximum.accumulate(np.where(cut, idx, 0), axis=1)[:, :n]
        last = np.minimum.accumulate(np.where(cut, idx, n)[:, ::-1], axis=1)[:, ::-1][:, 1:]
        rows = idx[:n, None, None]
        support = ((rows >= first) & (rows < last)).reshape(n, -1).astype(np.float64)
    else:
        first = last = None
        support = np.ones((n, 1))
    w = _bisect(d, e, rtol, first, last)

    # one shifted system per (matrix, eigenvalue): column p * n + k
    sd = (d.T[:, :, None] - w[None]).reshape(n, P * n)
    se = np.repeat(e.T, n, axis=1)
    restol = np.repeat(200.0 * _EPS * scale, n)
    X, iters = _inverse_iteration(sd, se, support, int(maxit), restol)
    if (iters < 0).any():
        p, k = divmod(int(np.argmax(iters < 0)), n)
        raise ConvergenceFailure(
            f"inverse iteration did not reach {restol[p * n]:.3e} within {maxit} steps "
            f"for eigenvalue index {k} of matrix {p}"
        )
    V = X.reshape(n, P, n).transpose(1, 0, 2).copy()  # (P, row, eigenvalue)
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    # LAPACK dstein's reorthogonalization window: eigenvalues within 1e-3 ||T||
    _orthogonalize_clusters(w, V, 1e-3 * scale[:, None])
    # Rayleigh polish: exact eigenvectors make this a <= 1 ulp correction
    TV = d[:, :, None] * V
    TV[:, 1:, :] += e[:, :, None] * V[:, :-1, :]
    TV[:, :-1, :] += e[:, :, None] * V[:, 1:, :]
    w = np.einsum("prk,prk->pk", V, TV)
    order = np.argsort(w, axis=1, kind="stable")
    return np.take_along_axis(w, order, axis=1), np.take_along_axis(V, order[:, None, :], axis=2)


def tridiag_eigh(d, e, rtol: float = 1e-14, maxit: int = 100):
    """Ascending eigenvalues and orthonormal eigenvector columns.

    d holds the diagonals, shape (P, N), and e the couplings, shape
    (P, N-1); the result is w (P, N) and V (P, N, N) with V[p][:, k] the
    eigenvector of w[p, k].  A single matrix may be passed as 1-d arrays
    and then comes back unbatched: w (N,) and V (N, N).

    Per matrix: bisection eigenvalues to relative width rtol on each
    irreducible block, inverse-iteration vectors (at most maxit solves per
    pair, else ConvergenceFailure), Gram-Schmidt inside near-degenerate
    clusters, then a Rayleigh-quotient polish of the eigenvalues.
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    single = d.ndim == 1
    if single:
        d, e = d[None], e[None]
    if d.ndim != 2 or d.shape[1] == 0 or e.shape != (d.shape[0], d.shape[1] - 1):
        raise ValueError("need diagonals of shape (P, N) and couplings of shape (P, N-1)")
    P, n = d.shape
    if n == 1:
        w, V = d.copy(), np.ones((P, 1, 1))
    else:
        step = max(1, _CHUNK_ELEMENTS // (n * n))
        if P <= step:
            w, V = _eigh_chunk(d, e, rtol, maxit)
        else:
            w = np.empty((P, n))
            V = np.empty((P, n, n))
            for lo in range(0, P, step):
                w[lo : lo + step], V[lo : lo + step] = _eigh_chunk(
                    d[lo : lo + step], e[lo : lo + step], rtol, maxit
                )
    return (w[0], V[0]) if single else (w, V)


def _laguerre_rec(k, s, x):
    pm = np.ones_like(x)
    if k == 0:
        return pm
    pc = 1.0 + s - x
    for j in range(1, k):
        pn = ((2.0 * j + s + 1.0 - x) * pc - (j + s) * pm) / (j + 1.0)
        pm, pc = pc, pn
    return pc


def _jacobi_rec(k, p, q, x):
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


def laguerre(k: int, s: float, x):
    """Generalized Laguerre L_k^{(s)}; k < 0 gives 0 (derivative ladders)."""
    xa = np.asarray(x, dtype=np.float64)
    if k < 0:
        return np.zeros_like(xa) if xa.shape else 0.0
    out = _laguerre_rec(k, float(s), xa)
    return out if xa.shape else float(out)


def jacobi(k: int, p: float, q: float, x):
    """Jacobi P_k^{(p,q)}; k < 0 gives 0 (derivative ladders)."""
    xa = np.asarray(x, dtype=np.float64)
    if k < 0:
        return np.zeros_like(xa) if xa.shape else 0.0
    out = _jacobi_rec(k, float(p), float(q), xa)
    return out if xa.shape else float(out)
