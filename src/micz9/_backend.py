"""Numerical kernels in vectorized numpy.

Symmetric tridiagonal eigenproblems are solved for a whole stack of
matrices at once: diagonals of shape (P, N) and couplings of shape
(P, N-1) are expanded into the dense (P, N, N) stack and handed to
numpy's batched LAPACK ``eigh``, so a branch sweep or a list of focal
distances costs one call.  Each eigenvalue is then re-read as the
Rayleigh quotient v^T T v of its unit vector, with the tridiagonal
product: the dense solver's eigenvalues carry errors of order eps ||T||,
which is large relative to the small eigenvalues of a strongly graded
K(a), while the quotient is accurate to the square of the vector's
error.  The stack is re-sorted by its quotients only when some row of
them is out of ascending order, which is rare.  Large stacks are solved
in chunks of at most ``_CHUNK_ELEMENTS`` dense entries, which bounds the
working memory.

The generalized Laguerre and Jacobi polynomials are evaluated by their
three-term recurrences; each call is one run and returns its whole ladder
of degrees, 0 up to the one asked for.
"""

from __future__ import annotations

# numpy is imported where used: the CLI loads this module for every command
from .errors import ConvergenceFailure, ValidationError

# P * N * N dense entries per chunk: 64 KB of float64.
_CHUNK_ELEMENTS = 1 << 13


def _dense(d, e):
    """Dense symmetric tridiagonal matrices (..., N, N) from d (..., N), e (..., N-1)."""
    import numpy as np
    n = d.shape[-1]
    T = np.zeros(d.shape + (n,))
    flat = T.reshape(d.shape[:-1] + (n * n,))  # a view, whose diagonals have stride n + 1
    flat[..., :: n + 1] = d
    flat[..., 1 :: n + 1] = e
    flat[..., n :: n + 1] = e
    return T


def _tridiag_product(d, e, V):
    """T V for tridiagonals d (..., N), e (..., N-1) and columns V (..., N, M)."""
    TV = d[..., :, None] * V
    TV[..., 1:, :] += e[..., :, None] * V[..., :-1, :]
    TV[..., :-1, :] += e[..., :, None] * V[..., 1:, :]
    return TV


def tridiag_eigh(d, e):
    """Ascending eigenvalues and orthonormal eigenvector columns.

    d holds the diagonals, shape (P, N), and e the couplings, shape
    (P, N-1); the result is w (P, N) and V (P, N, N) with V[p][:, k] the
    eigenvector of w[p, k].  A single matrix may be passed as 1-d arrays
    and then comes back unbatched: w (N,) and V (N, N).

    The vectors come from LAPACK's dense symmetric solver; the eigenvalues
    are their Rayleigh quotients w_k = v_k^T T v_k.  LAPACK returns the
    vectors in ascending order of its own eigenvalues, and the quotients
    nearly always keep that order; where some row's do not, the whole stack
    is re-sorted stably, which leaves its ascending rows as they were.  Other
    shapes or a non-finite entry raise ValidationError, and a LAPACK
    failure to converge raises ConvergenceFailure.
    """
    import numpy as np
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    single = d.ndim == 1
    if single:
        d, e = d[None], e[None]
    if d.ndim != 2 or d.shape[1] == 0 or e.shape != (d.shape[0], d.shape[1] - 1):
        raise ValidationError("need diagonals of shape (P, N) and couplings of shape (P, N-1)")
    for name, x in (("diagonal", d), ("coupling", e)):
        if not np.isfinite(x).all():  # then name the first bad entry
            p, i = np.unravel_index(int(np.argmax(~np.isfinite(x))), x.shape)
            at = f"[{i}]" if single else f"[{p}, {i}]"
            raise ValidationError(f"{name}{at} = {x[p, i]} is not finite")
    P, n = d.shape
    V = np.empty((P, n, n))
    step = max(1, _CHUNK_ELEMENTS // (n * n))
    try:
        for lo in range(0, P, step):
            V[lo : lo + step] = np.linalg.eigh(_dense(d[lo : lo + step], e[lo : lo + step]))[1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK eigh on a {n} x {n} tridiagonal: {exc}") from None
    w = np.einsum("prk,prk->pk", V, _tridiag_product(d, e, V))
    # a stable sort leaves an ascending row as it is; written so that a NaN counts as out of order
    if not (w[:, :-1] <= w[:, 1:]).all():
        order = np.argsort(w, axis=1, kind="stable")
        w = np.take_along_axis(w, order, axis=1)
        V = np.take_along_axis(V, order[:, None, :], axis=2)
    return (w[0], V[0]) if single else (w, V)


def laguerre(k: int, s, x) -> np.ndarray:
    """Generalized Laguerre L_0^{(s)}(x) .. L_k^{(s)}(x), one three-term recurrence run.

    Degree j is row j, stacked on a new first axis; k < 0 gives no rows.
    The order s may be an array broadcasting against x, one order per entry.
    """
    import numpy as np
    x, s = np.asarray(x, dtype=np.float64), np.asarray(s, dtype=np.float64)
    out = np.empty((max(k + 1, 0),) + np.broadcast(x, s).shape)
    if k < 0:
        return out
    out[0] = 1.0
    if k:
        out[1] = 1.0 + s - x
    for j in range(1, k):
        out[j + 1] = ((2.0 * j + s + 1.0 - x) * out[j] - (j + s) * out[j - 1]) / (j + 1.0)
    return out


def jacobi(k: int, p: float, q: float, x) -> np.ndarray:
    """Jacobi P_0^{(p,q)}(x) .. P_k^{(p,q)}(x), one three-term recurrence run.

    Degree j is row j, stacked on a new first axis; k < 0 gives no rows.
    """
    import numpy as np
    x, p, q = np.asarray(x, dtype=np.float64), float(p), float(q)
    out = np.empty((max(k + 1, 0),) + x.shape)
    if k < 0:
        return out
    out[0] = 1.0
    if k:
        out[1] = (p + 1.0) + (p + q + 2.0) * (x - 1.0) / 2.0
    for j in range(1, k):
        c = 2.0 * j + p + q
        den = 2.0 * (j + 1.0) * (j + 1.0 + p + q) * c
        a1 = (c + 1.0) * (p * p - q * q)
        a2 = c * (c + 1.0) * (c + 2.0)
        a3 = 2.0 * (j + p) * (j + q) * (c + 2.0)
        out[j + 1] = ((a1 + a2 * x) * out[j] - a3 * out[j - 1]) / den
    return out
