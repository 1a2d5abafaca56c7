"""Numerical kernels: batched tridiagonal eigensolver and polynomial recurrences."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from micz9 import _backend as bk
from micz9 import spheroidal
from micz9.errors import ValidationError
from micz9.sector import enumerate_sectors, validate_sector


def dense(d, e):
    T = np.diag(d)
    n = len(d)
    for i in range(n - 1):
        T[i, i + 1] = T[i + 1, i] = e[i]
    return T


def test_eigh_2x2_closed_form():
    d = np.array([0.0, -8.0])
    e = np.array([-1.0])
    w, V = bk.tridiag_eigh(d, e)
    np.testing.assert_allclose(w, [-4 - math.sqrt(17), -4 + math.sqrt(17)], rtol=1e-15)
    T = dense(d, e)
    assert np.abs(T @ V - V * w).max() < 1e-13


def test_eigh_diagonal_and_trivial():
    d = np.array([3.0, -1.0, 2.0])
    w, V = bk.tridiag_eigh(d, np.zeros(2))
    np.testing.assert_allclose(w, sorted(d))
    assert np.abs(np.abs(V).sum(axis=0) - 1).max() < 1e-12  # unit vectors
    w, V = bk.tridiag_eigh(np.array([5.0]), np.zeros(0))
    assert w[0] == 5.0 and V[0, 0] == 1.0


def test_eigh_repeated_diagonal():
    d = np.array([2.0, 2.0, 2.0])
    w, V = bk.tridiag_eigh(d, np.zeros(2))
    np.testing.assert_allclose(w, d)
    assert np.abs(V.T @ V - np.eye(3)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    d=arrays(np.float64, st.integers(2, 12), elements=st.floats(-50, 50)),
    seed=st.integers(0, 2**31),
)
# two eigenvalues 4.6e-3 apart at scale 48: a close pair whose vectors
# must still come out orthogonal
@example(d=np.array([0.0, -27, 0, -24, 0, -40, 0, 0, -27]), seed=9)
def test_eigh_vs_numpy_random(d, seed):
    n = d.shape[0]
    rng = np.random.default_rng(seed)
    e = rng.uniform(-10, 10, n - 1)
    w, V = bk.tridiag_eigh(d, e)
    ref = np.linalg.eigvalsh(dense(d, e))
    scale = max(np.abs(d).max() + np.abs(e).max(), 1.0)
    assert np.abs(w - ref).max() <= 1e-12 * scale
    T = dense(d, e)
    assert np.abs(T @ V - V * w).max() <= 1e-11 * scale
    assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-10


@st.composite
def tridiagonal_stacks(draw):
    """(d, e) of shape (P, N) and (P, N-1): random slices, some with a zero
    coupling and some with a repeated diagonal."""
    P = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    d = rng.uniform(-50, 50, (P, n))
    e = rng.uniform(-10, 10, (P, n - 1))
    for p in range(P):
        kind = draw(st.sampled_from(("random", "zero_coupling", "repeated_diagonal", "both")))
        if kind in ("zero_coupling", "both") and n > 1:
            e[p, draw(st.integers(0, n - 2))] = 0.0
        if kind in ("repeated_diagonal", "both"):
            d[p] = d[p, 0]
    return d, e


@settings(max_examples=60, deadline=None)
@given(stack=tridiagonal_stacks())
def test_eigh_batched_stack_vs_numpy(stack):
    d, e = stack
    P, n = d.shape
    w, V = bk.tridiag_eigh(d, e)
    assert w.shape == (P, n) and V.shape == (P, n, n)
    for p in range(P):
        T = dense(d[p], e[p])
        scale = max(np.abs(d[p]).max() + (np.abs(e[p]).max() if n > 1 else 0.0), 1.0)
        assert np.abs(w[p] - np.linalg.eigvalsh(T)).max() <= 1e-12 * scale
        assert np.abs(T @ V[p] - V[p] * w[p]).max() <= 1e-11 * scale
        assert np.abs(V[p].T @ V[p] - np.eye(n)).max() <= 1e-10


def test_eigh_resorts_vectors_given_out_of_order(monkeypatch):
    # LAPACK returns its vectors in ascending order, so tridiag_eigh sorts only when some
    # row of Rayleigh quotients is not ascending: reverse every other matrix's columns
    s = validate_sector(5, 2, 1, 1, Fraction(7, 3))  # N = 7
    mat = spheroidal.build_k_matrix(s, np.logspace(-3, 6, 9))
    want_w, want_V = bk.tridiag_eigh(mat.diag, mat.offdiag)
    original = np.linalg.eigh

    def reversing(T):
        w, V = original(T)
        V[::2] = V[::2, :, ::-1].copy()
        return w, V

    monkeypatch.setattr(np.linalg, "eigh", reversing)
    w, V = bk.tridiag_eigh(mat.diag, mat.offdiag)
    assert (np.diff(w, axis=1) > 0).all()
    norms = mat.norm()
    for p in range(len(w)):
        T = dense(mat.diag[p], mat.offdiag[p])
        assert np.abs(T @ V[p] - V[p] * w[p]).max() <= 1e-13 * norms[p]
    assert w.tobytes() == want_w.tobytes() and V.tobytes() == want_V.tobytes()


def _exact_count_below(d, e2, x):
    """Eigenvalues below x of the tridiagonal (d, squared couplings e2), exactly.

    Negative pivots of the LDL^T factorization of T - x in Fractions.
    """
    count, q = 0, None
    for i, di in enumerate(d):
        q = di - x - (e2[i - 1] / q if i else 0)
        count += q < 0
    return count


def test_k_eigenvalues_bracketed_by_exact_sturm_counts():
    # K(a) is strongly graded at small and large a: its small eigenvalues
    # are relatively accurate only after the Rayleigh polish
    delta = Fraction(2e-12)
    for Z in (Fraction(2, 5), Fraction(7, 3)):
        for s in enumerate_sectors(5, 4, 4, Z):
            mat = spheroidal.build_k_matrix(s, [1e-3, 1.0, 1e2, 1e6])
            D, E = mat.diag, mat.offdiag
            W, _ = bk.tridiag_eigh(D, E)
            for d, e, w in zip(D, E, W):
                d = [Fraction(x) for x in d]
                e2 = [Fraction(x) ** 2 for x in e]
                for k, wk in enumerate(map(Fraction, w)):
                    # K(a) = 0 exactly on the 1 x 1 sector (0,0,0,0)
                    margin = max(delta * abs(wk), Fraction(5e-324))
                    below = _exact_count_below(d, e2, wk - margin)
                    above = _exact_count_below(d, e2, wk + margin)
                    assert below <= k < above, (s, Z, k, float(wk))


@pytest.mark.parametrize("which", ["d", "e"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eigh_rejects_non_finite(which, bad):
    d = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    e = np.array([[1.0, 1.0], [1.0, 1.0]])
    (d if which == "d" else e)[1, 1] = bad
    name = "diagonal" if which == "d" else "coupling"
    with pytest.raises(ValidationError, match=rf"{name}\[1, 1\] = {bad}"):
        bk.tridiag_eigh(d, e)
    with pytest.raises(ValidationError, match=rf"{name}\[1\] = {bad}"):
        bk.tridiag_eigh(d[1], e[1])


@pytest.mark.parametrize("d_shape, e_shape", [
    ((2, 3), (2, 3)),  # couplings as long as the diagonal
    ((2, 3), (3, 2)),  # another stack size
    ((3,), (1,)),  # one matrix with a coupling short
    ((0,), (0,)),  # no matrix entries at all
    ((1, 2, 3), (1, 2, 2)),  # a stack of stacks
])
def test_eigh_rejects_mismatched_shapes(d_shape, e_shape):
    with pytest.raises(ValidationError, match=r"shape \(P, N\) and couplings of shape \(P, N-1\)"):
        bk.tridiag_eigh(np.ones(d_shape), np.ones(e_shape))


def test_laguerre_explicit():
    x = np.linspace(0.0, 9.0, 31)
    np.testing.assert_allclose(bk.laguerre(0, 3.0, x)[0], np.ones_like(x))
    np.testing.assert_allclose(bk.laguerre(1, 2.0, x)[1], 3.0 - x, rtol=1e-15)
    l2 = 0.5 * (x * x - 2 * (2.0 + 2) * x + (2.0 + 1) * (2.0 + 2))
    np.testing.assert_allclose(bk.laguerre(2, 2.0, x)[2], l2, rtol=2e-14, atol=1e-13)
    assert bk.laguerre(0, 4.0, 2.3)[0] == 1.0
    assert bk.laguerre(1, 2.0, 0.5)[1] == 2.5
    # L_k^{(s)}(0) = binom(k+s, k)
    assert bk.laguerre(2, 0.0, 0.0)[2] == 1.0
    assert bk.laguerre(3, 1.0, 0.0)[3] == pytest.approx(math.comb(4, 3))


def test_jacobi_explicit():
    x = np.linspace(-1.0, 1.0, 21)
    np.testing.assert_allclose(bk.jacobi(0, 3.0, 5.0, x)[0], np.ones_like(x))
    np.testing.assert_allclose(bk.jacobi(1, 0.0, 0.0, x)[1], x, atol=1e-15)  # Legendre
    p1 = (2.0 + 1) + (2.0 + 3.0 + 2) * (x - 1) / 2
    np.testing.assert_allclose(bk.jacobi(1, 2.0, 3.0, x)[1], p1, rtol=1e-14, atol=1e-14)
    assert bk.jacobi(0, 1.0, 2.0, 0.5)[0] == 1.0
    assert bk.jacobi(1, 0.0, 0.0, 0.3)[1] == pytest.approx(0.3)
    # endpoint value P_k^{(p,q)}(1) = binom(k+p, k)
    assert bk.jacobi(1, 4.0, 2.0, 1.0)[1] == pytest.approx(5.0)
    assert bk.jacobi(2, 3.0, 5.0, 1.0)[2] == pytest.approx(math.comb(5, 2))
