"""Exact radical arithmetic: closure, ordering, rounding, serialization."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micz9.errors import RadicandMismatch
from micz9.exactscalar import RadicalScalar, squarefree_split


def R(c, d=1):
    return RadicalScalar(Fraction(c), Fraction(d))


def test_mul_examples():
    assert R("1/2", 2) * R("1/2", 2) == Fraction(1, 2)
    assert R(3, "1/9") * R(1) == 1
    assert R(2, 6) * R(5, "2/3") == 20


def test_add_examples():
    assert R("1/2", 2) + R("1/2", 2) == R(1, 2)
    assert R(0) + R(5, 3) == R(5, 3)
    with pytest.raises(RadicandMismatch):
        R(1, 2) + R(1, 3)


def test_cmp_examples():
    # 2*sqrt(6)/5 against its 53-bit float witness, via cross-squaring
    x = R("2/5", 6)
    w = x.to_float()
    assert abs(w - 0.9797958971132712) < 1e-15
    assert x.square() == Fraction(24, 25)
    assert R(1, 2).compare(R(1, 3)) < 0
    assert R(-1, 2).compare(R("1/1000")) < 0
    assert R("1/2", 8).compare(R(1, 2)) == 0  # sqrt(8)/2 == sqrt(2)


def test_to_float_examples():
    assert R(1, 2).to_float() == 1.4142135623730951
    assert R("1/2", 2).to_float() == 0.7071067811865476
    assert R(0).to_float() == 0.0
    assert R(-1, 2).to_float() == -1.4142135623730951


def test_canonical_forms():
    assert R(5, 0).coeff == 0 and R(5, 0).radicand == 1  # zero is (0, 1)
    assert R(1, 18) == R(3, 2)
    assert R(1, 18).radicand == 2
    assert R(7, 1).is_rational
    assert not R(1, 2).is_rational
    with pytest.raises(ValueError):
        RadicalScalar(1, -2)


def test_serialization_roundtrip():
    x = R("-3/7", "18/5")
    rec = x.as_record()
    assert set(rec) == {"coeff", "radicand"}
    assert RadicalScalar.from_record(rec) == x


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(720) == (12, 5)
    assert squarefree_split(2**20) == (2**10, 1)
    # exact with no bound: square factors of large primes come out too
    p = 1000003
    assert squarefree_split(p * p) == (p, 1)
    assert squarefree_split(3 * p * p) == (p, 3)
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_squarefree_split_brute_force():
    for n in range(1, 3000):
        s, f = squarefree_split(n)
        assert s * s * f == n
        assert all(f % (d * d) for d in range(2, math.isqrt(f) + 1)), n


def test_squarefree_split_of_factorial_by_legendre():
    n = 60
    primes = [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]
    s = f = 1
    for p in primes:
        e = sum(n // p**k for k in range(1, 7))  # p**7 > 60 for every prime
        s *= p ** (e // 2)
        f *= p ** (e % 2)
    assert squarefree_split(math.factorial(n)) == (s, f)


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
small_nonneg = st.fractions(min_value=Fraction(0), max_value=Fraction(50), max_denominator=40)


@settings(max_examples=150, deadline=None)
@given(c1=rationals, d1=small_nonneg, c2=rationals, d2=small_nonneg)
def test_multiplicative_closure(c1, d1, c2, d2):
    x, y = RadicalScalar(c1, d1), RadicalScalar(c2, d2)
    z = x * y
    assert isinstance(z, RadicalScalar)
    assert z.square() == x.square() * y.square()
    assert z.sign() == x.sign() * y.sign()
    # the gcd product rule gives the same canonical form as a full reduction
    direct = RadicalScalar(c1 * c2, d1 * d2)
    assert (z.coeff, z.radicand) == (direct.coeff, direct.radicand)


@settings(max_examples=100, deadline=None)
@given(a=rationals, b=rationals, c=rationals, d=small_nonneg)
def test_add_associative_commutative(a, b, c, d):
    x, y, z = RadicalScalar(a, d), RadicalScalar(b, d), RadicalScalar(c, d)
    assert (x + y) == (y + x)
    assert ((x + y) + z) == (x + (y + z))


@settings(max_examples=150, deadline=None)
@given(c=rationals, d=small_nonneg)
def test_square_to_float_within_2ulp(c, d):
    x = RadicalScalar(c, d)
    lhs = (x * x).to_float()
    f = x.to_float()
    rhs = f * f
    assert abs(lhs - rhs) <= 2 * math.ulp(max(abs(lhs), abs(rhs), 1e-300))


@settings(max_examples=150, deadline=None)
@given(c1=rationals, d1=small_nonneg, c2=rationals, d2=small_nonneg)
def test_cmp_matches_floats(c1, d1, c2, d2):
    x, y = RadicalScalar(c1, d1), RadicalScalar(c2, d2)
    cmp = x.compare(y)
    fx, fy = x.to_float(), y.to_float()
    if abs(fx - fy) > 1e-12 * (1 + abs(fx) + abs(fy)):
        assert cmp == (-1 if fx < fy else 1)
    if cmp == 0:
        assert x.square() == y.square() and x.sign() == y.sign()
