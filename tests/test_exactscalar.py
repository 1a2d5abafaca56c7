"""Exact radical arithmetic: closure, equality, rounding, serialization."""

import decimal
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from micz9.errors import RadicandMismatch
from micz9.cli import _exact_text
from micz9.exactscalar import (
    RadicalScalar,
    rational_root,
    root_to_float,
    sqrt_ratio,
    squarefree_split,
)


def R(c, d=1):
    return RadicalScalar(Fraction(c), Fraction(d))


def _sign(x: RadicalScalar) -> int:
    return (x.coeff > 0) - (x.coeff < 0)


def _float(x: RadicalScalar) -> float:
    """x within 1 ulp, as root_to_float computes it from the integers of x."""
    return root_to_float(x.coeff.numerator, x.coeff.denominator, x.radicand)


def test_members_are_the_ones_the_package_reads():
    # a rational x is RadicalScalar(x), sqrt(x) is RadicalScalar(1, x), and a value's float
    # is root_to_float of its integers: no alias or float view rides on the class
    assert set(RadicalScalar.__dict__) - {"__doc__", "__module__", "__slots__"} == {
        "__init__", "__setattr__", "_raw", "zero", "is_zero", "square",
        "__mul__", "__add__", "__eq__", "__hash__", "__repr__", "coeff", "radicand",
    }


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
    w = _float(x)
    assert abs(w - 0.9797958971132712) < 1e-15
    assert x.square() == Fraction(24, 25)
    assert R("1/2", 8) == R(1, 2)  # sqrt(8)/2 == sqrt(2)


def test_to_float_examples():
    assert _float(R(1, 2)) == 1.4142135623730951
    assert _float(R("1/2", 2)) == 0.7071067811865476
    assert _float(R(0)) == 0.0
    assert _float(R(-1, 2)) == -1.4142135623730951


def test_canonical_forms():
    assert R(5, 0).coeff == 0 and R(5, 0).radicand == 1  # zero is (0, 1)
    assert R(1, 18) == R(3, 2)
    assert R(1, 18).radicand == 2
    assert R(7, 1).radicand == 1  # radicand 1 iff rational
    assert R(1, 2).radicand != 1
    with pytest.raises(ValueError):
        RadicalScalar(1, -2)


def test_serialization_roundtrip():
    # the CLI's exact matrix writer prints each entry as a {coeff, radicand} record
    x = R("-3/7", "18/5")
    text = "".join(_exact_text([[(x.coeff.numerator, x.coeff.denominator, x.radicand)]])(""))
    ((rec,),) = json.loads(text)
    assert set(rec) == {"coeff", "radicand"}
    assert RadicalScalar(Fraction(rec["coeff"]), Fraction(rec["radicand"])) == x


def test_rational_root():
    assert rational_root(18, 5) == (3, 5, 10)  # sqrt(18/5) = (3/5) sqrt(10)
    assert rational_root(16, 2) == (2, 1, 2)  # s/q comes in lowest terms
    for p in range(1, 60):
        for r in range(1, 60):
            s, q, f = rational_root(p, r)
            assert Fraction(s * s * f, q * q) == Fraction(p, r) and math.gcd(s, q) == 1
            assert squarefree_split(f) == (1, f), (p, r)


def test_root_to_float_is_the_value_of_the_printed_integers():
    assert root_to_float(-1, 2, 2) == -0.7071067811865476
    assert root_to_float(0, 1, 1) == 0.0
    assert root_to_float(3, 5, 10) == _float(R(1, "18/5"))


def test_root_to_float_keeps_a_value_whose_square_underflows():
    # (1/10^200)^2 = 1e-400 underflows: the root of that rounded square would be 0.0
    assert root_to_float(1, 10**200, 1) == 1e-200
    assert sqrt_ratio(1, 4**537) == 2.0**-537
    assert sqrt_ratio(1, 4**537 * 2**1000) == 2.0**-1037  # a subnormal root, exactly
    assert sqrt_ratio(1, 4**1200) == 0.0  # below the float range itself
    assert sqrt_ratio(0, 7) == 0.0
    with pytest.raises(OverflowError):
        sqrt_ratio(10**400, 1)  # the quotient, not only the root, must fit a float


def _decimal_root(p: int, q: int) -> float:
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return float((decimal.Decimal(p) / q).sqrt())


# p / q = m1 10^e1 / (m2 10^e2) from 10^-700 to 10^700: the normal float range and the
# quotients below it, whose roots are normal down to 1e-308 ** 2
_ratios = st.tuples(st.integers(0, 10**6), st.integers(0, 700),
                    st.integers(1, 10**6), st.integers(0, 700))


@settings(max_examples=300, deadline=None)
@given(_ratios)
def test_sqrt_ratio_is_math_sqrt_of_a_normal_quotient(ratio):
    m1, e1, m2, e2 = ratio
    p, q = m1 * 10**e1, m2 * 10**e2
    assume(p == 0 or sys.float_info.min <= Fraction(p, q) <= sys.float_info.max)
    assert sqrt_ratio(p, q).hex() == math.sqrt(p / q).hex()


@settings(max_examples=300, deadline=None)
@given(_ratios)
def test_sqrt_ratio_is_within_an_ulp_of_the_root(ratio):
    m1, e1, m2, e2 = ratio
    p, q = m1 * 10**e1, m2 * 10**e2
    assume(Fraction(p, q) <= sys.float_info.max)
    want = _decimal_root(p, q)
    assert abs(sqrt_ratio(p, q) - want) <= math.ulp(want)


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


_PRIMES_TO_97 = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def _split_by_parity(exponents: dict[int, int]) -> tuple[int, int]:
    """(s, f) of prod p^e: s = prod p^(e // 2), f = prod p^(e % 2)."""
    return (math.prod(p ** (e // 2) for p, e in exponents.items()),
            math.prod(p ** (e % 2) for p, e in exponents.items()))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=len(_PRIMES_TO_97), max_size=len(_PRIMES_TO_97)))
def test_squarefree_split_of_large_exponents_by_parity(exponents):
    # every prime <= 97 to a power up to 300: each square of a divisor is stripped in turn
    exponents = dict(zip(_PRIMES_TO_97, exponents))
    assert squarefree_split(math.prod(p**e for p, e in exponents.items())) == (
        _split_by_parity(exponents))


@settings(max_examples=40, deadline=None)
@given(st.integers(1000, 6000),
       st.lists(st.integers(0, 9), min_size=len(_PRIMES_TO_97) - 1,
                max_size=len(_PRIMES_TO_97) - 1),
       st.sampled_from([(1, 1), (1, 1000003), (1000003, 1)]))
def test_squarefree_split_of_a_large_power_of_two_by_parity(e, odd_exponents, big):
    # 2^e read from the low bits, e in the thousands, times an odd part of known factors and
    # big = (s, f), a prime past 97 left last in f or stripped as a square
    exponents = {2: e, **dict(zip(_PRIMES_TO_97[1:], odd_exponents))}
    s, f = _split_by_parity(exponents)
    n = math.prod(p**x for p, x in exponents.items()) * big[0] ** 2 * big[1]
    assert squarefree_split(n) == (s * big[0], f * big[1])


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
    assert _sign(z) == _sign(x) * _sign(y)
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
    lhs = _float(x * x)
    f = _float(x)
    rhs = f * f
    assert abs(lhs - rhs) <= 2 * math.ulp(max(abs(lhs), abs(rhs), 1e-300))


@settings(max_examples=150, deadline=None)
@given(c1=rationals, d1=small_nonneg, c2=rationals, d2=small_nonneg)
def test_eq_matches_floats(c1, d1, c2, d2):
    x, y = RadicalScalar(c1, d1), RadicalScalar(c2, d2)
    fx, fy = _float(x), _float(y)
    if abs(fx - fy) > 1e-12 * (1 + abs(fx) + abs(fy)):
        assert x != y
    if x == y:  # the same sign and square: the same correctly rounded float
        assert fx == fy


def _old_eq(x, y) -> bool:
    """The rule == used before it compared canonical parts: the same sign and the same square."""
    y = y if isinstance(y, RadicalScalar) else RadicalScalar(y)
    return _sign(x) == _sign(y) and x.square() == y.square()


_values = st.builds(RadicalScalar, rationals, small_nonneg)
# products and sums of constructed values, on a shared radicand so every sum is defined
_derived = st.one_of(
    _values,
    st.builds(lambda x, y: x * y, _values, _values),
    st.builds(lambda a, b, d: RadicalScalar(a, d) + RadicalScalar(b, d),
              rationals, rationals, small_nonneg),
)


@settings(max_examples=300, deadline=None)
@given(x=_derived, y=st.one_of(_derived, rationals, st.integers(-50, 50)))
def test_eq_on_canonical_parts_is_the_sign_and_square_rule(x, y):
    assert (x == y) == _old_eq(x, y)
    assert (y == x) == _old_eq(x, y)
    if x == y:  # equal values hash equal, an int or a Fraction among them
        assert hash(x) == hash(y)
    assert x == x * 1 and x == RadicalScalar(x.coeff, x.radicand)
