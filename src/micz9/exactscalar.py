"""Exact arithmetic over values of the form c*sqrt(d), rational c and d >= 0.

Every closed-form coefficient in this package (interbasis matrix entries,
tridiagonal couplings, Clebsch-Gordan values) is a rational number times
the square root of a non-negative rational, and all the bilinear
identities among them stay inside that class: the state-dependent part of
each radical squares away in the sums that matter.  Keeping the radicand
explicit therefore permits bit-exact orthogonality and recurrence checks
with no floating-point tolerance at all.

Radicands are reduced to canonical squarefree integers, exactly and with
no bound: squarefree_split reads the power of two from the low bits, then
trial-divides by the odd numbers, stripping each divisor's square with one
division until none is left, and stops once the divisor squared exceeds
what is left.  That takes about max(p2, sqrt(p1)) divisions, p1 >= p2 the
two largest prime factors of the radicand; every radicand this package
builds is a product or quotient of factorials and small integers, so its
primes are O(n + Q + L + J).  A product of two canonical radicands a and
b needs no factoring at all: with g = gcd(a, b), a*b = g*g * (a/g)*(b/g),
and the last product is already squarefree.  rational_root is the one root
kernel, sqrt(p/r) = (s/q) sqrt(f) in integers, for RadicalScalar and W alike;
sqrt_ratio is the one float root of an exact ratio, for W, K(a) and the norms,
and it underflows only where the root itself does.

RadicalScalar has only what its callers read: the constructor (a rational x
is RadicalScalar(x), sqrt(x) is RadicalScalar(1, x)), products, sums on one
radicand, equality, square and is_zero.  Its float is root_to_float of its
integers, coeff.numerator, coeff.denominator and radicand.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import RadicandMismatch
from .sector import _short


def squarefree_split(n: int) -> tuple[int, int]:
    """Split n >= 1 exactly as s*s*f with f squarefree.

    The power of two is read from the low bits.  Each odd divisor d of what
    is left has its square stripped with one division (divmod by d*d) until
    d*d no longer divides, and an odd power's last d goes to f; so d is
    divided out completely, no composite divisor ever divides what is left,
    and once d*d exceeds the remainder, that remainder is 1 or a prime.
    """
    if n <= 0:
        raise ValueError("squarefree_split needs a positive integer")
    e = (n & -n).bit_length() - 1
    n >>= e
    s, f = 1 << e // 2, 1 << e % 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            dd = d * d
            q, r = divmod(n, dd)
            while not r:
                n, s = q, s * d
                q, r = divmod(n, dd)
            if n % d == 0:
                n //= d
                f *= d
        d += 2
    return s, f * n


def rational_root(p: int, r: int) -> tuple[int, int, int]:
    """(s, q, f) with sqrt(p/r) = (s/q) sqrt(f), s/q in lowest terms and f squarefree; p, r >= 1."""
    s, f = squarefree_split(p * r)  # sqrt(p/r) = sqrt(p*r)/r
    g = math.gcd(s, r)
    return s // g, r // g, f


def sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p/q) within 1 ulp for ints p >= 0 and q > 0, from one division and one math.sqrt.

    The correctly rounded int true division is of p 4^j by q, an exact
    scaling that keeps the quotient from underflowing, and the root is
    scaled back by 2^-j: bitwise math.sqrt(p / q) wherever p/q is a normal
    float, and 0.0 only where the root itself is below the float range.  A
    quotient past the float range raises OverflowError.
    """
    j = max(0, (q.bit_length() - p.bit_length()) // 2)
    return math.ldexp(math.sqrt((p << 2 * j) / q), -j)


def root_to_float(num: int, den: int, radicand: int) -> float:
    """(num/den) sqrt(radicand) within 1 ulp: sqrt_ratio of num^2 radicand over den^2, signed."""
    mag = sqrt_ratio(num * num * radicand, den * den)
    return -mag if num < 0 else mag


class RadicalScalar:
    """Exact value coeff*sqrt(radicand): coeff a Fraction, radicand a squarefree int.

    Zero is canonically (0, 1); radicand == 1 iff the value is rational.
    """

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand=1):
        coeff = Fraction(coeff)
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError(f"negative radicand {radicand}")
        if coeff == 0 or radicand == 0:
            object.__setattr__(self, "coeff", Fraction(0))
            object.__setattr__(self, "radicand", 1)
            return
        s, q, f = rational_root(radicand.numerator, radicand.denominator)
        object.__setattr__(self, "coeff", coeff * Fraction(s, q))
        object.__setattr__(self, "radicand", f)

    def __setattr__(self, name, value):  # values are immutable
        raise AttributeError("RadicalScalar is immutable")

    @classmethod
    def _raw(cls, coeff: Fraction, radicand: int) -> "RadicalScalar":
        """Bypass reduction for already-canonical components (internal)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "coeff", coeff)
        object.__setattr__(obj, "radicand", radicand)
        return obj

    @classmethod
    def zero(cls) -> "RadicalScalar":
        return cls._raw(Fraction(0), 1)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def square(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __mul__(self, other):
        if isinstance(other, RadicalScalar):
            if self.is_zero or other.is_zero:
                return RadicalScalar.zero()
            # canonical a, b: a*b = g*g*(a/g)*(b/g), the last product squarefree
            a, b = self.radicand, other.radicand
            g = math.gcd(a, b)
            return RadicalScalar._raw(self.coeff * other.coeff * g, (a // g) * (b // g))
        if isinstance(other, (int, Fraction)):
            if other == 0 or self.is_zero:
                return RadicalScalar.zero()
            return RadicalScalar._raw(self.coeff * other, self.radicand)
        return NotImplemented

    def __add__(self, other):
        """Sum of radicals sharing a reduced radicand (or with either zero).

        Raises RadicandMismatch for incommensurable radicands: the sum would
        leave the c*sqrt(d) class, and the caller must fall back to floats.
        """
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar(other)
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.radicand != other.radicand:
            raise RadicandMismatch(  # a radicand may run to hundreds of digits: show 6
                f"cannot add sqrt({_short(self.radicand)}) and sqrt({_short(other.radicand)}) terms"
            )
        c = self.coeff + other.coeff
        if c == 0:
            return RadicalScalar.zero()
        return RadicalScalar._raw(c, self.radicand)

    def __eq__(self, other):
        """Equal values, so equal parts: every value is canonical; int and Fraction compare too."""
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar(other)
        if isinstance(other, RadicalScalar):
            return self.coeff == other.coeff and self.radicand == other.radicand
        return NotImplemented

    def __hash__(self):
        return hash(self.coeff if self.radicand == 1 else (self.coeff, self.radicand))  # int too

    def __repr__(self):
        return f"RadicalScalar({self.coeff}, {self.radicand})"
