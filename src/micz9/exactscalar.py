"""Exact arithmetic over values of the form c*sqrt(d), rational c and d >= 0.

Every closed-form coefficient in this package (interbasis matrix entries,
tridiagonal couplings, Clebsch-Gordan values) is a rational number times
the square root of a non-negative rational, and all the bilinear
identities among them stay inside that class: the state-dependent part of
each radical squares away in the sums that matter.  Keeping the radicand
explicit therefore permits bit-exact orthogonality and recurrence checks
with no floating-point tolerance at all.

Radicands are reduced to canonical squarefree integers, exactly and with
no bound: squarefree_split trial-divides by 2 and the odd numbers, dividing
each factor out completely, and stops once the divisor squared exceeds
what is left.  That takes about max(p2, sqrt(p1)) divisions, p1 >= p2 the
two largest prime factors of the radicand; every radicand this package
builds is a product or quotient of factorials and small integers, so its
primes are O(n + Q + L + J).  A product of two canonical radicands a and
b needs no factoring at all: with g = gcd(a, b), a*b = g*g * (a/g)*(b/g),
and the last product is already squarefree.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import RadicandMismatch


def squarefree_split(n: int) -> tuple[int, int]:
    """Split n >= 1 exactly as s*s*f with f squarefree.

    Each divisor is divided out completely, so no composite divisor ever
    divides what is left; once d*d exceeds the remainder, that remainder is
    1 or a prime.
    """
    if n <= 0:
        raise ValueError("squarefree_split needs a positive integer")
    s = f = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    return s, f * n


class RadicalScalar:
    """Exact value coeff*sqrt(radicand); canonical radicand is a squarefree integer.

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
            object.__setattr__(self, "radicand", Fraction(1))
            return
        # sqrt(p/q) = sqrt(p*q)/q, then pull squares out of p*q
        p, q = radicand.numerator, radicand.denominator
        s, f = squarefree_split(p * q)
        object.__setattr__(self, "coeff", coeff * Fraction(s, q))
        object.__setattr__(self, "radicand", Fraction(f))

    def __setattr__(self, name, value):  # values are immutable
        raise AttributeError("RadicalScalar is immutable")

    @classmethod
    def _raw(cls, coeff: Fraction, radicand: Fraction) -> "RadicalScalar":
        """Bypass reduction for already-canonical components (internal)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "coeff", coeff)
        object.__setattr__(obj, "radicand", radicand)
        return obj

    @classmethod
    def zero(cls) -> "RadicalScalar":
        return cls._raw(Fraction(0), Fraction(1))

    @classmethod
    def from_rational(cls, x) -> "RadicalScalar":
        x = Fraction(x)
        if x == 0:
            return cls.zero()
        return cls._raw(x, Fraction(1))

    @classmethod
    def sqrt(cls, x) -> "RadicalScalar":
        """Exact sqrt of a non-negative rational."""
        return cls(Fraction(1), Fraction(x))

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coeff

    def square(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def sign(self) -> int:
        if self.coeff > 0:
            return 1
        if self.coeff < 0:
            return -1
        return 0

    def __mul__(self, other):
        if isinstance(other, RadicalScalar):
            if self.is_zero or other.is_zero:
                return RadicalScalar.zero()
            # canonical a, b: a*b = g*g*(a/g)*(b/g), the last product squarefree
            a, b = self.radicand.numerator, other.radicand.numerator
            g = math.gcd(a, b)
            return RadicalScalar._raw(
                self.coeff * other.coeff * g, Fraction((a // g) * (b // g))
            )
        if isinstance(other, (int, Fraction)):
            if other == 0 or self.is_zero:
                return RadicalScalar.zero()
            return RadicalScalar._raw(self.coeff * other, self.radicand)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        if self.is_zero:
            return self
        return RadicalScalar._raw(-self.coeff, self.radicand)

    def __add__(self, other):
        """Sum of radicals sharing a reduced radicand (or with either zero).

        Raises RadicandMismatch for incommensurable radicands: the sum would
        leave the c*sqrt(d) class, and the caller must fall back to floats.
        """
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.from_rational(other)
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.radicand != other.radicand:
            raise RadicandMismatch(
                f"cannot add sqrt({self.radicand}) and sqrt({other.radicand}) terms"
            )
        c = self.coeff + other.coeff
        if c == 0:
            return RadicalScalar.zero()
        return RadicalScalar._raw(c, self.radicand)

    __radd__ = __add__

    def compare(self, other) -> int:
        """Exact three-way comparison: sign analysis, then cross-squaring."""
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar.from_rational(other)
        sa, sb = self.sign(), other.sign()
        if sa != sb:
            return -1 if sa < sb else 1
        if sa == 0:
            return 0
        qa, qb = self.square(), other.square()
        if qa == qb:
            return 0
        less = qa < qb
        if sa < 0:
            less = not less
        return -1 if less else 1

    def __eq__(self, other):
        if isinstance(other, (RadicalScalar, int, Fraction)):
            return self.compare(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.sign(), self.square()))

    def to_float(self) -> float:
        """The value within 1 ulp, from one correctly rounded division and sqrt."""
        mag = math.sqrt(float(self.square()))
        return -mag if self.coeff < 0 else mag

    def as_record(self) -> dict:
        return {"coeff": str(self.coeff), "radicand": str(self.radicand)}  # both are Fractions

    @classmethod
    def from_record(cls, rec: dict) -> "RadicalScalar":
        return cls(Fraction(rec["coeff"]), Fraction(rec["radicand"]))

    def __str__(self):
        if self.is_rational:
            return str(self.coeff)
        return f"{self.coeff}*sqrt({self.radicand})"

    def __repr__(self):
        return f"RadicalScalar({self.coeff}, {self.radicand})"
