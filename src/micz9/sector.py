"""Quantum-number bookkeeping for one degenerate block.

A sector fixes (n, Q, L, J) plus the electric charge Z and carries the
scalar constants attached to it: the bound-state energy and the
exponential scale alpha = 2*sqrt(-2E).  The angular label lambda runs from
(L+J)/2 up to n+Q/2 in unit steps, which forces Q and L+J to share
parity; incompatible inputs are rejected rather than rounded.  A label is
twice its value, an int, and a Fraction only where returned.  Z takes no
part in a sector's equality: what is cached per sector serves every charge.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Tuple

from .errors import (
    EmptySector,
    IndexOutOfRange,
    LambdaOutOfRange,
    NegativeQuantumNumber,
    NonpositiveCharge,
    ParityMismatch,
    ValidationError,
)


def _short(x: Fraction) -> str:
    """x to 6 significant digits, for a message; in decimal, so no size overflows."""
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        return format(decimal.Decimal(x.numerator) / x.denominator, ".6g")


def _clip(text: str, limit: int = 80) -> str:
    """text cut to at most limit bytes of UTF-8, ending in "..." if cut: user text in a message."""
    raw = text.encode()
    return text if len(raw) <= limit else raw[: limit - 3].decode(errors="ignore") + "..."


# |decimal exponent| of a charge's leading digit; a float spans 10^-324 .. 10^308
_MAX_DECIMAL_EXPONENT = 1000
_MAX_DIGITS_BOUND = 10 ** (_MAX_DECIMAL_EXPONENT + 1)  # and its numerator and denominator stay below


def _decimal_exponent(text: str) -> int | None:
    """Decimal exponent of the leading digit of text written as mantissa e exponent, else None.

    Read without building 10^exponent, which Fraction(text) does in full.
    """
    mantissa, e, exponent = text.strip().lower().rpartition("e")
    if not e:
        return None
    try:
        return int(exponent) + decimal.Decimal(mantissa).adjusted()
    except (ValueError, ArithmeticError):  # Fraction rejects these itself, at once
        return None


def _rational(name: str, x) -> Fraction:
    """x as a Fraction; ValidationError naming x unless it is a finite rational.

    A decimal text whose leading digit lies beyond 10^(+-_MAX_DECIMAL_EXPONENT)
    is refused before its Fraction is built, and one whose numerator or denominator reaches
    _MAX_DIGITS_BOUND after: no text of it or its energy passes Python's 4,300-digit limit.
    A text with "_" is refused: Fraction reads 1_0 as 10 from Python 3.11 only.
    """
    if isinstance(x, str):
        if "_" in x:
            raise ValidationError(f"cannot parse {name} = {_clip(repr(x))} as a rational")
        exponent = _decimal_exponent(x)
        if exponent is not None and abs(exponent) > _MAX_DECIMAL_EXPONENT:
            raise ValidationError(
                f"{name} = {_clip(x)} is out of range: its decimal exponent {_clip(str(exponent), 20)}"
                f" is outside {-_MAX_DECIMAL_EXPONENT}..{_MAX_DECIMAL_EXPONENT}"
            )
    try:
        q = Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse {name} = {_clip(repr(x))} as a rational") from exc
    if max(abs(q.numerator), q.denominator) >= _MAX_DIGITS_BOUND:
        shown = _clip(x) if isinstance(x, str) else _short(q)
        raise ValidationError(f"{name} = {shown} is out of range: its numerator or denominator"
                              f" has more than {_MAX_DECIMAL_EXPONENT + 1} digits")
    return q


# the largest block accepted: wavefield.MAX_RULE_NODES, the largest Gauss rule, is 1024 nodes
MAX_BLOCK = 1024


@dataclass(frozen=True)
class Sector:
    """Validated (n, Q, L, J; Z) block from validate_sector; Z takes no part in its equality."""

    n: int
    Q: int
    L: int
    J: int
    Z: Fraction = field(default=Fraction(1), compare=False)

    @property
    def size(self) -> int:
        """Block dimension N = n + Q/2 - (L+J)/2 + 1."""
        return (2 * self.n + self.Q - self.L - self.J) // 2 + 1

    def __str__(self):
        return f"(n={self.n}, Q={self.Q}, L={self.L}, J={self.J}, Z={_short(self.Z)})"


def validate_sector(n: int, Q: int, L: int, J: int, Z=1) -> Sector:
    """Validate quantum numbers and return the sector.

    Raises NegativeQuantumNumber, ParityMismatch (Q and L+J differ in parity),
    EmptySector (N < 1), NonpositiveCharge or ValidationError (Z not rational,
    or N above MAX_BLOCK).
    """
    for name, v in (("n", n), ("Q", Q), ("L", L), ("J", J)):
        if not isinstance(v, int):
            raise ValidationError(f"{name} must be an integer, got {v!r}")
        if v < 0:
            raise NegativeQuantumNumber(f"{name} = {v} must be non-negative")
    Z = _rational("Z", Z)
    if Z <= 0:
        raise NonpositiveCharge(f"Z = {_short(Z)} must be positive")
    if (Q - L - J) % 2 != 0:
        raise ParityMismatch(f"Q = {Q} and L+J = {L + J} must have equal parity")
    s = Sector(n, Q, L, J, Z)
    if s.size < 1:
        raise EmptySector(f"sector {s} has dimension {s.size}")
    if s.size > MAX_BLOCK:  # _short: N may have more digits than str() of an int allows
        raise ValidationError(
            f"sector dimension N = {_short(Fraction(s.size))} is above MAX_BLOCK = {MAX_BLOCK}")
    return s


def lambda_range(s: Sector) -> list[Fraction]:
    """Ascending angular labels, (L+J)/2 .. n+Q/2 in unit steps (length N)."""
    return [Fraction(l2, 2) for l2 in range(s.L + s.J, 2 * s.n + s.Q + 1, 2)]


def _twice(label):
    """Twice a label: an int for an int label, else a Fraction; None if not a number."""
    if isinstance(label, int):
        return 2 * label
    try:
        return 2 * Fraction(label)
    except (TypeError, ValueError, OverflowError):
        return None


def lambda_index(s: Sector, lam) -> Tuple[Fraction, int]:
    """(lambda, its ladder position from 0); LambdaOutOfRange off the ladder."""
    lo2, hi2 = s.L + s.J, 2 * s.n + s.Q  # twice the ends of the ladder
    twice = _twice(lam)
    if twice is None or not lo2 <= twice <= hi2 or (twice - lo2) % 2 != 0:
        raise LambdaOutOfRange(
            f"lambda = {lam} outside {Fraction(lo2, 2)}..{Fraction(hi2, 2)} for sector {s}"
        )
    return Fraction(twice, 2), (twice - lo2) // 2


def np_index(s: Sector, n_p) -> int:
    """n_p as an int; IndexOutOfRange unless it is an integer in 0..N-1."""
    twice = _twice(n_p)
    if twice is None or not 0 <= twice < 2 * s.size or twice % 2 != 0:
        raise IndexOutOfRange(f"n_p = {n_p} outside 0..{s.size - 1} for sector {s}")
    return twice // 2


def ratios(s: Sector) -> tuple[tuple[int, int], ...]:
    """Z, the energy and alpha as unreduced (num, den), whose int division num / den is float()."""
    zn, zd, d = s.Z.numerator, s.Z.denominator, 2 * s.n + s.Q + 8
    return (zn, zd), (-2 * zn * zn, (zd * d) ** 2), (4 * zn, zd * d)


def energy(s: Sector) -> Fraction:
    """Bound-state energy -Z^2 / (2 (n + 4 + Q/2)^2), exactly."""
    return Fraction(*ratios(s)[1])


def alpha_scale(s: Sector) -> Fraction:
    """Exponential scale alpha = 4Z/(2n+Q+8); satisfies alpha^2 = -8E."""
    return Fraction(*ratios(s)[2])


def enumerate_sectors(m_max=4, q_max: int = 4, lj_max: int = 4, Z=1) -> Iterator[Sector]:
    """All valid sectors with n + Q/2 <= m_max, Q <= q_max, L,J <= lj_max.

    This is the desk-scale sweep every cross-oracle suite runs over.
    """
    m_max = Fraction(m_max)
    for Q in range(q_max + 1):
        for L in range(lj_max + 1):
            for J in range(lj_max + 1):
                if (Q - L - J) % 2 != 0:
                    continue
                n = max(0, (L + J - Q + 1) // 2)  # smallest n with N >= 1
                while Fraction(2 * n + Q, 2) <= m_max:
                    yield validate_sector(n, Q, L, J, Z)
                    n += 1
