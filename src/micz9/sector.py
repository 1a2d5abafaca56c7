"""Quantum-number bookkeeping for one degenerate block.

A sector fixes (n, Q, L, J) plus the electric charge Z and carries the
scalar constants attached to it: the bound-state energy, the exponential
scale alpha = 2*sqrt(-2E), and the eigenvalues of the ninth Runge-Lenz
component on the parabolic states.  The angular label lambda runs from
(L+J)/2 up to n+Q/2 in unit steps, which forces Q and L+J to share
parity; incompatible inputs are rejected rather than rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, order=True)
class HalfInt:
    """Integer or half-odd-integer, stored exactly as twice its value."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise ValidationError(f"HalfInt stores twice the value as int, got {self.twice!r}")

    @classmethod
    def from_value(cls, value) -> "HalfInt":
        f = Fraction(value)
        if f.denominator not in (1, 2):
            raise ValidationError(f"{value} is not an integer or half-odd-integer")
        return cls(f.numerator * (2 // f.denominator))

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __str__(self):
        return str(self.fraction)

    def __repr__(self):
        return f"HalfInt({self.fraction})"


def as_fraction(x) -> Fraction:
    """Exact Fraction from HalfInt, int, or Fraction."""
    if isinstance(x, HalfInt):
        return x.fraction
    return Fraction(x)


@dataclass(frozen=True)
class Sector:
    """Validated (n, Q, L, J; Z) block.  Construct through validate_sector."""

    n: int
    Q: int
    L: int
    J: int
    Z: Fraction = Fraction(1)

    @property
    def m(self) -> HalfInt:
        """n + Q/2, the top of the angular ladder."""
        return HalfInt(2 * self.n + self.Q)

    @property
    def lam_min(self) -> HalfInt:
        """(L+J)/2, the bottom of the angular ladder."""
        return HalfInt(self.L + self.J)

    @property
    def size(self) -> int:
        """Block dimension N = n + Q/2 - (L+J)/2 + 1."""
        return (2 * self.n + self.Q - self.L - self.J) // 2 + 1

    def key(self) -> Tuple[int, int, int, int, Fraction]:
        return (self.n, self.Q, self.L, self.J, self.Z)

    def __str__(self):
        return f"(n={self.n}, Q={self.Q}, L={self.L}, J={self.J}, Z={self.Z})"


def validate_sector(n: int, Q: int, L: int, J: int, Z=1) -> Sector:
    """Validate quantum numbers and return the sector.

    Raises NegativeQuantumNumber, ParityMismatch (Q and L+J differ in
    parity), EmptySector (dimension < 1) or NonpositiveCharge.
    """
    for name, v in (("n", n), ("Q", Q), ("L", L), ("J", J)):
        if not isinstance(v, int):
            raise ValidationError(f"{name} must be an integer, got {v!r}")
        if v < 0:
            raise NegativeQuantumNumber(f"{name} = {v} must be non-negative")
    Z = Fraction(Z)
    if Z <= 0:
        raise NonpositiveCharge(f"Z = {Z} must be positive")
    if (Q - L - J) % 2 != 0:
        raise ParityMismatch(f"Q = {Q} and L+J = {L + J} must have equal parity")
    s = Sector(n, Q, L, J, Z)
    if s.size < 1:
        raise EmptySector(f"sector {s} has dimension {s.size}")
    return s


def lambda_range(s: Sector) -> list[HalfInt]:
    """Ascending angular labels, (L+J)/2 .. n+Q/2 in unit steps (length N)."""
    return [HalfInt(s.lam_min.twice + 2 * i) for i in range(s.size)]


def lambda_index(s: Sector, lam) -> Tuple[Fraction, int]:
    """(lambda, its ladder position from 0); LambdaOutOfRange off the ladder."""
    lo, hi = s.lam_min.fraction, s.m.fraction
    try:
        l = as_fraction(lam)
    except (TypeError, ValueError, OverflowError):
        l = None
    if l is None or not lo <= l <= hi or (l - lo).denominator != 1:
        raise LambdaOutOfRange(f"lambda = {lam} outside {lo}..{hi} for sector {s}")
    return l, int(l - lo)


def np_index(s: Sector, n_p) -> int:
    """n_p as an int; IndexOutOfRange unless it is an integer in 0..N-1."""
    try:
        f = as_fraction(n_p)
    except (TypeError, ValueError, OverflowError):
        f = None
    if f is None or f.denominator != 1 or not 0 <= f < s.size:
        raise IndexOutOfRange(f"n_p = {n_p} outside 0..{s.size - 1} for sector {s}")
    return int(f)


def np_range(s: Sector) -> list[int]:
    """Parabolic labels 0 .. N-1."""
    return list(range(s.size))


def energy(s: Sector) -> Fraction:
    """Bound-state energy -Z^2 / (2 (n + 4 + Q/2)^2), exactly."""
    return -2 * s.Z * s.Z / Fraction((2 * s.n + s.Q + 8) ** 2)


def alpha_scale(s: Sector) -> Fraction:
    """Exponential scale alpha = 4Z/(2n+Q+8); satisfies alpha^2 = -8E."""
    return 4 * s.Z / Fraction(2 * s.n + s.Q + 8)


def m9_parabolic_eigenvalue(s: Sector, n_p: int) -> HalfInt:
    """Eigenvalue n + Q/2 - J - 2 n_p of the ninth Runge-Lenz component."""
    return HalfInt(2 * s.n + s.Q - 2 * s.J - 4 * np_index(s, n_p))


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
