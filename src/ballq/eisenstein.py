"""Exact arithmetic in the cyclotomic field Q(rho), rho = exp(2*pi*i/3).

Every element is stored uniquely as a + b*rho with rational a and b, and
products reduce through the minimal polynomial rho**2 + rho + 1 = 0.  All
coefficients are arbitrary-precision rationals; nothing in this package
ever rounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_TERM_RE = re.compile(r"[+-]?[^+-]+")
_RHO_SUFFIXES = ("ρ", "r")


def _coerce_rational(value: Fraction | int) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {value!r}")


@dataclass(frozen=True)
class EisensteinNumber:
    """An element a + b*rho of Q(rho) with exact rational coefficients."""

    re_part: Fraction
    rho_part: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re_part", _coerce_rational(self.re_part))
        object.__setattr__(self, "rho_part", _coerce_rational(self.rho_part))

    # ------------------------------------------------------------------
    # field arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: object) -> "EisensteinNumber":
        other = _promote(other)
        if other is None:
            return NotImplemented
        return EisensteinNumber(self.re_part + other.re_part, self.rho_part + other.rho_part)

    __radd__ = __add__

    def __sub__(self, other: object) -> "EisensteinNumber":
        other = _promote(other)
        if other is None:
            return NotImplemented
        return EisensteinNumber(self.re_part - other.re_part, self.rho_part - other.rho_part)

    def __rsub__(self, other: object) -> "EisensteinNumber":
        other = _promote(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "EisensteinNumber":
        return EisensteinNumber(-self.re_part, -self.rho_part)

    def __mul__(self, other: object) -> "EisensteinNumber":
        other = _promote(other)
        if other is None:
            return NotImplemented
        a, b = self.re_part, self.rho_part
        c, d = other.re_part, other.rho_part
        # (a + b rho)(c + d rho) = ac + (ad + bc) rho + bd rho^2, rho^2 = -rho - 1
        return EisensteinNumber(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "EisensteinNumber":
        other = _promote(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: object) -> "EisensteinNumber":
        other = _promote(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> "EisensteinNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = EisensteinNumber(Fraction(1))
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self.re_part or self.rho_part)

    def conjugate(self) -> "EisensteinNumber":
        """Complex conjugate; rho-bar = rho**2 = -1 - rho."""
        return EisensteinNumber(self.re_part - self.rho_part, -self.rho_part)

    def norm(self) -> Fraction:
        """Field norm a**2 - a*b + b**2.  Nonnegative; zero only at zero."""
        a, b = self.re_part, self.rho_part
        return a * a - a * b + b * b

    def inverse(self) -> "EisensteinNumber":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse in Q(rho)")
        conj = self.conjugate()
        return EisensteinNumber(conj.re_part / n, conj.rho_part / n)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.rho_part:
            return str(self.re_part)
        rho_term = f"{self.rho_part}ρ"
        if not self.re_part:
            return rho_term
        sign = "+" if self.rho_part > 0 else ""
        return f"{self.re_part}{sign}{rho_term}"

    @classmethod
    def from_string(cls, text: str) -> "EisensteinNumber":
        """Parse "a/b+c/dρ" (ASCII "r" is accepted in place of "ρ")."""
        compact = text.strip().replace(" ", "").replace("*", "")
        if not compact:
            raise ValueError("empty Eisenstein literal")
        terms = _TERM_RE.findall(compact)
        # Fraction would accept exponent notation and compute 10**exp in full.
        if "".join(terms) != compact or "e" in compact.lower():
            raise ValueError(f"malformed Eisenstein literal: {text!r}")
        re_acc = Fraction(0)
        rho_acc = Fraction(0)
        for term in terms:
            if term.endswith(_RHO_SUFFIXES):
                coeff = term[:-1]
                if coeff in ("", "+"):
                    rho_acc += 1
                elif coeff == "-":
                    rho_acc -= 1
                else:
                    rho_acc += Fraction(coeff)
            else:
                re_acc += Fraction(term)
        return cls(re_acc, rho_acc)


def _promote(value: object) -> EisensteinNumber | None:
    if isinstance(value, EisensteinNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return EisensteinNumber(Fraction(value))
    return None


def eis(re_part: Fraction | int, rho_part: Fraction | int = 0) -> EisensteinNumber:
    """Shorthand constructor for a + b*rho."""
    return EisensteinNumber(_coerce_rational(re_part), _coerce_rational(rho_part))


ZERO = EisensteinNumber(Fraction(0))
ONE = EisensteinNumber(Fraction(1))
RHO = EisensteinNumber(Fraction(0), Fraction(1))
RHO2 = RHO * RHO
