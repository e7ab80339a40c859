"""Exact arithmetic in the cyclotomic field Q(rho), rho = exp(2*pi*i/3).

An element is stored uniquely as its reduced integer triple (a, b, d),
meaning (a + b*rho)/d with d > 0 and gcd(a, b, d) = 1 (Cohen, GTM 138,
section 2.4).  Each field operation builds its result's triple with one gcd.
Frozen, the base of the package's immutable classes, lives here, at the
bottom of the package's imports.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_TERM_RE = re.compile(r"[+-]?[^+-]+")
_RHO_SUFFIXES = ("ρ", "r")
Triple = tuple[int, int, int]


def _operand(value: object) -> Triple | None:
    """The triple of an Eisenstein number, int or Fraction; else None."""
    if isinstance(value, EisensteinNumber):
        return value.triple
    return (value.numerator, 0, value.denominator) if isinstance(value, (int, Fraction)) else None


def _sum(x: Triple, y: Triple, sign: int = 1) -> EisensteinNumber:
    (a, b, d), (c, e, f) = x, y
    return EisensteinNumber.from_triple(a * f + sign * c * d, b * f + sign * e * d, d * f)


def _product(x: Triple, y: Triple) -> EisensteinNumber:
    (a, b, d), (c, e, f) = x, y
    # (a + b rho)(c + e rho) = ac + (ae + bc) rho + be rho^2, rho^2 = -rho - 1
    return EisensteinNumber.from_triple(a * c - b * e, a * e + b * c - b * e, d * f)


def _reciprocal(x: Triple) -> Triple:
    """1/x unreduced: d/(a + b*rho) = d*(a - b - b*rho)/(a**2 - a*b + b**2)."""
    a, b, d = x
    n = a * a - a * b + b * b
    if n == 0:
        raise ZeroDivisionError("zero has no inverse in Q(rho)")
    return d * (a - b), -d * b, n


class Frozen:
    """An immutable object: its constructor sets each attribute once, through
    vars(self) or object.__setattr__, and any later assignment or deletion
    raises AttributeError.  Its repr lists the public attributes."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items()
                           if not name.startswith("_"))
        return f"{type(self).__name__}({fields})"


class EisensteinNumber(Frozen):
    """x + y*rho for ints, Fractions or Eisenstein numbers x and y.  Every
    number, arithmetic results included, is built by from_triple."""

    __slots__ = ("triple",)

    def __new__(cls, re_part: object = 0, rho_part: object = 0) -> EisensteinNumber:
        if type(re_part) is EisensteinNumber and type(rho_part) is int and not rho_part:
            return re_part  # promoting a number keeps it: it is immutable
        x, y = _operand(re_part), _operand(rho_part)
        if x is None or y is None:
            raise TypeError(f"not an int, Fraction or EisensteinNumber: {re_part!r}, {rho_part!r}")
        c, e, f = y  # y*rho = (c*rho + e*rho**2)/f = (-e + (c - e)*rho)/f
        return _sum(x, (-e, c - e, f))

    @staticmethod
    def from_triple(a: int, b: int, d: int) -> EisensteinNumber:
        """(a + b*rho)/d for integers a, b and d > 0, reduced by their gcd."""
        g = gcd(a, b, d)
        number = object.__new__(EisensteinNumber)
        object.__setattr__(number, "triple", (a // g, b // g, d // g))
        return number

    def __reduce__(self) -> tuple:
        return EisensteinNumber.from_triple, self.triple

    @property
    def re_part(self) -> Fraction:
        return Fraction(self.triple[0], self.triple[2])

    @property
    def rho_part(self) -> Fraction:
        return Fraction(self.triple[1], self.triple[2])

    def __eq__(self, other: object) -> bool:
        return self.triple == other.triple if type(other) is EisensteinNumber else NotImplemented

    def __hash__(self) -> int:
        return hash(self.triple)

    def __repr__(self) -> str:
        return f"EisensteinNumber(re_part={self.re_part!r}, rho_part={self.rho_part!r})"

    def __add__(self, other: object) -> EisensteinNumber:
        y = _operand(other)
        return NotImplemented if y is None else _sum(self.triple, y)

    __radd__ = __add__

    def __sub__(self, other: object) -> EisensteinNumber:
        y = _operand(other)
        return NotImplemented if y is None else _sum(self.triple, y, -1)

    def __mul__(self, other: object) -> EisensteinNumber:
        y = _operand(other)
        return NotImplemented if y is None else _product(self.triple, y)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> EisensteinNumber:
        y = _operand(other)
        return NotImplemented if y is None else _product(self.triple, _reciprocal(y))

    def __pow__(self, exponent: int) -> EisensteinNumber:
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent < 2:
            return self if exponent else ONE
        half = self ** (exponent >> 1)  # square and multiply
        return half * half * self if exponent & 1 else half * half

    def __bool__(self) -> bool:
        return bool(self.triple[0] or self.triple[1])

    def __str__(self) -> str:
        re_part, rho_part = self.re_part, self.rho_part
        sign = "+" if re_part and rho_part > 0 else ""
        return f"{re_part or ''}{sign}{rho_part}ρ" if rho_part else str(re_part)

    @classmethod
    def from_string(cls, text: str) -> EisensteinNumber:
        """Parse "a/b+c/dρ" (ASCII "r" is accepted in place of "ρ")."""
        compact = text.strip().replace(" ", "").replace("*", "")
        terms = _TERM_RE.findall(compact)
        # Fraction would accept exponent notation and compute 10**exp in full.
        if not terms or "".join(terms) != compact or "e" in compact.lower():
            raise ValueError(f"malformed Eisenstein literal: {text!r}")
        parts = [Fraction(0), Fraction(0)]
        for term in terms:
            is_rho = term.endswith(_RHO_SUFFIXES)
            coeff = term[:-1] if is_rho else term
            # a bare sign, or nothing, before the rho stands for 1
            try:
                parts[is_rho] += Fraction(coeff + "1" if coeff in ("", "+", "-") else coeff)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"malformed Eisenstein literal: {text!r}") from exc
        return cls(*parts)


eis = EisensteinNumber  # shorthand: eis(a, b) is a + b*rho


ZERO = EisensteinNumber(0)
ONE = EisensteinNumber(1)
RHO = EisensteinNumber(0, 1)
RHO2 = RHO * RHO
