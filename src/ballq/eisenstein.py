"""Exact arithmetic in the cyclotomic field Q(rho), rho = exp(2*pi*i/3).

An element is stored uniquely as its reduced integer triple (a, b, d),
meaning (a + b*rho)/d with d > 0 and gcd(a, b, d) = 1 (Cohen, GTM 138,
section 2.4).  Each field operation builds its result's triple with one gcd.
Frozen, the base of the package's immutable classes, and fraction_text,
the package's one printer of a rational, live here, at the bottom of the
package's imports.  The module imports neither fractions nor re when it
loads: only from_string parses, and it imports both when called.
"""

from __future__ import annotations

import sys
from math import gcd

_RHO_SUFFIXES = ("ρ", "r")
Triple = tuple[int, int, int]


def _operand(value: object) -> Triple | None:
    """The triple of an Eisenstein number, int or Fraction; else None.  A
    Fraction exists only once its module is loaded, so the module is looked
    up here, never imported."""
    if isinstance(value, EisensteinNumber):
        return value.triple
    if isinstance(value, int):
        return value.numerator, 0, 1
    fractions = sys.modules.get("fractions")
    return ((value.numerator, 0, value.denominator)
            if fractions and isinstance(value, fractions.Fraction) else None)


def _lowest_terms(a: int, d: int) -> tuple[int, int]:
    g = gcd(a, d)
    return a // g, d // g


def fraction_text(a: int, d: int) -> str:
    """The rational a/d, d > 0, as Fraction prints it: "p" or "p/q" in
    lowest terms."""
    p, q = _lowest_terms(a, d)
    return f"{p}/{q}" if q > 1 else str(p)


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

    def __eq__(self, other: object) -> bool:
        return self.triple == other.triple if type(other) is EisensteinNumber else NotImplemented

    def __hash__(self) -> int:
        return hash(self.triple)

    def __repr__(self) -> str:
        # Each part as Fraction's repr writes it.
        return "EisensteinNumber(re_part=Fraction({}, {}), rho_part=Fraction({}, {}))".format(
            *_lowest_terms(*self.triple[::2]), *_lowest_terms(*self.triple[1:]))

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

    def __bool__(self) -> bool:
        return bool(self.triple[0] or self.triple[1])

    def __str__(self) -> str:
        a, b, d = self.triple
        if not b:
            return fraction_text(a, d)
        return (f"{fraction_text(a, d) if a else ''}{'+' if a and b > 0 else ''}"
                f"{fraction_text(b, d)}ρ")

    @classmethod
    def from_string(cls, text: str) -> EisensteinNumber:
        """Parse "a/b+c/dρ" (ASCII "r" is accepted in place of "ρ")."""
        import re
        from fractions import Fraction

        compact = text.strip().replace(" ", "").replace("*", "")
        terms = re.findall(r"[+-]?[^+-]+", compact)
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
