"""Rank-2 lattices in C with exact generators and their quotient machinery.

A lattice is stored by an ordered pair of R-linearly independent generators
in Q(rho).  Membership, containment, covering indices, coset enumeration
and torus-point reduction all read one integer coordinate map,
Lattice.numerators; a quotient sup/sub is enumerated as a box read off a
triangular (Hermite) basis of sub, which takes one gcd.  A torus point
stores only its key, its reduced integer coordinates.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .eisenstein import EisensteinNumber


def _over_common_denominator(values: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """(numerators, den) with values[i] == numerators[i] / den and den > 0."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


@dataclass(frozen=True, eq=False)
class Lattice:
    """The set {m*gen1 + n*gen2 : m, n integers} for independent generators.

    The stored basis is not canonical; lattices compare equal exactly when
    each contains the other's generators.  The inverse basis and the
    generators are also kept as integers over one common denominator each.
    """

    gen1: EisensteinNumber
    gen2: EisensteinNumber
    _inverse_int: tuple[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    _gens_int: tuple[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g1, g2 = self.gen1, self.gen2
        det = g1.re_part * g2.rho_part - g1.rho_part * g2.re_part
        if det == 0:
            raise ValueError("lattice generators are R-linearly dependent")
        inv = (g2.rho_part / det, -g2.re_part / det, -g1.rho_part / det, g1.re_part / det)
        object.__setattr__(self, "_inverse_int", _over_common_denominator(inv))
        object.__setattr__(self, "_gens_int", _over_common_denominator(
            (g1.re_part, g1.rho_part, g2.re_part, g2.rho_part)))

    def numerators(self, x: EisensteinNumber) -> tuple[int, int, int]:
        """Integers (s, t, den) with x = (s*gen1 + t*gen2)/den and den > 0:
        for x = a + b*rho, den is the inverse basis's denominator times
        den(a)*den(b)."""
        (i00, i01, i10, i11), e = self._inverse_int
        a, b = x.re_part, x.rho_part
        ad, bd = a.denominator, b.denominator
        an, bn = a.numerator * bd, b.numerator * ad
        return i00 * an + i01 * bn, i10 * an + i11 * bn, e * ad * bd

    def coordinates(self, x: EisensteinNumber) -> tuple[Fraction, Fraction]:
        """Exact rational (s, t) with x = s*gen1 + t*gen2."""
        s, t, den = self.numerators(x)
        return Fraction(s, den), Fraction(t, den)

    def from_coordinates(self, s: Fraction, t: Fraction) -> EisensteinNumber:
        g1, g2 = self.gen1, self.gen2
        return EisensteinNumber(s * g1.re_part + t * g2.re_part,
                                s * g1.rho_part + t * g2.rho_part)

    def contains(self, x: EisensteinNumber) -> tuple[int, int] | None:
        """Integer coordinates (m, n) with x = m*gen1 + n*gen2, or None."""
        s, t, den = self.numerators(x)
        if s % den or t % den:
            return None
        return s // den, t // den

    def is_sublattice_of(self, other: "Lattice") -> bool:
        return other.contains(self.gen1) is not None and other.contains(self.gen2) is not None

    def index_in(self, other: "Lattice") -> int:
        """Covering degree [other : self] for a finite-index sublattice."""
        p, q, r, t = _coordinates_in(self, other)
        return abs(p * t - q * r)

    def scaled(self, factor: EisensteinNumber) -> "Lattice":
        return Lattice(factor * self.gen1, factor * self.gen2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        if self.gen1 == other.gen1 and self.gen2 == other.gen2:
            return True
        return self.is_sublattice_of(other) and other.is_sublattice_of(self)

    def to_json(self) -> dict[str, str]:
        return {"gen1": str(self.gen1), "gen2": str(self.gen2)}


def _coordinates_in(sub: Lattice, sup: Lattice) -> tuple[int, int, int, int]:
    """(p, q, r, t) with sub.gen1 = p*sup.gen1 + q*sup.gen2 and
    sub.gen2 = r*sup.gen1 + t*sup.gen2."""
    c1, c2 = sup.contains(sub.gen1), sup.contains(sub.gen2)
    if c1 is None or c2 is None:
        raise ValueError("not a sublattice")
    return c1 + c2


def coset_grid(sub: Lattice, sup: Lattice) -> tuple[int, int, EisensteinNumber,
                                                   EisensteinNumber]:
    """(d1, d2, b1, b2) such that the classes of sup/sub are exactly the
    k1*b1 + k2*b2 for 0 <= k1 < d1 and 0 <= k2 < d2, one per class.

    With sub's generators at (p, q) and (r, t) in sup's basis and
    det = |pt - qr|, column operations give sub the Hermite basis (g, e),
    (0, det/g) for g = gcd(p, r) (Cohen, GTM 138, section 2.4.2).  So the
    box g x det/g along (sup.gen1, sup.gen2) meets each class once: a class
    fixes the first coordinate modulo g, and then the second modulo det/g.
    The same holds for gcd(q, t) along (sup.gen2, sup.gen1); the box with
    the smaller first side is returned, which keeps the inner k2 range long.
    """
    p, q, r, t = _coordinates_in(sub, sup)
    det = abs(p * t - q * r)
    g1, g2 = gcd(p, r), gcd(q, t)
    if g2 < g1:
        return g2, det // g2, sup.gen2, sup.gen1
    return g1, det // g1, sup.gen1, sup.gen2


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A point of the torus C/lattice in canonical reduced form.

    TorusPoint(x, lattice) reduces x in integers (cf. Cohen, GTM 138,
    section 2.4): lattice.numerators gives both coordinates over one
    denominator, and each is taken modulo it, into [0, 1).  The point
    stores only its key: the reduced coordinates (rs/den, rt/den) in lowest
    terms, one int triple per point of the torus.  Its value, the
    representative in Q(rho), is built from the key on first read.
    """

    x: InitVar[EisensteinNumber]
    lattice: Lattice
    key: tuple[int, int, int] = field(init=False, compare=False)

    def __post_init__(self, x: EisensteinNumber) -> None:
        s, t, den = self.lattice.numerators(x)
        rs, rt = s % den, t % den
        g = gcd(rs, rt, den)
        object.__setattr__(self, "key", (rs // g, rt // g, den // g))

    @classmethod
    def from_reduced(cls, rs: int, rt: int, den: int, lattice: Lattice) -> "TorusPoint":
        """The point with coordinates (rs/den, rt/den) in the lattice's basis,
        for integers 0 <= rs, rt < den; only the gcd is left to divide out."""
        if not (0 <= rs < den and 0 <= rt < den):
            raise ValueError(f"numerators {rs}, {rt} are not reduced modulo {den}")
        g = gcd(rs, rt, den)
        point = object.__new__(cls)
        object.__setattr__(point, "lattice", lattice)
        object.__setattr__(point, "key", (rs // g, rt // g, den // g))
        return point

    @cached_property
    def value(self) -> EisensteinNumber:
        """(rs/den)*gen1 + (rt/den)*gen2, from the integer generators."""
        (g1a, g1b, g2a, g2b), gd = self.lattice._gens_int
        rs, rt, den = self.key
        vden = den * gd
        return EisensteinNumber(Fraction(rs * g1a + rt * g2a, vden),
                                Fraction(rs * g1b + rt * g2b, vden))

    @property
    def coords(self) -> tuple[Fraction, Fraction]:
        """The coordinates (s, t) in [0, 1) x [0, 1) in the lattice's basis."""
        rs, rt, den = self.key
        return Fraction(rs, den), Fraction(rt, den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusPoint):
            return NotImplemented
        if self.lattice.gen1 == other.lattice.gen1 and self.lattice.gen2 == other.lattice.gen2:
            return self.key == other.key
        if self.lattice != other.lattice:
            return False
        return self.lattice.contains(self.value - other.value) is not None

    def order(self) -> int:
        """Least k >= 1 with k*value in the lattice.  That is the least
        common denominator of the coordinates, the key's last entry."""
        return self.key[2]
