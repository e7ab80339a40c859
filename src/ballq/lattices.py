"""Rank-2 lattices in C with exact generators and their quotient machinery.

A lattice is stored by an ordered pair of R-linearly independent generators
in Q(rho).  Membership, containment, covering indices and coset enumeration
are all integer linear algebra on exact coordinates; quotients are
enumerated through the Smith normal form of 2x2 integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .eisenstein import EisensteinNumber


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _over_common_denominator(values: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """(numerators, den) with values[i] == numerators[i] / den and den > 0."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


@dataclass(frozen=True)
class IntegerMatrix2x2:
    """Row-major 2x2 integer matrix ((a, b), (c, d))."""

    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def identity() -> "IntegerMatrix2x2":
        return IntegerMatrix2x2(1, 0, 0, 1)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "IntegerMatrix2x2") -> "IntegerMatrix2x2":
        return IntegerMatrix2x2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse_unimodular(self) -> "IntegerMatrix2x2":
        det = self.det()
        if abs(det) != 1:
            raise ValueError("matrix is not unimodular")
        return IntegerMatrix2x2(self.d * det, -self.b * det, -self.c * det, self.a * det)


def _clear_lower_left(d: IntegerMatrix2x2, u: IntegerMatrix2x2):
    if d.c == 0:
        return d, u
    if d.a != 0 and d.c % d.a == 0:
        # Plain elimination keeps the pivot; the xgcd transform below is
        # reserved for when it strictly shrinks the pivot, which is what
        # makes the reduction loop terminate.
        t = IntegerMatrix2x2(1, 0, -(d.c // d.a), 1)
    else:
        g, x, y = _xgcd(d.a, d.c)
        t = IntegerMatrix2x2(x, y, -(d.c // g), d.a // g)
    return t @ d, t @ u


def _clear_upper_right(d: IntegerMatrix2x2, v: IntegerMatrix2x2):
    if d.b == 0:
        return d, v
    if d.a != 0 and d.b % d.a == 0:
        t = IntegerMatrix2x2(1, -(d.b // d.a), 0, 1)
    else:
        g, x, y = _xgcd(d.a, d.b)
        t = IntegerMatrix2x2(x, -(d.b // g), y, d.a // g)
    return d @ t, v @ t


def smith_normal_form(
    m: IntegerMatrix2x2,
) -> tuple[IntegerMatrix2x2, IntegerMatrix2x2, IntegerMatrix2x2]:
    """Return (U, D, V) with U @ m @ V == D, U and V unimodular,
    D = diag(d1, d2) with d1, d2 >= 0 and d1 | d2.
    """
    u = IntegerMatrix2x2.identity()
    v = IntegerMatrix2x2.identity()
    d = m
    while True:
        while d.b != 0 or d.c != 0:
            d, u = _clear_lower_left(d, u)
            d, v = _clear_upper_right(d, v)
        if d.a == 0 and d.d != 0:
            swap = IntegerMatrix2x2(0, 1, 1, 0)
            d, u, v = swap @ d @ swap, swap @ u, v @ swap
        if d.a < 0:
            neg = IntegerMatrix2x2(-1, 0, 0, 1)
            d, u = neg @ d, neg @ u
        if d.d < 0:
            neg = IntegerMatrix2x2(1, 0, 0, -1)
            d, u = neg @ d, neg @ u
        if d.a != 0 and d.d % d.a != 0:
            # Mix the second column into the first and rediagonalize; the
            # top-left entry strictly drops to gcd(d1, d2), so this ends.
            mix = IntegerMatrix2x2(1, 0, 1, 1)
            d, v = d @ mix, v @ mix
            continue
        break
    return u, d, v


@dataclass(frozen=True, eq=False)
class Lattice:
    """The set {m*gen1 + n*gen2 : m, n integers} for independent generators.

    The stored basis is not canonical; lattices compare equal exactly when
    each contains the other's generators.  The inverse basis and the
    generators are also kept as integers over one common denominator each,
    for TorusPoint's reduction.
    """

    gen1: EisensteinNumber
    gen2: EisensteinNumber
    _inverse_basis: tuple[Fraction, Fraction, Fraction, Fraction] = field(
        init=False, repr=False, compare=False
    )
    _inverse_int: tuple[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    _gens_int: tuple[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g1, g2 = self.gen1, self.gen2
        det = g1.re_part * g2.rho_part - g1.rho_part * g2.re_part
        if det == 0:
            raise ValueError("lattice generators are R-linearly dependent")
        inv = (g2.rho_part / det, -g2.re_part / det, -g1.rho_part / det, g1.re_part / det)
        object.__setattr__(self, "_inverse_basis", inv)
        object.__setattr__(self, "_inverse_int", _over_common_denominator(inv))
        object.__setattr__(self, "_gens_int", _over_common_denominator(
            (g1.re_part, g1.rho_part, g2.re_part, g2.rho_part)))

    def coordinates(self, x: EisensteinNumber) -> tuple[Fraction, Fraction]:
        """Exact rational (s, t) with x = s*gen1 + t*gen2."""
        i00, i01, i10, i11 = self._inverse_basis
        return (i00 * x.re_part + i01 * x.rho_part, i10 * x.re_part + i11 * x.rho_part)

    def from_coordinates(self, s: Fraction, t: Fraction) -> EisensteinNumber:
        g1, g2 = self.gen1, self.gen2
        return EisensteinNumber(s * g1.re_part + t * g2.re_part,
                                s * g1.rho_part + t * g2.rho_part)

    def contains(self, x: EisensteinNumber) -> tuple[int, int] | None:
        """Integer coordinates (m, n) with x = m*gen1 + n*gen2, or None."""
        s, t = self.coordinates(x)
        if s.denominator == 1 and t.denominator == 1:
            return (int(s), int(t))
        return None

    def is_sublattice_of(self, other: "Lattice") -> bool:
        return other.contains(self.gen1) is not None and other.contains(self.gen2) is not None

    def coordinate_matrix_in(self, other: "Lattice") -> IntegerMatrix2x2:
        """Columns are the integer coordinates of this lattice's generators
        in the other lattice's basis."""
        c1 = other.contains(self.gen1)
        c2 = other.contains(self.gen2)
        if c1 is None or c2 is None:
            raise ValueError("not a sublattice")
        return IntegerMatrix2x2(c1[0], c2[0], c1[1], c2[1])

    def index_in(self, other: "Lattice") -> int:
        """Covering degree [other : self] for a finite-index sublattice."""
        return abs(self.coordinate_matrix_in(other).det())

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


def coset_grid(sub: Lattice, sup: Lattice) -> tuple[int, int, EisensteinNumber,
                                                   EisensteinNumber]:
    """(d1, d2, b1, b2) such that the classes of sup/sub are exactly the
    k1*b1 + k2*b2 for 0 <= k1 < d1 and 0 <= k2 < d2, one per class.

    The coordinate matrix M of sub in sup's basis is put in Smith normal
    form U M V = diag(d1, d2); (b1, b2) = sup-basis * U^{-1} is the adapted
    basis (Cohen, GTM 138, section 2.4).
    """
    m = sub.coordinate_matrix_in(sup)
    u, d, _ = smith_normal_form(m)
    if d.a == 0 or d.d == 0:
        raise ValueError("sublattice does not have finite index")
    uinv = u.inverse_unimodular()
    return (d.a, d.d, sup.from_coordinates(Fraction(uinv.a), Fraction(uinv.c)),
            sup.from_coordinates(Fraction(uinv.b), Fraction(uinv.d)))


def _value_at(lattice: Lattice, rs: int, rt: int, den: int) -> EisensteinNumber:
    """(rs/den)*gen1 + (rt/den)*gen2, from the integer generators."""
    (g1a, g1b, g2a, g2b), gd = lattice._gens_int
    vden = den * gd
    return EisensteinNumber(Fraction(rs * g1a + rt * g2a, vden),
                            Fraction(rs * g1b + rt * g2b, vden))


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A point of the torus C/lattice in canonical reduced form.

    The stored value is the unique representative whose coordinates in the
    lattice's own basis lie in [0, 1) x [0, 1); construction reduces any
    input value, so reduction is idempotent by definition.

    The reduction is integer arithmetic (cf. Cohen, GTM 138, section 2.4):
    with value = a + b*rho and the lattice's inverse basis over its common
    denominator e, both coordinates are integers over den = e*den(a)*den(b),
    and reducing them is a remainder modulo den.  The point's key is those
    remainders and den divided by their gcd: the coordinates (rs/den,
    rt/den) in lowest terms, one int triple per point of the torus.
    """

    value: EisensteinNumber
    lattice: Lattice
    key: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (i00, i01, i10, i11), e = self.lattice._inverse_int
        a, b = self.value.re_part, self.value.rho_part
        ad, bd = a.denominator, b.denominator
        an, bn = a.numerator * bd, b.numerator * ad
        den = e * ad * bd
        s, t = i00 * an + i01 * bn, i10 * an + i11 * bn
        rs, rt = s % den, t % den
        g = gcd(rs, rt, den)
        object.__setattr__(self, "key", (rs // g, rt // g, den // g))
        if rs != s or rt != t:
            object.__setattr__(self, "value", _value_at(self.lattice, *self.key))

    @classmethod
    def from_reduced(cls, rs: int, rt: int, den: int, lattice: Lattice) -> "TorusPoint":
        """The point with coordinates (rs/den, rt/den) in the lattice's basis,
        for integers 0 <= rs, rt < den; only the gcd is left to divide out."""
        if not (0 <= rs < den and 0 <= rt < den):
            raise ValueError(f"numerators {rs}, {rt} are not reduced modulo {den}")
        g = gcd(rs, rt, den)
        key = (rs // g, rt // g, den // g)
        point = object.__new__(cls)
        object.__setattr__(point, "lattice", lattice)
        object.__setattr__(point, "key", key)
        object.__setattr__(point, "value", _value_at(lattice, *key))
        return point

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

    def order(self, max_order: int = 64) -> int:
        """Least k >= 1 with k*value in the lattice.  That is the least
        common denominator of the coordinates, the key's last entry."""
        den = self.key[2]
        if den > max_order:
            raise ValueError(f"order exceeds {max_order}")
        return den
