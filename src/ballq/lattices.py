"""Rank-2 lattices in C with exact generators and their quotient machinery.

A lattice is stored by an ordered pair of R-linearly independent generators
in Q(rho).  Membership, containment and torus-point reduction read one
integer coordinate map, Lattice.numerators.  Multiplication by a factor
from one lattice into another is one integer 2x2 matrix,
Lattice.multiplier_matrix; a covering index is the determinant of the
sublattice generators' coordinates, and a quotient is enumerated as a box
read off a triangular (Hermite) form of that matrix, which takes one gcd.
A torus point is its key, its reduced integer coordinates (point_key):
Lattice.key is the one reduction of a Q(rho) value to a key, and
Lattice.value reads a key back as its representative in Q(rho), which the
package does only where a point is printed.  Curves, maps and point sets
hold keys.
"""

from __future__ import annotations

from math import gcd, lcm

from .eisenstein import EisensteinNumber, Frozen


class Lattice(Frozen):
    """The set {m*gen1 + n*gen2 : m, n integers} for independent generators.

    The stored basis is not canonical; lattices compare as sets, equal when
    one is a sublattice of index 1 in the other, so a lattice has no hash.
    The inverse basis and the generators are also kept as integers over
    their least common denominator each, read off the generators' triples.
    """

    gen1: EisensteinNumber
    gen2: EisensteinNumber
    _inverse_int: tuple[tuple[int, ...], int]
    _gens_int: tuple[tuple[int, ...], int]

    def __init__(self, gen1: EisensteinNumber, gen2: EisensteinNumber) -> None:
        # gen_k = (a_k + b_k*rho)/d_k has real and rho coordinates a_k/d_k and
        # b_k/d_k; their matrix has determinant det/(d1*d2), and its inverse
        # is (b2*d1, -a2*d1, -b1*d2, a1*d2)/det, kept in lowest terms.
        (a1, b1, d1), (a2, b2, d2) = gen1.triple, gen2.triple
        det = a1 * b2 - b1 * a2
        if det == 0:
            raise ValueError("lattice generators are R-linearly dependent")
        inv = (b2 * d1, -a2 * d1, -b1 * d2, a1 * d2)
        g = gcd(*inv, det) * (1 if det > 0 else -1)
        d = lcm(d1, d2)
        vars(self).update(gen1=gen1, gen2=gen2,
                          _inverse_int=(tuple(v // g for v in inv), det // g),
                          _gens_int=((a1 * (d // d1), b1 * (d // d1),
                                      a2 * (d // d2), b2 * (d // d2)), d))

    def numerators(self, x: EisensteinNumber) -> tuple[int, int, int]:
        """Integers (s, t, den) with x = (s*gen1 + t*gen2)/den and den > 0:
        for x = (a + b*rho)/d, den is the inverse basis's denominator
        times d."""
        (i00, i01, i10, i11), e = self._inverse_int
        a, b, d = x.triple
        return i00 * a + i01 * b, i10 * a + i11 * b, e * d

    def contains(self, x: EisensteinNumber) -> tuple[int, int] | None:
        """Integer coordinates (m, n) with x = m*gen1 + n*gen2, or None."""
        s, t, den = self.numerators(x)
        if s % den or t % den:
            return None
        return s // den, t // den

    def key(self, x: EisensteinNumber) -> tuple[int, int, int]:
        """The key of x's point on the torus C/lattice (point_key)."""
        return point_key(*self.numerators(x))

    def value(self, key: tuple[int, int, int]) -> EisensteinNumber:
        """The representative (rs*gen1 + rt*gen2)/den of the point with key
        (rs, rt, den), from the integer generators: key(value(k)) == k."""
        (g1a, g1b, g2a, g2b), gd = self._gens_int
        rs, rt, den = key
        return EisensteinNumber.from_triple(rs * g1a + rt * g2a, rs * g1b + rt * g2b, den * gd)

    def same_basis(self, other: "Lattice") -> bool:
        """Whether integer coordinates (keys, matrices) in both agree."""
        return self is other or (self.gen1 == other.gen1 and self.gen2 == other.gen2)

    def multiplier_matrix(self, factor: EisensteinNumber,
                          target: "Lattice") -> tuple[int, int, int, int]:
        """Integers (p, q, r, t) with factor*gen1 = p*target.gen1 + q*target.gen2
        and factor*gen2 = r*target.gen1 + t*target.gen2: the matrix of
        x -> factor*x from this lattice's basis to target's.  Raises
        ValueError unless factor carries this lattice into target."""
        c1, c2 = target.contains(factor * self.gen1), target.contains(factor * self.gen2)
        if c1 is None or c2 is None:
            raise ValueError(f"multiplication by {factor} does not carry the lattice "
                             f"into {target.gen1}, {target.gen2}")
        return c1 + c2

    def index_in(self, other: "Lattice") -> int | None:
        """Covering degree [other : self], or None unless self is a
        sublattice of other: the determinant of its generators' integer
        coordinates in other's basis."""
        c1, c2 = other.contains(self.gen1), other.contains(self.gen2)
        if c1 is None or c2 is None:
            return None
        (p, q), (r, t) = c1, c2
        return abs(p * t - q * r)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.same_basis(other) or self.index_in(other) == 1

    def to_json(self) -> dict[str, str]:
        return {"gen1": str(self.gen1), "gen2": str(self.gen2)}


def coset_grid(p: int, q: int, r: int, t: int) -> tuple[int, int, int]:
    """(d1, d2, axis) for the sublattice of Z^2 spanned by (p, q) and (r, t),
    with pt - qr nonzero: the classes of Z^2 modulo it are exactly the
    points k1*e1 + k2*e2 for 0 <= k1 < d1 and 0 <= k2 < d2, one per class,
    where (e1, e2) is the standard basis for axis 0 and the swapped one for
    axis 1.  For sub in sup, (p, q, r, t) = sub.multiplier_matrix(ONE, sup)
    gives the classes of sup/sub in sup's basis.

    With det = |pt - qr|, column operations give the sublattice the Hermite
    basis (g, e), (0, det/g) for g = gcd(p, r) (Cohen, GTM 138, section
    2.4.2).  So the box g x det/g along (e1, e2) meets each class once: a
    class fixes the first coordinate modulo g, and then the second modulo
    det/g.  The same holds for gcd(q, t) along (e2, e1); the box with the
    smaller first side is returned, which keeps the inner k2 range long.
    """
    det = abs(p * t - q * r)
    g1, g2 = gcd(p, r), gcd(q, t)
    if g2 < g1:
        return g2, det // g2, 1
    return g1, det // g1, 0


def point_key(s: int, t: int, den: int) -> tuple[int, int, int]:
    """The key of the torus point with coordinates (s/den, t/den), den > 0:
    both numerators taken modulo den, in lowest terms."""
    s, t = s % den, t % den
    g = gcd(s, t, den)
    return s // g, t // g, den // g
