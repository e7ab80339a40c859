"""Curves and automorphisms on a product of two complex tori.

The product torus has coordinates [w, z].  Supported curves are graphs
w = slope*z + offset (including constant graphs, slope = 0) and vertical
fibers z = z0.  A graph stores z -> slope*z as an integer matrix in the
lattices' bases (Lattice.multiplier_matrix), and an automorphism is one
such matrix per factor and its translations' keys, so every map works on
keys through one formula (_affine_image): images of points, curves and
fibers, composition and powers.  A point is its key:
a graph's offset and a fiber's base point are torus point keys, and a
point set is a list of keys, six ints per point.  Points are read back
into Q(rho) (Lattice.value) only to print, on the first read of
Intersection.points.
Intersections are solved in integers: for two graphs with matrix
difference A, the solutions of A*z = offset difference (mod Z^2) are A^-1
applied to it plus the classes of Z^2 / A*Z^2, which the coset grid of a
Hermite basis lists.  Equality has one rule: lattices and tori compare as
sets, and curves and fibers compare their integer data, coordinates in
their lattices' stored bases; stored in other bases, they are unequal.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd, lcm

from .eisenstein import EisensteinNumber, Frozen
from .lattices import coset_grid, point_key


class ProductTorus(namedtuple("ProductTorus", "lattice_w lattice_z")):
    """G_w x G_z for G_w = C/lattice_w and G_z = C/lattice_z.  Like its
    lattices, it has no hash."""

    __slots__ = ()
    __hash__ = None


def _same_bases(a: ProductTorus, b: ProductTorus) -> bool:
    return a is b or (a.lattice_w.same_basis(b.lattice_w)
                      and a.lattice_z.same_basis(b.lattice_z))


def _require_same_bases(a: ProductTorus, b: ProductTorus) -> None:
    """Integer formulas read keys and matrices as coordinates in one basis."""
    if not _same_bases(a, b):
        raise ValueError("lattices are not stored in the same bases")


class GraphCurve(Frozen):
    """The curve {[slope*z + offset, z]} on a product torus.

    Well-definedness (slope * z-lattice contained in the w-lattice) is
    checked at construction, where the slope's integer matrix from z- to
    w-lattice coordinates is computed; it fails for slopes that do not
    carry one period lattice into the other.  The slope is kept only as
    that matrix, and the offset only as its key in the w-lattice's basis.
    Two curves are equal when they are stored in the same bases and their
    matrices and offset keys agree.
    """

    ambient: ProductTorus
    offset: tuple[int, int, int]
    matrix: tuple[int, int, int, int]

    def __init__(self, ambient: ProductTorus, slope: object, offset: object) -> None:
        slope = EisensteinNumber(slope)
        try:
            matrix = ambient.lattice_z.multiplier_matrix(slope, ambient.lattice_w)
        except ValueError as exc:
            raise ValueError(f"graph with slope {slope} is not well defined: {exc}") from exc
        vars(self).update(ambient=ambient, matrix=matrix,
                          offset=ambient.lattice_w.key(EisensteinNumber(offset)))

    @classmethod
    def from_matrix(cls, ambient: ProductTorus, matrix: tuple, offset: tuple) -> "GraphCurve":
        """The graph through [offset, 0] whose slope has the integer matrix
        `matrix`, for the key offset in ambient's w-lattice basis."""
        curve = object.__new__(cls)
        vars(curve).update(ambient=ambient, offset=offset, matrix=matrix)
        return curve

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphCurve):
            return NotImplemented
        return (_same_bases(self.ambient, other.ambient) and self.matrix == other.matrix
                and self.offset == other.offset)


class VerticalFiber(Frozen):
    """The curve {z = z0} on a product torus, z0 stored only as its key in
    the z-lattice's basis.  Like graphs, fibers are equal when they are
    stored in the same bases and their keys agree; a fiber has no hash."""

    ambient: ProductTorus
    z0: tuple[int, int, int]

    def __init__(self, ambient: ProductTorus, z0: object) -> None:
        vars(self).update(ambient=ambient, z0=ambient.lattice_z.key(EisensteinNumber(z0)))

    @classmethod
    def from_key(cls, ambient: ProductTorus, z0: tuple) -> "VerticalFiber":
        """The fiber over the point with key z0 in ambient's z-lattice basis."""
        fiber = object.__new__(cls)
        vars(fiber).update(ambient=ambient, z0=z0)
        return fiber

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VerticalFiber):
            return NotImplemented
        return _same_bases(self.ambient, other.ambient) and self.z0 == other.z0


IDENTITY_MATRIX = (1, 0, 0, 1)
ZERO_KEY = (0, 0, 1)


class TorusAutomorphism(Frozen):
    """Affine automorphism [w, z] -> [lw*w + cw, lz*z + cz], as integers.

    Both multipliers must map the respective period lattices onto
    themselves, so the map descends to the product torus: matrices holds
    their integer matrices in the lattices' bases (w first), of determinant
    1, and translations the point keys of cw and cz.  The constructor takes
    Q(rho) inputs and keeps only these (Cohen, GTM 138, section 2.4).
    """

    ambient: ProductTorus
    matrices: tuple[tuple[int, int, int, int], ...]
    translations: tuple[tuple[int, int, int], ...]

    def __init__(self, ambient, lambda_w, trans_w, lambda_z, trans_z) -> None:
        lambda_w, lambda_z = EisensteinNumber(lambda_w), EisensteinNumber(lambda_z)
        lattices = ambient.lattice_w, ambient.lattice_z
        matrices = tuple(lattice.multiplier_matrix(factor, lattice)
                         for factor, lattice in zip((lambda_w, lambda_z), lattices))
        if any(p * t - q * r != 1 for p, q, r, t in matrices):
            raise ValueError(f"multipliers {lambda_w}, {lambda_z} must map "
                             "their lattices onto themselves")
        translations = tuple(lattice.key(EisensteinNumber(c))
                             for c, lattice in zip((trans_w, trans_z), lattices))
        vars(self).update(ambient=ambient, matrices=matrices, translations=translations)

    def map_key(self, key: tuple[int, ...]) -> tuple[int, ...]:
        """The key of the image of the point with six-int key `key`, read
        as coordinates in the ambient lattices' bases."""
        (m_w, m_z), (c_w, c_z) = self.matrices, self.translations
        return _affine_image(key[:3], m_w, c_w) + _affine_image(key[3:], m_z, c_z)

    def compose(self, other: "TorusAutomorphism") -> "TorusAutomorphism":
        """self after other: x -> M(Nx + d) + c = MN*x + (Md + c) per factor."""
        _require_same_bases(self.ambient, other.ambient)
        composed = object.__new__(TorusAutomorphism)
        vars(composed).update(
            ambient=self.ambient,
            translations=tuple(map(_affine_image, other.translations, self.matrices,
                                   self.translations)),
            matrices=tuple(map(_matmul, self.matrices, other.matrices)))
        return composed

    def is_identity(self) -> bool:
        return (self.matrices == (IDENTITY_MATRIX, IDENTITY_MATRIX)
                and self.translations == (ZERO_KEY, ZERO_KEY))


def _matmul(m: tuple[int, ...], n: tuple[int, ...]) -> tuple[int, int, int, int]:
    """m after n, for matrices (p, q, r, t) of (x, y) -> (p*x + r*y, q*x + t*y)."""
    p, q, r, t = m
    a, b, c, d = n
    return p * a + r * b, q * a + t * b, p * c + r * d, q * c + t * d


def _affine_image(key: tuple[int, int, int], matrix: tuple[int, int, int, int],
                  translation: tuple[int, int, int]) -> tuple[int, int, int]:
    """The key of M*x + c modulo 1, in integers: x's coordinates
    (rs, rt)/den go to (M(rs, rt)*cd + (cs, ct)*den) / (den*cd), for the
    translation's numerators (cs, ct, cd)."""
    p, q, r, t = matrix
    cs, ct, cd = translation
    rs, rt, den = key
    return point_key((p * rs + r * rt) * cd + cs * den, (q * rs + t * rt) * cd + ct * den,
                     den * cd)


# ----------------------------------------------------------------------
# intersection solving
# ----------------------------------------------------------------------

POINTS = "points"
IDENTICAL = "identical"
EMPTY = "empty"


class Intersection(Frozen):
    """Result of intersecting two curves: the keys of a finite point set in
    coordinate order, or the degenerate outcomes for parallel graphs.  The
    points' (w, z) values are read from the keys in ambient when first read."""

    def __init__(self, kind: str, point_keys: tuple[tuple[int, ...], ...] = (),
                 ambient: ProductTorus | None = None) -> None:
        vars(self).update(kind=kind, point_keys=point_keys, ambient=ambient)

    @property
    def count(self) -> int:
        return len(self.point_keys)

    def keys(self) -> frozenset:
        return frozenset(self.point_keys)

    @cached_property
    def points(self) -> tuple[tuple[EisensteinNumber, EisensteinNumber], ...]:
        # A degenerate result has no points, and no ambient to read them in.
        ambient = self.ambient
        return tuple((ambient.lattice_w.value(key[:3]), ambient.lattice_z.value(key[3:]))
                     for key in self.point_keys)

    def to_json(self) -> dict[str, object]:
        out: dict[str, object] = {"kind": self.kind}
        if self.kind == POINTS:
            out["count"] = self.count
            out["points"] = [{"w": str(w), "z": str(z)} for w, z in self.points]
        return out


def graph_difference(c1: GraphCurve, c2: GraphCurve) -> tuple[tuple[int, ...], int]:
    """The integer matrix of z -> (slope1 - slope2)*z from z- to w-lattice
    coordinates, and its determinant: the graphs meet in |det| points."""
    p, q, r, t = (x - y for x, y in zip(c1.matrix, c2.matrix))
    return (p, q, r, t), p * t - q * r


def intersect_graphs(c1: GraphCurve, c2: GraphCurve) -> Intersection:
    """The keys of all intersection points of two graph curves, sorted by
    coordinates; equal slopes give "identical" or "empty".
    Both curves must be given in the same stored lattice bases, since the
    solver reads their matrices and offset keys as coordinates."""
    _require_same_bases(c1.ambient, c2.ambient)
    rs1, rt1, e1 = c1.offset
    rs2, rt2, e2 = c2.offset
    if c1.matrix == c2.matrix:
        return Intersection(IDENTICAL if (rs1, rt1, e1) == (rs2, rt2, e2) else EMPTY)
    # In lattice coordinates the slope difference maps z = (x, y) to
    # w = (p*x + r*y, q*x + t*y), and the offsets differ by (ds, dt)/e.  So
    # the solutions are z = A^-1 ((ds, dt) + e*k)/e for k in Z^2 modulo
    # A*Z^2, with A^-1 = adj(A)/det: integer numerators over D = |det|*e.
    a, c, b, d = c1.matrix
    (p, q, r, t), det = graph_difference(c1, c2)
    e = lcm(e1, e2)
    ds, dt = rs2 * (e // e2) - rs1 * (e // e1), rt2 * (e // e2) - rt1 * (e // e1)
    sign = 1 if det > 0 else -1
    dz = sign * det * e
    zs0, zt0 = sign * (t * ds - r * dt), sign * (p * dt - q * ds)
    # The adjugate's columns times e: the z steps for k along each w axis.
    steps = (sign * e * t, -sign * e * q), (-sign * e * r, sign * e * p)
    d1, d2, axis = coset_grid(p, q, r, t)
    (s1, t1), (s2, t2) = steps[::-1] if axis else steps
    # w = slope1*z + offset1, its numerators over dz too (e1 divides e).
    ws0, wt0 = rs1 * (dz // e1), rt1 * (dz // e1)
    # Each solution is kept with its integer numerators: sorting by them
    # gives coordinate order, since every coordinate has one fixed
    # denominator.  The key divides out one gcd per coordinate.
    solutions = []
    for k1 in range(d1):
        zs1, zt1 = zs0 + k1 * s1, zt0 + k1 * t1
        for k2 in range(d2):
            zs, zt = (zs1 + k2 * s2) % dz, (zt1 + k2 * t2) % dz
            ws, wt = (a * zs + b * zt + ws0) % dz, (c * zs + d * zt + wt0) % dz
            g, h = gcd(ws, wt, dz), gcd(zs, zt, dz)
            solutions.append(((ws, wt, zs, zt),
                              (ws // g, wt // g, dz // g, zs // h, zt // h, dz // h)))
    solutions.sort()
    return Intersection(POINTS, tuple(key for _, key in solutions), c1.ambient)


def intersect_graph_fiber(c: GraphCurve, f: VerticalFiber) -> Intersection:
    """The key of the single point where a graph crosses a vertical fiber,
    w = A*z0 + o."""
    _require_same_bases(c.ambient, f.ambient)
    w = _affine_image(f.z0, c.matrix, c.offset)
    return Intersection(POINTS, (w + f.z0,), c.ambient)


# ----------------------------------------------------------------------
# automorphism actions
# ----------------------------------------------------------------------


def apply_auto_to_curve(f: TorusAutomorphism, c: GraphCurve) -> GraphCurve:
    """Image of a graph curve: matrix A' = M_w*A*adj(M_z), as det M_z = 1, and
    offset o' = w1 - A'*z1 for [w1, z1] = f([o, 0]), the image of a point on it."""
    _require_same_bases(f.ambient, c.ambient)
    (m_w, (p, q, r, t)), (c_w, c_z) = f.matrices, f.translations
    matrix = _matmul(_matmul(m_w, c.matrix), (t, -q, -r, p))
    w1 = _affine_image(c.offset, m_w, c_w)
    return GraphCurve.from_matrix(c.ambient, matrix,
                                  _affine_image(c_z, tuple(-x for x in matrix), w1))


# Above the order of any element of a bielliptic deck group (at most 6).
MAX_ORDER = 12


def _nontrivial_powers(f: TorusAutomorphism):
    """f, f**2, ... up to the first power that is the identity, which is
    not yielded; raises ValueError if none is within MAX_ORDER powers."""
    g = f
    for _ in range(MAX_ORDER):
        if g.is_identity():
            return
        yield g
        g = f.compose(g)
    raise ValueError(f"order exceeds {MAX_ORDER}")


def automorphism_order(f: TorusAutomorphism) -> int:
    """Least k <= MAX_ORDER with f**k the identity on the product torus."""
    return 1 + sum(1 for _ in _nontrivial_powers(f))


def is_free(f: TorusAutomorphism) -> bool:
    """True iff no nontrivial power of f fixes a point of the torus.

    Walks f, f**2, ... once and stops at the identity or at the first power
    with a fixed point; raises ValueError if neither turns up within
    MAX_ORDER powers."""
    # A power fixes a point iff each (M - 1)x = -c (mod Z^2) is solvable:
    # always for M != 1, and for a pure translation iff c is a period.
    return not any(all(m != IDENTITY_MATRIX or c == ZERO_KEY
                       for m, c in zip(g.matrices, g.translations))
                   for g in _nontrivial_powers(f))


def orbit_of_points(f: TorusAutomorphism, keys: list[tuple]) -> list[list[tuple]]:
    """Partition a stable set of point keys into orbits.

    Each orbit is listed starting from its least key and orbits are sorted
    by that representative.  f.map_key maps keys to keys, so no point is
    built; the keys must be coordinates in f's lattice bases.
    """
    index = set(keys)
    if len(index) != len(keys):
        raise ValueError("duplicate points in orbit input")
    remaining = set(index)
    orbits = []
    for key in sorted(keys):
        if key not in remaining:
            continue
        remaining.discard(key)
        orbit = [key]
        image = f.map_key(key)
        while image != key:
            if image not in index:
                raise ValueError("point set is not stable under the automorphism")
            if len(orbit) > len(keys):
                raise ValueError("orbit does not close up inside the point set")
            remaining.discard(image)
            orbit.append(image)
            image = f.map_key(image)
        orbits.append(orbit)
    return orbits
