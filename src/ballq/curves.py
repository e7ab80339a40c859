"""Curves and automorphisms on a product of two complex tori.

The product torus has coordinates [w, z].  Supported curves are graphs
w = slope*z + offset (including constant graphs, slope = 0) and vertical
fibers z = z0.  Intersections are solved exactly: for two graphs with
slope difference M the solution set of M*z = offset difference (mod the
w-lattice) is a torsor under the finite group (M^-1 * w-lattice)/z-lattice,
which the coset grid of a Hermite basis lists exactly, in integer
coordinates.  The contains_point methods read Q(rho) values; they are a
brute-force check, and the build decides incidence from point keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .eisenstein import ONE, EisensteinNumber, _promote
from .lattices import Lattice, TorusPoint, _over_common_denominator, coset_grid


def _as_eisenstein(value: object) -> EisensteinNumber:
    promoted = _promote(value)
    if promoted is None:
        raise TypeError(f"expected an Eisenstein number, got {value!r}")
    return promoted


@dataclass(frozen=True)
class ProductTorus:
    """G_w x G_z for G_w = C/lattice_w and G_z = C/lattice_z."""

    lattice_w: Lattice
    lattice_z: Lattice

    def point(self, w: EisensteinNumber, z: EisensteinNumber) -> "ProductPoint":
        return ProductPoint(TorusPoint(_as_eisenstein(w), self.lattice_w),
                            TorusPoint(_as_eisenstein(z), self.lattice_z))


@dataclass(frozen=True)
class ProductPoint:
    """A point [w, z] of a product torus, both coordinates reduced.  Its
    key is the six ints w.key + z.key."""

    w: TorusPoint
    z: TorusPoint
    key: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", self.w.key + self.z.key)

    def to_json(self) -> dict[str, str]:
        return {"w": str(self.w.value), "z": str(self.z.value)}


@dataclass(frozen=True)
class GraphCurve:
    """The curve {[slope*z + offset, z]} on a product torus.

    Well-definedness (slope * z-lattice contained in the w-lattice) is
    checked at construction; it fails for slopes that do not carry one
    period lattice into the other.
    """

    ambient: ProductTorus
    slope: EisensteinNumber
    offset: TorusPoint

    def __init__(self, ambient: ProductTorus, slope: object, offset: object) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "slope", _as_eisenstein(slope))
        object.__setattr__(self, "offset", TorusPoint(_as_eisenstein(offset), ambient.lattice_w))
        lz, lw = ambient.lattice_z, ambient.lattice_w
        for gen in (lz.gen1, lz.gen2):
            if lw.contains(self.slope * gen) is None:
                raise ValueError(
                    f"graph with slope {self.slope} is not well defined: "
                    f"slope * {gen} is not a w-period"
                )

    def contains_point(self, p: ProductPoint) -> bool:
        diff = self.slope * p.z.value + self.offset.value - p.w.value
        return self.ambient.lattice_w.contains(diff) is not None


@dataclass(frozen=True)
class VerticalFiber:
    """The curve {z = z0} on a product torus."""

    ambient: ProductTorus
    z0: TorusPoint

    def __init__(self, ambient: ProductTorus, z0: object) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "z0", TorusPoint(_as_eisenstein(z0), ambient.lattice_z))

    def contains_point(self, p: ProductPoint) -> bool:
        return p.z == self.z0


@dataclass(frozen=True, eq=False)
class TorusAutomorphism:
    """Affine automorphism [w, z] -> [lw*w + cw, lz*z + cz].

    Both multipliers must preserve the respective period lattices (checked
    by two-way containment), so the map descends to the product torus.
    """

    ambient: ProductTorus
    lambda_w: EisensteinNumber
    trans_w: EisensteinNumber
    lambda_z: EisensteinNumber
    trans_z: EisensteinNumber

    def __init__(self, ambient, lambda_w, trans_w, lambda_z, trans_z) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "lambda_w", _as_eisenstein(lambda_w))
        object.__setattr__(self, "trans_w", _as_eisenstein(trans_w))
        object.__setattr__(self, "lambda_z", _as_eisenstein(lambda_z))
        object.__setattr__(self, "trans_z", _as_eisenstein(trans_z))
        _check_unit_scaling(self.lambda_w, ambient.lattice_w, "w")
        _check_unit_scaling(self.lambda_z, ambient.lattice_z, "z")

    def apply(self, p: ProductPoint) -> ProductPoint:
        lw, lz = self.ambient.lattice_w, self.ambient.lattice_z
        return ProductPoint(
            TorusPoint(self.lambda_w * p.w.value + self.trans_w, lw),
            TorusPoint(self.lambda_z * p.z.value + self.trans_z, lz),
        )

    def compose(self, other: "TorusAutomorphism") -> "TorusAutomorphism":
        """self after other."""
        return TorusAutomorphism(
            self.ambient,
            self.lambda_w * other.lambda_w,
            self.lambda_w * other.trans_w + self.trans_w,
            self.lambda_z * other.lambda_z,
            self.lambda_z * other.trans_z + self.trans_z,
        )

    def is_identity(self) -> bool:
        lw, lz = self.ambient.lattice_w, self.ambient.lattice_z
        return (self.lambda_w == ONE and self.lambda_z == ONE
                and lw.contains(self.trans_w) is not None
                and lz.contains(self.trans_z) is not None)


def _check_unit_scaling(factor: EisensteinNumber, lattice: Lattice, which: str) -> None:
    if not factor:
        raise ValueError(f"{which}-multiplier must be nonzero")
    inv = factor.inverse()
    for gen in (lattice.gen1, lattice.gen2):
        if lattice.contains(factor * gen) is None or lattice.contains(inv * gen) is None:
            raise ValueError(f"{which}-multiplier {factor} does not preserve the lattice")


# ----------------------------------------------------------------------
# intersection solving
# ----------------------------------------------------------------------

POINTS = "points"
IDENTICAL = "identical"
EMPTY = "empty"


@dataclass(frozen=True)
class Intersection:
    """Result of intersecting two curves: a finite point list, or the
    degenerate outcomes for parallel graphs."""

    kind: str
    points: tuple[ProductPoint, ...] = ()

    @property
    def count(self) -> int:
        return len(self.points)

    def keys(self) -> frozenset:
        return frozenset(p.key for p in self.points)

    def to_json(self) -> dict[str, object]:
        out: dict[str, object] = {"kind": self.kind}
        if self.kind == POINTS:
            out["count"] = self.count
            out["points"] = [p.to_json() for p in self.points]
        return out


def intersect_graphs(c1: GraphCurve, c2: GraphCurve) -> Intersection:
    """All intersection points of two graph curves, canonically reduced
    and sorted by coordinates; equal slopes give "identical" or "empty"."""
    if c1.ambient != c2.ambient:
        raise ValueError("curves live on different product tori")
    if c1.slope == c2.slope:
        return Intersection(IDENTICAL if c1.offset == c2.offset else EMPTY)
    lw = c1.ambient.lattice_w
    lz = c1.ambient.lattice_z
    m_inv = (c1.slope - c2.slope).inverse()
    d1, d2, b1, b2 = coset_grid(lz, lw.scaled(m_inv))
    # z side: the solutions z0 + k1*b1 + k2*b2 in z-lattice coordinates,
    # numerators over one denominator dz.
    z0 = m_inv * (c2.offset.value - c1.offset.value)
    (s0, t0, s1, t1, s2, t2), dz = _over_common_denominator(
        lz.coordinates(z0) + lz.coordinates(b1) + lz.coordinates(b2))
    # w side: w = slope*z + offset.  z -> slope*z is the integer matrix
    # (a, b; c, d) from z- to w-lattice coordinates (the curve checked that
    # slope * z-lattice lies in the w-lattice); the offset's coordinates are
    # numerators over dw (its key).  Both are then numerators over dz*dw.
    (a, c), (b, d) = (lw.contains(c1.slope * gen) for gen in (lz.gen1, lz.gen2))
    ws0, wt0, dw = c1.offset.key
    dzw = dz * dw
    ws0, wt0 = ws0 * dz, wt0 * dz
    # Sorting the integer numerators gives coordinate order, since every
    # coordinate has one fixed denominator.
    numerators = []
    for k1 in range(d1):
        zs1, zt1 = s0 + k1 * s1, t0 + k1 * t1
        for k2 in range(d2):
            zs, zt = (zs1 + k2 * s2) % dz, (zt1 + k2 * t2) % dz
            numerators.append(((dw * (a * zs + b * zt) + ws0) % dzw,
                               (dw * (c * zs + d * zt) + wt0) % dzw, zs, zt))
    numerators.sort()
    points = tuple(ProductPoint(TorusPoint.from_reduced(ws, wt, dzw, lw),
                                TorusPoint.from_reduced(zs, zt, dz, lz))
                   for ws, wt, zs, zt in numerators)
    return Intersection(POINTS, points)


def intersect_graph_fiber(c: GraphCurve, f: VerticalFiber) -> ProductPoint:
    """The single point where a graph crosses a vertical fiber."""
    if c.ambient != f.ambient:
        raise ValueError("curve and fiber live on different product tori")
    w = TorusPoint(c.slope * f.z0.value + c.offset.value, c.ambient.lattice_w)
    return ProductPoint(w, f.z0)


# ----------------------------------------------------------------------
# automorphism actions
# ----------------------------------------------------------------------


def apply_auto_to_curve(f: TorusAutomorphism, c: GraphCurve) -> GraphCurve:
    """Image of a graph curve; again a graph, with
    slope' = lw * slope / lz and offset' = lw*offset + cw - slope'*cz."""
    if f.ambient != c.ambient:
        raise ValueError("automorphism and curve live on different product tori")
    slope = f.lambda_w * c.slope * f.lambda_z.inverse()
    offset = f.lambda_w * c.offset.value + f.trans_w - slope * f.trans_z
    return GraphCurve(c.ambient, slope, offset)


def automorphism_order(f: TorusAutomorphism, max_order: int = 64) -> int:
    """Least k <= max_order with f**k the identity on the product torus."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    g = f
    for k in range(1, max_order + 1):
        if g.is_identity():
            return k
        g = f.compose(g)
    raise ValueError(f"order exceeds {max_order}")


def _power_has_fixed_point(g: TorusAutomorphism) -> bool:
    # Coordinates are independent: a fixed point exists iff each coordinate
    # equation (lambda - 1) x = -translation (mod lattice) is solvable.  For
    # lambda != 1 the equation is always solvable on the torus; for a pure
    # translation it is solvable iff the translation is a period.
    lw, lz = g.ambient.lattice_w, g.ambient.lattice_z
    w_ok = g.lambda_w != ONE or lw.contains(g.trans_w) is not None
    z_ok = g.lambda_z != ONE or lz.contains(g.trans_z) is not None
    return w_ok and z_ok


def is_free(f: TorusAutomorphism, max_order: int = 64) -> bool:
    """True iff no nontrivial power of f fixes a point of the torus.

    Walks f, f**2, ... once and stops at the identity or at the first power
    with a fixed point; raises ValueError if neither turns up within
    max_order powers."""
    g = f
    for _ in range(max_order):
        if g.is_identity():
            return True
        if _power_has_fixed_point(g):
            return False
        g = f.compose(g)
    raise ValueError(f"order exceeds {max_order}")


def orbit_of_curves(f: TorusAutomorphism, c: GraphCurve,
                    max_order: int = 64) -> list[GraphCurve]:
    """[c, f(c), f(f(c)), ...] until the orbit closes up."""
    orbit = [c]
    current = apply_auto_to_curve(f, c)
    while current != c:
        if len(orbit) >= max_order:
            raise ValueError(f"curve orbit exceeds {max_order}")
        orbit.append(current)
        current = apply_auto_to_curve(f, current)
    return orbit


def orbit_of_points(f: TorusAutomorphism,
                    points: list[ProductPoint]) -> list[list[ProductPoint]]:
    """Partition a stable point set into orbits.

    Each orbit is listed starting from its point of least key and orbits
    are sorted by that representative.
    """
    index = {p.key: p for p in points}
    if len(index) != len(points):
        raise ValueError("duplicate points in orbit input")
    remaining = set(index)
    orbits = []
    for p in sorted(points, key=lambda q: q.key):
        if p.key not in remaining:
            continue
        remaining.discard(p.key)
        orbit = [p]
        q = f.apply(p)
        while q.key != p.key:
            if q.key not in index:
                raise ValueError("point set is not stable under the automorphism")
            if len(orbit) > len(points):
                raise ValueError("orbit does not close up inside the point set")
            remaining.discard(q.key)
            orbit.append(q)
            q = f.apply(q)
        orbits.append(orbit)
    return orbits
