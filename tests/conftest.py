"""Shared helpers: an independent coordinate map and brute-force
intersection oracle, a graph's slope, point membership and the
automorphism action read in Q(rho), the curve-orbit walk, a reference
certificate of a log pair, rational coordinate helpers that the library
does not need, random generators for property suites, and patches that
wrap or break one stage of build_family.  A point is a six-int key, as in
the library, or the pair (w, z) of its coordinates' values in Q(rho)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import lcm

from ballq import families
from ballq.curves import (GraphCurve, ProductTorus, TorusAutomorphism, VerticalFiber,
                          apply_auto_to_curve)
from ballq.eisenstein import EisensteinNumber, eis
from ballq.lattices import Lattice
from ballq.surfaces import (SMOOTH_ELLIPTIC, SMOOTH_RATIONAL, BMYClass, CurveRecord, LogPair,
                            SurfaceModel, volume_from_chi)


def fraction_coordinates(lattice: Lattice, x: EisensteinNumber) -> tuple[Fraction, Fraction]:
    """(s, t) with x = s*gen1 + t*gen2, by Cramer's rule on the real and rho
    parts of the generators in Fraction arithmetic; independent of
    Lattice.numerators."""
    g1, g2 = lattice.gen1, lattice.gen2
    det = g1.re_part * g2.rho_part - g2.re_part * g1.rho_part
    return ((x.re_part * g2.rho_part - g2.re_part * x.rho_part) / det,
            (g1.re_part * x.rho_part - x.re_part * g1.rho_part) / det)


def coordinates(lattice: Lattice, x: EisensteinNumber) -> tuple[Fraction, Fraction]:
    """(s, t) with x = s*gen1 + t*gen2, read off Lattice.numerators."""
    s, t, den = lattice.numerators(x)
    return Fraction(s, den), Fraction(t, den)


def from_coordinates(lattice: Lattice, s: Fraction, t: Fraction) -> EisensteinNumber:
    """s*gen1 + t*gen2."""
    g1, g2 = lattice.gen1, lattice.gen2
    return EisensteinNumber(s * g1.re_part + t * g2.re_part, s * g1.rho_part + t * g2.rho_part)


def scaled(lattice: Lattice, factor: EisensteinNumber) -> Lattice:
    """The lattice factor * lattice, with basis factor * (gen1, gen2)."""
    return Lattice(factor * lattice.gen1, factor * lattice.gen2)


def closed_form_points(n: int) -> list[tuple[EisensteinNumber, EisensteinNumber]]:
    """Literal transcription of the predicted intersection locus, as (w, z)
    values in Q(rho)."""
    return [(w, w + m) for w in (Fraction(2, 3) + families.ORDER3_SHIFT * l for l in range(3))
            for m in range(n)]


def closed_form_keys(torus: ProductTorus, n: int) -> frozenset:
    return frozenset(torus.lattice_w.key(w) + torus.lattice_z.key(z)
                     for w, z in closed_form_points(n))


def slope_of(curve: GraphCurve) -> EisensteinNumber:
    """A graph's multiplier, read off its matrix's first column (p, q):
    slope*gen1 of the z-lattice is p*gen1 + q*gen2 of the w-lattice."""
    (lw, lz), (p, q) = (curve.ambient.lattice_w, curve.ambient.lattice_z), curve.matrix[:2]
    return (lw.gen1 * p + lw.gen2 * q) / lz.gen1


def contains_point(curve: GraphCurve | VerticalFiber,
                   point: tuple[EisensteinNumber, EisensteinNumber]) -> bool:
    """Whether the point with values (w, z) lies on the curve, decided in
    Q(rho): the oracle of the keyed incidence."""
    (w, z), (lw, lz) = point, curve.ambient
    if isinstance(curve, VerticalFiber):
        return lz.contains(z - lz.value(curve.z0)) is not None
    return lw.contains(slope_of(curve) * z + lw.value(curve.offset) - w) is not None


def orbit_of_curves(f: TorusAutomorphism, c: GraphCurve,
                    max_order: int = 64) -> list[GraphCurve]:
    """[c, f(c), f(f(c)), ...] until the orbit closes up: the walk the deck
    orbit checks are tested against."""
    orbit = [c]
    current = apply_auto_to_curve(f, c)
    while current != c:
        if len(orbit) >= max_order:
            raise ValueError(f"curve orbit exceeds {max_order}")
        orbit.append(current)
        current = apply_auto_to_curve(f, current)
    return orbit


def apply_automorphism(f: TorusAutomorphism, point: tuple) -> tuple:
    """The values of the image under f of the point with values (w, z):
    per factor, f's matrix applied to the Cramer's-rule coordinates, plus
    the translation's value.  Independent of f.map_key."""
    image = []
    for x, lattice, (p, q, r, t), translation in zip(point, f.ambient, f.matrices,
                                                      f.translations):
        s, u = fraction_coordinates(lattice, x)
        image.append(from_coordinates(lattice, p * s + r * u, q * s + t * u)
                     + lattice.value(translation))
    return tuple(image)


def k_dot(model: SurfaceModel, curve: str) -> int:
    """K.C for a smooth curve C, by adjunction on its kind: -C^2 for an
    elliptic curve, -C^2 - 2 for a rational one."""
    kind, self_int = model.kind(curve), model.curves[curve].self_int
    if kind == SMOOTH_ELLIPTIC:
        return -self_int
    if kind == SMOOTH_RATIONAL:
        return -self_int - 2
    raise ValueError(f"curve {curve!r} is singular; blow up its multiple points first")


def reference_certificate(pair: LogPair) -> dict[str, object]:
    """The certify fragment of a pair from the general formulas, which do
    not use that the boundary is disjoint and elliptic: c1bar^2 = (K + D)^2
    = K^2 + sum(2*K.T + T^2) + 2*sum(T.T') over boundary pairs, each pairing
    (K + D).T with the other components' crossings added, the nef test on
    those numbers, and the BMY class computed only after the nef test has
    passed.  The oracle of surfaces.certify_pair."""
    surface, boundary = pair.surface, pair.boundary
    c1, c2 = surface.k2, surface.chi_top
    for name in boundary:
        c1 += 2 * k_dot(surface, name) + surface.curves[name].self_int
    crossings = surface.pairs_among(boundary)
    for _, _, value in crossings:
        c1 += 2 * value
    pairings = {name: k_dot(surface, name) + surface.curves[name].self_int for name in boundary}
    for a, b, value in crossings:
        pairings[a] += value
        pairings[b] += value
    nef = {"log_canonical_self_int": c1, "boundary_pairings": pairings,
           "passed": c1 > 0 and all(v >= 0 for v in pairings.values())}
    if not nef["passed"]:
        bmy = BMYClass.NOT_APPLICABLE
    elif c1 == 3 * c2:
        bmy = BMYClass.EQUALITY
    elif c1 < 3 * c2:
        bmy = BMYClass.STRICT_INEQUALITY
    else:
        bmy = BMYClass.VIOLATION
    return {"log_c1_squared": c1, "log_c2": c2, "bmy": bmy.value, "nef": nef,
            "cusps": len(boundary), "volume": volume_from_chi(c2)}


EISENSTEIN_OPERATIONS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__",
                         "__pow__", "from_triple")


def clear_lattice_caches() -> None:
    """Empty the per-process caches of the family lattices, so that the
    next build constructs its lattices again."""
    for cached in (families.base_lattice, families.level_lattice, families.albanese_lattice):
        cached.cache_clear()


def wrap_stage(monkeypatch, name, wrapper) -> None:
    """Make build_family run wrapper(stage, b) in place of its stage
    called name, where stage is the function it replaces."""
    stage = dict(families._STAGES)[name]
    monkeypatch.setattr(families, "_STAGES", tuple(
        (other, partial(wrapper, stage) if other == name else run)
        for other, run in families._STAGES))


def raise_in_stage(monkeypatch, name, when=lambda b: True) -> None:
    """Make build_family's stage called name raise ValueError("seeded
    fault") before it runs, on the build records b where when(b)."""
    def faulty(stage, b):
        if when(b):
            raise ValueError("seeded fault")
        stage(b)

    wrap_stage(monkeypatch, name, faulty)


def count_eisenstein_operations(monkeypatch, names=EISENSTEIN_OPERATIONS) -> list[str]:
    """Patch the named EisensteinNumber methods (by default every Q(rho)
    operator and from_triple, which builds every number) so
    that each call appends its name to the returned list.  The lattice
    caches are cleared first, so a count does not depend on which builds
    ran before it in the process."""
    clear_lattice_caches()
    calls: list[str] = []
    for name in names:
        original = getattr(EisensteinNumber, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        if isinstance(vars(EisensteinNumber)[name], staticmethod):
            counting = staticmethod(counting)
        monkeypatch.setattr(EisensteinNumber, name, counting)
    return calls


# A Fraction-pair oracle for Q(rho), independent of the integer triples:
# (a, b) stands for a + b*rho.

def pair_of(x: EisensteinNumber) -> tuple[Fraction, Fraction]:
    return x.re_part, x.rho_part


def pair_add(p, q):
    return p[0] + q[0], p[1] + q[1]


def pair_sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def pair_mul(p, q):
    (a, b), (c, d) = p, q
    return a * c - b * d, a * d + b * c - b * d


def pair_norm(p) -> Fraction:
    a, b = p
    return a * a - a * b + b * b


def pair_conjugate(p):
    return p[0] - p[1], -p[1]


def pair_inverse(p):
    n = pair_norm(p)
    return tuple(c / n for c in pair_conjugate(p))


def pair_str(p) -> str:
    a, b = p
    if not b:
        return str(a)
    if not a:
        return f"{b}ρ"
    return f"{a}{'+' if b > 0 else ''}{b}ρ"


def brute_force_intersection(c1: GraphCurve, c2: GraphCurve, slope1: EisensteinNumber,
                             slope2: EisensteinNumber):
    """Denominator-bounded grid oracle for graph-graph intersections: the
    keys of the points, in coordinate order.

    Tests the congruence (slope1 - slope2)*z = offset2 - offset1 (mod the
    w-lattice) directly at every candidate z whose coordinates have the
    denominators a solution can possibly have, for the slopes the curves
    were built from.  Independent of the curves' matrices and of the coset
    enumeration the production solver uses.
    """
    if slope1 == slope2:
        return "identical" if c1.offset == c2.offset else "empty"
    lw, lz = c1.ambient
    m = slope1 - slope2
    rhs = lw.value(c2.offset) - lw.value(c1.offset)

    # Index of m*(z-lattice) inside the w-lattice, straight from the
    # determinant of the rational coordinate matrix.
    a = fraction_coordinates(lw, m * lz.gen1)
    b = fraction_coordinates(lw, m * lz.gen2)
    det = a[0] * b[1] - a[1] * b[0]
    assert det.denominator == 1 and det != 0
    index = abs(int(det))

    s0, t0 = fraction_coordinates(lz, rhs / m)
    qs = lcm(s0.denominator, index)
    qt = lcm(t0.denominator, index)
    keys = []
    for i in range(qs):
        for j in range(qt):
            z = from_coordinates(lz, Fraction(i, qs), Fraction(j, qt))
            if all(c.denominator == 1 for c in fraction_coordinates(lw, m * z - rhs)):
                keys.append(lw.key(slope1 * z + lw.value(c1.offset)) + lz.key(z))
    keys.sort(key=lambda k: (Fraction(k[0], k[2]), Fraction(k[1], k[2]),
                             Fraction(k[3], k[5]), Fraction(k[4], k[5])))
    return keys


def random_rational(rng: random.Random, span: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_eisenstein(rng: random.Random, span: int = 9, max_den: int = 9) -> EisensteinNumber:
    return eis(random_rational(rng, span, max_den), random_rational(rng, span, max_den))


def random_lattice(rng: random.Random) -> Lattice:
    while True:
        g1 = random_eisenstein(rng, span=4, max_den=3)
        g2 = random_eisenstein(rng, span=4, max_den=3)
        try:
            return Lattice(g1, g2)
        except ValueError:
            continue


def random_sublattice(rng: random.Random, lattice: Lattice) -> Lattice:
    """A random finite-index sublattice via an integer matrix of nonzero
    determinant."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 0:
            return Lattice(a * lattice.gen1 + b * lattice.gen2,
                           c * lattice.gen1 + d * lattice.gen2)


def random_log_pair(rng: random.Random) -> LogPair:
    """A valid log pair with free chi >= 0 and K^2: up to four disjoint
    smooth elliptic boundary curves of negative self-intersection, and up
    to three other curves, elliptic or rational and some of them singular,
    that meet the boundary and each other."""
    curves = {f"t{i}": CurveRecord(rng.randint(-9, -1), SMOOTH_ELLIPTIC)
              for i in range(rng.randint(0, 4))}
    boundary = tuple(curves)
    others = [f"c{i}" for i in range(rng.randint(0, 3))]
    for name in others:
        curves[name] = CurveRecord(rng.randint(-5, 5),
                                   rng.choice((SMOOTH_ELLIPTIC, SMOOTH_RATIONAL)))
    pairwise = {(a, b): rng.randint(1, 4) for i, a in enumerate(others)
                for b in list(boundary) + others[i + 1:] if rng.random() < 0.6}
    points = {f"p{i}": {rng.choice(others): rng.randint(1, 3)}
              for i in range(rng.randint(0, len(others)))}
    for i, mults in enumerate(points.values()):
        if boundary and i % 2:
            mults[rng.choice(boundary)] = 1
    model = SurfaceModel.build(rng.randint(0, 8), rng.randint(-8, 8), curves, pairwise, points)
    return LogPair(model, boundary)


def standard_torus(n: int) -> ProductTorus:
    return families.product_torus(n)
