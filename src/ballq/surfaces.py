"""Numerical intersection calculus on surface models.

A surface model is pure bookkeeping: the topological Euler number, the
self-intersection of the canonical class, a named table of curves with
their pairwise intersection numbers and normalization kinds, and named
marked points carrying the multiplicity of each curve through them.  A
curve is singular exactly when some marked point carries it with
multiplicity >= 2; that is read off the point table, never stored.  Etale
quotients and blow-ups are exact integer computations on this data.  A
log pair is a model with a boundary of disjoint smooth elliptic curves of
negative self-intersection, and certify_pair reads its log-Chern numbers,
nef data, Bogomolov-Miyaoka-Yau class, cusps and volume off it in one
pass.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from functools import cached_property
from fractions import Fraction

from .eisenstein import Frozen

SMOOTH_ELLIPTIC = "smooth-elliptic"
SMOOTH_RATIONAL = "smooth-rational"
SINGULAR = "singular"

_KINDS = (SMOOTH_ELLIPTIC, SMOOTH_RATIONAL)


class BMYClass(str, Enum):
    EQUALITY = "Equality"
    STRICT_INEQUALITY = "StrictInequality"
    VIOLATION = "Violation"
    NOT_APPLICABLE = "NotApplicable"


class CurveRecord(namedtuple("CurveRecord", "self_int kind")):
    """Numerical record of one curve: self-intersection and the kind of
    its normalization, smooth elliptic or smooth rational.  Whether the
    curve itself is singular is SurfaceModel.kind's to say."""

    __slots__ = ()

    def __new__(cls, self_int: int, kind: str) -> CurveRecord:
        if kind not in _KINDS:
            raise ValueError(f"unknown curve kind {kind!r}")
        return tuple.__new__(cls, (self_int, kind))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class SurfaceModel(Frozen):
    """Immutable numerical model of a projective surface.

    pairwise maps sorted name pairs to nonzero intersection numbers
    (absent pairs meet in 0 points); points maps point names to tables of
    nonzero multiplicities (absent curves pass with multiplicity 0).  A
    point's name is any hashable: a build names the upstairs points by
    their six-int keys.  build stores no zeros, so two models with the
    same numbers compare equal.  A curve that some marked point carries
    with multiplicity >= 2 is singular.
    """

    def __init__(self, chi_top: int, k2: int, curves: dict[str, CurveRecord],
                 pairwise: dict[tuple[str, str], int], points: dict[str, dict[str, int]]) -> None:
        vars(self).update(chi_top=chi_top, k2=k2, curves=curves, pairwise=pairwise,
                          points=points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurfaceModel):
            return NotImplemented
        return ((self.chi_top, self.k2, self.curves, self.pairwise, self.points)
                == (other.chi_top, other.k2, other.curves, other.pairwise, other.points))

    @staticmethod
    def build(chi_top: int, k2: int, curves: dict[str, CurveRecord],
              pairwise: dict[tuple[str, str], int] | None = None,
              points: dict[str, dict[str, int]] | None = None) -> "SurfaceModel":
        pairwise = pairwise or {}
        points = points or {}
        table: dict[tuple[str, str], int] = {}
        for (a, b), value in pairwise.items():
            if a == b:
                raise ValueError(f"self-pair {a!r} belongs in the curve record")
            if a not in curves or b not in curves:
                raise ValueError(f"pairwise entry for unknown curve in ({a!r}, {b!r})")
            key = _pair_key(a, b)
            if table.get(key, value) != value:
                raise ValueError(f"conflicting intersection numbers for {key}")
            table[key] = value
        for point, mults in points.items():
            for name, mult in mults.items():
                if name not in curves:
                    raise ValueError(f"point {point!r} references unknown curve {name!r}")
                if mult < 0:
                    raise ValueError("multiplicities must be nonnegative")
        return SurfaceModel(chi_top, k2, dict(curves),
                            {key: value for key, value in table.items() if value},
                            {p: {name: m for name, m in mults.items() if m}
                             for p, mults in points.items()})

    @cached_property
    def singular_curves(self) -> frozenset[str]:
        """The curves with a multiple point: one scan of the point table
        per model, however often kind is asked."""
        return frozenset(name for mults in self.points.values()
                         for name, m in mults.items() if m >= 2)

    def kind(self, name: str) -> str:
        """SINGULAR for a curve with a multiple point, else the kind of its
        record."""
        return SINGULAR if name in self.singular_curves else self.curves[name].kind

    def pairwise_int(self, a: str, b: str) -> int:
        if a == b:
            return self.curves[a].self_int
        return self.pairwise.get(_pair_key(a, b), 0)

    def point_multiplicity(self, point: str, curve: str) -> int:
        return self.points[point].get(curve, 0)

    def pairs_among(self, names: Iterable[str]) -> list[tuple[str, str, int]]:
        """The stored pairwise entries (a, b, value) with both curves in
        names, read off the sparse table in one pass; every pair of names
        not listed meets in 0 points, exactly as pairwise_int reports."""
        inside = set(names)
        return [(a, b, value) for (a, b), value in self.pairwise.items()
                if a in inside and b in inside]


def etale_quotient(model: SurfaceModel, group_order: int,
                   curve_orbits: dict[str, tuple[str, ...]],
                   point_orbits: dict[str, tuple[str, ...]]) -> SurfaceModel:
    """Push a surface model through a free quotient of the given degree.

    curve_orbits and point_orbits map each image name to the tuple of
    source names forming its orbit.

    Euler number and canonical self-intersection divide by the degree;
    a curve orbit O maps to a single curve of self-intersection (sum O)^2
    divided by the degree, and pairwise numbers push forward the same way.
    Point orbits (which must have full size, i.e. the action is free on
    them) become single marked points whose multiplicity on an image curve
    is the number of branches upstairs through any one orbit member; an
    image curve with two or more branches there is singular downstairs,
    and its record keeps the orbit members' smooth kind as its
    normalization.
    """
    g = group_order
    if g < 1:
        raise ValueError("group order must be positive")
    if model.chi_top % g or model.k2 % g:
        raise ValueError("Euler number and K^2 must divide by the group order")

    claimed_curves = [name for orbit in curve_orbits.values() for name in orbit]
    if len(claimed_curves) != len(model.curves) or set(claimed_curves) != model.curves.keys():
        raise ValueError("curve orbits must partition the curve set")
    claimed_points = [name for orbit in point_orbits.values() for name in orbit]
    if len(claimed_points) != len(model.points) or set(claimed_points) != model.points.keys():
        raise ValueError("point orbits must partition the marked points")

    for image, orbit in curve_orbits.items():
        if g % len(orbit):
            raise ValueError(f"curve orbit {image!r} has size not dividing {g}")
        kinds = {model.kind(name) for name in orbit}
        if len(kinds) != 1 or SINGULAR in kinds:
            raise ValueError(f"curve orbit {image!r} must consist of smooth curves of one kind")
    for image, orbit in point_orbits.items():
        if len(orbit) != g:
            raise ValueError(f"point orbit {image!r} has size {len(orbit)}, "
                             f"so the action is not free")

    def pushed(total: int, what: str) -> int:
        if total % g:
            raise ValueError(f"{what} does not divide by the group order")
        return total // g

    # One pass over the sparse pairwise table: an entry inside an orbit
    # counts twice towards (sum O)^2, an entry across two orbits once
    # towards their image pair, recorded as (later image, earlier image).
    image_names = list(curve_orbits)
    position = {image: i for i, image in enumerate(image_names)}
    image_of = {name: image for image, orbit in curve_orbits.items()
                for name in orbit}
    self_totals = {image: sum(model.curves[name].self_int for name in orbit)
                   for image, orbit in curve_orbits.items()}
    cross_totals: dict[str, dict[str, int]] = {image: {} for image in image_names}
    for (a, b), value in model.pairwise.items():
        ia, ib = image_of[a], image_of[b]
        if ia == ib:
            self_totals[ia] += 2 * value
            continue
        if position[ia] < position[ib]:
            ia, ib = ib, ia
        row = cross_totals[ia]
        row[ib] = row.get(ib, 0) + value

    new_curves: dict[str, CurveRecord] = {}
    new_pairwise: dict[tuple[str, str], int] = {}
    for image in image_names:
        orbit = curve_orbits[image]
        self_int = pushed(self_totals[image], f"(sum of orbit {image!r})^2")
        row = cross_totals[image]
        for other in sorted(row, key=position.__getitem__):
            new_pairwise[_pair_key(image, other)] = pushed(
                row[other], f"intersection of orbits {image!r} and {other!r}")
        new_curves[image] = CurveRecord(self_int, model.curves[orbit[0]].kind)

    # Branch counts per orbit member; every member of an orbit must agree.
    new_points: dict[str, dict[str, int]] = {}
    for image_point, orbit in point_orbits.items():
        per_member = []
        for p in orbit:
            counts: dict[str, int] = {}
            for curve, mult in model.points[p].items():
                image = image_of[curve]
                counts[image] = counts.get(image, 0) + mult
            per_member.append(counts)
        if any(counts != per_member[0] for counts in per_member[1:]):
            raise ValueError(f"branch count at {image_point!r} differs across the orbit")
        new_points[image_point] = per_member[0]

    return SurfaceModel.build(model.chi_top // g, model.k2 // g,
                              new_curves, new_pairwise, new_points)


def blow_up(model: SurfaceModel, exceptional: dict[str, str]) -> SurfaceModel:
    """Blow up distinct marked points at once; exceptional maps each point
    to the name of its new exceptional (-1)-curve.

    Euler number rises by 1 and K^2 drops by 1 per point; each curve
    through a point with multiplicity m loses m^2 from its
    self-intersection and meets that point's exceptional curve in m
    points; pairwise numbers drop by the product of multiplicities.  The
    blown-up points leave the point table, so a curve whose multiple
    points were all among them is smooth afterwards.  Blowing up several
    points gives the same model as blowing them up one at a time, with a
    single rebuild.
    """
    if not exceptional:
        raise ValueError("need one or more points to blow up")
    if len(set(exceptional.values())) != len(exceptional):
        raise ValueError("need one distinct exceptional name per point")
    for point, exc in exceptional.items():
        if point not in model.points:
            raise ValueError(f"unknown marked point {point!r}")
        if exc in model.curves:
            raise ValueError(f"exceptional name {exc!r} already in use")

    drops: dict[str, int] = {}
    new_pairwise = dict(model.pairwise)
    for point, exc in exceptional.items():
        mults = model.points[point]
        through = list(mults)
        for i, a in enumerate(through):
            m = mults[a]
            drops[a] = drops.get(a, 0) + m * m
            for b in through[i + 1:]:
                key = _pair_key(a, b)
                new_pairwise[key] = new_pairwise.get(key, 0) - m * mults[b]
            new_pairwise[_pair_key(a, exc)] = m

    new_curves = {name: CurveRecord(rec.self_int - drops.get(name, 0), rec.kind)
                  for name, rec in model.curves.items()}
    for exc in exceptional.values():
        new_curves[exc] = CurveRecord(-1, SMOOTH_RATIONAL)

    new_points = {p: mults for p, mults in model.points.items() if p not in exceptional}
    return SurfaceModel.build(model.chi_top + len(exceptional), model.k2 - len(exceptional),
                              new_curves, new_pairwise, new_points)


class LogPair(Frozen):
    """A surface model together with a boundary divisor: a list of disjoint
    smooth elliptic curves of negative self-intersection.  The constructor
    checks all three, and certify_pair relies on them."""

    def __init__(self, surface: SurfaceModel, boundary: tuple[str, ...]) -> None:
        if len(set(boundary)) != len(boundary):
            raise ValueError("boundary names repeat")
        for name in boundary:
            rec = surface.curves.get(name)
            if rec is None:
                raise ValueError(f"unknown boundary curve {name!r}")
            if surface.kind(name) != SMOOTH_ELLIPTIC:
                raise ValueError(f"boundary curve {name!r} is not smooth elliptic")
            if rec.self_int >= 0:
                raise ValueError(f"boundary curve {name!r} has nonnegative self-intersection")
        for a, b, _ in surface.pairs_among(boundary):
            raise ValueError(f"boundary curves {a!r} and {b!r} are not disjoint")
        vars(self).update(surface=surface, boundary=boundary)


def certify_pair(pair: LogPair) -> dict[str, object]:
    """The report's certify fragment of the pair, from one pass over its
    boundary: c1bar^2 and c2bar, the BMY class, the nef data, the cusp
    count and the volume.

    The pass relies on LogPair's constructor: every boundary component T
    is a smooth elliptic curve of negative self-intersection and no two
    meet.  So adjunction gives K.T = -T^2; c2bar, the Euler number of the
    complement, is chi; c1bar^2 = (K + D)^2 is K^2 + sum(2*K.T + T^2); and
    the pairing (K + D).T is K.T + T^2.  K + D passes the necessary
    numerical nef-and-big conditions when c1bar^2 > 0 and every pairing is
    >= 0; only then is c1bar^2 compared with 3*c2bar, and the BMY class is
    NotApplicable otherwise.  One cusp per boundary component.
    """
    surface = pair.surface
    c1, c2 = surface.k2, surface.chi_top
    pairings: dict[str, int] = {}
    for name in pair.boundary:
        self_int = surface.curves[name].self_int
        k_t = -self_int
        c1 += 2 * k_t + self_int
        pairings[name] = k_t + self_int
    nef = c1 > 0 and all(v >= 0 for v in pairings.values())
    if not nef:
        bmy = BMYClass.NOT_APPLICABLE
    elif c1 == 3 * c2:
        bmy = BMYClass.EQUALITY
    elif c1 < 3 * c2:
        bmy = BMYClass.STRICT_INEQUALITY
    else:
        bmy = BMYClass.VIOLATION
    return {"log_c1_squared": c1, "log_c2": c2, "bmy": bmy.value,
            "nef": {"log_canonical_self_int": c1, "boundary_pairings": pairings,
                    "passed": nef},
            "cusps": len(pair.boundary), "volume": volume_from_chi(c2)}


def volume_from_chi(chi: int) -> dict[str, object]:
    """Volume (8/3) * pi^2 * chi of a curvature -1 ball quotient with the
    given Euler number (generalized Gauss-Bonnet), as the report's volume
    fragment.  The volume is recorded exactly, as the rational coefficient
    of pi^2; the decimal is for display only and never used in any check."""
    if chi < 0:
        raise ValueError("Euler number of a ball quotient is nonnegative")
    coefficient = Fraction(8, 3) * chi
    return {
        "pi_squared_coefficient": str(coefficient),
        "text": f"({coefficient})·π²",
        "approx_display_only": float(coefficient) * math.pi ** 2,
    }
