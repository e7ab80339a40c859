"""End-to-end builder for the two families of ball-quotient compactifications.

Both families start from the same geometry: the product of the hexagonal
elliptic curve C/Z[rho] with the level-n curve C/Z[n, 1-rho], three graph
curves forming one orbit of the free order-3 deck automorphism
[w, z] -> [rho*w, z + shift], and the 3n intersection points that descend
to n triple points of an irreducible curve on the bielliptic quotient.
Blowing the triple points up yields the compactifying surface; the two
families differ only in the boundary divisor added to the resolved triple
curve: the n fiber transforms (n+1 cusps) or the single resolved orbit of
constant graphs (2 cusps).  build_family runs that one pipeline, and a
small record per family supplies only what differs.  Every numerical claim
is recomputed exactly and recorded as a check in the level's JSON report.
A point is its key (see curves): the intersections, the closed-form
locus, the deck orbits, the incidence table and the fiber rows read sets
of six-int point keys, and the curves' offsets and the vertical fibers'
base points are torus point keys.  Only a printed Albanese base point is
read back into Q(rho), by Lattice.value.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import homology
from .eisenstein import ONE, RHO, eis
from .lattices import Lattice, point_key
from .curves import (
    EMPTY,
    IDENTITY_MATRIX,
    ZERO_KEY,
    GraphCurve,
    ProductTorus,
    TorusAutomorphism,
    VerticalFiber,
    apply_auto_to_curve,
    automorphism_order,
    intersect_graphs,
    is_free,
    orbit_of_points,
)
from .surfaces import (
    BMYClass,
    CurveRecord,
    LogPair,
    SMOOTH_ELLIPTIC,
    SMOOTH_RATIONAL,
    SurfaceModel,
    blow_up,
    bmy_classify,
    cusp_count,
    etale_quotient,
    log_chern,
    nef_numerical_check,
    volume_from_chi,
)

SCHEMA_VERSION = 1

GAMMA = "gamma"
LAMBDA = "lambda"

# Translation of order three on every level torus: three times it is the
# period 1 - rho shared by all level lattices.
ORDER3_SHIFT = (ONE - RHO) / 3
TWO_THIRDS = eis(Fraction(2, 3))

_SLOPE_NAMES = ("slope0", "slope1", "slope2")
_LEVEL_NAMES = ("level0", "level1", "level2")
CORE_CURVE = "slope_orbit"
LEVEL_CURVE = "level_orbit"


# The lattices are frozen, so each is built once per process and shared by
# every level that reads it; the tower reads those of all divisors of n.
# One entry per level up to cli.MAX_LEVEL bounds each cache.  Keys are
# typed, so that 3.0 reaches the constructor's checks instead of the
# lattice cached for 3.
_lattice_cache = lru_cache(maxsize=2_000, typed=True)


@_lattice_cache
def base_lattice() -> Lattice:
    """The hexagonal lattice Z[rho] with stored basis (1, rho)."""
    return Lattice(ONE, RHO)


@_lattice_cache
def level_lattice(n: int) -> Lattice:
    """The index-n sublattice Z[n, 1-rho] of the hexagonal lattice."""
    if n < 1:
        raise ValueError("the level must be a positive integer")
    return Lattice(eis(n), ONE - RHO)


@_lattice_cache
def albanese_lattice(n: int) -> Lattice:
    """The Albanese target lattice Z[n, shift]."""
    if n < 1:
        raise ValueError("the level must be a positive integer")
    return Lattice(eis(n), ORDER3_SHIFT)


def product_torus(n: int) -> ProductTorus:
    return ProductTorus(base_lattice(), level_lattice(n))


def slope_curves(torus: ProductTorus) -> list[GraphCurve]:
    """The three graphs w = rho**l * z - l*shift, a single deck orbit."""
    return [GraphCurve(torus, RHO ** l, ORDER3_SHIFT * (-l)) for l in range(3)]


def level_curves(torus: ProductTorus) -> list[GraphCurve]:
    """The three constant graphs w = 2/3 + l*shift, a single deck orbit."""
    return [GraphCurve(torus, 0, TWO_THIRDS + ORDER3_SHIFT * l) for l in range(3)]


def deck_automorphism(torus: ProductTorus) -> TorusAutomorphism:
    """[w, z] -> [rho*w, z + shift]; free of order three on every level."""
    return TorusAutomorphism(torus, RHO, 0, ONE, ORDER3_SHIFT)


def _numerators(lattice: Lattice, values: tuple) -> tuple[list[tuple[int, int]], int]:
    """The coordinates of each value in the lattice's basis as integer
    numerators (s, t), all over one denominator d."""
    vectors = [lattice.numerators(x) for x in values]
    d = lcm(*(den for _, _, den in vectors))
    return [(s * (d // den), t * (d // den)) for s, t, den in vectors], d


def closed_form_intersection(torus: ProductTorus, n: int) -> list[tuple[int, ...]]:
    """The keys of the predicted 3n-point intersection locus of any two
    slope curves: [2/3 + l*shift, 2/3 + l*shift + m] for 0 <= l <= 2,
    0 <= m <= n-1.  Each key combines the numerators of 2/3, the shift and
    1, read once per factor, in integers."""
    values = (TWO_THIRDS, ORDER3_SHIFT, ONE)
    ((w0, w1), (ws0, ws1), _), dw = _numerators(torus.lattice_w, values)
    ((z0, z1), (zs0, zs1), (u0, u1)), dz = _numerators(torus.lattice_z, values)
    keys = []
    for l in range(3):
        w = point_key(w0 + l * ws0, w1 + l * ws1, dw)
        s, t = z0 + l * zs0, z1 + l * zs1
        keys += [w + point_key(s + m * u0, t + m * u1, dz) for m in range(n)]
    return keys


# ----------------------------------------------------------------------
# Bagnera-de Franchis catalog
# ----------------------------------------------------------------------

LAMBDA_ANY = "any"
LAMBDA_I = "i"
LAMBDA_RHO = "rho"
LAMBDA_RHO_WITH_ZETA = "rho-with-zeta"


class BdFType(namedtuple("BdFType", "index group multiplier translation_order "
                                    "lambda_constraint description")):
    """One entry of the Bagnera-de Franchis classification of bielliptic
    surfaces (E_lambda x E_tau)/K: its index, the group's cyclic factors,
    the multiplier's name, the order of the extra translation (None without
    one), the constraint on lambda and a description."""

    __slots__ = ()

    @property
    def group_order(self) -> int:
        order = 1
        for factor in self.group:
            order *= factor
        return order

    def to_json(self) -> dict[str, object]:
        return {
            "index": self.index,
            "group": list(self.group),
            "group_order": self.group_order,
            "multiplier": self.multiplier,
            "translation_order": self.translation_order,
            "lambda_constraint": self.lambda_constraint,
            "description": self.description,
        }


class BdFInvalid(namedtuple("BdFInvalid", "constraint reason")):
    """A rejected classification query, naming the violated constraint."""

    __slots__ = ()

    def to_json(self) -> dict[str, object]:
        return {"invalid": True, "constraint": self.constraint, "reason": self.reason}


# The seven Bagnera-de Franchis types.
BDF_CATALOG = (
    BdFType(1, (2,), "-1", None, LAMBDA_ANY,
            "Z/2 acting by x -> -x"),
    BdFType(2, (2, 2), "-1", 2, LAMBDA_ANY,
            "Z/2 x Z/2 acting by x -> -x and x -> x + t for a 2-torsion point t"),
    BdFType(3, (4,), "i", None, LAMBDA_I,
            "Z/4 acting by x -> i*x, lambda = i"),
    BdFType(4, (4, 2), "i", 2, LAMBDA_I,
            "Z/4 x Z/2 acting by x -> i*x and x -> x + (1+i)/2, lambda = i"),
    BdFType(5, (3,), "rho", None, LAMBDA_RHO,
            "Z/3 acting by x -> rho*x, lambda = rho"),
    BdFType(6, (3, 3), "rho", 3, LAMBDA_RHO,
            "Z/3 x Z/3 acting by x -> rho*x and x -> x + (1-rho)/3, lambda = rho"),
    BdFType(7, (6,), "zeta", None, LAMBDA_RHO_WITH_ZETA,
            "Z/6 acting by x -> zeta*x, lambda = rho, zeta = exp(pi*i/3)"),
)


def bdf_classify(group_order: int, multiplier: str,
                 translation_order: int | None = None,
                 lattice_multiplier: str | None = None) -> BdFType | BdFInvalid:
    """Match an abstract action descriptor against the catalog.

    The descriptor gives the group order, the multiplicative generator
    acting on the first elliptic factor, and the torsion order of an extra
    translation generator if the group is not cyclic.  When the modulus of
    the first factor is known, lattice_multiplier ("rho" or "i") is checked
    against the entry's lambda constraint.
    """
    # The cyclic entry of a multiplier gives its order and lambda constraint.
    cyclic = next((entry for entry in BDF_CATALOG if entry.multiplier == multiplier
                   and entry.translation_order is None), None)
    if cyclic is None:
        return BdFInvalid("multiplier", f"unknown multiplicative action {multiplier!r}")
    if translation_order is not None and translation_order < 2:
        return BdFInvalid("translation", "an extra translation generator must have order >= 2")
    mult_order = cyclic.group_order
    expected_order = mult_order * (translation_order or 1)
    if group_order != expected_order:
        return BdFInvalid(
            "lambda-constraint",
            f"multiplication by {multiplier} has multiplicative order {mult_order}; "
            f"with translation factor {translation_order or 1} the group order must be "
            f"{expected_order}, not {group_order}",
        )
    required = cyclic.lambda_constraint
    if lattice_multiplier is not None and required != LAMBDA_ANY:
        needed = "rho" if required == LAMBDA_RHO_WITH_ZETA else required
        if lattice_multiplier != needed:
            return BdFInvalid(
                "lambda-constraint",
                f"multiplication by {multiplier} requires lambda = {needed}, "
                f"got {lattice_multiplier}",
            )
    for entry in BDF_CATALOG:
        if (entry.multiplier == multiplier
                and entry.translation_order == translation_order
                and entry.group_order == group_order):
            return entry
    return BdFInvalid(
        "group-structure",
        f"no catalog entry has multiplier {multiplier} with an extra translation "
        f"of order {translation_order}",
    )


def classify_deck_action(deck: TorusAutomorphism, order: int) -> BdFType | BdFInvalid:
    """Classify the bielliptic quotient defined by a cyclic deck group."""
    (m_w, m_z), (c_w, c_z) = deck.matrices, deck.translations
    if m_w == IDENTITY_MATRIX:
        return BdFInvalid("multiplier", "the action has no multiplicative part")
    # A lattice-preserving multiplier of determinant 1 is a unit of Z[rho];
    # its trace 2*Re(unit) is -2 for -1, -1 for rho^+-1, 1 for -rho^+-1.
    multiplier = {-2: "-1", -1: "rho", 1: "zeta"}[m_w[0] + m_w[3]]
    if c_w != ZERO_KEY:
        return BdFInvalid("multiplier", "the first factor action is not a pure multiplication")
    if m_z != IDENTITY_MATRIX:
        return BdFInvalid("translation", "the second factor action is not a translation")
    shift_order = c_z[2]
    if shift_order != order:
        return BdFInvalid("translation",
                          f"the second-factor translation has order {shift_order}, "
                          f"not {order}")
    lattice_multiplier = "rho" if deck.ambient.lattice_w == base_lattice() else None
    return bdf_classify(order, multiplier, None, lattice_multiplier)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


def _plain(value: object) -> object:
    """Copy a check value into JSON data: tuples become lists and dict keys
    strings.  Exact values arrive already written as strings."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {value!r}")


class _Checks:
    def __init__(self) -> None:
        self.results: list[dict[str, object]] = []

    def expect(self, name: str, expected: object, actual: object) -> bool:
        ok = expected == actual
        self.results.append({"name": name, "passed": ok,
                             "expected": _plain(expected), "actual": _plain(actual)})
        return ok


def _report(family: str, n: int, passed: bool, values: dict[str, object],
            checks: list[dict[str, object]], assumptions: list[str],
            flags: list[str]) -> dict[str, object]:
    """The JSON document of one level's report, in schema key order: every
    computed value, every check and the assumptions taken on trust."""
    return {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "n": n,
        "passed": passed,
        "values": values,
        "checks": checks,
        "assumptions": assumptions,
        "flags": flags,
    }


class BuildError(Exception):
    """A step of build_family raised; the original exception is the cause."""

    def __init__(self, family: str, n: int, stage: str, error: Exception) -> None:
        super().__init__(f"{family} n={n}: {type(error).__name__}: {error}")
        self.family, self.n, self.stage, self.error = family, n, stage, error

    def to_json_dict(self) -> dict[str, object]:
        """The failed report of the level: no values or checks, and an
        error naming the step, the exception type and its message."""
        return {**_report(self.family, self.n, False, {}, [], [], []), "error": {
            "stage": self.stage, "type": type(self.error).__name__, "message": str(self.error)}}


def render_markdown(doc: dict[str, object]) -> str:
    """Human-readable rendering of a report JSON document; numbers are the
    same ones the JSON carries.  Reports of failed or crashed builds may
    lack the later pipeline values, so every field falls back to n/a."""
    values = doc["values"]
    volume = values.get("volume") or {}
    volume_line = "n/a"
    if volume:
        volume_line = (f"{volume['text']} (approx "
                       f"{volume['approx_display_only']:.6f}, display only)")
    lines = [
        f"# Certification report: {doc['family']} family, n = {doc['n']}",
        "",
        f"- passed: {'yes' if doc['passed'] else 'NO'}",
        f"- chi: {values.get('chi', 'n/a')}",
        f"- k2: {values.get('k2', 'n/a')}",
        f"- cusps: {values.get('cusps', 'n/a')}",
        f"- volume: {volume_line}",
        f"- log_c1_squared: {values.get('log_c1_squared', 'n/a')}",
        f"- log_c2: {values.get('log_c2', 'n/a')}",
        f"- bmy: {values.get('bmy', 'n/a')}",
        f"- bdf_type: {values.get('bdf_type', 'n/a')}",
        "- boundary: " + ", ".join(
            f"{entry['name']}^2 = {entry['self_intersection']}"
            for entry in values.get("boundary", ())
        ),
        "",
        "## Checks",
        "",
        "| check | expected | actual | status |",
        "| --- | --- | --- | --- |",
    ]
    for check in doc["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        lines.append(
            f"| {check['name']} | {json.dumps(check['expected'])} "
            f"| {json.dumps(check['actual'])} | {status} |"
        )
    if doc["assumptions"]:
        lines += ["", "## Assumptions", ""]
        lines += [f"- {item}" for item in doc["assumptions"]]
    if doc["flags"]:
        lines += ["", "## Flags", ""]
        lines += [f"- {item}" for item in doc["flags"]]
    if "error" in doc:
        error = doc["error"]
        lines += ["", "## Error", "",
                  f"- {error['stage']}: {error['type']}: {error['message']}"]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# shared geometry of both families
# ----------------------------------------------------------------------


# What _shared_geometry computes for level n: the ProductTorus, the slope
# GraphCurves and the deck TorusAutomorphism; the sorted intersection keys,
# their names and deck orbits; the closed-form key set; the points per slope
# pair; and the key set of each slope curve through slope0.
_Core = namedtuple("_Core", "n torus slopes deck points point_names orbits closed_keys "
                            "pair_counts through")


def _deck_cycle(deck: TorusAutomorphism, curves: list[GraphCurve]) -> tuple[list[bool], bool]:
    """Whether the deck maps each of three curves to the next, cyclically,
    from one image per curve, and whether they are one deck orbit of size
    three: every map holds and curves[0] is not among the other two."""
    maps = [apply_auto_to_curve(deck, curve) == curves[(i + 1) % 3]
            for i, curve in enumerate(curves)]
    return maps, all(maps) and curves[0] not in curves[1:]


def _shared_geometry(n: int, chk: _Checks) -> _Core:
    torus = product_torus(n)
    slopes = slope_curves(torus)
    deck = deck_automorphism(torus)

    chk.expect("deck_order", 3, automorphism_order(deck))
    chk.expect("deck_action_free", True, is_free(deck))

    maps, orbit = _deck_cycle(deck, slopes)
    chk.expect("deck_orbit_of_slope_curves", True, orbit)
    for i in range(3):
        chk.expect(f"deck_maps_slope{i}_to_slope{(i + 1) % 3}", True, maps[i])

    closed_keys = frozenset(closed_form_intersection(torus, n))
    chk.expect("closed_form_size", 3 * n, len(closed_keys))

    base_points: tuple = ()
    pair_counts: dict[tuple[str, str], int] = {}
    through: dict[str, frozenset] = {}
    for i in range(3):
        for j in range(i + 1, 3):
            result = intersect_graphs(slopes[i], slopes[j])
            keys = result.keys()
            pair_counts[(_SLOPE_NAMES[i], _SLOPE_NAMES[j])] = result.count
            chk.expect(f"intersection_count[slope{i},slope{j}]", 3 * n, result.count)
            chk.expect(f"intersection_matches_closed_form[slope{i},slope{j}]",
                       True, keys == closed_keys)
            if i == 0:
                through[_SLOPE_NAMES[j]] = keys
            if (i, j) == (0, 1):
                base_points = result.point_keys

    chk.expect("branch_slopes_pairwise_distinct", True,
               len({c.matrix for c in slopes}) == 3)

    points = sorted(base_points)
    point_names = {key: f"pt{i}" for i, key in enumerate(points)}
    through[_SLOPE_NAMES[0]] = frozenset(point_names)
    orbits = orbit_of_points(deck, points)
    chk.expect("point_orbit_count", n, len(orbits))
    chk.expect("point_orbit_sizes", [3] * n, [len(o) for o in orbits])

    return _Core(n, torus, slopes, deck, points, point_names, orbits, closed_keys,
                 pair_counts, through)


def _incidence(core: _Core, curves: dict[str, GraphCurve | VerticalFiber],
               through: dict[str, frozenset]) -> dict[str, dict[str, int]]:
    """Multiplicity table {point name: {curve name: 1}} of the given curves
    through the intersection points, filled per curve from a key set.

    Every point lies on slope0, so a graph curve passes through a point
    exactly when its key is in the curve's intersection with slope0, which
    intersect_graphs has solved exactly: through[name] is that key set (all
    points for slope0).  A vertical fiber passes through the points whose z
    key (the last three ints of the point key) is its z0 (all curves live
    on core.torus, so keys are coordinates in one z-lattice basis), read
    off an index of the points by z key.
    """
    rows: dict[tuple, dict[str, int]] = {key: {} for key in core.points}
    over_z: dict[tuple, list[tuple]] = {}
    for key in core.points:
        over_z.setdefault(key[3:], []).append(key)
    for name, curve in curves.items():
        keys = over_z.get(curve.z0, ()) if isinstance(curve, VerticalFiber) else through[name]
        for key in rows.keys() & keys:
            rows[key][name] = 1
    return {core.point_names[key]: row for key, row in rows.items()}


def _quotient_and_blowup(core: _Core, upstairs_curves: dict[str, GraphCurve | VerticalFiber],
                         curve_orbits: dict[str, tuple[str, ...]],
                         pairwise: dict[tuple[str, str], int],
                         through: dict[str, frozenset],
                         chk: _Checks) -> tuple[SurfaceModel, SurfaceModel]:
    """Assemble the upstairs model of all curves, push it through the deck
    quotient with the given curve orbits and blow up the triple points.
    through holds the key set of each graph curve (see _incidence).
    Returns (quotient, blown_up)."""
    n = core.n
    curves = {name: CurveRecord(0, SMOOTH_ELLIPTIC) for name in upstairs_curves}
    points = _incidence(core, upstairs_curves, through)
    chk.expect("all_slope_curves_through_every_point", True,
               all(all(m.get(name, 0) == 1 for name in _SLOPE_NAMES)
                   for m in points.values()))

    upstairs = SurfaceModel.build(0, 0, curves, pairwise, points)
    point_orbits = {
        f"q{j}": tuple(core.point_names[key] for key in orbit)
        for j, orbit in enumerate(core.orbits)
    }
    quotient = etale_quotient(upstairs, 3, curve_orbits, point_orbits)

    chk.expect("quotient_chi", 0, quotient.chi_top)
    chk.expect("quotient_k2", 0, quotient.k2)
    chk.expect("quotient_core_self_intersection", 6 * n,
               quotient.curves[CORE_CURVE].self_int)
    chk.expect("quotient_core_triple_points", [3] * n,
               [quotient.point_multiplicity(f"q{j}", CORE_CURVE) for j in range(n)])

    return quotient, blow_up(quotient, {f"q{j}": f"exc{j + 1}" for j in range(n)})


def _boundary_checks(blown: SurfaceModel, boundary: list[dict[str, object]],
                     expected_self: dict[str, int], chk: _Checks) -> LogPair | None:
    """Check the printed boundary fragment and return the log pair of the
    curves it names, or None when they do not form one."""
    actual_self = {entry["name"]: entry["self_intersection"] for entry in boundary}
    chk.expect("boundary_self_intersections", expected_self, actual_self)
    chk.expect("boundary_self_intersections_negative", True,
               all(v < 0 for v in actual_self.values()))
    chk.expect("boundary_pairwise_disjoint", True, not blown.pairs_among(actual_self))
    try:
        pair = LogPair(blown, tuple(actual_self))
    except ValueError as exc:
        chk.expect("boundary_pair_valid", True, f"invalid: {exc}")
        return None
    chk.expect("boundary_pair_valid", True, True)
    return pair


def _certify_pair(pair: LogPair) -> dict[str, object]:
    """The report's certify fragment: log-Chern numbers, BMY class, nef
    data, cusps and volume of the pair."""
    c1, c2 = log_chern(pair)
    return {"log_c1_squared": c1, "log_c2": c2, "bmy": bmy_classify(pair).value,
            "nef": nef_numerical_check(pair), "cusps": cusp_count(pair),
            "volume": volume_from_chi(c2)}


def _exceptional_ledger(quotient: SurfaceModel, blown: SurfaceModel, n: int,
                        chk: _Checks) -> None:
    """Each exc{j} is a smooth rational (-1)-curve whose row of nonzero
    intersection numbers is the multiplicity table of the point q{j-1} it
    replaces: it meets each curve through that point once per branch and
    misses every other curve, every other exceptional curve included."""
    rows: dict[str, dict[str, int]] = {f"exc{j}": {} for j in range(1, n + 1)}
    for (a, b), value in blown.pairwise.items():
        if a in rows:
            rows[a][b] = value
        if b in rows:
            rows[b][a] = value
    ok = all(blown.curves[exc] == CurveRecord(-1, SMOOTH_RATIONAL)
             and row == quotient.points[f"q{j}"] for j, (exc, row) in enumerate(rows.items()))
    chk.expect("exceptional_curve_ledger", True, ok)


def _generic_fiber_rows(core: _Core, members: dict[str, list],
                        chk: _Checks) -> dict[str, int]:
    """Intersection row of a generic Albanese fiber against each image
    curve, computed upstairs (the three generic vertical fibers, by their
    z keys) and divided by the covering degree.  A graph meets each
    vertical fiber once; distinct vertical fibers are disjoint."""
    generic_base = eis(Fraction(1, 2))
    generic_z = [core.torus.lattice_z.key(generic_base + ORDER3_SHIFT * k) for k in range(3)]
    singular_z = {key[3:] for key in core.points}
    chk.expect("generic_fiber_misses_triple_points", True, singular_z.isdisjoint(generic_z))
    rows: dict[str, int] = {}
    for image, curve_list in members.items():
        total = 0
        for curve in curve_list:
            if not isinstance(curve, VerticalFiber):
                total += len(generic_z)
            elif curve.z0 in generic_z:
                raise ValueError("generic fiber is not generic: it hits "
                                 "a special vertical fiber")
        if total % 3:
            raise ValueError("generic fiber row does not push forward integrally")
        rows[image] = total // 3
    return rows


def _homology_section(deck: TorusAutomorphism, chi: int, cusps: int) -> dict[str, object]:
    """The report's homology fragment: the Betti vector from the deck's
    action and the certified chi, and the cover tables for the certified
    cusp count."""
    betti = homology.betti_from_deck(deck.matrices, chi)
    u, v = homology.mv_tables(cusps)
    return {
        "compactification_betti": list(betti),
        "boundary_neighborhood_ranks": list(u),
        "overlap_ranks": list(v),
        "open_manifold": homology.betti_of_open(betti, cusps),
    }


def _tower_section(n: int) -> dict[str, object]:
    covers = []
    for m in range(1, n + 1):
        if n % m == 0:
            covers.append({"base_level": m, "degree": covering_report(m, n)["degree"]})
    return {
        "covers_levels": covers,
        "consecutive_cover_exists": n == 1 or n % (n - 1) == 0,
        "note": (
            "level lattice containment holds exactly when the base level divides n;"
            " consecutive members are related through common divisors only"
        ),
    }


_NEATNESS_ASSUMPTION = (
    "neatness of the uniformizing lattices is an input from the literature"
    " (established for the smallest member and inherited along the covering"
    " tower); it is recorded here, not verified computationally"
)

_TOWER_FLAG = (
    "the covering tower connects levels m | n only; a literal chain through"
    " every consecutive level is not supported by the lattice containments"
)


# ----------------------------------------------------------------------
# the two families: what each adds to the shared construction
# ----------------------------------------------------------------------


class _Family(namedtuple("_Family", "upstairs quotient_checks orbit_self_intersection cusps "
                                    "pair_checks fiber_section albanese_checks")):
    """What one family adds to the shared construction.
    upstairs(core, chk) returns the extra curves, their deck orbits (the
    extra boundary components), their pairwise entries with the slope
    curves and the key set of the points each extra graph curve passes
    through; quotient_checks(quotient, n, chk) checks the quotient model;
    orbit_self_intersection(n) and cusps(n) are the expected numbers;
    pair_checks(values, n, chk) reads the report's values;
    fiber_section(blown, n, fiber, chk) adds the singular-fiber entries to
    the fiber fragment and returns its flags; albanese_checks names the
    Albanese checks that apply.  Each callable records its own checks."""

    __slots__ = ()


def _gamma_upstairs(core: _Core, chk: _Checks) -> tuple[dict, dict, dict, dict]:
    """The three vertical fibers vert{j}_k over the members of the j-th point
    orbit, each meeting every slope curve once and built from the point's z
    key, and their deck orbits fiber{j}; the images are the Albanese fibers
    through the triple points."""
    curves: dict[str, VerticalFiber] = {}
    orbits: dict[str, tuple[str, ...]] = {}
    for j, orbit in enumerate(core.orbits, start=1):
        names = tuple(f"vert{j}_{k}" for k in range(3))
        for name, key in zip(names, orbit):
            curves[name] = VerticalFiber.from_key(core.torus, key[3:])
        orbits[f"fiber{j}"] = names
    chk.expect("vertical_fibers_distinct", 3 * core.n,
               len({curve.z0 for curve in curves.values()}))
    pairwise = {(slope, name): 1 for name in curves for slope in _SLOPE_NAMES}
    return curves, orbits, pairwise, {}


def _gamma_quotient_checks(quotient: SurfaceModel, n: int, chk: _Checks) -> None:
    fibers = [f"fiber{j}" for j in range(1, n + 1)]
    chk.expect("quotient_fiber_self_intersections", [0] * n,
               [quotient.curves[f].self_int for f in fibers])
    chk.expect("quotient_core_meets_each_fiber", [3] * n,
               [quotient.pairwise_int(CORE_CURVE, f) for f in fibers])


def _gamma_fiber_section(blown: SurfaceModel, n: int, fiber: dict[str, object],
                         chk: _Checks) -> list[str]:
    """The singular fibers are the fiber{j} that exc{j} meets once.  A
    puncture count is printed once when every singular fiber has it, and
    as the list of counts otherwise."""
    # Vertical fibers over distinct base points are disjoint, so each
    # image fiber row vanishes and the generic fiber meets the boundary
    # only in the core curve.
    chk.expect("generic_fiber_punctures", 3, fiber["generic_fiber_punctures"])
    meets = [blown.pairwise_int(f"exc{j}", f"fiber{j}") for j in range(1, n + 1)]
    punctures = [blown.pairwise_int(f"exc{j}", CORE_CURVE) + m for j, m in enumerate(meets, 1)]
    fiber["singular_fiber_count"] = meets.count(1)
    fiber["singular_fiber_punctures"] = punctures[0] if punctures == punctures[:1] * n else punctures
    chk.expect("singular_fiber_count", n, fiber["singular_fiber_count"])
    printed = fiber["singular_fiber_punctures"]
    chk.expect("singular_fiber_punctures", [4] * n,
               printed if isinstance(printed, list) else [printed] * n)
    return []


def _lambda_upstairs(core: _Core, chk: _Checks) -> tuple[dict, dict, dict, dict]:
    """The three constant graphs w = 2/3 + l*shift: one deck orbit of
    pairwise disjoint curves whose crossings with the slope curves all lie
    in the closed-form locus, so downstairs the two image curves meet
    exactly in the n triple points.  Also verifies the reduction identities
    2/3 + shift = 2*rho/3 and 2/3 + 2*shift = 2*rho^2/3 modulo the
    hexagonal lattice."""
    base = base_lattice()
    levels = level_curves(core.torus)
    chk.expect("shift_identity_first", True,
               base.key(TWO_THIRDS + ORDER3_SHIFT) == base.key(RHO * TWO_THIRDS))
    chk.expect("shift_identity_second", True,
               base.key(TWO_THIRDS + ORDER3_SHIFT * 2) == base.key(RHO * RHO * TWO_THIRDS))
    maps, orbit = _deck_cycle(core.deck, levels)
    for i in range(3):
        chk.expect(f"deck_maps_level{i}_to_level{(i + 1) % 3}", True, maps[i])
    chk.expect("deck_orbit_of_level_curves", True, orbit)

    disjoint = all(
        intersect_graphs(levels[i], levels[j]).kind == EMPTY
        for i in range(3) for j in range(i + 1, 3)
    )
    chk.expect("level_curves_pairwise_disjoint", True, disjoint)

    mixed_keys: set = set()
    pairwise: dict[tuple[str, str], int] = {}
    through: dict[str, frozenset] = {}
    for slope_name, slope_curve in zip(_SLOPE_NAMES, core.slopes):
        for level_name, level_curve in zip(_LEVEL_NAMES, levels):
            result = intersect_graphs(slope_curve, level_curve)
            keys = result.keys()
            mixed_keys.update(keys)
            pairwise[(slope_name, level_name)] = result.count
            if slope_name == _SLOPE_NAMES[0]:
                through[level_name] = keys
    chk.expect("slope_level_crossing_counts", [core.n] * 9, list(pairwise.values()))
    chk.expect("mixed_intersections_at_triple_points", True,
               frozenset(mixed_keys) == core.closed_keys)
    return dict(zip(_LEVEL_NAMES, levels)), {LEVEL_CURVE: _LEVEL_NAMES}, pairwise, through


def _lambda_quotient_checks(quotient: SurfaceModel, n: int, chk: _Checks) -> None:
    chk.expect("quotient_level_self_intersection", 0,
               quotient.curves[LEVEL_CURVE].self_int)
    chk.expect("quotient_core_meets_level", 3 * n,
               quotient.pairwise_int(CORE_CURVE, LEVEL_CURVE))
    chk.expect("level_multiplicity_one_at_triple_points", [1] * n,
               [quotient.point_multiplicity(f"q{j}", LEVEL_CURVE) for j in range(n)])


def _lambda_pair_checks(values: dict[str, object], n: int, chk: _Checks) -> None:
    chk.expect("same_compactification_numbers_as_other_family",
               [n, -n], [values["chi"], values["k2"]])
    chk.expect("cusp_count_differs_from_other_family_for_n_ge_2",
               True, n == 1 or 2 != n + 1)


def _lambda_fiber_section(blown: SurfaceModel, n: int, fiber: dict[str, object],
                          chk: _Checks) -> list[str]:
    fiber.update(singular_fiber_count=n, singular_fiber_punctures=None)
    flags = [
        "the generic Albanese fiber meets the boundary in"
        f" {fiber['generic_fiber_punctures']} points by push-pull; the advertised"
        " three-or-four puncture dichotomy does not identify this"
        " fibration, so the computed value is reported without assertion"
    ]
    if n == 1:
        flags.append(
            "both families have two cusps at n = 1; they are distinguished"
            " by arguments outside this artifact's scope"
        )
    return flags


_FAMILIES = {
    # (n+1)-cusped: the boundary adds the n fiber transforms, each a (-1)-curve.
    GAMMA: _Family(
        upstairs=_gamma_upstairs,
        quotient_checks=_gamma_quotient_checks,
        orbit_self_intersection=lambda n: -1,
        cusps=lambda n: n + 1,
        pair_checks=lambda values, n, chk: None,
        fiber_section=_gamma_fiber_section,
        albanese_checks=("albanese_index", "albanese_shift_order",
                         "albanese_base_point_count"),
    ),
    # 2-cusped: the boundary adds the resolved orbit of the constant graphs.
    LAMBDA: _Family(
        upstairs=_lambda_upstairs,
        quotient_checks=_lambda_quotient_checks,
        orbit_self_intersection=lambda n: -n,
        cusps=lambda n: 2,
        pair_checks=_lambda_pair_checks,
        fiber_section=_lambda_fiber_section,
        albanese_checks=("albanese_index",),
    ),
}


def build_family(family: str, n: int) -> dict[str, object]:
    """Build and certify the member of a family at level n.

    Pipeline, shared by both families: slope curves and the free order-3
    deck map, exact pairwise intersections against the closed-form
    3n-point locus, the family's extra curves, the degree-3 quotient, n
    blow-ups, and the boundary made of the resolved triple curve plus the
    images of the extra orbits.  Certifies chi = n, K^2 = -n, the boundary
    self-intersections, log-Chern equality 3n = 3*n, the cusp count (n+1
    for gamma, 2 for lambda) and volume coefficient 8n/3.  Returns the
    report document that `ballq verify` prints with json.dumps.  An
    exception in any step is raised as a BuildError naming that step.
    """
    spec = _FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    chk = _Checks()
    flags = [_TOWER_FLAG]
    # Each stage writes its fragment here, and every check on a printed
    # quantity reads its actual value back from it.
    values: dict[str, object] = {}
    stage = "geometry"
    try:
        core = _shared_geometry(n, chk)
        stage = "upstairs"
        extra_curves, extra_orbits, extra_pairwise, extra_through = spec.upstairs(core, chk)
        curves = {**dict(zip(_SLOPE_NAMES, core.slopes)), **extra_curves}
        orbits = {CORE_CURVE: _SLOPE_NAMES, **extra_orbits}
        stage = "quotient"
        quotient, blown = _quotient_and_blowup(core, curves, orbits,
                                               {**core.pair_counts, **extra_pairwise},
                                               {**core.through, **extra_through}, chk)
        values.update(chi=blown.chi_top, k2=blown.k2)
        chk.expect("chi", n, values["chi"])
        chk.expect("k2", -n, values["k2"])
        chk.expect("core_resolved_to_smooth_elliptic", SMOOTH_ELLIPTIC, blown.kind(CORE_CURVE))
        spec.quotient_checks(quotient, n, chk)

        stage = "boundary"
        values["boundary"] = [{"name": name, "self_intersection": blown.curves[name].self_int,
                               "kind": blown.kind(name)} for name in orbits]
        values["intersection"] = {
            "points_per_pair": core.pair_counts[(_SLOPE_NAMES[0], _SLOPE_NAMES[1])],
            "triple_points_downstairs": len(core.orbits),
        }
        expected_self = {CORE_CURVE: -3 * n,
                         **dict.fromkeys(extra_orbits, spec.orbit_self_intersection(n))}
        pair = _boundary_checks(blown, values["boundary"], expected_self, chk)
        bdf = classify_deck_action(core.deck, 3)
        values["bdf_type"] = bdf.index if isinstance(bdf, BdFType) else bdf.to_json()
        chk.expect("bdf_type", 5, values["bdf_type"])

        if pair is not None:
            stage = "certify"
            values.update(_certify_pair(pair))
            nef = values["nef"]
            chk.expect("nef_numerical_check", True, nef["passed"])
            chk.expect("nef_boundary_pairings_zero", True,
                       all(v == 0 for v in nef["boundary_pairings"].values()))
            chk.expect("log_chern", [3 * n, n], [values["log_c1_squared"], values["log_c2"]])
            chk.expect("bmy", BMYClass.EQUALITY.value, values["bmy"])
            chk.expect("cusps", spec.cusps(n), values["cusps"])
            chk.expect("volume_coefficient", str(Fraction(8, 3) * n),
                       values["volume"]["pi_squared_coefficient"])
            spec.pair_checks(values, n, chk)
            stage = "ledger"
            _exceptional_ledger(quotient, blown, n, chk)

            stage = "fiber"
            members = {image: [curves[name] for name in names]
                       for image, names in orbits.items()}
            rows = _generic_fiber_rows(core, members, chk)
            values["fiber"] = {"generic_fiber_boundary_rows": rows,
                               "generic_fiber_punctures": sum(rows.values())}
            flags += spec.fiber_section(blown, n, values["fiber"], chk)

            stage = "albanese"
            values["albanese"] = albanese = albanese_data(n)
            albanese_checks = {
                "albanese_index": (3, albanese["index"]),
                "albanese_shift_order": (3, albanese["shift_order"]),
                "albanese_base_point_count": (n, len(albanese["base_points"])),
            }
            for name in spec.albanese_checks:
                chk.expect(name, *albanese_checks[name])
            stage = "homology"
            values["homology"] = _homology_section(core.deck, values["chi"], values["cusps"])
            opened = values["homology"]["open_manifold"]
            chk.expect("open_manifold_b1", 2, opened["b1"])
            chk.expect("open_manifold_b3_lower_bound", spec.cusps(n) - 1, opened["b3_lower_bound"])
            chk.expect("cover_pieces_euler_zero", [0, 0],
                       [homology.BettiVector(*values["homology"][key]).euler()
                        for key in ("boundary_neighborhood_ranks", "overlap_ranks")])
            stage = "tower"
            values["tower"] = _tower_section(n)
    except Exception as exc:
        raise BuildError(family, n, stage, exc) from exc

    return _report(family, n, all(check["passed"] for check in chk.results), values,
                   chk.results, [_NEATNESS_ASSUMPTION], flags)


# ----------------------------------------------------------------------
# standalone reports
# ----------------------------------------------------------------------


def covering_report(m: int, n: int) -> dict[str, object]:
    """Whether the level-n member covers the level-m member, with the
    covering degree computed as a lattice index (None when it does not)."""
    if m < 1 or n < 1:
        raise ValueError("levels must be positive integers")
    degree = level_lattice(n).index_in(level_lattice(m))
    return {"base_level": m, "cover_level": n, "contained": degree is not None,
            "degree": degree}


def albanese_data(n: int) -> dict[str, object]:
    """The Albanese target C/Z[n, shift]: the level lattice sits inside it
    with index three (the shift has order three on the level torus) and the
    n special fiber base points are [2/3 + j - 1] for j = 1..n.  Returns
    the report's Albanese fragment."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    target = albanese_lattice(n)
    level = level_lattice(n)
    index = level.index_in(target)
    shift_order = level.key(ORDER3_SHIFT)[2]
    ((s, t), (u, v)), d = _numerators(target, (TWO_THIRDS, ONE))
    keys = [point_key(s + m * u, t + m * v, d) for m in range(n)]
    if len(set(keys)) != n:
        raise ValueError("special fiber base points are not distinct")
    return {"n": n, "target_lattice": target.to_json(),
            "contains_level_lattice": index is not None, "index": index or 0,
            "shift_order": shift_order,
            "base_points": [str(target.value(key)) for key in keys]}

