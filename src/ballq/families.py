"""End-to-end builder for the two families of ball-quotient compactifications.

Both families start from the same geometry: the product of the hexagonal
elliptic curve C/Z[rho] with the level-n curve C/Z[n, 1-rho], three graph
curves forming one orbit of the free order-3 deck automorphism
[w, z] -> [rho*w, z + shift], and the 3n intersection points that descend
to n triple points of an irreducible curve on the bielliptic quotient.
Blowing the triple points up yields the compactifying surface; the two
families differ only in the boundary divisor added to the resolved triple
curve: the n fiber transforms (n+1 cusps) or the single resolved orbit of
constant graphs (2 cusps).  build_family runs that one pipeline as the
table _STAGES: ten named stages, each a function of one build record (the
level, its checks and values, and what a stage stores for a later one).
A small record per family supplies only what differs: two numbers as
functions of n, and hooks that extend named stages with the same
signature.  Every numerical claim is recomputed exactly and recorded as a
check in the level's JSON report; a stage that raises gives the failed
report, with the values and checks recorded before it and the stage's
error, which build_family returns like a finished one.
A point is its key (see curves): the intersections, the deck orbits, the
incidence table, the upstairs model's marked points and the fiber rows
hold six-int point keys, and the curves' offsets and the vertical fibers'
base points are torus point keys.  The closed-form locus, the Albanese
base points and the generic fiber keys are arithmetic progressions of
keys (_key_progression).  Only a printed Albanese base point is read
back into Q(rho), by Lattice.value.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import homology
from .eisenstein import ONE, RHO, EisensteinNumber, eis
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
    certify_pair,
    etale_quotient,
)

SCHEMA_VERSION = 1

GAMMA = "gamma"
LAMBDA = "lambda"

# Translation of order three on every level torus: three times it is the
# period 1 - rho shared by all level lattices.
ORDER3_SHIFT = EisensteinNumber.from_triple(1, -1, 3)  # (1 - rho)/3
TWO_THIRDS = eis(Fraction(2, 3))

_SLOPE_NAMES = ("slope0", "slope1", "slope2")
_LEVEL_NAMES = ("level0", "level1", "level2")
CORE_CURVE = "slope_orbit"
LEVEL_CURVE = "level_orbit"


# Largest level n that one verify or intersect run may build.
MAX_LEVEL = 2_000

# The lattices are frozen, so each is built once per process and shared by
# every level that reads it; the tower reads those of all divisors of n.
# One entry per level up to MAX_LEVEL bounds each cache.  Keys are typed,
# so that 3.0 reaches the constructor's checks instead of the lattice
# cached for 3.
_lattice_cache = lru_cache(maxsize=MAX_LEVEL, typed=True)


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


def _key_progression(lattice: Lattice, start: EisensteinNumber, step: EisensteinNumber,
                     count: int) -> list[tuple[int, int, int]]:
    """The keys of start + m*step on the torus C/lattice for 0 <= m < count:
    the numerators of start and step are read once, brought over one
    denominator and stepped in integers."""
    (s, t, d0), (u, v, d1) = lattice.numerators(start), lattice.numerators(step)
    d = lcm(d0, d1)
    s, t, u, v = s * (d // d0), t * (d // d0), u * (d // d1), v * (d // d1)
    return [point_key(s + m * u, t + m * v, d) for m in range(count)]


def closed_form_intersection(torus: ProductTorus, n: int) -> list[tuple[int, ...]]:
    """The keys of the predicted 3n-point intersection locus of any two
    slope curves: [2/3 + l*shift, 2/3 + l*shift + m] for 0 <= l <= 2,
    0 <= m <= n-1, a w progression of three, each joined with a z
    progression of n."""
    ws = _key_progression(torus.lattice_w, TWO_THIRDS, ORDER3_SHIFT, 3)
    return [w + z for l, w in enumerate(ws)
            for z in _key_progression(torus.lattice_z, TWO_THIRDS + ORDER3_SHIFT * l, ONE, n)]


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


class _Build:
    """The record of one level's build, which every stage reads and extends.

    It holds n, the family's record spec, the checks, the report's values
    and flags, and what a stage stores for a later one: the torus, the
    slope curves and the deck map; the intersection point keys, their deck
    orbits and the closed-form key set; every upstairs curve by name, the
    curve orbits (the boundary components), the pairwise numbers and the
    key set of the points on each graph curve (see _incidence); the
    quotient, the blown-up model and the log pair (None until one forms)."""

    def __init__(self, family: str, n: int) -> None:
        self.family, self.n, self.spec = family, n, _FAMILIES[family]
        self.checks: list[dict[str, object]] = []
        self.values: dict[str, object] = {}
        self.flags = [_TOWER_FLAG]
        self.pair: LogPair | None = None

    def expect(self, name: str, expected: object, actual: object) -> None:
        self.checks.append({"name": name, "passed": expected == actual,
                            "expected": expected, "actual": actual})

    def report(self, passed: bool, assumptions: list[str],
               flags: list[str]) -> dict[str, object]:
        """The JSON document of the level's report, in schema key order:
        every value and check recorded, and the assumptions taken on trust."""
        return {
            "schema_version": SCHEMA_VERSION,
            "family": self.family,
            "n": self.n,
            "passed": passed,
            "values": self.values,
            "checks": self.checks,
            "assumptions": assumptions,
            "flags": flags,
        }

    def run(self, stages: tuple) -> dict[str, object]:
        """Run each (name, stage) of stages in order, each followed by the
        family's hook of that name, and return the level's report.  Every
        stage after "boundary" reads the log pair, so the run stops there
        when none formed.  When a stage raises, the report is the failed
        one: the values and checks recorded before the raise, and an error
        naming the stage, the exception type and its message."""
        for name, stage in stages:
            try:
                stage(self)
                if name in self.spec.hooks:
                    self.spec.hooks[name](self)
            except Exception as exc:
                return {**self.report(False, [], []), "error": {
                    "stage": name, "type": type(exc).__name__, "message": str(exc)}}
            if name == "boundary" and self.pair is None:
                break
        return self.report(all(check["passed"] for check in self.checks),
                           [_NEATNESS_ASSUMPTION], self.flags)


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
# the stages of build_family, shared by both families
# ----------------------------------------------------------------------


def _deck_cycle(deck: TorusAutomorphism, curves: list[GraphCurve]) -> tuple[list[bool], bool]:
    """Whether the deck maps each of three curves to the next, cyclically,
    from one image per curve, and whether they are one deck orbit of size
    three: every map holds and curves[0] is not among the other two."""
    maps = [apply_auto_to_curve(deck, curve) == curves[(i + 1) % 3]
            for i, curve in enumerate(curves)]
    return maps, all(maps) and curves[0] not in curves[1:]


def _geometry(b: _Build) -> None:
    """The torus, the slope curves and the deck map; the slope curves'
    pairwise intersections against the closed form; the intersection
    point keys and their deck orbits."""
    n = b.n
    b.torus = torus = product_torus(n)
    b.slopes = slopes = slope_curves(torus)
    b.deck = deck = deck_automorphism(torus)

    b.expect("deck_order", 3, automorphism_order(deck))
    b.expect("deck_action_free", True, is_free(deck))

    maps, orbit = _deck_cycle(deck, slopes)
    b.expect("deck_orbit_of_slope_curves", True, orbit)
    for i in range(3):
        b.expect(f"deck_maps_slope{i}_to_slope{(i + 1) % 3}", True, maps[i])

    b.closed_keys = frozenset(closed_form_intersection(torus, n))
    b.expect("closed_form_size", 3 * n, len(b.closed_keys))

    b.pairwise, b.through = {}, {}
    for i in range(3):
        for j in range(i + 1, 3):
            result = intersect_graphs(slopes[i], slopes[j])
            keys = result.keys()
            b.pairwise[(_SLOPE_NAMES[i], _SLOPE_NAMES[j])] = result.count
            b.expect(f"intersection_count[slope{i},slope{j}]", 3 * n, result.count)
            b.expect(f"intersection_matches_closed_form[slope{i},slope{j}]",
                     True, keys == b.closed_keys)
            if i == 0:
                b.through[_SLOPE_NAMES[j]] = keys
            if (i, j) == (0, 1):
                b.points = result.point_keys

    b.expect("branch_slopes_pairwise_distinct", True,
             len({c.matrix for c in slopes}) == 3)

    b.through[_SLOPE_NAMES[0]] = frozenset(b.points)
    b.orbits = orbit_of_points(deck, b.points)
    b.expect("point_orbit_count", n, len(b.orbits))
    b.expect("point_orbit_sizes", [3] * n, [len(o) for o in b.orbits])


def _upstairs(b: _Build) -> None:
    """The slope curves, one deck orbit; each family's hook adds its own
    curves, orbits, pairwise numbers and key sets."""
    b.curves = dict(zip(_SLOPE_NAMES, b.slopes))
    b.curve_orbits = {CORE_CURVE: _SLOPE_NAMES}


def _incidence(b: _Build) -> dict[tuple, dict[str, int]]:
    """Multiplicity table {point key: {curve name: 1}} of the upstairs
    curves through the intersection points, filled per curve from a key set;
    the point keys are the marked points' names in the upstairs model.

    Every point lies on slope0, so a graph curve passes through a point
    exactly when its key is in the curve's intersection with slope0, which
    intersect_graphs has solved exactly: b.through[name] is that key set
    (all points for slope0).  A vertical fiber passes through the points
    whose z key (the last three ints of the point key) is its z0 (all
    curves live on b.torus, so keys are coordinates in one z-lattice
    basis), read off an index of the points by z key.
    """
    rows: dict[tuple, dict[str, int]] = {key: {} for key in b.points}
    over_z: dict[tuple, list[tuple]] = {}
    for key in b.points:
        over_z.setdefault(key[3:], []).append(key)
    for name, curve in b.curves.items():
        keys = over_z.get(curve.z0, ()) if isinstance(curve, VerticalFiber) else b.through[name]
        for key in rows.keys() & keys:
            rows[key][name] = 1
    return rows


def _quotient(b: _Build) -> None:
    """Assemble the upstairs model of all curves, push it through the deck
    quotient with the curve orbits and blow up the triple points."""
    n = b.n
    points = _incidence(b)
    b.expect("all_slope_curves_through_every_point", True,
             all(all(m.get(name, 0) == 1 for name in _SLOPE_NAMES) for m in points.values()))

    curves = {name: CurveRecord(0, SMOOTH_ELLIPTIC) for name in b.curves}
    upstairs = SurfaceModel.build(0, 0, curves, b.pairwise, points)
    point_orbits = {f"q{j}": tuple(orbit) for j, orbit in enumerate(b.orbits)}
    b.quotient = quotient = etale_quotient(upstairs, 3, b.curve_orbits, point_orbits)

    b.expect("quotient_chi", 0, quotient.chi_top)
    b.expect("quotient_k2", 0, quotient.k2)
    b.expect("quotient_core_self_intersection", 6 * n, quotient.curves[CORE_CURVE].self_int)
    b.expect("quotient_core_triple_points", [3] * n,
             [quotient.point_multiplicity(f"q{j}", CORE_CURVE) for j in range(n)])

    b.blown = blown = blow_up(quotient, {f"q{j}": f"exc{j + 1}" for j in range(n)})
    b.values.update(chi=blown.chi_top, k2=blown.k2)
    b.expect("chi", n, b.values["chi"])
    b.expect("k2", -n, b.values["k2"])
    b.expect("core_resolved_to_smooth_elliptic", SMOOTH_ELLIPTIC, blown.kind(CORE_CURVE))


def _boundary(b: _Build) -> None:
    """The boundary fragment, made of the resolved triple curve and the
    images of the extra orbits, and its log pair when its curves form one;
    the deck action's Bagnera-de Franchis type."""
    blown = b.blown
    b.values["boundary"] = [{"name": name, "self_intersection": blown.curves[name].self_int,
                             "kind": blown.kind(name)} for name in b.curve_orbits]
    b.values["intersection"] = {
        "points_per_pair": b.pairwise[(_SLOPE_NAMES[0], _SLOPE_NAMES[1])],
        "triple_points_downstairs": len(b.orbits),
    }
    expected_self = {**dict.fromkeys(b.curve_orbits, b.spec.orbit_self_intersection(b.n)),
                     CORE_CURVE: -3 * b.n}
    actual_self = {entry["name"]: entry["self_intersection"] for entry in b.values["boundary"]}
    b.expect("boundary_self_intersections", expected_self, actual_self)
    b.expect("boundary_self_intersections_negative", True,
             all(v < 0 for v in actual_self.values()))
    b.expect("boundary_pairwise_disjoint", True, not blown.pairs_among(actual_self))
    try:
        b.pair = LogPair(blown, tuple(actual_self))
    except ValueError as exc:
        b.expect("boundary_pair_valid", True, f"invalid: {exc}")
    else:
        b.expect("boundary_pair_valid", True, True)

    bdf = classify_deck_action(b.deck, 3)
    b.values["bdf_type"] = bdf.index if isinstance(bdf, BdFType) else bdf.to_json()
    b.expect("bdf_type", 5, b.values["bdf_type"])


def _certify(b: _Build) -> None:
    """The log pair's certify fragment, written into the values whole, and
    its checks against the family's numbers, read back from there."""
    n, values = b.n, b.values
    values.update(certify_pair(b.pair))
    nef = values["nef"]
    b.expect("nef_numerical_check", True, nef["passed"])
    b.expect("nef_boundary_pairings_zero", True,
             all(v == 0 for v in nef["boundary_pairings"].values()))
    b.expect("log_chern", [3 * n, n], [values["log_c1_squared"], values["log_c2"]])
    b.expect("bmy", BMYClass.EQUALITY.value, values["bmy"])
    b.expect("cusps", b.spec.cusps(n), values["cusps"])
    b.expect("volume_coefficient", str(Fraction(8, 3) * n),
             values["volume"]["pi_squared_coefficient"])


def _ledger(b: _Build) -> None:
    """Each exc{j} is a smooth rational (-1)-curve whose row of nonzero
    intersection numbers is the multiplicity table of the point q{j-1} it
    replaces: it meets each curve through that point once per branch and
    misses every other curve, every other exceptional curve included."""
    rows: dict[str, dict[str, int]] = {f"exc{j}": {} for j in range(1, b.n + 1)}
    for (first, second), value in b.blown.pairwise.items():
        if first in rows:
            rows[first][second] = value
        if second in rows:
            rows[second][first] = value
    ok = all(b.blown.curves[exc] == CurveRecord(-1, SMOOTH_RATIONAL)
             and row == b.quotient.points[f"q{j}"] for j, (exc, row) in enumerate(rows.items()))
    b.expect("exceptional_curve_ledger", True, ok)


def _fiber(b: _Build) -> None:
    """Intersection row of a generic Albanese fiber against each image
    curve, computed upstairs (the three generic vertical fibers, by their
    z keys) and divided by the covering degree.  A graph meets each
    vertical fiber once; distinct vertical fibers are disjoint."""
    generic_z = _key_progression(b.torus.lattice_z, eis(Fraction(1, 2)), ORDER3_SHIFT, 3)
    singular_z = {key[3:] for key in b.points}
    b.expect("generic_fiber_misses_triple_points", True, singular_z.isdisjoint(generic_z))
    rows: dict[str, int] = {}
    for image, names in b.curve_orbits.items():
        total = 0
        for curve in map(b.curves.get, names):
            if not isinstance(curve, VerticalFiber):
                total += len(generic_z)
            elif curve.z0 in generic_z:
                raise ValueError("generic fiber is not generic: it hits "
                                 "a special vertical fiber")
        # Each graph curve adds len(generic_z) = 3, so total divides by 3.
        rows[image] = total // 3
    b.values["fiber"] = {"generic_fiber_boundary_rows": rows,
                         "generic_fiber_punctures": sum(rows.values())}


def _albanese(b: _Build) -> None:
    albanese = b.values["albanese"] = albanese_data(b.n)
    b.expect("albanese_index", 3, albanese["index"])


def _homology(b: _Build) -> None:
    """The homology fragment from the deck's action, the certified chi and
    the certified cusp count."""
    section = b.values["homology"] = homology.homology_section(
        b.deck.matrices, b.values["chi"], b.values["cusps"])
    opened = section["open_manifold"]
    b.expect("open_manifold_b1", 2, opened["b1"])
    b.expect("open_manifold_b3_lower_bound", b.spec.cusps(b.n) - 1, opened["b3_lower_bound"])
    b.expect("cover_pieces_euler_zero", [0, 0],
             [sum((-1) ** i * rank for i, rank in enumerate(section[key]))
              for key in ("boundary_neighborhood_ranks", "overlap_ranks")])


def _tower(b: _Build) -> None:
    n, level = b.n, level_lattice(b.n)
    b.values["tower"] = {
        "covers_levels": [{"base_level": m, "degree": level.index_in(level_lattice(m))}
                          for m in range(1, n + 1) if n % m == 0],
        "consecutive_cover_exists": n == 1 or n % (n - 1) == 0,
        "note": (
            "level lattice containment holds exactly when the base level divides n;"
            " consecutive members are related through common divisors only"
        ),
    }


# build_family runs these in order; each is a function (b) -> None of the
# build record, and the names are the report's error stages.
_STAGES = (
    ("geometry", _geometry),
    ("upstairs", _upstairs),
    ("quotient", _quotient),
    ("boundary", _boundary),
    ("certify", _certify),
    ("ledger", _ledger),
    ("fiber", _fiber),
    ("albanese", _albanese),
    ("homology", _homology),
    ("tower", _tower),
)


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
# the two families: what each adds to the shared stages
# ----------------------------------------------------------------------


# What one family adds to the shared stages: the self-intersection of each
# extra boundary component and the cusp count, as functions of n, and
# hooks, {stage name: hook}.  A hook is a function (b) -> None that runs
# right after the shared stage of its name; it extends the build record and
# records its own checks.
_Family = namedtuple("_Family", "orbit_self_intersection cusps hooks")


def _gamma_upstairs(b: _Build) -> None:
    """The three vertical fibers vert{j}_k over the members of the j-th point
    orbit, each meeting every slope curve once and built from the point's z
    key, and their deck orbits fiber{j}; the images are the Albanese fibers
    through the triple points."""
    fibers: dict[str, VerticalFiber] = {}
    for j, orbit in enumerate(b.orbits, start=1):
        names = tuple(f"vert{j}_{k}" for k in range(3))
        for name, key in zip(names, orbit):
            fibers[name] = VerticalFiber.from_key(b.torus, key[3:])
        b.curve_orbits[f"fiber{j}"] = names
    b.expect("vertical_fibers_distinct", 3 * b.n, len({curve.z0 for curve in fibers.values()}))
    b.curves.update(fibers)
    b.pairwise.update({(slope, name): 1 for name in fibers for slope in _SLOPE_NAMES})


def _gamma_quotient(b: _Build) -> None:
    fibers = [f"fiber{j}" for j in range(1, b.n + 1)]
    b.expect("quotient_fiber_self_intersections", [0] * b.n,
             [b.quotient.curves[f].self_int for f in fibers])
    b.expect("quotient_core_meets_each_fiber", [3] * b.n,
             [b.quotient.pairwise_int(CORE_CURVE, f) for f in fibers])


def _gamma_fiber(b: _Build) -> None:
    """The singular fibers are the fiber{j} that exc{j} meets once.  A
    puncture count is printed once when every singular fiber has it, and
    as the list of counts otherwise."""
    n, blown, fiber = b.n, b.blown, b.values["fiber"]
    # Vertical fibers over distinct base points are disjoint, so each
    # image fiber row vanishes and the generic fiber meets the boundary
    # only in the core curve.
    b.expect("generic_fiber_punctures", 3, fiber["generic_fiber_punctures"])
    meets = [blown.pairwise_int(f"exc{j}", f"fiber{j}") for j in range(1, n + 1)]
    punctures = [blown.pairwise_int(f"exc{j}", CORE_CURVE) + m for j, m in enumerate(meets, 1)]
    fiber["singular_fiber_count"] = meets.count(1)
    fiber["singular_fiber_punctures"] = punctures[0] if punctures == punctures[:1] * n else punctures
    b.expect("singular_fiber_count", n, fiber["singular_fiber_count"])
    printed = fiber["singular_fiber_punctures"]
    b.expect("singular_fiber_punctures", [4] * n,
             printed if isinstance(printed, list) else [printed] * n)


def _gamma_albanese(b: _Build) -> None:
    albanese = b.values["albanese"]
    b.expect("albanese_shift_order", 3, albanese["shift_order"])
    b.expect("albanese_base_point_count", b.n, len(albanese["base_points"]))


def _lambda_upstairs(b: _Build) -> None:
    """The three constant graphs w = 2/3 + l*shift: one deck orbit of
    pairwise disjoint curves whose crossings with the slope curves all lie
    in the closed-form locus, so downstairs the two image curves meet
    exactly in the n triple points.  Also verifies the reduction identities
    2/3 + shift = 2*rho/3 and 2/3 + 2*shift = 2*rho^2/3 modulo the
    hexagonal lattice."""
    base = base_lattice()
    levels = level_curves(b.torus)
    b.expect("shift_identity_first", True,
             base.key(TWO_THIRDS + ORDER3_SHIFT) == base.key(RHO * TWO_THIRDS))
    b.expect("shift_identity_second", True,
             base.key(TWO_THIRDS + ORDER3_SHIFT * 2) == base.key(RHO * RHO * TWO_THIRDS))
    maps, orbit = _deck_cycle(b.deck, levels)
    for i in range(3):
        b.expect(f"deck_maps_level{i}_to_level{(i + 1) % 3}", True, maps[i])
    b.expect("deck_orbit_of_level_curves", True, orbit)

    disjoint = all(
        intersect_graphs(levels[i], levels[j]).kind == EMPTY
        for i in range(3) for j in range(i + 1, 3)
    )
    b.expect("level_curves_pairwise_disjoint", True, disjoint)

    mixed_keys: set = set()
    crossings = []
    for slope_name, slope_curve in zip(_SLOPE_NAMES, b.slopes):
        for level_name, level_curve in zip(_LEVEL_NAMES, levels):
            result = intersect_graphs(slope_curve, level_curve)
            keys = result.keys()
            mixed_keys.update(keys)
            b.pairwise[(slope_name, level_name)] = result.count
            crossings.append(result.count)
            if slope_name == _SLOPE_NAMES[0]:
                b.through[level_name] = keys
    b.expect("slope_level_crossing_counts", [b.n] * 9, crossings)
    b.expect("mixed_intersections_at_triple_points", True,
             frozenset(mixed_keys) == b.closed_keys)
    b.curves.update(zip(_LEVEL_NAMES, levels))
    b.curve_orbits[LEVEL_CURVE] = _LEVEL_NAMES


def _lambda_quotient(b: _Build) -> None:
    b.expect("quotient_level_self_intersection", 0, b.quotient.curves[LEVEL_CURVE].self_int)
    b.expect("quotient_core_meets_level", 3 * b.n,
             b.quotient.pairwise_int(CORE_CURVE, LEVEL_CURVE))
    b.expect("level_multiplicity_one_at_triple_points", [1] * b.n,
             [b.quotient.point_multiplicity(f"q{j}", LEVEL_CURVE) for j in range(b.n)])


def _lambda_certify(b: _Build) -> None:
    n = b.n
    b.expect("same_compactification_numbers_as_other_family",
             [n, -n], [b.values["chi"], b.values["k2"]])
    b.expect("cusp_count_differs_from_other_family_for_n_ge_2",
             True, n == 1 or 2 != n + 1)


def _lambda_fiber(b: _Build) -> None:
    n, fiber = b.n, b.values["fiber"]
    fiber.update(singular_fiber_count=n, singular_fiber_punctures=None)
    b.flags.append(
        "the generic Albanese fiber meets the boundary in"
        f" {fiber['generic_fiber_punctures']} points by push-pull; the advertised"
        " three-or-four puncture dichotomy does not identify this"
        " fibration, so the computed value is reported without assertion"
    )
    if n == 1:
        b.flags.append(
            "both families have two cusps at n = 1; they are distinguished"
            " by arguments outside this artifact's scope"
        )


_FAMILIES = {
    # (n+1)-cusped: the boundary adds the n fiber transforms, each a (-1)-curve.
    GAMMA: _Family(
        orbit_self_intersection=lambda n: -1,
        cusps=lambda n: n + 1,
        hooks={"upstairs": _gamma_upstairs, "quotient": _gamma_quotient,
               "fiber": _gamma_fiber, "albanese": _gamma_albanese},
    ),
    # 2-cusped: the boundary adds the resolved orbit of the constant graphs.
    LAMBDA: _Family(
        orbit_self_intersection=lambda n: -n,
        cusps=lambda n: 2,
        hooks={"upstairs": _lambda_upstairs, "quotient": _lambda_quotient,
               "certify": _lambda_certify, "fiber": _lambda_fiber},
    ),
}


def build_family(family: str, n: int) -> dict[str, object]:
    """Build and certify the member of a family at level n.

    Pipeline, shared by both families and run as the stage table _STAGES
    over one build record: slope curves and the free order-3 deck map,
    exact pairwise intersections against the closed-form 3n-point locus,
    the family's extra curves, the degree-3 quotient, n blow-ups, and the
    boundary made of the resolved triple curve plus the images of the
    extra orbits.  Certifies chi = n, K^2 = -n, the boundary
    self-intersections, log-Chern equality 3n = 3*n, the cusp count (n+1
    for gamma, 2 for lambda) and volume coefficient 8n/3.  Returns the
    report document that `ballq verify` prints with json.dumps, passed
    or failed: a stage that raises gives the failed report, which names
    that stage.  An unknown family or a level below 1 raises ValueError.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _Build(family, n).run(_STAGES)


# ----------------------------------------------------------------------
# standalone reports
# ----------------------------------------------------------------------


def albanese_data(n: int) -> dict[str, object]:
    """The Albanese target C/Z[n, shift]: the level lattice sits inside it
    with index three (the shift has order three on the level torus) and the
    n special fiber base points are [2/3 + j - 1] for j = 1..n.  Returns
    the report's Albanese fragment; albanese_lattice rejects n < 1."""
    target = albanese_lattice(n)
    level = level_lattice(n)
    index = level.index_in(target)
    shift_order = level.key(ORDER3_SHIFT)[2]
    keys = _key_progression(target, TWO_THIRDS, ONE, n)
    if len(set(keys)) != n:
        raise ValueError("special fiber base points are not distinct")
    return {"n": n, "target_lattice": target.to_json(),
            "contains_level_lattice": index is not None, "index": index or 0,
            "shift_order": shift_order,
            "base_points": [str(target.value(key)) for key in keys]}

