"""Quotients, blow-ups, the certificate of a log pair and volumes on
surface models."""

import json
import math
import random
from fractions import Fraction

import pytest

from ballq import cli
from ballq.surfaces import (
    BMYClass,
    CurveRecord,
    LogPair,
    SMOOTH_ELLIPTIC,
    SMOOTH_RATIONAL,
    SINGULAR,
    SurfaceModel,
    blow_up,
    certify_pair,
    etale_quotient,
    volume_from_chi,
)

from conftest import k_dot, random_log_pair, reference_certificate


def upstairs_model(n):
    """Abelian-surface model: three slope curves meeting pairwise in 3n
    points, all of them triple points of the union."""
    names = ("s0", "s1", "s2")
    curves = {name: CurveRecord(0, SMOOTH_ELLIPTIC) for name in names}
    pairwise = {(a, b): 3 * n for i, a in enumerate(names) for b in names[i + 1:]}
    points = {f"p{k}_{m}": {name: 1 for name in names}
              for k in range(3) for m in range(n)}
    return SurfaceModel(0, 0, curves, pairwise, points)


def quotient_orbits(n):
    """(curve orbits, point orbits) of the slope model."""
    curve_orbits = {"core": ("s0", "s1", "s2")}
    point_orbits = {f"q{m}": tuple(f"p{k}_{m}" for k in range(3)) for m in range(n)}
    return curve_orbits, point_orbits


def test_quotient_of_slope_orbit():
    for n in (1, 2, 4):
        image = etale_quotient(upstairs_model(n), 3, *quotient_orbits(n))
        assert image.chi_top == 0
        assert image.k2 == 0
        core = image.curves["core"]
        assert core.self_int == 6 * n
        assert core.kind == SMOOTH_ELLIPTIC
        assert image.kind("core") == SINGULAR
        assert all(image.point_multiplicity(f"q{m}", "core") == 3 for m in range(n))


def test_quotient_of_disjoint_orbit_keeps_smoothness():
    names = ("h0", "h1", "h2")
    curves = {name: CurveRecord(0, SMOOTH_ELLIPTIC) for name in names}
    model = SurfaceModel(0, 0, curves, {}, {})
    image = etale_quotient(model, 3, {"level": names}, {})
    assert image.curves["level"].self_int == 0
    assert image.curves["level"].kind == SMOOTH_ELLIPTIC


def test_trivial_quotient_is_identity():
    model = upstairs_model(2)
    image = etale_quotient(model, 1, {name: (name,) for name in model.curves},
                           {p: (p,) for p in model.points})
    assert image.chi_top == model.chi_top and image.k2 == model.k2
    assert {n: r.self_int for n, r in image.curves.items()} == {
        n: r.self_int for n, r in model.curves.items()}


def test_quotient_rejects_non_free_point_orbits():
    model = upstairs_model(1)
    curve_orbits, _ = quotient_orbits(1)
    with pytest.raises(ValueError):
        etale_quotient(model, 3, curve_orbits, {"q0": ("p0_0", "p1_0"), "q1": ("p2_0",)})


def test_quotient_rejects_partial_partition():
    model = upstairs_model(1)
    with pytest.raises(ValueError):
        etale_quotient(model, 3, {"core": ("s0", "s1")}, quotient_orbits(1)[1])


def test_quotient_accepts_point_names_of_mixed_types():
    # Point names need only be hashable: a string and an int tuple can
    # share an orbit, and a bad partition of them is still caught.
    curves = {name: CurveRecord(0, SMOOTH_ELLIPTIC) for name in ("a", "b")}
    model = SurfaceModel(0, 0, curves, {}, {"p": {"a": 1}, (1, 2): {"b": 1}})
    curve_orbits = {"ab": ("a", "b")}
    image = etale_quotient(model, 2, curve_orbits, {"q": ("p", (1, 2))})
    assert image.point_multiplicity("q", "ab") == 1
    for bad in ({"q": ("p", "p")}, {"q": ("p", (1, 2)), "r": ("p", (1, 2))},
                {"q": ("p", (2, 1))}):
        with pytest.raises(ValueError, match="point orbits must partition"):
            etale_quotient(model, 2, curve_orbits, bad)


def dense_quotient_numbers(model, g, curve_orbits, point_orbits):
    """Reference for etale_quotient: every orbit pair and every point
    orbit against every curve orbit, through pairwise_int and
    point_multiplicity, the self-intersections in image order, then the
    image pairs (a, b), a < b, in sorted order.  Returns
    (self-intersections, pairwise, points)."""
    def pushed(total, what):
        if total % g:
            raise ValueError(f"{what} does not divide by the group order")
        return total // g

    self_ints, pairwise = {}, {}
    for image, orbit in curve_orbits.items():
        self_ints[image] = pushed(sum(model.pairwise_int(a, b)
                                      for a in orbit for b in orbit),
                                  f"(sum of orbit {image!r})^2")
    images = sorted(curve_orbits)
    for i, image in enumerate(images):
        for other in images[i + 1:]:
            cross = sum(model.pairwise_int(a, b)
                        for a in curve_orbits[image] for b in curve_orbits[other])
            value = pushed(cross, f"intersection of orbits {image!r} and {other!r}")
            if value:
                pairwise[(image, other)] = value
    points = {}
    for q, orbit in point_orbits.items():
        counts = {}
        for image, curve_orbit in curve_orbits.items():
            per_member = {sum(model.point_multiplicity(p, c) for c in curve_orbit)
                          for p in orbit}
            if len(per_member) != 1:
                raise ValueError(f"branch count at {q!r} differs across the orbit")
            if per_member != {0}:
                counts[image] = per_member.pop()
        points[q] = counts
    return self_ints, pairwise, points


def random_orbit_model(rng):
    """Curve orbits of size 1 or 3 and point orbits of size 3 with sparse
    random numbers, so that some quotients exist and some must fail.  The
    images are named in descending order, so that image order and sorted
    name order differ."""
    curve_orbits, curves = {}, {}
    for i in range(rng.randint(1, 4)):
        names = tuple(f"c{i}_{k}" for k in range(rng.choice((1, 3))))
        curve_orbits[f"img{9 - i}"] = names
        self_int = rng.choice((0, 0, 0, 3, -3, 1))
        for name in names:
            curves[name] = CurveRecord(self_int, SMOOTH_ELLIPTIC)
    names = list(curves)
    pairwise = {(a, b): rng.choice((0, 1, 3, 3))
                for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < 0.4}
    point_orbits, points = {}, {}
    for j in range(rng.randint(0, 2)):
        members = tuple(f"p{j}_{k}" for k in range(3))
        point_orbits[f"q{j}"] = members
        base = {name: rng.randint(0, 1) for name in names}
        for member in members:
            mults = dict(base)
            if rng.random() < 0.15:
                flip = rng.choice(names)
                mults[flip] = 1 - mults[flip]
            points[member] = mults
    model = SurfaceModel(0, 0, curves, pairwise, points)
    return model, curve_orbits, point_orbits


def test_quotient_matches_dense_reference():
    rng = random.Random(2024)
    kinds = {"(sum of orbit": "self-intersection", "intersection of orbits": "image pair",
             "branch count": "branch count"}
    outcomes = dict.fromkeys(("quotient", *kinds.values()), 0)
    for _ in range(400):
        model, *orbits = random_orbit_model(rng)
        try:
            expected = dense_quotient_numbers(model, 3, *orbits)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                etale_quotient(model, 3, *orbits)
            assert str(raised.value) == str(exc)
            (kind,) = [kind for prefix, kind in kinds.items() if str(exc).startswith(prefix)]
            outcomes[kind] += 1
            continue
        image = etale_quotient(model, 3, *orbits)
        got = ({name: rec.self_int for name, rec in image.curves.items()},
               image.pairwise, image.points)
        assert got == expected
        outcomes["quotient"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def build_blown_gamma(n):
    """Quotient of the slope orbit plus n fiber orbits, then n blow-ups."""
    names = ("s0", "s1", "s2")
    curves = {name: CurveRecord(0, SMOOTH_ELLIPTIC) for name in names}
    pairwise = {(a, b): 3 * n for i, a in enumerate(names) for b in names[i + 1:]}
    points = {}
    for m in range(n):
        for k in range(3):
            fiber = f"v{m}_{k}"
            curves[fiber] = CurveRecord(0, SMOOTH_ELLIPTIC)
            pairwise.update({(name, fiber): 1 for name in names})
            points[f"p{k}_{m}"] = {**{name: 1 for name in names}, fiber: 1}
    model = SurfaceModel(0, 0, curves, pairwise, points)
    curve_orbits = {"core": names, **{f"fiber{m + 1}": tuple(f"v{m}_{k}" for k in range(3))
                                      for m in range(n)}}
    point_orbits = {f"q{m}": tuple(f"p{k}_{m}" for k in range(3)) for m in range(n)}
    image = etale_quotient(model, 3, curve_orbits, point_orbits)
    blown = image
    for m in range(n):
        blown = blow_up(blown, {f"q{m}": f"e{m + 1}"})
    return image, blown


def test_blow_up_family_invariants():
    for n in (1, 3, 4):
        image, blown = build_blown_gamma(n)
        assert blown.chi_top == n
        assert blown.k2 == -n
        assert blown.curves["core"].self_int == -3 * n
        assert blown.curves["core"].kind == SMOOTH_ELLIPTIC
        for m in range(1, n + 1):
            assert blown.curves[f"fiber{m}"].self_int == -1
            assert blown.pairwise_int("core", f"fiber{m}") == 0
            assert blown.curves[f"e{m}"].self_int == -1
            assert blown.curves[f"e{m}"].kind == SMOOTH_RATIONAL
            assert blown.pairwise_int(f"e{m}", "core") == 3
            assert blown.pairwise_int(f"e{m}", f"fiber{m}") == 1


def test_blow_up_unknown_point():
    model = upstairs_model(1)
    with pytest.raises(ValueError):
        blow_up(model, {"nope": "e"})


def test_blow_up_level_curve_drops_by_point_count():
    # one smooth curve of self-intersection 0 through n simple points
    for n in (1, 4):
        curves = {"level": CurveRecord(0, SMOOTH_ELLIPTIC)}
        points = {f"q{m}": {"level": 1} for m in range(n)}
        model = SurfaceModel(0, 0, curves, {}, points)
        for m in range(n):
            model = blow_up(model, {f"q{m}": f"e{m}"})
        assert model.curves["level"].self_int == -n


def test_k_dot_values():
    # K.C by adjunction, in the oracle: 9 and 0 for the elliptic curves t0
    # and flat, -1 for a rational (-1)-curve, and no value for a singular
    # curve.  The certificate reads K.t0 = 9 off its boundary curve t0:
    # c1bar^2 = K^2 + 2*K.t0 + t0^2 = -3 + 18 - 9.
    curves = {
        "t0": CurveRecord(-9, SMOOTH_ELLIPTIC),
        "e": CurveRecord(-1, SMOOTH_RATIONAL),
        "flat": CurveRecord(0, SMOOTH_ELLIPTIC),
        "node": CurveRecord(6, SMOOTH_ELLIPTIC),
    }
    model = SurfaceModel(3, -3, curves, {}, {"double": {"node": 2, "flat": 1}})
    assert k_dot(model, "t0") == 9
    assert k_dot(model, "e") == -1
    assert k_dot(model, "flat") == 0
    with pytest.raises(ValueError):
        k_dot(model, "node")
    fragment = certify_pair(LogPair(model, ("t0",)))
    assert fragment["log_c1_squared"] == 6
    assert fragment["nef"]["boundary_pairings"] == {"t0": 0}


def gamma_pair(n):
    _, blown = build_blown_gamma(n)
    boundary = ("core",) + tuple(f"fiber{m}" for m in range(1, n + 1))
    return LogPair(blown, boundary)


def chern_numbers(pair):
    fragment = certify_pair(pair)
    return fragment["log_c1_squared"], fragment["log_c2"]


def test_log_chern_gamma_family():
    pair = gamma_pair(4)
    assert chern_numbers(pair) == (12, 4)


def test_log_chern_empty_boundary():
    model = SurfaceModel(0, 0, {}, {}, {})
    assert chern_numbers(LogPair(model, ())) == (0, 0)


def test_log_pair_invariants_enforced():
    _, blown = build_blown_gamma(1)
    with pytest.raises(ValueError):
        LogPair(blown, ("core", "e1"))  # rational boundary component
    with pytest.raises(ValueError):
        LogPair(blown, ("core", "core"))  # repeated name
    crossing = SurfaceModel(1, -1, {
        "a": CurveRecord(-1, SMOOTH_ELLIPTIC),
        "b": CurveRecord(-1, SMOOTH_ELLIPTIC),
    }, {("a", "b"): 2}, {})
    with pytest.raises(ValueError):
        LogPair(crossing, ("a", "b"))


def test_bmy_equality_for_gamma_pairs():
    for n in (1, 2, 5):
        assert certify_pair(gamma_pair(n))["bmy"] == BMYClass.EQUALITY.value


def test_bmy_strict_inequality_single_component():
    _, blown = build_blown_gamma(1)
    pair = LogPair(blown, ("core",))
    assert chern_numbers(pair) == (2, 1)
    assert certify_pair(pair)["bmy"] == BMYClass.STRICT_INEQUALITY.value


def test_bmy_violation():
    model = SurfaceModel(1, 2, {"t": CurveRecord(-5, SMOOTH_ELLIPTIC)}, {}, {})
    pair = LogPair(model, ("t",))
    assert chern_numbers(pair) == (7, 1)
    assert certify_pair(pair)["bmy"] == BMYClass.VIOLATION.value


def test_bmy_not_applicable_without_positivity():
    model = SurfaceModel(0, 0, {}, {}, {})
    assert certify_pair(LogPair(model, ()))["bmy"] == BMYClass.NOT_APPLICABLE.value


def test_nef_numerical_check_gamma():
    for n in (1, 3):
        report = certify_pair(gamma_pair(n))["nef"]
        assert report["log_canonical_self_int"] == 3 * n
        assert set(report["boundary_pairings"].values()) == {0}
        assert report["passed"]
        assert json.loads(json.dumps(report)) == report


def test_cusp_count():
    assert certify_pair(gamma_pair(4))["cusps"] == 5
    _, blown = build_blown_gamma(1)
    assert certify_pair(LogPair(blown, ("core",)))["cusps"] == 1


def test_certificate_matches_the_reference_formulas():
    """The one pass over the boundary gives the fragment, key order
    included, that the general formulas give on random valid pairs whose
    other curves, elliptic, rational or singular, meet the boundary, and
    on the gamma pairs.  Every BMY class occurs."""
    rng = random.Random(2027)
    pairs = [random_log_pair(rng) for _ in range(600)] + [gamma_pair(n) for n in range(1, 6)]
    classes = set()
    for pair in pairs:
        fragment, expected = certify_pair(pair), reference_certificate(pair)
        assert fragment == expected
        assert list(fragment) == list(expected) == ["log_c1_squared", "log_c2", "bmy", "nef",
                                                    "cusps", "volume"]
        assert list(fragment["nef"]) == list(expected["nef"])
        classes.add(fragment["bmy"])
    assert classes == {member.value for member in BMYClass}
    assert any(pair.surface.pairs_among(pair.surface.curves)
               and pair.surface.singular_curves for pair in pairs)


def test_volume_from_chi():
    # The integer printer against the Fraction formula at every chi that
    # `ballq spectrum` can tabulate, and the display float bit for bit.
    for chi in range(cli.MAX_LEVELS + 1):
        coefficient = Fraction(8, 3) * chi
        doc = volume_from_chi(chi)
        assert (doc["pi_squared_coefficient"], doc["text"]) == (str(coefficient),
                                                                f"({coefficient})·π²")
        assert doc["approx_display_only"].hex() == (float(coefficient) * math.pi ** 2).hex()
        assert list(doc) == ["pi_squared_coefficient", "text", "approx_display_only"]
    assert Fraction(volume_from_chi(1)["pi_squared_coefficient"]) == Fraction(8, 3)
    assert Fraction(volume_from_chi(0)["pi_squared_coefficient"]) == 0
    assert Fraction(volume_from_chi(7)["pi_squared_coefficient"]) == Fraction(56, 3)
    assert volume_from_chi(3)["text"] == "(8)·π²"
    assert volume_from_chi(1)["text"] == "(8/3)·π²"
    with pytest.raises(ValueError):
        volume_from_chi(-1)


def test_volume_json_tags_decimal_as_display_only():
    doc = volume_from_chi(2)
    assert doc["pi_squared_coefficient"] == "16/3"
    assert "approx_display_only" in doc
    assert json.loads(json.dumps(doc)) == doc


def assert_singular_iff_multiple_point(model):
    """kind() says SINGULAR exactly for the curves that some marked point
    carries with multiplicity >= 2, and the record's kind for the rest."""
    for name, rec in model.curves.items():
        multiple = any(mults.get(name, 0) >= 2 for mults in model.points.values())
        assert model.kind(name) == (SINGULAR if multiple else rec.kind)


def random_blowup_model(rng, point_names=("p",)):
    """A random model of up to four curves with the given marked points.
    Curves drawn as singular pass through the first point with multiplicity
    2 or 3 and through later points with multiplicity 0 to 3; the others
    pass through each point with multiplicity 0 or 1."""
    k = rng.randint(1, 4)
    names = [f"c{i}" for i in range(k)]
    curves, singular = {}, set()
    for name in names:
        if rng.randint(0, 3) >= 2:
            singular.add(name)
        curves[name] = CurveRecord(rng.randint(-5, 5), rng.choice(
            (SMOOTH_ELLIPTIC, SMOOTH_RATIONAL)))
    points = {}
    for i, point in enumerate(point_names):
        mults = {}
        for name in names:
            if name in singular:
                mults[name] = rng.randint(2, 3) if i == 0 else rng.randint(0, 3)
            else:
                mults[name] = rng.randint(0, 1)
        points[point] = mults
    pairwise = {(a, b): rng.randint(0, 4)
                for i, a in enumerate(names) for b in names[i + 1:]}
    return SurfaceModel(rng.randint(-3, 3), rng.randint(-3, 3), curves, pairwise, points)


def test_blow_up_deltas_random_models():
    rng = random.Random(777)
    for _ in range(120):
        model = random_blowup_model(rng)
        curves = model.curves
        names = list(curves)
        mults = {name: model.point_multiplicity("p", name) for name in names}
        blown = blow_up(model, {"p": "exc"})
        assert_singular_iff_multiple_point(model)
        assert_singular_iff_multiple_point(blown)
        assert blown.chi_top == model.chi_top + 1
        assert blown.k2 == model.k2 - 1
        for name in names:
            m = mults[name]
            assert blown.curves[name].self_int == curves[name].self_int - m * m
            assert blown.pairwise_int(name, "exc") == m
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert (blown.pairwise_int(a, b)
                        == model.pairwise_int(a, b) - mults[a] * mults[b])


def test_multi_point_blow_up_equals_folded_single_blow_ups():
    rng = random.Random(778)
    resolved = kept_singular = 0
    for _ in range(200):
        names = [f"p{i}" for i in range(rng.randint(1, 4))]
        model = random_blowup_model(rng, names)
        chosen = rng.sample(names, rng.randint(1, len(names)))
        exceptional = {point: f"e_{point}" for point in chosen}
        folded = model
        for point, exc in exceptional.items():
            folded = blow_up(folded, {point: exc})
        assert blow_up(model, exceptional) == folded
        assert_singular_iff_multiple_point(model)
        assert_singular_iff_multiple_point(folded)

        for name in model.curves:
            if model.kind(name) == SINGULAR:
                if folded.kind(name) == SINGULAR:
                    kept_singular += 1
                else:
                    resolved += 1
    # both outcomes for singular curves are exercised
    assert resolved and kept_singular


def test_multi_point_blow_up_of_gamma_quotient():
    for n in (1, 3, 4):
        image, folded = build_blown_gamma(n)
        batched = blow_up(image, {f"q{m}": f"e{m + 1}" for m in range(n)})
        assert batched == folded


def test_multi_point_blow_up_rejects_bad_input():
    model = upstairs_model(1)
    with pytest.raises(ValueError):
        blow_up(model, {})
    with pytest.raises(ValueError):
        blow_up(model, {"p0_0": "e0", "nope": "e1"})
    with pytest.raises(ValueError):
        blow_up(model, {"p0_0": "e", "p1_0": "e"})
    with pytest.raises(ValueError):
        blow_up(model, {"p0_0": "e", "p1_0": "s0"})


def test_curve_record_validation():
    with pytest.raises(ValueError):
        CurveRecord(0, "wavy")
    with pytest.raises(ValueError):
        CurveRecord(0, SINGULAR)  # singularity is read off the point table
    record = CurveRecord(-1, SMOOTH_RATIONAL)
    with pytest.raises(ValueError):
        record._replace(kind=SINGULAR)  # a copy is validated too
    assert record == CurveRecord(-1, SMOOTH_RATIONAL) == record._replace(self_int=-1)
    assert record != CurveRecord(-2, SMOOTH_RATIONAL)
    assert record != CurveRecord(-1, SMOOTH_ELLIPTIC)
    with pytest.raises(AttributeError):
        record.self_int = -2


def test_models_and_pairs_are_immutable_and_compare_by_value():
    model = SurfaceModel(1, -1, {"a": CurveRecord(-1, SMOOTH_ELLIPTIC)})
    pair = LogPair(model, ("a",))
    assert model.kind("a") == SMOOTH_ELLIPTIC  # fills the cached singular_curves
    same = SurfaceModel(1, -1, {"a": CurveRecord(-1, SMOOTH_ELLIPTIC)}, {}, {})
    other = LogPair(same, ("a",))
    assert model == same and (pair.surface, pair.boundary) == (other.surface, other.boundary)
    assert model != SurfaceModel(1, -2, {"a": CurveRecord(-1, SMOOTH_ELLIPTIC)})
    assert pair.boundary != LogPair(model, ()).boundary
    for record, name in ((model, "k2"), (model, "singular_curves"), (pair, "boundary")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_surface_model_validation():
    curves = {"a": CurveRecord(0, SMOOTH_ELLIPTIC)}
    with pytest.raises(ValueError):
        SurfaceModel(0, 0, curves, {("a", "a"): 1}, {})
    with pytest.raises(ValueError):
        SurfaceModel(0, 0, curves, {("a", "b"): 1}, {})
    with pytest.raises(ValueError):
        SurfaceModel(0, 0, curves, {}, {"p": {"b": 1}})
    with pytest.raises(ValueError):
        SurfaceModel(0, 0, curves, {}, {"p": {"a": -1}})
    # Zero entries are not stored, yet still read as 0; a zero conflicting
    # with a nonzero entry for the same pair is still rejected.
    pair = {**curves, "b": CurveRecord(0, SMOOTH_ELLIPTIC)}
    model = SurfaceModel(0, 0, pair, {("a", "b"): 0}, {"p": {"a": 0, "b": 1}})
    assert model.pairwise == {} and model.points == {"p": {"b": 1}}
    assert model.pairwise_int("a", "b") == 0
    assert model.point_multiplicity("p", "a") == 0
    assert model == SurfaceModel(0, 0, pair, {}, {"p": {"b": 1}})
    with pytest.raises(ValueError, match="conflicting"):
        SurfaceModel(0, 0, pair, {("a", "b"): 0, ("b", "a"): 2}, {})


def first_point_table_error(curves, points):
    """Reference for the point-table check: entry by entry in table order,
    the message of the first entry that names an unknown curve or carries
    a negative multiplicity; None for a valid table."""
    for point, mults in points.items():
        for name, mult in mults.items():
            if name not in curves:
                return f"point {point!r} references unknown curve {name!r}"
            if mult < 0:
                return "multiplicities must be nonnegative"
    return None


def test_point_table_errors_name_the_first_offending_entry():
    # The table is checked whole and searched only on failure; the error
    # must still be the one an entry-by-entry check meets first, also when
    # a row holds both kinds of fault, and a valid table keeps its nonzero
    # entries.
    rng = random.Random(37)
    curves = {name: CurveRecord(0, SMOOTH_ELLIPTIC) for name in "abc"}
    outcomes = {"valid": 0, "unknown": 0, "negative": 0}
    for _ in range(400):
        points = {f"p{i}": {rng.choice("abcd"): rng.choice((-1, 0, 1, 1, 2, 2))
                            for _ in range(rng.randint(0, 3))}
                  for i in range(rng.randint(0, 3))}
        expected = first_point_table_error(curves, points)
        if expected is None:
            model = SurfaceModel(0, 0, curves, {}, points)
            assert model.points == {p: {name: m for name, m in mults.items() if m}
                                    for p, mults in points.items()}
            outcomes["valid"] += 1
            continue
        with pytest.raises(ValueError) as raised:
            SurfaceModel(0, 0, curves, {}, points)
        assert str(raised.value) == expected
        outcomes["unknown" if "unknown" in expected else "negative"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_quotient_divisibility_errors():
    curves = {"a": CurveRecord(1, SMOOTH_ELLIPTIC)}
    model = SurfaceModel(0, 0, curves, {}, {})
    with pytest.raises(ValueError):
        etale_quotient(model, 3, {"img": ("a",)}, {})  # self-intersection 1 not divisible
    lopsided = SurfaceModel(1, 0, {"a": CurveRecord(0, SMOOTH_ELLIPTIC)}, {}, {})
    with pytest.raises(ValueError):
        etale_quotient(lopsided, 3, {"img": ("a",)}, {})  # chi not divisible


def test_blow_up_of_double_point_resolves_the_curve():
    curves = {"a": CurveRecord(0, SMOOTH_ELLIPTIC)}
    model = SurfaceModel(0, 0, curves, {}, {"p": {"a": 2}})
    assert model.kind("a") == SINGULAR
    with pytest.raises(ValueError):
        LogPair(model, ("a",))
    blown = blow_up(model, {"p": "e"})
    assert blown.curves["a"].self_int == -4
    assert blown.kind("a") == SMOOTH_ELLIPTIC
    assert blown.pairwise_int("a", "e") == 2
