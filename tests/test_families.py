"""End-to-end builders, the Bagnera-de Franchis catalog, and reports."""

import json
import random
import re
from fractions import Fraction
from math import lcm
from pathlib import Path

import jsonschema
import pytest

from ballq import cli, families
from ballq import curves as curves_module
from ballq import lattices
from ballq.curves import TorusAutomorphism, VerticalFiber
from ballq.eisenstein import RHO, eis
from ballq.lattices import Lattice
from ballq.surfaces import (
    SMOOTH_ELLIPTIC,
    BMYClass,
    CurveRecord,
    LogPair,
    SurfaceModel,
    blow_up,
    certify_pair,
    etale_quotient,
)

from ballq.families import (
    _STAGES,
    _Build,
    _incidence,
    _key_progression,
    BDF_CATALOG,
    BdFInvalid,
    BdFType,
    GAMMA,
    LAMBDA,
    ORDER3_SHIFT,
    albanese_data,
    albanese_lattice,
    base_lattice,
    bdf_classify,
    build_family,
    classify_deck_action,
    level_lattice,
    product_torus,
    render_markdown,
)

from conftest import (clear_lattice_caches, contains_point, count_eisenstein_operations,
                      raise_in_stage, random_eisenstein, random_lattice)

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "family", "n", "passed", "values",
                 "checks", "assumptions", "flags"],
    "properties": {
        "schema_version": {"const": 1},
        "family": {"enum": ["gamma", "lambda"]},
        "n": {"type": "integer", "minimum": 1},
        "passed": {"type": "boolean"},
        "values": {
            "type": "object",
            "required": ["chi", "k2", "boundary", "log_c1_squared", "log_c2",
                         "bmy", "volume", "cusps", "bdf_type"],
            "properties": {
                "boundary": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "self_intersection", "kind"],
                    },
                },
                "volume": {
                    "type": "object",
                    "required": ["pi_squared_coefficient", "text",
                                 "approx_display_only"],
                },
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "expected", "actual"],
            },
        },
        "assumptions": {"type": "array", "items": {"type": "string"}},
        "flags": {"type": "array", "items": {"type": "string"}},
    },
}


def test_gamma_small_members():
    r1 = build_family(GAMMA, 1)
    assert r1["passed"]
    assert r1["values"]["chi"] == 1
    assert r1["values"]["cusps"] == 2
    assert r1["values"]["volume"]["pi_squared_coefficient"] == "8/3"
    assert r1["values"]["bmy"] == "Equality"

    r5 = build_family(GAMMA, 5)
    assert r5["passed"]
    assert r5["values"]["cusps"] == 6
    assert r5["values"]["volume"]["pi_squared_coefficient"] == "40/3"

    r3 = build_family(GAMMA, 3)
    assert r3["passed"]
    boundary = {b["name"]: b["self_intersection"] for b in r3["values"]["boundary"]}
    assert boundary["slope_orbit"] == -9
    assert r3["values"]["log_c1_squared"] == 9
    assert r3["values"]["log_c2"] == 3


def test_lambda_small_members():
    r1 = build_family(LAMBDA, 1)
    assert r1["passed"]
    assert r1["values"]["cusps"] == 2
    assert r1["values"]["volume"]["pi_squared_coefficient"] == "8/3"

    r4 = build_family(LAMBDA, 4)
    assert r4["passed"]
    boundary = {b["name"]: b["self_intersection"] for b in r4["values"]["boundary"]}
    assert boundary == {"slope_orbit": -12, "level_orbit": -4}
    assert r4["values"]["chi"] == 4 and r4["values"]["k2"] == -4


def test_families_share_compactification_numbers():
    for n in (1, 2, 6):
        g = build_family(GAMMA, n)
        l = build_family(LAMBDA, n)
        assert (g["values"]["chi"], g["values"]["k2"]) == (l["values"]["chi"], l["values"]["k2"])
        assert g["values"]["volume"] == l["values"]["volume"]
        assert g["values"]["cusps"] == n + 1
        assert l["values"]["cusps"] == 2


def test_invalid_level_rejected():
    with pytest.raises(ValueError):
        build_family(GAMMA, 0)
    with pytest.raises(ValueError):
        build_family(LAMBDA, -2)
    with pytest.raises(ValueError):
        build_family("nope", 1)


def test_report_json_schema(monkeypatch):
    for report in (build_family(GAMMA, 2), build_family(LAMBDA, 3)):
        doc = json.loads(json.dumps(report))
        assert doc == report
        jsonschema.validate(doc, REPORT_SCHEMA)
    raise_in_stage(monkeypatch, "fiber")
    failed = build_family(GAMMA, 2)
    assert json.loads(json.dumps(failed)) == failed


@pytest.mark.parametrize("stage", [name for name, _ in _STAGES])
def test_every_stage_reports_its_own_name(monkeypatch, capsys, stage):
    # A raise keeps the checks of the stages before it, and their values.
    # build_family returns that failed report, and verify prints it as it is.
    passing = {family: build_family(family, 2) for family in (GAMMA, LAMBDA)}
    raise_in_stage(monkeypatch, stage)
    for family in (GAMMA, LAMBDA):
        failed = build_family(family, 2)
        assert failed["error"] == {"stage": stage, "type": "ValueError",
                                   "message": "seeded fault"}
        assert not failed["passed"]
        assert failed["assumptions"] == failed["flags"] == []
        checks, values = passing[family]["checks"], passing[family]["values"]
        assert failed["checks"] == checks[:len(failed["checks"])]
        assert failed["values"] == {key: values[key] for key in failed["values"]}
        assert cli.main(["verify", "--family", family, "--n", "2"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out) == failed
        assert err == f"error: {family} n=2: ValueError: seeded fault\n"


def test_readme_lists_the_stage_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"stage\s+of\s+`build_family`\s+that\s+raised\s+\(([^)]*)\)", readme)
    assert re.findall(r"`(\w+)`", listed.group(1)) == [name for name, _ in _STAGES]


def test_report_is_deterministic():
    for family in (GAMMA, LAMBDA):
        assert (json.dumps(build_family(family, 2))
                == json.dumps(build_family(family, 2)))


def test_markdown_contains_headline_numbers():
    md = render_markdown(build_family(GAMMA, 3))
    assert "cusps: 4" in md
    assert "chi: 3" in md
    assert "(8)·π²" in md


def test_covering_reports():
    # The level-n member covers the level-m member with degree
    # [level_lattice(m) : level_lattice(n)], and not at all unless m | n.
    assert level_lattice(5).index_in(level_lattice(1)) == 5
    assert level_lattice(6).index_in(level_lattice(2)) == 3
    assert level_lattice(3).index_in(level_lattice(2)) is None


def test_covering_report_validates_input():
    with pytest.raises(ValueError):
        level_lattice(0)


def test_bdf_catalog_shape():
    catalog = BDF_CATALOG
    assert len(catalog) == 7
    assert [entry.index for entry in catalog] == [1, 2, 3, 4, 5, 6, 7]
    assert [entry.group_order for entry in catalog] == [2, 4, 4, 8, 3, 9, 6]
    assert [entry.lambda_constraint for entry in catalog] == [
        "any", "any", "i", "i", "rho", "rho", "rho-with-zeta"]
    by_index = {entry.index: entry for entry in catalog}
    assert by_index[1].multiplier == "-1" and by_index[1].translation_order is None
    assert by_index[4].multiplier == "i" and by_index[4].translation_order == 2
    assert by_index[7].multiplier == "zeta"


def test_bdf_classify_valid_cases():
    five = bdf_classify(3, "rho")
    assert isinstance(five, BdFType) and five.index == 5
    one = bdf_classify(2, "-1")
    assert isinstance(one, BdFType) and one.index == 1
    six = bdf_classify(9, "rho", translation_order=3)
    assert isinstance(six, BdFType) and six.index == 6
    seven = bdf_classify(6, "zeta", lattice_multiplier="rho")
    assert isinstance(seven, BdFType) and seven.index == 7


def test_bdf_classify_invalid_cases():
    wrong_order = bdf_classify(4, "rho")
    assert isinstance(wrong_order, BdFInvalid)
    assert wrong_order.constraint == "lambda-constraint"
    assert "order 3" in wrong_order.reason
    for record, name in ((wrong_order, "reason"), (BDF_CATALOG[4], "index")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    no_entry = bdf_classify(5, "-1")
    assert isinstance(no_entry, BdFInvalid)

    bad_translation = bdf_classify(6, "-1", translation_order=3)
    assert isinstance(bad_translation, BdFInvalid)
    assert bad_translation.constraint == "group-structure"

    bad_lattice = bdf_classify(3, "rho", lattice_multiplier="i")
    assert isinstance(bad_lattice, BdFInvalid)
    assert bad_lattice.constraint == "lambda-constraint"


def test_every_quotient_is_type_five():
    for n in (1, 2, 3, 8):
        assert build_family(GAMMA, n)["values"]["bdf_type"] == 5
        assert build_family(LAMBDA, n)["values"]["bdf_type"] == 5


def test_albanese_data():
    for n in (1, 2, 6):
        report = albanese_data(n)
        assert report["contains_level_lattice"]
        assert report["index"] == 3
        assert report["shift_order"] == 3
        assert len(report["base_points"]) == n
        assert json.loads(json.dumps(report)) == report
    # The Albanese lattice rejects the level before any point is built.
    with pytest.raises(ValueError, match="positive integer"):
        albanese_data(0)


def test_albanese_lattice_contains_level():
    for n in (1, 3, 5):
        assert level_lattice(n).index_in(albanese_lattice(n)) is not None
        assert base_lattice().contains(3 * ORDER3_SHIFT) is not None


def test_lattices_are_built_once_per_process():
    clear_lattice_caches()
    assert level_lattice(12) is level_lattice(12)
    assert albanese_lattice(12) is albanese_lattice(12)
    assert base_lattice() is base_lattice()
    torus = product_torus(12)
    assert torus.lattice_w is base_lattice() and torus.lattice_z is level_lattice(12)


def test_lattice_caches_are_bounded():
    """One entry per level that the command line accepts, and no more."""
    clear_lattice_caches()
    for cached in (base_lattice, level_lattice, albanese_lattice):
        assert cached.cache_info().maxsize == cli.MAX_LEVEL
    for n in range(1, cli.MAX_LEVEL + 6):
        level_lattice(n)
    assert level_lattice.cache_info().currsize == cli.MAX_LEVEL
    clear_lattice_caches()


@pytest.mark.parametrize("build", [level_lattice, albanese_lattice])
def test_invalid_levels_raise_and_are_not_cached(build):
    clear_lattice_caches()
    assert build(3).gen1 == build(3).gen1
    for n in (0, -3, 0):
        with pytest.raises(ValueError, match="positive integer"):
            build(n)
    # A float key is its own entry, so 3.0 still reaches the constructor.
    with pytest.raises(TypeError):
        build(3.0)
    assert build.cache_info().currsize == 1


def test_fiber_reports():
    gamma2 = build_family(GAMMA, 2)["values"]["fiber"]
    assert gamma2["generic_fiber_punctures"] == 3
    assert gamma2["singular_fiber_count"] == 2
    assert gamma2["singular_fiber_punctures"] == 4

    gamma1 = build_family(GAMMA, 1)["values"]["fiber"]
    assert gamma1["singular_fiber_count"] == 1

    lambda2 = build_family(LAMBDA, 2)["values"]["fiber"]
    rows = lambda2["generic_fiber_boundary_rows"]
    assert rows == {"slope_orbit": 3, "level_orbit": 3}
    assert lambda2["generic_fiber_punctures"] == 6
    assert lambda2["singular_fiber_punctures"] is None


def test_lambda_flags_fiber_discrepancy():
    report = build_family(LAMBDA, 2)
    assert any("fiber" in flag for flag in report["flags"])


def test_tower_section():
    doc = build_family(GAMMA, 6)["values"]["tower"]
    assert [c["base_level"] for c in doc["covers_levels"]] == [1, 2, 3, 6]
    assert [c["degree"] for c in doc["covers_levels"]] == [6, 3, 2, 1]
    assert doc["consecutive_cover_exists"] is False
    assert build_family(GAMMA, 2)["values"]["tower"]["consecutive_cover_exists"] is True


def test_homology_section_embedded():
    doc = build_family(GAMMA, 4)["values"]["homology"]
    assert doc["open_manifold"]["b1"] == 2
    assert doc["open_manifold"]["b3_lower_bound"] == 4
    assert doc["compactification_betti"] == [1, 2, 6, 2, 1]
    assert doc["boundary_neighborhood_ranks"] == [5, 10, 5, 0, 0]
    assert doc["overlap_ranks"] == [5, 10, 10, 5, 0]


def test_volume_strings():
    assert build_family(GAMMA, 1)["values"]["volume"]["text"] == "(8/3)·π²"
    assert build_family(GAMMA, 3)["values"]["volume"]["text"] == "(8)·π²"
    coefficient = Fraction(build_family(GAMMA, 7)["values"]["volume"]["pi_squared_coefficient"])
    assert coefficient == Fraction(56, 3)


def test_volume_spectrum_saturation():
    seen = {
        Fraction(build_family(GAMMA, n)["values"]["volume"]["pi_squared_coefficient"])
        for n in range(1, 7)
    }
    assert seen == {Fraction(8, 3) * k for k in range(1, 7)}


def test_deck_classification_rejects_wrong_translation_order():
    torus = product_torus(2)
    stuck = TorusAutomorphism(torus, RHO, 0, 1, 0)
    result = classify_deck_action(stuck, 3)
    assert isinstance(result, BdFInvalid)
    assert result.constraint == "translation"


def test_deck_classification_multiplier_branches():
    torus = product_torus(2)
    half = torus.lattice_z.gen1 / 2
    negation = TorusAutomorphism(torus, -1, 0, 1, half)
    one = classify_deck_action(negation, 2)
    assert isinstance(one, BdFType) and one.index == 1

    pure_translation = TorusAutomorphism(torus, 1, 0, 1, half)
    no_mult = classify_deck_action(pure_translation, 2)
    assert isinstance(no_mult, BdFInvalid) and no_mult.constraint == "multiplier"

    shifted_mult = TorusAutomorphism(torus, RHO, Fraction(1, 2), 1, ORDER3_SHIFT)
    impure = classify_deck_action(shifted_mult, 3)
    assert isinstance(impure, BdFInvalid) and impure.constraint == "multiplier"

    # The multiplier is read off the trace of the w matrix: rho^2 has the
    # trace of rho, and -rho that of zeta.
    rho_squared = TorusAutomorphism(torus, RHO * RHO, 0, 1, ORDER3_SHIFT)
    five = classify_deck_action(rho_squared, 3)
    assert isinstance(five, BdFType) and five.index == 5

    sixth = TorusAutomorphism(torus, eis(0, -1), 0, 1, ORDER3_SHIFT / 2)
    seven = classify_deck_action(sixth, 6)
    assert isinstance(seven, BdFType) and seven.index == 7


def _built(family, n, last):
    """The build record of build_family after its stages up to and
    including the one called last."""
    b = _Build(family, n)
    b.run(_STAGES[:[name for name, _ in _STAGES].index(last) + 1])
    return b


@pytest.mark.parametrize("family", [GAMMA, LAMBDA])
def test_keyed_incidence_equals_brute_force(family):
    for n in range(1, 9):
        b = _built(family, n, "upstairs")
        lw, lz = b.torus
        values = {key: (lw.value(key[:3]), lz.value(key[3:])) for key in b.points}
        brute = {
            key: {name: 1 for name, curve in b.curves.items()
                  if contains_point(curve, values[key])}
            for key in b.points
        }
        assert _incidence(b) == brute


@pytest.mark.parametrize("family", [GAMMA, LAMBDA])
def test_build_reads_few_point_values(monkeypatch, family):
    """Point sets are keys, and a key is read back into Q(rho) only where
    it is printed: a build calls Lattice.value exactly n times, once per
    printed Albanese base point, at n = 40 and at n = 80.  The deck action,
    the closed form, the intersections and the fibers work on keys.  When
    they built point objects, gamma went from 40 to 80 with 600 more
    product points and 1,120 more torus points."""
    read = []
    value = Lattice.value
    monkeypatch.setattr(Lattice, "value",
                        lambda lattice, key: read.append(key) or value(lattice, key))
    for n in (40, 80):
        read.clear()
        assert build_family(family, n)["passed"]
        assert len(read) == n


@pytest.mark.parametrize("family", [GAMMA, LAMBDA])
def test_build_scans_the_boundary_pairs_at_most_three_times(monkeypatch, family):
    """The boundary stage reads the boundary's pairwise entries for its
    disjointness check and for the log pair's, and the certificate reads
    none: at most 3 SurfaceModel.pairs_among calls per build, at n = 1 and
    n = 5.  When five certify functions called one another, a build made
    8."""
    scans = []
    pairs_among = SurfaceModel.pairs_among
    monkeypatch.setattr(SurfaceModel, "pairs_among",
                        lambda model, names: scans.append(names) or pairs_among(model, names))
    for n in (1, 5):
        scans.clear()
        assert build_family(family, n)["passed"]
        assert len(scans) <= 3, len(scans)


@pytest.mark.parametrize("family", [GAMMA, LAMBDA])
def test_no_point_objects_per_point(monkeypatch, family):
    """Point sets are keys, not objects: at n = 40 and n = 80 every point the
    upstairs geometry holds (the intersection points, the closed form, the
    graph curves' point sets and the vertical fibers' z points) is a tuple
    of plain ints, six for a point of the product torus and three for a
    point of one factor, and the library has no point class to build.  The
    upstairs model handed to the quotient names its marked points by those
    keys, and the build record keeps no second name for a point."""
    def is_key(key, size):
        return type(key) is tuple and len(key) == size and all(type(x) is int for x in key)

    handed = []
    quotient = families.etale_quotient
    monkeypatch.setattr(families, "etale_quotient",
                        lambda model, *orbits: handed.append(model) or quotient(model, *orbits))
    assert not hasattr(lattices, "TorusPoint") and not hasattr(curves_module, "ProductPoint")
    for n in (40, 80):
        b = _built(family, n, "quotient")
        point_sets = [b.points, b.closed_keys, *b.through.values()]
        assert all(is_key(key, 6) for keys in point_sets for key in keys)
        fibers = [curve for curve in b.curves.values() if isinstance(curve, VerticalFiber)]
        assert all(is_key(fiber.z0, 3) for fiber in fibers)
        assert len(fibers) == (3 * n if family == GAMMA else 0)
        marked = handed.pop().points
        assert set(marked) == set(b.points) and all(is_key(key, 6) for key in marked)
        assert not hasattr(b, "point_names")


def test_key_progression_matches_lattice_key():
    """The keys of start + m*step for m < count, counts 0..8, on seeded
    random lattices, starts and steps: equal to Lattice.key of each value,
    also when the two numerators' denominators have an lcm above both."""
    rng = random.Random(1512)
    unequal = 0
    for _ in range(300):
        lattice = random_lattice(rng)
        start, step = random_eisenstein(rng), random_eisenstein(rng)
        d0, d1 = lattice.numerators(start)[2], lattice.numerators(step)[2]
        unequal += lcm(d0, d1) > max(d0, d1)
        for count in range(9):
            assert _key_progression(lattice, start, step, count) == [
                lattice.key(start + step * m) for m in range(count)]
    assert unequal >= 100, unequal


@pytest.mark.parametrize("family", [GAMMA, LAMBDA])
def test_no_eisenstein_arithmetic_per_point(monkeypatch, family):
    """Q(rho) work is per level, not per point: doubling n from 40 to 80
    adds only the 40 printed Albanese base points and the tower's few extra
    divisors: 44 from_triple calls, each build starting with empty lattice
    caches (48 when a number was a pair of Fractions; 1,132 when the deck
    action, the closed form and the fibers went through Q(rho))."""
    calls = count_eisenstein_operations(monkeypatch, ("from_triple",))
    counts = []
    for n in (40, 80):
        clear_lattice_caches()
        calls.clear()
        assert build_family(family, n)["passed"]
        counts.append(len(calls))
    assert counts[1] - counts[0] <= 80, counts


@pytest.mark.parametrize("family, constructions, products",
                         [(GAMMA, 26, 17), (LAMBDA, 47, 30)])
def test_eisenstein_work_at_level_one(monkeypatch, family, constructions, products):
    """The fixed Q(rho) cost of a level, with the lattice caches empty:
    every number built (from_triple) and every product.  When an element
    was a pair of Fractions, gamma made 45 constructions and 21 products
    and lambda 70 and 34."""
    calls = count_eisenstein_operations(monkeypatch)
    assert build_family(family, 1)["passed"]
    made = calls.count("from_triple")
    assert (made, calls.count("__mul__") + calls.count("__rmul__")) == (constructions, products)


@pytest.mark.parametrize("family", [GAMMA, LAMBDA])
def test_both_orders_of_the_calculus_agree(family):
    """Quotient then n blow-ups (build_family's order) equals 3n blow-ups
    upstairs then the quotient, with exc{j} the image of the three
    exceptional curves over the j-th point orbit.  Upstairs, the slope and
    extra curves bound a log pair with three times the downstairs numbers."""
    for n in range(1, 13):
        b = _built(family, n, "quotient")
        upstairs = SurfaceModel.build(
            0, 0, {name: CurveRecord(0, SMOOTH_ELLIPTIC) for name in b.curves},
            b.pairwise, _incidence(b))
        exc_orbits = {f"exc{j}": tuple(f"exc{j}_{k}" for k in range(3))
                      for j in range(1, n + 1)}
        blown_upstairs = blow_up(upstairs, {
            key: f"exc{j}_{k}"
            for j, orbit in enumerate(b.orbits, start=1) for k, key in enumerate(orbit)})
        assert etale_quotient(blown_upstairs, 3, {**b.curve_orbits, **exc_orbits}, {}) == b.blown

        fragment = certify_pair(LogPair(blown_upstairs, tuple(b.curves)))
        assert [fragment["log_c1_squared"], fragment["log_c2"]] == [9 * n, 3 * n]
        assert fragment["bmy"] == BMYClass.EQUALITY.value
        assert fragment["cusps"] == (3 * (n + 1) if family == GAMMA else 6)
        assert fragment["volume"]["pi_squared_coefficient"] == str(8 * n)
