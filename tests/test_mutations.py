"""Mutation probes: a fault seeded into one layer must flip `passed` to
false, or make a stage raise, for some level n <= 5 of each family.  The
family-only probes show that each family's record is wired into the
pipeline.  The value-assembly probes edit a fragment after it is computed,
so they show that the checks and the re-checker read the printed values."""

import pytest

from ballq import curves, families, homology
from ballq.curves import GraphCurve, TorusAutomorphism, VerticalFiber
from ballq.eisenstein import ONE, RHO
from ballq.families import GAMMA, LAMBDA, LEVEL_CURVE, ORDER3_SHIFT, build_family
from ballq.lattices import Lattice
from ballq.surfaces import CurveRecord, LogPair, SurfaceModel

from conftest import orbit_of_curves, raise_in_stage, wrap_stage
from recheck import broken_relations


def log_chern_off_by_one(monkeypatch):
    """The certificate reads c2bar one too high: it certifies a copy of the
    pair whose surface has Euler number one higher."""
    original = families.certify_pair

    def faulty(pair):
        surface = pair.surface
        raised = SurfaceModel(surface.chi_top + 1, surface.k2, surface.curves,
                              surface.pairwise, surface.points)
        return original(LogPair(raised, pair.boundary))

    monkeypatch.setattr(families, "certify_pair", faulty)


def coset_representative_dropped(monkeypatch):
    """The intersection kernel's grid loop skips its last k2, dropping one
    coset representative per k1."""
    original = curves.coset_grid

    def faulty(p, q, r, t):
        d1, d2, axis = original(p, q, r, t)
        return d1, d2 - 1, axis

    monkeypatch.setattr(curves, "coset_grid", faulty)


def coset_grid_axes_swapped(monkeypatch):
    """The intersection kernel's grid has the right size but runs along the
    wrong axes, so it repeats some classes and misses others."""
    original = curves.coset_grid

    def faulty(p, q, r, t):
        d1, d2, axis = original(p, q, r, t)
        return d1, d2, 1 - axis

    monkeypatch.setattr(curves, "coset_grid", faulty)


def multiplier_matrix_transposed(monkeypatch):
    """The one integer matrix of a multiplication between lattices comes
    back transposed, which every graph curve and deck map reads."""
    original = Lattice.multiplier_matrix

    def faulty(self, factor, target):
        p, q, r, t = original(self, factor, target)
        return p, r, q, t

    monkeypatch.setattr(Lattice, "multiplier_matrix", faulty)


def kernel_keys_skip_gcd(monkeypatch):
    """The intersection kernel's keys keep their numerators over the
    kernel's denominator, so they are no longer in lowest terms."""
    monkeypatch.setattr(curves, "gcd", lambda *numbers: 1)


def numerators_over_twice_the_denominator(monkeypatch):
    """The one integer coordinate map halves every coordinate, which moves
    every point, period test and curve offset."""
    original = Lattice.numerators

    def faulty(self, x):
        s, t, den = original(self, x)
        return s, t, 2 * den

    monkeypatch.setattr(Lattice, "numerators", faulty)


def deck_b1_lowered(monkeypatch):
    """The Betti vector read off the deck's action loses one invariant
    line, which the open manifold's b1 inherits."""
    original = homology.homology_section

    def faulty(matrices, chi, cusps):
        section = original(matrices, chi, cusps)
        section["compactification_betti"][1] -= 1
        section["open_manifold"]["b1"] -= 1
        return section

    monkeypatch.setattr(homology, "homology_section", faulty)


def certify_log_chern_swapped(monkeypatch):
    """The certify fragment carries c1bar^2 and c2bar under each other's
    keys."""
    original = families.certify_pair

    def faulty(pair):
        fragment = original(pair)
        return {**fragment, "log_c1_squared": fragment["log_c2"],
                "log_c2": fragment["log_c1_squared"]}

    monkeypatch.setattr(families, "certify_pair", faulty)


def homology_b2_raised(monkeypatch):
    """The homology fragment prints b2 one higher than the Betti vector it
    was derived from."""
    def faulty(homology_stage, b):
        homology_stage(b)
        betti = b.values["homology"]["compactification_betti"]
        betti[2] += 1

    wrap_stage(monkeypatch, "homology", faulty)


def edit_deck(monkeypatch, edit):
    """Make the pipeline's deck map carry the integer data edit(matrices,
    translations) returns."""
    original = families.deck_automorphism

    def faulty(torus):
        deck = original(torus)
        matrices, translations = edit(deck.matrices, deck.translations)
        object.__setattr__(deck, "matrices", matrices)
        object.__setattr__(deck, "translations", translations)
        return deck

    monkeypatch.setattr(families, "deck_automorphism", faulty)


def deck_w_matrix_transposed(monkeypatch):
    """The integer deck action multiplies w by rho^2 instead of rho.  The
    Betti vector reads the same matrices, but a transpose leaves it as it
    is, so only the action on points changes."""
    def edit(matrices, translations):
        (p, q, r, t), m_z = matrices
        return ((p, r, q, t), m_z), translations

    edit_deck(monkeypatch, edit)


def deck_z_translation_off_by_one(monkeypatch):
    """The integer deck action's z translation has its second numerator
    one too high."""
    def edit(matrices, translations):
        c_w, (cs, ct, cd) = translations
        return matrices, (c_w, (cs, ct + 1, cd))

    edit_deck(monkeypatch, edit)


def slope2_repeats_slope1(monkeypatch):
    """The third branch curve is built with the second one's slope rho, so
    two of the three branch slopes coincide."""
    original = families.slope_curves
    monkeypatch.setattr(families, "slope_curves", lambda torus: original(torus)[:2] + [
        GraphCurve(torus, RHO, ORDER3_SHIFT * -2)])


def deck_shift_doubled(monkeypatch):
    monkeypatch.setattr(families, "deck_automorphism", lambda torus: TorusAutomorphism(
        torus, RHO, 0, ONE, ORDER3_SHIFT * 2))


def power_walk_skips_the_first_power(monkeypatch):
    """The walk over an automorphism's nontrivial powers starts at f**2, so
    the deck's order comes out one too low."""
    original = curves._nontrivial_powers

    def faulty(f):
        powers = original(f)
        next(powers, None)
        yield from powers

    monkeypatch.setattr(curves, "_nontrivial_powers", faulty)


def trace_map_rotated(monkeypatch):
    """The deck classification's map from trace to multiplier is rotated,
    so the catalog is asked about zeta where the deck multiplies by rho."""
    original = families.bdf_classify
    rotated = {"-1": "rho", "rho": "zeta", "zeta": "-1"}
    monkeypatch.setattr(families, "bdf_classify", lambda order, multiplier, *rest: original(
        order, rotated[multiplier], *rest))


def edit_point_orbits(monkeypatch, edit):
    """Make the pipeline's orbit_of_points hand on edit(orbits) of the
    orbits it found."""
    original = families.orbit_of_points
    monkeypatch.setattr(families, "orbit_of_points", lambda f, keys: edit(original(f, keys)))


def point_orbits_stop_at_their_first_point(monkeypatch):
    """The orbit walk closes each orbit at its first point, so every
    intersection point is an orbit of its own."""
    edit_point_orbits(monkeypatch, lambda orbits: sorted(
        [key] for orbit in orbits for key in orbit))


def point_orbits_lose_their_last_point(monkeypatch):
    edit_point_orbits(monkeypatch, lambda orbits: [orbit[:-1] for orbit in orbits])


def edit_blown_model(monkeypatch, edit):
    """Make the pipeline's blow_up hand on its model after edit(curves,
    pairwise) has changed the two tables in place."""
    original = families.blow_up

    def faulty(model, exceptional):
        blown = original(model, exceptional)
        curves, pairwise = dict(blown.curves), dict(blown.pairwise)
        edit(curves, pairwise)
        return SurfaceModel.build(blown.chi_top, blown.k2, curves, pairwise, blown.points)

    monkeypatch.setattr(families, "blow_up", faulty)


def edit_blown_numbers(monkeypatch, numbers):
    """Make the pipeline's blow_up hand on its model with the Euler number
    and K^2 that numbers(model, blown) returns for the model it blew up."""
    original = families.blow_up

    def faulty(model, exceptional):
        blown = original(model, exceptional)
        chi, k2 = numbers(model, blown)
        return SurfaceModel.build(chi, k2, blown.curves, blown.pairwise, blown.points)

    monkeypatch.setattr(families, "blow_up", faulty)


def blow_up_adds_no_euler_number(monkeypatch):
    edit_blown_numbers(monkeypatch, lambda model, blown: (model.chi_top, blown.k2))


def blow_up_drops_no_k2(monkeypatch):
    edit_blown_numbers(monkeypatch, lambda model, blown: (blown.chi_top, model.k2))


def blow_up_bumps_exceptional(monkeypatch):
    def edit(curves, pairwise):
        curves["exc1"] = CurveRecord(curves["exc1"].self_int - 1, curves["exc1"].kind)

    edit_blown_model(monkeypatch, edit)


def stray_exceptional_crossing(monkeypatch):
    def edit(curves, pairwise):
        if "exc2" in curves:
            pairwise[("exc1", "exc2")] = 1

    edit_blown_model(monkeypatch, edit)


def exceptional_meets_level_orbit_twice(monkeypatch):
    def edit(curves, pairwise):
        pairwise[("exc1", LEVEL_CURVE)] = pairwise.get(("exc1", LEVEL_CURVE), 0) + 1

    edit_blown_model(monkeypatch, edit)


def exceptional_meets_its_fiber_twice(monkeypatch):
    def edit(curves, pairwise):
        pairwise[("exc1", "fiber1")] = pairwise.get(("exc1", "fiber1"), 0) + 1

    edit_blown_model(monkeypatch, edit)


def blow_up_keeps_a_triple_point(monkeypatch):
    """The pipeline's blow_up hands on its model with the last blown-up
    point's row put back into the point table, so the core curve keeps a
    triple point and stays singular."""
    original = families.blow_up

    def faulty(model, exceptional):
        blown = original(model, exceptional)
        last = list(exceptional)[-1]
        return SurfaceModel.build(blown.chi_top, blown.k2, blown.curves, blown.pairwise,
                                  {**blown.points, last: model.points[last]})

    monkeypatch.setattr(families, "blow_up", faulty)


def edit_upstairs(monkeypatch, family, edit):
    """Make the family's upstairs hook call edit(b) on the build record
    after it has run."""
    spec = families._FAMILIES[family]
    upstairs = spec.hooks["upstairs"]

    def faulty(b):
        upstairs(b)
        edit(b)

    monkeypatch.setitem(families._FAMILIES, family,
                        spec._replace(hooks={**spec.hooks, "upstairs": faulty}))


def vertical_fiber_over_wrong_z(monkeypatch):
    def edit(b):
        moved = b.torus.lattice_z.value(b.curves["vert1_0"].z0) + ORDER3_SHIFT / 2
        b.curves["vert1_0"] = VerticalFiber(b.torus, moved)

    edit_upstairs(monkeypatch, GAMMA, edit)


def level_key_set_misses_a_point(monkeypatch):
    def edit(b):
        b.through["level0"] -= {min(b.through["level0"])}

    edit_upstairs(monkeypatch, LAMBDA, edit)


def level_curves_wrong_offset(monkeypatch):
    monkeypatch.setattr(families, "level_curves", lambda torus: [
        GraphCurve(torus, 0, ONE / 3 + ORDER3_SHIFT * l) for l in range(3)])


# The kill map: for each probe, the names of the checks that fail in the
# reports of n = 1..5, up to and including the first level whose build
# raises (a failed report keeps the checks recorded before the raise), and
# that raise as (n, stage, exception type, message), or None.  A change
# that loses a kill fails here, and one that gains a kill updates the table.
UNSTABLE = (1, "geometry", "ValueError", "point set is not stable under the automorphism")
SLOPE_ORBIT = {"deck_orbit_of_slope_curves", "deck_maps_slope0_to_slope1",
               "deck_maps_slope1_to_slope2", "deck_maps_slope2_to_slope0"}
SLOPE_PAIRS = ("slope0,slope1", "slope0,slope2", "slope1,slope2")
COUNTS = {f"intersection_count[{pair}]" for pair in SLOPE_PAIRS}
CLOSED_FORM = {f"intersection_matches_closed_form[{pair}]" for pair in SLOPE_PAIRS}
SLOPE2_REPEATED = (SLOPE_ORBIT - {"deck_maps_slope0_to_slope1"}) | {
    "all_slope_curves_through_every_point", "boundary_pair_valid",
    "boundary_pairwise_disjoint", "boundary_self_intersections",
    "boundary_self_intersections_negative", "branch_slopes_pairwise_distinct",
    "intersection_count[slope1,slope2]", "intersection_matches_closed_form[slope0,slope2]",
    "intersection_matches_closed_form[slope1,slope2]", "quotient_core_self_intersection",
    "quotient_core_triple_points"}
SHARED_KILLS = {
    log_chern_off_by_one: ({"bmy", "log_chern", "volume_coefficient"}, None),
    coset_representative_dropped: (COUNTS | CLOSED_FORM, UNSTABLE),
    coset_grid_axes_swapped: (CLOSED_FORM - {"intersection_matches_closed_form[slope1,slope2]"},
                              (2, "geometry", "ValueError", "duplicate points in orbit input")),
    multiplier_matrix_transposed: (SLOPE_ORBIT | CLOSED_FORM, UNSTABLE),
    kernel_keys_skip_gcd: (CLOSED_FORM, UNSTABLE),
    numerators_over_twice_the_denominator: (set(), (
        1, "geometry", "ValueError", "graph with slope 1 is not well defined: multiplication "
        "by 1 does not carry the lattice into 1, 1ρ")),
    deck_shift_doubled: (SLOPE_ORBIT, UNSTABLE),
    deck_w_matrix_transposed: (SLOPE_ORBIT, UNSTABLE),
    deck_z_translation_off_by_one: (SLOPE_ORBIT, UNSTABLE),
    deck_b1_lowered: ({"open_manifold_b1"}, None),
    blow_up_bumps_exceptional: ({"exceptional_curve_ledger"}, None),
    stray_exceptional_crossing: ({"exceptional_curve_ledger"}, None),
    blow_up_keeps_a_triple_point: ({"boundary_pair_valid",
                                    "core_resolved_to_smooth_elliptic"}, None),
    certify_log_chern_swapped: ({"log_chern"}, None),
    power_walk_skips_the_first_power: ({"deck_order"}, None),
    trace_map_rotated: ({"bdf_type"}, None),
}
ORBIT_BRANCHES_DIFFER = (1, "quotient", "ValueError",
                         "branch count at 'q0' differs across the orbit")
NO_EULER_NUMBER = {"bmy", "chi", "log_chern", "volume_coefficient"}
NO_K2 = {"bmy", "k2", "log_chern"}
OTHER_FAMILY = "same_compactification_numbers_as_other_family"
ORBIT_COUNTS = {"point_orbit_count", "point_orbit_sizes"}
CURVE_ORBITS_OVERLAP = (1, "quotient", "ValueError", "curve orbits must partition the curve set")
KILL_MAP = {
    **{(family, fault): kills for fault, kills in SHARED_KILLS.items()
       for family in (GAMMA, LAMBDA)},
    (GAMMA, slope2_repeats_slope1): (SLOPE2_REPEATED, None),
    (LAMBDA, slope2_repeats_slope1): (
        SLOPE2_REPEATED | {"mixed_intersections_at_triple_points"}, None),
    (GAMMA, vertical_fiber_over_wrong_z): (set(), ORBIT_BRANCHES_DIFFER),
    (GAMMA, exceptional_meets_its_fiber_twice): (
        {"exceptional_curve_ledger", "singular_fiber_count", "singular_fiber_punctures"}, None),
    (LAMBDA, level_curves_wrong_offset): (
        {"boundary_pair_valid", "boundary_pairwise_disjoint", "boundary_self_intersections",
         "boundary_self_intersections_negative", "deck_maps_level0_to_level1",
         "deck_maps_level1_to_level2", "deck_maps_level2_to_level0",
         "deck_orbit_of_level_curves", "level_multiplicity_one_at_triple_points",
         "mixed_intersections_at_triple_points"}, None),
    (LAMBDA, exceptional_meets_level_orbit_twice): ({"exceptional_curve_ledger"}, None),
    (LAMBDA, level_key_set_misses_a_point): (set(), ORBIT_BRANCHES_DIFFER),
    (GAMMA, blow_up_adds_no_euler_number): (NO_EULER_NUMBER, None),
    (LAMBDA, blow_up_adds_no_euler_number): (NO_EULER_NUMBER | {OTHER_FAMILY}, None),
    (GAMMA, blow_up_drops_no_k2): (NO_K2, None),
    (LAMBDA, blow_up_drops_no_k2): (NO_K2 | {OTHER_FAMILY}, None),
    (GAMMA, point_orbits_stop_at_their_first_point): (ORBIT_COUNTS, CURVE_ORBITS_OVERLAP),
    (LAMBDA, point_orbits_stop_at_their_first_point): (ORBIT_COUNTS, (
        1, "quotient", "ValueError", "point orbit 'q0' has size 1, so the action is not free")),
    (GAMMA, point_orbits_lose_their_last_point): (
        {"point_orbit_sizes", "vertical_fibers_distinct"}, CURVE_ORBITS_OVERLAP),
    (LAMBDA, point_orbits_lose_their_last_point): ({"point_orbit_sizes"}, (
        1, "quotient", "ValueError", "point orbits must partition the marked points")),
}
PROBES = list(KILL_MAP)


def kill_map(family):
    """The failed check names of the reports of n = 1..5, up to the first
    level whose build raises, and that raise as (n, stage, type, message)."""
    failed, raised = set(), None
    for n in range(1, 6):
        report = build_family(family, n)
        if "error" in report:
            error = report["error"]
            raised = (n, error["stage"], error["type"], error["message"])
        failed |= {check["name"] for check in report["checks"] if not check["passed"]}
        if raised:
            break
    return failed, raised


@pytest.mark.parametrize("family, fault", PROBES,
                         ids=[f"{family}-{fault.__name__}" for family, fault in PROBES])
def test_seeded_fault_flips_the_report(monkeypatch, family, fault):
    assert kill_map(family) == (set(), None)
    fault(monkeypatch)
    assert kill_map(family) == KILL_MAP[family, fault]


def test_kill_map_coverage():
    """70 of the 104 (family, check name) pairs fail under some probe,
    among them the compactification's numbers, the deck's order and type
    and the point orbits in both families."""
    pairs = {(family, check["name"]) for family in (GAMMA, LAMBDA)
             for check in build_family(family, 2)["checks"]}
    killed = {(family, name) for (family, _), (failed, _) in KILL_MAP.items() for name in failed}
    assert killed <= pairs
    assert (len(killed), len(pairs)) == (70, 104)
    assert {(family, name) for family in (GAMMA, LAMBDA)
            for name in ("chi", "k2", "deck_order", "bdf_type", *ORBIT_COUNTS)} <= killed


def test_kept_triple_point_fails_the_resolution_check(monkeypatch):
    blow_up_keeps_a_triple_point(monkeypatch)
    for family in (GAMMA, LAMBDA):
        failed = {check["name"] for check in build_family(family, 1)["checks"]
                  if not check["passed"]}
        assert {"core_resolved_to_smooth_elliptic", "boundary_pair_valid"} <= failed


def test_build_without_a_log_pair_stops_after_the_boundary(monkeypatch):
    # Every stage after "boundary" reads the log pair, so none of them runs.
    blow_up_keeps_a_triple_point(monkeypatch)
    stages = [name for name, _ in families._STAGES]
    for stage in stages[stages.index("boundary") + 1:]:
        raise_in_stage(monkeypatch, stage)
    for family in (GAMMA, LAMBDA):
        report = build_family(family, 1)
        assert not report["passed"]
        assert list(report["values"]) == ["chi", "k2", "boundary", "intersection", "bdf_type"]
        assert "log_c1_squared" not in report["values"]
        assert report["checks"][-1]["name"] == "bdf_type"


def test_wrong_cusp_count_fails_the_homology_check(monkeypatch):
    original = families.certify_pair

    def faulty(pair):
        fragment = original(pair)
        return {**fragment, "cusps": fragment["cusps"] + 1}

    monkeypatch.setattr(families, "certify_pair", faulty)
    for family in (GAMMA, LAMBDA):
        failed = {check["name"] for check in build_family(family, 2)["checks"]
                  if not check["passed"]}
        assert {"cusps", "open_manifold_b3_lower_bound"} <= failed


def test_lowered_b1_fails_only_the_b1_check(monkeypatch):
    deck_b1_lowered(monkeypatch)
    for family in (GAMMA, LAMBDA):
        failed = {check["name"] for check in build_family(family, 1)["checks"]
                  if not check["passed"]}
        assert failed == {"open_manifold_b1"}


def test_transposed_multiplier_matrix_raises_in_geometry(monkeypatch):
    multiplier_matrix_transposed(monkeypatch)
    for family in (GAMMA, LAMBDA):
        assert build_family(family, 1)["error"]["stage"] == "geometry"


@pytest.mark.parametrize("fault", [deck_w_matrix_transposed, deck_z_translation_off_by_one])
def test_faulty_integer_deck_action_breaks_the_point_orbits(monkeypatch, fault):
    fault(monkeypatch)
    for family in (GAMMA, LAMBDA):
        error = build_family(family, 1)["error"]
        assert error["stage"] == "geometry"
        assert "not stable under the automorphism" in error["message"]


def test_transposed_deck_w_matrix_fails_the_curve_orbit_checks(monkeypatch):
    # The curve images read the same integer data as the point images, so
    # the curve-orbit checks recorded before the build raises fail too, and
    # the failed report keeps them.
    deck_w_matrix_transposed(monkeypatch)
    report = build_family(GAMMA, 1)
    assert "not stable under the automorphism" in report["error"]["message"]
    failed = {check["name"] for check in report["checks"] if not check["passed"]}
    assert {"deck_orbit_of_slope_curves", "deck_maps_slope0_to_slope1",
            "deck_maps_slope1_to_slope2", "deck_maps_slope2_to_slope0"} <= failed


@pytest.mark.parametrize("fault", [None, deck_w_matrix_transposed, deck_shift_doubled],
                         ids=["deck", "deck_w_matrix_transposed", "deck_shift_doubled"])
def test_deck_cycle_agrees_with_the_curve_orbit_walk(monkeypatch, fault):
    # The orbit checks read one deck image per curve: every map holds and
    # curves[0] is not among the other two.  The walk [c0, f(c0), ...]
    # until it closes up gives the verdict it replaced: the walk is
    # exactly the three curves.
    if fault is not None:
        fault(monkeypatch)
    # Both faults reverse the slope curves' orbit; the level curves are
    # constant in z, so a doubled z shift leaves their orbit as it is.
    verdicts = []
    for n in range(1, 6):
        torus = families.product_torus(n)
        deck = families.deck_automorphism(torus)
        for curves in (families.slope_curves(torus), families.level_curves(torus)):
            _, orbit = families._deck_cycle(deck, curves)
            assert orbit == (orbit_of_curves(deck, curves[0]) == curves)
            verdicts.append(orbit)
    assert verdicts == [fault is None, fault is not deck_w_matrix_transposed] * 5


def test_repeated_branch_slope_fails_the_distinct_slopes_check(monkeypatch):
    slope2_repeats_slope1(monkeypatch)
    failed = {check["name"] for check in build_family(GAMMA, 2)["checks"]
              if not check["passed"]}
    assert "branch_slopes_pairwise_distinct" in failed


def test_exceptional_meeting_its_fiber_twice_fails_the_singular_fiber_count(monkeypatch):
    exceptional_meets_its_fiber_twice(monkeypatch)
    report = build_family(GAMMA, 2)
    failed = {check["name"] for check in report["checks"] if not check["passed"]}
    assert "singular_fiber_count" in failed
    assert report["values"]["fiber"]["singular_fiber_count"] == 1


def test_swapped_log_chern_fragment_fails_the_report_and_the_recheck(monkeypatch):
    certify_log_chern_swapped(monkeypatch)
    for family in (GAMMA, LAMBDA):
        report = build_family(family, 3)
        failed = {check["name"] for check in report["checks"] if not check["passed"]}
        assert not report["passed"]
        assert "log_chern" in failed
        assert "3 c2bar = c1bar^2" in broken_relations(report)


def test_raised_b2_fails_the_recheck(monkeypatch):
    homology_b2_raised(monkeypatch)
    for family in (GAMMA, LAMBDA):
        report = build_family(family, 3)
        assert "Euler number of the Betti vector = chi" in broken_relations(report)
        # No check reads b2 until the report gains a `compactification_b2`
        # check (ROADMAP item 4), so `passed` stays true.
        assert report["passed"]
