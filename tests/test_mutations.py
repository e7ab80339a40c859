"""Mutation probes: a fault seeded into one layer must flip `passed` to
false, or make the build raise, for some level n <= 5 of each family.  The
family-only probes show that each family's record is wired into the
pipeline.  The value-assembly probes edit a fragment after it is computed,
so they show that the checks and the re-checker read the printed values."""

import pytest

from ballq import curves, families, homology
from ballq.curves import GraphCurve, TorusAutomorphism, VerticalFiber
from ballq.eisenstein import ONE, RHO
from ballq.families import (GAMMA, LAMBDA, LEVEL_CURVE, ORDER3_SHIFT, BuildError,
                            build_family)
from ballq.lattices import Lattice
from ballq.surfaces import CurveRecord, SurfaceModel

from conftest import orbit_of_curves
from recheck import broken_relations


def log_chern_off_by_one(monkeypatch):
    original = families.log_chern

    def faulty(pair):
        c1, c2 = original(pair)
        return c1, c2 + 1

    monkeypatch.setattr(families, "log_chern", faulty)


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
    line."""
    original = homology.betti_from_deck

    def faulty(matrices, chi):
        betti = original(matrices, chi)
        return betti._replace(b1=betti.b1 - 1)

    monkeypatch.setattr(homology, "betti_from_deck", faulty)


def certify_log_chern_swapped(monkeypatch):
    """The certify fragment carries c1bar^2 and c2bar under each other's
    keys."""
    original = families._certify_pair

    def faulty(pair):
        fragment = original(pair)
        return {**fragment, "log_c1_squared": fragment["log_c2"],
                "log_c2": fragment["log_c1_squared"]}

    monkeypatch.setattr(families, "_certify_pair", faulty)


def homology_b2_raised(monkeypatch):
    """The homology fragment prints b2 one higher than the Betti vector it
    was derived from."""
    original = families._homology_section

    def faulty(deck, chi, cusps):
        fragment = original(deck, chi, cusps)
        b0, b1, b2, b3, b4 = fragment["compactification_betti"]
        return {**fragment, "compactification_betti": [b0, b1, b2 + 1, b3, b4]}

    monkeypatch.setattr(families, "_homology_section", faulty)


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


def vertical_fiber_over_wrong_z(monkeypatch):
    spec = families._FAMILIES[GAMMA]

    def faulty(core, chk):
        curves, orbits, pairwise, through = spec.upstairs(core, chk)
        moved = core.torus.lattice_z.value(curves["vert1_0"].z0) + ORDER3_SHIFT / 2
        return ({**curves, "vert1_0": VerticalFiber(core.torus, moved)}, orbits, pairwise,
                through)

    monkeypatch.setitem(families._FAMILIES, GAMMA, spec._replace(upstairs=faulty))


def level_key_set_misses_a_point(monkeypatch):
    spec = families._FAMILIES[LAMBDA]

    def faulty(core, chk):
        curves, orbits, pairwise, through = spec.upstairs(core, chk)
        level0 = through["level0"]
        return curves, orbits, pairwise, {**through, "level0": level0 - {min(level0)}}

    monkeypatch.setitem(families._FAMILIES, LAMBDA, spec._replace(upstairs=faulty))


def level_curves_wrong_offset(monkeypatch):
    monkeypatch.setattr(families, "level_curves", lambda torus: [
        GraphCurve(torus, 0, ONE / 3 + ORDER3_SHIFT * l) for l in range(3)])


SHARED_FAULTS = [log_chern_off_by_one, coset_representative_dropped, coset_grid_axes_swapped,
                 multiplier_matrix_transposed, kernel_keys_skip_gcd,
                 numerators_over_twice_the_denominator, slope2_repeats_slope1, deck_shift_doubled,
                 deck_w_matrix_transposed, deck_z_translation_off_by_one, deck_b1_lowered,
                 blow_up_bumps_exceptional, stray_exceptional_crossing,
                 blow_up_keeps_a_triple_point, certify_log_chern_swapped]
PROBES = [(family, fault) for fault in SHARED_FAULTS for family in (GAMMA, LAMBDA)] + [
    (GAMMA, vertical_fiber_over_wrong_z),
    (GAMMA, exceptional_meets_its_fiber_twice),
    (LAMBDA, level_curves_wrong_offset),
    (LAMBDA, exceptional_meets_level_orbit_twice),
    (LAMBDA, level_key_set_misses_a_point),
]


def flips(family):
    for n in range(1, 6):
        try:
            if not build_family(family, n)["passed"]:
                return True
        except BuildError:
            return True
    return False


@pytest.mark.parametrize("family, fault", PROBES,
                         ids=[f"{family}-{fault.__name__}" for family, fault in PROBES])
def test_seeded_fault_flips_the_report(monkeypatch, family, fault):
    assert not flips(family)
    fault(monkeypatch)
    assert flips(family)


def test_kept_triple_point_fails_the_resolution_check(monkeypatch):
    blow_up_keeps_a_triple_point(monkeypatch)
    for family in (GAMMA, LAMBDA):
        failed = {check["name"] for check in build_family(family, 1)["checks"]
                  if not check["passed"]}
        assert {"core_resolved_to_smooth_elliptic", "boundary_pair_valid"} <= failed


def test_wrong_cusp_count_fails_the_homology_check(monkeypatch):
    original = families.cusp_count
    monkeypatch.setattr(families, "cusp_count", lambda pair: original(pair) + 1)
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
        with pytest.raises(BuildError) as info:
            build_family(family, 1)
        assert info.value.stage == "geometry"


@pytest.mark.parametrize("fault", [deck_w_matrix_transposed, deck_z_translation_off_by_one])
def test_faulty_integer_deck_action_breaks_the_point_orbits(monkeypatch, fault):
    fault(monkeypatch)
    for family in (GAMMA, LAMBDA):
        with pytest.raises(BuildError, match="not stable under the automorphism") as info:
            build_family(family, 1)
        assert info.value.stage == "geometry"


def test_transposed_deck_w_matrix_fails_the_curve_orbit_checks(monkeypatch):
    # The curve images read the same integer data as the point images, so
    # the curve-orbit checks recorded before the build raises fail too.
    deck_w_matrix_transposed(monkeypatch)
    chk = families._Checks()
    with pytest.raises(ValueError, match="not stable under the automorphism"):
        families._shared_geometry(1, chk)
    failed = {check["name"] for check in chk.results if not check["passed"]}
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
    chk = families._Checks()
    families._shared_geometry(2, chk)
    failed = {check["name"] for check in chk.results if not check["passed"]}
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
