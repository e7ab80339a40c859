"""Mutation probes: a fault seeded into one layer must flip `passed` to
false, or make the build raise, for some level n <= 5 of each family.  The
family-only probes show that each family's record is wired into the
pipeline."""

import dataclasses

import pytest

from ballq import curves, families
from ballq.curves import GraphCurve, TorusAutomorphism, VerticalFiber
from ballq.eisenstein import ONE, RHO
from ballq.families import (GAMMA, LAMBDA, LEVEL_CURVE, ORDER3_SHIFT, BuildError,
                            build_family)
from ballq.lattices import TorusPoint
from ballq.surfaces import CurveRecord, SurfaceModel


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

    def faulty(sub, sup):
        d1, d2, b1, b2 = original(sub, sup)
        return d1, d2 - 1, b1, b2

    monkeypatch.setattr(curves, "coset_grid", faulty)


def coset_grid_axes_swapped(monkeypatch):
    """The intersection kernel's grid has the right size but runs along the
    wrong axes, so it repeats some classes and misses others."""
    original = curves.coset_grid

    def faulty(sub, sup):
        d1, d2, b1, b2 = original(sub, sup)
        return d1, d2, b2, b1

    monkeypatch.setattr(curves, "coset_grid", faulty)


def from_reduced_skips_gcd(monkeypatch):
    """The intersection kernel's points keep their numerators over the
    kernel's denominator, so their keys are no longer in lowest terms."""
    original = TorusPoint.from_reduced.__func__

    def faulty(cls, rs, rt, den, lattice):
        point = original(cls, rs, rt, den, lattice)
        object.__setattr__(point, "key", (rs, rt, den))
        return point

    monkeypatch.setattr(TorusPoint, "from_reduced", classmethod(faulty))


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


def vertical_fiber_over_wrong_z(monkeypatch):
    spec = families._FAMILIES[GAMMA]

    def faulty(core, chk):
        curves, orbits, pairwise, through = spec.upstairs(core, chk)
        moved = curves["vert1_0"].z0.value + ORDER3_SHIFT / 2
        return ({**curves, "vert1_0": VerticalFiber(core.torus, moved)}, orbits, pairwise,
                through)

    monkeypatch.setitem(families._FAMILIES, GAMMA, dataclasses.replace(spec, upstairs=faulty))


def level_key_set_misses_a_point(monkeypatch):
    spec = families._FAMILIES[LAMBDA]

    def faulty(core, chk):
        curves, orbits, pairwise, through = spec.upstairs(core, chk)
        level0 = through["level0"]
        return curves, orbits, pairwise, {**through, "level0": level0 - {min(level0)}}

    monkeypatch.setitem(families._FAMILIES, LAMBDA, dataclasses.replace(spec, upstairs=faulty))


def level_curves_wrong_offset(monkeypatch):
    monkeypatch.setattr(families, "level_curves", lambda torus: [
        GraphCurve(torus, 0, ONE / 3 + ORDER3_SHIFT * l) for l in range(3)])


SHARED_FAULTS = [log_chern_off_by_one, coset_representative_dropped, coset_grid_axes_swapped,
                 from_reduced_skips_gcd, deck_shift_doubled, blow_up_bumps_exceptional,
                 stray_exceptional_crossing]
PROBES = [(family, fault) for fault in SHARED_FAULTS for family in (GAMMA, LAMBDA)] + [
    (GAMMA, vertical_fiber_over_wrong_z),
    (LAMBDA, level_curves_wrong_offset),
    (LAMBDA, exceptional_meets_level_orbit_twice),
    (LAMBDA, level_key_set_misses_a_point),
]


def flips(family):
    for n in range(1, 6):
        try:
            if not build_family(family, n).passed:
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
