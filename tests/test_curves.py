"""Exact intersections and automorphism actions on product tori."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ballq import curves as curves_module
from ballq.curves import (
    EMPTY,
    GraphCurve,
    IDENTICAL,
    POINTS,
    MAX_ORDER,
    Intersection,
    ProductTorus,
    TorusAutomorphism,
    VerticalFiber,
    apply_auto_to_curve,
    automorphism_order,
    intersect_graph_fiber,
    intersect_graphs,
    is_free,
    orbit_of_points,
)
from ballq.eisenstein import ONE, RHO, RHO2, eis
from ballq.families import (
    GAMMA,
    LAMBDA,
    ORDER3_SHIFT,
    _STAGES,
    _Build,
    albanese_lattice,
    base_lattice,
    classify_deck_action,
    closed_form_intersection,
    deck_automorphism,
    level_curves,
    level_lattice,
    product_torus,
    slope_curves,
)

from conftest import (apply_automorphism, brute_force_intersection, closed_form_keys,
                      closed_form_points, contains_point, count_eisenstein_operations,
                      orbit_of_curves, scaled, slope_of)


def key_of(torus, point):
    """The six-int key of the point of torus with values (w, z)."""
    return torus.lattice_w.key(point[0]) + torus.lattice_z.key(point[1])


def image_key(f, key):
    """The key of f's image of the point with six-int key `key`: the
    package's integer affine map (_affine_image) on each factor, which
    orbit_of_points writes out in its kernel."""
    (m_w, m_z), (c_w, c_z) = f.matrices, f.translations
    return (curves_module._affine_image(key[:3], m_w, c_w)
            + curves_module._affine_image(key[3:], m_z, c_z))


def test_graph_well_definedness_enforced():
    torus = product_torus(2)
    # 1/2 does not carry the level lattice into the hexagonal one
    with pytest.raises(ValueError):
        GraphCurve(torus, Fraction(1, 2), 0)
    # but every hexagonal integer slope works
    GraphCurve(torus, ONE - RHO, 0)
    GraphCurve(torus, 0, Fraction(2, 3))


def test_intersection_count_and_closed_form_n2():
    torus = product_torus(2)
    curves = slope_curves(torus)
    result = intersect_graphs(curves[0], curves[1])
    assert result.kind == POINTS
    assert result.count == 6
    assert result.keys() == closed_form_keys(torus, 2)


def test_all_pairs_share_the_same_locus():
    for n in (1, 2, 3, 5):
        torus = product_torus(n)
        curves = slope_curves(torus)
        expected = closed_form_keys(torus, n)
        for i in range(3):
            for j in range(i + 1, 3):
                result = intersect_graphs(curves[i], curves[j])
                assert result.count == 3 * n
                assert result.keys() == expected


def test_identical_and_empty():
    torus = product_torus(1)
    e1 = slope_curves(torus)[0]
    assert intersect_graphs(e1, e1).kind == IDENTICAL
    square = ProductTorus(base_lattice(), base_lattice())
    a = GraphCurve(square, 1, 0)
    b = GraphCurve(square, 1, Fraction(1, 2))
    assert intersect_graphs(a, b).kind == EMPTY


def test_points_lie_on_both_curves():
    for n in (1, 3, 4):
        torus = product_torus(n)
        curves = slope_curves(torus)
        result = intersect_graphs(curves[0], curves[2])
        for p in result.points:
            assert contains_point(curves[0], p)
            assert contains_point(curves[2], p)


def test_ambient_mismatch_rejected():
    a = slope_curves(product_torus(2))[0]
    b = slope_curves(product_torus(3))[1]
    with pytest.raises(ValueError):
        intersect_graphs(a, b)
    # Equal tori in different stored bases: the solver reads matrices and
    # keys as coordinates, so it needs one basis.
    hexagonal = ProductTorus(base_lattice(), base_lattice())
    elsewhere = ProductTorus(base_lattice(), level_lattice(1))
    assert hexagonal == elsewhere
    with pytest.raises(ValueError, match="same bases"):
        intersect_graphs(GraphCurve(hexagonal, 1, 0), GraphCurve(elsewhere, RHO, 0))
    with pytest.raises(ValueError, match="same bases"):
        apply_auto_to_curve(TorusAutomorphism(hexagonal, RHO, 0, 1, 0),
                            GraphCurve(elsewhere, RHO, 0))
    with pytest.raises(ValueError, match="same bases"):
        intersect_graph_fiber(GraphCurve(hexagonal, 1, 0),
                              VerticalFiber(elsewhere, Fraction(1, 2)))


UNITS = (ONE, eis(-1), RHO, eis(0, -1), RHO2, eis(1, 1))


def reference_apply(inputs, w, z):
    """The Q(rho) formula [lw*w + cw, lz*z + cz] for inputs (lw, cw, lz, cz)."""
    lambda_w, trans_w, lambda_z, trans_z = inputs
    return lambda_w * w + trans_w, lambda_z * z + trans_z


def accepted_units(lattice):
    """The units that TorusAutomorphism accepts as a multiplier on lattice."""
    torus = ProductTorus(lattice, lattice)
    accepted = []
    for unit in UNITS:
        try:
            TorusAutomorphism(torus, unit, 0, unit, 0)
        except ValueError:
            continue
        accepted.append(unit)
    return accepted


@st.composite
def eisenstein_values(draw, q_max):
    """a + b*rho with a and b over one denominator q <= q_max, |a|, |b| <= 2."""
    q = draw(st.integers(min_value=1, max_value=q_max))
    parts = st.integers(min_value=-2 * q, max_value=2 * q)
    return eis(Fraction(draw(parts), q), Fraction(draw(parts), q))


@st.composite
def family_tori(draw):
    """A product of two family lattices at a level n <= 60, and n."""
    n = draw(st.integers(min_value=1, max_value=60))
    family = st.sampled_from([base_lattice(), level_lattice(n), albanese_lattice(n)])
    return ProductTorus(draw(family), draw(family)), n


@st.composite
def automorphism_inputs(draw, torus):
    """The Q(rho) inputs (lw, cw, lz, cz) of an automorphism of torus: unit
    multipliers that the constructor accepts, and translations of
    denominator up to 12."""
    return (draw(st.sampled_from(accepted_units(torus.lattice_w))), draw(eisenstein_values(12)),
            draw(st.sampled_from(accepted_units(torus.lattice_z))), draw(eisenstein_values(12)))


@st.composite
def automorphisms_and_points(draw):
    """An automorphism of a product of family lattices at a level n <= 60,
    its Q(rho) inputs, and the values of a point, with denominators up to
    12n."""
    torus, n = draw(family_tori())
    inputs = draw(automorphism_inputs(torus))
    return (TorusAutomorphism(torus, *inputs), inputs, draw(eisenstein_values(12 * n)),
            draw(eisenstein_values(12 * n)))


@settings(max_examples=400, deadline=None)
@given(automorphisms_and_points())
def test_integer_apply_matches_the_eisenstein_formula(case):
    f, inputs, w, z = case
    expected = key_of(f.ambient, reference_apply(inputs, w, z))
    assert image_key(f, key_of(f.ambient, (w, z))) == expected
    assert key_of(f.ambient, apply_automorphism(f, (w, z))) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_compose_matches_the_eisenstein_formula(data):
    torus, _ = data.draw(family_tori())
    inputs = automorphism_inputs(torus)
    (l1, c1, m1, d1), (l2, c2, m2, d2) = data.draw(inputs), data.draw(inputs)
    composed = TorusAutomorphism(torus, l1, c1, m1, d1).compose(
        TorusAutomorphism(torus, l2, c2, m2, d2))
    expected = TorusAutomorphism(torus, l1 * l2, l1 * c2 + c1, m1 * m2, m1 * d2 + d1)
    assert composed.matrices == expected.matrices
    assert composed.translations == expected.translations


HEXAGONAL_SLOPES = UNITS + (eis(0), ONE - RHO, eis(2), eis(2, 1), eis(-1, 3), eis(3))


@st.composite
def graphs(draw, torus, n):
    """(slope, curve): a well-defined graph on torus with a hexagonal
    integer slope, unit or not, and an offset of denominator up to 12n."""
    slope = draw(st.sampled_from(HEXAGONAL_SLOPES)) * draw(st.sampled_from((1, 1, 3 * n)))
    try:
        return slope, GraphCurve(torus, slope, draw(eisenstein_values(12 * n)))
    except ValueError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_curve_image_matches_the_eisenstein_formula(data):
    torus, n = data.draw(family_tori())
    lambda_w, trans_w, lambda_z, trans_z = inputs = data.draw(automorphism_inputs(torus))
    slope, curve = data.draw(graphs(torus, n))
    image = apply_auto_to_curve(TorusAutomorphism(torus, *inputs), curve)
    slope = lambda_w * slope / lambda_z
    offset = torus.lattice_w.value(curve.offset)
    expected = GraphCurve(torus, slope, lambda_w * offset + trans_w - slope * trans_z)
    assert image == expected
    assert image.matrix == expected.matrix


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_curve_image_slope_is_read_off_its_matrix(data):
    # A graph stores only its matrix; the slope read off it is the drawn
    # slope, and lw*slope/lz for its image, for unit and non-unit slopes.
    torus, n = data.draw(family_tori())
    lambda_w, _, lambda_z, _ = inputs = data.draw(automorphism_inputs(torus))
    slope, curve = data.draw(graphs(torus, n))
    image = apply_auto_to_curve(TorusAutomorphism(torus, *inputs), curve)
    assert "slope" not in vars(curve) and "slope" not in vars(image)
    assert slope_of(curve) == slope
    assert slope_of(image) == lambda_w * slope / lambda_z


def test_graph_equality_across_bases():
    # Curves compare their integer data, matrix and offset key, in one
    # basis: in a basis of their own, curves equal as sets are equal, and
    # the same curve stored in another basis of the same torus is not.
    hexagonal = ProductTorus(base_lattice(), base_lattice())
    other_z = ProductTorus(base_lattice(), level_lattice(1))
    other_w = ProductTorus(level_lattice(1), base_lattice())
    third = eis(Fraction(1, 3))
    curve = GraphCurve(hexagonal, RHO, third)
    for torus in (hexagonal, other_z, other_w):
        same = GraphCurve(torus, RHO, third)
        assert GraphCurve(torus, RHO, third + torus.lattice_w.gen2) == same
        assert GraphCurve(torus, RHO2, third) != same
        assert GraphCurve(torus, RHO, 2 * third) != same
        image = apply_auto_to_curve(TorusAutomorphism(torus, RHO, 0, 1, 0),
                                    GraphCurve(torus, 1, RHO2 * third))
        assert image == same and same == image
        assert (same == curve) == (curve == same) == (torus is hexagonal)
        assert torus == hexagonal and slope_of(same) == RHO
    assert GraphCurve(product_torus(2), RHO, third) != GraphCurve(product_torus(1), RHO, third)
    assert GraphCurve(hexagonal, RHO, third) != "not a curve"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_graph_fiber_point_matches_the_eisenstein_formula(data):
    torus, n = data.draw(family_tori())
    slope, curve = data.draw(graphs(torus, n))
    z = data.draw(eisenstein_values(12 * n))
    fiber = VerticalFiber(torus, z)
    result = intersect_graph_fiber(curve, fiber)
    ((w, z_value),) = result.points
    expected = slope * z + torus.lattice_w.value(curve.offset)
    assert result.kind == POINTS
    assert result.point_keys == (key_of(torus, (expected, z)),) == (key_of(torus, (w, z_value)),)
    assert torus.lattice_w.contains(w - expected) is not None


def test_the_integer_data_is_the_only_source():
    # A deck map carrying the integer data of another map answers as that
    # map does everywhere: no operation reads a second copy of it.
    torus = product_torus(2)
    deck = deck_automorphism(torus)
    other = TorusAutomorphism(torus, RHO2, 0, 1, ORDER3_SHIFT * 2)
    object.__setattr__(deck, "matrices", other.matrices)
    object.__setattr__(deck, "translations", other.translations)
    square = other.compose(other)
    for f in (deck, other):
        composed = f.compose(deck)
        assert (composed.matrices, composed.translations) == (square.matrices,
                                                              square.translations)
    assert automorphism_order(deck) == automorphism_order(other) == 3
    assert is_free(deck) and is_free(other)
    for curve in slope_curves(torus):
        assert apply_auto_to_curve(deck, curve) == apply_auto_to_curve(other, curve)
    assert apply_auto_to_curve(deck, slope_curves(torus)[0]) == slope_curves(torus)[2]
    assert classify_deck_action(deck, 3) == classify_deck_action(other, 3)


def test_torus_maps_do_no_eisenstein_arithmetic(monkeypatch):
    # The deck map's operations read its integer data and point keys only;
    # a curve image reads its slope off its matrix, and nothing else.
    torus = product_torus(40)
    deck = deck_automorphism(torus)
    curves = slope_curves(torus) + level_curves(torus)
    keys = closed_form_intersection(torus, 40)
    fiber = VerticalFiber(torus, Fraction(1, 5))
    calls = count_eisenstein_operations(monkeypatch)
    assert deck.compose(deck).compose(deck).is_identity()
    assert automorphism_order(deck) == 3 and is_free(deck)
    assert {image_key(deck, key) for key in keys} == set(keys)
    assert len(orbit_of_points(deck, keys)) == 40
    assert classify_deck_action(deck, 3).index == 5
    assert len({intersect_graph_fiber(c, fiber).point_keys for c in curves}) == 6
    images = [apply_auto_to_curve(deck, c) for c in curves]
    assert images == curves[1:3] + curves[:1] + curves[4:] + curves[3:4]
    assert calls == []


def test_apply_requires_the_ambient_bases():
    # base_lattice() and level_lattice(1) are one lattice in two bases;
    # the integer action reads point keys as coordinates in its own basis,
    # so a key taken in the other basis names another point.
    torus = ProductTorus(base_lattice(), level_lattice(1))
    f = TorusAutomorphism(torus, RHO, 0, 1, 0)
    point = eis(Fraction(1, 3)), eis(0, Fraction(1, 2))
    elsewhere = key_of(ProductTorus(base_lattice(), base_lattice()), point)
    assert elsewhere != key_of(torus, point)
    assert image_key(f, key_of(torus, point)) == key_of(torus, apply_automorphism(f, point))
    assert image_key(f, elsewhere) != key_of(torus, apply_automorphism(f, point))


def test_vertical_fiber_keeps_a_point_stored_in_its_basis():
    # A fiber stores z0's key in its z-lattice's basis: built from a key,
    # it keeps it; built from a value, it reduces it in that basis, and
    # the keys of one value in two bases are unequal.
    torus = product_torus(1)
    third = Fraction(1, 3)
    z = torus.lattice_z.key(eis(third, third))
    assert VerticalFiber.from_key(torus, z).z0 is z
    fiber = VerticalFiber(torus, eis(1 + third, third))
    elsewhere = base_lattice().key(eis(third, third))
    assert fiber.z0 == z != elsewhere
    assert fiber == VerticalFiber.from_key(torus, z)
    assert torus.lattice_z.contains(torus.lattice_z.value(fiber.z0)
                                    - base_lattice().value(elsewhere)) is not None


def test_graph_fiber_intersection():
    torus = product_torus(1)
    e1, e2, _ = slope_curves(torus)
    origin = VerticalFiber(torus, 0)
    (p,) = intersect_graph_fiber(e1, origin).point_keys
    assert p == base_lattice().key(eis(0)) + origin.z0
    (q,) = intersect_graph_fiber(e2, origin).point_keys
    assert q[:3] == base_lattice().key(ORDER3_SHIFT * -1)
    h1 = level_curves(torus)[0]
    (r,) = intersect_graph_fiber(h1, VerticalFiber(torus, Fraction(1, 5))).point_keys
    assert r[:3] == base_lattice().key(eis(Fraction(2, 3)))


def test_deck_orbit_of_slope_curves():
    for n in (1, 2, 7):
        torus = product_torus(n)
        curves = slope_curves(torus)
        deck = deck_automorphism(torus)
        assert [apply_auto_to_curve(deck, c) for c in curves] == curves[1:] + curves[:1]
        assert orbit_of_curves(deck, curves[0]) == curves


def test_deck_orbit_of_level_curves():
    torus = product_torus(3)
    curves = level_curves(torus)
    deck = deck_automorphism(torus)
    assert [apply_auto_to_curve(deck, c) for c in curves] == curves[1:] + curves[:1]


def test_identity_orbit():
    torus = product_torus(2)
    identity = TorusAutomorphism(torus, 1, 0, 1, 0)
    e1 = slope_curves(torus)[0]
    assert orbit_of_curves(identity, e1) == [e1]


def test_automorphism_order():
    torus = product_torus(4)
    assert automorphism_order(TorusAutomorphism(torus, 1, 0, 1, 0)) == 1
    assert automorphism_order(deck_automorphism(torus)) == 3
    half = TorusAutomorphism(torus, 1, 0, 1, torus.lattice_z.gen1 / 2)
    assert automorphism_order(half) == 2


def test_automorphism_order_cap():
    torus = product_torus(1)
    shift = TorusAutomorphism(torus, 1, 0, 1, Fraction(1, 97))
    with pytest.raises(ValueError, match=f"order exceeds {MAX_ORDER}"):
        automorphism_order(shift)


def test_deck_action_is_free():
    for n in (1, 2, 6):
        assert is_free(deck_automorphism(product_torus(n)))


def test_rotation_is_not_free(monkeypatch):
    torus = product_torus(2)
    rotation = TorusAutomorphism(torus, RHO, 0, 1, 0)
    assert automorphism_order(rotation) == 3
    # The first power with a fixed point decides: rotation itself fixes
    # w = 0, so no further power is composed.
    composed = []
    compose = TorusAutomorphism.compose
    monkeypatch.setattr(TorusAutomorphism, "compose",
                        lambda f, g: composed.append(g) or compose(f, g))
    assert not is_free(rotation)
    assert composed == []
    # No fixed point itself, but its square fixes w = 0.
    shifted = TorusAutomorphism(torus, eis(0, -1), 0, 1, 1)
    assert automorphism_order(shifted) == 6
    assert not is_free(shifted)


def test_lattice_translation_is_identity():
    torus = product_torus(2)
    trivial = TorusAutomorphism(torus, 1, torus.lattice_w.gen2, 1, 0)
    assert automorphism_order(trivial) == 1
    assert is_free(trivial)


def test_unit_scaling_enforced():
    torus = product_torus(2)
    with pytest.raises(ValueError):
        TorusAutomorphism(torus, 2, 0, 1, 0)
    with pytest.raises(ValueError):
        TorusAutomorphism(torus, 0, 0, 1, 0)


def oracle_orbits(f, torus, points):
    """The orbits of f through the points with values (w, z), each walked
    in Q(rho) with conftest.apply_automorphism from its least key and
    sorted by that key: the oracle of orbit_of_points."""
    cycles = {}
    for point in points:
        start = key_of(torus, point)
        if any(start in cycle for cycle in cycles.values()):
            continue
        cycle = [start]
        point = apply_automorphism(f, point)
        while key_of(torus, point) != start:
            cycle.append(key_of(torus, point))
            point = apply_automorphism(f, point)
        least = cycle.index(min(cycle))
        cycles[min(cycle)] = cycle[least:] + cycle[:least]
    return [cycles[key] for key in sorted(cycles)]


def test_point_orbits_partition():
    for n in (1, 2, 3):
        torus = product_torus(n)
        curves = slope_curves(torus)
        deck = deck_automorphism(torus)
        keys = list(intersect_graphs(curves[0], curves[1]).point_keys)
        orbits = orbit_of_points(deck, keys)
        assert len(orbits) == n
        assert all(len(orbit) == 3 for orbit in orbits)
        seen = {key for orbit in orbits for key in orbit}
        assert seen == set(keys)
        # representatives are the lexicographic minima, orbits sorted by them
        reps = [orbit[0] for orbit in orbits]
        assert reps == sorted(reps)
        for orbit in orbits:
            assert orbit[0] == min(orbit)
    # Each family's deck at a seeded level n <= 400 partitions its
    # intersection points and the orbits of seeded random points, given in
    # shuffled order, exactly as the walk in Q(rho) does.
    rng = random.Random(4001)
    for family in (GAMMA, LAMBDA):
        b = _Build(family, rng.randint(1, 400))
        b.run(_STAGES[:1])
        lw, lz = b.torus
        points = [(lw.value(key[:3]), lz.value(key[3:])) for key in b.points]
        for _ in range(20):
            q = rng.randint(1, 12 * b.n)
            points.append(tuple(eis(Fraction(rng.randint(-2 * q, 2 * q), q),
                                    Fraction(rng.randint(-2 * q, 2 * q), q))
                                for _ in range(2)))
        expected = oracle_orbits(b.deck, b.torus, points)
        keys = [key for orbit in expected for key in orbit]
        rng.shuffle(keys)
        assert orbit_of_points(b.deck, keys) == expected
        assert len(expected) > b.n


def test_point_orbits_require_stability():
    torus = product_torus(2)
    curves = slope_curves(torus)
    deck = deck_automorphism(torus)
    keys = list(intersect_graphs(curves[0], curves[1]).point_keys)
    with pytest.raises(ValueError):
        orbit_of_points(deck, keys[:4])


def test_single_fixed_point_orbit():
    torus = product_torus(1)
    identity = TorusAutomorphism(torus, 1, 0, 1, 0)
    p = key_of(torus, (eis(0), eis(0)))
    assert orbit_of_points(identity, [p]) == [[p]]


def test_image_points_land_on_image_curve():
    rng = random.Random(31337)
    torus = product_torus(3)
    deck = deck_automorphism(torus)
    for curve in slope_curves(torus) + level_curves(torus):
        image = apply_auto_to_curve(deck, curve)
        for _ in range(10):
            z = eis(Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
            point = slope_of(curve) * z + torus.lattice_w.value(curve.offset), z
            assert contains_point(image, apply_automorphism(deck, point))


def test_intersection_commutes_with_deck():
    torus = product_torus(2)
    deck = deck_automorphism(torus)
    curves = slope_curves(torus)
    direct = intersect_graphs(apply_auto_to_curve(deck, curves[0]),
                              apply_auto_to_curve(deck, curves[1]))
    points = intersect_graphs(curves[0], curves[1]).points
    moved = {key_of(torus, apply_automorphism(deck, p)) for p in points}
    assert direct.keys() == frozenset(moved)


def assert_matches_oracle(c1, c2, slope1, slope2):
    """The solver's point keys equal the oracle's, in the same order; the
    curves were built from the slopes."""
    got = intersect_graphs(c1, c2)
    expected = brute_force_intersection(c1, c2, slope1, slope2)
    if isinstance(expected, str):
        assert got.kind == expected
    else:
        assert got.kind == POINTS
        assert got.count == len(expected)
        assert list(got.point_keys) == expected


def test_points_are_built_from_the_stored_keys_in_order():
    # The kernel stores keys only; the values read on first access carry
    # the same keys in the same (coordinate) order.
    for n in (1, 5, 37):
        torus = product_torus(n)
        slopes, levels = slope_curves(torus), level_curves(torus)
        for c1, c2 in ((slopes[0], slopes[1]), (slopes[2], levels[1]),
                       (GraphCurve(torus, ONE - RHO, Fraction(1, 7)), levels[0])):
            result = intersect_graphs(c1, c2)
            assert "points" not in vars(result)
            assert [key_of(torus, p) for p in result.points] == list(result.point_keys)
            assert len(result.point_keys) == result.count > 0
            assert result.points is result.points


def test_solver_matches_oracle_small():
    # Against slope 1, slope -1 moves w along its second coordinate only,
    # and 1 - rho against rho^2 along its first only; slope 0 keeps w fixed.
    torus = product_torus(2)
    slopes = [ONE, RHO, RHO * RHO, ONE - RHO, eis(2), eis(-1), eis(0)]
    offsets = [eis(0), eis(Fraction(1, 2)), eis(Fraction(1, 3), Fraction(1, 2))]
    for s1 in slopes[:3]:
        for s2 in slopes:
            for off in offsets:
                assert_matches_oracle(GraphCurve(torus, s1, 0), GraphCurve(torus, s2, off), s1, s2)


def test_solver_matches_oracle_seeded():
    # Units rho^i against each other and against 0 (the level curves), and
    # the non-units 1 - rho and 2.  First at levels 1..12 with both offsets
    # over one denominator q = 1..6; then at levels 1..6 with the offsets
    # over q1 = 1..6 and q2 = 6, 3, 2, 3, 2, 1 (lcm(q1, q2) <= 12), so that
    # their keys' denominators e1 and e2 often have lcm(e1, e2) > max(e1, e2).
    rng = random.Random(909)
    slopes = [ONE, RHO, RHO * RHO, eis(0), ONE - RHO, eis(2)]
    pairs = [(s1, s2) for s1 in slopes for s2 in slopes]
    inputs = [(1 + 5 * index % 12, 1 + index % 6, 1 + index % 6)
              for index in range(len(pairs))]
    inputs += [(1 + 5 * index % 6, 1 + index % 6, (6, 3, 2, 3, 2, 1)[index % 6])
               for index in range(len(pairs))]
    coprime_denominators = 0
    for (s1, s2), (n, q1, q2) in zip(pairs + pairs, inputs):
        torus = product_torus(n)
        o1, o2 = (eis(Fraction(rng.randint(-2 * q, 2 * q), q),
                      Fraction(rng.randint(-2 * q, 2 * q), q))
                  for q in (q1, q2))
        c1, c2 = GraphCurve(torus, s1, o1), GraphCurve(torus, s2, o2)
        e1, e2 = c1.offset[2], c2.offset[2]
        coprime_denominators += lcm(e1, e2) > max(e1, e2)
        assert_matches_oracle(c1, c2, s1, s2)
    assert coprime_denominators >= 5


def test_intersect_graphs_does_no_eisenstein_arithmetic(monkeypatch):
    # The kernel reads the curves' integer matrices and offset keys only:
    # count every Q(rho) operator and inverse over the slope pairs and the
    # slope-level pairs at n = 40.
    torus = product_torus(40)
    slopes, levels = slope_curves(torus), level_curves(torus)
    calls = count_eisenstein_operations(monkeypatch)
    counts = [intersect_graphs(slopes[i], other).count
              for i in range(3) for other in slopes[i + 1:] + levels]
    assert counts == [120, 120] + [40] * 3 + [120] + [40] * 3 + [40] * 3
    assert calls == []


def fraction_coordinates_of_key(key):
    """A point key's four coordinates as Fractions, w's then z's."""
    return (Fraction(key[0], key[2]), Fraction(key[1], key[2]),
            Fraction(key[3], key[5]), Fraction(key[4], key[5]))


def test_points_are_listed_in_fraction_coordinate_order():
    # The kernel sorts by packed integer numerators; the order must be the
    # one that the keys' rational coordinates give, w before z.
    torus = product_torus(400)
    slopes, levels = slope_curves(torus), level_curves(torus)
    results = [intersect_graphs(slopes[i], other)
               for i in range(3) for other in slopes[i + 1:] + levels]
    assert [result.count for result in results] == (
        [1200, 1200] + [400] * 3 + [1200] + [400] * 3 + [400] * 3)
    for result in results:
        keys = list(result.point_keys)
        assert keys == sorted(keys, key=fraction_coordinates_of_key)


def test_solver_keeps_the_repeats_of_a_doubled_grid(monkeypatch):
    # A grid that runs twice along k2 meets every class twice.  The solver
    # lists each solution as often as the grid meets it: merging repeats
    # would hide a wrong grid.
    torus = product_torus(5)
    slopes, levels = slope_curves(torus), level_curves(torus)
    pairs = [(slopes[0], slopes[1]), (slopes[1], levels[2])]
    once = [intersect_graphs(c1, c2).point_keys for c1, c2 in pairs]
    original = curves_module.coset_grid

    def doubled(p, q, r, t):
        d1, d2, axis = original(p, q, r, t)
        return d1, 2 * d2, axis

    monkeypatch.setattr(curves_module, "coset_grid", doubled)
    twice = [intersect_graphs(c1, c2).point_keys for c1, c2 in pairs]
    assert twice == [tuple(key for key in keys for _ in range(2)) for keys in once]


def test_count_equals_lattice_index():
    # |intersection| = index of (slope difference)*(z-lattice) in the w-lattice
    slopes = (ONE, RHO, RHO2)  # the slopes of slope_curves
    for n in (1, 2, 4):
        torus = product_torus(n)
        curves = slope_curves(torus)
        for i in range(3):
            for j in range(i + 1, 3):
                m = slopes[i] - slopes[j]
                index = scaled(torus.lattice_z, m).index_in(torus.lattice_w)
                p, q, r, t = (x - y for x, y in zip(curves[i].matrix, curves[j].matrix))
                assert intersect_graphs(curves[i], curves[j]).count == index == 3 * n
                assert abs(p * t - q * r) == index


def test_closed_form_helper_matches_inline():
    # The helper computes integer keys only; they are the keys of the
    # Q(rho) transcription's values, in the same order.
    for n in (1, 4, 37, 60):
        torus = product_torus(n)
        helper = closed_form_intersection(torus, n)
        assert list(helper) == [key_of(torus, p) for p in closed_form_points(n)]


def test_orbit_of_curves_cap():
    torus = product_torus(1)
    creep = TorusAutomorphism(torus, 1, 0, 1, Fraction(1, 5))
    e1 = slope_curves(torus)[0]
    with pytest.raises(ValueError):
        orbit_of_curves(creep, e1, max_order=3)


def test_records_are_immutable_and_the_basis_free_ones_unhashable():
    """A torus compares through its lattices, which have no hash, so it has
    none; a fiber, which compares keys in its lattices' stored bases, has
    none either.  The error names the record."""
    torus = product_torus(1)
    e1, e2, _ = slope_curves(torus)
    fiber = VerticalFiber(torus, Fraction(1, 3))
    meet = intersect_graphs(e1, e2)
    for record, name in ((torus, "lattice_w"), (e1, "matrix"), (fiber, "z0"),
                         (deck_automorphism(torus), "matrices"), (meet, "kind")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    for record in (torus, fiber):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(record).__name__}'"):
            hash(record)


def test_record_equality():
    """Tori compare by their lattices, as sets; fibers by (ambient, z0), so
    in one basis.  An intersection's outcome is its kind and keys, whatever
    the ambient."""
    def outcome(result):
        return result.kind, result.point_keys

    torus = product_torus(1)
    hexagonal = ProductTorus(base_lattice(), base_lattice())
    assert torus == hexagonal
    assert torus != product_torus(2)
    fiber = VerticalFiber(torus, Fraction(1, 3))
    assert fiber == VerticalFiber(torus, Fraction(4, 3))
    assert fiber != VerticalFiber(hexagonal, Fraction(1, 3))
    assert VerticalFiber(hexagonal, Fraction(1, 3)) == VerticalFiber(hexagonal, Fraction(4, 3))
    assert fiber != VerticalFiber(torus, Fraction(2, 3))
    assert fiber != VerticalFiber(product_torus(2), Fraction(1, 3))
    e1, e2, _ = slope_curves(torus)
    crossing = intersect_graph_fiber(e1, fiber)
    (point,) = crossing.points
    assert outcome(crossing) == outcome(intersect_graph_fiber(e1, VerticalFiber(torus, point[1])))
    assert key_of(torus, point) == crossing.point_keys[0]
    meet = intersect_graphs(e1, e2)
    alone = Intersection(meet.kind, meet.point_keys)
    assert alone.ambient is None and outcome(alone) == outcome(meet)
    assert outcome(Intersection(EMPTY)) != outcome(Intersection(IDENTICAL))
    # A degenerate result has no ambient, and no points to read.
    assert intersect_graphs(e1, e1).points == Intersection(EMPTY).points == ()


def test_intersection_json_forms():
    torus = product_torus(1)
    e1, e2, _ = slope_curves(torus)
    doc = intersect_graphs(e1, e2).to_json()
    assert doc["kind"] == "points" and doc["count"] == 3
    assert all(set(p) == {"w", "z"} for p in doc["points"])
    assert intersect_graphs(e1, e1).to_json() == {"kind": "identical"}
