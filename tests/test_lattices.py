"""Lattice membership, indices and the Hermite coset grid."""

from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ballq.eisenstein import ONE, RHO, eis
from ballq.families import ORDER3_SHIFT, albanese_lattice, base_lattice, level_lattice
from ballq.lattices import Lattice, TorusPoint, _over_common_denominator, coset_grid

from conftest import random_eisenstein, random_lattice, random_sublattice

entries = st.integers(min_value=-12, max_value=12)


def test_dependent_generators_rejected():
    with pytest.raises(ValueError):
        Lattice(eis(2), eis(3))
    with pytest.raises(ValueError):
        Lattice(eis(0), RHO)


def test_contains_generator():
    assert base_lattice().contains(RHO) == (0, 1)


def test_contains_rejects_third_of_period():
    base = base_lattice()
    assert base.contains(ORDER3_SHIFT) is None
    assert base.coordinates(ORDER3_SHIFT) == (Fraction(1, 3), Fraction(-1, 3))


def test_contains_triple_shift_in_level_lattice():
    for n in (1, 2, 5):
        assert level_lattice(n).contains(3 * ORDER3_SHIFT) == (0, 1)


def test_level_lattices_inside_hexagonal():
    for n in range(1, 8):
        assert level_lattice(n).is_sublattice_of(level_lattice(1))


def test_sublattice_divisibility():
    assert level_lattice(4).is_sublattice_of(level_lattice(2))
    assert not level_lattice(3).is_sublattice_of(level_lattice(2))


def test_index_of_level_lattice():
    for n in range(1, 9):
        assert level_lattice(n).index_in(level_lattice(1)) == n


def test_index_self_is_one():
    lattice = level_lattice(3)
    assert lattice.index_in(lattice) == 1


def test_index_of_scaled_lattice():
    # (1 - rho) * (level-n lattice) has index 3n in the hexagonal lattice.
    for n in (1, 2, 5, 9):
        scaled = level_lattice(n).scaled(ONE - RHO)
        assert scaled.index_in(base_lattice()) == 3 * n


def test_lattice_equality_is_mutual_containment():
    # Same set, different stored bases.
    assert base_lattice() == level_lattice(1)
    assert base_lattice() != level_lattice(2)


def coset_representatives(sub, sup):
    """Every grid point k1*b1 + k2*b2 of coset_grid(sub, sup), k2 fastest."""
    d1, d2, b1, b2 = coset_grid(sub, sup)
    return [k1 * b1 + k2 * b2 for k1 in range(d1) for k2 in range(d2)]


def test_coset_grid_is_hermite_box():
    for sub, sup, box in ((level_lattice(6), level_lattice(1), (1, 6)),
                          (base_lattice().scaled(eis(6)), base_lattice(), (6, 6))):
        d1, d2, b1, b2 = coset_grid(sub, sup)
        assert (d1, d2) == box
        assert d1 * d2 == sub.index_in(sup)
        assert {b1, b2} == {sup.gen1, sup.gen2}


@settings(max_examples=300, deadline=None)
@given(entries, entries, entries, entries)
def test_coset_grid_meets_each_class_once(a, b, c, d):
    assume(a * d - b * c != 0)
    sup = base_lattice()
    sub = Lattice(a * sup.gen1 + b * sup.gen2, c * sup.gen1 + d * sup.gen2)
    reps = coset_representatives(sub, sup)
    assert len(reps) == sub.index_in(sup) == abs(a * d - b * c)
    assert len({TorusPoint(r, sub).key for r in reps}) == len(reps)


def test_coset_representatives_trivial():
    lattice = base_lattice()
    reps = coset_representatives(lattice, lattice)
    assert len(reps) == 1
    assert lattice.contains(reps[0]) is not None


def test_coset_representatives_level():
    for n in (2, 3, 5):
        sub, sup = level_lattice(n), level_lattice(1)
        reps = coset_representatives(sub, sup)
        assert len(reps) == n
        for i, r in enumerate(reps):
            assert sup.contains(r) is not None
            for s in reps[:i]:
                assert sub.contains(r - s) is None


def test_coset_representatives_scaled():
    sub = level_lattice(2).scaled(ONE - RHO)
    reps = coset_representatives(sub, base_lattice())
    assert len(reps) == 6
    for i, r in enumerate(reps):
        for s in reps[:i]:
            assert sub.contains(r - s) is None


def test_coset_representatives_requires_sublattice():
    with pytest.raises(ValueError):
        coset_representatives(level_lattice(3), level_lattice(2))


def test_reduce_zero():
    assert TorusPoint(eis(0), base_lattice()).coords == (0, 0)


def test_reduce_shift_identities():
    base = base_lattice()
    two_thirds = eis(Fraction(2, 3))
    assert (TorusPoint(two_thirds + ORDER3_SHIFT, base)
            == TorusPoint(RHO * Fraction(2, 3), base))
    assert (TorusPoint(two_thirds + 2 * ORDER3_SHIFT, base)
            == TorusPoint(RHO * RHO * Fraction(2, 3), base))


def test_reduction_properties_random():
    import random

    rng = random.Random(20240)
    for _ in range(150):
        lattice = random_lattice(rng)
        x = random_eisenstein(rng)
        point = TorusPoint(x, lattice)
        s, t = point.coords
        assert 0 <= s < 1 and 0 <= t < 1
        # the reduction differs from the input by a lattice element
        assert lattice.contains(x - point.value) is not None
        # idempotence
        again = TorusPoint(point.value, lattice)
        assert again.coords == point.coords
        # invariance under adding a period
        period = lattice.from_coordinates(Fraction(rng.randint(-3, 3)),
                                          Fraction(rng.randint(-3, 3)))
        assert TorusPoint(x + period, lattice) == point


def reference_reduction(x, lattice):
    """The Fraction reduction: floor both coordinates, then rebuild the
    value from the remainders."""
    s, t = lattice.coordinates(x)
    rs, rt = s - floor(s), t - floor(t)
    return (rs, rt), lattice.from_coordinates(rs, rt)


@st.composite
def lattices_and_values(draw):
    """A family lattice at a level n <= 60, possibly scaled, and a value
    whose coefficients have denominators up to 12n."""
    n = draw(st.integers(min_value=1, max_value=60))
    lattice = draw(st.sampled_from([level_lattice(n), base_lattice(), albanese_lattice(n)]))
    if draw(st.booleans()):
        parts = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        factor = eis(draw(parts), draw(parts))
        if factor:
            lattice = lattice.scaled(factor)
    parts = st.builds(Fraction, st.integers(min_value=-24 * n, max_value=24 * n),
                      st.integers(min_value=1, max_value=12 * n))
    return lattice, eis(draw(parts), draw(parts))


@settings(max_examples=400, deadline=None)
@given(lattices_and_values())
def test_integer_reduction_matches_fraction_reduction(case):
    lattice, x = case
    point = TorusPoint(x, lattice)
    coords, value = reference_reduction(x, lattice)
    assert point.coords == coords
    assert point.value == value
    assert all(0 <= c < 1 for c in point.coords)
    again = TorusPoint(point.value, lattice)
    assert (again.coords, again.value) == (point.coords, point.value)
    # The same point from its reduced numerators, over a multiple of their
    # least common denominator.
    (rs, rt), den = _over_common_denominator(coords)
    scale = 1 + (rs + rt) % 3
    built = TorusPoint.from_reduced(rs * scale, rt * scale, den * scale, lattice)
    assert built.coords == point.coords
    assert str(built.value) == str(point.value)
    assert built.key == point.key


@st.composite
def family_points(draw):
    """A family lattice at a level n <= 60, two values on it, equal modulo
    the lattice half of the time, and a scale factor 1..5."""
    n = draw(st.integers(min_value=1, max_value=60))
    lattice = draw(st.sampled_from([base_lattice(), level_lattice(n), albanese_lattice(n)]))
    parts = st.builds(Fraction, st.integers(min_value=-24 * n, max_value=24 * n),
                      st.integers(min_value=1, max_value=12 * n))
    x = eis(draw(parts), draw(parts))
    if draw(st.booleans()):
        shift = st.integers(min_value=-3, max_value=3)
        y = x + lattice.from_coordinates(Fraction(draw(shift)), Fraction(draw(shift)))
    else:
        y = eis(draw(parts), draw(parts))
    return lattice, x, y, draw(st.integers(min_value=1, max_value=5))


@settings(max_examples=400, deadline=None)
@given(family_points())
def test_integer_key_matches_fraction_coordinates(case):
    lattice, x, y, k = case
    points = {x: TorusPoint(x, lattice), y: TorusPoint(y, lattice)}
    for value, point in points.items():
        rs, rt, den = point.key
        assert 0 <= rs < den and 0 <= rt < den and gcd(rs, rt, den) == 1
        assert point.coords == reference_reduction(value, lattice)[0]
        assert TorusPoint.from_reduced(k * rs, k * rt, k * den, lattice).key == point.key
    same_coords = reference_reduction(x, lattice)[0] == reference_reduction(y, lattice)[0]
    assert (points[x].key == points[y].key) == same_coords


def test_from_reduced_rejects_unreduced_numerators():
    lattice = level_lattice(3)
    expected = TorusPoint(lattice.from_coordinates(Fraction(5, 6), Fraction(1, 6)), lattice)
    assert TorusPoint.from_reduced(5, 1, 6, lattice) == expected
    for rs, rt in ((6, 0), (0, 6), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            TorusPoint.from_reduced(rs, rt, 6, lattice)


def test_index_multiplicativity_random():
    import random

    rng = random.Random(90125)
    for _ in range(60):
        l1 = random_lattice(rng)
        l2 = random_sublattice(rng, l1)
        l3 = random_sublattice(rng, l2)
        assert l3.index_in(l1) == l3.index_in(l2) * l2.index_in(l1)


def test_coset_size_matches_index_random():
    import random

    rng = random.Random(555)
    for _ in range(40):
        sup = random_lattice(rng)
        sub = random_sublattice(rng, sup)
        reps = coset_representatives(sub, sup)
        assert len(reps) == sub.index_in(sup)
        keys = {TorusPoint(r, sub).key for r in reps}
        assert len(keys) == len(reps)


def addition_loop_order(point, max_order):
    """Least k <= max_order with k*value in the lattice, by adding the
    value to itself in Q(rho)."""
    acc = point.value
    for k in range(1, max_order + 1):
        if point.lattice.contains(acc) is not None:
            return k
        acc = acc + point.value
    raise ValueError(f"order exceeds {max_order}")


def test_order_matches_addition_loop_random():
    import random

    rng = random.Random(3141)
    for _ in range(150):
        point = TorusPoint(random_eisenstein(rng), random_lattice(rng))
        for max_order in (8, 200):
            try:
                expected = addition_loop_order(point, max_order)
            except ValueError:
                with pytest.raises(ValueError):
                    point.order(max_order)
            else:
                assert point.order(max_order) == expected


def test_torus_point_order_cap():
    point = TorusPoint(eis(Fraction(1, 97)), base_lattice())
    with pytest.raises(ValueError):
        point.order(max_order=50)
    assert point.order(max_order=100) == 97
    assert TorusPoint(eis(0), base_lattice()).order() == 1
