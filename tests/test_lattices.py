"""Lattice membership, multiplier matrices, indices, the Hermite coset grid,
and torus point keys and their values."""

import random
from fractions import Fraction
from math import floor, gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ballq.eisenstein import ONE, RHO, eis
from ballq.families import ORDER3_SHIFT, albanese_lattice, base_lattice, level_lattice
from ballq.lattices import Lattice, coset_grid, point_key

from conftest import (coordinates, fraction_coordinates, from_coordinates, random_eisenstein,
                      random_lattice, random_sublattice, scaled)

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
    assert coordinates(base, ORDER3_SHIFT) == (Fraction(1, 3), Fraction(-1, 3))


def test_contains_triple_shift_in_level_lattice():
    for n in (1, 2, 5):
        assert level_lattice(n).contains(3 * ORDER3_SHIFT) == (0, 1)


def test_level_lattices_inside_hexagonal():
    for n in range(1, 8):
        assert level_lattice(n).index_in(level_lattice(1)) is not None


def test_sublattice_divisibility():
    assert level_lattice(4).index_in(level_lattice(2)) == 2
    assert level_lattice(3).index_in(level_lattice(2)) is None


def test_index_of_level_lattice():
    for n in range(1, 9):
        assert level_lattice(n).index_in(level_lattice(1)) == n


def test_index_self_is_one():
    lattice = level_lattice(3)
    assert lattice.index_in(lattice) == 1


def test_index_of_scaled_lattice():
    # (1 - rho) * (level-n lattice) has index 3n in the hexagonal lattice.
    for n in (1, 2, 5, 9):
        assert scaled(level_lattice(n), ONE - RHO).index_in(base_lattice()) == 3 * n


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
eisensteins = st.builds(eis, small_rationals, small_rationals)


@st.composite
def multiplier_cases(draw):
    """(source, factor, target): a target lattice, a sublattice of it by an
    integer matrix, and a factor that is a unit, an Eisenstein integer or a
    random element of Q(rho)."""
    n = draw(st.integers(min_value=1, max_value=30))
    target = draw(st.sampled_from([base_lattice(), level_lattice(n), albanese_lattice(n)]))
    if draw(st.booleans()):
        gens = (draw(eisensteins), draw(eisensteins))
        assume(gens[0].re_part * gens[1].rho_part != gens[0].rho_part * gens[1].re_part)
        target = Lattice(*gens)
    a, b, c, d = (draw(st.integers(min_value=-3, max_value=3)) for _ in range(4))
    assume(a * d - b * c != 0)
    source = Lattice(a * target.gen1 + b * target.gen2, c * target.gen1 + d * target.gen2)
    factor = draw(st.sampled_from([ONE, eis(-1), RHO, eis(0, -1), ONE - RHO, eis(2, 1)])
                  | eisensteins)
    return source, factor, target


@settings(max_examples=400, deadline=None)
@given(multiplier_cases())
def test_multiplier_matrix_matches_fraction_coordinates(case):
    source, factor, target = case
    expected = (fraction_coordinates(target, factor * source.gen1)
                + fraction_coordinates(target, factor * source.gen2))
    if all(c.denominator == 1 for c in expected):
        assert source.multiplier_matrix(factor, target) == tuple(map(int, expected))
    else:
        with pytest.raises(ValueError):
            source.multiplier_matrix(factor, target)


def test_multiplier_matrix_of_rho_on_the_hexagonal_lattice():
    # rho*1 = rho and rho*rho = -1 - rho
    assert base_lattice().multiplier_matrix(RHO, base_lattice()) == (0, 1, -1, -1)
    assert level_lattice(4).multiplier_matrix(ONE, level_lattice(2)) == (2, 0, 0, 1)


def test_lattice_equality_is_mutual_containment():
    # Same set, different stored bases.
    assert base_lattice() == level_lattice(1)
    assert base_lattice() != level_lattice(2)
    # Seeded: a unimodular change of basis gives the same set, and a
    # sublattice of index > 1 is another set, in both orders.
    rng = random.Random(2357)
    proper = 0
    for _ in range(200):
        lattice = random_lattice(rng)
        k, j = rng.randint(-4, 4), rng.randint(-4, 4)
        a, b, c, d = rng.choice(((1, k, j, 1 + j * k), (k, 1, 1 + j * k, j)))
        other = Lattice(a * lattice.gen1 + b * lattice.gen2, c * lattice.gen1 + d * lattice.gen2)
        assert other == lattice and lattice == other
        sub = random_sublattice(rng, lattice)
        index = sub.index_in(lattice)
        assert (sub == lattice) == (lattice == sub) == (index == 1)
        proper += index > 1
    assert proper >= 150


def test_lattices_are_immutable_and_unhashable():
    """Lattices compare as sets, so a lattice has no hash: hashing the
    stored generators would give equal lattices in other bases different
    hashes.  Sets of torus points hold their keys, which are read in one
    stored basis."""
    lattice = level_lattice(2)
    with pytest.raises(AttributeError):
        lattice.gen1 = lattice.gen1
    with pytest.raises(AttributeError):
        del lattice.gen1
    with pytest.raises(TypeError, match="unhashable type: 'Lattice'"):
        hash(lattice)


def coset_representatives(sub, sup):
    """Every grid point k1*b1 + k2*b2 of the coset grid of sub in sup, k2
    fastest, with (b1, b2) sup's basis in the grid's axis order."""
    d1, d2, axis = coset_grid(*sub.multiplier_matrix(ONE, sup))
    b1, b2 = (sup.gen2, sup.gen1) if axis else (sup.gen1, sup.gen2)
    return [k1 * b1 + k2 * b2 for k1 in range(d1) for k2 in range(d2)]


def test_coset_grid_is_hermite_box():
    for sub, sup, box in ((level_lattice(6), level_lattice(1), (1, 6, 1)),
                          (scaled(base_lattice(), eis(6)), base_lattice(), (6, 6, 0))):
        d1, d2, axis = coset_grid(*sub.multiplier_matrix(ONE, sup))
        assert (d1, d2, axis) == box
        assert d1 * d2 == sub.index_in(sup)
    # gcd(p, r) = 4 against gcd(q, t) = 1: the box runs along the second axis.
    assert coset_grid(4, 1, 0, 3) == (1, 12, 1)


@settings(max_examples=300, deadline=None)
@given(entries, entries, entries, entries)
def test_coset_grid_meets_each_class_once(a, b, c, d):
    assume(a * d - b * c != 0)
    sup = base_lattice()
    sub = Lattice(a * sup.gen1 + b * sup.gen2, c * sup.gen1 + d * sup.gen2)
    reps = coset_representatives(sub, sup)
    assert len(reps) == sub.index_in(sup) == abs(a * d - b * c)
    assert len({sub.key(r) for r in reps}) == len(reps)


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
    sub = scaled(level_lattice(2), ONE - RHO)
    reps = coset_representatives(sub, base_lattice())
    assert len(reps) == 6
    for i, r in enumerate(reps):
        for s in reps[:i]:
            assert sub.contains(r - s) is None


def test_coset_representatives_requires_sublattice():
    with pytest.raises(ValueError):
        coset_representatives(level_lattice(3), level_lattice(2))


def test_reduce_zero():
    assert base_lattice().key(eis(0)) == (0, 0, 1)
    assert base_lattice().value((0, 0, 1)) == eis(0)


def test_reduce_shift_identities():
    base = base_lattice()
    two_thirds = eis(Fraction(2, 3))
    assert base.key(two_thirds + ORDER3_SHIFT) == base.key(RHO * Fraction(2, 3))
    assert base.key(two_thirds + 2 * ORDER3_SHIFT) == base.key(RHO * RHO * Fraction(2, 3))


def test_reduction_properties_random():
    # Lattice.value inverts Lattice.key: the value of x's key is x reduced
    # into [0, 1)^2 (Cramer's rule), and its key is the key again.
    rng = random.Random(20240)
    for _ in range(1000):
        lattice = random_lattice(rng)
        x = random_eisenstein(rng)
        key = lattice.key(x)
        value = lattice.value(key)
        assert lattice.key(value) == key
        assert lattice.contains(value - x) is not None
        assert all(0 <= c < 1 for c in fraction_coordinates(lattice, value))
        period = from_coordinates(lattice, Fraction(rng.randint(-3, 3)),
                                  Fraction(rng.randint(-3, 3)))
        assert lattice.key(x + period) == key


def reference_reduction(x, lattice):
    """The Fraction reduction: floor both coordinates (Cramer's rule, not
    Lattice.numerators), then rebuild the value from the remainders."""
    s, t = fraction_coordinates(lattice, x)
    rs, rt = s - floor(s), t - floor(t)
    return (rs, rt), from_coordinates(lattice, rs, rt)


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
            lattice = scaled(lattice, factor)
    parts = st.builds(Fraction, st.integers(min_value=-24 * n, max_value=24 * n),
                      st.integers(min_value=1, max_value=12 * n))
    return lattice, eis(draw(parts), draw(parts))


@settings(max_examples=400, deadline=None)
@given(lattices_and_values())
def test_integer_reduction_matches_fraction_reduction(case):
    lattice, x = case
    rs, rt, den = key = lattice.key(x)
    reduced, value = reference_reduction(x, lattice)
    # The coordinate map against Cramer's rule, on x and on the period x - value.
    for y in (x, x - value):
        exact = fraction_coordinates(lattice, y)
        assert coordinates(lattice, y) == exact
        integral = all(c.denominator == 1 for c in exact)
        assert lattice.contains(y) == (tuple(map(int, exact)) if integral else None)
    assert (Fraction(rs, den), Fraction(rt, den)) == reduced
    assert lattice.value(key) == value
    assert lattice.key(value) == key
    # The same key from the reduced numerators, over a multiple of their
    # least common denominator.
    den = lcm(*(c.denominator for c in reduced))
    rs, rt = (c.numerator * (den // c.denominator) for c in reduced)
    scale = 1 + (rs + rt) % 3
    assert point_key(rs * scale, rt * scale, den * scale) == key


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
        y = x + from_coordinates(lattice, Fraction(draw(shift)), Fraction(draw(shift)))
    else:
        y = eis(draw(parts), draw(parts))
    return lattice, x, y, draw(st.integers(min_value=1, max_value=5))


@settings(max_examples=400, deadline=None)
@given(family_points())
def test_integer_key_matches_fraction_coordinates(case):
    lattice, x, y, k = case
    keys = {x: lattice.key(x), y: lattice.key(y)}
    for value, key in keys.items():
        rs, rt, den = key
        assert 0 <= rs < den and 0 <= rt < den and gcd(rs, rt, den) == 1
        assert (Fraction(rs, den), Fraction(rt, den)) == reference_reduction(value, lattice)[0]
        assert point_key(k * rs, k * rt, k * den) == key
    same_coords = reference_reduction(x, lattice)[0] == reference_reduction(y, lattice)[0]
    assert (keys[x] == keys[y]) == same_coords


def test_index_multiplicativity_random():
    rng = random.Random(90125)
    for _ in range(60):
        l1 = random_lattice(rng)
        l2 = random_sublattice(rng, l1)
        l3 = random_sublattice(rng, l2)
        assert l3.index_in(l1) == l3.index_in(l2) * l2.index_in(l1)


def test_coset_size_matches_index_random():
    rng = random.Random(555)
    for _ in range(40):
        sup = random_lattice(rng)
        sub = random_sublattice(rng, sup)
        reps = coset_representatives(sub, sup)
        assert len(reps) == sub.index_in(sup)
        keys = {sub.key(r) for r in reps}
        assert len(keys) == len(reps)


def addition_loop_order(lattice, value, max_order):
    """Least k <= max_order with k*value in the lattice, by adding the
    value to itself in Q(rho)."""
    acc = value
    for k in range(1, max_order + 1):
        if lattice.contains(acc) is not None:
            return k
        acc = acc + value
    raise ValueError(f"order exceeds {max_order}")


def test_order_matches_addition_loop_random():
    # A point's order is its key's denominator, which albanese_data reads
    # as the shift's order.
    rng = random.Random(3141)
    for _ in range(150):
        x = random_eisenstein(rng)
        lattice = random_lattice(rng)
        key = lattice.key(x)
        for max_order in (8, 200):
            try:
                expected = addition_loop_order(lattice, lattice.value(key), max_order)
            except ValueError:
                assert key[2] > max_order
            else:
                assert key[2] == expected
