"""Betti tables of the two-set cover and the derived constraints."""

import json

import pytest

from ballq.homology import (
    BettiVector,
    betti_from_deck,
    betti_of_open,
    fibration_sequence_report,
    free_rank_of_punctured_surface,
    mv_tables,
)
from ballq.curves import TorusAutomorphism
from ballq.eisenstein import RHO
from ballq.families import GAMMA, LAMBDA, build_family, deck_automorphism, product_torus


def test_tables_k1():
    u, v = mv_tables(1)
    assert tuple(u) == (1, 2, 1, 0, 0)
    assert tuple(v) == (1, 2, 2, 1, 0)


def test_tables_scale_with_k():
    u3, v3 = mv_tables(3)
    assert v3.b1 == 6
    u2, v2 = mv_tables(2)
    assert v2.b3 == 2
    assert tuple(u3) == (3, 6, 3, 0, 0)


def test_tables_require_a_cusp():
    with pytest.raises(ValueError):
        mv_tables(0)


def test_euler_characteristics_vanish():
    for k in range(1, 11):
        u, v = mv_tables(k)
        assert u.euler() == 0
        assert v.euler() == 0


def test_betti_vector_validation():
    with pytest.raises(ValueError):
        BettiVector(1, -1, 0, 0, 0)
    b = BettiVector(1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        b._replace(b1=-1)  # a copy is validated too
    assert b._replace(b2=1) == b == BettiVector(1, 0, 1, 0, 1) != BettiVector(1, 0, 2, 0, 1)
    with pytest.raises(AttributeError):
        b.b1 = 2


def test_betti_from_the_family_deck():
    # rho acts on Z[rho] with no invariant line, and the z-factor is only
    # translated: b1 = 0 + 2.
    for n in (1, 2, 4, 7, 9):
        deck = deck_automorphism(product_torus(n))
        assert deck.matrices == ((0, 1, -1, -1), (1, 0, 0, 1))
        b = betti_from_deck(deck.matrices, n)
        assert b == BettiVector(1, 2, n + 2, 2, 1)
        assert b.euler() == n


def test_betti_from_deck_counts_invariant_lines():
    torus = product_torus(3)
    flip = TorusAutomorphism(torus, RHO, 0, -1, 0)
    assert flip.matrices[1] == (-1, 0, 0, -1)
    assert betti_from_deck(flip.matrices, 3) == BettiVector(1, 0, 1, 0, 1)
    identity = TorusAutomorphism(torus, 1, 0, 1, 0).matrices
    assert betti_from_deck(identity, 0) == BettiVector(1, 4, 6, 4, 1)
    # a shear fixes one line
    assert betti_from_deck(((1, 1, 0, 1), (-1, 0, 0, -1)), 0).b1 == 1


def test_open_constraints():
    b = BettiVector(1, 2, 6, 2, 1)
    constraints = betti_of_open(b, 5)
    assert constraints["b1"] == 2
    assert constraints["b3_lower_bound"] == 4
    assert constraints["b2_minus_b3"] == 1 - 2 + 6
    assert json.loads(json.dumps(constraints)) == constraints


def test_open_constraints_vacuous_bound():
    constraints = betti_of_open(BettiVector(1, 2, 3, 2, 1), 1)
    assert constraints["b3_lower_bound"] == 0
    assert json.loads(json.dumps(constraints)) == constraints


def test_b2_b3_relation_independent_of_k():
    b = BettiVector(1, 2, 5, 2, 1)
    values = {betti_of_open(b, k)["b2_minus_b3"] for k in range(1, 8)}
    assert len(values) == 1


def test_free_rank_of_punctured_surface():
    assert free_rank_of_punctured_surface(1, 3) == 4
    assert free_rank_of_punctured_surface(0, 4) == 3
    assert free_rank_of_punctured_surface(1, 1) == 2
    with pytest.raises(ValueError):
        free_rank_of_punctured_surface(1, 0)


def test_fibration_report_from_gamma():
    report = build_family(GAMMA, 2)
    record = fibration_sequence_report(report)
    assert record["base_rank"] == 2
    assert record["generic_fiber_free_rank"] == 4
    assert record["singular_fiber_free_rank"] == 3
    assert any("finitely generated" in line for line in record["conclusions"])
    assert json.loads(json.dumps(record)) == record


def test_fibration_report_rejects_other_family():
    report = build_family(LAMBDA, 1)
    with pytest.raises(ValueError):
        fibration_sequence_report(report)
