"""Betti tables of the two-set cover and the derived constraints."""

import json

import pytest

from ballq.homology import (
    fibration_sequence_report,
    free_rank_of_punctured_surface,
    homology_section,
)
from ballq.curves import TorusAutomorphism
from ballq.eisenstein import RHO
from ballq.families import GAMMA, LAMBDA, build_family, deck_automorphism, product_torus

# The families' deck: rho on Z[rho], a translation on the z-factor.
DECK = ((0, 1, -1, -1), (1, 0, 0, 1))


def euler(ranks):
    return sum((-1) ** i * rank for i, rank in enumerate(ranks))


def test_tables_k1():
    section = homology_section(DECK, 1, 1)
    assert section["boundary_neighborhood_ranks"] == [1, 2, 1, 0, 0]
    assert section["overlap_ranks"] == [1, 2, 2, 1, 0]


def test_tables_scale_with_k():
    u3, v3 = (homology_section(DECK, 2, 3)[key]
              for key in ("boundary_neighborhood_ranks", "overlap_ranks"))
    assert v3[1] == 6
    assert homology_section(DECK, 1, 2)["overlap_ranks"][3] == 2
    assert u3 == [3, 6, 3, 0, 0]


def test_tables_require_a_cusp():
    with pytest.raises(ValueError):
        homology_section(DECK, 1, 0)


def test_euler_characteristics_vanish():
    for k in range(1, 11):
        section = homology_section(DECK, k - 1, k)
        assert euler(section["boundary_neighborhood_ranks"]) == 0
        assert euler(section["overlap_ranks"]) == 0


def test_betti_vector_validation():
    # rho on both factors fixes no line, so b1 = 0 and chi = 0 would need
    # b2 = -2.
    both_rho = ((0, 1, -1, -1), (0, 1, -1, -1))
    with pytest.raises(ValueError):
        homology_section(both_rho, 0, 1)
    assert homology_section(both_rho, 2, 1)["compactification_betti"] == [1, 0, 0, 0, 1]


def test_betti_from_the_family_deck():
    # rho acts on Z[rho] with no invariant line, and the z-factor is only
    # translated: b1 = 0 + 2.
    for n in (1, 2, 4, 7, 9):
        deck = deck_automorphism(product_torus(n))
        assert deck.matrices == DECK
        betti = homology_section(deck.matrices, n, n + 1)["compactification_betti"]
        assert betti == [1, 2, n + 2, 2, 1]
        assert euler(betti) == n


def test_betti_from_deck_counts_invariant_lines():
    def betti(matrices, chi):
        return homology_section(matrices, chi, 1)["compactification_betti"]

    torus = product_torus(3)
    flip = TorusAutomorphism(torus, RHO, 0, -1, 0)
    assert flip.matrices[1] == (-1, 0, 0, -1)
    assert betti(flip.matrices, 3) == [1, 0, 1, 0, 1]
    identity = TorusAutomorphism(torus, 1, 0, 1, 0).matrices
    assert betti(identity, 0) == [1, 4, 6, 4, 1]
    # a shear fixes one line
    assert betti(((1, 1, 0, 1), (-1, 0, 0, -1)), 0)[1] == 1


def test_open_constraints():
    section = homology_section(DECK, 4, 5)
    assert section["compactification_betti"] == [1, 2, 6, 2, 1]
    constraints = section["open_manifold"]
    assert constraints["b1"] == 2
    assert constraints["b3_lower_bound"] == 4
    assert constraints["b2_minus_b3"] == 1 - 2 + 6
    assert json.loads(json.dumps(section)) == section


def test_open_constraints_vacuous_bound():
    section = homology_section(DECK, 1, 1)
    assert section["compactification_betti"] == [1, 2, 3, 2, 1]
    constraints = section["open_manifold"]
    assert constraints["b3_lower_bound"] == 0
    assert json.loads(json.dumps(constraints)) == constraints


def test_b2_b3_relation_independent_of_k():
    assert homology_section(DECK, 3, 1)["compactification_betti"] == [1, 2, 5, 2, 1]
    values = {homology_section(DECK, 3, k)["open_manifold"]["b2_minus_b3"]
              for k in range(1, 8)}
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
