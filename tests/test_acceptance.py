"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from sympy import Matrix, Rational, ZZ
from sympy.matrices.normalforms import invariant_factors

from ballq.curves import GraphCurve, POINTS, apply_auto_to_curve, automorphism_order, \
    intersect_graphs, is_free
from ballq.eisenstein import ONE, RHO, eis
from ballq.families import (
    BDF_CATALOG,
    BdFInvalid,
    bdf_classify,
    build_family,
    deck_automorphism,
    level_curves,
    product_torus,
    slope_curves,
)
from ballq.homology import homology_section
from ballq.lattices import coset_grid
from ballq.surfaces import CurveRecord, SMOOTH_ELLIPTIC, SMOOTH_RATIONAL, SINGULAR, \
    SurfaceModel, blow_up

from conftest import (brute_force_intersection, closed_form_keys, pair_norm, pair_of,
                      random_eisenstein, random_lattice, random_sublattice)

N_MAX = 50

_reports: dict[str, dict[int, object]] = {"gamma": {}, "lambda": {}}
_build_seconds: dict[str, float] = {}


def reports(family):
    cache = _reports[family]
    if not cache:
        start = time.perf_counter()
        for n in range(1, N_MAX + 1):
            cache[n] = build_family(family, n)
        _build_seconds[family] = time.perf_counter() - start
    return cache


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {label}")
        raise
    print(f"[PASS] criterion {label}")


def test_criterion_1_gamma_family_certification():
    with criterion("1: gamma family certification, n = 1..50"):
        built = reports("gamma")
        for n in range(1, N_MAX + 1):
            report = built[n]
            assert report["passed"], (n, [c["name"] for c in report["checks"] if not c["passed"]])
            values = report["values"]
            assert values["chi"] == n
            assert values["k2"] == -n
            boundary = {b["name"]: b["self_intersection"] for b in values["boundary"]}
            assert boundary.pop("slope_orbit") == -3 * n
            assert set(boundary.values()) == ({-1} if n else set())
            assert len(boundary) == n
            assert values["log_c1_squared"] == 3 * n
            assert values["log_c2"] == n
            assert values["bmy"] == "Equality"
            assert values["cusps"] == n + 1
            assert Fraction(values["volume"]["pi_squared_coefficient"]) == Fraction(8 * n, 3)
        assert _build_seconds["gamma"] < 10.0, _build_seconds["gamma"]


def test_criterion_2_lambda_family_certification():
    with criterion("2: two-cusped family certification, n = 1..50"):
        built = reports("lambda")
        gamma_built = reports("gamma")
        for n in range(1, N_MAX + 1):
            report = built[n]
            assert report["passed"], (n, [c["name"] for c in report["checks"] if not c["passed"]])
            values = report["values"]
            assert values["cusps"] == 2
            boundary = {b["name"]: b["self_intersection"] for b in values["boundary"]}
            assert boundary == {"slope_orbit": -3 * n, "level_orbit": -n}
            assert values["bmy"] == "Equality"
            assert values["volume"] == gamma_built[n]["values"]["volume"]
        assert _build_seconds["lambda"] < 10.0, _build_seconds["lambda"]


def test_criterion_3_intersection_formula():
    with criterion("3: intersection formula and solver-oracle agreement"):
        for n in range(1, 11):
            torus = product_torus(n)
            curves = slope_curves(torus)
            expected = closed_form_keys(torus, n)
            assert len(expected) == 3 * n
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    result = intersect_graphs(curves[i], curves[j])
                    assert result.count == 3 * n
                    assert result.keys() == expected

        rng = random.Random(60601)
        slope_pool = (ONE, RHO, RHO * RHO, ONE - RHO, eis(2))
        for _ in range(100):
            torus = product_torus(rng.randint(1, 5))
            s1, s2 = rng.choice(slope_pool), rng.choice(slope_pool)
            offsets = [
                eis(Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                for _ in range(2)
            ]
            c1 = GraphCurve(torus, s1, offsets[0])
            c2 = GraphCurve(torus, s2, offsets[1])
            got = intersect_graphs(c1, c2)
            expected = brute_force_intersection(c1, c2, s1, s2)
            if isinstance(expected, str):
                assert got.kind == expected
            else:
                assert got.kind == POINTS
                assert got.keys() == frozenset(expected)


def test_criterion_4_orbit_identities():
    with criterion("4: deck-orbit identities, order and freeness, n = 1..10"):
        for n in range(1, 11):
            torus = product_torus(n)
            deck = deck_automorphism(torus)
            slopes = slope_curves(torus)
            levels = level_curves(torus)
            for i in range(3):
                assert apply_auto_to_curve(deck, slopes[i]) == slopes[(i + 1) % 3]
                assert apply_auto_to_curve(deck, levels[i]) == levels[(i + 1) % 3]
            assert automorphism_order(deck) == 3
            assert is_free(deck)


def test_criterion_5_boundary_disjointness():
    with criterion("5: boundary disjointness and negativity, n = 1..50"):
        for family in ("gamma", "lambda"):
            for n, report in reports(family).items():
                names = [c["name"] for c in report["checks"]]
                for required in ("boundary_pairwise_disjoint",
                                 "boundary_self_intersections_negative"):
                    check = report["checks"][names.index(required)]
                    assert check["passed"], (family, n, required)
                assert all(b["self_intersection"] < 0
                           for b in report["values"]["boundary"])


def euler(ranks):
    return sum((-1) ** i * rank for i, rank in enumerate(ranks))


def test_criterion_6_mayer_vietoris():
    with criterion("6: cover tables, open betti constraints, Euler sums"):
        deck = deck_automorphism(product_torus(1)).matrices
        for k in range(1, 11):
            section = homology_section(deck, k, k)
            u, v = section["boundary_neighborhood_ranks"], section["overlap_ranks"]
            assert u == [k, 2 * k, k, 0, 0]
            assert v == [k, 2 * k, 2 * k, k, 0]
            assert euler(u) == 0 and euler(v) == 0
        for n in range(1, N_MAX + 1):
            section = homology_section(deck, n, n + 1)
            assert section["compactification_betti"] == [1, 2, n + 2, 2, 1]
            constraints = section["open_manifold"]
            assert constraints["b1"] == 2
            assert constraints["b3_lower_bound"] == n
            doc = reports("gamma")[n]["values"]["homology"]
            assert doc["compactification_betti"] == [1, 2, n + 2, 2, 1]
            assert doc["open_manifold"]["b1"] == 2
            assert doc["open_manifold"]["b3_lower_bound"] == n


def test_criterion_7_bagnera_de_franchis():
    with criterion("7: catalog shape, type-5 identification, invalid probes"):
        catalog = BDF_CATALOG
        assert len(catalog) == 7
        assert [e.group_order for e in catalog] == [2, 4, 4, 8, 3, 9, 6]
        assert [e.lambda_constraint for e in catalog] == [
            "any", "any", "i", "i", "rho", "rho", "rho-with-zeta"]
        for family in ("gamma", "lambda"):
            for n, report in reports(family).items():
                assert report["values"]["bdf_type"] == 5, (family, n)
        probes = (
            (bdf_classify(4, "rho"), "lambda-constraint"),
            (bdf_classify(5, "-1"), "lambda-constraint"),
            (bdf_classify(6, "-1", translation_order=3), "group-structure"),
        )
        for result, constraint in probes:
            assert isinstance(result, BdFInvalid)
            assert result.constraint == constraint


def real_matrix(lattice):
    """The generators' (re, rho) parts as the columns of a sympy matrix."""
    parts = [pair_of(lattice.gen1), pair_of(lattice.gen2)]
    return Matrix([[Rational(p[k].numerator, p[k].denominator) for p in parts] for k in (0, 1)])


def test_criterion_8_property_suites():
    with criterion("8: randomized property suites (exact, seeded)"):
        start = time.perf_counter()
        rng = random.Random(424242)

        for _ in range(1000):
            x = random_eisenstein(rng)
            y = random_eisenstein(rng)
            z = random_eisenstein(rng)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x
            if x:
                assert x * (ONE / x) == ONE
            assert pair_norm(pair_of(x * y)) == pair_norm(pair_of(x)) * pair_norm(pair_of(y))

        for _ in range(1000):
            sup = random_lattice(rng)
            sub = random_sublattice(rng, sup)
            d1, d2, axis = coset_grid(*sub.multiplier_matrix(ONE, sup))
            b1, b2 = (sup.gen2, sup.gen1) if axis else (sup.gen1, sup.gen2)
            # Independent oracle: sympy solves for sub's coordinates in
            # sup's basis, and the product of its invariant factors is the
            # index, up to sign.
            coordinates = real_matrix(sup).inv() * real_matrix(sub)
            assert all(entry.is_integer for entry in coordinates)
            f1, f2 = invariant_factors(coordinates, domain=ZZ)
            assert d1 * d2 == abs(f1 * f2)
            keys = {sub.key(k1 * b1 + k2 * b2) for k1 in range(d1) for k2 in range(d2)}
            assert len(keys) == d1 * d2

        for _ in range(200):
            l1 = random_lattice(rng)
            l2 = random_sublattice(rng, l1)
            l3 = random_sublattice(rng, l2)
            assert l3.index_in(l1) == l3.index_in(l2) * l2.index_in(l1)

        for _ in range(200):
            count = rng.randint(1, 4)
            names = [f"c{i}" for i in range(count)]
            curves = {name: CurveRecord(rng.randint(-5, 5), rng.choice(
                (SMOOTH_ELLIPTIC, SMOOTH_RATIONAL))) for name in names}
            mults = {name: rng.randint(0, 3) for name in names}
            pairwise = {(a, b): rng.randint(0, 4)
                        for i, a in enumerate(names) for b in names[i + 1:]}
            model = SurfaceModel(rng.randint(-3, 3), rng.randint(-3, 3),
                                 curves, pairwise, {"p": mults})
            blown = blow_up(model, {"p": "exc"})
            assert blown.chi_top == model.chi_top + 1
            assert blown.k2 == model.k2 - 1
            for name in names:
                delta = mults[name] ** 2
                assert blown.curves[name].self_int == curves[name].self_int - delta
                assert model.kind(name) == (SINGULAR if mults[name] >= 2
                                            else curves[name].kind)
                assert blown.kind(name) == curves[name].kind

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, elapsed


def test_criterion_9_cli_determinism():
    with criterion("9: byte-identical parallel verification output"):
        command = [sys.executable, "-m", "ballq", "verify", "--family", "gamma",
                   "--n", "1..20", "--jobs", "8", "--format", "json"]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.count(b"\n") == 20
        docs = [json.loads(line) for line in first.stdout.splitlines()]
        assert [doc["n"] for doc in docs] == list(range(1, 21))
        assert all(doc["passed"] for doc in docs)
