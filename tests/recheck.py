"""Re-check the printed values of `ballq verify` reports.

A report's checks compare the values it prints, but a fault in how those
values are assembled can still print numbers that contradict each other.
This module re-derives, from the printed values alone, the relations among
them that the argument for each family rests on (the certifying-algorithms
pattern of McConnell, Mehlhorn, Näher and Schweitzer, Computer Science
Review 5, 2011).  It imports only json and fractions, so it shares no code
with the program it audits.  Run it on JSON reports read from stdin:

    ballq verify --family gamma --n 1..50 | python tests/recheck.py

It prints one line per broken relation and exits with status 1 if there is
any.  A report whose build raised prints its stage, and is re-checked on
the values it carries.
"""

import json
from fractions import Fraction


def _euler(betti):
    return sum((-1) ** i * b for i, b in enumerate(betti))


# math.pi ** 2, written out so that this module imports no math.
PI_SQUARED = 9.869604401089358


def _close(value, exact):
    """Whether value agrees with exact to a relative 1e-12."""
    return abs(value - exact) <= 1e-12 * abs(exact)


def _fraction(text):
    """The rational number a printed value names, or None if it names none."""
    try:
        return Fraction(text)
    except ValueError:
        return None


# {name: relation(values, n)}: whether the printed values of the report of
# level n keep the relation.  A relation raises KeyError when the report
# lacks one of its inputs.
RELATIONS = {
    # Adjunction on a disjoint elliptic boundary: K.D_i = -D_i^2.
    "c1bar^2 = K^2 - sum D_i^2": lambda values, n:
        values["log_c1_squared"]
        == values["k2"] - sum(entry["self_intersection"] for entry in values["boundary"]),
    # The boundary curves are elliptic, so e(D) = 0.
    "c2bar = chi": lambda values, n: values["log_c2"] == values["chi"],
    "3 c2bar = c1bar^2": lambda values, n: 3 * values["log_c2"] == values["log_c1_squared"],
    "volume = (8/3) c2bar": lambda values, n:
        Fraction(values["volume"]["pi_squared_coefficient"]) == Fraction(8, 3) * values["log_c2"],
    "volume decimal = coefficient x pi^2": lambda values, n:
        _close(values["volume"]["approx_display_only"],
               float(Fraction(values["volume"]["pi_squared_coefficient"])) * PI_SQUARED),
    "cusps = boundary components": lambda values, n: values["cusps"] == len(values["boundary"]),
    # The log pair's boundary is smooth elliptic, which the first two
    # relations and the certificate's one pass over it rely on.
    "every boundary kind is smooth-elliptic": lambda values, n:
        all(entry["kind"] == "smooth-elliptic" for entry in values["boundary"]),
    "nef self-intersection = c1bar^2": lambda values, n:
        values["nef"]["log_canonical_self_int"] == values["log_c1_squared"],
    "nef pairings are keyed by the boundary names": lambda values, n:
        sorted(values["nef"]["boundary_pairings"])
        == sorted(entry["name"] for entry in values["boundary"]),
    "Euler number of the Betti vector = chi": lambda values, n:
        _euler(values["homology"]["compactification_betti"]) == values["chi"],
    "b1(M) = b1(X)": lambda values, n:
        values["homology"]["open_manifold"]["b1"]
        == values["homology"]["compactification_betti"][1],
    "b3(M) lower bound = cusps - 1": lambda values, n:
        values["homology"]["open_manifold"]["b3_lower_bound"] == values["cusps"] - 1,
    "b2(M) - b3(M) = 1 - b3(X) + b2(X)": lambda values, n:
        values["homology"]["open_manifold"]["b2_minus_b3"]
        == 1 - values["homology"]["compactification_betti"][3]
        + values["homology"]["compactification_betti"][2],
    "generic fiber punctures = sum of its boundary rows": lambda values, n:
        values["fiber"]["generic_fiber_punctures"]
        == sum(values["fiber"]["generic_fiber_boundary_rows"].values()),
    "points_per_pair = 3 x triple_points_downstairs": lambda values, n:
        values["intersection"]["points_per_pair"]
        == 3 * values["intersection"]["triple_points_downstairs"],
    "n Albanese base points": lambda values, n: len(values["albanese"]["base_points"]) == n,
    "albanese.n = n": lambda values, n: values["albanese"]["n"] == n,
    # The special Albanese fibers sit over 2/3 + j.  The target lattice
    # Z[n, shift] meets the real line in nZ, so they are distinct modulo it.
    "Albanese base points are 2/3 + j": lambda values, n:
        [_fraction(point) for point in values["albanese"]["base_points"]]
        == [Fraction(2, 3) + j for j in range(n)],
    "albanese.target_lattice.gen1 = n": lambda values, n:
        values["albanese"]["target_lattice"]["gen1"] == str(n),
    # The target lattice is the level lattice with the shift adjoined, so
    # the quotient of the two is cyclic, generated by the shift.
    "shift order = index of the level lattice": lambda values, n:
        values["albanese"]["shift_order"] == values["albanese"]["index"],
    "level lattice contained = index > 0": lambda values, n:
        values["albanese"]["contains_level_lattice"] == (values["albanese"]["index"] > 0),
    # The shift (1 - rho)/3, which has order three modulo the level lattice.
    "albanese.target_lattice.gen2 = (1 - rho)/3": lambda values, n:
        values["albanese"]["target_lattice"]["gen2"] == "1/3-1/3ρ",
    # Z[n, 1 - rho] lies in Z[m, 1 - rho] exactly when m | n, with index n/m.
    "tower base levels are the divisors of n": lambda values, n:
        [entry["base_level"] for entry in values["tower"]["covers_levels"]]
        == [m for m in range(1, n + 1) if n % m == 0],
    "tower degree x base level = n": lambda values, n:
        all(entry["degree"] * entry["base_level"] == n
            for entry in values["tower"]["covers_levels"]),
    # n - 1 divides n only for n = 1, 2.
    "consecutive cover exists = n <= 2": lambda values, n:
        values["tower"]["consecutive_cover_exists"] == (n <= 2),
}


def broken_relations(report):
    """Names of the audited relations that a report's values break.  A
    report whose build raised breaks one named after the stage, and only
    the relations whose inputs it carries are checked; in a report that
    built, a missing input breaks one named after it."""
    raised = "error" in report
    broken = [f"build raised in stage {report['error']['stage']}"] if raised else []
    for name, holds in RELATIONS.items():
        try:
            if not holds(report["values"], report["n"]):
                broken.append(name)
        except KeyError as missing:
            if not raised and f"missing value {missing}" not in broken:
                broken.append(f"missing value {missing}")
    return broken


if __name__ == "__main__":
    broken = 0
    for line in open(0, encoding="utf-8"):
        report = json.loads(line)
        for name in broken_relations(report):
            broken += 1
            print(f"{report['family']} n={report['n']}: {name}")
    raise SystemExit(1 if broken else 0)
