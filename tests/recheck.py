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
    "points_per_pair = 3 x triple_points_downstairs": lambda values, n:
        values["intersection"]["points_per_pair"]
        == 3 * values["intersection"]["triple_points_downstairs"],
    "n Albanese base points": lambda values, n: len(values["albanese"]["base_points"]) == n,
    "albanese.n = n": lambda values, n: values["albanese"]["n"] == n,
    "level lattice contained = index > 0": lambda values, n:
        values["albanese"]["contains_level_lattice"] == (values["albanese"]["index"] > 0),
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
