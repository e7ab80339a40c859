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
any.
"""

import json
from fractions import Fraction


def broken_relations(report):
    """Names of the audited relations that a report's values break; a
    report whose build raised, or that lacks a value, breaks one named
    after what is missing."""
    if "error" in report:
        return [f"build raised in stage {report['error']['stage']}"]
    values = report["values"]
    try:
        betti = values["homology"]["compactification_betti"]
        opened = values["homology"]["open_manifold"]
        c1, c2, chi, cusps = (values["log_c1_squared"], values["log_c2"], values["chi"],
                              values["cusps"])
        relations = {
            # Adjunction on a disjoint elliptic boundary: K.D_i = -D_i^2.
            "c1bar^2 = K^2 - sum D_i^2":
                c1 == values["k2"] - sum(entry["self_intersection"]
                                         for entry in values["boundary"]),
            # The boundary curves are elliptic, so e(D) = 0.
            "c2bar = chi": c2 == chi,
            "3 c2bar = c1bar^2": 3 * c2 == c1,
            "volume = (8/3) c2bar":
                Fraction(values["volume"]["pi_squared_coefficient"]) == Fraction(8, 3) * c2,
            "cusps = boundary components": cusps == len(values["boundary"]),
            "nef self-intersection = c1bar^2": values["nef"]["log_canonical_self_int"] == c1,
            "Euler number of the Betti vector = chi":
                sum((-1) ** i * b for i, b in enumerate(betti)) == chi,
            "b1(M) = b1(X)": opened["b1"] == betti[1],
            "b3(M) lower bound = cusps - 1": opened["b3_lower_bound"] == cusps - 1,
            "b2(M) - b3(M) = 1 - b3(X) + b2(X)": opened["b2_minus_b3"] == 1 - betti[3] + betti[2],
            "points_per_pair = 3 x triple_points_downstairs":
                values["intersection"]["points_per_pair"]
                == 3 * values["intersection"]["triple_points_downstairs"],
            "n Albanese base points": len(values["albanese"]["base_points"]) == report["n"],
        }
    except KeyError as missing:
        return [f"missing value {missing}"]
    return [name for name, holds in relations.items() if not holds]


if __name__ == "__main__":
    broken = 0
    for line in open(0, encoding="utf-8"):
        report = json.loads(line)
        for name in broken_relations(report):
            broken += 1
            print(f"{report['family']} n={report['n']}: {name}")
    raise SystemExit(1 if broken else 0)
