"""Arrangements of elliptic curves on a product torus, assembled from the
library's primitives with no `build_family`: exact intersections, a
surface model, a quotient, blow-ups of the multiple points, and the
certificate of the log pair.

Hirzebruch's example (F. Hirzebruch, Math. Ann. 266, 1984): on E x E with
E = C/Z[rho], the graphs of w = 0, w = z and w = -rho*z and the fiber
z = 0 meet pairwise once, all at the origin.  Blowing the origin up leaves
four disjoint elliptic curves of self-intersection -1, and the pair has
(c1bar^2, c2bar) = (3, 1): a ball quotient with four cusps."""

from fractions import Fraction

import pytest

from ballq.curves import GraphCurve, VerticalFiber, intersect_graph_fiber, intersect_graphs
from ballq.eisenstein import eis
from ballq.families import product_torus
from ballq.surfaces import (BMYClass, CurveRecord, LogPair, SMOOTH_ELLIPTIC, SurfaceModel,
                            blow_up, certify_pair, etale_quotient)


def hirzebruch_pair(with_fiber=True, blow=blow_up):
    """The log pair of the arrangement, built with blow as the blow-up."""
    torus = product_torus(1)
    graphs = {name: GraphCurve(torus, slope, 0)
              for name, slope in (("w=0", 0), ("w=z", 1), ("w=-rho*z", eis(0, -1)))}
    fibers = {"z=0": VerticalFiber(torus, 0)} if with_fiber else {}
    pairwise, rows = {}, {}

    def meet(a, b, intersection):
        pairwise[a, b] = intersection.count
        for key in intersection.point_keys:
            rows.setdefault(key, {}).update({a: 1, b: 1})

    names = list(graphs)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            meet(a, b, intersect_graphs(graphs[a], graphs[b]))
        for f, fiber in fibers.items():
            meet(a, f, intersect_graph_fiber(graphs[a], fiber))
    curves = {name: CurveRecord(0, SMOOTH_ELLIPTIC) for name in [*graphs, *fibers]}
    assert set(pairwise.values()) == {1} and len(rows) == 1
    model = SurfaceModel(0, 0, curves, pairwise, rows)
    quotient = etale_quotient(model, 1, {name: (name,) for name in curves},
                              {"origin": tuple(rows)})
    blown = blow(quotient, {"origin": "exc"})
    return LogPair(blown, tuple(curves))


def test_hirzebruch_example_is_a_ball_quotient_with_four_cusps():
    certificate = certify_pair(hirzebruch_pair())
    assert (certificate["log_c1_squared"], certificate["log_c2"]) == (3, 1)
    assert certificate["bmy"] == BMYClass.EQUALITY.value
    assert certificate["nef"]["passed"]
    assert certificate["cusps"] == 4
    assert Fraction(certificate["volume"]["pi_squared_coefficient"]) == Fraction(8, 3)


def test_hirzebruch_example_without_the_fiber_is_strict():
    certificate = certify_pair(hirzebruch_pair(with_fiber=False))
    assert (certificate["log_c1_squared"], certificate["log_c2"]) == (2, 1)
    assert certificate["bmy"] == BMYClass.STRICT_INEQUALITY.value
    assert certificate["cusps"] == 3


def test_a_blow_up_that_drops_the_m2_term_does_not_certify():
    def blow_up_without_m2(model, exceptional):
        blown = blow_up(model, exceptional)
        curves = {name: CurveRecord(record.self_int
                                    + sum(model.point_multiplicity(point, name) ** 2
                                          for point in exceptional), record.kind)
                  if name in model.curves else record
                  for name, record in blown.curves.items()}
        return SurfaceModel(blown.chi_top, blown.k2, curves, blown.pairwise, blown.points)

    with pytest.raises(ValueError, match="nonnegative self-intersection"):
        hirzebruch_pair(blow=blow_up_without_m2)
