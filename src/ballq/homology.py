"""Betti-number bookkeeping for cusped ball quotients via a two-set cover.

Cover the compactification X by the open manifold M and a neighborhood U
of the k boundary elliptic curves.  U retracts onto k disjoint 2-tori and
the overlap V = U minus the boundary onto k closed Nil 3-manifolds, so all
ranks in the resulting long exact sequence are explicit in k.  Chasing it
gives b1(M) = b1(X) and linear constraints on b2, b3 of the open manifold.
"""

from __future__ import annotations


def homology_section(matrices: tuple[tuple[int, int, int, int], ...], chi: int,
                     cusps: int) -> dict[str, object]:
    """The report's homology fragment of a blown-up bielliptic surface
    X = (E_w x E_z)/G with Euler number chi and k = cusps boundary curves,
    for a free cyclic G whose generator acts on the two lattices by the
    integer matrices M = (p, q, r, t).

    H1(X; Q) is the G-invariant part of H1 of the torus, so b1 = b3 is the
    sum of dim ker(M - I) (blow-ups leave it alone), and chi pins
    b2 = chi - 2 + 2*b1.  U has ranks (k, 2k, k, 0, 0) and V, whose Nil
    pieces have b1 = b2 = 2, has (k, 2k, 2k, k, 0).  The open manifold M
    gets b1(M) = b1(X) exactly, b3(M) >= k - 1 and
    b2(M) - b3(M) = 1 - b3(X) + b2(X), with the derivation's lines."""
    k = cusps
    if k < 1:
        raise ValueError("at least one cusp is required")
    b1 = 0
    for p, q, r, t in matrices:
        if (p, q, r, t) == (1, 0, 0, 1):
            b1 += 2
        elif (p - 1) * (t - 1) == q * r:
            b1 += 1
    b2 = chi - 2 + 2 * b1
    if b2 < 0:
        raise ValueError("betti numbers are nonnegative")
    # The degree-1 segment of the sequence gives b1(M) + 2k = 2k - l + b1(X)
    # where l is the rank of the image of H2(X) -> H1(V); since the rank of
    # H1 can only grow when passing to the open manifold, l = 0.
    ell = 0
    return {
        "compactification_betti": [1, b1, b2, b1, 1],
        "boundary_neighborhood_ranks": [k, 2 * k, k, 0, 0],
        "overlap_ranks": [k, 2 * k, 2 * k, k, 0],
        "open_manifold": {
            "b1": b1 - ell,
            "b3_lower_bound": k - 1,
            "b2_minus_b3": 1 - b1 + b2,
            "derivation": [
                f"b1(M) + 2k = 2k - l + b1(X) with k = {k}",
                "b1(M) >= b1(X) forces l = 0, hence b1(M) = b1(X)",
                f"0 -> Q^(k-1) -> H3(M) gives b3(M) >= {k - 1}",
                "tail of the sequence gives b2(M) - b3(M) = 1 - b3(X) + b2(X)",
            ],
        },
    }


def free_rank_of_punctured_surface(genus: int, punctures: int) -> int:
    """Rank of the (free) fundamental group of a surface of the given genus
    with at least one puncture: 2*genus + punctures - 1."""
    if punctures < 1:
        raise ValueError("a closed surface group is not free")
    if genus < 0:
        raise ValueError("genus is nonnegative")
    return 2 * genus + punctures - 1


def fibration_sequence_report(report: dict) -> dict[str, object]:
    """Group-theoretic record derived from a passing build_family document
    of the (n+1)-cusped family, whose open manifold fibers over an elliptic
    curve with punctured-torus generic fiber: the fundamental group
    surjects onto Z^2 with finitely generated kernel, so the commutator
    subgroup (finite index in that kernel) is finitely generated.  Returns
    the record as a JSON fragment: the free ranks and the conclusions."""
    if report["family"] != "gamma":
        raise ValueError("the fibration record is derived from the (n+1)-cusped family")
    if not report["passed"]:
        raise ValueError("a passing construction report is required")
    fiber = report["values"]["fiber"]
    return {
        "base_rank": 2,
        "generic_fiber_free_rank": free_rank_of_punctured_surface(
            1, fiber["generic_fiber_punctures"]),
        "singular_fiber_free_rank": free_rank_of_punctured_surface(
            0, fiber["singular_fiber_punctures"]),
        "conclusions": [
            "pi1(generic fiber) -> pi1(M) -> Z^2 -> 1 is exact (no multiple fibers)",
            "the kernel of pi1(M) -> Z^2 is finitely generated",
            "the commutator subgroup has finite index in that kernel,"
            " so it is finitely generated",
            "the free rank of H1(M) is two",
        ],
    }
