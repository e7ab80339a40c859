"""Exact-arithmetic certification of two infinite families of bielliptic
ball-quotient compactifications.

The library recomputes, over the field Q(rho), every numerical claim
behind the constructions: intersection point sets on product tori, blow-up
invariants, log-Chern equality, exact hyperbolic volumes, cusp counts and
betti-number constraints.
"""

from .eisenstein import ONE, RHO, RHO2, ZERO, EisensteinNumber, eis
from .lattices import Lattice, coset_grid
from .curves import (
    GraphCurve,
    Intersection,
    ProductTorus,
    TorusAutomorphism,
    VerticalFiber,
    apply_auto_to_curve,
    automorphism_order,
    intersect_graph_fiber,
    intersect_graphs,
    is_free,
    orbit_of_points,
)
from .surfaces import (
    BMYClass,
    CurveRecord,
    LogPair,
    SurfaceModel,
    blow_up,
    certify_pair,
    etale_quotient,
    volume_from_chi,
)
from .homology import (
    fibration_sequence_report,
    free_rank_of_punctured_surface,
    homology_section,
)
from .families import (
    GAMMA,
    LAMBDA,
    BdFInvalid,
    BdFType,
    albanese_data,
    bdf_classify,
    build_family,
)

__version__ = "0.1.0"
