"""Exact-arithmetic certification of two infinite families of bielliptic
ball-quotient compactifications.

The library recomputes, over the field Q(rho), every numerical claim
behind the constructions: intersection point sets on product tori, blow-up
invariants, log-Chern equality, exact hyperbolic volumes, cusp counts and
betti-number constraints.
"""

from .eisenstein import ONE, RHO, RHO2, ZERO, EisensteinNumber, eis
from .lattices import Lattice, TorusPoint, coset_grid
from .curves import (
    GraphCurve,
    Intersection,
    ProductPoint,
    ProductTorus,
    TorusAutomorphism,
    VerticalFiber,
    apply_auto_to_curve,
    automorphism_order,
    intersect_graph_fiber,
    intersect_graphs,
    is_free,
    orbit_of_curves,
    orbit_of_points,
)
from .surfaces import (
    BMYClass,
    CurveRecord,
    ExactVolume,
    LogPair,
    NefReport,
    SurfaceModel,
    blow_up,
    bmy_classify,
    cusp_count,
    etale_quotient,
    k_dot,
    log_chern,
    nef_numerical_check,
    volume_from_chi,
)
from .homology import (
    BettiVector,
    betti_of_open,
    blown_bielliptic_betti,
    fibration_sequence_report,
    free_rank_of_punctured_surface,
    mv_tables,
)
from .families import (
    GAMMA,
    LAMBDA,
    BdFInvalid,
    BdFType,
    BuildError,
    ConstructionReport,
    albanese_data,
    bdf_catalog,
    bdf_classify,
    build_family,
    covering_report,
)

__version__ = "0.1.0"
