"""arclab: exact computation with arcs of V_k(F_q).

Builds the certification matrix of an arc, certifies upper bounds on the
largest arc containing it, detects the weight-two property, recovers the
co-secant hyperplanes any extension must have, and constructs the dual
hypersurface - all over exact finite-field arithmetic, with brute-force
oracles at desk scale.
"""

from .gf import FieldCtx, conway_polynomial
from .arcgeom import ArcConfig, complete_search, det_full, validate_arc
from .exactmat import GFMatrix, left_null_basis
from .tangentfns import AlphaTable, arc_degree, tangent_fn
from .certifier import (
    bound_scan,
    build_Mn,
    conjecture_scan,
    corollary2_route,
    property_w,
    recover_cosecants,
    theorem1_test,
)
from .hypersurf import build_surface, eval_dual, theorem9_check

__version__ = "0.1.0"
