"""Exact (semi)stability of pairs of vectors in rational torus representations.

Decisions run on exact rational arithmetic: weight-polytope containment by
LP feasibility, destabilizing one-parameter subgroups from Farkas
certificates, relative-invariant monomials from convex combinations.  The
energy module is the single floating-point consumer of the weighted data.
"""

from .lattice import (
    LatticePoint,
    OnePS,
    clear_denominators,
    dot,
    is_admissible,
)
from .polytope import (
    Containment,
    ContainmentContext,
    NO_CONTEXT,
    PointSet,
    certificate_normals,
    containment,
    contains_point,
    convex_combination,
    hull_contains,
    interior_contains,
    min_functional,
    minkowski_sum,
    scale,
    separating_functional,
)
from .pairs import (
    Pair,
    StabilityProblem,
    StableVerdict,
    Verdict,
    WeightedVector,
    check_relative_invariant,
    cross_polytope,
    degree_of,
    futaki_gen,
    perturb,
    relative_invariant,
    stable,
    t_semistable,
)
from .limits import extension_criterion, find_degeneration, limit_support
from .futaki import (
    StabilizerSubtorus,
    affine_span_test,
    futaki_classical,
    stabilizer_subtorus,
)
from .energy import asymptotic_slope, energy_along, energy_at, infimum_estimate
from .binary_forms import (
    BinaryForm,
    FormPairVerdict,
    mobius_act,
    semistable_bf,
    torus_oracle_bf,
)
from .varieties import (
    DegreeReport,
    VarietyDatum,
    degrees,
    plane_curve_mu,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "Containment",
    "ContainmentContext",
    "DegreeReport",
    "FormPairVerdict",
    "LatticePoint",
    "NO_CONTEXT",
    "OnePS",
    "Pair",
    "PointSet",
    "StabilityProblem",
    "StabilizerSubtorus",
    "StableVerdict",
    "VarietyDatum",
    "Verdict",
    "WeightedVector",
    "affine_span_test",
    "asymptotic_slope",
    "certificate_normals",
    "check_relative_invariant",
    "clear_denominators",
    "containment",
    "contains_point",
    "convex_combination",
    "cross_polytope",
    "degree_of",
    "degrees",
    "dot",
    "energy_along",
    "energy_at",
    "extension_criterion",
    "find_degeneration",
    "futaki_classical",
    "futaki_gen",
    "hull_contains",
    "infimum_estimate",
    "interior_contains",
    "is_admissible",
    "limit_support",
    "min_functional",
    "minkowski_sum",
    "mobius_act",
    "perturb",
    "plane_curve_mu",
    "relative_invariant",
    "scale",
    "semistable_bf",
    "separating_functional",
    "stabilizer_subtorus",
    "stable",
    "t_semistable",
    "torus_oracle_bf",
]
