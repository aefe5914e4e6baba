"""Exact recognition of slack matrices of polyhedral cones and polytopes.

Everything runs in exact rational arithmetic: recognition with
machine-checkable yes/no certificates, reconstruction of realizing cones
and polytopes, polar realizations, incidence tools, and polyhedral
verification through the slack-matrix reduction.
"""

from .matrix import (
    Matrix,
    left_kernel_basis,
    rank,
    rank_factorization,
    rref,
    solve_linear,
)
from .lp import Constraint, LpOutcome, lp_solve
from .polyhedra import (
    ConeRep,
    PolytopeRep,
    canonical_ray,
    dd_h_to_v,
    dd_v_to_h,
    dimension,
    homogenize,
    lineality_and_pointedness,
    minimal_vrep,
    polar,
    slack_of_cone,
    slack_of_polytope,
)
from .recognition import (
    NoCertificate,
    RecognitionResult,
    YesCertificate,
    affine_criterion_check,
    ccgc_check,
    cone_check_via_polytope,
    is_cone_slack,
    is_polytope_slack,
    polar_realization,
    rcgc_check,
    reconstruct_cone,
    reconstruct_polytope,
    verify_no_certificate,
    verify_yes_certificate,
)
from .combinatorial import incidence_matrix, polygon_slack_check
from .verification import (
    VerificationResult,
    containment_check,
    verify_polytope_equality,
)

__version__ = "0.1.0"

__all__ = [
    "Matrix",
    "Constraint",
    "LpOutcome",
    "ConeRep",
    "PolytopeRep",
    "RecognitionResult",
    "YesCertificate",
    "NoCertificate",
    "VerificationResult",
    "rref",
    "rank",
    "left_kernel_basis",
    "solve_linear",
    "rank_factorization",
    "lp_solve",
    "canonical_ray",
    "dd_h_to_v",
    "dd_v_to_h",
    "minimal_vrep",
    "lineality_and_pointedness",
    "homogenize",
    "slack_of_cone",
    "slack_of_polytope",
    "dimension",
    "polar",
    "ccgc_check",
    "rcgc_check",
    "is_cone_slack",
    "is_polytope_slack",
    "affine_criterion_check",
    "verify_no_certificate",
    "verify_yes_certificate",
    "reconstruct_cone",
    "reconstruct_polytope",
    "cone_check_via_polytope",
    "polar_realization",
    "incidence_matrix",
    "polygon_slack_check",
    "containment_check",
    "verify_polytope_equality",
]
