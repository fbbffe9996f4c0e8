"""Averaging-operator fields on m-branching directed trees.

A library and CLI for the convex averaging operator
``(alpha/2)(max + min) + (beta/m) * sum`` over vertex successors:
bottom-up construction and certification of its boundary-value fields,
Monte Carlo tug-of-war cross-checks, unique-continuation analysis of
vertex subsets, and the closed-form minimal dimension of convergence
sets.
"""

from .analysis import (
    DimensionResult,
    MinimizationResult,
    dimension_large_m_limit,
    fatou_dimension,
    kl_minimization_oracle,
)
from .boundary import BoundarySpec, SampledBoundary, eval_F, modulus_bound, sample_Fn
from .dpp import (
    GameParams,
    check_field,
    classify,
    dpp_average,
    residual_at,
)
from .errors import (
    CapacityError,
    ContractViolationError,
    DomainError,
    InsufficientDepthError,
    MissingValueError,
    PHTreeError,
    StructuralCheckError,
    ValidationError,
)
from .game import (
    FixedDigitStrategy,
    GreedyMaxStrategy,
    GreedyMinStrategy,
    McEstimate,
    Strategy,
    UniformRandomStrategy,
    estimate_value,
    simulate_batch,
    truncation_error,
)
from .solver import (
    LevelField,
    SolveResult,
    build_un,
    compare_fields,
    error_bound,
    solve_to_tolerance,
)
from .tree import (
    Interval,
    Vertex,
    enumerate_level,
    interval_of,
    parse_vertex,
    psi,
    root,
    tree_distance,
    vertex_from_index,
)
from .ucp import (
    CounterexampleField,
    CriterionVerdict,
    DensityResult,
    PaResult,
    RhoPattern,
    SubsetSpec,
    UcpReport,
    analyze,
    build_counterexample,
    compute_rho,
    criterion_verdict,
    density_check,
    pa_check,
    unboundedness_probe,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec",
    "CapacityError",
    "ContractViolationError",
    "CounterexampleField",
    "CriterionVerdict",
    "DensityResult",
    "DimensionResult",
    "DomainError",
    "FixedDigitStrategy",
    "GameParams",
    "GreedyMaxStrategy",
    "GreedyMinStrategy",
    "InsufficientDepthError",
    "Interval",
    "LevelField",
    "McEstimate",
    "MinimizationResult",
    "MissingValueError",
    "PHTreeError",
    "PaResult",
    "RhoPattern",
    "SampledBoundary",
    "SolveResult",
    "Strategy",
    "StructuralCheckError",
    "SubsetSpec",
    "UcpReport",
    "UniformRandomStrategy",
    "ValidationError",
    "Vertex",
    "analyze",
    "build_counterexample",
    "build_un",
    "check_field",
    "classify",
    "compare_fields",
    "compute_rho",
    "criterion_verdict",
    "density_check",
    "dimension_large_m_limit",
    "dpp_average",
    "enumerate_level",
    "error_bound",
    "estimate_value",
    "eval_F",
    "fatou_dimension",
    "interval_of",
    "kl_minimization_oracle",
    "modulus_bound",
    "pa_check",
    "parse_vertex",
    "psi",
    "residual_at",
    "root",
    "sample_Fn",
    "simulate_batch",
    "solve_to_tolerance",
    "tree_distance",
    "truncation_error",
    "unboundedness_probe",
    "vertex_from_index",
]
