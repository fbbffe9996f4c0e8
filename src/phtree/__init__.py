"""Averaging-operator fields on m-branching directed trees.

A library and CLI for the convex averaging operator
``(alpha/2)(max + min) + (beta/m) * sum`` over vertex successors:
bottom-up construction and certification of its boundary-value fields,
Monte Carlo tug-of-war cross-checks, unique-continuation analysis of
vertex subsets, and the closed-form minimal dimension of convergence
sets.

The package imports lazily (PEP 562): a public name, or a submodule such
as ``phtree.ucp``, is imported on first use, so ``import phtree`` loads
neither numpy nor scipy, and scipy loads with the first ``analysis`` name.
"""

import sys

__version__ = "0.1.0"

#: the public names, by the module that defines them
_EXPORTS = {
    "analysis": (
        "DimensionResult MinimizationResult dimension_large_m_limit fatou_dimension"
        " kl_minimization_oracle"
    ),
    "boundary": "BoundarySpec SampledBoundary eval_F modulus_bound sample_Fn",
    "dpp": "GameParams check_field classify dpp_average residual_at",
    "errors": (
        "CapacityError ContractViolationError DomainError InsufficientDepthError"
        " MissingValueError PHTreeError StructuralCheckError ValidationError"
    ),
    "game": (
        "FixedDigitStrategy GreedyMaxStrategy GreedyMinStrategy McEstimate Strategy"
        " UniformRandomStrategy estimate_value simulate_batch truncation_error"
    ),
    "solver": "LevelField SolveResult build_un compare_fields error_bound solve_to_tolerance",
    "tree": (
        "Interval Vertex enumerate_level interval_of parse_vertex psi root tree_distance"
        " vertex_from_index"
    ),
    "ucp": (
        "CounterexampleField CriterionVerdict DensityResult PaResult RhoPattern SubsetSpec"
        " UcpReport analyze build_counterexample compute_rho criterion_verdict"
        " density_check pa_check unboundedness_probe"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset({*_EXPORTS, "capacity"})

__all__ = sorted(_HOME)


def _submodule(name: str):
    # the import statement's own path, which ``-X importtime`` reports and
    # ``importlib.import_module`` bypasses
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
