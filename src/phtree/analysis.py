"""Closed-form minimal Hausdorff dimension of convergence sets, with a
numerical minimization oracle.

Over all bounded harmonious functions on the m-branching tree, the
smallest Hausdorff dimension of the set of branches where the function
converges (equivalently, has finite variation) is

    log(gamma**-e1 + (m-1) * gamma**e2) / log(m),

with gamma = (m*alpha + 2(m-1)*beta) / ((m-1)(m*alpha + 2*beta)),
e1 = (m*alpha + 2(m-1)*beta) / (2m) and e2 = (m*alpha + 2*beta) / (2m).
The quantity inside the log is the minimum of ``sum exp(x_j)`` over
vectors whose operator average is zero, which `kl_minimization_oracle`
recomputes numerically as an independent cross-check: once within the
one-high/(m-1)-equal ansatz, and once by unconstrained search over the
zero-average projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .dpp import GameParams, operator_average
from .errors import ValidationError


@dataclass(frozen=True)
class DimensionResult:
    m: int
    alpha: float
    beta: float
    gamma: float
    exponent_neg: float
    exponent_pos: float
    objective: float
    dimension: float


def fatou_dimension(params: GameParams) -> DimensionResult:
    """Evaluate the closed form for the minimal dimension.

    Pure averaging (alpha = 0) gives gamma = 1 and dimension 1 exactly.  A
    branching factor so large that the float closed form under- or
    overflows is refused, not reported as inf or NaN.
    """
    m, a, b = params.m, params.alpha, params.beta
    e_neg = (m * a + 2.0 * (m - 1) * b) / (2.0 * m)
    e_pos = (m * a + 2.0 * b) / (2.0 * m)
    gamma = (m * a + 2.0 * (m - 1) * b) / ((m - 1) * (m * a + 2.0 * b))
    # gamma is 0.0 where its denominator overflows, and NaN where both do
    objective = gamma**-e_neg + (m - 1) * gamma**e_pos if gamma > 0.0 else math.nan
    dimension = math.log(objective) / math.log(m)
    if not math.isfinite(dimension):
        raise ValidationError(
            f"the closed form is not finite in float arithmetic at m = about "
            f"10**{math.log10(m):.0f} (gamma {gamma})"
        )
    return DimensionResult(
        m=m,
        alpha=a,
        beta=b,
        gamma=gamma,
        exponent_neg=e_neg,
        exponent_pos=e_pos,
        objective=objective,
        dimension=dimension,
    )


def dimension_large_m_limit(beta: float) -> float:
    """Limit of the minimal dimension as the branching grows, at fixed beta."""
    if not 0.0 <= beta <= 1.0:
        raise ValidationError(f"beta must lie in [0, 1], got {beta}")
    return (1.0 + beta) / 2.0


@dataclass(frozen=True)
class MinimizationResult:
    min_value: float
    argmin: np.ndarray
    ansatz_value: float
    search_value: float
    converged: bool


def _project(params: GameParams, x: np.ndarray) -> np.ndarray:
    # shifting all coordinates by -c shifts the operator average by exactly -c
    return x - float(operator_average(params, x))


def kl_minimization_oracle(
    params: GameParams, restarts: int = 6, seed: int = 0
) -> MinimizationResult:
    """Numerically minimize ``sum exp(x_j)`` subject to a zero operator average.

    Two independent routes: a 1-D convex problem inside the
    one-distinguished-coordinate ansatz, and unstructured local search
    (with the max/min recomputed at every iterate) from random starts.
    The best of the two is returned; their agreement is itself a test.
    """
    m = params.m
    if m > 64:
        raise ValidationError("oracle intended for small branching factors (m <= 64)")
    if params.alpha == 0.0:
        # zero-mean constraint plus convexity pins the minimum at the origin
        return MinimizationResult(
            min_value=float(m),
            argmin=np.zeros(m),
            ansatz_value=float(m),
            search_value=float(m),
            converged=True,
        )
    theta, delta = params.theta, params.delta

    def ansatz_objective(t: float) -> float:
        return math.exp(-(theta / delta) * t) + (m - 1) * math.exp(t)

    half_width = 3.0 * math.log(max(m, 3)) + 1.0
    bracket = optimize.minimize_scalar(
        ansatz_objective, bounds=(-half_width, half_width), method="bounded",
        options={"xatol": 1e-14},
    )
    t_star = float(bracket.x)
    ansatz_value = float(bracket.fun)
    ansatz_point = np.full(m, t_star)
    ansatz_point[0] = -(theta / delta) * t_star

    def objective(x: np.ndarray) -> float:
        return float(np.exp(_project(params, x)).sum())

    rng = np.random.default_rng(seed)
    best_value = math.inf
    best_point = np.zeros(m)
    starts = [ansatz_point] + [rng.standard_normal(m) for _ in range(restarts)]
    converged = False
    for x0 in starts:
        result = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-12, "fatol": 1e-14},
        )
        if result.fun < best_value:
            best_value = float(result.fun)
            best_point = _project(params, np.asarray(result.x, dtype=float))
            converged = bool(result.success)
    search_value = best_value
    if ansatz_value <= search_value:
        return MinimizationResult(
            min_value=ansatz_value,
            argmin=_project(params, ansatz_point),
            ansatz_value=ansatz_value,
            search_value=search_value,
            converged=True,
        )
    return MinimizationResult(
        min_value=search_value,
        argmin=best_point,
        ansatz_value=ansatz_value,
        search_value=search_value,
        converged=converged,
    )
