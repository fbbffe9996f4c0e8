"""The local averaging operator behind the game p-Laplacian on the tree.

The operator sends the m successor values of a vertex to

    (alpha/2) * (max + min) + (beta/m) * sum,

a convex combination, so constants are fixed and the result always lies
between the smallest and largest input (the discrete maximum principle).
A function whose value at every vertex equals the operator applied to its
successor values is called harmonious here; one-sided inequalities give
the sub/super variants.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, MissingValueError, ValidationError
from .tree import Vertex, _validate_branching, vertex_from_index

#: residual classifications, also used for whole-field reports
HARMONIOUS = "harmonious"
SUBHARMONIOUS = "subharmonious"
SUPERHARMONIOUS = "superharmonious"
NEITHER = "neither"

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class GameParams:
    """Branching factor and coin weights, with the derived contraction weights.

    beta is ``1.0 - alpha``; a beta passed in must lie within 1e-12 of it
    and is then discarded.  theta = alpha/2 + (m-1)*beta/m is the largest
    weight the operator can put on the maximal successor value; delta = 1 -
    theta = alpha/2 + beta/m is the complementary weight, in [1/m, 1/2].

    The endpoints alpha=1 (pure tug-of-war) and alpha=0 (pure averaging)
    are accepted.  m may not exceed the largest float, since the weights
    are float arithmetic on it.
    """

    m: int
    alpha: float
    beta: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _validate_branching(self.m))
        if self.m > sys.float_info.max:
            raise ValidationError(
                f"branching factor m must be at most the largest float, "
                f"{sys.float_info.max:.17g}; got about 10**{math.log10(self.m):.0f}"
            )
        beta = 1.0 - self.alpha if self.beta is None else self.beta
        for name, value in (("alpha", self.alpha), ("beta", beta)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        if abs(self.alpha + beta - 1.0) > 1e-12:
            raise ValidationError(f"alpha + beta must equal 1, got {self.alpha} + {beta}")
        object.__setattr__(self, "beta", 1.0 - self.alpha)

    @property
    def theta(self) -> float:
        return self.alpha / 2.0 + (self.m - 1) * self.beta / self.m

    @property
    def delta(self) -> float:
        return self.alpha / 2.0 + self.beta / self.m


def dpp_average(params: GameParams, succ_values: Sequence[float]) -> float:
    """Apply the averaging operator to exactly m successor values.

    This is the validated scalar form, summed with ``math.fsum``;
    :func:`operator_average` is the array form the sweeps use.
    """
    values = [float(v) for v in succ_values]
    if len(values) != params.m:
        raise ContractViolationError(
            f"expected {params.m} successor values, got {len(values)}"
        )
    for v in values:
        if not math.isfinite(v):
            raise ContractViolationError(f"successor values must be finite, got {v}")
    return (params.alpha / 2.0) * (max(values) + min(values)) + (
        params.beta / params.m
    ) * math.fsum(values)


def operator_average(params: GameParams, values: np.ndarray) -> np.ndarray:
    """Apply the averaging operator over the last axis of an ``(..., m)`` array.

    numpy reduces a short last axis slowly, so for m < 8 column ufuncs take
    the max, min and sum.  numpy sums fewer than 8 terms left to right from
    +0.0, as the columns do, so the bits match; from 8 terms on it sums
    pairwise, so m >= 8 keeps the axis reductions, out of place: in place,
    a NaN sum can come out with its sign bit set.
    """
    if values.shape[-1] >= 8:
        return (params.alpha / 2.0) * (values.max(axis=-1) + values.min(axis=-1)) + (
            params.beta / params.m
        ) * values.sum(axis=-1)
    hi = values[..., 0].astype(float)
    lo, total = hi.copy(), hi + 0.0  # a row of -0.0 sums to +0.0
    for column in np.moveaxis(values, -1, 0)[1:]:
        np.maximum(hi, column, out=hi)
        np.minimum(lo, column, out=lo)
        total += column
    hi += lo
    hi *= params.alpha / 2.0
    total *= params.beta / params.m
    hi += total
    return hi


def residual_at(
    field: Callable[[Vertex], float], v: Vertex, params: GameParams
) -> float:
    """Residual of `field` at vertex `v`: average over S(v) minus field(v).

    The field must be defined at `v` and at all of its successors; an
    oracle may signal a hole by raising or returning None/NaN.
    """

    def probe(vertex: Vertex) -> float:
        try:
            value = field(vertex)
        except MissingValueError:
            raise
        except (KeyError, IndexError) as exc:
            raise MissingValueError(vertex) from exc
        if value is None or (isinstance(value, float) and math.isnan(value)):
            raise MissingValueError(vertex)
        return float(value)

    centre = probe(v)
    succ = [probe(y) for y in v.successors()]
    return dpp_average(params, succ) - centre


def _label(lo: float, hi: float) -> str:
    """Label residuals spanning ``[lo, hi]``, each within ``DEFAULT_TOL`` of
    zero counted as 0: all nonnegative is subharmonious, all nonpositive
    superharmonious, both harmonious."""
    if lo >= -DEFAULT_TOL:
        return HARMONIOUS if hi <= DEFAULT_TOL else SUBHARMONIOUS
    return SUPERHARMONIOUS if hi <= DEFAULT_TOL else NEITHER


def classify(field: Callable[[Vertex], float], v: Vertex, params: GameParams) -> str:
    """Classify `field` at a single vertex from the sign of its residual.

    A nonnegative residual (value <= operator average) is the
    subharmonious side; nonpositive is the superharmonious side; within
    ``DEFAULT_TOL`` of zero is harmonious.
    """
    r = residual_at(field, v, params)
    return _label(r, r)


@dataclass(frozen=True)
class FieldCheckReport:
    max_abs_residual: float
    worst_vertex: Vertex
    classification: str
    vertices_checked: int


def check_field(field) -> FieldCheckReport:
    """Scan all interior vertices of a level field and report the worst residual.

    `field` is a solver LevelField (or anything exposing ``params``, ``n``
    and per-level value arrays ``levels``); the operator is that of
    ``field.params``.  Residuals within ``DEFAULT_TOL`` of zero count as 0.
    """
    params = field.params
    m = params.m
    worst = 0.0
    worst_level = 0
    worst_index = 0
    checked = 0
    min_resid = 0.0
    max_resid = 0.0
    for k in range(field.n):
        children = np.asarray(field.levels[k + 1], dtype=float).reshape(-1, m)
        residuals = operator_average(params, children) - np.asarray(field.levels[k], dtype=float)
        checked += residuals.size
        min_resid = min(min_resid, float(residuals.min()))
        max_resid = max(max_resid, float(residuals.max()))
        j = int(np.abs(residuals).argmax())
        if abs(residuals[j]) > worst:
            worst = float(abs(residuals[j]))
            worst_level, worst_index = k, j
    return FieldCheckReport(
        max_abs_residual=worst,
        worst_vertex=vertex_from_index(m, worst_level, worst_index),
        classification=_label(min_resid, max_resid),
        vertices_checked=checked,
    )
