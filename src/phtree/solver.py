"""Bottom-up construction of the approximating fields u_n.

``build_un`` seeds level n with the boundary samples and sweeps the
averaging operator upward a level (and a block of rows) at a time, so
every interior value is exactly the operator applied to its m children.
For Lipschitz boundary data (constant L) the field is within ``L / m**n``
of the limit solution everywhere, which is what ``error_bound`` certifies
and ``solve_to_tolerance`` inverts; without a Lipschitz bound an
empirical Cauchy criterion on consecutive fields is used instead.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundarySpec, SampledBoundary, modulus_bound, sample_Fn
from .capacity import blocks, max_level
from .dpp import GameParams, operator_average
from .errors import ContractViolationError, UnsupportedError, ValidationError
from .tree import Vertex


@dataclass(frozen=True)
class LevelField:
    """Per-level value arrays of u_n up to depth n.

    ``levels[k]`` holds the m**k level-k values in lexicographic order;
    ``levels[n]`` is exactly the boundary sample array.  Below level n the
    field is constant on each subtree, so evaluation at a deeper vertex
    returns its depth-n ancestor's value.
    """

    params: GameParams
    n: int
    levels: tuple[np.ndarray, ...]
    boundary: SampledBoundary

    def __post_init__(self) -> None:
        if len(self.levels) != self.n + 1:
            raise ContractViolationError(
                f"expected {self.n + 1} level arrays, got {len(self.levels)}"
            )
        for k, arr in enumerate(self.levels):
            if arr.shape != (self.params.m**k,):
                raise ContractViolationError(
                    f"level {k} array has shape {arr.shape}, expected ({self.params.m**k},)"
                )

    @property
    def root_value(self) -> float:
        return float(self.levels[0][0])

    def value(self, v: Vertex) -> float:
        if v.m != self.params.m:
            raise ContractViolationError(
                f"vertex branching {v.m} differs from field branching {self.params.m}"
            )
        if v.level <= self.n:
            return float(self.levels[v.level][v.index])
        return float(self.levels[self.n][v.ancestor(self.n).index])

    def __call__(self, v: Vertex) -> float:
        return self.value(v)


def build_un(spec: BoundarySpec, params: GameParams, n: int) -> LevelField:
    """Build u_n for the given boundary data by one bottom-up sweep."""
    if n < 1:
        raise ValidationError(f"depth n must be >= 1, got {n}")
    m = params.m
    sampled = sample_Fn(spec, m, n)
    levels = [sampled.values]
    # an overflow is reported by the finiteness check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, -1, -1):
            rows, level = levels[-1].reshape(m**k, m), np.empty(m**k)
            for block in blocks(m**k):
                level[block] = operator_average(params, rows[block])
            levels.append(level)
    levels.reverse()
    # a non-finite value anywhere in the sweep propagates to the root
    if not math.isfinite(levels[0][0]):
        raise ValidationError(
            f"field is not finite (root value {levels[0][0]}): the boundary data is "
            f"non-finite or the sweep overflowed"
        )
    return LevelField(params=params, n=n, levels=tuple(levels), boundary=sampled)


def evaluate(field: LevelField, v: Vertex) -> float:
    return field.value(v)


def error_bound(spec: BoundarySpec, params: GameParams, n: int) -> float:
    """Certified sup-distance ``L / m**n`` between u_n and the limit solution."""
    if spec.lipschitz_bound is None:
        raise UnsupportedError(
            "boundary data carries no Lipschitz bound; use modulus_bound or "
            "solve_to_tolerance's empirical stopping instead"
        )
    return spec.lipschitz_bound / params.m**n


@dataclass(frozen=True)
class SolveResult:
    field: LevelField
    n_used: int
    certified: bool
    certified_bound: float | None
    empirical_gap: float | None


#: deepest level `solve_to_tolerance` builds, whatever the size cap allows
MAX_SOLVE_DEPTH = 24


def solve_to_tolerance(spec: BoundarySpec, params: GameParams, tol: float) -> SolveResult:
    """Find the shallowest field meeting `tol`.

    With Lipschitz metadata this is the least n with ``L / m**n <= tol``
    (certified).  Otherwise n is increased until consecutive fields agree
    to ``tol/2`` on the coarser field's deepest level, which is reported
    as an uncertified empirical bound.  Hitting the size cap or
    `MAX_SOLVE_DEPTH` first yields a partial, not-certified result.
    """
    if not tol > 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    m = params.m
    deepest = min(MAX_SOLVE_DEPTH, max_level(m))
    if spec.lipschitz_bound is not None:
        n = 1
        while spec.lipschitz_bound / m**n > tol and n < deepest:
            n += 1
        field = build_un(spec, params, n)
        bound = spec.lipschitz_bound / m**n
        return SolveResult(
            field=field,
            n_used=n,
            certified=bound <= tol,
            certified_bound=bound,
            empirical_gap=None,
        )
    current = build_un(spec, params, 1)
    gap = math.inf
    while current.n < deepest:
        finer = build_un(spec, params, current.n + 1)
        coarse_level = current.levels[current.n]
        same_level = finer.levels[current.n]
        gap = float(np.abs(coarse_level - same_level).max())
        current = finer
        if gap <= tol / 2.0:
            return SolveResult(
                field=current,
                n_used=current.n,
                certified=False,
                certified_bound=None,
                empirical_gap=gap,
            )
    return SolveResult(
        field=current,
        n_used=current.n,
        certified=False,
        certified_bound=None,
        empirical_gap=None if math.isinf(gap) else gap,
    )


def compare_fields(field_f: LevelField, field_g: LevelField) -> bool:
    """True iff field_f <= field_g at every stored vertex."""
    pf, pg = field_f.params, field_g.params
    if (pf.m, pf.alpha, pf.beta) != (pg.m, pg.alpha, pg.beta) or field_f.n != field_g.n:
        raise ContractViolationError("fields must share params and depth to compare")
    return all(
        bool(np.all(a <= b)) for a, b in zip(field_f.levels, field_g.levels)
    )


# -- serialization ------------------------------------------------------

CSV_HEADER = ["level", "index", "psi_left", "value"]


def field_to_csv(field: LevelField) -> bytearray:
    """Render the field as ASCII CSV rows ``level,index,psi_left,value``.

    Floats are ``"%.17g" % v``, so no field needs CSV quoting, and the
    index is ``"%d"``.  ``_format.write_rows`` renders each level a block of
    ``capacity.BLOCK`` rows at a time with its exact integer kernel, and
    falls back to the ``%`` operator for values outside its range.
    """
    from . import _format  # only float-level reports need its tables
    text = bytearray(",".join(CSV_HEADER).encode() + b"\n")
    m = field.params.m
    for k, arr in enumerate(field.levels):
        # "%.17g" prints a whole float below 1e15 as "%d" does; a level of
        # 1e15 vertices would take 8 PB
        index = np.arange(arr.size, dtype=float)
        _format.write_rows(text, [f"{k},", index, ",", index / float(m**k), ",", arr, "\n"])
    return text


def field_from_csv(source, params: GameParams) -> LevelField:
    """Reload a field written by :func:`field_to_csv`."""
    text = source if isinstance(source, str) else source.read()
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or rows[0] != CSV_HEADER:
        raise ValidationError(f"expected CSV header {','.join(CSV_HEADER)}")
    by_level: dict[int, dict[int, float]] = {}
    for row in rows[1:]:
        try:
            k, j, value = int(row[0]), int(row[1]), float(row[3])
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"malformed CSV row {row!r}") from exc
        by_level.setdefault(k, {})[j] = value
    if not by_level or min(by_level) < 0:
        raise ValidationError("CSV must hold the field rows of levels 0..n")
    n = max(by_level)
    m = params.m
    levels = []
    for k in range(n + 1):
        entries = by_level.get(k, {})
        if entries.keys() != set(range(m**k)):
            raise ValidationError(f"level {k} must hold the indices 0..{m**k - 1}")
        levels.append(np.array([entries[j] for j in range(m**k)], dtype=float))
    boundary = SampledBoundary(m=m, n=n, values=levels[-1], spec=None)
    return LevelField(params=params, n=n, levels=tuple(levels), boundary=boundary)


def field_to_json_obj(field: LevelField) -> dict:
    return {
        "params": {
            "m": field.params.m,
            "alpha": field.params.alpha,
            "beta": field.params.beta,
        },
        "n": field.n,
        "levels": [arr.astype(float, copy=False) for arr in field.levels],
    }
