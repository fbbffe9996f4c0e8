"""Bottom-up construction of the approximating fields u_n.

``build_un`` seeds level n with the boundary samples and sweeps the
averaging operator upward a level (and a block of rows) at a time, so
every interior value is exactly the operator applied to its m children.
Every boundary spec carries its exact Lipschitz constant L, and the field
is within ``L / m**n`` (``error_bound``) of the limit solution everywhere;
``solve_to_tolerance`` returns a field within its tolerance or refuses.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .boundary import BoundarySpec, sample_Fn
from .capacity import blocks, check_level_size, decimal, exceeded, max_level, size_cap
from .dpp import GameParams, operator_average
from .errors import CapacityError, ContractViolationError, ValidationError
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
    return LevelField(params=params, n=n, levels=tuple(levels))


def error_bound(spec: BoundarySpec, params: GameParams, n: int) -> float:
    """Certified sup-distance ``L / m**n`` between u_n and the limit solution."""
    return spec.lipschitz_bound / params.m**n


@dataclass(frozen=True)
class SolveResult:
    field: LevelField
    n_used: int
    certified_bound: float


#: deepest level `solve_to_tolerance` builds, whatever the size cap allows
MAX_SOLVE_DEPTH = 24


def solve_to_tolerance(spec: BoundarySpec, params: GameParams, tol: float) -> SolveResult:
    """Build the shallowest field meeting `tol`: the least n with
    ``L / m**n <= tol``.  Where no level under the size cap and
    `MAX_SOLVE_DEPTH` meets it, raise CapacityError before building any."""
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tolerance must be positive and finite, got {tol}")
    m = params.m
    deepest = min(MAX_SOLVE_DEPTH, max_level(m))
    n = 1
    while error_bound(spec, params, n) > tol and n < deepest:
        n += 1
    bound = error_bound(spec, params, n)
    if bound > tol:
        check_level_size(m, n)  # a cap below m refuses level 1 itself
        unmet = f"tolerance {tol} is below the bound {bound} of level {n}"
        if n == MAX_SOLVE_DEPTH:
            raise CapacityError(f"{unmet}, the deepest level solve builds (MAX_SOLVE_DEPTH)")
        raise exceeded(f"{unmet}, and level {n + 1} has {decimal(m ** (n + 1))} vertices", size_cap())
    return SolveResult(field=build_un(spec, params, n), n_used=n, certified_bound=bound)


def compare_fields(field_f: LevelField, field_g: LevelField) -> bool:
    """True iff field_f <= field_g at every stored vertex."""
    if field_f.params != field_g.params or field_f.n != field_g.n:
        raise ContractViolationError("fields must share params and depth to compare")
    return all(
        bool(np.all(a <= b)) for a, b in zip(field_f.levels, field_g.levels)
    )


# -- serialization ------------------------------------------------------

CSV_HEADER = ["level", "index", "psi_left", "value"]


def field_to_csv(field: LevelField, write: Callable[[bytes], object]) -> None:
    """Pass the field to `write` as ASCII CSV rows ``level,index,psi_left,value``.

    The index is ``"%d"`` and the floats ``"%.17g" % v``, so no field needs
    CSV quoting.  ``_format.write_rows`` renders each level a block of
    ``capacity.BLOCK`` rows at a time, the floats with its exact integer
    kernel or the ``%`` operator outside its range, and passes each block
    to `write` as soon as it is formatted.
    """
    from . import _format  # only float-level reports need its tables
    write(",".join(CSV_HEADER).encode() + b"\n")
    for k, arr in enumerate(field.levels):
        _format.write_rows(write, [f"{k},", range(arr.size), ",", _PsiLeft(arr.size), ",", arr, "\n"])


class _PsiLeft:
    """The float column ``index / count`` of a level's `count` rows (m**k at
    level k), built one block at a time as ``_format.write_rows`` slices it."""

    def __init__(self, count: int):
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.arange(rows.start, rows.stop, dtype=float) / self.count


def field_from_csv(source, params: GameParams) -> LevelField:
    """Reload a field written by :func:`field_to_csv`.

    Rows may come in any order, and where a (level, index) pair repeats the
    last row wins, and every value a level keeps must be finite.  The rows
    are parsed into three flat columns, and a level is filled from them only
    once it has at least m**k rows, so no file makes this allocate a level
    that it cannot fill.
    """
    text = source if isinstance(source, str) else source.read()
    # the lines as io.StringIO(text) yields them, without its 4-byte-a-character copy
    reader = csv.reader(map(re.Match.group, _LINE.finditer(text)))
    if next((row for row in reader if row), None) != CSV_HEADER:
        raise ValidationError(f"expected CSV header {','.join(CSV_HEADER)}")
    columns = array("q"), array("q"), array("d")
    put_level, put_index, put_value = (column.append for column in columns)
    for row in filter(None, reader):
        try:
            k, j, value = int(row[0]), int(row[1]), float(row[3])
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"malformed CSV row {row!r}") from exc
        # past int64, a level lies above or below every level a file can
        # fill, and an index outside every level
        try:
            put_level(k)
        except OverflowError:
            put_level(_INT64_MAX if k > 0 else -1)
        try:
            put_index(j)
        except OverflowError:
            put_index(-1)
        put_value(value)
    # last row first, so that np.unique's first occurrence is the last row
    row_level, row_index, row_value = (np.frombuffer(c, dtype=c.typecode)[::-1] for c in columns)
    if not row_level.size or row_level.min() < 0:
        raise ValidationError("CSV must hold the field rows of levels 0..n")
    n = int(row_level.max())
    order = np.argsort(row_level, kind="stable")
    levels = []
    for k in range(n + 1):
        start, stop = np.searchsorted(row_level, [k, k + 1], sorter=order)
        rows, size = order[start:stop], params.m**k
        indices, first = np.unique(row_index[rows], return_index=True) if rows.size >= size else (rows, rows)
        if indices.size != size or indices[0] != 0 or indices[-1] != size - 1:
            raise ValidationError(f"level {k} must hold the indices 0..{size - 1}")
        values = row_value[rows[first]]
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            j = bad[0]
            raise ValidationError(f"level {k} index {j} holds {values[j]}; field values must be finite")
        levels.append(values)
    return LevelField(params=params, n=n, levels=tuple(levels))


_LINE = re.compile(r"[^\n]*\n|[^\n]+")
_INT64_MAX = 2**63 - 1


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
