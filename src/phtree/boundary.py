"""Boundary data F on the unit interval and its per-level discretisation.

Builtin families (identity, centred square, constants) are evaluated
exactly; tabulated data is completed to a continuous function by
piecewise-linear interpolation between samples.  Every spec works out its
own exact Lipschitz constant: 1 for the identity and the centred square,
0 for a constant and the maximal sample slope for tabulated data, so the
solver's bound ``L / m**n`` is always certified.  ``sample_Fn`` produces
the flat array of left-endpoint samples ``F(j / m**n)`` that seeds the
solver.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .capacity import blocks, check_level_size
from .errors import DomainError, ValidationError

KIND_LINEAR = "builtin-linear"
KIND_QUADRATIC = "builtin-quadratic-centered"
KIND_CONSTANT = "builtin-constant"
KIND_TABULATED = "tabulated"


@dataclass(frozen=True)
class BoundarySpec:
    """Description of boundary data F: [0, 1] -> R.

    ``lipschitz_bound`` is F's exact Lipschitz constant, worked out from
    the kind and the samples; a constant that is not finite is refused.
    """

    kind: str
    value: float = 0.0
    ts: tuple[float, ...] | None = None
    vs: tuple[float, ...] | None = None
    lipschitz_bound: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LINEAR, KIND_QUADRATIC, KIND_CONSTANT, KIND_TABULATED):
            raise ValidationError(f"unknown boundary kind {self.kind!r}")
        if self.kind == KIND_TABULATED:
            if not self.ts or not self.vs or len(self.ts) != len(self.vs):
                raise ValidationError("tabulated boundary needs matching t/value samples")
            if len(self.ts) < 2:
                raise ValidationError("tabulated boundary needs at least two samples")
            ts = self.ts
            if ts[0] != 0.0 or ts[-1] != 1.0:
                raise ValidationError("tabulated samples must include t=0 and t=1")
            for a, b in zip(ts, ts[1:]):
                if not a < b:
                    raise ValidationError("tabulated t values must be strictly increasing")
        if not math.isfinite(self.value):
            raise ValidationError(f"boundary value must be finite, got {self.value}")
        if self.vs is not None and not all(math.isfinite(v) for v in self.vs):
            raise ValidationError("tabulated boundary values must be finite")
        if self.kind == KIND_TABULATED:
            bound = _max_slope(self.ts, self.vs)
        else:
            bound = 0.0 if self.kind == KIND_CONSTANT else 1.0
        if not math.isfinite(bound):
            raise ValidationError(f"the Lipschitz constant of the samples is not finite: {bound}")
        object.__setattr__(self, "lipschitz_bound", bound)

    # -- constructors -------------------------------------------------

    @classmethod
    def linear(cls) -> "BoundarySpec":
        """F(t) = t."""
        return cls(kind=KIND_LINEAR)

    @classmethod
    def quadratic_centered(cls) -> "BoundarySpec":
        """F(t) = (t - 1/2)**2."""
        return cls(kind=KIND_QUADRATIC)

    @classmethod
    def constant(cls, c: float) -> "BoundarySpec":
        return cls(kind=KIND_CONSTANT, value=float(c))

    @classmethod
    def tabulated(cls, ts, vs) -> "BoundarySpec":
        """Piecewise-linear completion of (t, value) samples."""
        return cls(
            kind=KIND_TABULATED, ts=tuple(float(t) for t in ts), vs=tuple(float(v) for v in vs)
        )

    @classmethod
    def from_csv(cls, source) -> "BoundarySpec":
        """Load tabulated samples from CSV with header ``t,value``."""
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source.read()
        reader = csv.reader(io.StringIO(text))
        rows = [row for row in reader if row]
        if not rows or [h.strip() for h in rows[0]] != ["t", "value"]:
            raise ValidationError('tabulated CSV must start with header "t,value"')
        ts, vs = [], []
        for row in rows[1:]:
            if len(row) != 2:
                raise ValidationError(f"malformed CSV row {row!r}")
            try:
                ts.append(float(row[0]))
                vs.append(float(row[1]))
            except ValueError as exc:
                raise ValidationError(f"non-numeric CSV row {row!r}") from exc
        return cls.tabulated(ts, vs)

    @classmethod
    def parse(cls, text: str) -> "BoundarySpec":
        """Parse a CLI boundary descriptor.

        Accepts "linear", "quadratic-centered", "constant:<c>", or a path
        to a CSV file of samples.
        """
        text = text.strip()
        if text == "linear":
            return cls.linear()
        if text == "quadratic-centered":
            return cls.quadratic_centered()
        if text.startswith("constant:"):
            try:
                return cls.constant(float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ValidationError(f"malformed constant boundary {text!r}") from exc
        path = Path(text)
        if path.exists():
            return cls.from_csv(path)
        raise ValidationError(
            f"unknown boundary {text!r}: expected linear, quadratic-centered, "
            f"constant:<c>, or a CSV file path"
        )


def _max_slope(ts, vs) -> float:
    """The maximal sample slope, the interpolant's exact Lipschitz constant."""
    return max(abs(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:]))


def eval_F(spec: BoundarySpec, t):
    """Evaluate F at a scalar or array of points in [0, 1]."""
    arr = np.asarray(t, dtype=float)
    # written so that NaN fails the check too
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError(f"boundary data is defined on [0, 1]; got {t}")
    if spec.kind == KIND_LINEAR:
        out = arr
    elif spec.kind == KIND_QUADRATIC:
        out = (arr - 0.5) ** 2
    elif spec.kind == KIND_CONSTANT:
        out = np.full_like(arr, spec.value)
    else:
        out = np.interp(arr, spec.ts, spec.vs)
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SampledBoundary:
    """Left-endpoint samples ``values[j] = F(j / m**n)`` for one level."""

    m: int
    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.m**self.n,):
            raise ValidationError(
                f"expected {self.m**self.n} samples at level {self.n}, got {values.shape}"
            )


def sample_Fn(spec: BoundarySpec, m: int, n: int) -> SampledBoundary:
    """Sample F at the level-n left endpoints ``j / m**n``."""
    if n < 0:
        raise ValidationError(f"level must be >= 0, got {n}")
    count = check_level_size(m, n)
    values = np.empty(count)
    # a block of t at a time: each sample is the same element-wise arithmetic
    for block in blocks(count):
        values[block] = eval_F(spec, np.arange(block.start, block.stop, dtype=float) / float(m**n))
    return SampledBoundary(m=m, n=n, values=values)


def modulus_bound(spec: BoundarySpec, scale: float) -> float:
    """Upper bound for ``sup |F(x) - F(y)|`` over ``|x - y| <= scale``."""
    if scale <= 0:
        raise ValidationError(f"scale must be positive, got {scale}")
    return spec.lipschitz_bound * scale
