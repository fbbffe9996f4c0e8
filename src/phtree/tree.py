"""Exact combinatorics and geometry of the m-branching directed tree.

A vertex is a finite digit sequence over ``{0, ..., m-1}`` (the empty
sequence is the root).  Each vertex ``x`` at level ``k`` owns the closed
interval ``[psi(x), psi(x) + m**-k]`` of the unit segment, where ``psi``
sends a digit sequence to the number it expands in base ``m``.  All
geometry here is exact: ``psi``, interval endpoints and distances are
``fractions.Fraction`` values, the rationals ``index / m**level``.

All types are immutable; all operations are pure.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .capacity import check_level_size
from .errors import ValidationError


def _is_integer(value) -> bool:
    """Any integer type except bool; a plain int skips the slow ABC check."""
    return type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _validate_branching(m: int) -> int:
    """Return m as a plain int; any integer type except bool is accepted."""
    if not _is_integer(m) or m < 2:
        raise ValidationError(f"branching factor m must be an integer >= 2, got {m!r}")
    return int(m)


def _validate_digits(m: int, digits) -> tuple[int, ...]:
    """The digits as a tuple of ints in ``range(m)``; any integer type except bool is accepted."""
    digits = tuple(digits)
    if {*map(type, digits)} - {int}:  # only other types need the slower checks
        if not all(map(_is_integer, digits)):
            raise ValidationError(f"digits must be integers, got {digits!r}")
        digits = tuple(map(int, digits))
    if digits and (min(digits) < 0 or max(digits) >= m):
        bad = next(d for d in digits if not 0 <= d < m)
        raise ValidationError(f"digit {bad} out of range for branching factor {m}")
    return digits


@dataclass(frozen=True)
class Vertex:
    """A tree vertex: branching factor plus its digit sequence from the root."""

    m: int
    digits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _validate_branching(self.m))
        object.__setattr__(self, "digits", _validate_digits(self.m, self.digits))

    @classmethod
    def _of(cls, m: int, digits: tuple[int, ...]) -> "Vertex":
        """An unchecked vertex: `m` is a plain int and the int `digits` lie in ``range(m)``."""
        v = object.__new__(cls)
        v.__dict__.update(m=m, digits=digits)
        return v

    @property
    def level(self) -> int:
        return len(self.digits)

    @property
    def index(self) -> int:
        """Lexicographic offset of this vertex within its level (base-m value)."""
        value = 0
        for d in self.digits:
            value = value * self.m + d
        return value

    def child(self, digit: int) -> "Vertex":
        return Vertex(self.m, self.digits + (digit,))

    def successors(self) -> tuple["Vertex", ...]:
        return tuple(Vertex._of(self.m, self.digits + (d,)) for d in range(self.m))

    def parent(self) -> "Vertex | None":
        if not self.digits:
            return None
        return Vertex._of(self.m, self.digits[:-1])

    def ancestor(self, level: int) -> "Vertex":
        if not 0 <= level <= self.level:
            raise ValidationError(
                f"no ancestor at level {level} for a level-{self.level} vertex"
            )
        return Vertex._of(self.m, self.digits[:level])

    def is_prefix_of(self, other: "Vertex") -> bool:
        """True when `other` lies in the subtree rooted at this vertex (or equals it)."""
        if self.m != other.m:
            raise ValidationError("vertices belong to trees with different branching")
        return other.digits[: self.level] == self.digits

    def label(self) -> str:
        """Digit-string form, e.g. ``"0.2.1"``; the root is the empty string."""
        return ".".join(str(d) for d in self.digits)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label() or "<root>"


def root(m: int) -> Vertex:
    return Vertex(m, ())


def vertex_from_index(m: int, level: int, index: int) -> Vertex:
    """Reconstruct the digit form from the compact (level, offset) encoding."""
    m = _validate_branching(m)
    if not (_is_integer(level) and _is_integer(index)) or level < 0 or not 0 <= index < m**level:
        raise ValidationError(f"index {index} out of range for level {level}")
    digits = [0] * level
    index = int(index)
    for pos in range(level - 1, -1, -1):
        index, digits[pos] = divmod(index, m)
    return Vertex._of(m, tuple(digits))


def _parse_digits(text: str) -> tuple[int, ...]:
    """The digits of a stripped label like ``"0.2.1"`` (empty string = root),
    unchecked against any branching factor."""
    if not text:
        return ()
    try:
        return tuple(map(int, text.split(".")))
    except ValueError as exc:
        raise ValidationError(f"malformed vertex label {text!r}") from exc


def parse_vertex(text: str, m: int) -> Vertex:
    """Parse a digit string like ``"0.2.1"`` (empty string = root)."""
    return Vertex(m, _parse_digits(text.strip()))


@dataclass(frozen=True)
class Interval:
    """The closed interval ``[left, left + width]`` owned by a vertex."""

    left: Fraction
    width: Fraction

    @property
    def right(self) -> Fraction:
        return self.left + self.width

    def contains_interval(self, other: "Interval") -> bool:
        return self.left <= other.left and other.right <= self.right

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.left}, {self.right}]"


def psi(v: Vertex) -> Fraction:
    """Base-m expansion of a vertex's digits: ``sum a_j * m**-j`` exactly."""
    return Fraction(v.index, v.m**v.level)


def interval_of(v: Vertex) -> Interval:
    return Interval(psi(v), Fraction(1, v.m**v.level))


def tree_distance(
    p: "Vertex | Sequence[int]", q: "Vertex | Sequence[int]", m: int | None = None
) -> Fraction:
    """Metric on digit sequences (finite vertices or truncated branches).

    If the sequences first differ at 1-based position K the distance is
    ``m**-(K-1)``; if one is a strict prefix of the other with common
    length K it is ``m**-K``; equal sequences are at distance 0.
    """
    if m is None:
        m = next((seq.m for seq in (p, q) if isinstance(seq, Vertex)), None)
    if m is None:
        raise ValidationError("branching factor m required for raw digit sequences")
    _validate_branching(m)
    a, b = (_validate_digits(m, s.digits if isinstance(s, Vertex) else s) for s in (p, q))
    common = min(len(a), len(b))
    for i in range(common):
        if a[i] != b[i]:
            return Fraction(1, m**i)
    if len(a) == len(b):
        return Fraction(0)
    return Fraction(1, m**common)


def enumerate_level(m: int, k: int) -> Iterator[Vertex]:
    """Yield the ``m**k`` level-k vertices in lexicographic digit order.

    The j-th vertex yielded satisfies ``psi = j / m**k``.
    """
    _validate_branching(m)
    if k < 0:
        raise ValidationError(f"level must be >= 0, got {k}")
    check_level_size(m, k)
    for digits in itertools.product(range(m), repeat=k):
        yield Vertex(m, digits)
