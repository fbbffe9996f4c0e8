"""Unique-continuation analysis of vertex subsets U of the tree.

The central question is whether every bounded harmonious function that
vanishes on U must vanish everywhere.  Finite computation cannot settle
an infinite-sum criterion from raw membership data alone, so the analyzer
works with structured subset descriptions (digit rules, full levels, and
gap-generated sets) for which the needed level scans collapse onto a
small digit-automaton state space, and it reports a three-valued verdict:
certified, refuted, or inconclusive at the scanned depth.

The machinery:

* ``density_check`` -- does every interval at a given resolution contain
  an image point of U under the base-m expansion map?  Failure refutes
  unique continuation outright (a two-subtree +1/-1 dipole fits in the
  gap).
* ``pa_check`` -- uniform hitting: every vertex has a U descendant within
  n levels.  Success certifies unique continuation.
* ``compute_rho`` -- the gap ladder rho_k between successive U-hitting
  levels, with the uniqueness checks (P1)/(P2) along the way.
* ``criterion_verdict`` -- decides divergence of ``sum delta**rho_k``
  for pattern-described sequences.
* ``build_counterexample`` -- for convergent patterns, the explicit
  bounded harmonious function vanishing on the generated set, with
  per-stage maxima ``M_k = prod 1/(1 - delta**rho_i)``; its value at a
  vertex follows from the level and the vertex's state in the set's own
  automaton, so it vanishes on the set by construction.
* ``unboundedness_probe`` -- the same products as lower bounds forcing
  unboundedness in the divergent case.

Each subset compiles to a digit automaton (``initial()``, ``step(state,
digit)``, ``is_member(state)``, ``m`` and a ``fixpoint`` flag for finite
states).  Digit rules and explicit sets compile to one integer table.
``_first_member`` steps a {(state, below a member): vertex count} map a
level at a time and stops where a class with a nonzero count is a member,
at a repeated set of such states (on a ``fixpoint`` machine, proof that
no member lies deeper) or at its offset budget.  The ladder runs one map
per stage, count 1 on its eligible classes; the map it stops at gives the
(P1) count and is the next stage's.  ``_advance`` keeps a witness vertex
index per class for density, hitting and the counterexample's class walk.
Only these two loops step a level at a time; both cap the whole map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import accumulate, compress
from operator import truediv
from pathlib import Path
from typing import Callable, Iterable

from .capacity import decimal, exceeded, size_cap
from .dpp import GameParams, residual_at
from .errors import InsufficientDepthError, StructuralCheckError, ValidationError
from .tree import (
    Interval,
    Vertex,
    _is_integer,
    _parse_digits,
    _validate_branching,
    _validate_digits,
    interval_of,
    vertex_from_index,
)

#: membership decidable at every depth
UNBOUNDED_DEPTH = 10**9

ARITHMETIC = "arithmetic"
CYCLE = "cycle"
FINITE = "finite"
GEOMETRIC = "geometric"

VERDICT_UCP = "UCP-certified"
VERDICT_NO_UCP = "no-UCP-certified"


# ----------------------------------------------------------------------
# rho sequence descriptors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RhoPattern:
    """An explicit prefix of gap lengths plus a continuation rule.

    Continuations: ``finite`` (no terms beyond the prefix), ``cycle``
    (repeat the prefix forever), ``arithmetic`` (keep adding ``step``),
    ``geometric`` (keep multiplying by ``step``).
    """

    prefix: tuple[int, ...]
    continuation: str = FINITE
    step: int = 0

    def __post_init__(self) -> None:
        prefix = tuple(_integer(r, "rho term") for r in self.prefix)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "step", _integer(self.step, "rho step"))
        if not prefix:
            raise ValidationError("rho pattern needs at least one explicit term")
        if any(r < 1 for r in prefix):
            raise ValidationError("rho terms must be >= 1")
        if self.continuation not in (FINITE, CYCLE, ARITHMETIC, GEOMETRIC):
            raise ValidationError(f"unknown continuation {self.continuation!r}")
        if self.continuation == ARITHMETIC and self.step < 0:
            raise ValidationError("arithmetic step must be >= 0")
        if self.continuation == GEOMETRIC and self.step < 1:
            raise ValidationError("geometric ratio must be >= 1")

    @property
    def is_finite(self) -> bool:
        return self.continuation == FINITE

    def term(self, k: int) -> int:
        """The k-th gap length, 1-based."""
        if k < 1:
            raise ValidationError(f"stage index must be >= 1, got {k}")
        n = len(self.prefix)
        if k <= n:
            return self.prefix[k - 1]
        if self.continuation == FINITE:
            raise InsufficientDepthError(
                f"rho pattern has only {n} terms, stage {k} requested"
            )
        if self.continuation == CYCLE:
            return self.prefix[(k - 1) % n]
        j = k - n
        if self.continuation == ARITHMETIC:
            return self.prefix[-1] + self.step * j
        return self.prefix[-1] * self.step**j

    def canonical_stage(self, k: int) -> int:
        """Collapse stage indices with identical futures (cyclic patterns)."""
        if self.continuation == CYCLE:
            return (k - 1) % len(self.prefix) + 1
        return k

    def terms(self, count: int) -> tuple[int, ...]:
        return tuple(self.term(k) for k in range(1, count + 1))

    def eta(self, k: int) -> int:
        return sum(self.terms(k))

    def stages_to_depth(self, depth: int) -> int:
        """Least K whose cumulative gap sum reaches `depth`."""
        total = 0
        k = 0
        while total < depth:
            k += 1
            total += self.term(k)
        return k

    @classmethod
    def coerce(cls, value) -> "RhoPattern":
        """A pattern as it is, or a sequence of terms as a finite pattern."""
        if isinstance(value, RhoPattern):
            return value
        if not isinstance(value, Iterable):
            raise ValidationError(f"rho pattern must be a RhoPattern or a sequence of terms, got {value!r}")
        return cls(tuple(value), FINITE)

    @classmethod
    def parse(cls, text: str, default_continuation: str = CYCLE) -> "RhoPattern":
        """Parse ``"1,4,1,8"`` with optional ``;finite``/``;cycle``/``;arith=s``/``;geom=r``.

        A bare list defaults to cyclic continuation, which is what makes a
        finite descriptor denote a genuinely infinite set.
        """
        try:
            return cls._parse(text, default_continuation)
        except ValueError as exc:
            raise ValidationError(f"malformed rho descriptor {text!r}") from exc

    @classmethod
    def _parse(cls, text: str, default_continuation: str = CYCLE) -> "RhoPattern":
        """`parse`, except that a malformed suffix number raises ValueError."""
        parts = [p.strip() for p in text.split(";") if p.strip()]
        if not parts:
            raise ValidationError("empty rho descriptor")
        try:
            prefix = tuple(int(p) for p in parts[0].split(","))
        except ValueError as exc:
            raise ValidationError(f"malformed rho list {parts[0]!r}") from exc
        continuation = default_continuation
        step = 0
        for suffix in parts[1:]:
            if suffix == "finite":
                continuation = FINITE
            elif suffix == "cycle":
                continuation = CYCLE
            elif suffix.startswith("arith="):
                continuation, step = ARITHMETIC, int(suffix.split("=", 1)[1])
            elif suffix.startswith("geom="):
                continuation, step = GEOMETRIC, int(suffix.split("=", 1)[1])
            else:
                raise ValidationError(f"unknown rho suffix {suffix!r}")
        return cls(prefix, continuation, step)


# ----------------------------------------------------------------------
# digit automata for membership
# ----------------------------------------------------------------------

class _FullLevelsMachine:
    fixpoint = False  # a state is its level, one per level

    def __init__(self, m: int, spec: "SubsetSpec"):
        self.m = m
        self._spec = spec

    def initial(self):
        return 0

    def step(self, state, digit):
        return state + 1

    def is_member(self, state) -> bool:
        return self._spec.is_full_level(state)


class _RhoGeneratedMachine:
    """Tracks (stage, offset within stage, all-distinguished-so-far,
    stage root in U); membership happens exactly at stage boundaries on
    all-distinguished paths whose stage root was not a member."""

    def __init__(self, m: int, pattern: RhoPattern, digit: int):
        self.m = m
        self.pattern = pattern
        self.digit = digit
        self.fixpoint = pattern.continuation == CYCLE
        self._term = cache(pattern.term)

    def initial(self):
        return (1, 0, True, False)

    def step(self, state, digit):
        k, i, all_d, prev_u = state
        if i < self._term(k):
            return (k, i + 1, all_d and digit == self.digit, prev_u)
        member_here = all_d and not prev_u
        return (
            self.pattern.canonical_stage(k + 1),
            1,
            digit == self.digit,
            member_here,
        )

    def is_member(self, state) -> bool:
        k, i, all_d, prev_u = state
        return i >= 1 and i == self._term(k) and all_d and not prev_u


class _TableMachine:
    """A finite digit automaton as integer tables: a state is a row id, row s
    keeps its children at ``child[s * m : s * m + m]`` and its membership at
    ``member[s]``.  -1 is dead: the table takes both lists over and appends
    the dead row last, where state -1 finds it as a negative index."""

    fixpoint = True

    def __init__(self, m: int, child: list[int], member: list[bool], root: int):
        self.m = m
        self._child, self._member, self._root = child, member, root
        child += [-1] * m
        member.append(False)

    def initial(self):
        return self._root

    def step(self, state, digit):
        return self._child[state * self.m + digit]

    def is_member(self, state) -> bool:
        return self._member[state]


def _trie(m: int, members: frozenset[tuple[int, ...]]) -> _TableMachine:
    """The table of an explicit set: one row per member prefix, the root first."""
    child, member = [-1] * m, [False]
    for digits in members:
        node = 0
        for d in digits:
            slot = node * m + d
            if child[slot] < 0:
                child[slot] = len(member)
                child += [-1] * m
                member.append(False)
            node = child[slot]
        member[node] = True
    return _TableMachine(m, child, member, 0 if members else -1)


class _PredicateMachine:
    fixpoint = False

    def __init__(self, m: int, fn: Callable[[Vertex], bool]):
        self.m = m
        self.fn = fn

    def initial(self):
        return ()

    def step(self, state, digit):
        return state + (digit,)

    def is_member(self, state) -> bool:
        return bool(self.fn(Vertex(self.m, state)))


# ----------------------------------------------------------------------
# subset specifications
# ----------------------------------------------------------------------

KIND_PREDICATE = "predicate"
KIND_FULL_LEVELS = "full-levels"
KIND_LAST_DIGIT = "last-digit"
KIND_DIGIT_AVOIDING = "digit-avoiding"
KIND_RHO_GENERATED = "rho-generated"
KIND_EXPLICIT = "explicit"


@dataclass(frozen=True)
class SubsetSpec:
    """A membership-testable subset of the tree, trusted to `depth_bound`."""

    kind: str
    m: int
    depth_bound: int
    digit: int | None = None
    levels: tuple[int, ...] | None = None
    level_rule: str | None = None
    rho: RhoPattern | None = None
    predicate_fn: Callable[[Vertex], bool] | None = field(default=None, compare=False)
    members: frozenset[tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _validate_branching(self.m))

    # -- constructors ---------------------------------------------------

    @classmethod
    def last_digit(cls, m: int, digit: int) -> "SubsetSpec":
        """Vertices whose final digit is `digit` (members at every level >= 1)."""
        digit = _check_digit(m, digit)
        return cls(kind=KIND_LAST_DIGIT, m=m, depth_bound=UNBOUNDED_DEPTH, digit=digit)

    @classmethod
    def digit_avoiding(cls, m: int, digit: int) -> "SubsetSpec":
        """Vertices none of whose digits equals `digit` (a Cantor-type set)."""
        digit = _check_digit(m, digit)
        return cls(kind=KIND_DIGIT_AVOIDING, m=m, depth_bound=UNBOUNDED_DEPTH, digit=digit)

    @classmethod
    def full_levels(
        cls, m: int, levels: Iterable[int], rule: str | None = None
    ) -> "SubsetSpec":
        """The union of complete tree levels.

        ``rule="doubling"`` continues the listed levels by repeated
        doubling, giving an unbounded family; without a rule the listed
        levels are all there is.
        """
        level_tuple = tuple(sorted({_integer(l, "full level") for l in levels}))
        if not level_tuple or level_tuple[0] < 1:
            raise ValidationError("full-levels needs levels >= 1")
        if rule not in (None, "doubling"):
            raise ValidationError(f"unknown full-levels rule {rule!r}")
        return cls(
            kind=KIND_FULL_LEVELS,
            m=m,
            depth_bound=UNBOUNDED_DEPTH,
            levels=level_tuple,
            level_rule=rule,
        )

    @classmethod
    def rho_generated(
        cls, m: int, rho, digit: int = 0
    ) -> "SubsetSpec":
        """The gap-generated set: below every non-member vertex at each
        stage frontier, the single all-`digit` path of the stage's gap
        length ends in a member."""
        digit = _check_digit(m, digit)
        pattern = RhoPattern.coerce(rho)
        depth = pattern.eta(len(pattern.prefix)) if pattern.is_finite else UNBOUNDED_DEPTH
        return cls(
            kind=KIND_RHO_GENERATED, m=m, depth_bound=depth, digit=digit, rho=pattern
        )

    @classmethod
    def predicate(
        cls, m: int, fn: Callable[[Vertex], bool], depth_bound: int
    ) -> "SubsetSpec":
        if depth_bound < 1:
            raise ValidationError("predicate subsets need a positive depth bound")
        return cls(kind=KIND_PREDICATE, m=m, depth_bound=depth_bound, predicate_fn=fn)

    @classmethod
    def explicit(cls, m: int, vertices: Iterable[Vertex | tuple[int, ...]]) -> "SubsetSpec":
        m = _validate_branching(m)
        members = set()
        for v in vertices:
            if isinstance(v, Vertex) and v.m != m:
                raise ValidationError("vertex branching differs from the subset's")
            members.add(v.digits if isinstance(v, Vertex) else _validate_digits(m, v))
        return cls(kind=KIND_EXPLICIT, m=m, depth_bound=UNBOUNDED_DEPTH, members=frozenset(members))

    @classmethod
    def from_file(cls, path, m: int) -> "SubsetSpec":
        """One digit-string per line, e.g. ``0.2.1``."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        # lazily, so that the first bad line is the one reported
        return cls.explicit(m, (_parse_digits(line) for line in lines if line.strip()))

    @classmethod
    def parse(cls, text: str, m: int) -> "SubsetSpec":
        """Parse a CLI set descriptor.

        Forms: ``last-digit:<d>``, ``digit-avoiding:<d>``,
        ``full-levels:<l1,l2,...>[;doubling]``,
        ``rho:<r1,r2,...>[;cycle|;finite|;arith=<s>|;geom=<r>][;digit=<d>]``.
        """
        text = text.strip()
        if ":" not in text:
            raise ValidationError(f"malformed set descriptor {text!r}")
        head, rest = text.split(":", 1)
        try:
            if head == "last-digit":
                return cls.last_digit(m, int(rest))
            if head == "digit-avoiding":
                return cls.digit_avoiding(m, int(rest))
            if head == "full-levels":
                parts = [p.strip() for p in rest.split(";") if p.strip()]
                if not parts:
                    raise ValidationError(f"set descriptor {text!r} lists no levels")
                levels = [int(x) for x in parts[0].split(",")]
                rule = None
                for suffix in parts[1:]:
                    if suffix == "doubling":
                        rule = "doubling"
                    else:
                        raise ValidationError(f"unknown full-levels suffix {suffix!r}")
                return cls.full_levels(m, levels, rule)
            if head == "rho":
                digit = 0
                parts = rest.split(";")
                kept = []
                for part in parts:
                    if part.strip().startswith("digit="):
                        digit = int(part.strip().split("=", 1)[1])
                    else:
                        kept.append(part)
                pattern = RhoPattern._parse(";".join(kept))
                return cls.rho_generated(m, pattern, digit)
        except ValueError as exc:  # ValidationError is not a ValueError
            raise ValidationError(f"malformed set descriptor {text!r}") from exc
        raise ValidationError(f"unknown set descriptor kind {head!r}")

    # -- structure -------------------------------------------------------

    @cached_property
    def machine(self):
        m, digit = self.m, self.digit
        if self.kind == KIND_LAST_DIGIT:
            # the root, then state 1 + e for the last digit e
            member = [False] + [e == digit for e in range(m)]
            return _TableMachine(m, list(range(1, m + 1)) * (m + 1), member, 0)
        if self.kind == KIND_DIGIT_AVOIDING:
            # the root, clean and tainted
            row = [2 if e == digit else 1 for e in range(m)]
            return _TableMachine(m, row + row + [2] * m, [False, True, False], 0)
        if self.kind == KIND_FULL_LEVELS:
            return _FullLevelsMachine(m, self)
        if self.kind == KIND_RHO_GENERATED:
            return _RhoGeneratedMachine(m, self.rho, digit)
        if self.kind == KIND_EXPLICIT:
            return _trie(m, self.members)
        return _PredicateMachine(m, self.predicate_fn)

    def contains(self, v: Vertex) -> bool:
        if v.m != self.m:
            raise ValidationError("vertex branching differs from the subset's")
        if v.level > self.depth_bound:
            raise InsufficientDepthError(
                f"membership only trusted to depth {self.depth_bound}, asked at {v.level}"
            )
        machine = self.machine
        state = machine.initial()
        for d in v.digits:
            state = machine.step(state, d)
        return machine.is_member(state)

    def is_full_level(self, level: int) -> bool:
        return self.next_full_level_after(level - 1) == level

    def next_full_level_after(self, level: int) -> int | None:
        if self.kind != KIND_FULL_LEVELS:
            return None
        for l in self.levels:
            if l > level:
                return l
        if self.level_rule == "doubling":
            l = self.levels[-1]
            while l <= level:
                l *= 2
            return l
        return None

    @property
    def max_member_level(self) -> int | None:
        """Largest member level, when finite; None for unbounded families."""
        if self.kind == KIND_EXPLICIT:
            return max((len(d) for d in self.members), default=0)
        if self.kind == KIND_FULL_LEVELS and self.level_rule is None:
            return self.levels[-1]
        if self.kind == KIND_RHO_GENERATED and self.rho.is_finite:
            return self.depth_bound
        return None


def _check_digit(m: int, digit: int) -> int:
    _validate_branching(m)
    if not 0 <= _integer(digit, "digit") < m:
        raise ValidationError(f"digit {digit} out of range for branching {m}")
    return int(digit)


def _integer(value, what: str) -> int:
    if not _is_integer(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


# ----------------------------------------------------------------------
# level scans over automaton state classes
# ----------------------------------------------------------------------


def _advance(machine, classes: dict, level: int, cap: int, levels: int = 1) -> dict:
    """Advance a class map of `level` by `levels` levels under the cap.  The
    map sends (automaton state, has a member ancestor) to the level index of
    the class's first vertex, its witness."""
    m = machine.m
    for _ in range(levels):
        new: dict = {}
        for (ks, below), index in classes.items():
            child_below = below or machine.is_member(ks)
            for d in range(m):
                new.setdefault((machine.step(ks, d), child_below), index * m + d)
        level += 1
        _check_scan_size(level, len(new), cap)
        classes = new
    return classes


def _check_scan_size(level: int, size: int, cap: int) -> None:
    if size > cap:
        raise exceeded(f"level {level} scan needs {size} state classes", cap)


def _first_member(machine, counts: dict, flags: list, level: int, max_offset: int, cap: int):
    """Least offset n in 1..max_offset at which a member descends from a
    class with a nonzero count in the start map {(state, below a member):
    vertex count} at `level`, whose ``is_member`` values are `flags`; a
    class with count 0 is only carried.

    Returns (offset | None, definitive, levels_scanned, counts, flags) for
    the level it stopped at, whose member classes count the member vertices
    at the offset (none without one).  Without a member, only a repeated
    set of nonzero-count states on a ``fixpoint`` machine is definitive.
    """
    step, is_member, digits = machine.step, machine.is_member, range(machine.m)
    seen = {frozenset(ks for (ks, _below), c in counts.items() if c)}
    n = 0
    while n < max_offset:
        n += 1
        new: dict = {}
        for ((ks, below), count), member in zip(counts.items(), flags):
            for d in digits:
                child = (step(ks, d), below or member)
                new[child] = new.get(child, 0) + count
        counts = new
        _check_scan_size(level + n, len(counts), cap)
        flags = [is_member(ks) for ks, _below in counts]
        if any(compress(counts.values(), flags)):  # a member with a nonzero count
            return n, True, n, counts, flags
        if machine.fixpoint:
            current = frozenset(ks for (ks, _below), c in counts.items() if c)
            if current in seen:
                return None, True, n, counts, flags
            seen.add(current)
    return None, False, n, counts, flags


def _members(counts: dict, flags: list) -> int:
    """The member vertices of a class map and its ``is_member`` flags."""
    return sum(c for c, member in zip(counts.values(), flags) if member)


class _InteriorMachine:
    """A machine paired with the flag "every digit so far was 0"; its
    members are the wrapped machine's members off the all-zero path, whose
    expansion points lie in the open interior of the start interval."""

    def __init__(self, machine):
        self.machine = machine
        self.m = machine.m
        self.fixpoint = machine.fixpoint

    def step(self, state, digit):
        ks, all_zero = state
        return self.machine.step(ks, digit), all_zero and digit == 0

    def is_member(self, state) -> bool:
        ks, all_zero = state
        return not all_zero and self.machine.is_member(ks)


# ----------------------------------------------------------------------
# density and uniform hitting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DensityResult:
    dense_up_to: bool
    witness_gap: Interval | None
    resolution: int
    definitive: bool


#: offset budget for interior searches on machines without a finite-state
#: fixpoint argument; structured families find members within a stage or two
_DENSITY_OFFSET_LIMIT = 512


def density_check(U: SubsetSpec, resolution_level: int) -> DensityResult:
    """Check that every interval at the given resolution contains an image
    point of U in its interior; on failure return a witness interval."""
    if resolution_level < 0:
        raise ValidationError("resolution level must be >= 0")
    if resolution_level > U.depth_bound:
        raise InsufficientDepthError(
            f"resolution {resolution_level} exceeds trusted depth {U.depth_bound}"
        )
    if U.kind == KIND_FULL_LEVELS:
        # closed form: an interior image point below a level-d vertex exists
        # iff some complete member level lies strictly deeper than d
        if U.next_full_level_after(resolution_level) is not None:
            return DensityResult(True, None, resolution_level, True)
        witness = interval_of(Vertex(U.m, (0,) * resolution_level))
        return DensityResult(False, witness, resolution_level, True)
    machine = U.machine
    cap = size_cap()
    classes = _advance(machine, {(machine.initial(), False): 0}, 0, cap, resolution_level)
    interior = _InteriorMachine(machine)
    max_offset = min(U.depth_bound - resolution_level, _DENSITY_OFFSET_LIMIT)
    for (ks, _below), index in classes.items():
        offset, definitive = _first_member(
            interior, {((ks, True), False): 1}, [False], resolution_level, max_offset, cap
        )[:2]
        if offset is None:
            witness = vertex_from_index(U.m, resolution_level, index)
            return DensityResult(False, interval_of(witness), resolution_level, definitive)
    return DensityResult(True, None, resolution_level, True)


@dataclass(frozen=True)
class PaResult:
    holds: bool
    n: int | None
    scan_depth: int
    counterexample: Vertex | None = None


def pa_check(U: SubsetSpec, n_max: int, scan_depth: int | None = None) -> PaResult:
    """Uniform hitting: from every vertex scanned, some descendant within
    n levels is a member.  Returns the least uniform n <= n_max."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if scan_depth is None:
        scan_depth = min(U.depth_bound - n_max, 16)
    if scan_depth < 0 or scan_depth + n_max > U.depth_bound:
        raise InsufficientDepthError(
            f"scanning to level {scan_depth} with lookahead {n_max} exceeds "
            f"trusted depth {U.depth_bound}"
        )
    machine = U.machine
    cap = size_cap()
    classes = {(machine.initial(), False): 0}
    worst = 0
    for level in range(scan_depth + 1):
        for (ks, _below), index in classes.items():
            offset = _first_member(machine, {(ks, False): 1}, [machine.is_member(ks)], level, n_max, cap)[0]
            if offset is None:
                return PaResult(
                    holds=False,
                    n=None,
                    scan_depth=scan_depth,
                    counterexample=vertex_from_index(U.m, level, index),
                )
            worst = max(worst, offset)
        if level < scan_depth:
            classes = _advance(machine, classes, level, cap)
    return PaResult(holds=True, n=worst, scan_depth=scan_depth)


# ----------------------------------------------------------------------
# the rho ladder
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UcpReport:
    """Ledger of the structural analysis: the rho ladder, partial sums,
    uniqueness checks, and (after analysis) density/hitting evidence plus
    the final three-valued verdict."""

    m: int
    rho: tuple[int, ...]
    eta: tuple[int, ...]
    partial_sum: float
    p1_ok: bool | None
    p2_ok: bool | None
    p2_failed_stages: tuple[int, ...]
    quantifier_divergence: tuple[int, ...]
    frontier_empty_at: int | None
    ladder_terminated: bool
    inconclusive_ladder: bool
    depth_scanned: int
    notes: tuple[str, ...]
    density: DensityResult | None = None
    pa: PaResult | None = None
    verdict: str | None = None
    verdict_reason: str = ""

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "rho": list(self.rho),
            "eta": list(self.eta),
            "partial_sum": self.partial_sum,
            "p1_ok": self.p1_ok,
            "p2_ok": self.p2_ok,
            "p2_failed_stages": list(self.p2_failed_stages),
            "quantifier_divergence": list(self.quantifier_divergence),
            "frontier_empty_at": self.frontier_empty_at,
            "ladder_terminated": self.ladder_terminated,
            "inconclusive_ladder": self.inconclusive_ladder,
            "depth_scanned": self.depth_scanned,
            "density_dense": None if self.density is None else self.density.dense_up_to,
            "density_witness": (
                None
                if self.density is None or self.density.witness_gap is None
                else {
                    "left": self.density.witness_gap.left.as_float(),
                    "right": float(self.density.witness_gap.right),
                }
            ),
            "pa_holds": None if self.pa is None else self.pa.holds,
            "pa_n": None if self.pa is None else self.pa.n,
            "verdict": self.verdict,
            "verdict_reason": self.verdict_reason,
            "notes": list(self.notes),
        }


#: ceiling on single-stage probes when the trusted depth is unbounded
_RHO_PROBE_LIMIT = 65536


def compute_rho(U: SubsetSpec, params: GameParams, k_max: int) -> UcpReport:
    """Compute the gap ladder rho_1..rho_K (K <= k_max) with its checks.

    rho_1 is the first level meeting U; later gaps are the least offsets
    at which some non-member frontier vertex has a member descendant.
    (P1) asks for a unique member at level rho_1; (P2) asks, per frontier
    vertex untouched by earlier members, for a unique member at the next
    gap.  Violations are recorded and the ladder continues for
    diagnostics.
    """
    if params.m != U.m:
        raise ValidationError("params branching factor differs from the subset's")
    if k_max < 0:
        raise ValidationError("k_max must be >= 0")
    machine = U.machine
    cap = size_cap()
    delta = params.delta

    level = 0
    classes = {(machine.initial(), False): 1}  # count 1: an eligible class
    flags = [machine.is_member(machine.initial())]
    rho: list[int] = []
    eta: list[int] = []
    notes: list[str] = []
    p1_ok: bool | None = None
    p2_ok: bool | None = None
    p2_failed: list[int] = []
    divergence: list[int] = []
    frontier_empty_at: int | None = None
    terminated = inconclusive = False

    if flags[0]:
        notes.append("the root itself is a member; ladder starts at level 1")

    for k in range(1, k_max + 1):
        base = level
        if not any(classes.values()):
            frontier_empty_at = base
            notes.append(f"level {base} is fully contained in U")
            break
        untouched = [ks for (ks, below), count in classes.items() if count and not below]
        max_probe = min(U.depth_bound - base, _RHO_PROBE_LIMIT)
        offset, definitive, scanned, classes, flags = _first_member(
            machine, classes, flags, base, max_probe, cap
        )
        level = base + scanned
        if offset is None:
            # a fixpoint proves the ladder ends; a spent budget leaves it open
            terminated, inconclusive = definitive, not definitive
            notes.append(
                f"no members exist below the level-{base} frontier at any depth"
                if terminated
                else f"no member found below level {base} within the trusted depth"
            )
            break

        rho.append(offset)
        eta.append(base + offset)
        if k == 1:
            # the stage-1 scan starts from the root alone, with count 1
            members = _members(classes, flags)
            p1_ok = members == 1
            if not p1_ok:
                notes.append(f"{decimal(members)} members at level {eta[0]}, so (P1) fails")
        else:
            # members at the new gap below each untouched frontier class;
            # none lies nearer, since untouched classes are eligible
            counts = [
                _members(*_first_member(machine, {(ks, False): 1}, [False], base, offset, cap)[3:])
                for ks in untouched
            ]
            if counts:
                if any(c != 1 for c in counts):
                    p2_failed.append(k)
                if all(c == 0 for c in counts):
                    # the witness for this gap lives below a frontier vertex
                    # that already sits under an earlier member
                    divergence.append(k)
            else:
                notes.append(f"stage {k} has an empty untouched frontier")
        # the next stage searches below the non-member classes only
        classes = {key: int(not member) for key, member in zip(classes, flags)}
    if len(rho) >= 2:
        p2_ok = not p2_failed

    return UcpReport(
        m=U.m,
        rho=tuple(rho),
        eta=tuple(eta),
        partial_sum=math.fsum(delta**r for r in rho),
        p1_ok=p1_ok,
        p2_ok=p2_ok,
        p2_failed_stages=tuple(p2_failed),
        quantifier_divergence=tuple(divergence),
        frontier_empty_at=frontier_empty_at,
        ladder_terminated=terminated,
        inconclusive_ladder=inconclusive,
        depth_scanned=level,
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
# the series criterion
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionVerdict:
    diverges: bool | None
    partial_sum: float
    limit_sum: float | None
    reason: str


def criterion_verdict(
    rho_pattern, params: GameParams | None = None, delta: float | None = None
) -> CriterionVerdict:
    """Decide whether ``sum_k delta**rho_k`` diverges for a described sequence.

    Explicit finite lists are undecidable (returns unknown with the
    partial sum); any infinitely repeated finite value forces divergence;
    arithmetic or geometric growth gives a convergent tail with a
    computable limit.
    """
    if delta is None:
        if params is None:
            raise ValidationError("need params or an explicit delta")
        delta = params.delta
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must lie strictly between 0 and 1, got {delta}")
    pattern = RhoPattern.coerce(rho_pattern)
    partial = math.fsum(delta**r for r in pattern.prefix)
    if pattern.continuation == FINITE:
        return CriterionVerdict(
            diverges=None,
            partial_sum=partial,
            limit_sum=None,
            reason="finite data cannot decide an infinite sum",
        )
    constant_tail = (pattern.continuation == ARITHMETIC and pattern.step == 0) or (
        pattern.continuation == GEOMETRIC and pattern.step == 1
    )
    if pattern.continuation == CYCLE or constant_tail:
        repeated = (
            min(pattern.prefix) if pattern.continuation == CYCLE else pattern.prefix[-1]
        )
        return CriterionVerdict(
            diverges=True,
            partial_sum=partial,
            limit_sum=math.inf,
            reason=(
                f"the value {repeated} recurs infinitely often, so the terms "
                f"delta**{repeated} alone sum to infinity"
            ),
        )
    last = pattern.prefix[-1]
    if pattern.continuation == ARITHMETIC:
        ratio = delta**pattern.step
        tail = delta**last * ratio / (1.0 - ratio)
        return CriterionVerdict(
            diverges=False,
            partial_sum=partial,
            limit_sum=partial + tail,
            reason=f"gaps grow by {pattern.step} per stage; geometric tail converges",
        )
    # geometric growth: terms decay doubly exponentially
    tail = 0.0
    exponent = last
    while True:
        exponent *= pattern.step
        term = delta**exponent if exponent * math.log(delta) > -745 else 0.0
        if term < 1e-18:
            break
        tail += term
    return CriterionVerdict(
        diverges=False,
        partial_sum=partial,
        limit_sum=partial + tail,
        reason=f"gaps grow geometrically by factor {pattern.step}; tail converges",
    )


# ----------------------------------------------------------------------
# the explicit bounded counterexample
# ----------------------------------------------------------------------


def _stage_maxima(delta: float, terms: Iterable[int]) -> list[float]:
    """M_0 = 1 and ``M_k = M_{k-1} / (1 - delta**rho_k)`` for the gaps `terms`."""
    return list(accumulate((1.0 - delta**r for r in terms), truediv, initial=1.0))


class CounterexampleField:
    """The bounded harmonious function vanishing on a gap-generated set.

    Stage k replaces the constant region of height ``M_{k-1}`` below each
    untouched frontier vertex with: a distinguished path whose values
    ``M_k * (1 - delta**(rho_k - i))`` descend to 0 at the member vertex,
    and constant off-path subtrees at the new height
    ``M_k = M_{k-1} / (1 - delta**rho_k)``.  A vertex's value depends only
    on its level and its class: its state in the subset's automaton, or
    None at and below a member.  Nothing is materialised per vertex.
    """

    def __init__(
        self, pattern: RhoPattern | Iterable[int], params: GameParams, depth: int, digit: int = 0
    ):
        digit = _check_digit(params.m, digit)
        if _integer(depth, "depth") < 1:
            raise ValidationError("depth must be >= 1")
        self.pattern = pattern = RhoPattern.coerce(pattern)
        self.params = params
        self.digit = digit
        self.depth = int(depth)
        self.stages = pattern.stages_to_depth(self.depth)
        self._machine = self.subset().machine

    def _maxima(self, stages: int) -> list[float]:
        """M_0 = 1, M_1, ..., M_stages."""
        return _stage_maxima(self.params.delta, self.pattern.terms(stages))

    @property
    def eta(self) -> tuple[int, ...]:
        return tuple(accumulate(self.pattern.terms(self.stages)))

    @property
    def stage_maxima(self) -> tuple[float, ...]:
        """M_1..M_K for the stages covering the built depth."""
        return tuple(self._maxima(self.stages)[1:])

    @property
    def max_built_value(self) -> float:
        return self._maxima(self.stages)[-1]

    def subset(self) -> SubsetSpec:
        """The generated set this field vanishes on."""
        return SubsetSpec.rho_generated(self.params.m, self.pattern, self.digit)

    def value(self, v: Vertex) -> float:
        if v.m != self.params.m:
            raise ValidationError("vertex branching differs from the field's")
        # the machine folds cycle stages, so the stage comes from the level
        k = self.pattern.stages_to_depth(v.level)
        machine, state, below = self._machine, self._machine.initial(), False
        for d in v.digits:
            below = below or machine.is_member(state)
            state = machine.step(state, d)
        if below or machine.is_member(state):
            return 0.0
        if k == 0:
            return 1.0  # the root
        _stage, i, on_path, _stage_root_member = state
        top = self._maxima(k)[k]
        if not on_path:
            return top
        return top * (1.0 - self.params.delta ** (self.pattern.term(k) - i))

    __call__ = value

    # -- verification ---------------------------------------------------

    def class_representatives(self, max_level: int):
        """One representative vertex per (level, class), levels 0..max_level:
        the first vertex of its level in each class.  Values and whole
        subtrees coincide within a class, so the representatives cover every
        vertex of their level."""
        machine, m, cap = self._machine, self.params.m, size_cap()
        classes = {(machine.initial(), False): 0}
        for level in range(max_level + 1):
            if level:
                classes = _advance(machine, classes, level - 1, cap)
            reps: dict = {}
            for (ks, below), index in classes.items():
                reps.setdefault(None if below or machine.is_member(ks) else ks, index)
            yield level, {c: vertex_from_index(m, level, i).digits for c, i in reps.items()}

    def residual_certificate(self, max_level: int | None = None) -> "ResidualCertificate":
        """Max operator residual over all vertices up to `max_level`.

        The walk visits one representative per self-similarity class and
        level; since the field value of every vertex (and of its whole
        subtree) depends only on its class, the per-class residuals cover
        every vertex of the scanned levels exactly.

        Residuals at level L need values at L+1, so for a strictly finite
        gap pattern the certificate reaches at most one level short of the
        built depth.
        """
        if max_level is None:
            max_level = self.depth if not self.pattern.is_finite else self.depth - 1
        elif _integer(max_level, "max_level") < 0:
            raise ValidationError(f"max_level must be >= 0, got {max_level}")
        worst = 0.0
        worst_vertex = Vertex(self.params.m, ())
        classes = 0
        for level, reps in self.class_representatives(max_level):
            for rep in reps.values():
                classes += 1
                r = residual_at(self.value, Vertex(self.params.m, rep), self.params).value
                if abs(r) > worst:
                    worst = abs(r)
                    worst_vertex = Vertex(self.params.m, rep)
        return ResidualCertificate(
            max_abs_residual=worst,
            worst_vertex=worst_vertex,
            levels_covered=max_level,
            classes_checked=classes,
        )


@dataclass(frozen=True)
class ResidualCertificate:
    max_abs_residual: float
    worst_vertex: Vertex
    levels_covered: int
    classes_checked: int


def build_counterexample(
    rho, params: GameParams, depth: int, digit: int = 0
) -> CounterexampleField:
    """Build the bounded vanishing-on-U field for a convergent gap pattern.

    Refused when the series criterion diverges (no bounded counterexample
    exists) or cannot be decided from the descriptor.
    """
    pattern = RhoPattern.coerce(rho)
    verdict = criterion_verdict(pattern, params=params)
    if verdict.diverges is True:
        raise StructuralCheckError(
            "the gap series diverges: every bounded harmonious function "
            "vanishing on this set vanishes everywhere, so no counterexample exists"
        )
    if verdict.diverges is None:
        raise StructuralCheckError(
            "cannot certify convergence of the gap series from a bare finite "
            "list; describe the continuation (cycle/arith/geom)"
        )
    return CounterexampleField(pattern, params, depth, digit)


def unboundedness_probe(U: SubsetSpec, params: GameParams, k_stages: int) -> tuple[float, ...]:
    """Per-stage lower bounds ``M_k = prod 1/(1 - delta**rho_i)`` forcing
    any nonzero vanishing-on-U harmonious function to be unbounded when
    the gap series diverges.  Requires the uniqueness checks to hold."""
    if k_stages < 0:
        raise ValidationError("number of stages must be >= 0")
    if k_stages == 0:
        return ()
    report = compute_rho(U, params, k_max=k_stages)
    if len(report.rho) < k_stages:
        raise StructuralCheckError(
            f"only {len(report.rho)} ladder stages are available "
            f"(requested {k_stages})"
        )
    if report.p1_ok is not True:
        raise StructuralCheckError("the first-stage uniqueness check (P1) failed")
    if k_stages >= 2 and report.p2_ok is not True:
        raise StructuralCheckError("the per-frontier uniqueness check (P2) failed")
    return tuple(_stage_maxima(params.delta, report.rho[:k_stages])[1:])


# ----------------------------------------------------------------------
# the full analysis
# ----------------------------------------------------------------------


def analyze(
    U: SubsetSpec,
    params: GameParams,
    k_max: int = 6,
    resolution: int = 3,
    pa_n_max: int = 6,
) -> UcpReport:
    """Run the structural ladder, density, and hitting checks, then assemble
    a three-valued verdict with the certifying mechanism spelled out."""
    report = compute_rho(U, params, k_max)
    notes = list(report.notes)

    # bounded families provably lose density just past their deepest member
    effective_resolution = resolution
    if U.max_member_level is not None:
        effective_resolution = max(resolution, U.max_member_level + 1)
    effective_resolution = min(effective_resolution, U.depth_bound)
    density = density_check(U, effective_resolution)

    pa = None
    try:
        pa = pa_check(U, pa_n_max)
    except InsufficientDepthError:
        notes.append("hitting check skipped: trusted depth too small")

    verdict: str | None = None
    reason = ""
    if U.kind == KIND_FULL_LEVELS and U.level_rule is not None:
        verdict = VERDICT_UCP
        reason = (
            "complete member levels recur unboundedly; a vanishing function "
            "propagates zero upward from each and is squeezed between them"
        )
    elif density.definitive and not density.dense_up_to:
        verdict = VERDICT_NO_UCP
        reason = (
            "image of U misses an interval: a bounded +1/-1 two-subtree field "
            "inside the gap vanishes on U but not everywhere"
        )
    elif (
        U.rho is not None
        and not U.rho.is_finite
        and report.p1_ok is True
        and report.p2_ok is True
        and density.dense_up_to
        and report.frontier_empty_at is None
    ):
        series = criterion_verdict(U.rho, params=params)
        if series.diverges is True:
            verdict = VERDICT_UCP
            reason = f"gap series diverges: {series.reason}"
        elif series.diverges is False:
            verdict = VERDICT_NO_UCP
            reason = (
                f"gap series converges (limit {series.limit_sum:.6g}): the "
                f"explicit bounded construction vanishes on U but not everywhere"
            )
    if verdict is None and pa is not None and pa.holds:
        verdict = VERDICT_UCP
        reason = f"every scanned vertex has a member descendant within {pa.n} levels"
    if verdict is None:
        depth = max(report.depth_scanned, effective_resolution)
        verdict = f"inconclusive-at-depth-{depth}"
        reason = "finite-depth evidence does not decide unique continuation"

    return replace(
        report,
        notes=tuple(notes),
        density=density,
        pa=pa,
        verdict=verdict,
        verdict_reason=reason,
    )
