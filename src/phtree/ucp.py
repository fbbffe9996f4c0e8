"""Unique-continuation analysis of vertex subsets U of the tree.

The central question is whether every bounded harmonious function that
vanishes on U must vanish everywhere.  Finite computation cannot settle
an infinite-sum criterion from raw membership data alone, so a subset is
its digit automaton plus a trusted depth (``SubsetSpec``): digit rules,
full levels, gap-generated and explicit sets each build one machine, on
whose small state space the level scans run.  The analyzer reports a
three-valued verdict: certified, refuted, or inconclusive.

The machinery:

* ``density_check`` -- does every interval at a given resolution contain
  an image point of U under the base-m expansion map?  Failure refutes
  unique continuation outright (a two-subtree +1/-1 dipole fits in the
  gap).  Whole levels, and sets at or below their deepest member, are
  answered in closed form; every other case walks the levels.
* ``pa_check`` -- uniform hitting: every vertex has a U descendant within
  n levels.  Success certifies unique continuation where membership is
  trusted at every depth and the scan probed every reachable state of a
  finite automaton.
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

A machine has ``initial()``, ``step(state, digit)``,
``is_member(state)``, ``m``, a ``fixpoint`` flag for finite states and,
for the closed forms, ``deepest``, ``whole_levels`` and the gap
``pattern``; digit rules have three states, and an explicit set is an
integer table.  For the scans, ``children(state, n)`` gives the distinct
states n <= ``gap(state)`` levels down (no member lies nearer), each with
its least first digit and its number of digit strings (a table lists each
digit's child instead), and ``_scan``, the one level loop, moves a
{(state, below a member): vertex count} map down by them, with its member
classes and, walking from the root, each class's first vertex: the
transfer-matrix count of an automaton's words (Flajolet and Sedgewick,
*Analytic Combinatorics*, 2009, V.6).
``_first_member`` reads it until a nonzero-count class is a member, a set
of such states repeats (on a ``fixpoint`` machine, proof that no member
lies deeper) or its budget is spent; the ladder runs one map per stage,
count 1 on its eligible classes.  ``step`` serves ``contains`` and field
values only.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Set
from dataclasses import dataclass, field, replace
from functools import cache, reduce
from itertools import accumulate
from operator import truediv
from pathlib import Path
from typing import Callable, Iterable

from .capacity import check_table_rows, decimal, exceeded, size_cap
from .dpp import GameParams, residual_at
from .errors import CapacityError, InsufficientDepthError, StructuralCheckError, ValidationError
from .tree import (
    Interval,
    Vertex,
    _is_integer,
    _parse_digits,
    _validate_branching,
    _validate_digits,
    interval_of,
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
    def parse(cls, text: str) -> "RhoPattern":
        """Parse ``"1,4,1,8"`` with optional ``;finite``/``;cycle``/``;arith=s``/``;geom=r``.

        A bare list defaults to cyclic continuation, which is what makes a
        finite descriptor denote a genuinely infinite set.
        """
        try:
            return cls._parse(text)
        except ValueError as exc:
            raise ValidationError(f"malformed rho descriptor {text!r}") from exc

    @classmethod
    def _parse(cls, text: str) -> "RhoPattern":
        """`parse`, except that a malformed suffix number raises ValueError."""
        parts = [p.strip() for p in text.split(";") if p.strip()]
        if not parts:
            raise ValidationError("empty rho descriptor")
        try:
            prefix = tuple(int(p) for p in parts[0].split(","))
        except ValueError as exc:
            raise ValidationError(f"malformed rho list {parts[0]!r}") from exc
        continuation = CYCLE
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

class _Machine:
    """A machine's defaults: its members may lie on any level, so its scans
    move one level at a time, and it offers no closed form."""

    deepest = None  # the deepest member level, when finite
    whole_levels = False  # the members are complete levels
    pattern = None  # the gap pattern of a gap-generated set

    def gap(self, state) -> int:
        return 1


@dataclass(frozen=True)
class _FullLevelsMachine(_Machine):
    """The complete `levels`, continued by repeated doubling under the
    ``"doubling"`` rule; a state is its level, one per level."""

    m: int
    levels: tuple[int, ...]
    rule: str | None
    fixpoint = False
    whole_levels = True

    @property
    def deepest(self) -> int | None:
        return self.levels[-1] if self.rule is None else None

    def initial(self):
        return 0

    def step(self, state, digit):
        return state + 1

    def is_member(self, state) -> bool:
        return self.is_full_level(state)

    def is_full_level(self, level: int) -> bool:
        return self.next_full_level_after(level - 1) == level

    def next_full_level_after(self, level: int) -> int | None:
        for l in self.levels:
            if l > level:
                return l
        if self.rule == "doubling":
            l = self.levels[-1]
            while l <= level:
                l *= 2
            return l
        return None

    def gap(self, state) -> int:
        """Levels before membership can next hold: to the next full level."""
        level = self.next_full_level_after(state)
        return UNBOUNDED_DEPTH if level is None else level - state

    def children(self, state, n=1):
        return [(state + n, 0, self.m**n)]


@dataclass(frozen=True)
class _RhoGeneratedMachine(_Machine):
    """Tracks (stage, offset within stage, all-distinguished-so-far,
    stage root in U); membership happens exactly at stage boundaries on
    all-distinguished paths whose stage root was not a member, and a
    finite pattern's members end at its last stage."""

    m: int
    digit: int
    pattern: RhoPattern = field()  # required: the base's None is for other machines

    def __post_init__(self) -> None:
        pattern = self.pattern
        self.__dict__.update(
            fixpoint=pattern.continuation == CYCLE,
            deepest=pattern.eta(len(pattern.prefix)) if pattern.is_finite else None,
            _term=cache(pattern.term),
        )

    def initial(self):
        return (1, 0, True, False)

    def _ends(self, state, n: int):
        """The states n <= gap(state) levels down: on the all-`digit` path,
        which keeps the flag, and off it."""
        k, i, all_d, prev_u = state
        if i < self._term(k):
            return (k, i + n, all_d, prev_u), (k, i + n, False, prev_u)
        # a stage boundary, where the flag starts afresh
        k, member_here = self.pattern.canonical_stage(k + 1), all_d and not prev_u
        return (k, 1, True, member_here), (k, 1, False, member_here)

    def step(self, state, digit):
        return self._ends(state, 1)[digit != self.digit]

    def is_member(self, state) -> bool:
        k, i, all_d, prev_u = state
        return i >= 1 and i == self._term(k) and all_d and not prev_u

    def gap(self, state) -> int:
        """Levels before membership can next hold: the rest of the stage."""
        return max(self._term(state[0]) - state[1], 1)

    def children(self, state, n=1):
        kept, lost = self._ends(state, n)
        if kept == lost:
            return [(lost, 0, self.m**n)]
        if self.digit:
            return [(lost, 0, self.m**n - 1), (kept, self.digit, 1)]
        return [(kept, 0, 1), (lost, int(n == 1), self.m**n - 1)]


@dataclass(frozen=True)
class _DigitRuleMachine(_Machine):
    """A digit rule's three states: 0 the root, 1 the members, 2 the rest.
    `last-digit` goes to 1 on `digit` and to 2 on any other; `digit-avoiding`
    goes to 2 on `digit` and stays there, and to 1 on any other."""

    m: int
    digit: int
    avoiding: bool
    fixpoint = True

    def __post_init__(self) -> None:
        on, off = (2, 1) if self.avoiding else (1, 2)  # `digit`'s state, the others'
        kids = [(on, self.digit, 1), (off, int(self.digit == 0), self.m - 1)]
        self.__dict__.update(_on=on, _off=off, _kids=kids if self.digit == 0 else kids[::-1])

    def initial(self):
        return 0

    def step(self, state, digit):
        if self.avoiding and state == 2:
            return 2
        return self._on if digit == self.digit else self._off

    def is_member(self, state) -> bool:
        return state == 1

    def children(self, state, n=1):
        return [(2, 0, self.m)] if self.avoiding and state == 2 else self._kids


class _TableMachine(_Machine, Set):
    """An explicit set as its trie: a digit automaton in integer tables, and
    the set of its members' digit tuples.  A state is a row id: row s keeps
    its children at ``child[s * m : s * m + m]`` and its membership at
    ``member[s]``; -1 is dead, the last row.  The tuples are built only when
    iterated, in sorted order; the set compares and hashes as their frozenset."""

    fixpoint = True

    def __init__(self, m: int, child: array, member: bytearray, deepest: int):
        self.m, self.deepest, self._child, self._member, self._size = m, deepest, child, member, member.count(1)
        self._rows, self._digits, self._ones = len(member), range(m), (1,) * m

    def initial(self):
        return 0 if self._size else -1

    def step(self, state, digit):
        return self._child[state * self.m + digit]

    def is_member(self, state):
        return self._member[state]

    def children(self, state, n=1):
        """Each digit's child, read from the row: a row of a few digits costs
        less read whole than merged."""
        base = state % self._rows * self.m  # the dead row too
        return zip(self._child[base : base + self.m], self._digits, self._ones)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, digits) -> bool:
        try:
            return bool(self._member[reduce(self.step, _validate_digits(self.m, digits), self.initial())])
        except (TypeError, ValidationError):
            return False

    def __iter__(self):
        m, child, member = self.m, self._child, self._member
        stack = [(0, ())] if self._size else []
        while stack:
            state, digits = stack.pop()
            if member[state]:
                yield digits
            for d in reversed(self._digits):  # popped in digit order
                if child[state * m + d] >= 0:
                    stack.append((child[state * m + d], digits + (d,)))

    __hash__ = Set._hash
    _from_iterable = classmethod(lambda cls, it: frozenset(it))  # set operations give frozensets

    def __repr__(self) -> str:
        return f"<explicit set of {self._size} members to level {self.deepest}, m={self.m}>"


def _trie(m: int, rows: Iterable[tuple[int, ...]]) -> _TableMachine:
    """The table of an explicit set in one pass over its rows of digits in
    ``range(m)``: one row per member prefix in order of first appearance,
    the root first.  The cap counts the table, the dead row included,
    before each row is added."""
    limit = check_table_rows(2, m) - 1  # rows besides the dead row
    blank = array("i" if limit < 2**31 else "q", [-1]) * m  # 32-bit row ids where they fit
    child, member, deepest = blank[:], bytearray(1), 0
    for digits in rows:
        state = 0
        for d in digits:
            slot = state * m + d
            state = child[slot]
            if state < 0:
                if len(member) == limit:
                    check_table_rows(limit + 2, m)  # this row and the dead row pass the cap
                state = child[slot] = len(member)
                child += blank
                member.append(0)
        member[state] = 1
        deepest = max(deepest, len(digits))
    child += blank  # the dead row
    member.append(0)
    return _TableMachine(m, child, member, deepest)


@dataclass(frozen=True)
class _PredicateMachine(_Machine):
    """A test on vertices; a state is the digits read so far."""

    m: int
    fn: Callable[[Vertex], bool]
    fixpoint = False

    def initial(self):
        return ()

    def step(self, state, digit):
        return state + (digit,)

    def is_member(self, state) -> bool:
        return bool(self.fn(Vertex(self.m, state)))

    def children(self, state, n=1):
        return [(state + (d,), d, 1) for d in range(self.m)]


# ----------------------------------------------------------------------
# subset specifications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetSpec:
    """A subset of the tree as its digit automaton, with membership trusted
    to `depth_bound`.  Subsets are equal when their machines, depths and
    branching factors are: an explicit set's trie compares as the set of
    its members' digit tuples, whatever its branching factor."""

    machine: _Machine
    depth_bound: int = UNBOUNDED_DEPTH
    m: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", self.machine.m)

    # -- constructors ---------------------------------------------------

    @classmethod
    def last_digit(cls, m: int, digit: int) -> "SubsetSpec":
        """Vertices whose final digit is `digit` (members at every level >= 1)."""
        m = _validate_branching(m)
        return cls(_DigitRuleMachine(m, _check_digit(m, digit), avoiding=False))

    @classmethod
    def digit_avoiding(cls, m: int, digit: int) -> "SubsetSpec":
        """Vertices none of whose digits equals `digit` (a Cantor-type set)."""
        m = _validate_branching(m)
        return cls(_DigitRuleMachine(m, _check_digit(m, digit), avoiding=True))

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
        return cls(_FullLevelsMachine(_validate_branching(m), level_tuple, rule))

    @classmethod
    def rho_generated(
        cls, m: int, rho, digit: int = 0
    ) -> "SubsetSpec":
        """The gap-generated set: below every non-member vertex at each
        stage frontier, the single all-`digit` path of the stage's gap
        length ends in a member.  A finite pattern is trusted to its last
        stage."""
        m = _validate_branching(m)
        machine = _RhoGeneratedMachine(m, _check_digit(m, digit), RhoPattern.coerce(rho))
        return cls(machine, UNBOUNDED_DEPTH if machine.deepest is None else machine.deepest)

    @classmethod
    def predicate(
        cls, m: int, fn: Callable[[Vertex], bool], depth_bound: int
    ) -> "SubsetSpec":
        """The vertices where `fn` holds; subsets compare by their function."""
        if depth_bound < 1:
            raise ValidationError("predicate subsets need a positive depth bound")
        return cls(_PredicateMachine(_validate_branching(m), fn), depth_bound)

    @classmethod
    def explicit(cls, m: int, vertices: Iterable[Vertex | tuple[int, ...]]) -> "SubsetSpec":
        """The finite set of `vertices`, held as its trie (`members`)."""
        m = _validate_branching(m)

        def rows():
            for v in vertices:
                if isinstance(v, Vertex) and v.m != m:
                    raise ValidationError("vertex branching differs from the subset's")
                yield v.digits if isinstance(v, Vertex) else _validate_digits(m, v)

        return cls(_trie(m, rows()))

    @classmethod
    def from_file(cls, path, m: int) -> "SubsetSpec":
        """One digit-string per line, e.g. ``0.2.1``."""
        lines = (line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines())
        # lazily, so that the first bad line is the one reported
        return cls.explicit(m, (_parse_digits(line) for line in lines if line))

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

    @property
    def members(self) -> _TableMachine:
        """An explicit set's trie: the set of its members' digit tuples."""
        if not isinstance(self.machine, Set):
            raise AttributeError(f"{type(self.machine).__name__} lists no members")
        return self.machine

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
        return bool(machine.is_member(state))

    @property
    def max_member_level(self) -> int | None:
        """Largest member level, when finite; None for unbounded families."""
        return self.machine.deepest


def _check_digit(m: int, digit: int) -> int:
    """`digit` as an int in range(m), for a validated `m`."""
    if not 0 <= _integer(digit, "digit") < m:
        raise ValidationError(f"digit {digit} out of range for branching {m}")
    return int(digit)


def _integer(value, what: str) -> int:
    if not _is_integer(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


# ----------------------------------------------------------------------
# the level scan over automaton state classes
# ----------------------------------------------------------------------


def _scan(machine, counts: dict, members: set, level: int, cap: int, stop=None, firsts=None):
    """Yield (level, counts, members, firsts) from the map `counts` {(state,
    below a member): vertex count} at `level` down, capping each map;
    `members` holds its member classes.  A class sends count *
    multiplicity to each of its children, flagged below a member from a
    member class on.  Without `stop` the scan moves a level at a time, and
    with `firsts` {class: first vertex} it keeps each class's first vertex:
    the chain (its first parent's vertex, first digit), the root's ``()``.
    With `stop` it crosses up to the least ``gap`` of its classes at once
    and ends at `stop`; the class count is the same on every level a jump
    crosses, so the cap names the first.
    """
    children, gap, is_member = machine.children, machine.gap, machine.is_member
    _check_scan_size(level, len(counts), cap)
    while True:
        yield level, counts, members, firsts
        n = 1
        if stop is not None:
            if level >= stop:
                return
            n = stop - level
            for ks, _below in counts:
                n = min(n, gap(ks))
                if n == 1:
                    break
        new, hits, chains = {}, set(), None if firsts is None else {}
        get = new.get
        for key, count in counts.items():
            ks, below = key
            below = below or key in members
            for child, d, k in children(ks, n):
                child_key = child, below
                old = get(child_key)
                if old is None:
                    new[child_key] = count * k
                    if is_member(child):
                        hits.add(child_key)
                    if chains is not None:
                        chains[child_key] = (firsts[key], d)
                else:
                    new[child_key] = old + count * k
        _check_scan_size(level + 1, len(new), cap)
        counts, members, firsts, level = new, hits, chains, level + n


def _vertex(m: int, path) -> Vertex:
    """The vertex of a witness chain."""
    digits = []
    while path:
        path, d = path
        digits.append(d)
    return Vertex._of(m, tuple(reversed(digits)))


def _check_scan_size(level: int, size: int, cap: int) -> None:
    if size > cap:
        raise exceeded(f"level {level} scan needs {size} state classes", cap)


def _first_member(machine, counts: dict, members: set, level: int, max_offset: int, cap: int):
    """Least offset n in 1..max_offset at which a member descends from a
    nonzero-count class of the map `counts` at `level` (a count-0 class is
    only carried).  Returns (offset | None, definitive, levels scanned, the
    map and member classes it stopped at); without a member, only a
    repeated set of nonzero-count states on a ``fixpoint`` machine is
    definitive."""
    seen = set()
    for depth, counts, members, _ in _scan(machine, counts, members, level, cap, level + max_offset):
        n = depth - level
        if n and any(counts[key] for key in members):
            return n, True, n, counts, members
        if machine.fixpoint:
            current = frozenset(ks for (ks, _below), count in counts.items() if count)
            if current in seen:
                return None, True, n, counts, members
            seen.add(current)
    return None, False, n, counts, members


def _members(counts: dict, members: set) -> int:
    """The member vertices of a class map."""
    return sum(counts[key] for key in members)


def _walk(machine, cap: int):
    """The scan from the root a level at a time, keeping first vertices; it
    starts below a member, so it keeps one class per state."""
    start = (machine.initial(), True)
    members = {start} if machine.is_member(start[0]) else set()
    return _scan(machine, {start: 1}, members, 0, cap, firsts={start: ()})


class _InteriorMachine(_Machine):
    """A machine paired with the flag "every digit so far was 0"; its
    members are the wrapped machine's members off the all-zero path, whose
    expansion points lie in the open interior of the start interval."""

    def __init__(self, machine):
        self.machine = machine
        self.m = machine.m
        self.fixpoint = machine.fixpoint

    def is_member(self, state) -> bool:
        ks, all_zero = state
        return not all_zero and self.machine.is_member(ks)

    def children(self, state, n=1):
        """Digit 0 continues the all-zero path.  The other digits to its child
        start an off-path copy, whose least digit g is the least that no
        other child claims: every machine here lists at most one child
        reached by more than one digit."""
        ks, all_zero = state
        kids = [((c, False), d, k) for c, d, k in self.machine.children(ks)]
        if all_zero:
            (c, _), _, k = kids[0]
            kids[0] = ((c, True), 0, 1)
            if k > 1:
                g = next(g for g in range(1, len(kids) + 1) if g == len(kids) or kids[g][1] != g)
                kids.insert(g, ((c, False), g, k - 1))
        return kids


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


def _check_resolution(m: int, d: int) -> None:
    """Refuse a resolution d whose witness, m**-d wide, prints as a point: a
    double is positive only above 2**-1075.  Since 2**(b - 1) <= m < 2**b
    for b = m.bit_length(), m**d is formed only where d * b > 1075 > d * (b - 1)."""
    b = m.bit_length()
    if d * (b - 1) >= 1075 or (d * b > 1075 and m**d >= 2**1075):
        raise CapacityError(
            f"density resolution {d} is too deep: a level-{d} witness interval "
            f"is {m}**-{d} wide, below the smallest double"
        )


def density_check(U: SubsetSpec, resolution_level: int) -> DensityResult:
    """Check that every interval at the given resolution contains an image
    point of U in its interior; on failure return a witness interval.

    Whole levels, and a set trusted below its deepest member where that
    lies no deeper than the resolution, are answered in closed form,
    without a level walk.  A
    resolution d with m**d >= 2**1075 is refused with CapacityError: its
    witness would print as a point, and no walk goes deeper."""
    if resolution_level < 0:
        raise ValidationError("resolution level must be >= 0")
    if resolution_level > U.depth_bound:
        raise InsufficientDepthError(
            f"resolution {resolution_level} exceeds trusted depth {U.depth_bound}"
        )
    _check_resolution(U.m, resolution_level)
    # closed form: an interior image point below a level-d vertex needs a
    # member strictly deeper than d, where membership is trusted; a whole
    # level deeper than d gives each one
    machine, cap = U.machine, size_cap()
    if machine.deepest is not None and machine.deepest <= resolution_level < U.depth_bound:
        witness = interval_of(Vertex(U.m, (0,) * resolution_level))
        return DensityResult(False, witness, resolution_level, True)
    if machine.whole_levels:
        return DensityResult(True, None, resolution_level, True)
    for level, _, _, firsts in _walk(machine, cap):
        if level == resolution_level:
            break
    interior = _InteriorMachine(machine)
    max_offset = min(U.depth_bound - resolution_level, _DENSITY_OFFSET_LIMIT)
    for (ks, _below), path in firsts.items():
        probe = {((ks, True), True): 1}
        offset, definitive = _first_member(interior, probe, set(), resolution_level, max_offset, cap)[:2]
        if offset is None:
            return DensityResult(False, interval_of(_vertex(U.m, path)), resolution_level, definitive)
    return DensityResult(True, None, resolution_level, True)


@dataclass(frozen=True)
class PaResult:
    holds: bool
    n: int | None
    scan_depth: int
    counterexample: Vertex | None = None
    #: some scanned level met no state unseen above it, so no deeper level
    #: does and every reachable state was probed
    closed: bool = field(default=False, repr=False)


def pa_check(U: SubsetSpec, n_max: int, scan_depth: int | None = None) -> PaResult:
    """Uniform hitting: from every vertex scanned, some descendant within
    n levels is a member.  Returns the least uniform n <= n_max, and
    whether the scan reached closure (`PaResult.closed`)."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if scan_depth is None:
        scan_depth = min(U.depth_bound - n_max, 16)
    if scan_depth < 0 or scan_depth + n_max > U.depth_bound:
        raise InsufficientDepthError(
            f"scanning to level {scan_depth} with lookahead {n_max} exceeds "
            f"trusted depth {U.depth_bound}"
        )
    machine, cap = U.machine, size_cap()
    worst, seen, closed = 0, set(), False
    for _, (level, _, _, firsts) in zip(range(scan_depth + 1), _walk(machine, cap)):
        if not closed:
            states = [ks for ks, _below in firsts]
            closed = seen.issuperset(states)
            seen.update(states)
        for (ks, _below), path in firsts.items():
            # a probe that starts below a member keeps one class per state
            offset = _first_member(machine, {(ks, True): 1}, set(), level, n_max, cap)[0]
            if offset is None:
                return PaResult(False, None, scan_depth, _vertex(U.m, path))
            worst = max(worst, offset)
    return PaResult(holds=True, n=worst, scan_depth=scan_depth, closed=closed)


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
            "density_definitive": None if self.density is None else self.density.definitive,
            "density_witness": (
                None
                if self.density is None or self.density.witness_gap is None
                else _float_ends(self.density.witness_gap)
            ),
            "pa_holds": None if self.pa is None else self.pa.holds,
            "pa_n": None if self.pa is None else self.pa.n,
            "verdict": self.verdict,
            "verdict_reason": self.verdict_reason,
            "notes": list(self.notes),
        }


def _float_ends(gap: Interval) -> dict:
    """A witness interval's ends as doubles, refused where they coincide."""
    left, right = float(gap.left), float(gap.right)
    if not left < right:
        raise CapacityError(f"the density witness interval at {left!r} is too narrow to print")
    return {"left": left, "right": right}


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
    root = (machine.initial(), False)
    counts = {root: 1}  # count 1: an eligible class
    members = {root} if machine.is_member(root[0]) else set()
    rho: list[int] = []
    eta: list[int] = []
    notes: list[str] = []
    p1_ok: bool | None = None
    p2_ok: bool | None = None
    p2_failed: list[int] = []
    divergence: list[int] = []
    frontier_empty_at: int | None = None
    terminated = inconclusive = False

    if members:
        notes.append("the root itself is a member; ladder starts at level 1")

    for k in range(1, k_max + 1):
        base = level
        if not any(counts.values()):
            frontier_empty_at = base
            notes.append(f"level {base} is fully contained in U")
            break
        untouched = [ks for (ks, below), count in counts.items() if count and not below]
        max_probe = min(U.depth_bound - base, _RHO_PROBE_LIMIT)
        offset, definitive, scanned, counts, members = _first_member(
            machine, counts, members, base, max_probe, cap
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
            hits = _members(counts, members)
            p1_ok = hits == 1
            if not p1_ok:
                notes.append(f"{decimal(hits)} members at level {eta[0]}, so (P1) fails")
        else:
            # members at the new gap below each untouched frontier class;
            # none lies nearer, since untouched classes are eligible
            recounts = [
                _members(*_first_member(machine, {(ks, False): 1}, set(), base, offset, cap)[3:])
                for ks in untouched
            ]
            if recounts:
                if any(c != 1 for c in recounts):
                    p2_failed.append(k)
                if all(c == 0 for c in recounts):
                    # the witness for this gap lives below a frontier vertex
                    # that already sits under an earlier member
                    divergence.append(k)
            else:
                notes.append(f"stage {k} has an empty untouched frontier")
        # the next stage searches below the non-member classes only
        counts = {key: int(key not in members) for key in counts}
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


def criterion_verdict(rho_pattern, params: GameParams) -> CriterionVerdict:
    """Decide whether ``sum_k delta**rho_k`` diverges for a described sequence,
    with the delta of `params`.

    Explicit finite lists are undecidable (returns unknown with the
    partial sum); any infinitely repeated finite value forces divergence;
    arithmetic or geometric growth gives a convergent tail with a
    computable limit.
    """
    delta = params.delta
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
        machine = self._machine
        state = machine.initial()
        for d in v.digits:
            state = machine.step(state, d)
            if machine.is_member(state):
                return 0.0  # at and below a member
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
        m, levels = self.params.m, _walk(_CoveredMachine(self._machine), size_cap())
        for _, (level, _, _, firsts) in zip(range(max_level + 1), levels):
            yield level, {key[0]: _vertex(m, path).digits for key, path in firsts.items()}

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
                r = residual_at(self.value, Vertex(self.params.m, rep), self.params)
                if abs(r) > worst:
                    worst = abs(r)
                    worst_vertex = Vertex(self.params.m, rep)
        return ResidualCertificate(
            max_abs_residual=worst,
            worst_vertex=worst_vertex,
            levels_covered=max_level,
            classes_checked=classes,
        )


class _CoveredMachine(_Machine):
    """A counterexample field's classes: the set machine's state, or None at
    and below a member, where the field is 0.  None may come up as several
    children; the scan adds their counts."""

    def __init__(self, machine):
        self.machine, self.m = machine, machine.m
        self.initial = machine.initial  # the root is never a member

    def is_member(self, state) -> bool:
        return False

    def children(self, state, n=1):
        if state is None:
            return [(None, 0, self.m)]
        is_member = self.machine.is_member
        return [(None if is_member(c) else c, d, k) for c, d, k in self.machine.children(state)]


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
    pattern = U.machine.pattern
    if U.machine.whole_levels and U.max_member_level is None:
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
        pattern is not None
        and not pattern.is_finite
        and report.p1_ok is True
        and report.p2_ok is True
        and density.dense_up_to
        and report.frontier_empty_at is None
    ):
        series = criterion_verdict(pattern, params=params)
        if series.diverges is True:
            verdict = VERDICT_UCP
            reason = f"gap series diverges: {series.reason}"
        elif series.diverges is False:
            verdict = VERDICT_NO_UCP
            reason = (
                f"gap series converges (limit {series.limit_sum:.6g}): the "
                f"explicit bounded construction vanishes on U but not everywhere"
            )
    # hitting certifies only what the scan covers: every reachable state of
    # a finite automaton, with membership trusted at every depth
    if verdict is None and pa is not None and pa.holds:
        reason = f"every scanned vertex has a member descendant within {pa.n} levels"
        if U.depth_bound != UNBOUNDED_DEPTH:
            uncovered = f"membership is trusted only to depth {U.depth_bound}"
        elif not U.machine.fixpoint:
            uncovered = "the membership automaton is not finite-state"
        elif not pa.closed:
            uncovered = f"the scan to level {pa.scan_depth} met a new state on every level"
        else:
            verdict = VERDICT_UCP
        if verdict is None:
            reason += f", but {uncovered}, so hitting does not certify"
    if verdict is None:
        depth = max(report.depth_scanned, effective_resolution)
        verdict = f"inconclusive-at-depth-{depth}"
        reason = reason or "finite-depth evidence does not decide unique continuation"

    return replace(
        report,
        notes=tuple(notes),
        density=density,
        pa=pa,
        verdict=verdict,
        verdict_reason=reason,
    )
