"""Subset analysis: density, hitting, the gap ladder, and counterexamples."""

import collections
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phtree import (
    CapacityError,
    CounterexampleField,
    DensityResult,
    GameParams,
    InsufficientDepthError,
    RhoPattern,
    StructuralCheckError,
    SubsetSpec,
    ValidationError,
    Vertex,
    analyze,
    build_counterexample,
    compute_rho,
    criterion_verdict,
    density_check,
    enumerate_level,
    interval_of,
    pa_check,
    residual_at,
    root,
    unboundedness_probe,
)
from phtree.ucp import (
    UNBOUNDED_DEPTH,
    VERDICT_NO_UCP,
    VERDICT_UCP,
    _DigitRuleMachine,
    _FullLevelsMachine,
    _InteriorMachine,
    _PredicateMachine,
    _RhoGeneratedMachine,
    _TableMachine,
)

P = GameParams(3, 0.5, 0.5)
DELTA = 5 / 12


class TestRhoPattern:
    def test_finite_terms(self):
        pat = RhoPattern((1, 4, 1, 8), "finite")
        assert pat.terms(4) == (1, 4, 1, 8)
        assert pat.eta(4) == 14
        with pytest.raises(InsufficientDepthError):
            pat.term(5)

    def test_cycle_terms(self):
        pat = RhoPattern((1, 4), "cycle")
        assert pat.terms(5) == (1, 4, 1, 4, 1)
        assert pat.canonical_stage(3) == 1

    def test_arithmetic_and_geometric(self):
        assert RhoPattern((1,), "arithmetic", 1).terms(5) == (1, 2, 3, 4, 5)
        assert RhoPattern((2,), "geometric", 2).terms(4) == (2, 4, 8, 16)

    def test_stages_to_depth(self):
        pat = RhoPattern((1,), "arithmetic", 1)
        assert pat.stages_to_depth(21) == 6  # 1+2+...+6 = 21
        assert pat.stages_to_depth(22) == 7

    def test_parse_default_is_cyclic(self):
        pat = RhoPattern.parse("1,4,1,8,1,16")
        assert pat.continuation == "cycle"
        assert RhoPattern.parse("1,2;finite").continuation == "finite"
        assert RhoPattern.parse("1;arith=1").terms(3) == (1, 2, 3)
        assert RhoPattern.parse("1;geom=2").terms(3) == (1, 2, 4)
        with pytest.raises(ValidationError):
            RhoPattern.parse("1,0")
        with pytest.raises(ValidationError):
            RhoPattern.parse("1,2;bogus")

    @pytest.mark.parametrize("text", ["1;arith=", "1;geom=x", "1;arith=1.5"])
    def test_parse_rejects_malformed_steps(self, text):
        with pytest.raises(ValidationError, match="malformed rho descriptor"):
            RhoPattern.parse(text)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RhoPattern((1.5,)),
            lambda: RhoPattern((2, True), "cycle"),
            lambda: RhoPattern((1,), "arithmetic", 1.5),
            lambda: RhoPattern.coerce([2.5]),
        ],
    )
    def test_terms_and_steps_must_be_integers(self, build):
        with pytest.raises(ValidationError, match="must be an integer"):
            build()

    def test_numpy_integer_terms(self):
        pat = RhoPattern((np.int64(2),), "arithmetic", np.int64(1))
        assert pat.terms(3) == (2, 3, 4)
        assert type(pat.prefix[0]) is int and type(pat.step) is int


class TestMembership:
    def test_vertex_branching_mismatch_refused(self):
        with pytest.raises(ValidationError, match="vertex branching differs from the subset's"):
            SubsetSpec.last_digit(3, 0).contains(Vertex(2, (1, 0)))

    def test_last_digit(self):
        U = SubsetSpec.last_digit(3, 0)
        assert U.contains(Vertex(3, (2, 0)))
        assert not U.contains(Vertex(3, (0, 2)))
        assert not U.contains(root(3))

    def test_digit_avoiding(self):
        U = SubsetSpec.digit_avoiding(3, 1)
        assert U.contains(Vertex(3, (0, 2, 2)))
        assert not U.contains(Vertex(3, (0, 1)))
        assert not U.contains(root(3))

    def test_full_levels(self):
        U = SubsetSpec.full_levels(3, [2, 4])
        assert U.contains(Vertex(3, (1, 2)))
        assert not U.contains(Vertex(3, (1, 2, 0)))
        doubling = SubsetSpec.full_levels(3, [2, 4], rule="doubling")
        assert doubling.is_full_level(16)
        assert not doubling.is_full_level(12)
        assert doubling.next_full_level_after(9) == 16

    def test_rho_generated_first_stages(self):
        U = SubsetSpec.rho_generated(3, RhoPattern((1, 4), "cycle"), 0)
        # stage 1: the single all-0 path of length 1
        assert U.contains(Vertex(3, (0,)))
        assert not U.contains(Vertex(3, (1,)))
        # stage 2 members sit at level 5 below non-member level-1 vertices
        assert U.contains(Vertex(3, (1, 0, 0, 0, 0)))
        assert not U.contains(Vertex(3, (0, 0, 0, 0, 0)))  # stage root was a member
        assert not U.contains(Vertex(3, (1, 0, 0, 0)))  # between boundaries

    def test_rho_generated_reentry_below_members(self):
        # descendants of a member re-enter the set one full stage later
        U = SubsetSpec.rho_generated(3, RhoPattern((1, 4, 1), "finite"), 0)
        v = Vertex(3, (0, 1, 1, 1, 1, 0))  # below the stage-1 member (0)
        assert U.contains(v)

    def test_explicit_and_file(self, tmp_path):
        path = tmp_path / "members.txt"
        path.write_text("0.2.1\n1\n", encoding="utf-8")
        U = SubsetSpec.from_file(path, 3)
        assert U.contains(Vertex(3, (0, 2, 1)))
        assert U.contains(Vertex(3, (1,)))
        assert not U.contains(Vertex(3, (0, 2)))

    @pytest.mark.parametrize("digits, bad", [((5,), 5), ((0, 1, 7, 2), 7), ((-1,), -1)])
    def test_explicit_rejects_out_of_range_digits(self, digits, bad):
        with pytest.raises(ValidationError, match=f"^digit {bad} out of range for branching factor 3$"):
            SubsetSpec.explicit(3, [(0,), digits])

    @pytest.mark.parametrize("digits", [(True,), (1.5,), ("1",)], ids=["bool", "float", "str"])
    def test_explicit_rejects_non_integer_digits(self, digits):
        # these were truncated by int() and held (1,)
        with pytest.raises(ValidationError, match="^digits must be integers"):
            SubsetSpec.explicit(3, [(0,), digits])

    def test_explicit_rejects_other_branching(self):
        with pytest.raises(ValidationError, match="branching differs"):
            SubsetSpec.explicit(3, [Vertex(4, (3,))])
        with pytest.raises(ValidationError, match="branching differs"):
            SubsetSpec.explicit(3, [Vertex(2, (1,))])

    def test_parse_descriptors(self):
        assert SubsetSpec.parse("last-digit:0", 3).kind == "last-digit"
        assert SubsetSpec.parse("digit-avoiding:1", 3).digit == 1
        full = SubsetSpec.parse("full-levels:2,4,8;doubling", 3)
        assert full.level_rule == "doubling"
        rho = SubsetSpec.parse("rho:1,4;digit=2", 3)
        assert rho.digit == 2 and rho.rho.continuation == "cycle"
        with pytest.raises(ValidationError):
            SubsetSpec.parse("nonsense", 3)
        with pytest.raises(ValidationError):
            SubsetSpec.parse("last-digit:9", 3)
        with pytest.raises(ValidationError, match="lists no levels"):
            SubsetSpec.parse("full-levels:", 3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SubsetSpec.last_digit(3, 1.5),
            lambda: SubsetSpec.digit_avoiding(3, True),
            lambda: SubsetSpec.rho_generated(3, (1,), 1.0),
            lambda: SubsetSpec.full_levels(3, [1.5]),
            lambda: SubsetSpec.full_levels(3, [2, True]),
        ],
    )
    def test_descriptor_numbers_must_be_integers(self, build):
        with pytest.raises(ValidationError, match="must be an integer"):
            build()

    def test_numpy_integer_descriptors(self):
        U = SubsetSpec.last_digit(3, np.int64(1))
        assert U == SubsetSpec.last_digit(3, 1) and type(U.digit) is int
        assert SubsetSpec.full_levels(3, [np.int64(2)]).levels == (2,)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_digit_rules_match_their_definitions(self, m):
        vertices = [
            Vertex(m, digits)
            for level in range(6)
            for digits in itertools.product(range(m), repeat=level)
        ]
        for d in range(m):
            last, avoiding = SubsetSpec.last_digit(m, d), SubsetSpec.digit_avoiding(m, d)
            for v in vertices:
                assert last.contains(v) == (bool(v.digits) and v.digits[-1] == d)
                assert avoiding.contains(v) == (bool(v.digits) and d not in v.digits)

    def test_digit_rule_tables_have_three_rows(self):
        # the root and the two digit classes, with no table of m entries:
        # each state reaches its children by digit 7 and by the m - 1 others
        m = 10**5
        for U in (SubsetSpec.last_digit(m, 7), SubsetSpec.digit_avoiding(m, 7)):
            assert [k for _, _, k in U.machine.children(0)] == [m - 1, 1]
            assert U.contains(Vertex(m, (7, 3, 7))) == (U.kind == "last-digit")

    def test_numpy_integer_branching(self):
        U = SubsetSpec.last_digit(np.int64(3), 1)
        assert U == SubsetSpec.last_digit(3, 1) and type(U.m) is int
        with pytest.raises(ValidationError):
            SubsetSpec.last_digit(True, 0)

    def test_machine_built_once(self):
        U = SubsetSpec.explicit(3, [(0, 1), (2,)])
        twin = SubsetSpec.explicit(3, [(2,), (0, 1)])
        assert U.machine is U.machine
        assert U.contains(Vertex(3, (0, 1)))
        # the cached machine is not a field: equality and hashing ignore it
        assert U == twin and hash(U) == hash(twin)
        assert len({U, twin}) == 1

    def test_depth_bound_enforced(self):
        U = SubsetSpec.predicate(3, lambda v: v.level == 1, depth_bound=4)
        with pytest.raises(InsufficientDepthError):
            U.contains(Vertex(3, (0,) * 5))


class TestSizeCap:
    """Every scan checks the size cap on each level it builds."""

    NEVER = SubsetSpec.predicate(3, lambda v: False, depth_bound=10)

    def test_density_check(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "100")
        with pytest.raises(CapacityError, match="level 5 scan needs 243 state classes"):
            density_check(self.NEVER, 0)

    def test_pa_check(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "100")
        with pytest.raises(CapacityError, match="level 5 scan needs 243 state classes"):
            pa_check(self.NEVER, 6)

    def test_compute_rho(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "100")
        with pytest.raises(CapacityError, match="level 5 scan needs 243 state classes"):
            compute_rho(self.NEVER, P, 3)

    def test_compute_rho_caps_the_stage_class_map(self, monkeypatch):
        # the stage's class map reaches 64 classes at level 6, a level
        # before the states below its eligible classes do
        U = SubsetSpec.predicate(
            2, lambda v: v.level % 2 == 1 and sum(v.digits) % 2 == 0, depth_bound=7
        )
        monkeypatch.setenv("PHTREE_SIZE_CAP", "60")
        with pytest.raises(CapacityError, match="level 6 scan needs 64 state classes"):
            compute_rho(U, GameParams(2, 0.5, 0.5), 6)

    def test_density_and_hitting_count_one_class_per_state(self, monkeypatch):
        # 3 states from level 1 on, but 6 (state, below a member) pairs at level 2
        U = SubsetSpec.last_digit(3, 0)
        monkeypatch.setenv("PHTREE_SIZE_CAP", "5")
        assert density_check(U, 3).dense_up_to
        assert pa_check(U, 3).n == 1

    def test_class_walk_counts_the_field_classes(self, monkeypatch):
        # every state at and below a member is the one class None
        field = build_counterexample(RhoPattern((1,), "arithmetic", 1), P, 10)
        monkeypatch.setenv("PHTREE_SIZE_CAP", "3")
        assert [len(reps) for _, reps in field.class_representatives(8)] == [1, 2, 3, 2, 3, 3, 2, 3, 3]

    def test_within_cap_unchanged(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", str(10**5))
        assert not density_check(self.NEVER, 0).dense_up_to
        assert compute_rho(self.NEVER, P, 3).inconclusive_ladder


class TestWitnesses:
    """Witness vertices come back in root-to-leaf digit order at the scanned level."""

    # every level-4 vertex of m=3 except the three below (2, 0, 1)
    HOLED = SubsetSpec.explicit(
        3,
        [d for d in itertools.product(range(3), repeat=4) if d[:3] != (2, 0, 1)],
    )

    def test_pa_counterexample(self):
        result = pa_check(self.HOLED, n_max=4, scan_depth=3)
        assert not result.holds
        assert result.counterexample.digits == (2, 0, 1)

    def test_density_witness_gap(self):
        gap = density_check(self.HOLED, 3).witness_gap
        assert gap.width == Fraction(1, 3**3)
        assert gap.left == Fraction(19, 27)


class TestWitnessOracle:
    """Every reported witness is the first vertex, in index order, that the
    scan's own definition accepts, found by enumerating the level."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_density_and_hitting(self, data):
        m = data.draw(st.sampled_from([2, 3]))
        digits = st.lists(st.integers(0, m - 1), max_size=5).map(tuple)
        members = data.draw(st.sets(digits, max_size=10))
        U = SubsetSpec.explicit(m, members)

        def below(v, lookahead):  # the members strictly below v within lookahead levels
            return [u for u in members if v.level < len(u) <= v.level + lookahead and u[: v.level] == v.digits]

        r = data.draw(st.integers(0, 5))
        # an interior image point: a member strictly below, off the all-zero path
        gaps = [v for v in enumerate_level(m, r) if not any(any(u[r:]) for u in below(v, 5))]
        result = density_check(U, r)
        assert (result.dense_up_to, result.definitive) == (not gaps, True)
        assert result.witness_gap == (interval_of(gaps[0]) if gaps else None)

        n, depth = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
        scanned = [v for level in range(depth + 1) for v in enumerate_level(m, level)]
        offsets = [min((len(u) - v.level for u in below(v, n)), default=None) for v in scanned]
        result = pa_check(U, n, depth)
        if None in offsets:
            expected = (False, None, scanned[offsets.index(None)])
        else:
            expected = (True, max(offsets), None)
        assert (result.holds, result.n, result.counterexample) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_class_representatives(self, data):
        m = data.draw(st.sampled_from([2, 3]))
        prefix = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        continuation = data.draw(st.sampled_from(["cycle", "arithmetic", "geometric"]))
        step = data.draw(st.integers(int(continuation == "geometric"), 2))
        digit = data.draw(st.integers(0, m - 1))
        field = CounterexampleField(RhoPattern(prefix, continuation, step), GameParams(m, 0.5, 0.5), 6, digit)
        U = field.subset()
        machine = U.machine

        def class_of(v):  # None at and below a member, else the automaton state
            if any(U.contains(v.ancestor(level)) for level in range(v.level + 1)):
                return None
            state = machine.initial()
            for d in v.digits:
                state = machine.step(state, d)
            return state

        for level, reps in field.class_representatives(5):
            first: dict = {}
            for v in enumerate_level(m, level):
                first.setdefault(class_of(v), v.digits)
            assert list(reps.items()) == list(first.items())


class _PrefixMachine:
    """Reference automaton for explicit sets: a state is the digit tuple read
    so far while it is a prefix of some member, else None (dead)."""

    fixpoint = True

    def __init__(self, m, members):
        self.m = m
        self.members = members
        self.prefixes = {d[:k] for d in members for k in range(len(d) + 1)}

    def initial(self):
        return () if self.prefixes else None

    def step(self, state, digit):
        child = None if state is None else state + (digit,)
        return child if child in self.prefixes else None

    def is_member(self, state):
        return state in self.members

    def gap(self, state):
        return 1

    def children(self, state, n=1):
        first, count = {}, collections.Counter()
        for d in range(self.m):
            child = self.step(state, d)
            first.setdefault(child, d)
            count[child] += 1
        return [(child, d, count[child]) for child, d in first.items()]


@st.composite
def _explicit_sets(draw):
    m = draw(st.sampled_from([2, 3, 4]))
    digits = st.lists(st.integers(0, m - 1), max_size=6).map(tuple)
    return m, draw(st.lists(digits, max_size=40)), draw(st.lists(digits, max_size=10))


class TestExplicitTrie:
    """The integer trie answers every scan exactly as the prefix automaton."""

    @settings(max_examples=60, deadline=None)
    @given(_explicit_sets(), st.integers(0, 7))
    def test_matches_prefix_oracle(self, case, resolution):
        m, members, probes = case
        params = GameParams(m, 0.5, 0.5)
        trie = SubsetSpec.explicit(m, members)
        oracle = SubsetSpec.explicit(m, members)
        oracle.__dict__["machine"] = _PrefixMachine(m, oracle.members)
        assert compute_rho(trie, params, 6) == compute_rho(oracle, params, 6)
        assert density_check(trie, resolution) == density_check(oracle, resolution)
        assert pa_check(trie, 4) == pa_check(oracle, 4)
        for digits in probes + members:
            v = Vertex(m, digits)
            assert trie.contains(v) == oracle.contains(v)

    @settings(max_examples=150, deadline=None)
    @given(_explicit_sets(), st.booleans(), st.integers(-1, 2))
    @example((2, [], []), False, 0)
    @example((3, [()], []), False, 2)
    @example((3, [(), (1, 2)], []), False, -1)
    def test_closed_form_matches_level_walk(self, case, with_root, shift):
        """At and past its deepest member an explicit set is answered in
        closed form; a predicate spec over the prefix automaton walks the
        levels instead, and both give the same result."""
        m, members, _probes = case
        U = SubsetSpec.explicit(m, members + [()] * with_root)
        walk = SubsetSpec.predicate(m, lambda v: v.digits in U.members, UNBOUNDED_DEPTH)
        walk.__dict__["machine"] = _PrefixMachine(m, U.members)
        resolution = max(U.max_member_level + shift, 0)
        assert density_check(U, resolution) == density_check(walk, resolution)

    def test_closed_form_takes_no_step(self):
        """From the deepest member's level on, density_check never visits
        the set's machine; one level above it, it walks."""
        U = SubsetSpec.explicit(3, [(1,), (0, 2), (2, 1, 0)])
        steps = []

        class CountingMachine(_PrefixMachine):
            def children(self, state, n=1):
                steps.append(state)
                return super().children(state, n)

        U.__dict__["machine"] = CountingMachine(3, U.members)
        for resolution in (3, 4, 10):
            result = density_check(U, resolution)
            witness = interval_of(Vertex(3, (0,) * resolution))
            assert result == DensityResult(False, witness, resolution, True)
        assert steps == []
        assert density_check(U, 2).dense_up_to is False
        assert steps


def _reference_ladder(m, members, k_max):
    """The gap ladder by its definitions, from the member tuples alone."""
    rho, eta, p2_failed, divergence = [], [], [], []
    p1_ok = frontier_empty_at = None
    terminated = False
    base = 0
    for k in range(1, k_max + 1):
        level = itertools.product(range(m), repeat=base)
        eligible = [v for v in level if k == 1 or v not in members]
        if not eligible:
            frontier_empty_at = base
            break
        offsets = [len(u) - base for u in members if len(u) > base and u[:base] in eligible]
        if not offsets:
            terminated = True
            break
        offset = min(offsets)
        rho.append(offset)
        eta.append(base + offset)
        hits = [u for u in members if len(u) == base + offset]
        if k == 1:
            p1_ok = len(hits) == 1
        else:
            untouched = [v for v in eligible if not any(v[:j] in members for j in range(base))]
            counts = [sum(u[:base] == v for u in hits) for v in untouched]
            if any(c != 1 for c in counts):
                p2_failed.append(k)
            if counts and not any(counts):
                divergence.append(k)
        base += offset
    return (
        tuple(rho), tuple(eta), p1_ok, (not p2_failed) if len(rho) >= 2 else None,
        tuple(p2_failed), tuple(divergence), frontier_empty_at, terminated,
    )


class TestLadderReference:
    """compute_rho agrees with the ladder's definitions applied vertex by vertex."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_vertex_enumeration(self, data):
        m = data.draw(st.sampled_from([2, 3]))
        digits = st.lists(st.integers(0, m - 1), max_size=5).map(tuple)
        members = data.draw(st.sets(digits, max_size=10))
        k_max = data.draw(st.integers(1, 6))
        r = compute_rho(SubsetSpec.explicit(m, members), GameParams(m, 0.5, 0.5), k_max)
        assert (
            r.rho, r.eta, r.p1_ok, r.p2_ok, r.p2_failed_stages, r.quantifier_divergence,
            r.frontier_empty_at, r.ladder_terminated,
        ) == _reference_ladder(m, members, k_max)


class TestDensity:
    def test_digit_avoiding_gap_at_resolution_one(self):
        result = density_check(SubsetSpec.digit_avoiding(3, 1), 1)
        assert not result.dense_up_to
        assert result.definitive
        gap = result.witness_gap
        assert gap.left == Fraction(1, 3)
        assert gap.right == Fraction(2, 3)

    def test_last_digit_dense(self):
        for d in (1, 2, 4):
            result = density_check(SubsetSpec.last_digit(3, 0), d)
            assert result.dense_up_to and result.definitive

    def test_full_tree_dense(self):
        everything = SubsetSpec.predicate(3, lambda v: v.level >= 1, depth_bound=12)
        assert density_check(everything, 2).dense_up_to

    def test_full_levels_closed_form(self):
        finite = SubsetSpec.full_levels(3, [2])
        assert density_check(finite, 1).dense_up_to
        deeper = density_check(finite, 3)
        assert not deeper.dense_up_to and deeper.definitive
        doubling = SubsetSpec.full_levels(3, [2], rule="doubling")
        assert density_check(doubling, 9).dense_up_to

    def test_resolution_beyond_trust_raises(self):
        U = SubsetSpec.predicate(3, lambda v: False, depth_bound=2)
        with pytest.raises(InsufficientDepthError):
            density_check(U, 3)

    def test_predicate_failure_is_not_definitive(self):
        U = SubsetSpec.predicate(3, lambda v: v.digits == (0,), depth_bound=6)
        result = density_check(U, 2)
        assert not result.dense_up_to
        assert not result.definitive  # unstructured oracle, bounded search

    def test_explicit_failure_is_definitive(self):
        U = SubsetSpec.explicit(3, [(0,)])
        result = density_check(U, 2)
        assert not result.dense_up_to
        assert result.definitive  # prefix automaton reaches a dead fixpoint


class TestPa:
    def test_last_digit_holds_with_one(self):
        result = pa_check(SubsetSpec.last_digit(3, 0), n_max=4)
        assert result.holds and result.n == 1

    def test_digit_avoiding_fails_every_lookahead(self):
        for n_max in (1, 3, 6):
            result = pa_check(SubsetSpec.digit_avoiding(3, 1), n_max=n_max)
            assert not result.holds
            # the witness has digit 1 somewhere, so no member lies below it
            assert 1 in result.counterexample.digits

    def test_full_levels_gap_bound(self):
        U = SubsetSpec.full_levels(3, [2, 4, 8])
        assert not pa_check(U, n_max=3, scan_depth=7).holds
        result = pa_check(U, n_max=4, scan_depth=7)
        assert result.holds and result.n == 4
        # scanning past the deepest member level breaks uniform hitting
        assert not pa_check(U, n_max=4, scan_depth=9).holds

    def test_rho_cycle_short_gaps(self):
        U = SubsetSpec.rho_generated(3, RhoPattern((1,), "cycle"), 0)
        result = pa_check(U, n_max=3)
        assert result.holds and result.n == 2

    def test_insufficient_depth(self):
        U = SubsetSpec.predicate(3, lambda v: True, depth_bound=3)
        with pytest.raises(InsufficientDepthError):
            pa_check(U, n_max=2, scan_depth=2)

    def test_pa_implies_dense(self):
        specs = [SubsetSpec.last_digit(3, d) for d in range(3)]
        specs.append(SubsetSpec.rho_generated(3, RhoPattern((1,), "cycle"), 0))
        for U in specs:
            if pa_check(U, n_max=4).holds:
                assert density_check(U, 3).dense_up_to


def _any_subset(data, m):
    """A subset of every kind of machine, with room for a few levels below
    the states the tests draw."""
    kind = data.draw(st.sampled_from(
        ["last-digit", "digit-avoiding", "full-levels", "rho", "explicit", "prefix", "predicate"]
    ))
    digit = data.draw(st.integers(0, m - 1))
    if kind == "last-digit":
        return SubsetSpec.last_digit(m, digit)
    if kind == "digit-avoiding":
        return SubsetSpec.digit_avoiding(m, digit)
    if kind == "full-levels":
        levels = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        return SubsetSpec.full_levels(m, levels, data.draw(st.sampled_from([None, "doubling"])))
    if kind == "rho":
        prefix = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
        continuation = data.draw(st.sampled_from(["finite", "cycle", "arithmetic", "geometric"]))
        step = data.draw(st.integers(int(continuation == "geometric"), 2))
        return SubsetSpec.rho_generated(m, RhoPattern(prefix, continuation, step), digit)
    members = data.draw(st.sets(st.lists(st.integers(0, m - 1), max_size=5).map(tuple), max_size=8))
    if kind == "predicate":
        return SubsetSpec.predicate(m, lambda v: v.digits in members, UNBOUNDED_DEPTH)
    U = SubsetSpec.explicit(m, members)
    if kind == "prefix":
        U.__dict__["machine"] = _PrefixMachine(m, U.members)
    return U


class TestChildren:
    """Every machine gives the children of a state n <= gap levels down as
    the states ``step`` reaches over all m**n digit strings, each with its
    least first digit and its number of strings, in order of least string;
    a table lists each digit's child, which adds up to the same."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_children_match_steps(self, data):
        m = data.draw(st.integers(2, 4))
        U = _any_subset(data, m)
        machine, step = U.machine, U.machine.step
        state = machine.initial()
        if data.draw(st.booleans()):
            # the density probe's machine, from on or off the all-zero path
            inner, machine = machine, _InteriorMachine(machine)
            state = (state, data.draw(st.booleans()))

            def step(state, digit):
                return inner.step(state[0], digit), state[1] and digit == 0

        depth = data.draw(st.integers(0, min(8, U.depth_bound - 1)))
        for digit in data.draw(st.lists(st.integers(0, m - 1), min_size=depth, max_size=depth)):
            state = step(state, digit)
        n = data.draw(st.integers(1, min(machine.gap(state), 4, U.depth_bound - depth)))
        expected: dict = {}
        for digits in itertools.product(range(m), repeat=n):
            end = state
            for level, digit in enumerate(digits):
                assert not (level and machine.is_member(end))  # none before the gap
                end = step(end, digit)
            expected.setdefault(end, [digits[0], 0])[1] += 1
        listed: dict = {}
        for child, digit, count in machine.children(state, n):
            listed.setdefault(child, [digit, 0])[1] += count
        assert list(listed.items()) == list(expected.items())
        if not isinstance(U.machine, _TableMachine):
            assert len(list(machine.children(state, n))) == len(expected)

    def test_rho_gap_is_the_rest_of_the_stage(self):
        machine = SubsetSpec.parse("rho:3,5;arith=2", 3).machine
        assert [machine.gap((k, i, True, False)) for k, i in [(1, 0), (1, 2), (1, 3), (2, 1), (3, 4)]] == [
            3, 1, 1, 4, 3,
        ]

    def test_no_scan_steps(self, monkeypatch):
        """analyze and the counterexample's class walk reach every state
        through ``children``; ``step`` serves ``contains`` and field values."""

        def refuse(machine, state, digit):
            raise AssertionError(f"{type(machine).__name__}.step called")

        for machine in (
            _DigitRuleMachine, _TableMachine, _RhoGeneratedMachine, _FullLevelsMachine, _PredicateMachine
        ):
            monkeypatch.setattr(machine, "step", refuse)
        for text in (
            "last-digit:0", "digit-avoiding:1", "full-levels:2,5", "full-levels:1,3;doubling",
            "rho:1,4,1,8,1,16", "rho:1,2;arith=1", "rho:1,2,3;finite", "rho:1,3;digit=1",
        ):
            analyze(SubsetSpec.parse(text, 3), P, 6)
        analyze(SubsetSpec.explicit(3, [(1,), (0, 2), (2, 1, 0, 1, 2, 2)]), P, 6, resolution=3)
        analyze(SubsetSpec.predicate(3, lambda v: v.digits[-1:] == (0,), depth_bound=9), P, 4, 2, 3)
        field = build_counterexample(RhoPattern((1,), "arithmetic", 1), P, 8)
        assert len(list(field.class_representatives(8))) == 9


class TestComputeRho:
    def test_params_branching_mismatch_refused(self):
        with pytest.raises(ValidationError, match="params branching factor differs"):
            compute_rho(SubsetSpec.last_digit(3, 0), GameParams(2, 0.5, 0.5), 4)

    def test_round_trip_alternating_gaps(self):
        pattern = RhoPattern((1, 4, 1, 8, 1, 16), "cycle")
        report = compute_rho(SubsetSpec.rho_generated(3, pattern, 0), P, 6)
        assert report.rho == (1, 4, 1, 8, 1, 16)
        assert report.eta == (1, 5, 6, 14, 15, 31)
        assert report.p1_ok and report.p2_ok
        assert report.quantifier_divergence == ()
        assert report.partial_sum == pytest.approx(
            sum(DELTA**r for r in (1, 4, 1, 8, 1, 16))
        )

    def test_round_trip_random_patterns(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            gaps = tuple(int(g) for g in rng.integers(1, 5, size=4))
            pattern = RhoPattern(gaps, "finite")
            U = SubsetSpec.rho_generated(3, pattern, digit=1)
            report = compute_rho(U, P, 4)
            assert report.rho == gaps
            assert report.p1_ok and report.p2_ok
            partial_sums = []
            total = 0
            for g in gaps:
                total += g
                partial_sums.append(total)
            assert report.eta == tuple(partial_sums)

    def test_stage_lengths_looked_up_once(self, monkeypatch):
        calls = collections.Counter()
        term = RhoPattern.term

        def counting_term(pattern, k):
            calls[k] += 1
            return term(pattern, k)

        monkeypatch.setattr(RhoPattern, "term", counting_term)
        report = compute_rho(SubsetSpec.parse("rho:1,2;arith=1", 3), P, k_max=40)
        assert report.rho == tuple(range(1, 41))
        assert set(calls) >= set(range(1, 41)) and max(calls.values()) == 1

    def test_each_stage_level_stepped_once(self, monkeypatch):
        # one walk of the class map per stage plus the (P2) recounts, each
        # moving its classes one level down from a stage's boundary, then
        # jumping to the next boundary: one call per class and crossing
        calls = collections.Counter()
        children = _RhoGeneratedMachine.children

        def counting_children(machine, state, n=1):
            calls[n > 1] += 1
            return children(machine, state, n)

        monkeypatch.setattr(_RhoGeneratedMachine, "children", counting_children)
        compute_rho(SubsetSpec.parse("rho:1,2;arith=1", 3), P, k_max=40)
        assert calls == {False: 274, True: 304}

    def test_membership_tested_once_per_class_and_level(self):
        calls = collections.Counter()

        def last_digit_zero(v):
            calls[v.digits] += 1
            return v.digits[-1:] == (0,)

        U = SubsetSpec.predicate(2, last_digit_zero, depth_bound=9)
        assert compute_rho(U, GameParams(2, 0.5, 0.5), 8).rho == (1,) * 8
        # a predicate state is its vertex: every vertex to level 8 once, and
        # the (P2) recount of each later stage tests the two children of its
        # one untouched vertex (1,) * k again
        recounted = {(1,) * k + (d,) for k in range(1, 8) for d in (0, 1)}
        vertices = itertools.chain.from_iterable(
            itertools.product((0, 1), repeat=level) for level in range(9)
        )
        assert calls == {v: 1 + (v in recounted) for v in vertices}

    def test_finite_pattern_still_raises_past_its_prefix(self):
        machine = SubsetSpec.parse("rho:1,2;finite", 3).machine
        state = machine.initial()
        for _ in range(4):
            state = machine.step(state, 0)
        for _ in range(2):
            with pytest.raises(InsufficientDepthError, match="only 2 terms, stage 3 requested"):
                machine.is_member(state)
            with pytest.raises(InsufficientDepthError, match="only 2 terms, stage 3 requested"):
                machine.step(state, 0)

    def test_single_vertex_predicate(self):
        U = SubsetSpec.predicate(3, lambda v: v.digits == (0,), depth_bound=5)
        report = compute_rho(U, P, 3)
        assert report.rho == (1,)
        assert report.p1_ok
        assert report.inconclusive_ladder

    def test_single_vertex_explicit_terminates(self):
        report = compute_rho(SubsetSpec.explicit(3, [(0,)]), P, 3)
        assert report.rho == (1,)
        assert report.p1_ok
        assert report.ladder_terminated
        assert not report.inconclusive_ladder

    def test_full_level_breaks_ladder(self):
        report = compute_rho(SubsetSpec.full_levels(3, [2]), P, 3)
        assert report.rho == (2,)
        assert report.p1_ok is False
        assert report.frontier_empty_at == 2
        assert "9 members at level 2, so (P1) fails" in report.notes

    def test_last_digit_constant_gaps(self):
        report = compute_rho(SubsetSpec.last_digit(3, 0), P, 6)
        assert report.rho == (1,) * 6
        assert report.p1_ok and report.p2_ok

    def test_quantifier_divergence_detected(self):
        # the third gap is witnessed only below a vertex that already sits
        # under the first member, which the untouched frontier excludes
        U = SubsetSpec.explicit(3, [(0,), (1, 0), (2, 0), (0, 1, 0)])
        report = compute_rho(U, P, 3)
        assert report.rho == (1, 1, 1)
        assert report.p1_ok
        assert report.p2_failed_stages == (3,)
        assert report.quantifier_divergence == (3,)

    def test_p2_counts_members_per_untouched_class(self):
        # below (1,) two members share the second gap, below (2,) one
        U = SubsetSpec.explicit(3, [(0,), (1, 0), (1, 1), (2, 0)])
        report = compute_rho(U, P, 3)
        assert report.rho == (1, 1)
        assert report.p1_ok
        assert report.p2_failed_stages == (2,)
        assert report.quantifier_divergence == ()


class TestCriterionVerdict:
    def test_repeated_value_diverges(self):
        verdict = criterion_verdict(RhoPattern((1, 4, 1, 8, 1, 16), "cycle"), params=P)
        assert verdict.diverges is True
        assert "1" in verdict.reason
        assert verdict.limit_sum == math.inf

    def test_linear_growth_converges_to_geometric_sum(self):
        verdict = criterion_verdict(RhoPattern((1,), "arithmetic", 1), params=P)
        assert verdict.diverges is False
        assert verdict.limit_sum == pytest.approx(DELTA / (1 - DELTA), abs=1e-12)
        assert verdict.limit_sum == pytest.approx(5 / 7, abs=1e-12)

    def test_bare_list_is_unknown(self):
        verdict = criterion_verdict((2, 2, 2), params=P)
        assert verdict.diverges is None
        assert verdict.partial_sum == pytest.approx(3 * DELTA**2)
        assert verdict.limit_sum is None

    def test_constant_tails_diverge(self):
        assert criterion_verdict(RhoPattern((3,), "arithmetic", 0), params=P).diverges
        assert criterion_verdict(RhoPattern((3,), "geometric", 1), params=P).diverges

    def test_geometric_growth_converges(self):
        params = GameParams(3, 0.4)  # delta = 0.2 + 0.6 / 3 = 0.4
        assert params.delta == pytest.approx(0.4, abs=1e-15)
        verdict = criterion_verdict(RhoPattern((1,), "geometric", 2), params=params)
        assert verdict.diverges is False
        expected = 0.4 + 0.4**2 + 0.4**4 + 0.4**8 + 0.4**16 + 0.4**32
        assert verdict.limit_sum == pytest.approx(expected, abs=1e-12)

    def test_delta_validation(self):
        """delta comes from params alone, and stays 1/m at m = 10**16 and
        alpha = 0, where 1 - theta would round to 0.0."""
        with pytest.raises(TypeError):
            criterion_verdict(RhoPattern((1,), "cycle"), P, delta=0.4)
        with pytest.raises(TypeError):
            criterion_verdict(RhoPattern((1,), "cycle"))
        assert GameParams(10**16, 0.0).delta == 1e-16


def _stage_values_by_recurrence(theta: float, rho: int, entry: float):
    """Solve the stage's linear system directly: entry = theta*M + delta*m_1,
    m_i = theta*M + delta*m_{i+1}, m_rho = 0.  Unknowns (M, m_1..m_{rho-1})."""
    delta = 1.0 - theta
    size = rho
    a = np.zeros((size, size))
    b = np.zeros(size)
    a[0, 0] = theta
    if rho > 1:
        a[0, 1] = delta
    b[0] = entry
    for i in range(1, rho):
        a[i, 0] = theta
        a[i, i] = a[i, i] - 1.0  # -m_i
        if i + 1 < rho:
            a[i, i + 1] = delta
    x = np.linalg.solve(a, b)
    return x[0], x[1:]


class TestCounterexample:
    def test_closed_form_matches_recurrence_oracle(self):
        for m, alpha in [(3, 0.5), (3, 1.0), (4, 0.25), (5, 0.7)]:
            params = GameParams(m, alpha, 1.0 - alpha)
            delta = params.delta
            entry = 1.0
            for rho in (1, 2, 3, 5):
                m_cap, path = _stage_values_by_recurrence(params.theta, rho, entry)
                assert m_cap == pytest.approx(entry / (1 - delta**rho), rel=1e-12)
                for i, value in enumerate(path, start=1):
                    assert value == pytest.approx(
                        m_cap * (1 - delta ** (rho - i)), rel=1e-12
                    )

    def test_first_stage_maximum(self):
        field = build_counterexample(RhoPattern((1,), "arithmetic", 1), P, 3)
        assert field.stage_maxima[0] == pytest.approx(12 / 7, rel=1e-14)
        # the root equation: 1 = theta*M_1 + delta*0
        assert P.theta * field.stage_maxima[0] == pytest.approx(1.0, rel=1e-14)
        assert field.value(root(3)) == 1.0

    def test_vanishes_on_generated_set(self):
        # the field is 0 exactly at and below the members of its subset
        for field in (
            build_counterexample(RhoPattern((1,), "arithmetic", 1), P, 10),
            CounterexampleField(RhoPattern((1, 2), "cycle"), P, 10),
        ):
            U = field.subset()
            for level in range(8):
                for digits in itertools.product(range(3), repeat=level):
                    v = Vertex(3, digits)
                    covered = any(U.contains(v.ancestor(l)) for l in range(level + 1))
                    assert (field.value(v) == 0.0) == covered

    def test_state_class_walk_matches_exhaustive_scan(self):
        field = build_counterexample(RhoPattern((1,), "arithmetic", 1), P, 6)
        cert = field.residual_certificate(5)
        worst = 0.0
        for level in range(6):
            seen_values = set()
            for digits in itertools.product(range(3), repeat=level):
                v = Vertex(3, digits)
                worst = max(worst, abs(residual_at(field.value, v, P)))
                seen_values.add(round(field.value(v), 12))
            rep_values = {
                round(field.value(Vertex(3, rep)), 12)
                for lvl, reps in field.class_representatives(level)
                if lvl == level
                for rep in reps.values()
            }
            assert seen_values == rep_values
        assert worst <= 1e-12
        assert cert.max_abs_residual <= 1e-12

    def test_maxima_match_direct_product(self):
        field = build_counterexample(RhoPattern((1,), "arithmetic", 1), P, 21)
        product = 1.0
        for k, m_k in enumerate(field.stage_maxima, start=1):
            product *= 1.0 / (1.0 - DELTA**k)
            assert m_k == pytest.approx(product, abs=1e-12)
        assert field.max_built_value == field.stage_maxima[-1]

    def test_finite_field_refuses_levels_past_its_terms(self):
        field = CounterexampleField(RhoPattern((1, 2, 3), "finite"), P, 6)
        with pytest.raises(InsufficientDepthError, match="stage 4 requested"):
            field.value(Vertex(3, (0,) * 7))
        walk = field.class_representatives(10)
        assert [level for level, _reps in itertools.islice(walk, 7)] == list(range(7))
        with pytest.raises(InsufficientDepthError, match="stage 4 requested"):
            next(walk)

    def test_sequence_pattern_is_coerced(self):
        field = CounterexampleField((1, 2), P, 3)
        assert field.pattern == RhoPattern((1, 2), "finite")
        reference = CounterexampleField(RhoPattern((1, 2), "finite"), P, 3)
        for digits in itertools.product(range(3), repeat=3):
            assert field.value(Vertex(3, digits)) == reference.value(Vertex(3, digits))

    def test_non_sequence_pattern_refused(self):
        with pytest.raises(ValidationError, match="rho pattern must be"):
            CounterexampleField(5, P, 3)

    def test_vertex_branching_mismatch_refused(self):
        field = CounterexampleField(RhoPattern((1, 2), "finite"), P, 3)
        with pytest.raises(ValidationError, match="vertex branching differs from the field's"):
            field.value(Vertex(2, (0, 1)))

    @pytest.mark.parametrize("depth", [2.5, True, 0, "3"])
    def test_bad_depth_refused(self, depth):
        with pytest.raises(ValidationError, match="depth must be"):
            CounterexampleField(RhoPattern((1,), "arithmetic", 1), P, depth)

    @pytest.mark.parametrize("max_level", [-1, 1.5, True])
    def test_bad_certificate_level_refused(self, max_level):
        field = build_counterexample(RhoPattern((1,), "arithmetic", 1), P, 4)
        with pytest.raises(ValidationError, match="max_level must be"):
            field.residual_certificate(max_level)

    def test_divergent_pattern_refused(self):
        with pytest.raises(StructuralCheckError):
            build_counterexample(RhoPattern((1,), "cycle"), P, 5)

    def test_undecided_pattern_refused(self):
        with pytest.raises(StructuralCheckError):
            build_counterexample(RhoPattern((1, 2, 3), "finite"), P, 6)


class TestUnboundednessProbe:
    def test_constant_gap_products(self):
        bounds = unboundedness_probe(SubsetSpec.last_digit(3, 0), P, 3)
        factor = 1.0 / (1.0 - DELTA)
        assert bounds == pytest.approx((factor, factor**2, factor**3), rel=1e-12)

    def test_zero_stages(self):
        assert unboundedness_probe(SubsetSpec.last_digit(3, 0), P, 0) == ()

    def test_two_stage_example(self):
        U = SubsetSpec.rho_generated(3, RhoPattern((1, 4), "finite"), 0)
        bounds = unboundedness_probe(U, P, 2)
        assert bounds[0] == pytest.approx(1 / (1 - DELTA))
        assert bounds[1] == pytest.approx(1 / ((1 - DELTA) * (1 - DELTA**4)))

    def test_refusal_when_uniqueness_fails(self):
        with pytest.raises(StructuralCheckError):
            unboundedness_probe(SubsetSpec.digit_avoiding(3, 1), P, 2)

    def test_refusal_when_p2_fails(self):
        # vertex 1 has two members one level below it: (P1) holds, (P2) not
        U = SubsetSpec.explicit(3, [(0,), (1, 0), (1, 1)])
        assert len(unboundedness_probe(U, P, 1)) == 1
        with pytest.raises(StructuralCheckError, match="per-frontier uniqueness check"):
            unboundedness_probe(U, P, 2)

    def test_negative_stage_count_refused(self):
        with pytest.raises(ValidationError, match="number of stages must be >= 0"):
            unboundedness_probe(SubsetSpec.last_digit(3, 0), P, -1)


class TestAnalyze:
    def test_digit_avoiding_refuted_by_density(self):
        report = analyze(SubsetSpec.digit_avoiding(3, 1), P)
        assert report.verdict == VERDICT_NO_UCP
        assert "interval" in report.verdict_reason

    def test_last_digit_certified_by_hitting(self):
        report = analyze(SubsetSpec.last_digit(3, 0), P)
        assert report.verdict == VERDICT_UCP
        assert report.pa.holds and report.pa.n == 1

    def test_full_levels_rule_certified_by_zero_propagation(self):
        report = analyze(SubsetSpec.full_levels(3, [2, 4, 8, 16], rule="doubling"), P)
        assert report.verdict == VERDICT_UCP
        assert "propagates" in report.verdict_reason

    def test_finite_full_levels_refuted(self):
        report = analyze(SubsetSpec.full_levels(3, [2]), P)
        assert report.verdict == VERDICT_NO_UCP

    def test_rho_cycle_certified_by_divergence(self):
        report = analyze(SubsetSpec.parse("rho:1,4,1,8,1,16", 3), P, k_max=6)
        assert report.verdict == VERDICT_UCP
        assert "diverges" in report.verdict_reason
        assert report.rho == (1, 4, 1, 8, 1, 16)

    def test_rho_arithmetic_refuted_by_construction(self):
        U = SubsetSpec.rho_generated(3, RhoPattern((1,), "arithmetic", 1), 0)
        report = analyze(U, P, k_max=5)
        assert report.verdict == VERDICT_NO_UCP
        assert "converges" in report.verdict_reason

    def test_explicit_set_refuted_definitively(self):
        report = analyze(SubsetSpec.explicit(3, [(0,), (1, 2)]), P)
        assert report.verdict == VERDICT_NO_UCP

    @pytest.mark.parametrize(
        "members, depth_scanned, notes",
        [
            ([()], 2, ["the root itself is a member; ladder starts at level 1"]),
            ([], 1, []),
        ],
        ids=["root-only", "empty"],
    )
    def test_root_only_and_empty_explicit_sets(self, members, depth_scanned, notes):
        report = analyze(SubsetSpec.explicit(3, members), P).to_json_obj()
        assert report == {
            "m": 3,
            "rho": [],
            "eta": [],
            "partial_sum": 0.0,
            "p1_ok": None,
            "p2_ok": None,
            "p2_failed_stages": [],
            "quantifier_divergence": [],
            "frontier_empty_at": None,
            "ladder_terminated": True,
            "inconclusive_ladder": False,
            "depth_scanned": depth_scanned,
            "density_dense": False,
            "density_witness": {"left": 0.0, "right": 1 / 27},
            "pa_holds": False,
            "pa_n": None,
            "verdict": VERDICT_NO_UCP,
            "verdict_reason": (
                "image of U misses an interval: a bounded +1/-1 two-subtree field "
                "inside the gap vanishes on U but not everywhere"
            ),
            "notes": [*notes, "no members exist below the level-0 frontier at any depth"],
        }

    @pytest.mark.parametrize("text, n", [("rho:6;finite", 6), ("rho:3,3;finite", 3)])
    def test_finite_ladder_not_certified_by_hitting(self, text, n):
        # +1 on the subtree of vertex 1.0 and -1 on that of 1.1 vanishes on
        # the set; every scanned vertex still has a member within n levels
        U = SubsetSpec.parse(text, 3)
        report = analyze(U, P)
        assert report.pa.holds and report.pa.n == n
        assert report.verdict == f"inconclusive-at-depth-{report.depth_scanned}"
        assert f"membership is trusted only to depth {U.depth_bound}" in report.verdict_reason

    def test_hitting_reason_names_an_infinite_automaton(self, monkeypatch):
        U = SubsetSpec.parse("last-digit:0", 3)
        monkeypatch.setattr(U.machine, "fixpoint", False)
        report = analyze(U, P)
        assert report.verdict.startswith("inconclusive-at-depth-")
        assert "the membership automaton is not finite-state" in report.verdict_reason

    def test_hitting_reason_names_an_open_scan(self, monkeypatch):
        monkeypatch.setattr(
            "phtree.ucp.pa_check",
            lambda U, n_max: dataclasses.replace(pa_check(U, n_max), closed=False),
        )
        report = analyze(SubsetSpec.parse("last-digit:0", 3), P)
        assert report.verdict.startswith("inconclusive-at-depth-")
        assert "the scan to level 16 met a new state on every level" in report.verdict_reason

    @pytest.mark.parametrize(
        "text, closed",
        [("last-digit:0", True), ("rho:1;cycle", True), ("rho:1,4,1,8,1,16", False), ("rho:1;arith=0", False)],
    )
    def test_hitting_scan_closure(self, text, closed):
        # the 31-level cycle does not close within the 16 scanned levels
        assert pa_check(SubsetSpec.parse(text, 3), 6).closed is closed

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_finite_depth_never_certified_by_hitting(self, data):
        """A set known only to a finite depth is never certified from
        hitting alone."""
        m = data.draw(st.integers(2, 3))
        d, r = data.draw(st.integers(0, m - 1)), data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            prefix = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
            U = SubsetSpec.rho_generated(m, RhoPattern(prefix, "finite"), d)
        else:
            rule = data.draw(st.sampled_from([
                lambda v: v.level >= r, lambda v: v.digits[-1:] == (d,), lambda v: v.level % r == 0 < v.level,
            ]))
            U = SubsetSpec.predicate(m, rule, data.draw(st.integers(1, 7)))
        k_max, resolution, pa_n_max = (data.draw(st.integers(lo, 6)) for lo in (1, 0, 1))
        report = analyze(U, GameParams(m, 0.5, 0.5), k_max, resolution, pa_n_max)
        assert report.verdict != VERDICT_UCP

    def test_unstructured_predicate_is_inconclusive(self):
        U = SubsetSpec.predicate(3, lambda v: v.digits == (0,), depth_bound=6)
        report = analyze(U, P, k_max=2, resolution=2, pa_n_max=2)
        assert report.verdict.startswith("inconclusive-at-depth")

    def test_report_json_schema(self):
        report = analyze(SubsetSpec.digit_avoiding(3, 1), P, resolution=1)
        obj = report.to_json_obj()
        assert obj["verdict"] == VERDICT_NO_UCP
        assert obj["density_dense"] is False
        assert obj["density_witness"] == {"left": pytest.approx(1 / 3), "right": pytest.approx(2 / 3)}
        assert set(obj) >= {
            "rho", "eta", "partial_sum", "p1_ok", "p2_ok", "pa_holds",
            "pa_n", "verdict", "verdict_reason", "notes",
        }


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: RhoPattern(()), ValidationError,
                 "rho pattern needs at least one explicit term", id="empty-prefix"),
    pytest.param(lambda: RhoPattern((1,), "spiral"), ValidationError,
                 "unknown continuation 'spiral'", id="unknown-continuation"),
    pytest.param(lambda: RhoPattern((1,), "arithmetic", -1), ValidationError,
                 "arithmetic step must be >= 0", id="negative-step"),
    pytest.param(lambda: RhoPattern((1,), "geometric", 0), ValidationError,
                 "geometric ratio must be >= 1", id="ratio-below-1"),
    pytest.param(lambda: RhoPattern((1,), "cycle").term(0), ValidationError,
                 "stage index must be >= 1, got 0", id="term-0"),
    pytest.param(lambda: RhoPattern.parse(";"), ValidationError, "empty rho descriptor",
                 id="empty-descriptor"),
    pytest.param(lambda: SubsetSpec.full_levels(3, [1], rule="tripling"), ValidationError,
                 "unknown full-levels rule 'tripling'", id="unknown-rule"),
    pytest.param(lambda: SubsetSpec.predicate(3, lambda v: True, depth_bound=0), ValidationError,
                 "predicate subsets need a positive depth bound", id="predicate-depth-0"),
    pytest.param(lambda: unboundedness_probe(SubsetSpec.full_levels(3, [1]), P, 1),
                 StructuralCheckError, "the first-stage uniqueness check (P1) failed",
                 id="probe-without-p1"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
