"""Exact geometry of the digit tree: expansion map, intervals, metric."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phtree import (
    CapacityError,
    ValidationError,
    Vertex,
    enumerate_level,
    interval_of,
    parse_vertex,
    psi,
    root,
    tree_distance,
    vertex_from_index,
)


class TestVertex:
    def test_root_has_level_zero(self):
        assert root(3).level == 0
        assert root(3).digits == ()

    def test_successors_extend_by_one_digit(self):
        v = Vertex(3, (0, 2))
        succ = v.successors()
        assert len(succ) == 3
        assert [s.digits for s in succ] == [(0, 2, 0), (0, 2, 1), (0, 2, 2)]
        assert all(s.level == v.level + 1 for s in succ)

    def test_digit_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Vertex(3, (0, 3))
        with pytest.raises(ValidationError):
            Vertex(1, (0,))
        with pytest.raises(ValidationError, match="^digit 4 out of range for branching factor 3$"):
            Vertex(3, (0, 4, 7))
        with pytest.raises(ValidationError, match="^digit -1 out of range"):
            Vertex(3, (1, -1))

    def test_numpy_integer_branching_accepted(self):
        v = Vertex(np.int64(3), (0, 2))
        assert v.m == 3 and type(v.m) is int
        assert v == Vertex(3, (0, 2))
        assert Vertex(np.int64(3), (1,)) == Vertex(3, (1,))
        assert Vertex(3, (np.int64(2),)).digits == (2,)

    def test_bool_branching_rejected(self):
        with pytest.raises(ValidationError):
            Vertex(True, ())

    @pytest.mark.parametrize(
        "digits", [(1.5, 2.9), ("1",), (True,), (0, False), (np.float64(1.0),)],
        ids=["float", "str", "bool", "false", "numpy-float"],
    )
    def test_non_integer_digits_rejected(self, digits):
        # digits used to be truncated by int(): (1.5, 2.9) was the vertex 1.2
        with pytest.raises(ValidationError, match="^digits must be integers"):
            Vertex(3, digits)
        with pytest.raises(ValidationError, match="^digits must be integers"):
            tree_distance(digits, (0,), m=3)
        with pytest.raises(ValidationError, match="^digits must be integers"):
            Vertex(3, (0,)).child(digits[-1])

    def test_derived_vertices_equal_checked_ones(self):
        # vertex_from_index, parent, ancestor and successors build their
        # vertices unchecked; they must be indistinguishable from checked ones
        v = vertex_from_index(np.int64(3), np.int64(4), np.int64(59))
        derived = [v, v.parent(), v.ancestor(0), v.ancestor(2), *v.successors()]
        for w in derived:
            checked = Vertex(3, w.digits)
            assert w == checked and hash(w) == hash(checked)
            assert type(w.m) is int and all(type(d) is int for d in w.digits)
        assert v.digits == (2, 0, 1, 2)
        assert [w.digits for w in derived[1:4]] == [(2, 0, 1), (), (2, 0)]

    def test_derived_vertex_range_errors(self):
        with pytest.raises(ValidationError, match="^index 9 out of range for level 2$"):
            vertex_from_index(3, 2, 9)
        with pytest.raises(ValidationError, match="^index -1 out of range for level 2$"):
            vertex_from_index(3, 2, -1)
        with pytest.raises(ValidationError, match="^index 1.5 out of range for level 2$"):
            vertex_from_index(3, 2, 1.5)
        with pytest.raises(ValidationError, match="^no ancestor at level 3 for a level-2 vertex$"):
            Vertex(3, (1, 2)).ancestor(3)
        with pytest.raises(ValidationError, match="^no ancestor at level -1 for a level-2 vertex$"):
            Vertex(3, (1, 2)).ancestor(-1)

    def test_index_round_trip(self):
        for level in range(4):
            for index in range(3**level):
                v = vertex_from_index(3, level, index)
                assert v.index == index
                assert v.level == level

    def test_parse_label_round_trip(self):
        v = Vertex(3, (0, 2, 1))
        assert v.label() == "0.2.1"
        assert parse_vertex("0.2.1", 3) == v
        assert parse_vertex("", 3) == root(3)
        with pytest.raises(ValidationError):
            parse_vertex("0.x", 3)

    def test_prefix_relation(self):
        assert Vertex(3, (0,)).is_prefix_of(Vertex(3, (0, 2)))
        assert not Vertex(3, (1,)).is_prefix_of(Vertex(3, (0, 2)))
        assert Vertex(3, ()).is_prefix_of(Vertex(3, (2, 2)))


class TestPsi:
    def test_root_maps_to_zero(self):
        assert psi(root(3)) == Fraction(0)

    def test_hand_evaluation(self):
        # 0/3 + 2/9
        assert psi(Vertex(3, (0, 2))) == Fraction(2, 9)

    def test_left_interval_of_last_digit(self):
        # the third level-1 interval is [2/3, 1]
        assert psi(Vertex(3, (2,))) == Fraction(2, 3)

    def test_exact_point_cross_level_equality(self):
        assert psi(Vertex(3, (0, 2))) == psi(Vertex(3, (0, 2, 0)))  # 2/9 == 6/27
        assert hash(psi(Vertex(3, (0, 2)))) == hash(psi(Vertex(3, (0, 2, 0))))
        assert psi(Vertex(3, (1,))) != psi(Vertex(3, (0, 2)))
        assert psi(Vertex(3, (0, 1))) < psi(Vertex(3, (0, 2)))


class TestInterval:
    def test_root_interval_is_unit(self):
        iv = interval_of(root(3))
        assert iv.left == 0
        assert iv.right == 1

    def test_first_child_interval(self):
        iv = interval_of(Vertex(3, (0,)))
        assert iv.left == 0
        assert iv.right == Fraction(1, 3)

    def test_hand_interval(self):
        iv = interval_of(Vertex(3, (0, 2)))
        assert iv.left == Fraction(2, 9)
        assert iv.right == Fraction(1, 3)
        assert iv.width == Fraction(1, 9)

    def test_successor_intervals_tile_parent(self):
        for m in (2, 3, 4):
            for digits in [(), (0,), (m - 1, 1)]:
                parent = Vertex(m, digits)
                parent_iv = interval_of(parent)
                succ_ivs = [interval_of(s) for s in parent.successors()]
                assert all(parent_iv.contains_interval(iv) for iv in succ_ivs)
                # consecutive children meet exactly at endpoints
                for left, right in zip(succ_ivs, succ_ivs[1:]):
                    assert left.right == right.left
                assert succ_ivs[0].left == parent_iv.left
                assert succ_ivs[-1].right == parent_iv.right

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 5),
        a=st.lists(st.integers(0, 4), max_size=5),
        b=st.lists(st.integers(0, 4), max_size=5),
    )
    def test_containment_iff_prefix(self, m, a, b):
        a = tuple(d % m for d in a)
        b = tuple(d % m for d in b)
        x, y = Vertex(m, a), Vertex(m, b)
        if y.level >= x.level:
            assert interval_of(x).contains_interval(interval_of(y)) == x.is_prefix_of(y)


class TestTreeDistance:
    def test_first_difference(self):
        assert tree_distance((0, 1, 0), (0, 2, 1), m=3) == Fraction(1, 3)

    def test_prefix_case(self):
        assert tree_distance((0,), (0, 1), m=3) == Fraction(1, 3)

    def test_identical(self):
        assert tree_distance((0, 1), (0, 1), m=3) == 0

    def test_accepts_vertices(self):
        assert tree_distance(Vertex(3, (0,)), Vertex(3, (1,))) == 1

    def test_diameter_is_one(self):
        # root is a strict prefix of anything at common length 0
        assert tree_distance((), (0, 1), m=3) == 1
        assert tree_distance((0,), (2,), m=3) == 1

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 4),
        a=st.lists(st.integers(0, 3), max_size=5),
        b=st.lists(st.integers(0, 3), max_size=5),
        c=st.lists(st.integers(0, 3), max_size=5),
    )
    def test_ultrametric_inequality(self, m, a, b, c):
        a, b, c = (tuple(d % m for d in s) for s in (a, b, c))
        d_ac = tree_distance(a, c, m=m)
        assert d_ac <= max(tree_distance(a, b, m=m), tree_distance(b, c, m=m))

    def test_metric_axioms_on_level_four(self):
        vertices = [v.digits for v in enumerate_level(3, 4)]
        dist = {
            (a, b): tree_distance(a, b, m=3) for a in vertices for b in vertices
        }
        for a in vertices:
            assert dist[(a, a)] == 0
            for b in vertices:
                assert dist[(a, b)] == dist[(b, a)]
                assert (dist[(a, b)] == 0) == (a == b)
        for a in vertices:
            for b in vertices:
                d_ab = dist[(a, b)]
                for c in vertices:
                    assert d_ab <= dist[(a, c)] + dist[(c, b)]


class TestEnumerateLevel:
    def test_level_zero_is_root(self):
        assert list(enumerate_level(3, 0)) == [root(3)]

    def test_level_one(self):
        assert [v.digits for v in enumerate_level(3, 1)] == [(0,), (1,), (2,)]

    def test_lexicographic_index_matches_expansion(self):
        level2 = list(enumerate_level(3, 2))
        assert len(level2) == 9
        assert level2[4].digits == (1, 1)
        assert psi(level2[4]) == Fraction(4, 9)
        for k in range(5):
            for j, v in enumerate(enumerate_level(3, k)):
                assert psi(v) == Fraction(j, 3**k)

    def test_capacity_error_names_cap(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "1000")
        with pytest.raises(CapacityError, match="1000"):
            list(enumerate_level(3, 10))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "10")
        with pytest.raises(CapacityError, match="10"):
            list(enumerate_level(3, 3))
        monkeypatch.setenv("PHTREE_SIZE_CAP", "50")
        assert len(list(enumerate_level(3, 3))) == 27


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: root(3).is_prefix_of(root(2)), ValidationError,
                 "vertices belong to trees with different branching", id="prefix-across-branchings"),
    pytest.param(lambda: tree_distance((0, 1), (1,)), ValidationError,
                 "branching factor m required for raw digit sequences", id="raw-digits-without-m"),
    pytest.param(lambda: list(enumerate_level(3, -1)), ValidationError,
                 "level must be >= 0, got -1", id="negative-level"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
