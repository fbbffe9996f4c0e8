"""Bottom-up field construction, certified error bounds, and serialization."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phtree import (
    BoundarySpec,
    CapacityError,
    ContractViolationError,
    GameParams,
    LevelField,
    ValidationError,
    Vertex,
    build_un,
    check_field,
    compare_fields,
    error_bound,
    psi,
    root,
    sample_Fn,
    solve_to_tolerance,
)
from phtree import solver as solver_mod
from phtree.capacity import max_level
from phtree.solver import MAX_SOLVE_DEPTH, field_from_csv, field_to_csv, field_to_json_obj

P = GameParams(3, 0.5, 0.5)
LINEAR = BoundarySpec.linear()


class TestBuildUn:
    def test_depth_one_root_value(self):
        field = build_un(LINEAR, P, 1)
        # 1/4*(0 + 2/3) + 1/6*(0 + 1/3 + 2/3)
        assert field.root_value == pytest.approx(1 / 3, abs=1e-15)

    def test_depth_two_values(self):
        field = build_un(LINEAR, P, 2)
        assert field.root_value == pytest.approx(4 / 9, abs=1e-14)
        np.testing.assert_allclose(field.levels[1], [1 / 9, 4 / 9, 7 / 9], atol=1e-14)

    def test_constant_boundary_fixed(self):
        for params in (P, GameParams(3, 1.0, 0.0), GameParams(4, 0.2, 0.8)):
            field = build_un(BoundarySpec.constant(3.25), params, 3)
            for arr in field.levels:
                np.testing.assert_array_equal(arr, np.full(arr.shape, 3.25))

    def test_leaf_level_is_boundary(self):
        field = build_un(LINEAR, P, 3)
        np.testing.assert_array_equal(field.levels[3], sample_Fn(LINEAR, 3, 3).values)

    def test_local_invariant(self):
        field = build_un(BoundarySpec.quadratic_centered(), P, 5)
        assert check_field(field).max_abs_residual <= 1e-12

    def test_capacity_and_depth_validation(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "100")
        with pytest.raises(CapacityError):
            build_un(LINEAR, P, 8)
        with pytest.raises(ValidationError):
            build_un(LINEAR, P, 0)

    def test_overflowing_sweep_rejected(self):
        # finite samples whose max + min overflows to inf in the sweep
        with pytest.raises(ValidationError, match="not finite"):
            build_un(BoundarySpec.constant(1.7e308), P, 2)


class TestEvaluate:
    def test_deep_vertex_uses_ancestor(self):
        field = build_un(LINEAR, P, 2)
        assert field.value(Vertex(3, (0, 0, 1, 2))) == pytest.approx(0.0)

    def test_root(self):
        field = build_un(LINEAR, P, 2)
        assert field.value(root(3)) == field.levels[0][0]

    def test_constant_deep(self):
        field = build_un(BoundarySpec.constant(-1.5), P, 2)
        assert field.value(Vertex(3, (2, 1, 0, 2, 1))) == -1.5

    def test_wrong_branching_rejected(self):
        field = build_un(LINEAR, P, 2)
        with pytest.raises(ContractViolationError):
            field.value(Vertex(4, (0,)))


class TestErrorBound:
    def test_linear(self):
        assert error_bound(LINEAR, P, 4) == pytest.approx(1 / 81)

    def test_constant(self):
        assert error_bound(BoundarySpec.constant(5), P, 2) == 0.0

    def test_tabulated(self):
        spec = BoundarySpec.tabulated([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert error_bound(spec, P, 3) == pytest.approx(2 / 27)


class TestSolveToTolerance:
    def test_linear_certified_depth(self):
        result = solve_to_tolerance(LINEAR, P, 0.02)
        assert result.n_used == 4  # 1/81 <= 0.02 < 1/27
        assert result.certified_bound == pytest.approx(1 / 81)

    def test_constant_needs_depth_one(self):
        result = solve_to_tolerance(BoundarySpec.constant(2.0), P, 1e-9)
        assert result.n_used == 1
        assert result.certified_bound == 0.0

    def test_pure_average_quadratic(self):
        params = GameParams(3, 0.0, 1.0)
        result = solve_to_tolerance(BoundarySpec.quadratic_centered(), params, 1e-3)
        assert abs(result.field.root_value - 1 / 12) <= 1e-3

    def test_bare_spec_is_certified(self):
        # a spec built without its constructor still carries L = 1
        result = solve_to_tolerance(BoundarySpec(kind="builtin-linear"), P, 1e-6)
        assert result.n_used == 13  # 3**-13 <= 1e-6 < 3**-12
        assert result.certified_bound == 3.0**-13

    @pytest.mark.parametrize(
        "spec",
        [
            LINEAR,
            BoundarySpec.quadratic_centered(),
            BoundarySpec.tabulated([0.0, 0.4, 1.0], [0.0, 1.0, 0.3]),
            BoundarySpec.tabulated([0.0, 0.1, 0.5, 0.7, 1.0], [2.0, -3.0, 0.5, 0.5, -1.0]),
        ],
        ids=["linear", "quadratic", "tabulated", "zigzag"],
    )
    @pytest.mark.parametrize("params", [P, GameParams(2, 1.0, 0.0), GameParams(4, 0.0, 1.0)])
    def test_certified_bound_covers_root_error(self, spec, params):
        """The root stays within the certified bound of a much deeper field's
        root, give or take that field's own bound."""
        deep = 11 if params.m < 4 else 8
        result = solve_to_tolerance(spec, params, 0.05)
        assert result.certified_bound <= 0.05
        reference = build_un(spec, params, deep)
        slack = error_bound(spec, params, deep)
        error = abs(result.field.root_value - reference.root_value)
        assert error <= result.certified_bound + slack + 1e-12

    def test_capacity_refuses_unmet_tolerance(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", str(3**4))
        with pytest.raises(CapacityError) as err:
            solve_to_tolerance(LINEAR, P, 1e-9)
        assert str(err.value) == (
            "tolerance 1e-09 is below the bound 0.012345679012345678 of level 4, and level 5 "
            "has 243 vertices, exceeding the size cap of 81 (set PHTREE_SIZE_CAP to raise it)"
        )

    def test_depth_limit_refuses_unmet_tolerance(self, monkeypatch):
        def build(*args):
            raise AssertionError("no level is built")

        monkeypatch.setattr(solver_mod, "build_un", build)
        with pytest.raises(CapacityError, match=r"bound 5\.960464477539063e-08 of level 24, .*MAX_SOLVE_DEPTH"):
            solve_to_tolerance(LINEAR, GameParams(2, 0.5), 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from([
            LINEAR, BoundarySpec.quadratic_centered(), BoundarySpec.constant(2.0),
            BoundarySpec.tabulated([0.0, 0.1, 1.0], [0.0, 30.0, 0.0]),
        ]),
        m=st.integers(2, 5),
        alpha=st.floats(0.0, 1.0),
        tol=st.floats(5e-324, 10.0),
        cap=st.integers(1, 3000),
    )
    def test_certified_or_refused(self, spec, m, alpha, tol, cap):
        """A result is the shallowest level within `tol`; no level under the
        cap and the depth limit meeting it is a CapacityError."""
        params = GameParams(m, alpha)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PHTREE_SIZE_CAP", str(cap))
            try:
                result = solve_to_tolerance(spec, params, tol)
            except CapacityError:
                deepest = min(MAX_SOLVE_DEPTH, max_level(m))
                assert deepest == 0 or error_bound(spec, params, deepest) > tol
                return
        n = result.n_used
        assert result.certified_bound == error_bound(spec, params, n) <= tol
        assert n == 1 or error_bound(spec, params, n - 1) > tol
        assert result.field.n == n

    def test_cap_below_branching_refuses_level_1(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "2")
        spec = BoundarySpec.tabulated([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(CapacityError, match="level 1 of the 3-branching tree has 3 vertices"):
            solve_to_tolerance(spec, P, 1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
    def test_non_positive_tolerance_rejected(self, tol):
        with pytest.raises(ValidationError):
            solve_to_tolerance(LINEAR, P, tol)


class TestCompareFields:
    def test_translation(self):
        f = build_un(LINEAR, P, 3)
        g = build_un(
            BoundarySpec.tabulated([0.0, 1.0], [0.1, 1.1]), P, 3
        )
        assert compare_fields(f, g)
        assert not compare_fields(g, f)

    def test_reflexive(self):
        f = build_un(LINEAR, P, 3)
        assert compare_fields(f, f)

    def test_random_leafwise_order_propagates(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            knots = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 4)]))
            lo = rng.uniform(-1, 1, knots.size)
            hi = lo + rng.uniform(0, 1, knots.size)
            f = build_un(BoundarySpec.tabulated(knots, lo), P, 4)
            g = build_un(BoundarySpec.tabulated(knots, hi), P, 4)
            assert compare_fields(f, g)

    def test_shape_mismatch(self):
        f = build_un(LINEAR, P, 2)
        g = build_un(LINEAR, P, 3)
        with pytest.raises(ContractViolationError):
            compare_fields(f, g)
        h = build_un(LINEAR, GameParams(3, 0.25, 0.75), 2)
        with pytest.raises(ContractViolationError):
            compare_fields(f, h)


def _recursive_field_value(spec, params, n, digits):
    """Independent oracle: evaluate the field by direct recursion on the
    operator instead of the vectorised level sweep."""
    from phtree import dpp_average, eval_F

    if len(digits) == n:
        index = 0
        for d in digits:
            index = index * params.m + d
        return eval_F(spec, index / params.m**n)
    children = [
        _recursive_field_value(spec, params, n, digits + (d,))
        for d in range(params.m)
    ]
    return dpp_average(params, children)


class TestSchemeProperties:
    def test_sweep_matches_recursive_oracle(self):
        rng = np.random.default_rng(11)
        knots = np.linspace(0.0, 1.0, 7)
        spec = BoundarySpec.tabulated(knots, rng.uniform(-1, 1, knots.size))
        for params in (P, GameParams(3, 1.0, 0.0), GameParams(2, 0.4, 0.6)):
            n = 4
            field = build_un(spec, params, n)
            for digits in [(), (0,), (params.m - 1, 0), (1, 0, 1)]:
                expected = _recursive_field_value(spec, params, n, digits)
                assert field.value(Vertex(params.m, digits)) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_pure_average_equals_subtree_mean(self):
        params = GameParams(3, 0.0, 1.0)
        field = build_un(BoundarySpec.quadratic_centered(), params, 6)
        leaves = field.levels[6]
        for k in range(6):
            means = leaves.reshape(3**k, -1).mean(axis=1)
            np.testing.assert_allclose(field.levels[k], means, atol=1e-12)

    def test_cauchy_rate_at_root(self):
        for n in (2, 3, 4, 5):
            un = build_un(LINEAR, P, n)
            uk = build_un(LINEAR, P, n + 5)
            assert abs(un.root_value - uk.root_value) <= 3.0**-n

    def test_interior_values_between_children(self):
        for spec in (LINEAR, BoundarySpec.quadratic_centered()):
            field = build_un(spec, P, 5)
            for k in range(5):
                children = field.levels[k + 1].reshape(-1, 3)
                assert np.all(field.levels[k] >= children.min(axis=1) - 1e-12)
                assert np.all(field.levels[k] <= children.max(axis=1) + 1e-12)

    def test_pure_tug_reflection_identity(self):
        # reflecting digits d -> m-1-d reverses each level array, and the
        # left-endpoint sampling of F(t)=t shifts the mirror sum by m^-n
        params = GameParams(3, 1.0, 0.0)
        n = 6
        field = build_un(LINEAR, params, n)
        for k in range(n + 1):
            arr = field.levels[k]
            np.testing.assert_allclose(
                arr + arr[::-1], np.full(arr.shape, 1.0 - 3.0**-n), atol=1e-12
            )
        assert abs(field.root_value - (1.0 - 3.0**-n) / 2) <= 1e-12

    def test_deep_evaluation_constant_on_subtrees(self):
        field = build_un(LINEAR, P, 3)
        v = Vertex(3, (2, 0, 1))
        for extension in [(0,), (1, 2), (2, 2, 2)]:
            deep = Vertex(3, v.digits + extension)
            assert field.value(deep) == field.value(v)


def csv_text(field) -> str:
    buf = bytearray()
    field_to_csv(field, buf.extend)
    return buf.decode()


class TestSerialization:
    def test_csv_round_trip_preserves_checks(self):
        field = build_un(BoundarySpec.quadratic_centered(), P, 3)
        text = csv_text(field)
        reloaded = field_from_csv(text, P)
        for a, b in zip(field.levels, reloaded.levels):
            np.testing.assert_array_equal(a, b)
        before = check_field(field)
        after = check_field(reloaded)
        assert before.max_abs_residual == after.max_abs_residual
        assert before.worst_vertex == after.worst_vertex

    def test_csv_header(self):
        field = build_un(LINEAR, P, 1)
        lines = csv_text(field).splitlines()
        assert lines[0] == "level,index,psi_left,value"
        assert lines[1].startswith("0,0,0,")

    def test_csv_psi_column(self):
        field = build_un(LINEAR, P, 2)
        rows = csv_text(field).splitlines()[1:]
        for row in rows:
            level, index, psi_left, _ = row.split(",")
            expected = Fraction(int(index), 3 ** int(level))
            assert float(psi_left) == pytest.approx(float(expected), abs=1e-16)

    def test_json_object_schema(self):
        field = build_un(LINEAR, P, 2)
        obj = field_to_json_obj(field)
        assert set(obj) == {"params", "n", "levels"}
        assert obj["params"] == {"m": 3, "alpha": 0.5, "beta": 0.5}
        assert len(obj["levels"]) == 3

    def test_last_row_wins_in_any_order(self):
        body = "1,2,0,7.0\n0,0,0,1.0\n1,0,0,2.0\n1,1,0,3.0\n1,2,0,4.0\n1,0,0,5.0\n"
        field = field_from_csv("level,index,psi_left,value\n" + body, P)
        assert [level.tolist() for level in field.levels] == [[1.0], [5.0, 3.0, 4.0]]

    @pytest.mark.parametrize("row, message", [
        ("40,0", "level 3 must hold the indices 0..26"),
        (f"{2**70},0", "level 3 must hold the indices 0..26"),
        (f"1,{2**70}", "level 1 must hold the indices 0..2"),
        (f"{-2**70},0", "CSV must hold the field rows of levels 0..n"),
    ])
    def test_out_of_range_row_refused(self, row, message):
        """Beside complete levels 0..2, a row at a deeper level names the
        first level that lacks rows, however deep it claims to be, and an
        index past int64 leaves its level incomplete."""
        body = "".join(f"{k},{j},0,1.0\n" for k in range(3) for j in range(3**k))
        with pytest.raises(ValidationError) as info:
            field_from_csv(f"level,index,psi_left,value\n{body}{row},0,1.0\n", P)
        assert str(info.value) == message

    @pytest.mark.parametrize("body, message", [
        ("0,0,0,nan\n1,0,0,inf\n1,1,0,1\n1,2,0,-inf\n", "level 0 index 0 holds nan"),
        ("0,0,0,1\n1,0,0,1\n1,1,0,1\n1,2,0,-inf\n", "level 1 index 2 holds -inf"),
        ("0,0,0,1\n1,0,0,1\n1,1,0,1\n1,2,0,1\n1,1,0,inf\n", "level 1 index 1 holds inf"),
    ], ids=["nan-and-infinities", "last-index", "last-row"])
    def test_non_finite_value_refused(self, body, message):
        with pytest.raises(ValidationError) as info:
            field_from_csv("level,index,psi_left,value\n" + body, P)
        assert str(info.value) == f"{message}; field values must be finite"

    def test_non_finite_value_replaced_by_a_later_row_is_kept_out(self):
        body = "0,0,0,nan\n1,0,0,1\n1,1,0,inf\n1,2,0,3\n1,1,0,2\n0,0,0,1\n"
        field = field_from_csv("level,index,psi_left,value\n" + body, P)
        assert [level.tolist() for level in field.levels] == [[1.0], [1.0, 2.0, 3.0]]

    def test_reload_holds_columns_not_rows(self, traced_peak):
        """The n = 10 reload (88,573 rows, 4.3 MB) peaked at 58,171,107 B while it
        kept every row as a list of str and every value in a dict."""
        field = build_un(BoundarySpec.quadratic_centered(), P, 10)
        text = csv_text(field)
        reloaded, peak = traced_peak(field_from_csv, text, P)
        for a, b in zip(field.levels, reloaded.levels):
            np.testing.assert_array_equal(a, b)
        assert peak <= 58_171_107 // 2

    def test_bad_header_rejected(self):
        with pytest.raises(ValidationError):
            field_from_csv("a,b,c\n", P)

    @pytest.mark.parametrize(
        "body",
        [
            "",  # header only
            "0,0,0\n",  # short row
            "0,0,0,abc\n",  # non-numeric value
            "0,x,0,1.5\n",  # non-numeric index
            "-1,0,0,1.5\n",  # negative level
            "0,-1,0,1.5\n",  # negative index
            "0,1,0,1.5\n",  # level 0 without index 0
        ],
    )
    def test_malformed_rows_rejected(self, body):
        with pytest.raises(ValidationError):
            field_from_csv("level,index,psi_left,value\n" + body, P)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: LevelField(P, 2, (np.zeros(1), np.zeros(3))), ContractViolationError,
                 "expected 3 level arrays, got 2", id="level-count"),
    pytest.param(lambda: LevelField(P, 1, (np.zeros(1), np.zeros(2))), ContractViolationError,
                 "level 1 array has shape (2,), expected (3,)", id="level-shape"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
