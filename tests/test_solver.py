"""Bottom-up field construction, certified error bounds, and serialization."""

import io
from fractions import Fraction

import numpy as np
import pytest

from phtree import (
    BoundarySpec,
    CapacityError,
    ContractViolationError,
    GameParams,
    UnsupportedError,
    ValidationError,
    Vertex,
    build_un,
    check_field,
    compare_fields,
    error_bound,
    evaluate,
    psi,
    root,
    solve_to_tolerance,
)
from phtree.solver import field_from_csv, field_to_csv, field_to_json_obj

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
        np.testing.assert_array_equal(field.levels[3], field.boundary.values)

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
        assert evaluate(field, Vertex(3, (0, 0, 1, 2))) == pytest.approx(0.0)

    def test_root(self):
        field = build_un(LINEAR, P, 2)
        assert evaluate(field, root(3)) == field.levels[0][0]

    def test_constant_deep(self):
        field = build_un(BoundarySpec.constant(-1.5), P, 2)
        assert evaluate(field, Vertex(3, (2, 1, 0, 2, 1))) == -1.5

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

    def test_missing_metadata(self):
        spec = BoundarySpec.tabulated([0.0, 1.0], [0.0, 1.0], lipschitz_bound=None)
        with pytest.raises(UnsupportedError):
            error_bound(spec, P, 3)


class TestSolveToTolerance:
    def test_linear_certified_depth(self):
        result = solve_to_tolerance(LINEAR, P, 0.02)
        assert result.n_used == 4  # 1/81 <= 0.02 < 1/27
        assert result.certified
        assert result.certified_bound == pytest.approx(1 / 81)

    def test_constant_needs_depth_one(self):
        result = solve_to_tolerance(BoundarySpec.constant(2.0), P, 1e-9)
        assert result.n_used == 1
        assert result.certified

    def test_pure_average_quadratic(self):
        params = GameParams(3, 0.0, 1.0)
        result = solve_to_tolerance(BoundarySpec.quadratic_centered(), params, 1e-3)
        assert abs(result.field.root_value - 1 / 12) <= 1e-3

    def test_empirical_fallback(self):
        spec = BoundarySpec.tabulated(
            [0.0, 0.4, 1.0], [0.0, 1.0, 0.3], lipschitz_bound=None
        )
        result = solve_to_tolerance(spec, P, 1e-3)
        assert not result.certified
        assert result.certified_bound is None
        assert result.empirical_gap is not None
        assert result.empirical_gap <= 5e-4

    def test_capacity_flags_partial(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", str(3**4))
        result = solve_to_tolerance(LINEAR, P, 1e-9)
        assert not result.certified
        assert result.n_used == 4

    def test_capacity_flags_partial_empirical(self, monkeypatch):
        monkeypatch.setenv("PHTREE_SIZE_CAP", str(3**4))
        spec = BoundarySpec.tabulated(
            [0.0, 0.4, 1.0], [0.0, 1.0, 0.3], lipschitz_bound=None
        )
        result = solve_to_tolerance(spec, P, 1e-9)
        assert result.n_used == 4
        assert not result.certified
        assert result.certified_bound is None
        assert result.empirical_gap == 0.030864197530864224

    @pytest.mark.parametrize("lipschitz_bound", ["auto", None], ids=["lipschitz", "empirical"])
    def test_cap_below_branching_refuses_level_1(self, monkeypatch, lipschitz_bound):
        monkeypatch.setenv("PHTREE_SIZE_CAP", "2")
        spec = BoundarySpec.tabulated([0.0, 1.0], [0.0, 1.0], lipschitz_bound=lipschitz_bound)
        with pytest.raises(CapacityError, match="level 1 of the 3-branching tree has 3 vertices"):
            solve_to_tolerance(spec, P, 1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
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


class TestSerialization:
    def test_csv_round_trip_preserves_checks(self):
        field = build_un(BoundarySpec.quadratic_centered(), P, 3)
        text = field_to_csv(field).decode()
        reloaded = field_from_csv(text, P)
        for a, b in zip(field.levels, reloaded.levels):
            np.testing.assert_array_equal(a, b)
        before = check_field(field)
        after = check_field(reloaded)
        assert before.max_abs_residual == after.max_abs_residual
        assert before.worst_vertex == after.worst_vertex

    def test_csv_header(self):
        field = build_un(LINEAR, P, 1)
        lines = field_to_csv(field).decode().splitlines()
        assert lines[0] == "level,index,psi_left,value"
        assert lines[1].startswith("0,0,0,")

    def test_csv_psi_column(self):
        field = build_un(LINEAR, P, 2)
        rows = field_to_csv(field).decode().splitlines()[1:]
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
