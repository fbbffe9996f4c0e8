"""The averaging operator: algebra, residuals, and field-wide checks."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phtree import (
    BoundarySpec,
    ContractViolationError,
    GameParams,
    MissingValueError,
    ValidationError,
    Vertex,
    build_un,
    check_field,
    classify,
    dpp_average,
    residual_at,
    root,
)
from phtree.dpp import HARMONIOUS, NEITHER, SUBHARMONIOUS, SUPERHARMONIOUS, operator_average

P = GameParams(3, 0.5, 0.5)

#: values at the edges of float64 for the kernel's bit-equality check; the
#: NaN is the canonical quiet NaN
KERNEL_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e308, -1e308, math.inf, -math.inf, math.nan,
]


def reference_operator_average(params, values):
    """The operator as three axis reductions, the form the kernel replaced."""
    return (params.alpha / 2.0) * (values.max(axis=-1) + values.min(axis=-1)) + (
        params.beta / params.m
    ) * values.sum(axis=-1)


class TestGameParams:
    def test_derived_weights(self):
        assert P.theta == pytest.approx(7 / 12, abs=1e-15)
        assert P.delta == pytest.approx(5 / 12, abs=1e-15)

    def test_endpoints_accepted(self):
        assert GameParams(3, 1.0, 0.0).theta == pytest.approx(0.5)
        assert GameParams(3, 0.0, 1.0).theta == pytest.approx(2 / 3)

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(2, 12), alpha=st.floats(0.0, 1.0))
    def test_weight_identities(self, m, alpha):
        params = GameParams(m, alpha, 1.0 - alpha)
        assert abs(params.theta + params.delta - 1.0) <= 1e-14
        assert abs(params.delta - (params.alpha / 2 + params.beta / m)) <= 1e-14
        # delta is pinned to [1/m, 1/2] for admissible weights
        assert 1 / m - 1e-12 <= params.delta <= 0.5 + 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            GameParams(1, 0.5, 0.5)
        with pytest.raises(ValidationError):
            GameParams(3, 0.7, 0.5)
        with pytest.raises(ValidationError):
            GameParams(3, -0.1, 1.1)
        with pytest.raises(ValidationError):
            GameParams(True, 0.5, 0.5)

    def test_branching_beyond_the_largest_float_rejected(self):
        largest = int(sys.float_info.max)
        assert math.isfinite(GameParams(largest, 0.5, 0.5).theta)
        for m in (largest + 1, 10**400, 10**5000):
            with pytest.raises(ValidationError, match="at most the largest float"):
                GameParams(m, 0.5, 0.5)

    def test_numpy_integer_branching(self):
        params = GameParams(np.int64(3), 0.5, 0.5)
        assert params == P and type(params.m) is int

    @settings(max_examples=80, deadline=None)
    @given(alpha=st.floats(0.0, 1.0), slack=st.floats(-1e-12, 1e-12))
    def test_beta_is_one_minus_alpha(self, alpha, slack):
        """A passed beta within 1e-12 of 1 - alpha is checked, then discarded."""
        try:
            passed = GameParams(3, alpha, 1.0 - alpha + slack)
        except ValidationError:  # outside [0, 1], or past 1e-12 after rounding
            passed = None
        derived = GameParams(3, alpha)
        assert derived.beta == 1.0 - alpha
        assert passed is None or passed == derived

    def test_beta_slack_does_not_change_the_operator(self):
        params = GameParams(3, 0.5, 0.5 + 9e-13)
        assert params.beta == 0.5
        assert classify(lambda v: 1000.0, root(3), params) == HARMONIOUS


class TestDppAverage:
    def test_hand_value(self):
        assert dpp_average(P, [0.0, 0.5, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_fixes_constants(self):
        for params in (P, GameParams(3, 1.0, 0.0), GameParams(4, 0.25, 0.75)):
            values = [2.5] * params.m
            assert dpp_average(params, values) == pytest.approx(2.5, abs=1e-14)

    def test_pure_mean(self):
        params = GameParams(3, 0.0, 1.0)
        assert dpp_average(params, [0.0, 1 / 3, 2 / 3]) == pytest.approx(1 / 3, abs=1e-15)

    def test_arity_error(self):
        with pytest.raises(ContractViolationError):
            dpp_average(P, [0.0, 1.0])

    def test_array_form_matches_scalar_form(self):
        rng = np.random.default_rng(4)
        for params in (P, GameParams(2, 1.0, 0.0), GameParams(5, 0.0, 1.0)):
            values = rng.uniform(-3.0, 3.0, size=(2, 7, params.m))
            averages = operator_average(params, values)
            assert averages.shape == (2, 7)
            for idx in np.ndindex(2, 7):
                assert averages[idx] == pytest.approx(
                    dpp_average(params, values[idx]), abs=1e-14
                )

    def test_nonfinite_error(self):
        with pytest.raises(ContractViolationError):
            dpp_average(P, [0.0, math.nan, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        values=st.integers(2, 9).flatmap(
            lambda m: arrays(
                np.float64,
                st.sampled_from([(5, m), (1, m), (2, 3, m)]),
                elements=st.floats(allow_nan=False) | st.sampled_from(KERNEL_EDGE_VALUES),
            )
        ),
    )
    # a NaN sum of 8 terms once came out as -NaN
    @example(alpha=0.0, values=np.array([[math.inf, -math.inf] + [math.nan] * 6]))
    def test_kernel_matches_axis_reductions_bit_for_bit(self, alpha, values):
        params = GameParams(values.shape[-1], alpha, 1.0 - alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_operator_average(params, values)
            got = operator_average(params, values)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_negative_nan_stays_nan(self):
        # numpy's max reduction turns a leading NaN with the sign bit set
        # into +NaN and the column ufuncs keep its sign: only NaN-ness matches
        for m in (2, 3, 7):
            values = np.zeros((3, m))
            values[:, 0] = -math.nan
            values[1, 1:] = math.inf
            params = GameParams(m, 0.5, 0.5)
            with np.errstate(invalid="ignore"):
                assert np.isnan(operator_average(params, values)).all()
                assert np.isnan(reference_operator_average(params, values)).all()

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 6),
        alpha=st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_monotone_translation_homogeneous_bounded(self, m, alpha, data):
        params = GameParams(m, alpha, 1.0 - alpha)
        values = data.draw(
            st.lists(st.floats(-10, 10), min_size=m, max_size=m)
        )
        base = dpp_average(params, values)
        # raising one input never lowers the output
        i = data.draw(st.integers(0, m - 1))
        bumped = list(values)
        bumped[i] += data.draw(st.floats(0.0, 5.0))
        assert dpp_average(params, bumped) >= base - 1e-12
        # translation equivariance
        c = data.draw(st.floats(-5, 5))
        shifted = dpp_average(params, [v + c for v in values])
        assert shifted == pytest.approx(base + c, abs=1e-10)
        # positive homogeneity
        s = data.draw(st.floats(0.0, 4.0))
        assert dpp_average(params, [s * v for v in values]) == pytest.approx(
            s * base, abs=1e-9
        )
        # discrete maximum principle
        assert min(values) - 1e-12 <= base <= max(values) + 1e-12
        if max(values) - min(values) > 1e-6:
            assert min(values) < base < max(values)

    def test_theta_weight_on_sorted_inputs(self):
        # with all middle coordinates at the max, the operator puts exactly
        # theta on the max and delta on the min
        for params in (P, GameParams(5, 0.3, 0.7)):
            lo, hi = -1.0, 2.0
            values = [lo] + [hi] * (params.m - 1)
            expected = params.theta * hi + params.delta * lo
            assert dpp_average(params, values) == pytest.approx(expected, abs=1e-14)
        # in general theta*max + delta*min is an upper bound
        rng = np.random.default_rng(0)
        for _ in range(200):
            values = rng.uniform(-1, 1, P.m)
            upper = P.theta * values.max() + P.delta * values.min()
            assert dpp_average(P, values) <= upper + 1e-12


def _const_field(c):
    return lambda v: c


class TestResidualAndClassify:
    def test_constant_field_residual_zero(self):
        for v in (root(3), Vertex(3, (0, 2))):
            assert residual_at(_const_field(1.7), v, P) == pytest.approx(0.0, abs=1e-15)
            assert classify(_const_field(1.7), v, P) == HARMONIOUS

    def test_level_one_hand_residual(self):
        def field(v):
            return {(): 0.0, (0,): 0.0, (1,): 1 / 3, (2,): 2 / 3}[v.digits]

        r = residual_at(field, root(3), P)
        assert r == pytest.approx(1 / 3, abs=1e-14)

    def test_solver_field_is_harmonious(self):
        field = build_un(BoundarySpec.linear(), P, 4)
        for v in (root(3), Vertex(3, (1,)), Vertex(3, (2, 0, 1))):
            assert classify(field, v, P) == HARMONIOUS

    def test_growing_field_is_subharmonious(self):
        # value +level sits below its successor average by exactly 1
        field = lambda v: float(v.level)
        r = residual_at(field, Vertex(3, (1, 2)), P)
        assert r == pytest.approx(1.0, abs=1e-14)
        assert classify(field, Vertex(3, (1, 2)), P) == SUBHARMONIOUS

    def test_decreasing_field_is_superharmonious(self):
        field = lambda v: -float(v.level)
        assert classify(field, root(3), P) == SUPERHARMONIOUS

    @pytest.mark.parametrize("shift", [0.0, 1e-12, -1e-12, 2e-12, -2e-12, 0.1, -0.1])
    def test_classify_labels_as_check_field_does(self, shift):
        """A one-level field with its root raised by `shift` has the single
        residual -shift; both label it alike, at the tolerance too."""
        field = build_un(BoundarySpec.constant(0.0), P, 1)
        levels = (field.levels[0] + shift, field.levels[1])
        shifted = type(field)(params=field.params, n=field.n, levels=levels)
        assert residual_at(shifted, root(3), P) == -shift
        assert classify(shifted, root(3), P) == check_field(shifted).classification

    def test_missing_value_names_vertex(self):
        table = {(): 0.0, (0,): 0.0, (1,): 0.0}  # (2,) missing

        def field(v):
            return table[v.digits]

        with pytest.raises(MissingValueError) as err:
            residual_at(field, root(3), P)
        assert err.value.vertex == Vertex(3, (2,))


class TestCheckField:
    def test_constant_boundary(self):
        field = build_un(BoundarySpec.constant(2.0), P, 3)
        report = check_field(field)
        assert report.max_abs_residual == pytest.approx(0.0, abs=1e-15)
        assert report.classification == HARMONIOUS

    def test_params_come_from_the_field(self):
        field = build_un(BoundarySpec.linear(), P, 2)
        with pytest.raises(TypeError):
            check_field(field, P)

    def test_solver_output_within_tolerance(self):
        field = build_un(BoundarySpec.linear(), P, 4)
        report = check_field(field)
        assert report.max_abs_residual <= 1e-12
        assert report.vertices_checked == 1 + 3 + 9 + 27

    def test_corrupted_field_is_localised(self):
        field = build_un(BoundarySpec.linear(), P, 3)
        levels = [np.array(arr) for arr in field.levels]
        # perturb a leaf that is neither the min nor max of its siblings
        levels[3][13] += 0.1
        corrupted = type(field)(
            params=field.params,
            n=field.n,
            levels=tuple(levels),
        )
        report = check_field(corrupted)
        assert report.worst_vertex == Vertex(3, (1, 1))  # parent of leaf 13
        assert report.max_abs_residual >= 0.1 * P.beta / P.m - 1e-12

    @pytest.mark.parametrize(
        "shifts, label",
        [
            # every interior value raised: each parent of leaves sits above
            # its children's average, and every other residual stays zero
            ({0: 0.1, 1: 0.1, 2: 0.1}, SUPERHARMONIOUS),
            # a middle child up under one parent and down under another
            ({(3, 13): 0.1, (3, 22): -0.1}, NEITHER),
            ({(3, 13): 0.1}, SUBHARMONIOUS),
        ],
        ids=["superharmonious", "neither", "subharmonious"],
    )
    def test_labels(self, shifts, label):
        field = build_un(BoundarySpec.linear(), P, 3)
        levels = [np.array(arr) for arr in field.levels]
        for where, shift in shifts.items():
            if isinstance(where, tuple):
                levels[where[0]][where[1]] += shift
            else:
                levels[where] += shift
        shifted = type(field)(params=field.params, n=field.n, levels=tuple(levels))
        assert check_field(shifted).classification == label


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: residual_at(lambda v: None, root(3), P), MissingValueError,
                 "field is undefined at vertex <root>", id="none"),
    pytest.param(lambda: residual_at(lambda v: 0.0 if v.level else math.nan, root(3), P),
                 MissingValueError, "field is undefined at vertex <root>", id="nan"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
