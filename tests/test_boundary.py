"""Boundary data: builtin families, tabulated ingestion, discretisation."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phtree import (
    BoundarySpec,
    DomainError,
    SampledBoundary,
    ValidationError,
    eval_F,
    modulus_bound,
    sample_Fn,
)


class TestEval:
    def test_linear_is_identity(self):
        spec = BoundarySpec.linear()
        assert eval_F(spec, 2 / 9) == pytest.approx(2 / 9, abs=0)

    def test_quadratic_vertex_and_edge(self):
        spec = BoundarySpec.quadratic_centered()
        assert eval_F(spec, 0.5) == 0.0
        assert eval_F(spec, 0.0) == pytest.approx(0.25, abs=0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_F(BoundarySpec.linear(), 1.5)
        with pytest.raises(DomainError):
            eval_F(BoundarySpec.linear(), np.array([0.2, -0.1]))

    def test_nan_is_a_domain_error(self):
        with pytest.raises(DomainError):
            eval_F(BoundarySpec.linear(), math.nan)
        with pytest.raises(DomainError):
            eval_F(BoundarySpec.quadratic_centered(), np.array([0.2, math.nan]))

    def test_tabulated_interpolation(self):
        spec = BoundarySpec.tabulated([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert eval_F(spec, 0.25) == pytest.approx(0.5)
        assert eval_F(spec, 0.5) == pytest.approx(1.0)
        assert spec.lipschitz_bound == pytest.approx(2.0)

    def test_vector_evaluation(self):
        spec = BoundarySpec.quadratic_centered()
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(eval_F(spec, t), [0.25, 0.0, 0.25])


class TestValidation:
    def test_tabulated_requires_endpoints(self):
        with pytest.raises(ValidationError):
            BoundarySpec.tabulated([0.1, 1.0], [0.0, 1.0])
        with pytest.raises(ValidationError):
            BoundarySpec.tabulated([0.0, 0.9], [0.0, 1.0])

    def test_tabulated_requires_increasing_t(self):
        with pytest.raises(ValidationError):
            BoundarySpec.tabulated([0.0, 0.5, 0.5, 1.0], [0, 1, 2, 3])

    def test_parse_forms(self):
        assert BoundarySpec.parse("linear").kind == "builtin-linear"
        assert BoundarySpec.parse("quadratic-centered").kind == "builtin-quadratic-centered"
        spec = BoundarySpec.parse("constant:2.5")
        assert spec.kind == "builtin-constant" and spec.value == 2.5
        with pytest.raises(ValidationError):
            BoundarySpec.parse("cubic")

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("t,value\n0,0\n0.5,2\n1,0\n", encoding="utf-8")
        spec = BoundarySpec.from_csv(path)
        assert eval_F(spec, 0.25) == pytest.approx(1.0)
        assert spec.lipschitz_bound == pytest.approx(4.0)
        parsed = BoundarySpec.parse(str(path))
        assert parsed == spec

    def test_csv_header_enforced(self):
        with pytest.raises(ValidationError):
            BoundarySpec.from_csv(io.StringIO("x,y\n0,0\n1,1\n"))

    def test_csv_non_numeric_rejected(self):
        with pytest.raises(ValidationError):
            BoundarySpec.from_csv(io.StringIO("t,value\n0,0\n0.5,abc\n1,1\n"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(ValidationError):
            BoundarySpec.constant(bad)
        with pytest.raises(ValidationError):
            BoundarySpec.tabulated([0.0, 0.5, 1.0], [0.0, bad, 1.0])
        with pytest.raises(ValidationError):
            # finite samples whose slope overflows
            BoundarySpec.tabulated([0.0, 1.0], [-1e308, 1e308])


class TestSampleFn:
    def test_linear_level_one(self):
        sampled = sample_Fn(BoundarySpec.linear(), 3, 1)
        np.testing.assert_allclose(sampled.values, [0.0, 1 / 3, 2 / 3])

    def test_constant_level_two(self):
        sampled = sample_Fn(BoundarySpec.constant(1.25), 3, 2)
        np.testing.assert_array_equal(sampled.values, np.full(9, 1.25))

    def test_quadratic_level_one(self):
        sampled = sample_Fn(BoundarySpec.quadratic_centered(), 3, 1)
        np.testing.assert_allclose(sampled.values, [0.25, 1 / 36, 1 / 36])

    def test_refinement_agrees_at_shared_left_endpoints(self):
        spec = BoundarySpec.tabulated([0.0, 0.3, 1.0], [1.0, -0.5, 2.0])
        for n in (1, 2, 3):
            coarse = sample_Fn(spec, 3, n).values
            fine = sample_Fn(spec, 3, n + 1).values
            np.testing.assert_array_equal(fine[::3], coarse)

    def test_capacity(self, monkeypatch):
        from phtree import CapacityError

        monkeypatch.setenv("PHTREE_SIZE_CAP", "100")
        with pytest.raises(CapacityError):
            sample_Fn(BoundarySpec.linear(), 3, 8)


#: increasing knots from 0 to 1 with finite values in [-1e6, 1e6]; inner
#: knots stay in [1e-6, 1 - 1e-6], so no slope overflows
tabulated_samples = st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=12, unique=True).flatmap(
    lambda inner: st.tuples(
        st.just((0.0, *sorted(inner), 1.0)),
        st.lists(st.floats(-1e6, 1e6), min_size=len(inner) + 2, max_size=len(inner) + 2),
    )
)


class TestLipschitzConstant:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            (BoundarySpec.linear(), 1.0),
            (BoundarySpec.quadratic_centered(), 1.0),
            (BoundarySpec.constant(-7.5), 0.0),
            (BoundarySpec(kind="builtin-constant", value=3.0), 0.0),
            (BoundarySpec(kind="builtin-linear"), 1.0),
            (BoundarySpec.tabulated([0.0, 0.25, 1.0], [1.0, -2.0, 1.0]), 12.0),
        ],
        ids=["linear", "quadratic", "constant", "constant-init", "linear-init", "tabulated"],
    )
    def test_derived_per_kind(self, spec, expected):
        assert spec.lipschitz_bound == expected

    @settings(max_examples=200, deadline=None)
    @given(samples=tabulated_samples)
    def test_tabulated_is_the_maximal_sample_slope(self, samples):
        ts, vs = samples
        spec = BoundarySpec.tabulated(ts, vs)
        slopes = [abs(vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)]
        assert spec.lipschitz_bound == max(slopes)
        # it bounds the interpolant between any two knots, not only adjacent ones
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                gap = abs(vs[j] - vs[i])
                assert gap <= spec.lipschitz_bound * (ts[j] - ts[i]) * (1 + 1e-12)

    def test_not_settable(self):
        with pytest.raises(TypeError):
            BoundarySpec(kind="builtin-linear", lipschitz_bound=0.0)
        with pytest.raises(TypeError):
            BoundarySpec.tabulated([0.0, 1.0], [0.0, 1.0], lipschitz_bound=0.0)

    def test_not_compared(self):
        # equal data give equal specs; the derived constant adds nothing to compare
        assert BoundarySpec.constant(2.0) == BoundarySpec(kind="builtin-constant", value=2.0)
        assert hash(BoundarySpec.linear()) == hash(BoundarySpec(kind="builtin-linear"))


class TestModulusBound:
    def test_lipschitz_scaling(self):
        assert modulus_bound(BoundarySpec.linear(), 1 / 27) == pytest.approx(1 / 27)

    def test_constant_modulus_zero(self):
        assert modulus_bound(BoundarySpec.constant(9.0), 0.37) == 0.0

    def test_tabulated_slope_scan(self):
        spec = BoundarySpec.tabulated([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
        assert modulus_bound(spec, 0.1) <= 0.2 + 1e-15


class TestPiecewiseEnvelope:
    def test_discretisation_within_lipschitz_envelope(self):
        # the level-n left-endpoint step function stays within L/m^n of F
        for spec in (BoundarySpec.linear(), BoundarySpec.quadratic_centered()):
            m, n = 3, 4
            sampled = sample_Fn(spec, m, n).values
            t = np.linspace(0.0, 1.0, 2000, endpoint=False)
            cells = np.minimum((t * m**n).astype(int), m**n - 1)
            gap = np.abs(np.asarray(eval_F(spec, t)) - sampled[cells])
            assert gap.max() <= spec.lipschitz_bound / m**n + 1e-12


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: BoundarySpec("cubic"), ValidationError, "unknown boundary kind 'cubic'",
                 id="unknown-kind"),
    pytest.param(lambda: BoundarySpec.tabulated([0.0, 1.0], [0.0]), ValidationError,
                 "tabulated boundary needs matching t/value samples", id="length-mismatch"),
    pytest.param(lambda: BoundarySpec.tabulated([0.0], [0.0]), ValidationError,
                 "tabulated boundary needs at least two samples", id="single-sample"),
    pytest.param(lambda: BoundarySpec.from_csv(io.StringIO("t,value\n0,0,0\n1,1\n")), ValidationError,
                 "malformed CSV row ['0', '0', '0']", id="three-field-row"),
    pytest.param(lambda: SampledBoundary(3, 2, np.zeros(8)), ValidationError,
                 "expected 9 samples at level 2, got (8,)", id="sampled-shape"),
    pytest.param(lambda: sample_Fn(BoundarySpec.linear(), 3, -1), ValidationError,
                 "level must be >= 0, got -1", id="negative-level"),
    pytest.param(lambda: modulus_bound(BoundarySpec.linear(), 0.0), ValidationError,
                 "scale must be positive, got 0.0", id="zero-scale"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
