"""Boundary data: builtin families, tabulated ingestion, discretisation."""

import io
import math

import numpy as np
import pytest

from phtree import (
    BoundarySpec,
    DomainError,
    UnsupportedError,
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
            BoundarySpec.tabulated([0.0, 1.0], [0.0, 1.0], lipschitz_bound=bad)


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


class TestModulusBound:
    def test_lipschitz_scaling(self):
        assert modulus_bound(BoundarySpec.linear(), 1 / 27) == pytest.approx(1 / 27)

    def test_constant_modulus_zero(self):
        assert modulus_bound(BoundarySpec.constant(9.0), 0.37) == 0.0

    def test_tabulated_slope_scan(self):
        spec = BoundarySpec.tabulated([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
        assert modulus_bound(spec, 0.1) <= 0.2 + 1e-15

    def test_no_metadata_error(self):
        spec = BoundarySpec(kind="builtin-linear", lipschitz_bound=None)
        with pytest.raises(UnsupportedError):
            modulus_bound(spec, 0.1)

    def test_dropped_metadata_still_scans_slopes(self):
        spec = BoundarySpec.tabulated([0.0, 1.0], [0.0, 3.0], lipschitz_bound=None)
        assert modulus_bound(spec, 0.1) == pytest.approx(0.3)


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
