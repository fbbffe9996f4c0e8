"""Dimension formula against its minimization oracle."""

import math

import numpy as np
import pytest

from phtree import (
    GameParams,
    ValidationError,
    dimension_large_m_limit,
    fatou_dimension,
    kl_minimization_oracle,
)


class TestClosedForm:
    def test_pure_average_dimension_is_one(self):
        for m in (2, 3, 7, 100):
            for beta in (1.0, 1 - 1e-13):
                result = fatou_dimension(GameParams(m, 0.0, beta))
                assert result.gamma == 1.0
                assert result.objective == m
                assert result.dimension == 1.0

    def test_float_overflow_is_refused(self):
        # gamma underflows to 0.0 at m = 10**155 and is NaN at m = 10**308
        for m, alpha in ((10**155, 0.5), (10**308, 0.5), (10**308, 0.0)):
            with pytest.raises(ValidationError, match="not finite in float arithmetic"):
                fatou_dimension(GameParams(m, alpha, 1.0 - alpha))

    def test_pure_tug_m3(self):
        result = fatou_dimension(GameParams(3, 1.0, 0.0))
        assert result.gamma == pytest.approx(0.5, abs=1e-15)
        assert result.objective == pytest.approx(2 * math.sqrt(2), abs=1e-13)
        assert result.dimension == pytest.approx(
            math.log(2 * math.sqrt(2)) / math.log(3), abs=1e-13
        )

    def test_even_mix_m3(self):
        result = fatou_dimension(GameParams(3, 0.5, 0.5))
        assert result.gamma == pytest.approx(0.7, abs=1e-14)
        assert result.objective == pytest.approx(2.9551, abs=1e-4)
        assert result.dimension == pytest.approx(0.9863, abs=1e-4)

    def test_binary_tree_dimension_is_always_one(self):
        # at m=2 the two exponent weights coincide and gamma collapses to 1
        for alpha in (0.0, 0.3, 1.0):
            result = fatou_dimension(GameParams(2, alpha, 1.0 - alpha))
            assert result.dimension == pytest.approx(1.0, abs=1e-12)

    def test_dimension_in_unit_interval(self):
        for alpha in np.linspace(0, 1, 21):
            for m in (3, 5, 10):
                result = fatou_dimension(GameParams(m, float(alpha), float(1 - alpha)))
                assert 0.0 < result.dimension <= 1.0 + 1e-12

    def test_continuity_in_alpha(self):
        # no jumps above 1e-3 on a 1e-4 grid
        alphas = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        m = 3
        a = alphas
        b = 1.0 - alphas
        gamma = (m * a + 2 * (m - 1) * b) / ((m - 1) * (m * a + 2 * b))
        e_neg = (m * a + 2 * (m - 1) * b) / (2 * m)
        e_pos = (m * a + 2 * b) / (2 * m)
        objective = gamma**-e_neg + (m - 1) * gamma**e_pos
        dims = np.log(objective) / np.log(m)
        assert np.abs(np.diff(dims)).max() <= 1e-3
        # the vectorised values agree with the scalar implementation
        probe = 137
        scalar = fatou_dimension(GameParams(3, float(a[probe]), float(b[probe])))
        assert scalar.dimension == pytest.approx(float(dims[probe]), abs=1e-14)


class TestLargeMLimit:
    def test_limit_values(self):
        assert dimension_large_m_limit(1.0) == 1.0
        assert dimension_large_m_limit(0.0) == 0.5
        assert dimension_large_m_limit(0.5) == 0.75
        with pytest.raises(ValidationError):
            dimension_large_m_limit(1.5)

    def test_gap_shrinks_with_m(self):
        # convergence toward (1+beta)/2 is logarithmic in m: verify the
        # trend rather than a tight absolute tolerance
        for alpha in (0.25, 1.0):
            beta = 1.0 - alpha
            target = dimension_large_m_limit(beta)
            gaps = [
                abs(fatou_dimension(GameParams(m, alpha, beta)).dimension - target)
                for m in (10, 10**2, 10**4, 10**6)
            ]
            assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
            assert gaps[-1] < 0.06


class TestOracle:
    def test_pure_average_minimum_is_m(self):
        for m in (3, 5):
            result = kl_minimization_oracle(GameParams(m, 0.0, 1.0))
            assert result.min_value == float(m)
            np.testing.assert_array_equal(result.argmin, np.zeros(m))

    def test_pure_tug_matches_exact_value(self):
        result = kl_minimization_oracle(GameParams(3, 1.0, 0.0), restarts=3, seed=1)
        assert result.min_value == pytest.approx(2 * math.sqrt(2), abs=1e-8)

    def test_even_mix_matches_closed_form(self):
        params = GameParams(3, 0.5, 0.5)
        closed = fatou_dimension(params).objective
        result = kl_minimization_oracle(params, restarts=3, seed=2)
        assert result.min_value == pytest.approx(closed, abs=1e-6)

    def test_ansatz_and_search_agree(self):
        for m, alpha in [(3, 0.25), (5, 0.75)]:
            params = GameParams(m, alpha, 1.0 - alpha)
            result = kl_minimization_oracle(params, restarts=3, seed=3)
            assert result.search_value >= result.ansatz_value - 1e-9
            assert result.search_value - result.ansatz_value <= 1e-4

    def test_argmin_is_feasible(self):
        params = GameParams(4, 0.6, 0.4)
        result = kl_minimization_oracle(params, restarts=2, seed=4)
        x = result.argmin
        constraint = (params.alpha / 2) * (x.max() + x.min()) + (
            params.beta / params.m
        ) * x.sum()
        assert constraint == pytest.approx(0.0, abs=1e-12)
        assert np.exp(x).sum() == pytest.approx(result.min_value, rel=1e-12)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: kl_minimization_oracle(GameParams(65, 0.5)), ValidationError,
                 "oracle intended for small branching factors (m <= 64)", id="oracle-m-65"),
])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
