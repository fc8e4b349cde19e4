"""Angle-law checks: density/CDF/sampler consistency, small-eps scaling,
and the regularization bounds of the scale family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmelab import theta as th


def ks_statistic(samples: np.ndarray, cdf) -> float:
    x = np.sort(samples)
    n = len(x)
    f = cdf(x)
    return max(np.max(f - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - f))


class TestDensity:
    def test_peak_value(self):
        law = th.ThetaLaw(0.01)
        assert th.theta_density(law, 0.0) == pytest.approx(
            2.0 / (math.pi * law.s), rel=1e-14
        )

    def test_edge_value(self):
        law = th.ThetaLaw(0.01)
        assert th.theta_density(law, math.pi / 4) == pytest.approx(
            2.0 * law.s / math.pi, rel=1e-14
        )

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
    def test_normalization(self, eps):
        law = th.ThetaLaw(eps)
        assert th.expect_theta(law, lambda t: 1.0) == pytest.approx(1.0, abs=1e-8)

    @given(st.floats(-math.pi / 4, math.pi / 4), st.floats(1e-4, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_nonnegative(self, t, eps):
        law = th.ThetaLaw(eps)
        r = th.theta_density(law, t)
        assert r >= 0.0
        assert r == pytest.approx(th.theta_density(law, -t), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2, 0.3, 1.0, 2.0])
    def test_scalar_paths_match_array_path(self, eps):
        # one density formula behind theta_density's scalar and array paths
        # and expect_theta's math-scalar integrand
        law = th.ThetaLaw(eps)
        half = np.linspace(0.0, math.pi / 4, 101)
        half = np.concatenate([half, [p for p in (eps, 10 * eps) if p < math.pi / 4]])
        grid = np.concatenate([-half, half])
        arr = th.theta_density(law, grid)
        for t, r in zip(grid.tolist(), arr):
            scalar = th.theta_density(law, t)
            assert isinstance(scalar, float)
            assert abs(scalar / r - 1.0) <= 1e-15
            integrand = th._density(law.s, math.sin(2.0 * t), math.cos(2.0 * t))
            assert abs(integrand / r - 1.0) <= 1e-15
        with pytest.raises(ValueError):
            th.theta_density(law, math.pi / 4 + 1e-9)
        with pytest.raises(ValueError):
            th.theta_density(law, np.array([0.0, -math.pi / 4 - 1e-9]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            th.theta_density(th.ThetaLaw(0.1), 1.0)
        for eps in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^epsilon "):
                th.ThetaLaw(eps)

    def test_cdf_matches_density_integral(self):
        law = th.ThetaLaw(0.05)
        for t in (-0.7, -0.1, 0.0, 0.3, 0.78):
            t = max(-math.pi / 4, min(math.pi / 4, t))
            num = th.expect_theta(law, lambda x, t=t: 1.0 if x <= t else 0.0)
            assert th.theta_cdf(law, t) == pytest.approx(num, abs=1e-7)


class TestSampler:
    def test_antithetic_odd_map(self):
        # the inverse-CDF draw maps U and 1 - U to opposite angles
        class Uniforms:
            def __init__(self, u):
                self.u = u

            def random(self, size=None):
                return self.u

        law = th.ThetaLaw(0.3)
        u = np.array([1e-6, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-6])
        assert np.allclose(
            th.sample_theta(law, Uniforms(u), u.size),
            -th.sample_theta(law, Uniforms(1.0 - u), u.size),
            rtol=1e-12,
            atol=1e-15,
        )

    def test_support(self):
        law = th.ThetaLaw(1.5)
        x = th.sample_theta(law, np.random.default_rng(7), 10_000)
        assert np.all(np.abs(x) <= math.pi / 4)

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
    def test_ks_against_exact_cdf(self, eps):
        law = th.ThetaLaw(eps)
        n = 100_000
        x = th.sample_theta(law, np.random.default_rng(123), n)
        d = ks_statistic(x, lambda v: th.theta_cdf(law, v))
        assert d <= 4.0 / math.sqrt(n)

    def test_sin2_cos2_match_angles(self):
        law = th.ThetaLaw(0.2)
        seed = 99
        s2, c2 = th.sample_sin2_cos2(law, np.random.default_rng(seed), 1000)
        theta = th.sample_theta(law, np.random.default_rng(seed), 1000)
        assert np.allclose(s2, np.sin(theta) ** 2, atol=1e-13)
        assert np.allclose(s2 + c2, 1.0, atol=1e-15)

    @pytest.mark.parametrize("eps", [1e-3, 1e-9, 1e-12])
    def test_sin2_relative_accuracy_at_small_eps(self, eps):
        # 0.5 * (1 - 1/sqrt(1 + u^2)) cancels to 0 once u^2 falls below
        # the rounding of 1; sin^2 must keep its relative accuracy there
        law = th.ThetaLaw(eps)
        s2, _ = th.sample_sin2_cos2(law, np.random.default_rng(31), 1000)
        theta = th.sample_theta(law, np.random.default_rng(31), 1000)
        ref = np.sin(theta) ** 2
        assert np.all(np.abs(s2 / ref - 1.0) <= 1e-13)

    def test_mean_sin2_monte_carlo(self):
        eps = 1e-2
        law = th.ThetaLaw(eps)
        n = 10**6
        s2, _ = th.sample_sin2_cos2(law, np.random.default_rng(5), n)
        exact = th.expect_theta(law, lambda t: math.sin(t) ** 2)
        se = np.std(s2) / math.sqrt(n)
        assert abs(np.mean(s2) - exact) <= 3.0 * se

    def test_tail_probability_monte_carlo(self):
        eps = 1e-2
        law = th.ThetaLaw(eps)
        n = 10**6
        x = th.sample_theta(law, np.random.default_rng(17), n)
        p_emp = np.mean(np.abs(x) > math.pi / 8)
        p_quad = th.expect_theta(
            law, lambda t: 1.0 if abs(t) > math.pi / 8 else 0.0
        )
        se = math.sqrt(p_quad * (1 - p_quad) / n)
        assert p_quad < 10 * eps  # O(eps) tail
        assert abs(p_emp - p_quad) <= 3.0 * se


class TestExpectations:
    def test_normalization_f_one(self):
        assert th.expect_theta(th.ThetaLaw(0.37), lambda t: 1.0) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_odd_function_vanishes(self):
        law = th.ThetaLaw(0.2)
        assert th.expect_theta(law, lambda t: math.sin(2 * t)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_sin2_scaling_at_small_eps(self):
        eps = 1e-3
        law = th.ThetaLaw(eps)
        val = th.expect_theta(law, lambda t: math.sin(t) ** 2)
        assert abs(val / (eps / 2) - 1.0) < 0.01


class TestChiBounds:
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
    def test_bounds_with_c_four(self, eps):
        law = th.ThetaLaw(eps)
        t = np.linspace(-math.pi / 4, math.pi / 4, 20001)
        chi = th.theta_density(law, t) * np.sin(2 * t) ** 2 / eps
        assert np.all(chi <= 4.0 * (t / eps) ** 2 + 1e-12)
        far = np.abs(t) >= eps
        assert np.all(np.abs(chi[far] - 1.0) <= 4.0 * eps / np.abs(t[far]) + 1e-12)


class TestFoldedRule:
    @pytest.mark.parametrize("eps", [2.0, 0.3, 1e-2, 1e-4, 5e-6])
    def test_normalization_and_even_moments(self, eps):
        law = th.ThetaLaw(eps)
        nodes, w = th.folded_rule(law, 32)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        ref = th.expect_theta(law, lambda t: math.cos(t) ** 2, tol=1e-13)
        assert np.cos(nodes) ** 2 @ w == pytest.approx(ref, abs=1e-11)
