"""Angle-law checks: density/CDF/sampler consistency, the degenerate-scale
limit functional, and the regularization bounds of the scale family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmelab import analytics as an
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
        with pytest.raises(ValueError):
            th.ThetaLaw(0.0)

    def test_cdf_matches_density_integral(self):
        law = th.ThetaLaw(0.05)
        for t in (-0.7, -0.1, 0.0, 0.3, 0.78):
            t = max(-math.pi / 4, min(math.pi / 4, t))
            num = th.expect_theta(law, lambda x, t=t: 1.0 if x <= t else 0.0)
            assert th.theta_cdf(law, t) == pytest.approx(num, abs=1e-7)


class TestSampler:
    def test_antithetic_odd_map(self):
        law = th.ThetaLaw(0.3)
        c = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        assert np.allclose(
            th.theta_from_cauchy(law, c), -th.theta_from_cauchy(law, -c)
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


class TestSingularLimit:
    def test_sin2_closed_form(self):
        # sin^2/sin^2(2t) = 1/(4 cos^2 t) has antiderivative tan(t)/4
        assert th.singular_limit(lambda t: math.sin(t) ** 2) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_matches_decay_exponent_at_two(self):
        f = lambda t: 1 - math.sin(t) ** 4 - math.cos(t) ** 4
        assert th.singular_limit(f) == pytest.approx(math.pi / 4, abs=1e-9)

    def test_matches_decay_exponent_at_fractional_q(self):
        q = 0.75
        f = lambda t: 1 - (math.sin(t) ** 2) ** q - (math.cos(t) ** 2) ** q
        assert th.singular_limit(f) == pytest.approx(an.T_of_q(q), abs=1e-9)

    def test_odd_function_vanishes(self):
        f = lambda t: (math.sin(t) ** 2 * math.cos(t) ** 2) * math.sin(2 * t)
        assert th.singular_limit(f) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "f,alpha",
        [
            (lambda t: math.sin(t) ** 2, 2.0),
            (lambda t: abs(math.sin(t)) ** 1.5, 1.5),
        ],
    )
    def test_expectation_error_order(self, f, alpha):
        # |E_eps[f] - eps * limit| = O(eps^alpha), checked by a log-log fit
        lim = th.singular_limit(f)
        eps = 2.0 ** -np.arange(4, 10)
        dev = [abs(th.expect_theta(th.ThetaLaw(e), f) - e * lim) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(dev), 1)[0]
        assert slope == pytest.approx(alpha, abs=0.15)


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
        nodes, w = th.folded_rule(law)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        ref = th.expect_theta(law, lambda t: math.cos(t) ** 2, tol=1e-13)
        assert np.cos(nodes) ** 2 @ w == pytest.approx(ref, abs=1e-11)
