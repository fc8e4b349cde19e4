"""Angle-law checks: density/CDF/sampler consistency, small-eps scaling,
and the regularization bounds of the scale family."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from lmelab import engine as en
from lmelab import theta as th
from lmelab.errors import QuadratureWarning


def ks_statistic(samples: np.ndarray, cdf) -> float:
    x = np.sort(samples)
    n = len(x)
    f = cdf(x)
    return max(np.max(f - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - f))


def density_integral(law: th.ThetaLaw, a: float, b: float) -> float:
    """int_a^b theta_density in theta by scipy's quad, split at 0 and at
    +-eps 2^k below pi/4: an oracle for the density that shares no code
    with expect_theta, which integrates in the law's uniform variable."""
    cuts = [0.0]
    p = law.epsilon
    while p < math.pi / 4:
        cuts += [-p, p]
        p *= 2.0
    points = sorted(c for c in cuts if a < c < b)
    val, _ = integrate.quad(
        lambda t: th.theta_density(law, t),
        a,
        b,
        points=points or None,
        epsabs=1e-12,
        epsrel=0.0,
        limit=400,
    )
    return val


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
        total = density_integral(law, -math.pi / 4, math.pi / 4)
        assert total == pytest.approx(1.0, abs=1e-8)

    @given(st.floats(-math.pi / 4, math.pi / 4), st.floats(1e-4, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_nonnegative(self, t, eps):
        law = th.ThetaLaw(eps)
        r = th.theta_density(law, t)
        assert r >= 0.0
        assert r == pytest.approx(th.theta_density(law, -t), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-2, 0.3, 1.0, 2.0])
    def test_scalar_paths_match_array_path(self, eps):
        # theta_density's scalar path returns a float equal to its array path
        law = th.ThetaLaw(eps)
        half = np.linspace(0.0, math.pi / 4, 101)
        half = np.concatenate([half, [p for p in (eps, 10 * eps) if p < math.pi / 4]])
        grid = np.concatenate([-half, half])
        arr = th.theta_density(law, grid)
        for t, r in zip(grid.tolist(), arr):
            scalar = th.theta_density(law, t)
            assert isinstance(scalar, float)
            assert abs(scalar / r - 1.0) <= 1e-15
        with pytest.raises(ValueError):
            th.theta_density(law, math.pi / 4 + 1e-9)
        with pytest.raises(ValueError):
            th.theta_density(law, np.array([0.0, -math.pi / 4 - 1e-9]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            th.theta_density(th.ThetaLaw(0.1), 1.0)
        with pytest.raises(ValueError, match=r"theta outside \[-pi/4, pi/4\]"):
            th.theta_cdf(th.ThetaLaw(0.1), 1.0)
        for eps in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^epsilon "):
                th.ThetaLaw(eps)

    def test_cdf_matches_density_integral(self):
        law = th.ThetaLaw(0.05)
        for t in (-0.7, -0.1, 0.0, 0.3, 0.78):
            t = max(-math.pi / 4, min(math.pi / 4, t))
            num = density_integral(law, -math.pi / 4, t)
            assert th.theta_cdf(law, t) == pytest.approx(num, abs=1e-7)


class TestSampler:
    def test_antithetic_odd_map(self):
        # the inverse-CDF draw maps U and 1 - U to opposite angles
        class Uniforms:
            # a fresh array per call, as Generator.random returns: the
            # samplers compute in the uniforms' buffer
            def __init__(self, u):
                self.u = u

            def random(self, size=None):
                return self.u.copy()

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

    @pytest.mark.parametrize("eps", [0.3, 1e-3, 1e-9, 1e-12])
    def test_draws_match_reference_expressions(self, eps):
        # the buffered draws against the plain expressions, temporaries and
        # all, on the same uniforms: equal bit for bit
        law = th.ThetaLaw(eps)
        uniforms = np.random.default_rng(41).random(5000)
        u = law.s * np.tan(math.pi * (uniforms - 0.5))
        u2 = u * u
        r = np.sqrt(1.0 + u2)
        sin2 = u2 / (2.0 * r * (1.0 + r))
        s2, c2 = th.sample_sin2_cos2(law, np.random.default_rng(41), 5000)
        assert np.array_equal(s2, sin2)
        assert np.array_equal(c2, 1.0 - sin2)
        theta = th.sample_theta(law, np.random.default_rng(41), 5000)
        assert np.array_equal(theta, 0.5 * np.arctan(u))
        one = th.sample_theta(law, np.random.default_rng(41))
        assert isinstance(one, float)
        assert one == theta[0]

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

    @pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12])
    def test_normalization_at_tiny_eps(self, eps):
        # almost all the mass sits within 10 eps, but the 1/theta^2 tail
        # beyond it still carries 5% of it
        assert th.expect_theta(th.ThetaLaw(eps), lambda t: 1.0) == pytest.approx(
            1.0, abs=1e-10
        )

    @given(st.floats(math.log(1e-12), math.log(4.0)).map(math.exp))
    @settings(max_examples=60, deadline=None)
    def test_unit_and_odd_moments_without_warning(self, eps):
        law = th.ThetaLaw(eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureWarning)
            warnings.simplefilter("error", integrate.IntegrationWarning)
            one = th.expect_theta(law, lambda t: 1.0)
            odd = th.expect_theta(law, lambda t: math.sin(2.0 * t))
        assert abs(one - 1.0) <= 1e-10
        assert abs(odd) <= 1e-10

    @pytest.mark.parametrize(("eps", "most"), [(0.5 / 199, 300), (0.5 / 10**4, 400)])
    def test_tn_integrand_calls(self, eps, most):
        # the T_n quadrature at q 0.8 on the lme benchmark's last scale
        # (n 199 at b 0.5) and on the simulate-lme default's (n 10^4)
        calls = 0

        def tn(t):
            nonlocal calls
            calls += 1
            return (math.sin(t) ** 2) ** 0.8 + (math.cos(t) ** 2) ** 0.8

        th.expect_theta(th.ThetaLaw(eps), tn)
        assert calls <= most

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

    # twice the worst relative error of the rule that split the peak at eps
    # and 10 eps, or 2e-14 where that was below 1e-14
    @pytest.mark.parametrize(
        "q, bound_24, bound_48",
        [
            (0.55, 3.4e-8, 1.92e-9),
            (0.75, 8.82e-9, 2.9e-10),
            (0.9, 8.5e-10, 1.84e-11),
            (1.5, 9.15e-11, 2e-14),
            (3.0, 9.15e-11, 2e-14),
        ],
    )
    def test_tn_at_library_node_counts(self, q, bound_24, bound_48, monkeypatch):
        # 24 nodes per panel step the Laplace grid, 48 fill the moment
        # table; the oracle is the adaptive T_n in the uniform variable
        monkeypatch.setattr(en, "_tn_cache", {})
        worst = {24: 0.0, 48: 0.0}
        for eps in np.geomspace(1e-8, 2.0, 40):
            exact = en.exact_Tn(q, float(eps))
            for nodes_per_panel in worst:
                nodes, w = th.folded_rule(th.ThetaLaw(float(eps)), nodes_per_panel)
                tn = ((np.sin(nodes) ** 2) ** q + (np.cos(nodes) ** 2) ** q) @ w
                worst[nodes_per_panel] = max(worst[nodes_per_panel], abs(tn / exact - 1.0))
        assert worst[24] <= bound_24
        assert worst[48] <= bound_48


class TestGaussPanels:
    @pytest.mark.parametrize("edges", [[0.0], [0.0, 1e-3], [0.1, 0.3, 0.7]])
    def test_weights_sum_to_the_interval(self, edges):
        _, w = th.gauss_panels(edges, 4)
        assert np.sum(w) == pytest.approx(math.pi / 4 - edges[0], rel=1e-14)

    @pytest.mark.parametrize(
        "edges",
        [[], [1.0], [0.3, 0.1], [0.1, 0.1], [-0.1, 0.2], [0.0, math.nan], [math.pi / 4]],
        ids=["empty", "past-pi/4", "descending", "repeated", "negative", "nan", "at-pi/4"],
    )
    def test_edges_must_ascend_within_the_quarter(self, edges):
        # unchecked, [1.0] integrates from 1 down to pi/4: weights sum to -0.2146
        with pytest.raises(ValueError, match="^edges "):
            th.gauss_panels(edges, 4)

    @pytest.mark.parametrize("nodes_per_panel", [0, 2.5, 4.0])
    def test_folded_rule_names_its_node_count(self, nodes_per_panel):
        with pytest.raises(ValueError, match="^nodes_per_panel "):
            th.folded_rule(th.ThetaLaw(0.1), nodes_per_panel)
