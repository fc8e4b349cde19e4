"""Exponent and critical-point checks against independent oracles.

Oracles used here: adaptive quadrature of the defining integral for T,
the Gamma form in mpmath for the moment exponent, central finite
differences for T', and direct sign-change scans for every root-finding
routine.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmelab import analytics as an
from lmelab.errors import ContractViolation


class TestT:
    def test_t_at_one_is_zero(self):
        assert an.T_of_q(1.0) == 0.0

    def test_t_at_two_is_quarter_pi(self):
        assert an.T_of_q(2.0) == pytest.approx(math.pi / 4, abs=1e-10)
        assert an.T_quadrature(2.0) == pytest.approx(math.pi / 4, abs=1e-10)

    def test_t_at_three_halves_is_half(self):
        # Gamma(1)/Gamma(1/2) = 1/sqrt(pi) makes T(3/2) = 1/2 exactly
        assert an.T_of_q(1.5) == pytest.approx(0.5, rel=1e-14)

    def test_t_at_three_quarters(self):
        # frozen from the defining-integral quadrature (agrees to 2e-14)
        assert an.T_of_q(0.75) == pytest.approx(-0.65551438857303, rel=1e-12)
        assert an.T_of_q(0.75) < 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            an.T_of_q(0.5)
        with pytest.raises(ValueError):
            an.T_of_q(0.2)

    def test_closed_form_matches_quadrature_200_points(self):
        rng = np.random.default_rng(0)
        for q in rng.uniform(0.6, 10.0, 200):
            tc = an.T_of_q(q)
            tq = an.T_quadrature(q)
            assert abs(tc - tq) / (1.0 + abs(tc)) <= 1e-8

    @given(st.floats(0.55, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_negative_below_one(self, q):
        assert an.T_of_q(q) < 0

    @given(st.floats(1.001, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_positive_above_one(self, q):
        assert an.T_of_q(q) > 0


class TestTPrime:
    def test_finite_difference_agreement(self):
        h = 1e-5
        for q in np.linspace(0.6, 10.0, 95):
            fd = (an.T_of_q(q + h) - an.T_of_q(q - h)) / (2 * h)
            assert an.T_prime(q) == pytest.approx(fd, rel=1e-6)

    def test_value_at_one(self):
        # analytic limit through the removable point
        assert an.T_prime(1.0) == pytest.approx(math.pi / 2, rel=1e-14)
        h = 1e-5
        fd = (an.T_of_q(1 + h) - an.T_of_q(1 - h)) / (2 * h)
        assert an.T_prime(1.0) == pytest.approx(fd, rel=1e-8)
        assert an.T_prime(1.0) > 0

    @given(st.floats(0.51, 200.0))
    @settings(max_examples=80, deadline=None)
    def test_always_positive(self, q):
        assert an.T_prime(q) > 0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            an.T_prime(0.5)


class TestQc:
    def test_value(self):
        qc = an.find_qc()
        assert abs(qc - 2.4056) <= 5e-4
        assert abs(an.H_of_q(qc)) <= 1e-12

    def test_h_signs(self):
        assert an.H_of_q(1.5) > 0
        assert an.H_of_q(4.0) < 0

    def test_h_sqrt_growth_order(self):
        # |H| grows like sqrt(q): ratio over a 4x step tends to 2
        r = an.H_of_q(400.0) / an.H_of_q(100.0)
        assert 1.8 < r < 2.2
        assert an.H_of_q(400.0) < 0

    def test_single_sign_change_scan(self):
        qs = np.arange(0.6, 10.0 + 1e-12, 0.01)
        hs = np.array([an.H_of_q(q) for q in qs])
        assert np.sum(np.diff(np.sign(hs)) != 0) == 1


class TestPStar:
    def test_unbounded_below_one(self):
        assert an.p_star(0.75) == math.inf
        assert an.p_star(1.0) == math.inf
        # a float, so it compares with finite orders
        assert 2 < an.p_star(0.75)

    def test_exact_value_at_two(self):
        # T(3) = 3 pi/8 = (3/2) T(2), so p*(2) = 3/2 exactly
        assert an.p_star(2.0) == pytest.approx(1.5, abs=1e-9)

    def test_sign_change_across_root(self):
        q = 2.0
        p = an.p_star(q)
        g = lambda p_: an.T_of_q(p_ * q) - p_ * an.T_of_q(q)
        assert g(p - 0.01) > 0 > g(p + 0.01)
        assert abs(g(1.0)) <= 1e-12

    def test_tends_to_one_at_qc(self):
        assert an.p_star(an.find_qc() - 1e-6) == pytest.approx(1.0, abs=1e-4)

    def test_strictly_decreasing(self):
        vals = [an.p_star(q) for q in (1.2, 1.5, 1.8, 2.1, 2.35)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        message = r"^q must lie in \(1/2, q_c=.*\) for p_star, got 0\.4$"
        with pytest.raises(ValueError, match=message):
            an.p_star(0.4)
        with pytest.raises(ValueError, match="^q "):
            an.p_star(3.0)


class TestQk:
    def test_q2(self):
        q2 = an.find_qk(2)
        g = lambda x: an.T_of_q(2 * x) - 2 * an.T_of_q(x)
        assert g(1.75) * g(1.9) < 0  # sign-change oracle
        assert q2 == pytest.approx(1.7921984724, rel=1e-8)
        assert abs(g(q2)) <= 1e-12

    def test_ordering(self):
        qc = an.find_qc()
        q2, q3, q4, q5 = (an.find_qk(k) for k in (2, 3, 4, 5))
        assert 1.0 < q5 < q4 < q3 < q2 < qc

    def test_p_star_inverse_relation(self):
        # q_k is precisely where the moment boundary equals k
        assert an.p_star(an.find_qk(2)) == pytest.approx(2.0, abs=1e-7)
        assert an.p_star(an.find_qk(3)) == pytest.approx(3.0, abs=1e-6)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            an.find_qk(1)
        with pytest.raises(ValueError, match="k must be an integer"):
            an.find_qk(2.5)


class TestMomentExponent:
    @staticmethod
    def T_mp(q):
        """T(q) = (sqrt(pi)/2) Gamma(q - 1/2) / Gamma(q - 1) in mpmath."""
        return mp.sqrt(mp.pi) / 2 * mp.gamma(q - mp.mpf(1) / 2) / mp.gamma(q - 1)

    @pytest.mark.parametrize(
        "q, p",
        [(0.55, 2.0), (0.75, 3.0), (0.9, 1.5), (1.3, 2.5), (1.5, 0.5), (2.0, 4.0), (6.0, 0.3)],
    )
    def test_matches_gamma_form(self, q, p):
        with mp.workdps(30):
            qm, pm = mp.mpf(q), mp.mpf(p)
            exact = self.T_mp(pm * qm) - pm * self.T_mp(qm)
        assert abs(an.moment_exponent(q, p) / float(exact) - 1) <= 1e-13

    @pytest.mark.parametrize("q", [0.6, 0.9, 1.5, 3.0])
    def test_zero_at_one(self, q):
        assert an.moment_exponent(q, 1.0) == 0.0

    @pytest.mark.parametrize("q", [0.6, 0.9, 1.5, 3.0])
    def test_p_slope_at_one_is_H(self, q):
        # H reaches T' through digamma, a path moment_exponent never takes
        h = 1e-5
        slope = (an.moment_exponent(q, 1 + h) - an.moment_exponent(q, 1 - h)) / (2 * h)
        assert slope == pytest.approx(an.H_of_q(q), rel=1e-7)

    @pytest.mark.parametrize("p", [0.5, 0.6666666666666667, math.inf, math.nan])
    def test_p_outside_the_range_names_p(self, p):
        # each would otherwise fail inside T_of_q(p q), whose message names q;
        # 2/3 rounded up exceeds 1/(2q), but its product with q rounds to 1/2
        with pytest.raises(ValueError, match="^p "):
            an.moment_exponent(0.75, p)


class TestD:
    def test_value_at_one(self):
        assert an.d_of_q(1.0, 0.1) == pytest.approx(0.05 * math.pi, rel=1e-12)

    def test_value_at_two(self):
        assert an.d_of_q(2.0, 0.1) == pytest.approx(0.025 * math.pi, rel=1e-12)
        assert an.d_of_q(2.0, 0.1) == pytest.approx(
            0.1 * an.T_of_q(2.0) / (2.0 - 1.0), rel=1e-12
        )

    def test_linear_in_b(self):
        assert an.d_of_q(3.3, 0.0) == 0.0
        assert an.d_of_q(3.3, 0.4) == pytest.approx(2 * an.d_of_q(3.3, 0.2), rel=1e-14)

    def test_continuous_at_one(self):
        # removable singularity of bT(q)/(q-1)
        lim = 0.1 * an.T_of_q(1.0 + 1e-7) / 1e-7
        assert an.d_of_q(1.0, 0.1) == pytest.approx(lim, rel=1e-6)

    @pytest.mark.parametrize("b", [0.05, 0.1])
    @pytest.mark.parametrize("q", [0.75, 1.5, 2.0, 3.0])
    def test_prbm_small_b_formula_at_eight_b_over_pi(self, q, b):
        # Mirlin and Evers' real-symmetric PRBM d_q = 4b Gamma(q-1/2) /
        # (sqrt(pi) Gamma(q)), in mpmath at 30 digits
        with mp.workdps(30):
            want = 4 * mp.mpf(b) * mp.gamma(mp.mpf(q) - 0.5) / (mp.sqrt(mp.pi) * mp.gamma(q))
        got = an.d_of_q(q, 8 * b / math.pi)
        assert abs(got - float(want)) <= 1e-14 * float(want)


class TestHExponent:
    def test_scan_oracle_at_three(self):
        h = an.h_exponent(3.0)
        hs = np.linspace(0.2, 0.999, 2000)
        gs = [an.T_of_q(3 * x) - x * an.T_of_q(3.0) for x in hs]
        assert h == pytest.approx(hs[int(np.argmax(gs))], abs=1e-3)
        assert an.T_of_q(3 * h) - h * an.T_of_q(3.0) > 0

    def test_maximum_vanishes_at_critical_point(self):
        qc = an.find_qc()
        h = an.h_exponent(qc + 1e-3)
        g = an.T_of_q((qc + 1e-3) * h) - h * an.T_of_q(qc + 1e-3)
        assert 0 < g < 1e-4

    def test_interior_at_five(self):
        assert 0.1 < an.h_exponent(5.0) < 0.99

    def test_domain_error(self):
        with pytest.raises(ValueError, match=r"^q must exceed q_c = .* for h_exponent, got 2\.0$"):
            an.h_exponent(2.0)


class TestReports:
    def test_bracket_failure_is_contract_violation(self):
        with pytest.raises(ContractViolation):
            an._bracketed_root(lambda x: 1.0 + x * x, 0.0, 1.0)
