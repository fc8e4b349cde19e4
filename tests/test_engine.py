"""Pool-engine checks against the deterministic moment machinery."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from lmelab import analytics as an
from lmelab import engine as en
from lmelab import moments as mo
from lmelab import theta as th
from lmelab.errors import QuadratureWarning
from lmelab.streams import DOMAIN_LME, derive_stream


def small_params(**kw):
    base = dict(q=0.75, b=0.5, n_max=200, pool_size=16_000, seed=7)
    base.update(kw)
    return en.LmeParams(**base)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            en.LmeParams(q=0.4, b=0.5, n_max=10)
        with pytest.raises(ValueError):
            en.LmeParams(q=0.75, b=-1.0, n_max=10)
        with pytest.raises(ValueError):
            en.LmeParams(q=0.75, b=0.5, n_max=10, pool_size=100)
        with pytest.raises(ValueError):
            en.LmeParams(q=0.75, b=0.5, n_max=10, pool_size=10_001)


class TestExactTn:
    def test_q_one_is_exactly_one(self):
        assert en.exact_Tn(1.0, 0.123) == 1.0

    def test_small_eps_limits(self):
        # (1 - T_n)/eps -> T(q); the approach is O(eps^{2q-1}) for q < 1,
        # so the fractional-q case needs a smaller eps for 1% agreement
        t_frac = en.exact_Tn(0.75, 1e-3)
        assert t_frac > 1.0
        assert (1.0 - en.exact_Tn(0.75, 1e-5)) / 1e-5 == pytest.approx(
            an.T_of_q(0.75), rel=0.01
        )
        t_two = en.exact_Tn(2.0, 1e-3)
        assert t_two < 1.0
        assert (1.0 - t_two) / 1e-3 == pytest.approx(math.pi / 4, rel=0.01)

    def test_cache_round_trip(self):
        v1 = en.exact_Tn(0.8, 0.05)
        v2 = en.exact_Tn(0.8, 0.05)
        assert v1 == v2

    def test_matches_expect_theta(self):
        q, eps = 0.9, 0.02
        law = th.ThetaLaw(eps)
        direct = th.expect_theta(
            law, lambda t: (math.sin(t) ** 2) ** q + (math.cos(t) ** 2) ** q
        )
        assert en.exact_Tn(q, eps) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("q", [0.6, 0.8, 2.0])
    @pytest.mark.parametrize("eps", [0.5, 1e-2, 1e-4])
    def test_matches_mpmath(self, q, eps):
        # the closed-form density and the T_n integrand written afresh in
        # mpmath; both are even, so twice the integral over [0, pi/4]
        with mp.workdps(30):
            s = mp.pi * mp.mpf(eps) / 2
            mq = mp.mpf(q)

            def integrand(t):
                r = 2 * s / (mp.pi * (s**2 * mp.cos(2 * t) ** 2 + mp.sin(2 * t) ** 2))
                return ((mp.sin(t) ** 2) ** mq + (mp.cos(t) ** 2) ** mq) * r

            cuts = [c for c in (mp.mpf(eps), 10 * mp.mpf(eps)) if c < mp.pi / 4]
            ref = float(2 * mp.quad(integrand, [0, *cuts, mp.pi / 4]))
        # 1e-10 absolute is expect_theta's tolerance
        assert abs(en.exact_Tn(q, eps) - ref) <= 1e-10

    @pytest.mark.parametrize("q", [0.6, 0.8, 2.0])
    def test_matches_folded_rule_along_schedule(self, q, monkeypatch):
        # adaptive quadrature against the 64-node fixed rule over the scales
        # eps = b/n a run visits; a tolerance miss fails instead of warning
        monkeypatch.setattr(en, "_tn_cache", {})
        b = 0.5
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureWarning)
            for n in np.unique(np.geomspace(1, 2000, 40).round().astype(int)):
                nodes, w = th.folded_rule(th.ThetaLaw(b / n), 64)
                ref = ((np.sin(nodes) ** 2) ** q + (np.cos(nodes) ** 2) ** q) @ w
                worst = max(worst, abs(en.exact_Tn(q, b / n) / ref - 1.0))
        assert worst <= 1e-8


class TestStep:
    def test_unit_pool_fixed_at_q_one(self):
        params = en.LmeParams(q=1.0, b=0.5, n_max=10, pool_size=4000, seed=1)
        pool = en.init_pool(params)
        stepped = en.step(pool, params)
        assert np.allclose(stepped.values, 1.0, atol=1e-15)
        assert stepped.logZ == 0.0
        assert stepped.n == 2

    def test_values_nonnegative_and_mean_near_one(self):
        params = small_params(n_max=50)
        pool = en.init_pool(params)
        for _ in range(30):
            pool = en.step(pool, params)
        assert np.all(pool.values >= 0.0)
        _, mean, se = en.block_mean_se(pool.values, pool.blocks)
        assert abs(mean - 1.0) <= 5.0 * se

    def test_deterministic_replay(self):
        params = small_params(n_max=30)
        p1 = en.init_pool(params)
        p2 = en.init_pool(params)
        for _ in range(10):
            p1 = en.step(p1, params)
            p2 = en.step(p2, params)
        assert np.array_equal(p1.values, p2.values)

    def test_one_stream_per_step(self, monkeypatch):
        labels = []

        def counting(seed, labs):
            labels.append(tuple(labs))
            return derive_stream(seed, labs)

        monkeypatch.setattr(en, "derive_stream", counting)
        params = small_params(n_max=10)
        en.step(en.init_pool(params), params)
        assert labels == [(DOMAIN_LME, 1)]

    def test_parents_stay_in_their_block(self):
        # at q = 1 the update is a convex combination of the two parents,
        # so a block filled with k stays at k only if both come from it;
        # the cases are several blocks in one chunk, several multi-block
        # chunks, and blocks larger than a chunk
        for pool_size, blocks in ((4000, 8), (65536, 32), (20000, 2)):
            params = en.LmeParams(
                q=1.0, b=0.5, n_max=10, pool_size=pool_size, seed=2, blocks=blocks
            )
            labels = np.repeat(np.arange(blocks, dtype=float), pool_size // blocks)
            pool = en.SamplePool(n=1, values=labels, logZ=0.0, blocks=blocks)
            for _ in range(5):
                pool = en.step(pool, params)
            assert np.allclose(pool.values, labels, rtol=0.0, atol=1e-12)


class TestRun:
    def test_single_checkpoint_trivial(self):
        rec = en.run(en.LmeParams(q=0.8, b=0.5, n_max=1, pool_size=3200, seed=0))
        assert rec.ns == [1]
        assert rec.logZ == [0.0]
        assert rec.moments[2.0] == [1.0]
        assert rec.means == [1.0]

    def test_second_moment_tracks_exact_trajectory(self):
        params = small_params(n_max=500, pool_size=32_000, seed=21)
        rec = en.run(params)
        traj = mo.moment_trajectory(params.q, params.b, params.n_max, kmax=3)
        for p in (2.0, 3.0):
            est = rec.moments[p][-1]
            se = rec.ses[p][-1]
            exact = traj[-1, int(p) - 1]
            assert abs(est - exact) <= 3.0 * se

    def test_mean_within_five_se_at_every_checkpoint(self):
        rec = en.run(small_params(n_max=500, seed=9))
        for m, se in zip(rec.means, rec.mean_ses):
            if se == 0.0:
                assert m == 1.0
            else:
                assert abs(m - 1.0) <= 5.0 * se

    def test_logz_is_deterministic_sum(self):
        params = small_params(n_max=64)
        rec = en.run(params)
        expected = sum(
            math.log(en.exact_Tn(params.q, params.b / n))
            for n in range(1, params.n_max)
        )
        assert rec.logZ[-1] == pytest.approx(expected, abs=1e-12)


class TestOls:
    def test_recovers_exact_line(self):
        x = np.log([64.0, 128.0, 256.0, 512.0, 1024.0])
        coef, se, resid = en.ols(np.vstack([np.ones_like(x), x]).T, 3.0 * x - 1.0)
        assert coef[1] == pytest.approx(3.0, abs=1e-12)
        assert se[1] == pytest.approx(0.0, abs=1e-10)
        assert np.abs(resid).max() <= 1e-12

    def test_rank_deficient_design_has_infinite_errors(self):
        design = np.array([[1.0, 2.0, 3.0], [1.0, 5.0, 7.0]])  # 2 rows, 3 columns
        coef, se, resid = en.ols(design, np.array([1.0, 2.0]))
        assert np.all(np.isinf(se))
        assert np.all(np.isfinite(coef))
        assert np.abs(resid).max() <= 1e-12


class TestPaleyZygmund:
    def test_unit_pool(self):
        pool = en.init_pool(en.LmeParams(q=0.75, b=0.5, n_max=5, pool_size=3200))
        pz = en.paley_zygmund_bounds(pool, 2.0)
        assert pz.empirical_p_gt_2 == 0.0 <= pz.upper_p_gt_2
        assert pz.empirical_p_ge_half == 1.0 >= pz.lower_p_ge_half

    def test_bounds_hold_on_evolved_pool(self):
        params = small_params(n_max=300, seed=5)
        rec = en.run(params)
        pz = en.paley_zygmund_bounds(rec.final_pool, 2.0)
        n = rec.final_pool.values.size
        se = 1.0 / math.sqrt(n)  # Bernoulli SE upper bound
        assert pz.empirical_p_gt_2 <= pz.upper_p_gt_2 + 3 * se
        assert pz.empirical_p_ge_half >= pz.lower_p_ge_half - 3 * se

    def test_validation(self):
        pool = en.init_pool(en.LmeParams(q=0.75, b=0.5, n_max=5, pool_size=3200))
        with pytest.raises(ValueError):
            en.paley_zygmund_bounds(pool, 1.0)
