"""Pool-engine checks against the deterministic moment machinery."""

import math
import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import lmelab
from lmelab import analytics as an
from lmelab import engine as en
from lmelab import moments as mo
from lmelab import theta as th
from lmelab.errors import QuadratureWarning
from lmelab.streams import DOMAIN_LME, DOMAIN_TEST, derive_stream


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

    @pytest.mark.parametrize("q", [0.6, 0.75, 1.5, 2.0, 3.0])
    def test_error_order_against_T_of_q(self, q):
        # 1 - T_n = E[f] for f = 1 - sin^{2q} - cos^{2q} = O(|theta|^a),
        # a = min(2q, 2), so |1 - T_n - eps T(q)| = O(eps^a): a log-log fit
        # of the deviation over eps = 2^-4 ... 2^-9
        eps = 2.0 ** -np.arange(4, 10)
        dev = [abs(1.0 - en.exact_Tn(q, e) - e * an.T_of_q(q)) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(dev), 1)[0]
        assert slope == pytest.approx(min(2.0 * q, 2.0), abs=0.15)

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
        mean, se = en.block_mean_se(pool.values)
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

    def test_parents_stay_in_their_block(self, monkeypatch):
        # at q = 1 the update is a convex combination of the two parents,
        # so a block filled with k stays at k only if both come from it;
        # the cases are several blocks in one chunk (32 of 100), several
        # multi-block chunks (8 of 4 blocks of 2048), and blocks larger than
        # a chunk (2000 samples against a chunk cut to 1024)
        for pool_size, chunk in ((3200, en._CHUNK), (65536, en._CHUNK), (64000, 1 << 10)):
            monkeypatch.setattr(en, "_CHUNK", chunk)
            params = en.LmeParams(q=1.0, b=0.5, n_max=10, pool_size=pool_size, seed=2)
            labels = np.repeat(np.arange(en._BLOCKS, dtype=float), pool_size // en._BLOCKS)
            pool = en.SamplePool(n=1, values=labels, logZ=0.0)
            for _ in range(5):
                pool = en.step(pool, params)
            assert np.allclose(pool.values, labels, rtol=0.0, atol=1e-12)

    def test_one_step_is_the_docstring_formula(self):
        # one chunk of 32 blocks of 100 draws i, then j, then the angles
        # from the scale's stream
        params = en.LmeParams(q=0.75, b=0.5, n_max=10, pool_size=3200, seed=6)
        n = 3
        start = en.SamplePool(
            n=n, values=derive_stream(6, (DOMAIN_TEST, 8)).lognormal(size=3200), logZ=0.25
        )
        kept = start.values.copy()
        got = en.step(start, params)

        rng = derive_stream(params.seed, (DOMAIN_LME, n))
        offsets = np.arange(0, 3200, 100)[:, None]
        i = (rng.integers(0, 100, (32, 100)) + offsets).ravel()
        j = (rng.integers(0, 100, (32, 100)) + offsets).ravel()
        sin2, cos2 = th.sample_sin2_cos2(th.ThetaLaw(params.b / n), rng, 3200)
        q, x = params.q, start.values
        t_n = en.exact_Tn(q, params.b / n)
        assert np.array_equal(got.values, (sin2**q * x[i] + cos2**q * x[j]) / t_n)
        assert got.n == n + 1
        assert got.logZ == start.logZ + math.log(t_n)
        assert np.array_equal(start.values, kept)  # input untouched


class TestMapChunks:
    def test_worker_error_reaches_caller_once_every_lane_is_done(
        self, monkeypatch, chunk_workers
    ):
        futures = []

        class Recording(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        chunk_workers(3)
        monkeypatch.setattr(en, "_executor", Recording(2))
        caller = threading.get_ident()
        rngs = [derive_stream(0, (DOMAIN_TEST, 1, g)) for g in range(8)]

        def kernel(sl, i, j, rng):
            # 8 groups of 4 blocks of 100 samples in 3 lanes: group 1 opens
            # lane 1 and fails at once; lane 2 (groups 2 and 5) is still
            # working then
            if sl.start == 400:
                assert threading.get_ident() != caller
                raise ZeroDivisionError("in a worker")
            if sl.start in (800, 2000):
                time.sleep(0.05)

        with pytest.raises(ZeroDivisionError, match="in a worker"):
            en.map_chunks(3200, rngs, kernel)
        assert len(futures) == 2
        assert all(f.done() for f in futures)

    def test_lme_run_starts_no_thread(self, chunk_workers):
        chunk_workers(2)
        before = threading.active_count()
        en.run(small_params(n_max=20))
        assert threading.active_count() == before
        assert en._executor is None

    def test_importing_the_package_starts_no_thread(self):
        code = (
            "import importlib, pkgutil, threading\n"
            "import lmelab\n"
            "for m in pkgutil.iter_modules(lmelab.__path__):\n"
            "    importlib.import_module('lmelab.' + m.name)\n"
            "print(threading.active_count())\n"
        )
        src = str(Path(lmelab.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["1"]


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
