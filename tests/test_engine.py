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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lmelab
from lmelab import analytics as an
from lmelab import brw
from lmelab import engine as en
from lmelab import moments as mo
from lmelab import theta as th
from lmelab.errors import QuadratureWarning
from lmelab.streams import DOMAIN_LME, DOMAIN_TEST, derive_stream


def small_params(**kw):
    base = dict(q=0.75, b=0.5, n_max=200, pool_size=16_000, seed=7)
    base.update(kw)
    return en.LmeParams(**base)


def step_from(x, params, n):
    """The step ``en.run`` takes from scale n."""
    eps = params.b / n
    rngs = [derive_stream(params.seed, (DOMAIN_LME, n))]
    return en.step(x, params.q, eps, en.exact_Tn(params.q, eps), rngs)


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

    @pytest.mark.parametrize(
        "make, key",
        [
            (lambda size: en.LmeParams(q=0.75, b=0.5, n_max=4, pool_size=size), "pool_size"),
            (lambda size: brw.BrwParams(beta=0.5, depth=2, replicas=size), "replicas"),
        ],
    )
    def test_block_sizes_must_be_integers(self, make, key):
        # a float size passed the range checks and failed in np.ones
        make(3200)
        with pytest.raises(ValueError, match=f"^{key} "):
            make(3200.0)


class TestExactTn:
    def test_q_one_is_exactly_one(self):
        assert en.exact_Tn(1.0, 0.123) == 1.0

    @pytest.mark.parametrize("q", [0.75, 1.0])
    @pytest.mark.parametrize("eps", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_bad_epsilon(self, q, eps):
        with pytest.raises(ValueError, match="^epsilon "):
            en.exact_Tn(q, eps)

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

    @pytest.mark.parametrize(
        ("eps", "q"),
        [(eps, q) for q in (0.6, 0.8, 2.0) for eps in (0.5, 1e-2, 1e-4)]
        + [
            (2.0, 0.6),
            (2.0, 2.0),
            (1e-6, 0.8),
            (1e-8, 0.6),
            (1e-8, 0.8),
            (1e-8, 2.0),
            (0.5, 0.55),
            (1e-6, 0.55),
            (1e-2, 1.5001),
            (1e-8, 1.5001),
            (0.5, 3.0),
            (1e-6, 3.0),
        ],
    )
    def test_matches_mpmath(self, q, eps):
        # the closed-form density and the T_n integrand written afresh in
        # mpmath; both are even, so twice the integral over [0, pi/4], cut
        # at eps 4^k below pi/4 so that every scale of the tail is resolved
        with mp.workdps(30):
            s = mp.pi * mp.mpf(eps) / 2
            mq = mp.mpf(q)

            def integrand(t):
                r = 2 * s / (mp.pi * (s**2 * mp.cos(2 * t) ** 2 + mp.sin(2 * t) ** 2))
                return ((mp.sin(t) ** 2) ** mq + (mp.cos(t) ** 2) ** mq) * r

            cuts = []
            c = mp.mpf(eps)
            while c < mp.pi / 4:
                cuts.append(c)
                c *= 4
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
        stepped = step_from(np.ones(params.pool_size), params, 1)
        assert np.allclose(stepped, 1.0, atol=1e-15)

    def test_values_nonnegative_and_mean_near_one(self):
        params = small_params(n_max=50)
        x = np.ones(params.pool_size)
        for n in range(1, 31):
            x = step_from(x, params, n)
        assert np.all(x >= 0.0)
        mean, se = en.block_mean_se(x)
        assert abs(mean - 1.0) <= 5.0 * se

    def test_deterministic_replay(self):
        params = small_params(n_max=30)
        x1 = x2 = np.ones(params.pool_size)
        for n in range(1, 11):
            x1 = step_from(x1, params, n)
            x2 = step_from(x2, params, n)
        assert np.array_equal(x1, x2)

    def test_one_stream_per_step(self, monkeypatch):
        labels = []

        def counting(seed, labs):
            labels.append(tuple(labs))
            return derive_stream(seed, labs)

        monkeypatch.setattr(en, "derive_stream", counting)
        en.run(small_params(n_max=2))
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
            x = labels
            for n in range(1, 6):
                x = step_from(x, params, n)
            assert np.allclose(x, labels, rtol=0.0, atol=1e-12)

    def test_one_step_is_the_docstring_formula(self):
        # one chunk of 32 blocks of 100 draws i, then j, then the angles
        # from the generator passed in
        q, eps, t_n = 0.75, 0.5 / 3, 1.0625
        x = derive_stream(6, (DOMAIN_TEST, 8)).lognormal(size=3200)
        kept = x.copy()
        got = en.step(x, q, eps, t_n, [derive_stream(6, (DOMAIN_TEST, 9))])

        rng = derive_stream(6, (DOMAIN_TEST, 9))
        offsets = np.arange(0, 3200, 100)[:, None]
        i = (rng.integers(0, 100, (32, 100)) + offsets).ravel()
        j = (rng.integers(0, 100, (32, 100)) + offsets).ravel()
        sin2, cos2 = th.sample_sin2_cos2(th.ThetaLaw(eps), rng, 3200)
        assert np.array_equal(got, (sin2**q * x[i] + cos2**q * x[j]) / t_n)
        assert np.array_equal(x, kept)  # input untouched


class TestMapChunks:
    def test_worker_error_reaches_caller_once_every_task_is_done(
        self, monkeypatch, chunk_workers
    ):
        futures = []

        class Recording(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        chunk_workers(3)
        monkeypatch.setattr(en, "_executor", Recording(3))
        caller = threading.get_ident()
        rngs = [derive_stream(0, (DOMAIN_TEST, 1, g)) for g in range(8)]
        slept = []

        def kernel(sl, i, j, rng):
            # 8 groups of 4 blocks of 100 samples, one task each on 3
            # threads: group 1 fails at once, while group 2 sleeps and
            # group 7, the last task, has yet to run and sleep
            assert threading.get_ident() != caller
            if sl.start == 400:
                raise ZeroDivisionError("in a worker")
            if sl.start in (800, 2800):
                time.sleep(0.05)
                slept.append(sl.start)

        with pytest.raises(ZeroDivisionError, match="in a worker"):
            en.map_chunks(3200, rngs, kernel)
        assert len(futures) == 8
        assert all(f.done() for f in futures)
        assert sorted(slept) == [800, 2800]

    @pytest.mark.parametrize(
        "take_step",
        [
            lambda x, rngs: en.step(x, 0.75, 0.5, en.exact_Tn(0.75, 0.5), rngs),
            lambda x, rngs: brw.step_cascade(x, 0.5, rngs),
            lambda x, rngs: brw.step_derivative(x, np.zeros_like(x), rngs),
            lambda x, rngs: brw.step_max(x, rngs),
        ],
        ids=["engine.step", "step_cascade", "step_derivative", "step_max"],
    )
    @pytest.mark.parametrize(
        "size, groups, bad",
        [(1000, 32, "^size "), (0, 1, "^size "), (3200, 3, "^rngs "), (3200, 0, "^rngs ")],
    )
    def test_steps_reject_a_layout_that_leaves_slots_unwritten(
        self, take_step, size, groups, bad
    ):
        # 1000 samples fill 31 1/4 blocks; 3 generators of 10 blocks each
        # leave blocks 30 and 31
        rngs = [derive_stream(0, (DOMAIN_TEST, 3, g)) for g in range(groups)]
        with pytest.raises(ValueError, match=bad):
            take_step(np.ones(size), rngs)

    @pytest.mark.parametrize("workers", [1, 3])
    @settings(
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        block=st.integers(1, 1500),
        groups=st.sampled_from([1, 2, 4, 8, 16, 32]),
        chunk=st.integers(1, 1 << 14),
    )
    def test_every_slot_is_written_once_from_its_own_block(
        self, monkeypatch, chunk_workers, workers, block, groups, chunk
    ):
        chunk_workers(workers)
        monkeypatch.setattr(en, "_CHUNK", chunk)
        size = block * en._BLOCKS
        out = np.zeros(size)
        rngs = [derive_stream(0, (DOMAIN_TEST, 4, g)) for g in range(groups)]

        def kernel(sl, i, j, rng):
            own = np.arange(sl.start, sl.stop) // block
            assert np.array_equal(i // block, own)
            assert np.array_equal(j // block, own)
            out[sl] += 1.0

        en.map_chunks(size, rngs, kernel)
        assert np.array_equal(out, np.ones(size))

    def test_step_with_four_generators_matches_one_thread(self, chunk_workers):
        # 32 blocks of 1000 in 4 groups of 8 blocks, each group one chunk
        # and one task on the 3-thread pool
        x = derive_stream(5, (DOMAIN_TEST, 10)).lognormal(size=32_000)
        t_n = en.exact_Tn(0.75, 0.1)

        def take_step():
            rngs = [derive_stream(5, (DOMAIN_TEST, 11, g)) for g in range(4)]
            return en.step(x, 0.75, 0.1, t_n, rngs)

        chunk_workers(1)
        one = take_step()
        assert en._executor is None
        chunk_workers(3)
        three = take_step()
        assert en._executor is not None  # the pool did run
        assert np.array_equal(one, three)

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
    def test_q_one_run_keeps_zero_logz_at_every_checkpoint(self):
        rec = en.run(en.LmeParams(q=1.0, b=0.5, n_max=10, pool_size=4000, seed=1))
        assert rec.ns == [1, 2, 4, 8, 10]
        assert rec.logZ == [0.0] * 5

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
        # one ln T_n added per step, in scale order
        log_z, sums = 0.0, {1: 0.0}
        for n in range(1, params.n_max):
            log_z += math.log(en.exact_Tn(params.q, params.b / n))
            sums[n + 1] = log_z
        assert rec.logZ == [sums[n] for n in rec.ns]


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
        pz = en.paley_zygmund_bounds(np.ones(3200), 2.0)
        assert pz.empirical_p_gt_2 == 0.0 <= pz.upper_p_gt_2
        assert pz.empirical_p_ge_half == 1.0 >= pz.lower_p_ge_half

    def test_bounds_hold_on_evolved_pool(self):
        params = small_params(n_max=300, seed=5)
        rec = en.run(params)
        pz = en.paley_zygmund_bounds(rec.final_values, 2.0)
        n = rec.final_values.size
        se = 1.0 / math.sqrt(n)  # Bernoulli SE upper bound
        assert pz.empirical_p_gt_2 <= pz.upper_p_gt_2 + 3 * se
        assert pz.empirical_p_ge_half >= pz.lower_p_ge_half - 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            en.paley_zygmund_bounds(np.ones(3200), 1.0)
