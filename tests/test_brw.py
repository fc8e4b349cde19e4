"""Branching-random-walk suite: martingale identities, the classical
moment threshold, extreme-value centering, and pool-vs-tree agreement."""

import math
import sys
import threading

import numpy as np
import pytest

from lmelab import brw, engine
from lmelab.streams import DOMAIN_TEST, derive_stream


def rngs_for(params, step):
    return brw._block_rngs(params, step)


class TestCascade:
    def test_beta_zero_is_identity(self):
        params = brw.BrwParams(beta=0.0, depth=10, replicas=3200, seed=1)
        m = np.ones(params.replicas)
        for k in range(10):
            m = brw.step_cascade(m, 0.0, rngs_for(params, k))
        assert np.allclose(m, 1.0, atol=1e-15)

    def test_parents_stay_in_their_block(self):
        # at beta = 0 both weights are exactly 1/2, so a block filled with
        # k stays exactly at k only if both parents come from it
        params = brw.BrwParams(beta=0.0, depth=5, replicas=3200, seed=1)
        labels = np.repeat(np.arange(params.blocks, dtype=float), 100)
        m = labels
        for k in range(params.depth):
            m = brw.step_cascade(m, 0.0, rngs_for(params, k))
        assert np.array_equal(m, labels)

    @pytest.mark.parametrize("beta", [0.5 * brw.BETA_C, brw.BETA_C, 1.2 * brw.BETA_C])
    def test_martingale_mean(self, beta):
        params = brw.BrwParams(beta=beta, depth=15, replicas=64_000, seed=3)
        rec = brw.run_cascade(params)
        for mean, se in zip(rec["mean"], rec["se"]):
            if se == 0.0:
                assert mean == 1.0
            else:
                assert abs(mean - 1.0) <= 5.0 * se

    def test_second_moment_matches_exact_recursion(self):
        beta = 0.5 * brw.BETA_C
        params = brw.BrwParams(beta=beta, depth=20, replicas=128_000, seed=11)
        rec = brw.run_cascade(params)
        exact = brw.second_moment_recursion(beta, 20)
        for n, m2, se in zip(rec["n"], rec["m2"], rec["m2_se"]):
            if n == 0:
                continue
            assert abs(m2 - exact[n]) <= 4.0 * se

    def test_stationary_second_moment_value(self):
        # fixed point 1/(2 - e^{beta^2}) holds below beta_c/sqrt(2)
        beta = 0.5 * brw.BETA_C
        exact = brw.second_moment_recursion(beta, 40)
        assert exact[-1] == pytest.approx(1.0 / (2.0 - math.exp(beta**2)), rel=1e-6)

    def test_second_moment_grows_above_threshold(self):
        # above beta_c/sqrt(2) E[M_n^2] grows by e^{beta^2}/2 > 1 a step
        beta = 0.9 * brw.BETA_C
        exact = brw.second_moment_recursion(beta, 40)
        assert exact[-1] / exact[-2] == pytest.approx(math.exp(beta**2) / 2.0, rel=1e-6)
        assert exact[-1] > 1e6

    def test_freezing_median_decays(self):
        params = brw.BrwParams(beta=1.2 * brw.BETA_C, depth=25, replicas=64_000, seed=5)
        rec = brw.run_cascade(params)
        med = rec["median"]
        assert med[-1] < med[5] < med[0]

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            brw.BrwParams(beta=1.0, depth=41, replicas=3200)


class TestDerivative:
    def test_one_step_mean_zero(self):
        params = brw.BrwParams(beta=brw.BETA_C, depth=1, replicas=256_000, seed=2)
        rec = brw.run_derivative(params)
        assert abs(rec["d_mean"][0] - 0.0) <= 5.0 * rec["d_se"][0]

    def test_mean_zero_along_depth_and_median_stabilizes(self):
        params = brw.BrwParams(beta=brw.BETA_C, depth=25, replicas=64_000, seed=8)
        rec = brw.run_derivative(params)
        # Mean zero is exact, but past depth ~12 at this replica count the
        # compensating negative tail falls outside the sampled range and
        # the estimator leaves its CLT regime; check where it is honest.
        for n, d, se in zip(rec["n"], rec["d_mean"], rec["d_se"]):
            if n <= 12:
                assert abs(d) <= 5.0 * se
        tail = rec["d_median"][14:]
        assert all(v > 0 for v in tail)
        assert max(tail) / min(tail) < 1.5  # stabilizing, not drifting


class TestMax:
    def test_first_step_mean_of_two_normals(self):
        params = brw.BrwParams(beta=1.0, depth=1, replicas=256_000, seed=4)
        x = brw.step_max(np.zeros(params.replicas), rngs_for(params, 0))
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - 1.0 / math.sqrt(math.pi)) <= 3.0 * se

    @pytest.mark.parametrize(
        "depth, slope_fitted, log_fitted", [(5, False, False), (10, False, False), (11, False, True), (12, True, True)]
    )
    def test_centering_fit_needs_as_many_depths_as_parameters(self, depth, slope_fitted, log_fitted):
        # depths n >= 10 enter the fit: stage one has 3 parameters, stage two 2
        rec = brw.run_max(brw.BrwParams(beta=1.0, depth=depth, replicas=3200, seed=0))
        assert len(rec["median"]) == max(depth - 9, 0)
        assert math.isfinite(rec["slope"]) == slope_fitted
        assert math.isfinite(rec["log_coefficient"]) == log_fitted


class TestTreeOracle:
    def test_tree_m_is_mean_one(self):
        rng = derive_stream(99, (DOMAIN_TEST, 0))
        out = brw.tree_samples(0.7, 8, 4000, rng)
        m = out["M"]
        assert abs(m.mean() - 1.0) <= 5.0 * m.std() / math.sqrt(m.size)

    def test_pool_matches_tree_at_depth_10(self):
        beta = 0.5 * brw.BETA_C
        rng = derive_stream(123, (DOMAIN_TEST, 1))
        tree = brw.tree_samples(beta, 10, 20_000, rng)["M"]
        params = brw.BrwParams(beta=beta, depth=10, replicas=160_000, seed=17)
        rec = brw.run_cascade(params)
        pool_vals = rec["final_pool"].M_values
        # E[M^2] agreement
        t_m2 = np.mean(tree**2)
        t_se = np.std(tree**2) / math.sqrt(tree.size)
        assert abs(rec["m2"][-1] - t_m2) <= 3.0 * math.hypot(t_se, rec["m2_se"][-1])
        # P(M > 2) agreement
        p_tree = np.mean(tree > 2.0)
        p_pool = np.mean(pool_vals > 2.0)
        se = math.hypot(
            math.sqrt(p_tree * (1 - p_tree) / tree.size),
            math.sqrt(p_pool * (1 - p_pool) / pool_vals.size),
        )
        assert abs(p_tree - p_pool) <= 3.0 * se

    def test_depth_cap(self):
        rng = derive_stream(1, (DOMAIN_TEST, 2))
        with pytest.raises(ValueError):
            brw.tree_samples(1.0, 21, 10, rng)

    def test_tree_derivative_mean_zero(self):
        rng = derive_stream(7, (DOMAIN_TEST, 3))
        out = brw.tree_samples(brw.BETA_C, 8, 8000, rng, derivative=True)
        d = out["D"]
        assert abs(d.mean()) <= 5.0 * d.std() / math.sqrt(d.size)


RUNS = {
    "cascade": (brw.run_cascade, 0.5 * brw.BETA_C),
    "derivative": (brw.run_derivative, brw.BETA_C),
    "max": (brw.run_max, 1.0),
}
# each mode's step as a map from the tuple of its arrays to the new tuple
STEPS = {
    "cascade": lambda m, rngs: (brw.step_cascade(m, 0.5 * brw.BETA_C, rngs),),
    "derivative": brw.step_derivative,
    "max": lambda x, rngs: (brw.step_max(x, rngs),),
}


class TestMedian:
    """``brw._median`` is ``np.median``, NaN-aware, bit for bit."""

    CASES = {
        "plain": lambda x: x,
        "ties": np.round,
        "infinities": lambda x: np.concatenate([[np.inf], x[2:], [-np.inf]])[: x.size],
        "nan": lambda x: np.where(np.arange(x.size) == x.size // 3, np.nan, x),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 1001, 1024, 2**20])
    def test_matches_numpy(self, size, case):
        x = self.CASES[case](derive_stream(5, (DOMAIN_TEST, size)).standard_normal(size))
        kept = x.copy()
        with np.errstate(invalid="ignore"):  # size 2: both average inf and -inf
            got, want = brw._median(x), float(np.median(x))
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert np.array_equal(x, kept, equal_nan=True)

    @pytest.mark.parametrize("mode, key, pool_values", [
        ("cascade", "median", "M_values"),
        ("derivative", "d_median", "D_values"),
        ("max", "median", "X_max_values"),
    ])
    def test_run_records_numpy_median_of_the_pool(self, mode, key, pool_values):
        run, beta = RUNS[mode]
        rec = run(brw.BrwParams(beta=beta, depth=11, replicas=3200, seed=4))
        pool = getattr(rec["final_pool"], pool_values)
        assert rec[key][-1] == float(np.median(pool))


def start_arrays(mode, params):
    """The depth-0 arrays of a mode's step: M = 1, D = 0, X_max = 0."""
    p = params.replicas
    return {"cascade": (np.ones(p),), "derivative": (np.ones(p), np.zeros(p)),
            "max": (np.zeros(p),)}[mode]


class TestPoolArrays:
    """A run's final pool carries only the arrays its mode evolves, and
    each step is its docstring formula over the ``_block_rngs`` streams."""

    EVOLVED = {
        "cascade": ("M_values",),
        "derivative": ("M_values", "D_values"),
        "max": ("X_max_values",),
    }

    @pytest.mark.parametrize("mode", sorted(RUNS))
    def test_pools_carry_only_the_evolved_arrays(self, mode):
        run, beta = RUNS[mode]
        params = brw.BrwParams(beta=beta, depth=2, replicas=3200)
        pool = run(params)["final_pool"]
        carried = {name for name in ("M_values", "D_values", "X_max_values")
                   if getattr(pool, name) is not None}
        assert carried == set(self.EVOLVED[mode])

    def test_max_run_peak_memory_is_two_pools(self, chunk_workers, traced_peak):
        # a max step holds the old and the new X_max plus one lane's chunk
        # buffers
        chunk_workers(1)
        params = brw.BrwParams(beta=1.0, depth=4, replicas=1 << 18, seed=3)
        rec, peak = traced_peak(lambda: brw.run_max(params))
        assert rec["final_pool"].M_values is None
        assert peak <= 2.5 * 8 * params.replicas

    @pytest.mark.parametrize("mode", sorted(STEPS))
    def test_one_step_is_the_docstring_formula(self, mode):
        params = brw.BrwParams(beta=1.0, depth=1, replicas=3200, seed=6)
        p = params.replicas // params.blocks
        draw = derive_stream(6, (DOMAIN_TEST, 7))
        start = {
            name: draw.lognormal(size=params.replicas) if name == "M_values"
            else draw.standard_normal(params.replicas)
            for name in self.EVOLVED[mode]
        }
        kept = {name: values.copy() for name, values in start.items()}
        got = STEPS[mode](*start.values(), rngs_for(params, 0))

        m, d, x = (start.get(name) for name in ("M_values", "D_values", "X_max_values"))
        _, beta = RUNS[mode]  # the beta of STEPS[mode]
        want = {name: [] for name in self.EVOLVED[mode]}
        for k, rng in enumerate(rngs_for(params, 0)):
            i = rng.integers(0, p, p) + k * p
            j = rng.integers(0, p, p) + k * p
            v1 = rng.standard_normal(p)
            v2 = rng.standard_normal(p)
            if mode == "max":
                want["X_max_values"].append(np.maximum(v1 + x[i], v2 + x[j]))
                continue
            a1 = 0.5 * np.exp(beta * v1 - beta**2 / 2)
            a2 = 0.5 * np.exp(beta * v2 - beta**2 / 2)
            want["M_values"].append(a1 * m[i] + a2 * m[j])
            if mode == "derivative":
                want["D_values"].append(
                    a1 * ((beta - v1) * m[i] + d[i]) + a2 * ((beta - v2) * m[j] + d[j])
                )
        assert len(got) == len(want)
        for values, (name, blocks) in zip(got, want.items()):
            assert np.array_equal(values, np.concatenate(blocks))
            assert np.array_equal(start[name], kept[name])  # input untouched


def assert_same_pools(a, b):
    assert a.n == b.n
    for name in ("M_values", "D_values", "X_max_values"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y)


class TestThreadedBlocks:
    """The replica-block groups run on several threads with the same output
    as one thread, bit for bit."""

    # 32 blocks of 2000 and of 10000 samples (larger than a chunk); with
    # 3 threads both have more groups than threads
    @pytest.mark.parametrize("replicas", [64_000, 320_000])
    @pytest.mark.parametrize("mode", sorted(RUNS))
    def test_runs_match_one_thread(self, mode, replicas, chunk_workers):
        run, beta = RUNS[mode]
        params = brw.BrwParams(beta=beta, depth=4, replicas=replicas, seed=9)
        chunk_workers(1)
        one = run(params)
        chunk_workers(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to expose a race
        try:
            three = run(params)
        finally:
            sys.setswitchinterval(interval)
        assert one.keys() == three.keys()
        for key in one:
            if key == "final_pool":
                assert_same_pools(one[key], three[key])
            else:  # run_max's fit is NaN at this depth
                assert np.array_equal(one[key], three[key], equal_nan=True)
        assert engine._executor is not None  # the pool did run

    @pytest.mark.parametrize("mode", sorted(STEPS))
    def test_steps_with_several_blocks_per_chunk_match_one_thread(self, mode, chunk_workers):
        # 4 generators for 32 blocks of 2000: each group walks two chunks
        # of four blocks
        params = brw.BrwParams(beta=1.0, depth=3, replicas=64_000, seed=9)
        assert engine._CHUNK // 2000 == 4
        start = start_arrays(mode, params)

        def walk():
            arrays = start
            for k in range(params.depth):
                rngs = [derive_stream(params.seed, (DOMAIN_TEST, k, g)) for g in range(4)]
                arrays = STEPS[mode](*arrays, rngs)
            return arrays

        chunk_workers(1)
        one = walk()
        chunk_workers(3)
        three = walk()
        assert len(one) == len(three)
        assert all(np.array_equal(x, y) for x, y in zip(one, three))

    def test_streams_are_derived_on_the_calling_thread(self, monkeypatch, chunk_workers):
        chunk_workers(3)
        stream_threads, kernel_threads = set(), set()
        derive, drive = brw.derive_stream, brw.map_chunks

        def recording_derive(seed, labels):
            stream_threads.add(threading.get_ident())
            return derive(seed, labels)

        def recording_drive(size, rngs, kernel):
            def recorded(sl, i, j, rng):
                kernel_threads.add(threading.get_ident())
                kernel(sl, i, j, rng)

            drive(size, rngs, recorded)

        monkeypatch.setattr(brw, "derive_stream", recording_derive)
        monkeypatch.setattr(brw, "map_chunks", recording_drive)
        brw.run_cascade(brw.BrwParams(beta=1.0, depth=3, replicas=3200, seed=1))
        assert stream_threads == {threading.get_ident()}
        assert kernel_threads - {threading.get_ident()}  # the pool ran kernels
