"""Chain-flow checks: exact rotation algebra, resonance statistics, the
orthonormality contract, and a replay of the rotation log."""

import math

import numpy as np
import pytest

from lmelab import chain as ch
from lmelab.errors import ContractViolation
from lmelab.streams import DOMAIN_TEST, derive_stream


def rng_for(tag: int):
    return derive_stream(42, (DOMAIN_TEST, tag))


class TestInit:
    def test_basis_vectors_have_unit_ipr(self):
        vectors = ch.init_chain(64, rng_for(0)).V
        for q in (0.7, 1.0, 2.0, 3.5):
            assert all(ch.ipr(v, q) == 1.0 for v in vectors)

    def test_level_variance(self):
        state = ch.init_chain(4096, rng_for(1))
        se = math.sqrt(2.0 / 4096)  # var of sample variance of normals
        assert abs(state.E.var() - 1.0) <= 5.0 * se

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ch.init_chain(8, rng_for(2))

    def test_size_cap(self, monkeypatch):
        # the dense state takes 8 N^2 bytes; a stand-in for np.eye keeps the
        # accepted size from allocating its 512 MiB
        sizes = []
        monkeypatch.setattr(ch.np, "eye", lambda n: sizes.append(n))
        assert ch.RgParams(N=8192, b=0.3, n_max=8).N == 8192
        assert ch.init_chain(8192, rng_for(12)).N == 8192
        with pytest.raises(ValueError, match=r"N must be an integer in \[16, 8192\], got 8193"):
            ch.RgParams(N=8193, b=0.3, n_max=8)
        with pytest.raises(ValueError, match=r"N must be an integer in \[16, 8192\], got 8193"):
            ch.init_chain(8193, rng_for(13))
        assert sizes == [8192]


class TestIpr:
    def test_uniform_vector(self):
        k = 16
        v = np.full(k, 1.0 / math.sqrt(k))
        for q in (0.75, 2.0, 3.0):
            assert ch.ipr(v, q) == pytest.approx(k ** (1.0 - q), rel=1e-12)

    def test_q_one_is_norm(self):
        rng = rng_for(3)
        amps = rng.standard_normal(10)
        amps /= np.linalg.norm(amps)
        assert ch.ipr(amps, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_accepts_dense_arrays(self):
        v = np.zeros(32)
        v[3] = 1.0
        assert ch.ipr(v, 2.0) == 1.0
        assert type(ch.ipr(v, 2.0)) is float

    def test_one_value_per_row(self):
        rng = rng_for(14)
        rows = rng.standard_normal((6, 20))
        rows[:, ::3] = 0.0
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        # empty rows first, inside and last
        rows = np.vstack([np.zeros(20), rows[:3], np.zeros(20), rows[3:], np.zeros(20)])
        for q in (0.75, 2.0):
            got = ch.ipr(rows, q)
            assert got.shape == (9,)
            for row, p in zip(rows, got):
                assert p == pytest.approx(ch.ipr(row, q), rel=1e-14)
        assert np.array_equal(ch.ipr(np.zeros((3, 4)), 2.0), np.zeros(3))

    @staticmethod
    def one_shot_ipr(amps, q):
        """All rows at once: one mask, one compacted copy, one reduceat."""
        support = amps != 0.0
        p = np.square(amps[support])
        p = np.power(p, q)
        counts = np.count_nonzero(support, axis=1)
        total = np.zeros(len(counts))
        filled = counts > 0
        total[filled] = np.add.reduceat(p, (np.cumsum(counts) - counts)[filled])
        return total

    def test_row_blocks_match_the_one_shot_sums(self):
        rows, width = 300, 1024
        edge = ch._BLOCK_BYTES // (8 * width)  # rows per block
        amps = rng_for(16).standard_normal((rows, width))
        amps[rng_for(17).random((rows, width)) < 0.5] = 0.0
        # empty rows first, last, and at and around block edges
        amps[[0, edge - 1, edge, 2 * edge, 2 * edge + 1, 5 * edge - 1, rows - 1]] = 0.0
        # single nonzero entries at a block's end and the next block's start
        for r in (3 * edge - 1, 3 * edge):
            amps[r] = 0.0
            amps[r, r % width] = 1.0
        for q in (0.75, 2.0):
            assert np.array_equal(ch.ipr(amps, q), self.one_shot_ipr(amps, q))

    def test_peak_memory_is_one_row_block(self, traced_peak):
        amps = rng_for(16).standard_normal((1024, 1024))
        amps[rng_for(17).random(amps.shape) < 0.5] = 0.0
        _, peak = traced_peak(lambda: ch.ipr(amps, 0.75))
        assert peak <= 1 << 20


class TestStepScale:
    def test_no_resonance_leaves_state(self):
        # (b/m)^a ~ 1.6e-5 makes accidental resonances essentially impossible
        params = ch.RgParams(N=64, b=1e-12, n_max=16, seed=1)
        state = ch.init_chain(64, rng_for(4))
        e0 = state.E.copy()
        rng = rng_for(5)
        for _ in range(16):
            state = ch.step_scale(state, params, rng)
        assert state.n == 16
        assert np.array_equal(state.E, e0)
        assert all(ch.ipr(v, 2.0) == 1.0 for v in state.V)

    def test_rotation_exactness(self):
        params = ch.RgParams(N=512, b=0.3, n_max=32, seed=3)
        rng = rng_for(6)
        state = ch.init_chain(512, rng)
        for _ in range(32):
            state = ch.step_scale(state, params, rng)
        assert len(state.resonance_log) > 50
        for ev in state.resonance_log:
            c, s = math.cos(ev.theta), math.sin(ev.theta)
            # rotated basis diagonalizes the logged 2x2 exactly
            off = (c * ev.e_i_old - s * ev.h) * s + (c * ev.h - s * ev.e_j_old) * c
            assert abs(off) <= 1e-12
            de = 0.5 * (ev.e_i_old - ev.e_j_old)
            lam1 = c * c * ev.e_i_old - 2 * ev.h * c * s + s * s * ev.e_j_old
            lam2 = s * s * ev.e_i_old + 2 * ev.h * c * s + c * c * ev.e_j_old
            assert abs(abs(lam1 - lam2) - 2 * math.hypot(de, ev.h)) <= 1e-12
            assert abs(ev.theta) <= 0.25 * math.pi + 1e-15

    def test_isometry_and_orthonormality(self):
        params = ch.RgParams(N=512, b=0.4, n_max=64, seed=5)
        rng = rng_for(7)
        state = ch.init_chain(512, rng)
        for _ in range(64):
            state = ch.step_scale(state, params, rng)
        vectors = state.vectors
        norms = [math.sqrt(sum(a * a for a in v.values())) for v in vectors]
        assert max(abs(x - 1.0) for x in norms) <= 1e-12
        pick = rng_for(8)
        for _ in range(100):
            i, j = pick.integers(0, 512, 2)
            if i == j:
                continue
            vi, vj = vectors[i], vectors[j]
            dot = sum(a * vj.get(site, 0.0) for site, a in vi.items())
            assert abs(dot) <= 1e-10

    def test_disjoint_ipr_identity(self):
        # one controlled rotation between untouched basis vectors
        params = ch.RgParams(N=64, b=0.5, n_max=16, seed=9)
        rng = rng_for(9)
        state = ch.init_chain(64, rng)
        state = ch.step_scale(state, params, rng)
        q = 1.7
        for ev in state.resonance_log:
            c2q = math.cos(ev.theta) ** 2
            s2q = math.sin(ev.theta) ** 2
            got = ch.ipr(state.V[ev.i], q)
            expect = c2q**q * 1.0 + s2q**q * 1.0  # parents were basis vectors
            assert got == pytest.approx(expect, rel=1e-12)
            assert not ev.overlapped

    def test_energy_update_continuity(self):
        params = ch.RgParams(N=256, b=0.35, n_max=8, seed=11)
        rng = rng_for(10)
        state = ch.init_chain(256, rng)
        for _ in range(8):
            e_old = state.E.copy()
            state = ch.step_scale(state, params, rng)
            for ev in [e for e in state.resonance_log if e.scale == state.n]:
                # new gap grows: |new_i - new_j| = 2 sqrt(de^2 + h^2)
                de = 0.5 * (ev.e_i_old - ev.e_j_old)
                assert abs(state.E[ev.i] - state.E[ev.j]) >= 2 * abs(de) - 1e-12
                # slot continuity: E_i stays the closer eigenvalue
                assert abs(state.E[ev.i] - e_old[ev.i]) <= abs(
                    state.E[ev.j] - e_old[ev.i]
                ) + 1e-12


class TestRunFlow:
    def test_density_tracks_prediction(self):
        params = ch.RgParams(N=2048, b=0.3, n_max=64, seed=13, q_list=(2.0,))
        rec = ch.run_flow(params)
        m = np.arange(10, 65)
        rel = np.abs(
            rec["resonance_density"][m] / rec["predicted_density"][m] - 1.0
        )
        assert rel.mean() < 0.15

    def test_ipr_flow_direction(self):
        params = ch.RgParams(N=1024, b=0.3, n_max=64, seed=17, q_list=(0.75, 2.0))
        rec = ch.run_flow(params)
        # q > 1: participation ratios fall; q < 1: they grow
        assert rec["mean_P"][2.0][-1] < rec["mean_P"][2.0][0]
        assert rec["mean_P"][0.75][-1] > rec["mean_P"][0.75][0]
        assert 0.5 < rec["beta_emp"] < 1.2

    def test_overlap_fraction_increases_with_b(self):
        fracs = []
        for b in (0.1, 0.3, 0.9):
            params = ch.RgParams(N=512, b=b, n_max=48, seed=19)
            fracs.append(ch.run_flow(params)["overlap_fraction"])
        assert fracs[0] < fracs[1] < fracs[2]

    def test_orthonormality_contract(self, monkeypatch):
        params = ch.RgParams(N=256, b=0.3, n_max=16, seed=29)
        assert ch.run_flow(params)["orthonormality_err"] <= 1e-12
        step = ch.step_scale

        def sloppy_step(state, params, rng):
            # the first rotation leaves one row 1e-6 too long
            state = step(state, params, rng)
            if state.n == 1:
                state.V[state.resonance_log[0].i] *= 1.0 + 1e-6
            return state

        monkeypatch.setattr(ch, "step_scale", sloppy_step)
        with pytest.raises(ContractViolation, match="orthonormality"):
            ch.run_flow(params)

    @pytest.mark.parametrize("i, j", [(0, 5), (130, 2), (255, 200)])
    def test_blocked_gram_matches_full_product(self, monkeypatch, i, j):
        # nine rows per Gram block, the last one ragged; the leak from row j
        # into row i (i > j puts it below the diagonal) is what it must find
        monkeypatch.setattr(ch, "_GRAM_BYTES", 9 * 8 * 256)
        V = ch.run_flow(ch.RgParams(N=256, b=0.3, n_max=16, seed=29))["last_state"].V
        V[i] += 1e-7 * V[j]
        full = np.abs(V @ V.T - np.eye(256)).max()
        assert full > 1e-8
        assert abs(ch._orthonormality_err(V) - full) <= 1e-15

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ch.RgParams(N=64, b=0.3, n_max=64, a=0.6)
        with pytest.raises(ValueError):
            ch.RgParams(N=64, b=0.3, n_max=40)

    def test_step_past_n_max_is_rejected(self):
        params = ch.RgParams(N=64, b=0.3, n_max=1, seed=1)
        rng = rng_for(12)
        state = ch.step_scale(ch.init_chain(64, rng), params, rng)
        with pytest.raises(ValueError, match=r"^state is already at n_max = 1$"):
            ch.step_scale(state, params, rng)

    @pytest.mark.parametrize("field", ["n_max", "replicas"])
    def test_empty_flow_is_rejected(self, field):
        # run_flow would average over no scale or no replica and return NaNs
        kwargs = {"N": 64, "b": 0.3, "n_max": 8, field: 0}
        with pytest.raises(ValueError, match=field):
            ch.RgParams(**kwargs)


class TestReplayOracle:
    def test_log_replays_against_2x2_eigh(self, monkeypatch):
        """Each logged rotation against numpy's eigh of its 2x2 block, then
        the whole log replayed on the identity."""
        n = 256
        # three rows per update block, so each scale's rotations span
        # several blocks and a ragged last one
        monkeypatch.setattr(ch, "_BLOCK_BYTES", 3 * 8 * n)
        params = ch.RgParams(N=n, b=0.3, n_max=32, seed=31)
        rng = rng_for(15)
        state = ch.init_chain(n, rng)
        levels = state.E.copy()
        replay = np.eye(n)
        done = 0
        for _ in range(32):
            state = ch.step_scale(state, params, rng)
            for ev in state.resonance_log[done:]:
                i, j = ev.i, ev.j
                assert abs(ev.e_i_old - levels[i]) <= 1e-12
                assert abs(ev.e_j_old - levels[j]) <= 1e-12
                block = np.array([[ev.e_i_old, ev.h], [ev.h, ev.e_j_old]])
                low, high = np.linalg.eigh(block)[0]
                # continuity: the slot with the higher level keeps the higher one
                new = (high, low) if ev.e_i_old >= ev.e_j_old else (low, high)
                assert abs(state.E[i] - new[0]) <= 1e-12
                assert abs(state.E[j] - new[1]) <= 1e-12
                c, s = math.cos(ev.theta), math.sin(ev.theta)
                rot = np.array([[c, -s], [s, c]])
                assert np.abs(rot @ block @ rot.T - np.diag(new)).max() <= 1e-12
                levels[i], levels[j] = new
                row_i = replay[i].copy()
                replay[i] = c * row_i - s * replay[j]
                replay[j] = s * row_i + c * replay[j]
            done = len(state.resonance_log)
        assert done > 300
        assert np.abs(replay - state.V).max() <= 1e-12
        assert np.abs(levels - state.E).max() <= 1e-12
