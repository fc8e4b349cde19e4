"""Band-matrix ensemble checks: variance profile, eigensolver contracts
against independent oracles, and the dimension regression."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg as scipy_linalg

from lmelab import prbm
from lmelab.errors import ContractViolation
from lmelab.streams import DOMAIN_TEST, derive_stream


def rng_for(tag: int):
    return derive_stream(7, (DOMAIN_TEST, 20 + tag))


def char_poly_coefficients(h: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier characteristic polynomial, independent of eigh."""
    n = h.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(h @ m) / k)
    return np.array(coeffs)


class TestBuildMatrix:
    def test_symmetry(self):
        h = prbm.build_matrix(128, 0.5, rng_for(0))
        assert np.array_equal(h, h.T)

    def test_rejects_size_below_two(self):
        with pytest.raises(ValueError, match="N must be an integer >= 2, got 1"):
            prbm.build_matrix(1, 0.5, rng_for(0))

    @pytest.mark.parametrize("n", [64, 161, 512])
    @pytest.mark.parametrize("b", [0.1, 3.0])
    def test_is_the_docstring_formula(self, n, b):
        # 161 is not a multiple of the mirror's row block
        idx = np.arange(n)
        dist = np.abs(idx[:, None] - idx[None, :])
        dist = np.minimum(dist, n - dist)
        sigma = np.where(dist < b, 1.0, b / np.maximum(dist, 1))
        raw = rng_for(6).standard_normal((n, n)) * sigma
        expected = np.triu(raw) + np.triu(raw, 1).T
        assert np.array_equal(prbm.build_matrix(n, b, rng_for(6)), expected)

    def test_peak_memory_is_the_matrix(self, traced_peak):
        n = 1024
        _, peak = traced_peak(lambda: prbm.build_matrix(n, 0.1, rng_for(6)))
        assert peak <= 1.25 * 8 * n * n

    def test_variance_profile_small_b(self):
        # b = 0.5: variance 1 on the diagonal only, (b/d)^2 off it
        reps = 4000
        rng = rng_for(1)
        n = 16
        samples = np.array([prbm.build_matrix(n, 0.5, rng) for _ in range(reps)])
        v_diag = samples[:, 3, 3].var()
        v_near = samples[:, 3, 4].var()
        v_wrap = samples[:, 0, n - 1].var()  # periodic distance 1
        v_far = samples[:, 0, 8].var()  # distance 8
        se = math.sqrt(2.0 / reps)
        assert abs(v_diag - 1.0) <= 5 * se
        assert abs(v_near - 0.25) <= 5 * se * 0.25
        assert abs(v_wrap - 0.25) <= 5 * se * 0.25
        assert abs(v_far - (0.5 / 8) ** 2) <= 5 * se * (0.5 / 8) ** 2

    def test_band_profile_larger_b(self):
        reps = 4000
        rng = rng_for(2)
        samples = np.array([prbm.build_matrix(16, 3.0, rng) for _ in range(reps)])
        se = math.sqrt(2.0 / reps)
        assert abs(samples[:, 2, 4].var() - 1.0) <= 5 * se  # d=2 < b
        assert abs(samples[:, 0, 8].var() - (3.0 / 8) ** 2) <= 5 * se * (3.0 / 8) ** 2


class TestSymmetricEig:
    def test_diagonal_matrix(self):
        d = np.array([3.0, -1.0, 2.0, 0.5])
        w, v = prbm.symmetric_eig(np.diag(d))
        assert np.allclose(w, np.sort(d), atol=1e-14)
        assert np.allclose(np.abs(v), np.abs(v).round(), atol=1e-12)  # permutation

    def test_two_by_two_closed_form(self):
        e1, e2, h = 0.3, -0.7, 0.45
        w, v = prbm.symmetric_eig(np.array([[e1, h], [h, e2]]))
        ebar, de = 0.5 * (e1 + e2), 0.5 * (e1 - e2)
        r = math.hypot(de, h)
        assert w[0] == pytest.approx(ebar - r, rel=1e-13)
        assert w[1] == pytest.approx(ebar + r, rel=1e-13)

    def test_random_eight_by_eight_against_char_poly(self):
        rng = rng_for(3)
        a = rng.standard_normal((8, 8))
        h = a + a.T
        w, _ = prbm.symmetric_eig(h)
        roots = np.sort(np.roots(char_poly_coefficients(h)).real)
        assert np.allclose(w, roots, atol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            prbm.symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="input must be square"):
            prbm.symmetric_eig(np.ones((2, 3)))

    def test_rejects_asymmetry_below_the_default_rtol(self):
        # off by 1e-6 relative: within np.allclose's default rtol of 1e-5,
        # so it used to pass the check and fail the reconstruction contract
        with pytest.raises(ValueError, match="input must be symmetric"):
            prbm.symmetric_eig(np.array([[2.0, 1.0], [1.000001, 3.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        h = np.eye(3)
        h[1, 2] = h[2, 1] = bad
        with pytest.raises(ValueError, match="input must be finite"):
            prbm.symmetric_eig(h)

    def test_peak_memory_is_the_vectors_and_blocks(self, traced_peak):
        # eigh's v is one N^2 array; LAPACK's workspace is not traced
        n = 1024
        h = prbm.build_matrix(n, 0.1, rng_for(7))
        _, peak = traced_peak(lambda: prbm.symmetric_eig(h))
        assert peak <= 2.5 * 8 * n * n

    def test_runs_on_numpys_lapack(self):
        # scipy.linalg.eigh runs on scipy's own OpenBLAS, whose thread pool
        # contends with numpy's, which runs the contract products: on a
        # 2-core host the crosscheck workload's eigh took 0.52-0.68 s on
        # scipy's against 0.19-0.22 s on numpy's, and the contract products
        # twice as long.  Keep one OpenBLAS runtime in this module.
        assert prbm.linalg is np.linalg

    def test_agrees_with_scipys_mrrr_solver(self):
        # MRRR (syevr) in scipy's LAPACK build shares neither algorithm nor
        # library with prbm's syevd, so it is an independent oracle
        h = prbm.build_matrix(128, 0.1, rng_for(5))
        w, v = prbm.symmetric_eig(h)
        w_ref, v_ref = scipy_linalg.eigh(h, driver="evr")
        assert np.abs(w - w_ref).max() <= 1e-10
        ln_p = prbm.central_half_log_iprs(v, 2.0)
        ln_p_ref = prbm.central_half_log_iprs(v_ref, 2.0)
        assert np.abs(ln_p - ln_p_ref).max() <= 1e-10

    @pytest.mark.parametrize(
        "spoil, contract",
        [
            # at N 32 the 1e-7 offset is 5x the reconstruction tolerance
            (lambda v: v + 1e-7, "reconstruction"),
            (lambda v: v * np.where(np.arange(v.shape[1]) == 3, 1.0 + 1e-8, 1.0),
             "orthonormality"),
        ],
        ids=["offset-vectors", "stretched-column"],
    )
    def test_contract_fires(self, monkeypatch, spoil, contract):
        def eigh(h):
            w, v = np.linalg.eigh(h)
            return w, spoil(v)

        monkeypatch.setattr(prbm, "linalg", SimpleNamespace(eigh=eigh))
        h = prbm.build_matrix(32, 0.1, rng_for(5))
        with pytest.raises(ContractViolation, match=contract):
            prbm.symmetric_eig(h)


class TestCentralHalfLogIprs:
    def test_peak_memory_is_half_the_vectors(self, traced_peak):
        n = 1024
        v = rng_for(7).standard_normal((n, n))
        _, peak = traced_peak(lambda: prbm.central_half_log_iprs(v, 2.0))
        assert peak <= 0.6 * 8 * n * n


class TestEstimateDq:
    def test_q_one_identically_zero(self):
        ens = prbm.PrbmEnsemble(N_list=(64, 128, 256), b=0.1, realizations=2)
        fit = prbm.estimate_dq(ens, 1.0)
        assert fit.slope == 0.0 and fit.d == 0.0

    def test_ipr_bounds_every_vector(self):
        h = prbm.build_matrix(128, 0.2, rng_for(4))
        _, v = prbm.symmetric_eig(h)
        p2 = np.exp(prbm.central_half_log_iprs(v, 2.0))
        p_half = np.exp(prbm.central_half_log_iprs(v, 0.75))
        assert np.all(p2 > 0) and np.all(p2 <= 1.0 + 1e-12)
        assert np.all(p_half >= 1.0 - 1e-12)

    def test_d2_in_unit_interval_small_ensemble(self):
        ens = prbm.PrbmEnsemble(N_list=(64, 128, 256), b=0.1, realizations=6, seed=3)
        fit = prbm.estimate_dq(ens, 2.0)
        assert 0.0 < fit.d < 1.0
        assert fit.slope < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            prbm.PrbmEnsemble(N_list=(32, 64, 128), b=0.1, realizations=2)
        # two sizes give no fit, and the config refuses them: so does the
        # ensemble, when it is built
        with pytest.raises(ValueError, match="^N_list "):
            prbm.PrbmEnsemble(N_list=(64, 128), b=0.1, realizations=2)
        # a fractional size would fail only inside build_matrix
        with pytest.raises(ValueError, match="^N_list "):
            prbm.PrbmEnsemble(N_list=(64.5, 96, 128), b=0.1, realizations=2)
