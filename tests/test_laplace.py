"""Laplace-transform grid checks."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize._nonlin import NoConvergence

from lmelab import engine as en
from lmelab import harness
from lmelab import laplace as la
from lmelab import moments as mo
from lmelab.errors import ContractViolation


@pytest.fixture(scope="module")
def grid():
    return la.iterate_phi(0.75, 0.5, 1, 100, la.make_grid())


@pytest.mark.parametrize("t", [1, 10])
def test_integer_t_matches_float_t(grid, t):
    exact = la.stationary_residual(0.75, grid, float(t))
    assert abs(exact) < 1e-2
    assert la.stationary_residual(0.75, grid, t) == exact


@pytest.fixture(scope="module")
def counted_refine(grid):
    """The refined grid and the number of residual evaluations it took."""
    calls = 0
    residual = la._residual_grid

    def counting(*args):
        nonlocal calls
        calls += 1
        return residual(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "_residual_grid", counting)
        out = la.refine_stationary(0.75, grid)
    return out, calls


@pytest.fixture(scope="module")
def refined(counted_refine):
    return counted_refine[0]


T_POINTS = (0.01, 0.1, 1.0, 10.0)
MOMENT_RTOL = (1e-6, 1e-5, 5e-4, 1e-2)


def test_refine_removes_the_finite_scale_residual(grid, refined):
    # the 100-step recursion leaves residuals of 9e-8 to 3.5e-4 on these
    # points; the stationary solve brings them below 1e-10
    assert max(abs(la.stationary_residual(0.75, grid, t)) for t in T_POINTS) > 1e-4
    for t in T_POINTS:
        assert abs(la.stationary_residual(0.75, refined, t)) <= 1e-9


def test_refined_moments_match_the_moment_table(refined):
    est = la.moments_from_phi(refined, 4)
    exact = mo.moment_table(0.75, 4).M
    for e, x, tol in zip(est, exact, MOMENT_RTOL):
        assert abs(e - x) / x <= tol


def test_refine_is_preconditioned(counted_refine):
    # the banded preconditioner with a fixed inner tolerance takes 20
    # residual evaluations; with scipy's shrinking inner tolerance it takes
    # 28, unpreconditioned 277
    assert counted_refine[1] < 40


def test_refine_runs_one_newton_solve(grid, monkeypatch):
    calls = 0
    solve = la.newton_krylov

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(la, "newton_krylov", counting)
    la.refine_stationary(0.75, grid)
    assert calls == 1


def test_refined_collar_is_self_consistent(refined):
    # the collar and the series head are rebuilt inside the solve, so the
    # pinned fit of the result reproduces its own head
    fit = la._fit_series_pinned(refined)
    for f, c in zip(fit, refined.series):
        assert abs(f - c) <= 1e-12


def _assert_stationary(q, out):
    """The residual and moment-table oracles on a refined grid."""
    for t in T_POINTS:
        assert abs(la.stationary_residual(q, out, t)) <= 1e-9
    est = la.moments_from_phi(out, 4)
    for e, x, tol in zip(est, mo.moment_table(q, 4).M, MOMENT_RTOL):
        assert abs(e - x) / x <= tol


@pytest.mark.parametrize(
    "q, init",
    [(0.6, "delta"), (0.9, "delta"), (0.6, "exponential"), (0.9, "exponential")],
    ids=["0.6", "0.9", "0.6-exponential", "0.9-exponential"],
)
def test_refine_at_other_q(q, init):
    # exponential at q = 0.9 is the slowest warm start measured (31
    # residual evaluations against 26 for delta)
    _assert_stationary(q, la.converge_grid(q, 0.5, init=init))


def test_refine_warm_starts_from_a_short_recursion(refined, monkeypatch):
    ends = []
    iterate = la.iterate_phi

    def recording(q, b, n_start, n_end, grid):
        ends.append(n_end)
        return iterate(q, b, n_start, n_end, grid)

    monkeypatch.setattr(la, "iterate_phi", recording)
    out = la.converge_grid(0.75, 0.5)  # the default n_schedule, 4000
    assert ends and max(ends) <= la._WARM_START
    # the solution does not depend on the start: 31 steps against 99
    assert np.max(np.abs(out.phi - refined.phi)) <= 1e-10


def test_unrefined_route_runs_the_whole_schedule():
    out = la.converge_grid(0.75, 0.5, n_schedule=50, refine=False)
    ref = la.iterate_phi(0.75, 0.5, 1, 50, la.make_grid("delta"))
    assert np.array_equal(out.phi, ref.phi)
    assert out.series == ref.series


def test_unrefined_mean_drift_stays_small():
    # the spline evaluation lets the grid mean drift upward; it reads
    # 2.5e-6 after 250 steps at q = 0.6, the fastest drift of q = 0.6,
    # 0.75 and 0.9
    grid = la.iterate_phi(0.6, 0.5, 1, 251, la.make_grid())
    assert abs(la.moments_from_phi(grid)[0] - 1.0) <= 5e-6


def test_zero_steps_keep_the_grid_head():
    g = la.iterate_phi(0.75, 0.5, 5, 5, la.make_grid("exponential"))
    assert g.series == (1.0, -1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("q", [0.6, 0.75, 0.9])
def test_exponential_start_keeps_the_mean(q):
    # the head steps from the exponential law's own (1, -1, 1, -1, 1): the
    # estimated mean stays within 3e-7 of one after 99 steps; a head on the
    # delta law's moments leaves it 3.4e-6 to 5.6e-6 off
    g = la.iterate_phi(q, 0.5, 1, 100, la.make_grid("exponential"))
    assert abs(la.moments_from_phi(g)[0] - 1.0) <= 1e-6


@pytest.mark.parametrize("q, n", [(0.6, 50), (0.75, 100), (0.9, 200)])
def test_delta_head_matches_the_moment_trajectory(q, n):
    # two rules for one recursion: the head steps with the 24-node folded
    # rule, the trajectory with the 48-node spline table (agree to 1.2e-8)
    c = la.iterate_phi(q, 0.5, 1, n, la.make_grid("delta")).series
    head = (2.0 * c[2], -6.0 * c[3], 24.0 * c[4])
    exact = mo.moment_trajectory(q, 0.5, n, kmax=4)[-1][1:]
    for h, x in zip(head, exact):
        assert abs(h - x) / x <= 1e-6


def test_pool_matches_the_recursion_law():
    # the pool and the grid share only theta's angle law; at pool 65536 in
    # 32 blocks, n / p_block = 200 / 2048 is about 0.1, where the pool's
    # coalescence bias is below its noise (z +0.90 to +1.26 at seed 1).
    # One pool is read at every t, so the z-scores share a sign: each t is
    # gated on its own.
    q, b, n = 0.75, 0.5, 200
    pool = en.run(en.LmeParams(q=q, b=b, n_max=n, pool_size=65536, seed=1)).final_pool
    ts = (0.1, 0.3, 1.0, 3.0, 10.0)
    law = la.grid_eval(la.iterate_phi(q, b, 1, n, la.make_grid()), ts)
    for t, phi in zip(ts, law):
        mean, se = en.block_mean_se(np.exp(-t * pool.values))
        assert abs(mean - phi) <= 5.0 * se


def test_harness_default_config_converges():
    cfg = harness.parse_config("", "laplace")
    _assert_stationary(cfg["q"], la.converge_grid(**cfg))


def test_failed_solve_is_a_contract_violation(grid, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise NoConvergence("iteration limit")

    monkeypatch.setattr(la, "newton_krylov", no_convergence)
    with pytest.raises(ContractViolation, match="stationary solve failed"):
        la.refine_stationary(0.75, grid)


@pytest.mark.parametrize("init", ["delta", "exponential"])
def test_fresh_grids_pass_the_invariants(init):
    la.make_grid(init).check_invariants()


def _perturbed(edit):
    g = la.make_grid("exponential")
    phi = g.phi.copy()
    edit(phi, int(np.searchsorted(g.t, 1.0)))
    return replace(g, phi=phi)


def _above_one(phi, i):
    phi[0] = 1.0 + 1e-12


def _rising_step(phi, i):
    phi[i] = phi[i - 1] + 1e-6


def _concave_kink(phi, i):
    phi[i] = phi[i - 1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_above_one, r"\(0, 1\]"),
        (_rising_step, "non-increasing"),
        (_concave_kink, "convexity"),
    ],
)
def test_invariant_breaches_are_contract_violations(edit, message):
    with pytest.raises(ContractViolation, match=message):
        _perturbed(edit).check_invariants()
