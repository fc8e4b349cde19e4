"""Laplace-transform grid checks."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.optimize import NoConvergence

from lmelab import analytics as an
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
    fit, _ = la._SeriesFit(refined.t, (1.0, -1.0), 0.0)(refined.phi)
    for f, c in zip((1.0, -1.0, *fit[:3]), refined.series):
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
    # exponential at q = 0.9 is the slowest start measured (39 residual
    # evaluations against 24 for delta)
    _assert_stationary(q, la.converge_grid(q, 0.5, init=init))


def test_refine_starts_from_one_recursion_step(refined, monkeypatch):
    calls = []
    iterate = la.iterate_phi

    def recording(q, b, n_start, n_end, grid):
        calls.append((n_start, n_end))
        return iterate(q, b, n_start, n_end, grid)

    monkeypatch.setattr(la, "iterate_phi", recording)
    outs = []
    for n_schedule in (1, 50, 4000):
        calls.clear()
        outs.append(la.converge_grid(0.75, 0.5, n_schedule=n_schedule))
        assert calls == [(1, 2)]
    for out in outs[1:]:
        assert np.array_equal(out.phi, outs[0].phi)
        assert out.series == outs[0].series
    # the solution does not depend on the start: one step against 99
    assert np.max(np.abs(outs[0].phi - refined.phi)) <= 1e-10


def test_unrefined_route_runs_the_whole_schedule():
    out = la.converge_grid(0.75, 0.5, n_schedule=50, refine=False)
    ref = la.iterate_phi(0.75, 0.5, 1, 50, la.make_grid("delta"))
    assert np.array_equal(out.phi, ref.phi)
    assert out.series == ref.series


def test_unrefined_mean_drift_stays_small():
    # the grid mean reads -3.4e-7 after 250 steps at q = 0.6; with a
    # 24-node rule it drifted upward, 1.1e-6 here
    grid = la.iterate_phi(0.6, 0.5, 1, 251, la.make_grid())
    assert abs(la.moments_from_phi(grid)[0] - 1.0) <= 5e-6


@pytest.mark.parametrize(
    "nodes, n_end, bound", [(400, 1001, 1e-6), (514, 501, 2e-6)], ids=["1000-steps", "t_min-1e-6"]
)
def test_mean_holds_at_one(nodes, n_end, bound):
    # q = 0.6 from the delta start, on make_grid's log spacing down from
    # t = 1e3: -1.7e-7 after 1000 steps on its 400 nodes, and -6.0e-7 after
    # 500 on 514 nodes, which reach t = 1e-6; a 24-node rule read 1.46e-5
    # and 2.31e-4
    t = 10.0 ** ((np.arange(nodes) - (nodes - 1.0)) * (7.0 / 399.0) + 3.0)
    start = la.GridFunction(t=t, phi=np.exp(-t), series=la.make_grid().series)
    grid = la.iterate_phi(0.6, 0.5, 1, n_end, start)
    assert abs(la.moments_from_phi(grid)[0] - 1.0) <= bound


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
    # one rule for one recursion: the head steps with theta's folded rule
    # at each scale, the trajectory with the spline table of the same rule
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
    values = en.run(en.LmeParams(q=q, b=b, n_max=n, pool_size=65536, seed=1)).final_values
    ts = (0.1, 0.3, 1.0, 3.0, 10.0)
    law = la.grid_eval(la.iterate_phi(q, b, 1, n, la.make_grid()), ts)
    for t, phi in zip(ts, law):
        mean, se = en.block_mean_se(np.exp(-t * values))
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
@pytest.mark.parametrize("q", [0.505, 0.75, 0.999])
def test_both_routes_hold_the_projection_contract(q, init, monkeypatch):
    # the spy measures each projection itself, whatever _isotonic returns.
    # Start values above the floor past the solve window leave the solution
    # a tail error (3.1e-4 from the exponential start at q = 0.75) that only
    # a projection with no contract would hide
    dists = []
    project = la._isotonic

    def measuring(phi, *args):
        proj = np.minimum.accumulate(np.clip(phi, 1e-300, 1.0))
        dists.append(float(np.max(np.abs(proj - phi))))
        return project(phi, *args)

    monkeypatch.setattr(la, "_isotonic", measuring)
    la.converge_grid(q, 0.5, init=init)
    assert len(dists) == 2  # the recursion step and the stationary solve
    assert max(dists) <= 1e-9


def test_isotonic_projection_is_a_contract():
    phi = np.array([1.0, 0.5, 0.5, 0.25])
    near = phi.copy()
    near[2] += 5e-10
    assert np.array_equal(la._isotonic(near, "at n=7"), phi)
    near[2] += 6e-10
    with pytest.raises(ContractViolation, match="moved the grid by 1.10e-09 at n=7"):
        la._isotonic(near, "at n=7")


def _small_angle_mp(p, e):
    """int_0^theta_s x^p g(x) dx with g(x) = (sin x / x)^e / cos^2 x, as
    theta_s^{p+1}/(p+1) int_0^1 g(theta_s s^{1/(p+1)}) ds: the substitution
    s = (x / theta_s)^{p+1} moves the x^p endpoint singularity into the
    measure, where a plain mp.quad of x^{2q-2} misses by 15% at q = 0.51."""
    th = mp.mpf(la._THETA_SWITCH)

    def g(x):
        return (mp.sin(x) / x) ** e / mp.cos(x) ** 2

    return th ** (p + 1) / (p + 1) * mp.quad(lambda s: g(th * s ** (1 / (p + 1))), [0, 1])


@pytest.mark.parametrize("q", [0.501, 0.51, 0.6, 0.75, 0.9, 0.99, 0.999])
def test_small_angle_constants_match_mpmath(q):
    # the closed-form series agree to 1.7e-15; adaptive QUADPACK was off by
    # 2.4e-12 (g_quad, q = 0.9) and 9.3e-12 (q = 0.99)
    ker = la._kernel(q)
    with mp.workdps(30):
        a = 2 * mp.mpf(q) - 2
        exponents = {
            "g_sing": (a, a),
            "g_adv": (0, -2),
            "g_cross": (a + 2, a),
            "g_quad": (2 * a + 2, 2 * a + 2),
        }
        for name, (p, e) in exponents.items():
            ref = _small_angle_mp(mp.mpf(p), mp.mpf(e))
            assert abs(getattr(ker, name) - ref) / ref <= 1e-14, name


@pytest.mark.parametrize("q", [0.5 + 1e-6, 0.75, 0.999])
def test_sin_side_arguments_lie_below_the_band(q):
    # _banded_preconditioner linearizes only the cos factor: on make_grid's
    # grid t_i sin^{2q}u interpolates between nodes s and s + 1 steps from
    # node i with s < -(_BAND + 1), so the sin factor never reaches the band
    h = la._log_step(np.log(la.make_grid().t))
    s, _ = la._interval_offset(la._kernel(q).sin_pow, h)
    assert s.max() < -(la._BAND + 1)


# below t_min (the series head), the top node, above t_max (the clamp) and
# both kernel factors
def _multipliers():
    ker = la._kernel(0.75)
    return {
        "head": np.geomspace(1e-9, 1.0, 60),
        "top": np.array([1.0]),
        "clamp": np.array([1.0 + 1e-12, 1.01, 1.3, 1.7, 2.0]),
        "sin": ker.sin_pow,
        "cos": ker.cos_pow,
    }


@pytest.fixture(scope="module")
def exponential_grid():
    # two steps leave phi(t_max) at 2.3e-6, against 1e-300 from the delta
    # start, so a wrong clamp shows
    return la.iterate_phi(0.75, 0.5, 1, 3, la.make_grid("exponential"))


@pytest.fixture(scope="module")
def starts(grid, exponential_grid, refined):
    # the refined grid is the stationary solve's operating point
    return {"delta": grid, "exponential": exponential_grid, "refined": refined}


@pytest.mark.parametrize("start", ["delta", "exponential", "refined"])
@pytest.mark.parametrize("name", ["head", "top", "clamp", "sin", "cos"])
def test_outer_evaluator_matches_the_generic_one(starts, start, name):
    g = starts[start]
    m = _multipliers()[name]
    lg = la._LogGrid(g.t)
    ev = la._outer_evaluator(lg, g.phi, g.series)
    got = ev(lg.reads(m))
    want = la._evaluator(g)(np.multiply.outer(g.t, m))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13
    # on a work array that other multipliers wrote, as in the recursion's
    # later steps, the values are the same to the bit
    for other in _multipliers().values():
        held = lg.reads(other)
        ev(held)
        assert np.array_equal(ev(lg.reads(m, held)), got)


@pytest.mark.parametrize("start", ["delta", "exponential", "refined", "non-monotone"])
def test_spline_table_is_scipys(starts, start):
    # the fixed-rule paths build CubicSpline's not-a-knot table by hand; it
    # must stay scipy's to the bit, so a scipy that changes its algorithm
    # fails here
    if start == "non-monotone":
        g = starts["delta"]
        g = replace(g, phi=g.phi * (1.0 + 0.1 * np.sin(3.0 * np.log(g.t))))
    else:
        g = starts[start]
    want = CubicSpline(np.log(g.t), g.phi).c
    assert np.array_equal(la._LogGrid(g.t).spline(g.phi), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_phi_is_rejected(grid, bad):
    phi = grid.phi.copy()
    phi[150] = bad
    with pytest.raises(ValueError, match="finite"):
        la._residual_grid(la._StationarySolve(0.75, grid), replace(grid, phi=phi))


def test_preconditioner_is_solve_banded_to_the_bit(grid, monkeypatch):
    bands = []
    factor = la.dgbtrf

    def recording(ab, *args, **kwargs):
        # the band as solve_banded takes it, below gbtrf's fill-in rows,
        # copied before gbtrf overwrites it
        bands.append(ab[la._BAND :].copy())
        return factor(ab, *args, **kwargs)

    monkeypatch.setattr(la, "dgbtrf", recording)
    solve = la._StationarySolve(0.75, grid)
    pre = la._banded_preconditioner(solve)
    rng = np.random.default_rng(5)
    for v in (rng.standard_normal(solve.fidx.size), la._residual_grid(solve, grid)[solve.fidx]):
        want = solve_banded((la._BAND, la._BAND), bands[0], v)
        assert np.array_equal(pre.matvec(v), want)


def test_preconditioner_is_factored_once_per_solve(grid, monkeypatch):
    calls = {"dgbtrf": 0, "dgbtrs": 0}

    def counting(name):
        routine = getattr(la, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(la, name, counting(name))
    la.refine_stationary(0.75, grid)
    assert calls["dgbtrf"] == 1
    assert calls["dgbtrs"] > 1


def test_singular_preconditioner_raises(grid, monkeypatch):
    # a kernel with no weight, no small-angle terms and T(q) = 0 leaves an
    # all-zero band
    ker = SimpleNamespace(**vars(la._kernel(0.75)))
    ker.weights = np.zeros_like(ker.weights)
    ker.T = ker.g_sing = ker.g_adv = ker.g_cross = ker.g_quad = 0.0
    monkeypatch.setattr(la, "_kernel", lambda q: ker)
    solve = la._StationarySolve(0.75, grid)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        la._banded_preconditioner(solve).matvec(np.ones(solve.fidx.size))


@pytest.mark.parametrize(
    "info, error, message",
    [(2, np.linalg.LinAlgError, "singular matrix"), (-3, ValueError, "3-th argument")],
)
def test_lapack_info_raises(info, error, message):
    la._lapack_info(0, "gtsv")
    with pytest.raises(error, match=message):
        la._lapack_info(info, "gtsv")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_preconditioner_rejects_non_finite_vectors(grid, bad):
    solve = la._StationarySolve(0.75, grid)
    v = np.ones(solve.fidx.size)
    v[7] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        la._banded_preconditioner(solve).matvec(v)


def test_cached_constants_match_cold_ones():
    # the kernel pieces are cached by exact q and the grid's constants are
    # built per call: runs that interleave two q and two grids of one size
    # give what each gives from a cold cache
    t = np.geomspace(1e-3, 1e2, 400)
    other = la.GridFunction(t=t, phi=np.exp(-t), series=(1.0, -1.0, 0.5, -1 / 6, 1 / 24))
    runs = [
        lambda: la.converge_grid(0.75, 0.5),
        lambda: la.converge_grid(0.6, 0.5),
        lambda: la._residual_grid(la._StationarySolve(0.75, other), other),
        lambda: la.converge_grid(0.75, 0.5),
        lambda: la.iterate_phi(0.75, 0.5, 1, 20, other),
    ]
    warm = [run() for run in runs]
    for run, w in zip(runs, warm):
        la._kernel_cache.clear()
        cold = run()
        if isinstance(w, la.GridFunction):
            assert np.array_equal(cold.phi, w.phi)
            assert cold.series == w.series
        else:
            assert np.array_equal(cold, w)


def test_off_log_grid_is_rejected():
    g = la.make_grid()
    t = g.t.copy()
    t[200] *= 1.0 + 1e-6  # 2.5e-5 of a grid step
    g = replace(g, t=t)
    with pytest.raises(ValueError, match="uniform in ln t"):
        la.iterate_phi(0.75, 0.5, 1, 2, g)
    with pytest.raises(ValueError, match="uniform in ln t"):
        la.refine_stationary(0.75, g)


def test_refine_builds_one_log_grid_per_solve(grid, monkeypatch):
    # the grid's constants are built once per solve, not per residual
    # evaluation
    built = 0

    class Counting(la._LogGrid):
        def __init__(self, t):
            nonlocal built
            built += 1
            super().__init__(t)

    monkeypatch.setattr(la, "_LogGrid", Counting)
    la.refine_stationary(0.75, grid)
    assert built == 1


@pytest.fixture
def one_step_solve():
    return la._StationarySolve(0.75, la.iterate_phi(0.75, 0.5, 1, 2, la.make_grid()))


def test_residual_evaluation_allocates_no_product(one_step_solve, traced_peak):
    # the table and the kernel products are written into the solve's work
    # arrays: a warm evaluation holds less than one array of nodes x
    # multipliers at once
    solve = one_step_solve
    u = solve.start.phi[solve.fidx]
    solve.objective(u)
    _, peak = traced_peak(lambda: solve.objective(u))
    assert peak < solve.t.size * solve.ker.sin_pow.size * 8


def test_warm_recursion_step_allocates_no_product(monkeypatch):
    # the recursion's reads keep their work arrays across steps: from the
    # second step on, a step holds less than one array of nodes x
    # multipliers beyond what it starts with
    rule = la.theta.folded_rule
    starts, shapes = [], []

    def marking(*args):
        if starts:
            tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        nodes, w = rule(*args)
        shapes.append(nodes.size)
        return nodes, w

    monkeypatch.setattr(la.theta, "folded_rule", marking)
    grid = la.make_grid()
    tracemalloc.start()
    try:
        la.iterate_phi(0.75, 0.5, 1, 3, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shapes[0] == shapes[1]
    assert peak - starts[1] < grid.t.size * shapes[1] * 8


def test_work_arrays_keep_no_state(exponential_grid, one_step_solve):
    # a residual evaluation overwrites the held table and products in full:
    # grid a again after grid b gives what a gave first, and what a fresh
    # solve gives; b changes the head and the clamp columns of the table
    solve = one_step_solve
    a, b = solve.start, exponential_grid
    assert a.series != b.series
    assert a.phi[-1] != b.phi[-1]
    first = la._residual_grid(solve, a)
    la._residual_grid(solve, b)
    assert np.array_equal(la._residual_grid(solve, a), first)
    fresh = la._StationarySolve(0.75, la.iterate_phi(0.75, 0.5, 1, 2, la.make_grid()))
    assert np.array_equal(la._residual_grid(fresh, a), first)


_ENTRY_POINTS = {
    "iterate_phi": lambda q, g: la.iterate_phi(q, 0.5, 1, 2, g),
    "refine_stationary": la.refine_stationary,
    "stationary_residual": lambda q, g: la.stationary_residual(q, g, 1.0),
}


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda g: la.moments_from_phi(g, kmax=2.5), "^kmax "),
        (lambda g: la.iterate_phi(0.75, 0.5, 1, 2.5, g), "^n_end "),
        (lambda g: en.paley_zygmund_bounds(g.phi, np.inf), "^p "),
        (lambda g: la.moments_from_phi(g, 5), r"^kmax must be an integer in \[1, 4\], got 5$"),
        (lambda g: la.iterate_phi(0.75, 0.5, 5, 3, g), "^n_end must be an integer >= 5, got 3$"),
        # bool has __index__: unchecked, True reads as one
        (
            lambda g: la.moments_from_phi(g, True),
            r"^kmax must be an integer in \[1, 4\], got True$",
        ),
        (
            lambda g: la.iterate_phi(0.75, 0.5, 1, True, g),
            "^n_end must be an integer >= 1, got True$",
        ),
        (
            lambda g: la.stationary_residual(0.75, g, 2e3),
            r"^t_point must lie in the grid \[0\.0001, 1000\.0\], got 2000\.0$",
        ),
        (lambda g: la.stationary_residual(0.75, g, 1e-5), "^t_point "),
        (lambda g: la.grid_eval(g, [1.0, 0.0]), r"^args must be positive, got a minimum of 0\.0$"),
        (lambda g: la.grid_eval(g, np.nan), "^args "),
        # the text "false" is truthy: unchecked, it takes the stationary route
        (lambda g: la.converge_grid(0.75, 0.5, refine="false", n_schedule=3), "^refine "),
        (lambda g: la.converge_grid(0.75, 0.5, refine=None, n_schedule=3), "^refine "),
    ],
    ids=[
        "moments_from_phi", "iterate_phi", "paley_zygmund_bounds", "moments_from_phi-kmax-5",
        "iterate_phi-n_end-below-n_start", "moments_from_phi-kmax-bool", "iterate_phi-n_end-bool",
        "stationary_residual-t-above-grid", "stationary_residual-t-below-grid",
        "grid_eval-zero", "grid_eval-nan",
        "converge_grid-refine-text", "converge_grid-refine-none",
    ],
)
def test_counts_and_orders_name_the_argument(grid, call, bad):
    with pytest.raises(ValueError, match=bad):
        call(grid)


def test_refine_takes_a_numpy_bool():
    a = la.converge_grid(0.75, 0.5, refine=np.False_, n_schedule=3)
    b = la.converge_grid(0.75, 0.5, refine=False, n_schedule=3)
    assert np.array_equal(a.phi, b.phi)


@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_q_outside_the_laplace_range_is_rejected(grid, entry, q):
    with pytest.raises(ValueError, match=r"q in \(1/2, 1\)"):
        _ENTRY_POINTS[entry](q, grid)


@pytest.mark.parametrize("q", [0.75, 0.9, 0.95])
def test_spectrum_gives_the_decay_rates(q):
    # the Jacobian of the stationary solve's objective at its solution has
    # the real eigenvalues kT(q) - T(kq), k >= 2: the decay rates of the
    # series coefficients along the recursion.  Measured errors are
    # 1.0-1.5e-5 (k = 2) and 2.2-2.9e-4 (k = 3).  At q 0.55 and 0.6 a real
    # mode that matches no k lies among the top two, so q <= 0.6 is not
    # gated.
    solve = la._StationarySolve(q, la.converge_grid(q, 0.5))
    u = solve.start.phi[solve.fidx]
    step = 1e-7
    jac = np.empty((u.size, u.size))
    for j in range(u.size):
        du = np.zeros(u.size)
        du[j] = step
        jac[:, j] = (solve.objective(u + du) - solve.objective(u - du)) / (2.0 * step)
    eig = np.linalg.eigvals(jac)
    real = np.sort(eig[eig.imag == 0.0].real)[::-1]
    for k, value, rtol in ((2, real[0], 1e-4), (3, real[1], 1e-3)):
        rate = k * an.T_of_q(q) - an.T_of_q(k * q)
        assert abs(value / rate - 1.0) <= rtol, k


def test_oracle_does_not_use_the_outer_evaluator(grid, monkeypatch):
    def broken(lg, phi, series):
        raise AssertionError("outer evaluator called")

    monkeypatch.setattr(la, "_outer_evaluator", broken)
    assert abs(la.stationary_residual(0.75, grid, 1.0)) < 1e-2
    assert la.grid_eval(grid, [0.1, 1.0, 10.0]).shape == (3,)
    with pytest.raises(AssertionError, match="outer evaluator called"):
        la.iterate_phi(0.75, 0.5, 1, 2, la.make_grid())
    with pytest.raises(AssertionError, match="outer evaluator called"):
        la._residual_grid(la._StationarySolve(0.75, grid), grid)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_grid_eval_rejects_arguments_that_are_not_positive(grid, bad):
    with pytest.raises(ValueError, match="positive"):
        la.grid_eval(grid, [bad, 1.0])


@pytest.mark.parametrize("init", ["delta", "exponential"])
def test_fresh_grids_pass_the_invariants(init):
    g = la.make_grid(init)
    g.check_invariants()
    la._log_step(np.log(g.t))  # the fixed-rule paths need a log-uniform grid
    # make_grid repeats geomspace's arithmetic; a numpy that changes it fails here
    assert np.array_equal(g.t, np.geomspace(1e-4, 1e3, 400))


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
