"""Laplace-transform grid checks."""

import pytest

from lmelab import laplace as la
from lmelab import moments as mo


@pytest.fixture(scope="module")
def grid():
    return la.iterate_phi(0.75, 0.5, 1, 100, la.make_grid())


@pytest.mark.parametrize("t", [1, 10])
def test_integer_t_matches_float_t(grid, t):
    exact = la.stationary_residual(0.75, grid, float(t))
    assert abs(exact) < 1e-2
    assert la.stationary_residual(0.75, grid, t) == exact


@pytest.fixture(scope="module")
def refined(grid):
    return la.refine_stationary(0.75, grid)


T_POINTS = (0.01, 0.1, 1.0, 10.0)


def test_refine_removes_the_finite_scale_residual(grid, refined):
    # the 100-step recursion leaves residuals of 9e-8 to 3.5e-4 on these
    # points; the stationary solve brings them below 1e-10
    assert max(abs(la.stationary_residual(0.75, grid, t)) for t in T_POINTS) > 1e-4
    for t in T_POINTS:
        assert abs(la.stationary_residual(0.75, refined, t)) <= 1e-9


def test_refined_moments_match_the_moment_table(refined):
    est = la.moments_from_phi(refined, 4)
    exact = mo.moment_table(0.75, 4).M
    for e, x, tol in zip(est, exact, (1e-6, 1e-5, 5e-4, 1e-2)):
        assert abs(e - x) / x <= tol
