"""Laplace-transform grid checks."""

import pytest

from lmelab import laplace as la


@pytest.fixture(scope="module")
def grid():
    return la.iterate_phi(0.75, 0.5, 1, 100, la.make_grid())


@pytest.mark.parametrize("t", [1, 10])
def test_integer_t_matches_float_t(grid, t):
    exact = la.stationary_residual(0.75, grid, float(t))
    assert abs(exact) < 1e-2
    assert la.stationary_residual(0.75, grid, t) == exact
