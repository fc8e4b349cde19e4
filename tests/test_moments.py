"""Pair integrals against mpmath and the factorial growth certificate."""

import math

import mpmath as mp
import pytest

from lmelab import moments as mo


def pair_integral_mp(q: float, j: int, m: int):
    """(1/2) int_0^{pi/4} sin^a t cos^b t dt after u = t^{a+1}.

    With a = 2qj - 2 in (-1, 0) the integrand has an algebraic endpoint
    singularity that mpmath's plain quadrature resolves badly; the
    substitution turns t^a dt into du/(a+1) and leaves a smooth integrand.
    """
    with mp.workdps(30):
        a = 2 * mp.mpf(q) * j - 2
        b = 2 * mp.mpf(q) * m - 2

        def f(u):
            if u == 0:
                return 1 / (a + 1)
            t = u ** (1 / (a + 1))
            return (mp.sin(t) / t) ** a * mp.cos(t) ** b / (a + 1)

        return mp.quad(f, [0, (mp.pi / 4) ** (a + 1)]) / 2


@pytest.mark.parametrize("q", [0.55, 0.6, 0.75])
@pytest.mark.parametrize("j, m", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_pair_integral_matches_mpmath(q, j, m):
    exact = pair_integral_mp(q, j, m)
    assert abs(mo.pair_integral(q, j, m) / exact - 1) <= 1e-12


@pytest.mark.parametrize("q", [0.55, 0.75, 0.95])
def test_factorial_bound_certificate_holds(q):
    bound = mo.factorial_bound_constant(q, mo.moment_table(q, 8))
    tab = mo.moment_table(q, bound.checked_upto)
    assert bound.checked_upto >= 8
    for k in range(1, bound.checked_upto + 1):
        assert tab.M[k - 1] <= bound.C**k * math.factorial(k)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_factorial_bound_requires_q_in_open_interval(q):
    with pytest.raises(ValueError):
        mo.factorial_bound_constant(q, mo.moment_table(0.75, 4))
