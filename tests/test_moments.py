"""Pair integrals against mpmath, the factorial growth certificate and the
exact moment trajectory against a per-step recursion."""

import math

import mpmath as mp
import numpy as np
import pytest

from lmelab import moments as mo
from lmelab import theta as th


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


def trajectory_per_step(q: float, b: float, n_max: int, kmax: int = 4):
    """E[ratio_n^k] with the angle moments quadratured afresh at each eps.

    With S = sin^{2q}, C = cos^{2q} and independent parents X, X',
    E[(S X + C X')^k] = sum_{j=0}^{k} C(k, j) E[S^j C^{k-j}] M_j M_{k-j};
    dividing by E[S + C]^k renormalizes the mean to one.
    """
    out = np.ones((n_max, kmax))
    m = [1.0] * (kmax + 1)
    for n in range(1, n_max):
        nodes, w = th.folded_rule(th.ThetaLaw(b / n), 64)
        s = np.sin(nodes) ** (2 * q)
        c = np.cos(nodes) ** (2 * q)
        t1 = (s + c) @ w
        m = [1.0] + [
            sum(
                math.comb(k, j) * ((s**j * c ** (k - j)) @ w) * m[j] * m[k - j]
                for j in range(k + 1)
            )
            / t1**k
            for k in range(1, kmax + 1)
        ]
        out[n] = m[1:]
    return out


@pytest.mark.parametrize("q", [0.6, 0.8, 2.0])
@pytest.mark.parametrize("n_max", [1, 2, 60])
def test_moment_trajectory_matches_per_step_recursion(q, n_max):
    got = mo.moment_trajectory(q, 0.5, n_max)
    ref = trajectory_per_step(q, 0.5, n_max)
    assert got.shape == (n_max, 4)
    assert np.all(got[0] == 1.0)
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-7


@pytest.mark.parametrize("kmax", [1, 4])
def test_single_scale_trajectory_needs_no_angle_moments(monkeypatch, kmax):
    calls = []
    rule = th.folded_rule

    def counting_rule(*args, **kwargs):
        calls.append(args)
        return rule(*args, **kwargs)

    monkeypatch.setattr(th, "folded_rule", counting_rule)
    got = mo.moment_trajectory(0.8, 0.5, 1, kmax)
    assert calls == []
    assert np.array_equal(got, np.ones((1, kmax)))
    mo.moment_trajectory(0.8, 0.5, 2, kmax)
    assert calls  # the counter sees the table when there is one to build
