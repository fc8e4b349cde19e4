"""Pair integrals and M2 against mpmath, the truncation against the
thresholds q_k, the factorial growth certificate, and the exact moment
trajectory against a per-step recursion and against the growth rate
b(2T(q) - T(2q)) of its second moment."""

import math

import mpmath as mp
import numpy as np
import pytest

from lmelab import analytics as an
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


@pytest.mark.parametrize("q", [0.55, 0.6, 0.75, 0.51, 1.2, 2.0])
@pytest.mark.parametrize("j, m", [(1, 1), (1, 3), (2, 1), (2, 3), (1, 7), (4, 4)])
def test_pair_integral_matches_mpmath(q, j, m):
    exact = pair_integral_mp(q, j, m)
    assert abs(mo.pair_integral(q, j, m) / exact - 1) <= 1e-12


def T_mp(q):
    """T(q) = (sqrt(pi)/2) Gamma(q - 1/2) / Gamma(q - 1) in mpmath."""
    return mp.sqrt(mp.pi) / 2 * mp.gamma(q - mp.mpf(1) / 2) / mp.gamma(q - 1)


@pytest.mark.parametrize("q", [0.55, 0.75, 0.95, 1.2, 1.5, 1.75])
def test_second_moment_matches_closed_form(q):
    """M2 = 2 I(1, 1) / (T(2q) - 2T(q)), and I(1, 1) is half the complete
    integral (1/4) B(q - 1/2, q - 1/2) by the symmetry t -> pi/2 - t."""
    with mp.workdps(30):
        qm = mp.mpf(q)
        exact = mp.beta(qm - 0.5, qm - 0.5) / (4 * (T_mp(2 * qm) - 2 * T_mp(qm)))
    assert abs(mo.moment_table(q, 2).M[1] / float(exact) - 1) <= 1e-13


def _threshold_upto(q: float, kmax: int, qk: dict[int, float]) -> int:
    """The largest l <= kmax with q < q_k for every k = 2..l (1 if none)."""
    if q <= 1.0:
        return kmax
    upto = 1
    for k in range(2, kmax + 1):
        if not q < qk[k]:
            break
        upto = k
    return upto


def test_truncation_matches_the_thresholds():
    qk = {k: an.find_qk(k) for k in range(2, 9)}
    grid = list(np.linspace(0.51, 1.0, 25)) + list(np.linspace(1.0, 3.0, 402)[1:-1])
    edges = [qk[k] + d for k in qk for d in (-1e-9, 1e-9)]
    for q in grid + edges:
        tab = mo.moment_table(float(q), 8)
        want = _threshold_upto(float(q), 8, qk)
        assert len(tab.M) == want, q


@pytest.mark.parametrize("q", [0.55, 0.75, 0.95])
def test_factorial_bound_certificate_holds(q):
    bound = mo.factorial_bound_constant(q, 8)
    tab = mo.moment_table(q, bound.checked_upto)
    assert bound.checked_upto >= 8
    for k in range(1, bound.checked_upto + 1):
        assert tab.M[k - 1] <= bound.C**k * math.factorial(k)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_factorial_bound_requires_q_in_open_interval(q):
    with pytest.raises(ValueError):
        mo.factorial_bound_constant(q, 4)


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


@pytest.mark.parametrize(
    "q, b, n_max", [(0.8, 0.5, 200), (2.0, 0.5, 2000), (0.55, 0.1, 500), (1.5, 2.0, 300)]
)
def test_angle_moment_rows_reproduce_the_rule(q, b, n_max):
    # the spline through the table against the same rule taken directly at
    # every scale; a grid that ended 1% below b/n_max left the rows near
    # n_max 5.0e-8 off, padded by 10% they read at most 5.4e-9
    rows, col = mo._angle_moments(q, b, n_max, 4)
    for n, row in enumerate(rows, start=1):
        nodes, w = th.folded_rule(th.ThetaLaw(b / n))
        s2 = np.sin(nodes) ** 2
        c2 = 1.0 - s2
        for (j, m), i in col.items():
            rule = (s2 ** (q * j) * c2 ** (q * m) + s2 ** (q * m) * c2 ** (q * j)) @ w
            assert abs(row[i] / rule - 1.0) <= 1e-8, (n, j, m)


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


@pytest.mark.parametrize(
    "name, value",
    [
        ("q", 0.4), ("q", 0.5), ("q", math.inf), ("b", 0.0), ("b", -0.5),
        ("b", math.inf), ("kmax", 0),
    ],
)
@pytest.mark.parametrize("n_max", [1, 40])
def test_moment_trajectory_rejects_bad_arguments(name, value, n_max):
    args = {"q": 0.8, "b": 0.5, "n_max": n_max, "kmax": 4, name: value}
    with pytest.raises(ValueError, match=rf"^{name} "):
        mo.moment_trajectory(**args)


@pytest.fixture(scope="module")
def growth_exponents():
    """L(n) = log2(2 dM2(2n) / dM2(n)) at n = 10^3 and 10^4, by q.

    With M2(n) ~ A n^{b kappa} + C and kappa = 2T(q) - T(2q), the local
    exponent L(n) tends to b kappa on both sides of q_2: M2 grows above it
    (kappa > 0) and converges below it (kappa < 0).
    """
    out = {}
    for q in (1.6, 1.9, 2.0, 2.2):
        m2 = mo.moment_trajectory(q, 0.5, 20001, 2)[:, 1]

        def exponent(n):
            return math.log2(2 * (m2[2 * n] - m2[2 * n - 1]) / (m2[n] - m2[n - 1]))

        out[q] = (exponent(10**3), exponent(10**4))
    return out


@pytest.mark.parametrize("q", [1.6, 1.9, 2.0, 2.2])
def test_second_moment_grows_at_b_kappa(growth_exponents, q):
    b_kappa = 0.5 * (2 * an.T_of_q(q) - an.T_of_q(2 * q))
    l3, l4 = growth_exponents[q]
    assert abs(l4 - b_kappa) <= 0.02 * abs(b_kappa)
    assert abs(l4 - b_kappa) < abs(l3 - b_kappa)


def test_second_moment_growth_changes_sign_at_q2(growth_exponents):
    q2 = an.find_qk(2)
    for q, (_, l4) in growth_exponents.items():
        assert (l4 > 0) == (q > q2), q
