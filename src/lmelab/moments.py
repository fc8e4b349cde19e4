"""Deterministic integer moments of the limiting normalized ratio.

The limit law of the normalized ratio has moments M_k(q) obeying

    M_l = [ sum_{j=1}^{l-1} C(l,j) M_j M_{l-j} I(j, l-j) ] / lambda_q(l)

with M_1 = 1 and the pair integral

    I(j, m) = (1/2) int_0^{pi/4} sin^{2qj-2} t cos^{2qm-2} t dt
            = (1/4) B(1/2; qj - 1/2, qm - 1/2)

(x = sin^2 t turns it into an incomplete Beta function).  The denominator
lambda_q(l) = T(lq) - l T(q) is :func:`analytics.moment_exponent`; M_l is
finite exactly while it is positive (all l for q <= 1, l below the
threshold index for q > 1); tables truncate at the first non-positive one.

Also here: the factorial growth bound M_k <= C(q)^k k! for q in (1/2, 1),
and the exact finite-scale moment trajectory E[ratio_n^k] driven by the
angle law at eps = b/n, which the Monte Carlo pool must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import beta, betainc

from . import analytics, theta
from .errors import (
    ContractViolation, _check_count, _check_gt0, _check_q, _check_q_below_one,
)

__all__ = [
    "MomentTable",
    "FactorialBound",
    "pair_integral",
    "moment_table",
    "factorial_bound_constant",
    "moment_trajectory",
]


@dataclass(frozen=True)
class MomentTable:
    """Limiting moments M_1..M_len(M) at index q (b never enters), fewer
    than kmax when truncated; M_l's denominator is moment_exponent(q, l)."""

    q: float
    kmax: int
    M: tuple[float, ...]


@dataclass(frozen=True)
class FactorialBound:
    """Growth-bound certificate: M_k <= C^k k! for all tabulated k."""

    q: float
    C: float
    k0: int
    checked_upto: int


def pair_integral(q: float, j: int, m: int) -> float:
    """I(j, m) = (1/2) int_0^{pi/4} sin^{2qj-2} cos^{2qm-2}.

    By x = sin^2 t it is (1/4) B(1/2; qj - 1/2, qm - 1/2), the incomplete
    Beta function up to x = 1/2; both parameters are positive for q > 1/2,
    so the sin-side endpoint singularity (qj < 1) costs nothing.
    """
    _check_q(q)
    _check_count("j", j)
    _check_count("m", m)
    a = q * j - 0.5
    b = q * m - 0.5
    return float(0.25 * beta(a, b) * betainc(a, b, 0.5))


def moment_table(q: float, kmax: int) -> MomentTable:
    """Fill M_1..M_kmax by the recursion; stop at the first l whose
    denominator moment_exponent(q, l) is not positive (M_l is infinite there)."""
    _check_q(q)
    _check_count("kmax", kmax)
    m = [1.0]
    for l in range(2, kmax + 1):
        denom = analytics.moment_exponent(q, l)
        if denom <= 0.0:
            break
        acc = 0.0
        for j in range(1, l):
            acc += (
                math.comb(l, j)
                * m[j - 1]
                * m[l - j - 1]
                * pair_integral(q, j, l - j)
            )
        m.append(acc / denom)
    return MomentTable(q=q, kmax=kmax, M=tuple(m))


def factorial_bound_constant(q: float, kmax: int) -> FactorialBound:
    """Construct C(q) from the least k0 with contraction factor below one.

    The factor is k/moment_exponent(q, k) times I(1, k-1), the pair
    integral of tan^{2q-2} cos^{2qk-4}.  For q in (1/2, 1) the first term
    tends to -1/T(q) > 0 while the integral vanishes, so k0 exists (the
    search gives up at k = 10^4); C(q) = max_{j<k0} (M_j/j!)^{1/j} then
    bounds by C^k k! every moment of ``moment_table(q, max(k0 - 1, kmax))``,
    the table it builds and checks.

    It certifies, for q in (1/2, 1), that the recursion's limiting moments
    grow no faster than C^k k!: below k0 the constant covers them, from k0
    on the contraction factor carries the bound upward, and every tabulated
    moment is re-checked (a violation raises ``ContractViolation``).  So
    the limit law has E[exp(sX)] < inf for s < 1/C: it is fixed by its
    moments, and its transform phi is analytic at t = 0, as the Laplace
    route's series head assumes.  ``tests/test_moments.py`` exercises it in
    ``test_factorial_bound_certificate_holds``.
    """
    _check_q_below_one(q)
    _check_count("kmax", kmax)
    k0 = None
    for k in range(2, 10_001):
        factor = k / analytics.moment_exponent(q, k) * pair_integral(q, 1, k - 1)
        if factor < 1.0:
            k0 = k
            break
    if k0 is None:
        raise ContractViolation("no k0 up to 10^4")

    # Moments below k0 set the constant (q < 1 never truncates the table).
    M = moment_table(q, max(k0 - 1, kmax)).M
    c = max((M[j - 1] / math.factorial(j)) ** (1.0 / j) for j in range(1, k0))
    for k, m_k in enumerate(M, start=1):
        if m_k > c**k * math.factorial(k) * (1.0 + 1e-12):
            raise ContractViolation(
                f"factorial bound violated at k={k}: M_k={m_k:.6g} "
                f"> C^k k! with C={c:.6g}"
            )
    return FactorialBound(q=q, C=c, k0=k0, checked_upto=len(M))


def _angle_moments(q: float, b: float, n_max: int, kmax: int):
    """Per-step angle moments at eps_n = b/n for n = 1..n_max-1.

    Tabulates, with theta's folded rule on a log grid of scales, the
    symmetric pair moments P_eps(j, m) = E[S^{qj} C^{qm} + S^{qm} C^{qj}]
    (S = sin^2, C = cos^2) for 0 <= j <= m, 1 <= j + m <= kmax, in column
    col[(j, m)]; P_eps(0, m) is T_eps(mq).  It then evaluates one cubic
    spline in ln(eps) through all columns over the whole schedule, so the
    exact moment recursion can run for 10^5 steps without one quadrature
    per step.  All columns are smooth in ln(eps) (power series in
    eps^{2q-1}, eps, ...).  The grid reaches 10% past both ends of the
    schedule (ending 1% below b/n_max left rows near n_max 5e-8 relative
    off the rule).  Returns (rows, col) with rows[n-1] at eps_n.
    """
    pairs = [(j, k - j) for k in range(1, kmax + 1) for j in range(k // 2 + 1)]
    lo, hi = math.log(b / n_max * 0.9), math.log(b * 1.1)
    n_nodes = max(16, int(64 * (hi - lo) / math.log(10.0)))
    grid = np.linspace(lo, hi, n_nodes)
    table = []
    for u in grid:
        nodes, w = theta.folded_rule(theta.ThetaLaw(math.exp(u)))
        s2 = np.sin(nodes) ** 2
        c2 = 1.0 - s2
        sp = [s2 ** (q * j) for j in range(kmax + 1)]
        cp = [c2 ** (q * j) for j in range(kmax + 1)]
        table.append([float((sp[j] * cp[m] + sp[m] * cp[j]) @ w) for j, m in pairs])
    spl = CubicSpline(grid, np.array(table))
    rows = spl([math.log(b / n) for n in range(1, n_max)]).tolist()
    return rows, {jm: i for i, jm in enumerate(pairs)}


def moment_trajectory(
    q: float, b: float, n_max: int, kmax: int = 4
) -> np.ndarray:
    """Exact moments E[ratio_n^k] for n = 1..n_max, k = 1..kmax.

    Row n-1 holds scale n; the recursion starts from the deterministic unit
    pool (all moments 1) and uses the exact angle law at eps = b/n.  With
    independent parents X, X' and a new value (S^q X + C^q X')/T_eps(q),

        m_k' = (1/2) sum_{j=0}^{k} C(k, j) P_eps(j, k-j) m_j m_{k-j} / P_eps(0, 1)^k,

    summed once over each unordered pair {j, k-j}.  Columns whose
    denominator is not positive (q at or above the threshold q_k) are
    still propagated; they simply do not converge.
    """
    _check_q(q)
    _check_count("kmax", kmax)
    _check_gt0("b", b)
    _check_count("n_max", n_max)
    if n_max == 1:
        return np.ones((1, kmax))  # the unit pool; no angle moment is needed
    rows, col = _angle_moments(q, b, n_max, kmax)
    # (coefficient, column, j, k - j) per unordered pair, the halving of the
    # j = k/2 term folded into its coefficient
    terms = [
        [
            (math.comb(k, j) * (0.5 if 2 * j == k else 1.0), col[(j, k - j)], j, k - j)
            for j in range(k // 2 + 1)
        ]
        for k in range(2, kmax + 1)
    ]
    out = np.empty((n_max, kmax))
    out[0] = 1.0
    m = [1.0] * (kmax + 1)  # m[k] = E[ratio^k]; m[0] = m[1] = 1 throughout
    for n, row in enumerate(rows, start=1):
        t1 = row[0]  # P_eps(0, 1) = T_eps(q)
        m = m[:2] + [
            sum(c * row[i] * m[j] * m[l] for c, i, j, l in ks) / t1**k
            for k, ks in enumerate(terms, start=2)
        ]
        out[n] = m[1:]
    return out
