"""Deterministic integer moments of the limiting normalized ratio.

The limit law of the normalized ratio has moments M_k(q) obeying

    M_l = [ sum_{j=1}^{l-1} C(l,j) M_j M_{l-j} I(j, l-j) ] / (T(lq) - l T(q))

with M_1 = 1 and the pair integral

    I(j, m) = (1/2) int_0^{pi/4} sin^{2qj-2} t cos^{2qm-2} t dt,

endpoint-singular when qj < 1.  The denominators are positive exactly while
q is below the threshold q_l (all l for q <= 1); tables truncate there.

Also here: the factorial growth bound M_k <= C(q)^k k! for q in (1/2, 1),
and the exact finite-scale moment trajectory E[ratio_n^k] driven by the
angle law at eps = b/n, which the Monte Carlo pool must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from . import analytics, theta
from .errors import ContractViolation

__all__ = [
    "MomentTable",
    "FactorialBound",
    "pair_integral",
    "moment_table",
    "factorial_bound_constant",
    "moment_trajectory",
]

_QUARTER_PI = 0.25 * math.pi

_pair_cache: dict[tuple[float, int, int], float] = {}


@dataclass(frozen=True)
class MomentTable:
    """Limiting moments M_1..M_valid_upto at index q (b never enters)."""

    q: float
    kmax: int
    M: tuple[float, ...]
    valid_upto: int
    denominators: tuple[float, ...]  # T(lq) - l T(q) for l = 1..valid_upto
    truncated: bool


@dataclass(frozen=True)
class FactorialBound:
    """Growth-bound certificate: M_k <= C^k k! for all tabulated k."""

    q: float
    C: float
    k0: int
    checked_upto: int


def pair_integral(q: float, j: int, m: int, *, tol: float = 1e-10) -> float:
    """I(j, m) = (1/2) int_0^{pi/4} sin^{2qj-2} cos^{2qm-2}.

    The sin power 2qj-2 may dip to -1 (exclusive); the algebraic endpoint
    weight hands that singularity to the quadrature rule explicitly.
    Cached by (q, j, m).
    """
    if not q > 0.5:
        raise ValueError(f"q must exceed 1/2, got {q}")
    if j < 1 or m < 1:
        raise ValueError("j and m must be integers >= 1")
    key = (float(q), int(j), int(m))
    if key in _pair_cache:
        return _pair_cache[key]

    a = 2.0 * q * j - 2.0
    b = 2.0 * q * m - 2.0

    def cofactor(t: float) -> float:
        # sin^{a} t = t^{a} * (sin t / t)^{a}; the second factor is smooth
        if t == 0.0:
            return 1.0
        return (math.sin(t) / t) ** a * math.cos(t) ** b

    val, _ = integrate.quad(
        cofactor,
        0.0,
        _QUARTER_PI,
        weight="alg",
        wvar=(a, 0.0),
        epsabs=0.0,
        epsrel=tol,
        limit=200,
    )
    out = 0.5 * val
    _pair_cache[key] = out
    return out


def _valid_upto(q: float, kmax: int) -> int:
    if q <= 1.0:
        return kmax
    for k in range(2, kmax + 1):
        if q >= analytics.find_qk(k):
            return k - 1
    return kmax


def moment_table(q: float, kmax: int) -> MomentTable:
    """Fill M_1..M_valid_upto by the recursion; truncate above threshold."""
    if not q > 0.5:
        raise ValueError(f"q must exceed 1/2, got {q}")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    upto = _valid_upto(q, kmax)
    tq = analytics.T_of_q(q)
    m = [1.0]
    denoms = [analytics.T_of_q(q) - tq]  # 0 by construction for l = 1
    for l in range(2, upto + 1):
        denom = analytics.T_of_q(l * q) - l * tq
        if denom <= 0.0:
            raise ContractViolation(
                f"non-positive denominator T({l}q) - {l}T(q) = {denom:.3g} at "
                f"l={l} <= valid_upto={upto}: threshold table inconsistent"
            )
        acc = 0.0
        for j in range(1, l):
            acc += (
                math.comb(l, j)
                * m[j - 1]
                * m[l - j - 1]
                * pair_integral(q, j, l - j)
            )
        m.append(acc / denom)
        denoms.append(denom)
    return MomentTable(
        q=q,
        kmax=kmax,
        M=tuple(m),
        valid_upto=upto,
        denominators=tuple(denoms),
        truncated=upto < kmax,
    )


def factorial_bound_constant(q: float, table: MomentTable) -> FactorialBound:
    """Construct C(q) from the least k0 with contraction factor below one.

    The factor is k/(T(qk) - kT(q)) times I(1, k-1), the pair integral of
    tan^{2q-2} cos^{2qk-4}.  For q in (1/2, 1) the first term tends to
    -1/T(q) > 0 while the integral vanishes, so k0 exists (the search gives
    up at k = 10^4); C(q) = max_{j<k0} (M_j/j!)^{1/j} then bounds every
    tabulated moment by C^k k!.

    It certifies, for q in (1/2, 1), that the recursion's limiting moments
    grow no faster than C^k k!: below k0 the constant covers them, from k0
    on the contraction factor carries the bound upward, and every tabulated
    moment is re-checked (a violation raises ``ContractViolation``).  So
    the limit law has E[exp(sX)] < inf for s < 1/C: it is fixed by its
    moments, and its transform phi is analytic at t = 0, as the Laplace
    route's series head assumes.  ``tests/test_moments.py`` exercises it in
    ``test_factorial_bound_certificate_holds``.
    """
    if not 0.5 < q < 1.0:
        raise ValueError(f"factorial bound requires q in (1/2, 1), got {q}")
    tq = analytics.T_of_q(q)
    k0 = None
    for k in range(2, 10_001):
        factor = k / (analytics.T_of_q(k * q) - k * tq) * pair_integral(q, 1, k - 1)
        if factor < 1.0:
            k0 = k
            break
    if k0 is None:
        raise ContractViolation("no k0 up to 10^4: quadrature suspect")

    # Moments below k0 set the constant; extend the table if it is short.
    need = max(k0 - 1, table.valid_upto)
    tab = table if table.valid_upto >= need else moment_table(q, need)
    c = max(
        (tab.M[j - 1] / math.factorial(j)) ** (1.0 / j) for j in range(1, k0)
    )
    for k in range(1, tab.valid_upto + 1):
        if tab.M[k - 1] > c**k * math.factorial(k) * (1.0 + 1e-12):
            raise ContractViolation(
                f"factorial bound violated at k={k}: M_k={tab.M[k - 1]:.6g} "
                f"> C^k k! with C={c:.6g}"
            )
    return FactorialBound(q=q, C=c, k0=k0, checked_upto=tab.valid_upto)


def _angle_moments(q: float, b: float, n_max: int, kmax: int):
    """Per-step angle moments at eps_n = b/n for n = 1..n_max-1.

    Tabulates, with the 48-node folded rule on a log grid of scales,
    T_eps(jq) = E[sin^{2qj} + cos^{2qj}] for j = 1..kmax (columns 0..kmax-1)
    and the joint moments B_eps(j, m) = E[sin^{2qj} cos^{2qm}] for
    j + m <= kmax (column col[(j, m)]), then evaluates one cubic spline in
    ln(eps) through all columns over the whole schedule, so the exact
    moment recursion can run for 10^5 steps without one quadrature per
    step.  All columns are smooth in ln(eps) (power series in eps^{2q-1},
    eps, ...).  Returns (rows, col) with rows[n-1] at eps_n.
    """
    pairs = [(j, m) for j in range(1, kmax) for m in range(1, kmax - j + 1)]
    lo, hi = math.log(b / n_max * 0.99), math.log(b * 1.01)
    n_nodes = max(16, int(64 * (hi - lo) / math.log(10.0)))
    grid = np.linspace(lo, hi, n_nodes)
    table = []
    for u in grid:
        nodes, w = theta.folded_rule(theta.ThetaLaw(math.exp(u)), nodes_per_panel=48)
        s2 = np.sin(nodes) ** 2
        c2 = 1.0 - s2
        table.append(
            [float((s2 ** (q * j) + c2 ** (q * j)) @ w) for j in range(1, kmax + 1)]
            + [float((s2 ** (q * j) * c2 ** (q * m)) @ w) for j, m in pairs]
        )
    spl = CubicSpline(grid, np.array(table))
    rows = spl([math.log(b / n) for n in range(1, n_max)]).tolist()
    return rows, {jm: kmax + i for i, jm in enumerate(pairs)}


def moment_trajectory(
    q: float, b: float, n_max: int, kmax: int = 4
) -> np.ndarray:
    """Exact moments E[ratio_n^k] for n = 1..n_max, k = 1..kmax.

    Row n-1 holds scale n; the recursion starts from the deterministic unit
    pool (all moments 1) and uses the exact angle law at eps = b/n.  Columns
    whose denominator is not positive (q at or above the threshold q_k) are
    still propagated; they simply do not converge.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max == 1:
        return np.ones((1, kmax))  # the unit pool; no angle moment is needed
    rows, col = _angle_moments(q, b, n_max, kmax)
    out = np.empty((n_max, kmax))
    out[0] = 1.0
    m = np.ones(kmax + 1)  # m[k] = E[ratio^k], m[0] unused
    for n, row in enumerate(rows, start=1):
        t1 = row[0]
        new = np.ones(kmax + 1)
        for k in range(2, kmax + 1):
            acc = row[k - 1] * m[k]
            for j in range(1, k):
                acc += math.comb(k, j) * row[col[(j, k - j)]] * m[j] * m[k - j]
            new[k] = acc / t1**k
        m = new
        out[n] = m[1:]
    return out
