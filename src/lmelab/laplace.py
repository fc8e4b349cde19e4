"""Laplace-transform iteration and the stationary integro-differential equation.

For q in (1/2, 1) the transform phi(t) = E[exp(-t * ratio)] of the limiting
normalized ratio solves

    T(q) t phi'(t)
      + (1/2) int_0^{pi/4} [phi(t sin^{2q}u) phi(t cos^{2q}u) - phi(t)]
                            / (sin^2 u cos^2 u) du  =  0

uniquely among transforms of mean-one laws.  Two routes to it live here:

* :func:`iterate_phi` runs the finite-scale recursion
  phi_{n+1}(t) = E[phi_n(t sin^{2q}th/T_n) phi_n(t cos^{2q}th/T_n)] with the
  exact angle law at eps = b/n.  Its iterates track the law of the
  normalized ratio at scale n, whose distance from the limit decays only
  like a fractional power of n.  The grid's series head takes the same
  step with the same rule, so the route shares no code with the moment
  recursions of :mod:`lmelab.moments`.
* :func:`refine_stationary` solves the stationary equation directly
  (Newton-Krylov on the grid residual), which removes the finite-scale bias
  floor.  Its solution does not depend on the initial guess, so
  :func:`converge_grid` starts it from a short fixed recursion (at most
  _WARM_START scales) and lets ``n_schedule`` size only the recursion-only
  route (``refine=False``).  The one Newton solve is preconditioned by a
  banded approximation of the Jacobian at its starting grid: the
  derivative stencil and the diagonal exactly, the kernel integral with
  the spline replaced by linear interpolation and cut to seven diagonals.
  The residual and its Jacobian products stay exact, so the
  preconditioner changes the number of iterations, not the equation
  solved.

The stationary residual has an integrable endpoint singularity whose naive
quadrature amplifies float cancellation by 1/theta^2; all evaluators here
switch to a four-term analytic expansion below theta = 1e-3.

Grid representation: values on a logarithmic t-grid, C^2 cubic spline in
ln t between nodes, truncated alternating moment series below t_min, and a
clamp above t_max.  Monotonicity is enforced by isotonic projection after
every step; the projection distance is a contract (<= 1e-9), not a crutch.
The fixed-rule paths (:func:`iterate_phi`, the stationary residual and the
preconditioner) evaluate the grid only at node-times-multiplier points
t_i m, which on a grid uniform in ln t lie a fixed number of spline
intervals from their node, so :func:`_outer_evaluator` reads them off one
row of interval values per multiplier, with no search; it raises
ValueError on a grid that is not uniform in ln t.  Arbitrary points
(:func:`grid_eval` and the oracle :func:`stationary_residual`) go through
the interval search of :func:`_evaluator`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.optimize import newton_krylov
from scipy.optimize._nonlin import NoConvergence
from scipy.sparse.linalg import LinearOperator

from . import analytics, theta
from .errors import ContractViolation, QuadratureWarning

__all__ = [
    "GridFunction",
    "make_grid",
    "grid_eval",
    "iterate_phi",
    "refine_stationary",
    "stationary_residual",
    "moments_from_phi",
    "converge_grid",
]

_THETA_SWITCH = 1e-3  # below this angle the kernel integrand is expanded
# Least-squares window t <= 0.8 of the small-t series fits (the pinned
# collar fit and the moment estimates).
_SERIES_FIT_T_MAX = 0.8
# Stationary-solve window: nodes beyond it carry no weight in the kernel
# below t = _SOLVE_T_MAX/2 and are rebuilt as a log-linear continuation.
_SOLVE_T_MAX = 120.0
# Half-bandwidth, in grid nodes, of the stationary solve's preconditioner.
_BAND = 3
# Pinned series fits per collar rebuild in refine_stationary.  The fit
# window t <= _SERIES_FIT_T_MAX also holds the collar's own stale values,
# and each refit shrinks their inconsistency about 1e5-fold: after one
# refit the fit of the refined grid misses its series head by up to 5.7e-5
# (c4; q = 0.9, exponential start), after two by 5.5e-10 and after three
# by at most 4.1e-15.
_COLLAR_REFITS = 3
# Fixed relative tolerance of each preconditioned inner LGMRES solve.
# scipy's default forcing term min(1e-3, 1e-3 ||F||) shrinks with the
# residual, so the last Newton steps ran their whole inner budget: a fixed
# 1e-3 cuts the residual evaluations at converge_grid(q, 0.5,
# n_schedule=1000) from 24 to 20 at q = 0.75, 50 to 16 at q = 0.6 and 32 to
# 26 at q = 0.9, moving refined phi by at most 6.2e-13.
_INNER_RTOL = 1e-3
# Recursion scales run before the stationary solve in converge_grid (the
# recursion from n = 1 to _WARM_START); at least 2, so one step runs: the
# steps are the laplace route's only theta.folded_rule calls
# (refine_stationary makes none), and benchmarks/tests'
# test_traced_layers_are_exercised requires theta.folded_rule.calls > 0 on
# laplace.  The solve's answer does not depend on its start: against a
# 1000-step start at b = 0.5, 32 scales move refined phi by at most 5.8e-13
# (q = 0.75, delta), 2.8e-13 (q = 0.9, delta) and 1.1e-11 (q = 0.9,
# exponential), leave the probe residuals within 3e-13, and take 20 residual
# evaluations against 23 at q = 0.75 (31 against 23 at q = 0.9,
# exponential).  The 968 recursion steps it skips took 1.2 s of
# converge_grid(0.75, 0.5, n_schedule=1000) (0.073 s against 1.25 s, medians
# of three, 2-core Xeon host).  Starting from the initial law alone costs up
# to 38 evaluations (q = 0.9, exponential).
_WARM_START = 32


@dataclass(frozen=True)
class GridFunction:
    """Tabulated transform on a logarithmic grid with a series head.

    ``series`` holds (c0, c1, c2, c3, c4) of the small-t expansion
    c0 + c1 t + c2 t^2 + c3 t^3 + c4 t^4 used below t_min; for a mean-one
    law c0 = 1, c1 = -1, c2 = M2/2, c3 = -M3/6, c4 = M4/24.
    """

    t: np.ndarray
    phi: np.ndarray
    series: tuple[float, float, float, float, float]

    @property
    def t_min(self) -> float:
        return float(self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    def check_invariants(self) -> None:
        """Shape contract: phi in (0, 1], non-increasing, convex in t."""
        if np.any(self.phi <= 0.0) or np.any(self.phi > 1.0 + 1e-15):
            raise ContractViolation("phi must lie in (0, 1]")
        if np.any(np.diff(self.phi) > 1e-15):
            raise ContractViolation("phi must be non-increasing")
        slopes = np.diff(self.phi) / np.diff(self.t)
        if np.any(np.diff(slopes) < -1e-8):
            raise ContractViolation("phi fails the convexity spot check")


def _check_q(q: float) -> None:
    if not 0.5 < q < 1.0:
        raise ValueError(f"the Laplace route requires q in (1/2, 1), got {q}")


def _check_init(init: str) -> None:
    if init not in ("delta", "exponential"):
        raise ValueError(f"unknown init {init!r}; use 'delta' or 'exponential'")


def make_grid(init: str = "delta") -> GridFunction:
    """Fresh grid of 400 log-spaced nodes on [1e-4, 1e3] at scale 1:
    'delta' is exp(-t) (unit point mass), 'exponential' is 1/(1+t)
    (unit-mean exponential law)."""
    _check_init(init)
    t = np.geomspace(1e-4, 1e3, 400)
    if init == "delta":
        phi = np.exp(-np.minimum(t, 700.0))
        series = (1.0, -1.0, 0.5, -1.0 / 6.0, 1.0 / 24.0)
    else:
        phi = 1.0 / (1.0 + t)
        series = (1.0, -1.0, 1.0, -1.0, 1.0)
    phi = np.clip(phi, 1e-300, 1.0)
    return GridFunction(t=t, phi=phi, series=series)


def _evaluator(grid: GridFunction):
    """Vectorized phi(arg) on arrays of any shape: spline in ln t, series
    head, clamped top end."""
    lnt = np.log(grid.t)
    cs = CubicSpline(lnt, grid.phi, extrapolate=False)
    lo, hi = lnt[0], lnt[-1]
    c0, c1, c2, c3, c4 = grid.series
    last = float(grid.phi[-1])

    def ev(args: np.ndarray) -> np.ndarray:
        la = np.log(args)
        out = np.empty(args.shape)
        small = la < lo
        big = la > hi
        mid = ~(small | big)
        out[mid] = cs(la[mid])
        if small.any():
            x = args[small]
            out[small] = c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))
        if big.any():
            out[big] = last
        return out

    return ev


def _log_step(lnt: np.ndarray) -> float:
    """Spacing h of grid nodes ln t that are uniform in ln t.

    The fixed-rule paths rely on t_i m lying a whole number of intervals
    from node i whatever i is, so a node more than 1e-9 h away from
    ln t_0 + i h raises ValueError.
    """
    h = (lnt[-1] - lnt[0]) / (lnt.size - 1)
    if np.max(np.abs(lnt - lnt[0] - h * np.arange(lnt.size))) > 1e-9 * h:
        raise ValueError("the grid must be uniform in ln t")
    return h


def _interval_offset(mult: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Whole grid steps s = floor(ln m / h) of each multiplier m and the
    remainder ln m / h - s in [0, 1)."""
    u = np.log(mult) / h
    s = np.floor(u)
    return s.astype(np.intp), u - s


def _outer_evaluator(grid: GridFunction):
    """phi(t_i m_k) at every node t_i and positive multiplier m_k, as an
    array of shape (nodes, multipliers).

    On the grid uniform in ln t, t_i m lies in spline interval
    j = i + s with s = floor(ln m / h), at dx = ln t_i + ln m - ln t_j =
    ln m - s h from the interval's left end, whatever i is.  So each
    multiplier evaluates every interval at its one offset dx, as a product
    with a table of coefficients, and reads the nodes' values as that row
    shifted by s: no log of the products and no interval search.  The
    table continues the grid below t_min with intervals j < 0 of the same
    width, on which the series head at t_j e^dx = t_i m is taken, and
    above t_max with the clamp, as in :func:`_evaluator`.
    """
    t = grid.t
    n = t.size
    lnt = np.log(t)
    h = _log_step(lnt)
    # tab[:, n + j] is interval j, for j in [-n, 2n), as the coefficients of
    # (dx^3, dx^2, dx, 1, e^dx, e^2dx, e^3dx, e^4dx): the spline's cubic in
    # the grid, the series head c_p (t_j e^dx)^p below it, the clamp above
    tab = np.zeros((8, 3 * n))
    tab[:4, n : 2 * n - 1] = CubicSpline(lnt, grid.phi).c
    tab[3, 2 * n - 1 :] = grid.phi[-1]
    t_below = np.exp(lnt[0] + h * np.arange(-n, 0))
    tab[3:, :n] = (np.power.outer(t_below, np.arange(5)) * grid.series).T

    def ev(mult: np.ndarray) -> np.ndarray:
        s, frac = _interval_offset(mult, h)
        # beyond n steps every node is head or clamp; dx grows to match
        shift = np.clip(s, -n, n)
        dx = (frac + (s - shift)) * h
        lo, hi = shift.min(initial=0), shift.max(initial=0)
        powers = np.power.outer(dx, np.arange(3, -1, -1))
        exps = np.power.outer(np.exp(dx), np.arange(1, 5))
        # vals[k, j - lo]: interval j at multiplier k, for the intervals
        # lo .. hi + n - 1 that some multiplier reaches
        vals = np.hstack([powers, exps]) @ tab[:, n + lo : 2 * n + hi]
        return sliding_window_view(vals, n, axis=1)[np.arange(mult.size), shift - lo].T

    return ev


def grid_eval(grid: GridFunction, args) -> np.ndarray:
    """Evaluate the grid function at positive arguments."""
    a = np.atleast_1d(np.asarray(args, dtype=float))
    if np.any(a <= 0.0):
        raise ValueError("arguments must be positive")
    return _evaluator(grid)(a)


def _isotonic(phi: np.ndarray) -> tuple[np.ndarray, float]:
    proj = np.minimum.accumulate(np.clip(phi, 1e-300, 1.0))
    return proj, float(np.max(np.abs(proj - phi)))


def iterate_phi(
    q: float,
    b: float,
    n_start: int,
    n_end: int,
    grid: GridFunction,
) -> GridFunction:
    """Apply the scale recursion for n = n_start .. n_end - 1.

    The expectation over the angle at eps = b/n uses a fixed folded
    Gauss-Legendre rule, normalized by the same rule's T_n: that keeps the
    rule's mean exactly one, but the spline evaluation of the grid body
    lets the grid mean drift upward: from the delta start at b = 0.5,
    ``moments_from_phi(...)[0] - 1`` is 2.5e-6 at q = 0.6 after 250 steps
    and 2.0e-5 after 1000.  The series head starts from
    ``grid.series`` and takes each step with the same rule: with
    A = sin^{2q}th/T_n and B = cos^{2q}th/T_n,
    c_k' = sum_j c_j c_{k-j} E[A^j B^{k-j}] for k = 2..4, while c0 = 1 and
    c1 = -1 stay pinned.
    """
    _check_q(q)
    if n_start < 1 or n_end < n_start:
        raise ValueError("need 1 <= n_start <= n_end")
    t = grid.t
    phi = grid.phi.copy()
    series = grid.series
    powers = np.arange(5)
    for n in range(n_start, n_end):
        nodes, w = theta.folded_rule(theta.ThetaLaw(b / n), 24)
        s2 = np.sin(nodes) ** 2
        a_pow = s2**q
        b_pow = (1.0 - s2) ** q
        t_n = (a_pow + b_pow) @ w
        a_arg, b_arg = a_pow / t_n, b_pow / t_n
        ev = _outer_evaluator(GridFunction(t=t, phi=phi, series=series))
        new = (ev(a_arg) * ev(b_arg)) @ w
        phi, dist = _isotonic(new)
        # the projection distance is a contract, not a crutch
        if dist > 1e-9:
            raise ContractViolation(
                f"isotonic projection moved the grid by {dist:.2e} at n={n}: "
                "interpolation breakdown"
            )
        # mix[j, l] = E[A^j B^l] under the rule
        mix = np.einsum(
            "i,ij,il->jl", w, np.power.outer(a_arg, powers), np.power.outer(b_arg, powers)
        )
        series = (1.0, -1.0) + tuple(
            float(sum(series[j] * series[k - j] * mix[j, k - j] for j in range(k + 1)))
            for k in (2, 3, 4)
        )
    return GridFunction(t=t, phi=phi, series=series)


class _KernelPieces:
    """Per-q quadrature data for the stationary operator.

    Main region [theta_switch, pi/4]: :func:`theta.gauss_panels` on the raw
    integrand.  Below theta_switch the integrand is replaced by its
    analytic expansion; the four theta-integrals (one endpoint-singular)
    are precomputed here.
    """

    def __init__(self, q: float):
        self.q = q
        a = 2.0 * q - 2.0
        quad = integrate.quad
        self.g_sing = quad(
            lambda x: (math.sin(x) / x) ** a / math.cos(x) ** 2 if x > 0 else 1.0,
            0.0,
            _THETA_SWITCH,
            weight="alg",
            wvar=(a, 0.0),
            epsabs=1e-16,
            epsrel=1e-13,
        )[0]
        self.g_adv = quad(
            lambda x: x * x / (math.sin(x) ** 2 * math.cos(x) ** 2) if x > 0 else 1.0,
            0.0,
            _THETA_SWITCH,
            epsabs=1e-16,
            epsrel=1e-13,
        )[0]
        self.g_cross = quad(
            lambda x: x * x * (math.sin(x) / x) ** a / math.cos(x) ** 2 if x > 0 else 0.0,
            0.0,
            _THETA_SWITCH,
            weight="alg",
            wvar=(a, 0.0),
            epsabs=1e-16,
            epsrel=1e-13,
        )[0]
        self.g_quad = quad(
            lambda x: math.sin(x) ** (4.0 * q - 2.0) / math.cos(x) ** 2,
            0.0,
            _THETA_SWITCH,
            epsabs=1e-16,
            epsrel=1e-13,
        )[0]
        th, self.weights = theta.gauss_panels([_THETA_SWITCH], 32)
        s2 = np.sin(th) ** 2
        self.sin_pow = s2**q
        self.cos_pow = (1.0 - s2) ** q
        self.inv_s2c2 = 1.0 / (s2 * (1.0 - s2))

    def small_part(self, t, phi_t, tphi_prime, m2: float):
        """Integral of the expanded kernel over [0, theta_switch]."""
        q = self.q
        return (
            -t * phi_t * self.g_sing
            - q * tphi_prime * self.g_adv
            + q * t * tphi_prime * self.g_cross
            + 0.5 * m2 * t * t * phi_t * self.g_quad
        )


_kernel_cache: dict[float, _KernelPieces] = {}


def _kernel(q: float) -> _KernelPieces:
    if q not in _kernel_cache:
        _kernel_cache[q] = _KernelPieces(q)
    return _kernel_cache[q]


def _dlog_derivative(phi: np.ndarray, h: float) -> np.ndarray:
    """t phi'(t) = dphi/d(ln t), fourth-order centered stencil."""
    d = np.empty_like(phi)
    d[2:-2] = (-phi[4:] + 8 * phi[3:-1] - 8 * phi[1:-3] + phi[:-4]) / (12 * h)
    d[0] = (-3 * phi[0] + 4 * phi[1] - phi[2]) / (2 * h)
    d[1] = (phi[2] - phi[0]) / (2 * h)
    d[-2] = (phi[-1] - phi[-3]) / (2 * h)
    d[-1] = (3 * phi[-1] - 4 * phi[-2] + phi[-3]) / (2 * h)
    return d


def _residual_grid(q: float, grid: GridFunction) -> np.ndarray:
    """Stationary residual at every grid node (fixed-rule evaluation)."""
    ker = _kernel(q)
    t = grid.t
    h = math.log(t[1] / t[0])
    ev = _outer_evaluator(grid)
    tphip = _dlog_derivative(grid.phi, h)
    fab = ev(ker.sin_pow) * ev(ker.cos_pow)
    main = ((fab - grid.phi[:, None]) * ker.inv_s2c2[None, :]) @ ker.weights
    m2 = 2.0 * grid.series[2]
    small = ker.small_part(t, grid.phi, tphip, m2)
    return analytics.T_of_q(q) * tphip + 0.5 * (main + small)


def _small_t_fit(grid: GridFunction, head: tuple[float, ...]) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of t^len(head) .. t^7 in
    phi(t) - sum_k head[k] t^k over t <= _SERIES_FIT_T_MAX, and the largest
    fit residual."""
    t, phi = grid.t, grid.phi
    mask = t <= _SERIES_FIT_T_MAX
    tm = t[mask]
    y = phi[mask]
    for k, c in enumerate(head):
        y = y - c * tm**k
    a = np.vstack([tm**p for p in range(len(head), 8)]).T
    scale = np.linalg.norm(a, axis=0)
    c, *_ = np.linalg.lstsq(a / scale, y, rcond=None)
    c = c / scale
    return c, float(np.max(np.abs(a @ c - y)))


def _fit_series_pinned(grid: GridFunction):
    """Series coefficients with the mean pinned at one (scale anchor)."""
    c, _ = _small_t_fit(grid, (1.0, -1.0))
    return (1.0, -1.0, float(c[0]), float(c[1]), float(c[2]))


def _banded_preconditioner(
    q: float, grid: GridFunction, fidx: np.ndarray
) -> LinearOperator:
    """Inverse of a banded approximation of the free-node Jacobian of
    :func:`_residual_grid` at ``grid``: the preconditioner of one Newton
    solve of :func:`refine_stationary`.

    Exact parts: the :func:`_dlog_derivative` stencil times T(q) plus the
    t phi' coefficients of the small-angle part, and the diagonal terms
    -sum(w / sin^2 cos^2), -t g_sing and m2 t^2 g_quad / 2.  Approximate
    part: the kernel integral, linearized as fb dfa + fa dfb with the spline
    replaced by linear interpolation in ln t and entries more than _BAND
    nodes off the diagonal dropped.  On the log-uniform grid the argument
    t_i c_k lies ln(c_k)/h nodes from node i whatever i is, so the
    interpolation slots and weights depend on the angle node alone; a grid
    that is not uniform in ln t raises ValueError.
    """
    ker = _kernel(q)
    h = _log_step(np.log(grid.t))
    tf = grid.t[fidx]
    ev = _outer_evaluator(grid)
    coef = 0.5 * ker.weights * ker.inv_s2c2
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    dcoef = analytics.T_of_q(q) + 0.5 * q * (tf * ker.g_cross - ker.g_adv)
    # rows[i, _BAND + d] is J[i, i + d]
    rows = np.zeros((fidx.size, 2 * _BAND + 1))
    rows[:, _BAND - 2 : _BAND + 3] = dcoef[:, None] * stencil
    rows[:, _BAND] -= np.sum(coef) + 0.5 * tf * ker.g_sing
    rows[:, _BAND] += grid.series[2] * 0.5 * tf * tf * ker.g_quad
    # per side: the angle nodes whose argument lands within the band, with
    # their weights on offsets -_BAND.._BAND, times the other factor
    for own, other in ((ker.sin_pow, ker.cos_pow), (ker.cos_pow, ker.sin_pow)):
        lo, frac = _interval_offset(own, h)
        w = np.zeros((own.size, 2 * _BAND + 1))
        for off, share in ((lo, 1.0 - frac), (lo + 1, frac)):
            k = np.where(np.abs(off) <= _BAND)[0]
            w[k, off[k] + _BAND] += coef[k] * share[k]
        keep = np.any(w != 0.0, axis=1)
        rows += ev(other[keep])[fidx] @ w[keep]
    # solve_banded reads J[i, i + d] at ab[_BAND - d, i + d]; columns i + d
    # outside the free nodes are frozen values and are dropped
    m = fidx.size
    ab = np.zeros((2 * _BAND + 1, m))
    for d in range(-_BAND, _BAND + 1):
        lo, hi = max(d, 0), m + min(d, 0)
        ab[_BAND - d, lo:hi] = rows[lo - d : hi - d, _BAND + d]
    return LinearOperator(
        (m, m), matvec=lambda v: solve_banded((_BAND, _BAND), ab, v), dtype=float
    )


def _set_collar(grid: GridFunction, collar: np.ndarray) -> GridFunction:
    """The grid with its collar nodes and series head set to the pinned
    series fit, refitted _COLLAR_REFITS times."""
    phi = grid.phi.copy()
    x = grid.t[collar]
    for _ in range(_COLLAR_REFITS):
        series = _fit_series_pinned(replace(grid, phi=phi))
        c0, c1, c2, c3, c4 = series
        phi[collar] = c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))
    return GridFunction(t=grid.t, phi=phi, series=series)


def refine_stationary(q: float, grid: GridFunction) -> GridFunction:
    """Solve the stationary equation on the grid by Newton-Krylov.

    The finite-scale recursion approaches the limit only like a fractional
    power of the scale, which strands its residual around 1e-4; solving the
    stationary equation directly removes that floor.  The scale-invariance
    mode (t -> ct reparametrizations) is pinned by anchoring the collar
    t <= 4e-3 to a mean-one series fitted from the grid itself; the
    objective of the one Newton solve rebuilds the collar and the series
    head from the free values (:func:`_set_collar`) before each residual
    evaluation, so the solution is self-consistent.  Nodes beyond t = 120
    carry no weight in the kernel below t = 60 and are rebuilt as a
    log-linear decay continuation.

    The solve is preconditioned by :func:`_banded_preconditioner`, built
    once from the starting grid: the derivative stencil and the diagonal
    terms of the Jacobian are exact, the kernel integral is linearized
    with linear interpolation in ln t and kept within three nodes of the
    diagonal.  The residual, its finite-difference Jacobian products and
    the f_tol 1e-11 stopping rule are those of the unpreconditioned solve;
    the preconditioner and a fixed inner tolerance of 1e-3 bring the
    residual evaluations at q = 0.75 after a 32-scale warm start to 20.
    """
    _check_q(q)
    t = grid.t
    collar = t <= 4e-3
    free = (~collar) & (t <= _SOLVE_T_MAX)
    fidx = np.where(free)[0]
    start = _set_collar(grid, collar)

    def rebuilt(u: np.ndarray) -> GridFunction:
        p = start.phi.copy()
        p[fidx] = u
        return _set_collar(replace(start, phi=p), collar)

    def objective(u: np.ndarray) -> np.ndarray:
        return _residual_grid(q, rebuilt(u))[fidx]

    try:
        with warnings.catch_warnings():
            # scipy's termination bookkeeping divides by an unset x_rtol
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = newton_krylov(
                objective,
                start.phi[fidx],
                f_tol=1e-11,
                maxiter=80,
                inner_M=_banded_preconditioner(q, start, fidx),
                inner_rtol=_INNER_RTOL,
            )
    except NoConvergence as exc:
        raise ContractViolation(f"stationary solve failed: {exc}") from exc
    solved = rebuilt(sol)
    phi, series = solved.phi, solved.series

    # log-linear tail continuation beyond the solve window
    tail = t > _SOLVE_T_MAX
    if tail.any():
        i0 = fidx[-1]
        slope = math.log(max(phi[i0], 1e-300) / max(phi[i0 - 4], 1e-300)) / (
            math.log(t[i0] / t[i0 - 4])
        )
        slope = min(slope, -1e-3)
        phi[tail] = phi[i0] * np.exp(slope * np.log(t[tail] / t[i0]))

    phi, _ = _isotonic(phi)
    out = GridFunction(t=t, phi=phi, series=series)
    out.check_invariants()
    return out


def stationary_residual(q: float, grid: GridFunction, t_point: float) -> float:
    """Signed residual of the stationary equation at one t.

    Independent of the fixed-rule path used by the solver: the derivative
    comes from a five-point centered difference in ln t and the kernel
    integral above the switch angle from adaptive Gauss-Kronrod quadrature.
    """
    if not grid.t_min <= t_point <= grid.t_max:
        raise ValueError(f"t={t_point} outside grid [{grid.t_min}, {grid.t_max}]")
    ker = _kernel(q)
    ev = _evaluator(grid)
    h = math.log(grid.t[1] / grid.t[0])
    stencil = t_point * np.exp(h * np.array([-2.0, -1.0, 1.0, 2.0]))
    f = ev(stencil)
    tphip = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
    phi_t = float(ev(np.array([t_point]))[0])

    def integrand(u: float) -> float:
        s2 = math.sin(u) ** 2
        c2 = 1.0 - s2
        pa = float(ev(np.array([t_point * s2**q]))[0])
        pb = float(ev(np.array([t_point * c2**q]))[0])
        return (pa * pb - phi_t) / (s2 * c2)

    with warnings.catch_warnings():
        # roundoff flags below our accuracy needs are checked via err instead
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            integrand,
            _THETA_SWITCH,
            0.25 * math.pi,
            points=[1e-2, 1e-1],
            epsabs=1e-12,
            epsrel=1e-11,
            limit=300,
        )
    if err > 1e-8:
        warnings.warn(
            f"stationary_residual quadrature error {err:.2e}",
            QuadratureWarning,
            stacklevel=2,
        )
    m2 = 2.0 * grid.series[2]
    small = ker.small_part(t_point, phi_t, tphip, m2)
    return analytics.T_of_q(q) * tphip + 0.5 * (val + small)


def moments_from_phi(grid: GridFunction, kmax: int = 4) -> tuple[float, ...]:
    """Estimate M_1..M_kmax from the small-t expansion of the grid.

    Unconstrained least squares on t..t^7 (degrees above kmax are nuisance
    terms absorbing series truncation); the estimated mean M_1 is a real
    diagnostic of mean preservation, not pinned.
    """
    if not 1 <= kmax <= 4:
        raise ValueError("kmax must be in 1..4")
    c, resid = _small_t_fit(grid, (1.0,))
    if resid > 1e-6:
        warnings.warn(
            f"series fit residual {resid:.2e} exceeds 1e-6: ill conditioned",
            QuadratureWarning,
            stacklevel=2,
        )
    out = []
    fact = 1.0
    for k in range(1, kmax + 1):
        fact *= k
        out.append(float((-1.0) ** k * c[k - 1] * fact))
    return tuple(out)


def converge_grid(
    q: float,
    b: float,
    *,
    init: str = "delta",
    n_schedule: int = 4000,
    refine: bool = True,
) -> GridFunction:
    """The production path to the limiting transform.

    With ``refine`` the stationary solve starts from the recursion run from
    n = 1 to min(``n_schedule``, _WARM_START): its solution does not depend
    on where it starts, so a longer schedule would buy nothing.  Without
    ``refine`` the result is the finite-scale recursion run from n = 1 to
    ``n_schedule``.
    """
    grid = make_grid(init)
    if not refine:
        return iterate_phi(q, b, 1, n_schedule, grid)
    grid = iterate_phi(q, b, 1, min(n_schedule, _WARM_START), grid)
    return refine_stationary(q, grid)
