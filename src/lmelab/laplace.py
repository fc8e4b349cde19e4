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
  floor.  Its solution does not depend on the initial guess (from the
  exponential and the delta starts it agrees within about 5e-12), so
  :func:`converge_grid` starts it from one recursion step and lets
  ``n_schedule`` size only the recursion-only route (``refine=False``).
  The one Newton solve is preconditioned by a banded approximation of the
  Jacobian at its starting grid: the derivative stencil and the diagonal
  exactly, the kernel integral with the spline replaced by linear
  interpolation and cut to seven diagonals, which only the cos factor
  reaches.  The residual and its Jacobian products stay exact, so the
  preconditioner changes the number of iterations, not the equation
  solved.

The stationary residual has an integrable endpoint singularity whose naive
quadrature amplifies float cancellation by 1/theta^2; all evaluators here
switch to a four-term analytic expansion below theta = 1e-3, integrated in
closed form.

Grid representation: values on a logarithmic t-grid, C^2 cubic spline in
ln t between nodes, truncated alternating moment series below t_min, and a
clamp above t_max.  Monotonicity is enforced by isotonic projection
(:func:`_isotonic`) after every recursion step and after the stationary
solve; on both routes the projection distance is a contract (<= 1e-9) that
raises ContractViolation, not a crutch.
The fixed-rule paths (:func:`iterate_phi`, the stationary residual and the
preconditioner) evaluate the grid only at node-times-multiplier points
t_i m, which on a grid uniform in ln t lie a fixed number of spline
intervals from their node, so :func:`_outer_evaluator` reads them off one
row of interval values per multiplier, with no search; these paths raise
ValueError on a grid that is not uniform in ln t.  They build the
spline as scipy's not-a-knot CubicSpline does, to the bit, with one LAPACK
tridiagonal solve.  What does not depend on phi is built once per call
and passed down, with the work arrays each evaluation overwrites, so no
evaluation allocates an array of nodes x multipliers: :func:`iterate_phi`
builds one :class:`_LogGrid` (the grid's step, spline system, head powers
and coefficient table) and keeps its multipliers' reads across steps, and
:func:`refine_stationary` one :class:`_StationarySolve`, which adds the
kernel multipliers' reads and the collar fit's design.  Only the per-q
kernel pieces of :func:`_kernel` are kept between calls.
Arbitrary points (:func:`grid_eval` and the oracle
:func:`stationary_residual`) go through the interval search of
:func:`_evaluator`, on scipy's CubicSpline.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgtsv
from scipy.optimize import NoConvergence, newton_krylov
from scipy.sparse.linalg import LinearOperator

from . import analytics, theta
from .errors import (
    ContractViolation, QuadratureWarning, _check_count, _check_gt0, _check_int,
    _check_q_below_one,
)

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
# below t = _SOLVE_T_MAX/2; they start and stay at _isotonic's floor 1e-300.
_SOLVE_T_MAX = 120.0
# Half-bandwidth, in grid nodes, of the stationary solve's preconditioner.
_BAND = 3
# refine_stationary's collar t <= _COLLAR_T_MAX carries the pinned series
# fitted over _COLLAR_T_MAX < t <= _SERIES_FIT_T_MAX.
_COLLAR_T_MAX = 4e-3
# Fixed relative tolerance of each preconditioned inner LGMRES solve.
# scipy's default forcing term min(1e-3, 1e-3 ||F||) shrinks with the
# residual, so the last Newton steps ran their whole inner budget: a fixed
# 1e-3 cuts the residual evaluations at converge_grid(q, 0.5,
# n_schedule=1000) from 24 to 20 at q = 0.75, 50 to 16 at q = 0.6 and 32 to
# 26 at q = 0.9, moving refined phi by at most 6.2e-13.
_INNER_RTOL = 1e-3


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


def _check_init(init: str) -> None:
    if init not in ("delta", "exponential"):
        raise ValueError(f"init must be 'delta' or 'exponential', got {init!r}")


def make_grid(init: str = "delta") -> GridFunction:
    """Fresh grid of 400 log-spaced nodes on [1e-4, 1e3] at scale 1:
    'delta' is exp(-t) (unit point mass), 'exponential' is 1/(1+t)
    (unit-mean exponential law)."""
    _check_init(init)
    # np.geomspace(1e-4, 1e3, 400) to the bit, by its own arithmetic (ten to
    # linspace's exponents, exact ends) without its Python-level setup,
    # which took 0.1 ms, most of what converge_grid spends outside the
    # recursion and the stationary solve
    t = 10.0 ** (np.arange(400.0) * (7.0 / 399.0) - 4.0)
    t[0], t[-1] = 1e-4, 1e3
    if init == "delta":
        phi = np.exp(-np.minimum(t, 700.0))
        series = (1.0, -1.0, 0.5, -1.0 / 6.0, 1.0 / 24.0)
    else:
        phi = 1.0 / (1.0 + t)
        series = (1.0, -1.0, 1.0, -1.0, 1.0)
    phi = np.clip(phi, 1e-300, 1.0)
    return GridFunction(t=t, phi=phi, series=series)


def _series_head(series: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """c0 + c1 x + c2 x^2 + c3 x^3 + c4 x^4, in Horner form."""
    c0, c1, c2, c3, c4 = series
    return c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))


def _evaluator(grid: GridFunction):
    """Vectorized phi(arg) on arrays of any shape: spline in ln t, series
    head, clamped top end."""
    lnt = np.log(grid.t)
    cs = CubicSpline(lnt, grid.phi, extrapolate=False)
    lo, hi = lnt[0], lnt[-1]
    last = float(grid.phi[-1])

    def ev(args: np.ndarray) -> np.ndarray:
        la = np.log(args)
        out = np.empty(args.shape)
        small = la < lo
        big = la > hi
        mid = ~(small | big)
        out[mid] = cs(la[mid])
        if small.any():
            out[small] = _series_head(grid.series, args[small])
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


def _lapack_info(info: int, routine: str) -> None:
    """Raise on a non-zero LAPACK info as ``scipy.linalg.solve_banded``
    does."""
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")


class _Reads(NamedTuple):
    """Where multipliers m_k send the nodes of a log-uniform grid: every
    node t_i m_k lies in spline interval i + shift_k, at offset dx_k.

    ``basis[k]`` is (dx^3, dx^2, dx, 1, e^dx, e^2dx, e^3dx, e^4dx) at
    dx_k, the row that meets :meth:`_LogGrid.table`; ``lo`` and ``hi``
    bound the shifts (and 0), and row k of the evaluated band starts at
    column ``cols[k]`` = shift_k - lo.  ``work`` holds at least
    multipliers x (n + hi - lo) entries: :func:`_outer_evaluator` writes the
    band into it, then the nodes' values over the band.
    """

    basis: np.ndarray
    lo: int
    hi: int
    cols: list[int]
    work: np.ndarray


class _LogGrid:
    """The phi-free constants of a grid uniform in ln t, read by
    :func:`_outer_evaluator`: its node count n and step h, scipy's
    not-a-knot system in ln t and the powers t_j^p, p = 0..4, of the
    intervals j = -n .. -1 continued below t_min; and the table that
    :meth:`table` fills, whose zero entries are written once."""

    def __init__(self, t: np.ndarray):
        lnt = np.log(t)
        n = self.n = t.size
        h = self.h = _log_step(lnt)
        # CubicSpline(lnt, phi)'s tridiagonal system for the node slopes,
        # with its not-a-knot rows and the constant factors of their
        # right-hand sides, for one gtsv solve per build
        dx = self.dx = np.diff(lnt)
        d0, d1 = lnt[2] - lnt[0], lnt[-1] - lnt[-3]
        self.dl = np.concatenate((dx[1:], [d1]))
        self.d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        self.du = np.concatenate(([d0], dx[:-1]))
        self.first = ((dx[0] + 2 * d0) * dx[1], dx[0] ** 2, d0)
        self.last = (dx[-1] ** 2, (2 * d1 + dx[-1]) * dx[-2], d1)
        t_below = np.exp(lnt[0] + h * np.arange(-n, 0))
        self.head = np.power.outer(t_below, np.arange(5))
        self.tab = np.zeros((8, 3 * n))

    def spline(self, phi: np.ndarray) -> np.ndarray:
        """``CubicSpline(ln t, phi).c``, built as scipy builds it: the same
        system, one LAPACK gtsv solve and the same Hermite coefficients.
        Non-finite phi raises ValueError, as CubicSpline does."""
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must contain only finite values")
        dx = self.dx
        slope = np.diff(phi) / dx
        b = np.empty(self.n)
        k0, k1, d0 = self.first
        b[0] = (k0 * slope[0] + k1 * slope[1]) / d0
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        k0, k1, d1 = self.last
        b[-1] = (k0 * slope[-2] + k1 * slope[-1]) / d1
        *_, s, info = dgtsv(self.dl, self.d, self.du, b, overwrite_b=True)
        _lapack_info(info, "gtsv")
        tt = (s[:-1] + s[1:] - 2 * slope) / dx
        return np.stack((tt / dx, (slope - s[:-1]) / dx - tt, s[:-1], phi[:-1]))

    def table(self, phi: np.ndarray, series: tuple[float, ...]) -> np.ndarray:
        """tab[:, n + j] is interval j, for j in [-n, 2n), as the
        coefficients of the :class:`_Reads` basis: the spline's cubic in the
        grid, the series head c_p (t_j e^dx)^p below it, the clamp above.
        The table is the grid's own, overwritten by the next call."""
        n, tab = self.n, self.tab
        tab[:4, n : 2 * n - 1] = self.spline(phi)
        tab[3, 2 * n - 1 :] = phi[-1]
        tab[3:, :n] = (self.head * series).T
        return tab

    def reads(self, mult: np.ndarray, held: _Reads | None = None) -> _Reads:
        """The :class:`_Reads` of positive multipliers ``mult``, on the work
        array of ``held`` if it is large enough, else on a new one that
        holds the widest band, 3n intervals, at as many multipliers."""
        n = self.n
        s, frac = _interval_offset(mult, self.h)
        # beyond n steps every node is head or clamp; dx grows to match
        shift = np.clip(s, -n, n)
        dx = (frac + (s - shift)) * self.h
        lo, hi = int(shift.min(initial=0)), int(shift.max(initial=0))
        powers = np.power.outer(dx, np.arange(3, -1, -1))
        exps = np.power.outer(np.exp(dx), np.arange(1, 5))
        if held is None or held.work.size < mult.size * (n + hi - lo):
            work = np.empty(3 * n * mult.size)
        else:
            work = held.work
        return _Reads(np.hstack([powers, exps]), lo, hi, (shift - lo).tolist(), work)


def _outer_evaluator(lg: _LogGrid, phi: np.ndarray, series: tuple[float, ...]):
    """phi(t_i m_k) at every node t_i of ``lg`` and positive multiplier m_k,
    for the grid values ``phi`` and series head ``series``, as an array of
    shape (nodes, multipliers), for the multipliers' :class:`_Reads`.
    It writes the table into ``lg`` and the values into the reads' work
    array: the next call on the same reads overwrites what one returned,
    and the next :func:`_outer_evaluator` on ``lg`` the table it reads.

    On the grid uniform in ln t, t_i m lies in spline interval
    j = i + s with s = floor(ln m / h), at dx = ln t_i + ln m - ln t_j =
    ln m - s h from the interval's left end, whatever i is.  So each
    multiplier evaluates every interval at its one offset dx, as a product
    with a table of coefficients, and reads the nodes' values as that row
    shifted by s: no log of the products and no interval search.  The
    table continues the grid below t_min with intervals j < 0 of the same
    width, on which the series head at t_j e^dx = t_i m is taken, and
    above t_max with the clamp, as in :func:`_evaluator`.  Only the table
    depends on phi: the caller builds ``lg`` and the multipliers' reads
    (:meth:`_LogGrid.reads`) once and keeps them for as long as they hold.
    """
    tab = lg.table(phi, series)
    n = lg.n

    def ev(reads: _Reads) -> np.ndarray:
        # vals[k, j - lo]: interval j at multiplier k, for the intervals
        # lo .. hi + n - 1 that some multiplier reaches
        k, width = len(reads.cols), n + reads.hi - reads.lo
        vals = reads.work[: k * width].reshape(k, width)
        np.matmul(reads.basis, tab[:, n + reads.lo : 2 * n + reads.hi], out=vals)
        # row k of the values lands at or before row k of vals, so each
        # copy overwrites only rows of vals already read
        out = reads.work[: k * n].reshape(k, n)
        for row, v, c in zip(out, vals, reads.cols):
            row[...] = v[c : c + n]
        return out.T

    return ev


def grid_eval(grid: GridFunction, args) -> np.ndarray:
    """Evaluate the grid function at positive arguments."""
    a = np.atleast_1d(np.asarray(args, dtype=float))
    if not np.all(a > 0.0):
        raise ValueError(f"args must be positive, got a minimum of {a.min()}")
    return _evaluator(grid)(a)


def _isotonic(phi: np.ndarray, where: str) -> np.ndarray:
    """The non-increasing projection of phi clipped to [1e-300, 1]: the
    monotonicity contract of both routes.  A projection that moves phi by
    more than 1e-9 raises ContractViolation naming ``where``."""
    proj = np.minimum.accumulate(np.clip(phi, 1e-300, 1.0))
    dist = float(np.max(np.abs(proj - phi)))
    if dist > 1e-9:
        raise ContractViolation(f"isotonic projection moved the grid by {dist:.2e} {where}")
    return proj


def iterate_phi(
    q: float,
    b: float,
    n_start: int,
    n_end: int,
    grid: GridFunction,
) -> GridFunction:
    """Apply the scale recursion for n = n_start .. n_end - 1.

    The expectation over the angle at eps = b/n uses theta's folded
    Gauss-Legendre rule, the one that fills the moment table, normalized by
    the same rule's T_n.  Its node count sets how well the grid mean stays
    at one: from the delta start at b = 0.5, ``moments_from_phi(...)[0] - 1``
    reads -1.7e-7 at q = 0.6 after 1000 steps, where 24 nodes drifted
    upward to 1.5e-5.  The series head starts from ``grid.series`` and
    takes each step with the same rule: with A = sin^{2q}th/T_n and
    B = cos^{2q}th/T_n,
    c_k' = sum_j c_j c_{k-j} E[A^j B^{k-j}] for k = 2..4, while c0 = 1 and
    c1 = -1 stay pinned.
    """
    _check_q_below_one(q)
    _check_gt0("b", b)
    _check_count("n_start", n_start)
    _check_int("n_end", n_end, n_start)
    t = grid.t
    phi = grid.phi.copy()
    series = grid.series
    powers = np.arange(5)
    lg = _LogGrid(t)
    a_reads = b_reads = None
    for n in range(n_start, n_end):
        nodes, w = theta.folded_rule(theta.ThetaLaw(b / n))
        s2 = np.sin(nodes) ** 2
        a_pow = s2**q
        b_pow = (1.0 - s2) ** q
        t_n = (a_pow + b_pow) @ w
        a_arg, b_arg = a_pow / t_n, b_pow / t_n
        ev = _outer_evaluator(lg, phi, series)
        a_reads, b_reads = lg.reads(a_arg, a_reads), lg.reads(b_arg, b_reads)
        new = ev(a_reads)
        new *= ev(b_reads)
        new = new @ w
        phi = _isotonic(new, f"at n={n}")
        # mix[j, l] = E[A^j B^l] under the rule
        mix = np.einsum(
            "i,ij,il->jl", w, np.power.outer(a_arg, powers), np.power.outer(b_arg, powers)
        )
        series = (1.0, -1.0) + tuple(
            float(sum(series[j] * series[k - j] * mix[j, k - j] for j in range(k + 1)))
            for k in (2, 3, 4)
        )
    return GridFunction(t=t, phi=phi, series=series)


def _small_angle_integral(p: float, e: float) -> float:
    """int_0^theta_switch x^p (sin x / x)^e / cos^2 x dx for p > -1, term by
    term over 1 + (1 - e/6) x^2 + (2/3 - e/6 + e^2/72 - e/180) x^4; the
    dropped terms are below 1e-17 relative at theta_switch = 1e-3."""
    c2 = 1.0 - e / 6.0
    c4 = 2.0 / 3.0 - e / 6.0 + e * e / 72.0 - e / 180.0
    x2 = _THETA_SWITCH**2
    return _THETA_SWITCH ** (p + 1.0) * (
        1.0 / (p + 1.0) + x2 * (c2 / (p + 3.0) + x2 * c4 / (p + 5.0))
    )


class _KernelPieces:
    """Per-q quadrature data for the stationary operator.

    Main region [theta_switch, pi/4]: :func:`theta.gauss_panels` on the raw
    integrand.  Below theta_switch the integrand is replaced by its
    analytic expansion; its four theta-integrals (one endpoint-singular)
    are taken in closed form by :func:`_small_angle_integral`.
    """

    def __init__(self, q: float):
        self.q = q
        a = 2.0 * q - 2.0
        self.g_sing = _small_angle_integral(a, a)
        self.g_adv = _small_angle_integral(0.0, -2.0)
        self.g_cross = _small_angle_integral(a + 2.0, a)
        self.g_quad = _small_angle_integral(2.0 * a + 2.0, 2.0 * a + 2.0)
        th, self.weights = theta.gauss_panels([_THETA_SWITCH], 32)
        s2 = np.sin(th) ** 2
        self.sin_pow = s2**q
        self.cos_pow = (1.0 - s2) ** q
        self.inv_s2c2 = 1.0 / (s2 * (1.0 - s2))
        self.T = analytics.T_of_q(q)

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


class _SeriesFit:
    """Least squares for the coefficients of t^len(head) .. t^7 in
    phi(t) - sum_k head[k] t^k over t_above < t <= _SERIES_FIT_T_MAX on
    nodes t.  The phi-free design is built once; each call fits one phi."""

    def __init__(self, t: np.ndarray, head: tuple[float, ...], t_above: float):
        self.mask = (t > t_above) & (t <= _SERIES_FIT_T_MAX)
        tm = t[self.mask]
        self.head_terms = tuple(c * tm**k for k, c in enumerate(head))
        self.a = np.vstack([tm**p for p in range(len(head), 8)]).T
        self.scale = np.linalg.norm(self.a, axis=0)
        self.scaled = self.a / self.scale

    def __call__(self, phi: np.ndarray) -> tuple[np.ndarray, float]:
        """The coefficients and the largest fit residual."""
        y = phi[self.mask]
        for term in self.head_terms:
            y = y - term
        c, *_ = np.linalg.lstsq(self.scaled, y, rcond=None)
        c = c / self.scale
        return c, float(np.max(np.abs(self.a @ c - y)))


class _StationarySolve:
    """One stationary solve at q from a start grid, and the phi-free
    constants that its residual evaluations share: the kernel pieces
    ``ker``, the nodes' :class:`_LogGrid` ``lg``, the sin and cos
    multipliers' :class:`_Reads` on it, the collar mask and the free nodes
    ``fidx`` of :func:`refine_stationary`, and the design of the collar's
    pinned series fit.  ``lg`` and the reads hold the table and the
    products that every evaluation writes over.  ``start`` is the start
    grid with its collar set (:func:`_set_collar`) and its nodes beyond
    the solve window at the floor 1e-300, where they stay.  A grid that is
    not uniform in ln t raises ValueError.
    """

    def __init__(self, q: float, grid: GridFunction):
        t = self.t = grid.t
        ker = self.ker = _kernel(q)
        lg = self.lg = _LogGrid(t)
        self.reads = lg.reads(ker.sin_pow), lg.reads(ker.cos_pow)
        self.collar = t <= _COLLAR_T_MAX
        self.fidx = np.where(~self.collar & (t <= _SOLVE_T_MAX))[0]
        self.collar_fit = _SeriesFit(t, (1.0, -1.0), _COLLAR_T_MAX)
        self.start = _set_collar(self, np.where(t > _SOLVE_T_MAX, 1e-300, grid.phi))

    def rebuilt(self, u: np.ndarray) -> GridFunction:
        """The start grid with free values u and its collar set."""
        phi = self.start.phi.copy()
        phi[self.fidx] = u
        return _set_collar(self, phi)

    def objective(self, u: np.ndarray) -> np.ndarray:
        """The residual at the free nodes as a function of their values:
        the function the Newton solve drives to zero."""
        return _residual_grid(self, self.rebuilt(u))[self.fidx]


def _residual_grid(solve: _StationarySolve, grid: GridFunction) -> np.ndarray:
    """Stationary residual at every node of ``grid`` (fixed-rule
    evaluation), a grid on the nodes of ``solve``.

    Only the spline table and what follows it depend on phi: the kernel
    pieces, the grid's constants and the multipliers' reads come from
    ``solve``, built once per solve.
    """
    ker = solve.ker
    sin_reads, cos_reads = solve.reads
    ev = _outer_evaluator(solve.lg, grid.phi, grid.series)
    tphip = _dlog_derivative(grid.phi, solve.lg.h)
    fab = ev(sin_reads)
    fab *= ev(cos_reads)
    fab -= grid.phi[:, None]
    fab *= ker.inv_s2c2[None, :]
    main = fab @ ker.weights
    m2 = 2.0 * grid.series[2]
    small = ker.small_part(grid.t, grid.phi, tphip, m2)
    return ker.T * tphip + 0.5 * (main + small)


def _banded_preconditioner(solve: _StationarySolve) -> LinearOperator:
    """Inverse of a banded approximation of the free-node Jacobian of
    :func:`_residual_grid` at the start grid of ``solve``: the
    preconditioner of one Newton solve of :func:`refine_stationary`.

    Exact parts: the :func:`_dlog_derivative` stencil times T(q) plus the
    t phi' coefficients of the small-angle part, and the diagonal terms
    -sum(w / sin^2 cos^2), -t g_sing and m2 t^2 g_quad / 2.  Approximate
    part: the kernel integral, linearized as fb dfa + fa dfb with the spline
    replaced by linear interpolation in ln t and entries more than _BAND
    nodes off the diagonal dropped.  On the log-uniform grid the argument
    t_i c_k lies ln(c_k)/h nodes from node i whatever i is, so the
    interpolation slots and weights depend on the angle node alone.

    Only the cos side enters: sin^{2q}u <= 2^{-q} puts every sin-side
    argument q ln 2 / h > _BAND + 1 nodes below its node on
    :func:`make_grid`'s grid for every q in (1/2, 1).  On a coarser grid
    dropping that side only weakens the preconditioner: it may cost more
    residual evaluations, but the equation solved does not change.

    The band is LU-factored once, by LAPACK gbtrf, and each inner iteration
    applies gbtrs: the two steps of the gbsv that
    ``solve_banded((_BAND, _BAND), ab, v)`` runs, so the result is that
    call's to the bit.  As there, a singular band raises LinAlgError and a
    non-finite band or vector ValueError.
    """
    ker, lg, fidx, grid = solve.ker, solve.lg, solve.fidx, solve.start
    h = lg.h
    tf = grid.t[fidx]
    ev = _outer_evaluator(lg, grid.phi, grid.series)
    coef = 0.5 * ker.weights * ker.inv_s2c2
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    dcoef = ker.T + 0.5 * ker.q * (tf * ker.g_cross - ker.g_adv)
    # rows[i, _BAND + d] is J[i, i + d]
    rows = np.zeros((fidx.size, 2 * _BAND + 1))
    rows[:, _BAND - 2 : _BAND + 3] = dcoef[:, None] * stencil
    rows[:, _BAND] -= np.sum(coef) + 0.5 * tf * ker.g_sing
    rows[:, _BAND] += grid.series[2] * 0.5 * tf * tf * ker.g_quad
    # the angle nodes whose cos-side argument lands within the band, with
    # their weights on offsets -_BAND.._BAND, times the sin factor
    lo, frac = _interval_offset(ker.cos_pow, h)
    w = np.zeros((lo.size, 2 * _BAND + 1))
    for off, share in ((lo, 1.0 - frac), (lo + 1, frac)):
        k = np.where(np.abs(off) <= _BAND)[0]
        w[k, off[k] + _BAND] += coef[k] * share[k]
    keep = np.any(w != 0.0, axis=1)
    rows += ev(solve.reads[0])[np.ix_(fidx, keep)] @ w[keep]
    # gbtrf reads J[i, i + d] at ab[2 _BAND - d, i + d], below _BAND rows
    # for its fill-in; columns i + d outside the free nodes are frozen
    # values and are dropped
    m = fidx.size
    ab = np.zeros((3 * _BAND + 1, m))
    for d in range(-_BAND, _BAND + 1):
        lo, hi = max(d, 0), m + min(d, 0)
        ab[2 * _BAND - d, lo:hi] = rows[lo - d : hi - d, _BAND + d]
    lu, piv, info = dgbtrf(np.asarray_chkfinite(ab), _BAND, _BAND, overwrite_ab=True)
    _lapack_info(info, "gbtrf")

    def inverse(v: np.ndarray) -> np.ndarray:
        x, info = dgbtrs(lu, _BAND, _BAND, np.asarray_chkfinite(v), piv)
        _lapack_info(info, "gbtrs")
        return x

    return LinearOperator((m, m), matvec=inverse, dtype=float)


def _set_collar(solve: _StationarySolve, phi: np.ndarray) -> GridFunction:
    """The grid of ``phi`` on the nodes of ``solve``, with its collar nodes
    (set in ``phi`` itself) and series head set to the series fit with the
    mean pinned at one (the scale anchor), from the window's nodes above
    the collar."""
    c, _ = solve.collar_fit(phi)
    series = (1.0, -1.0, float(c[0]), float(c[1]), float(c[2]))
    phi[solve.collar] = _series_head(series, solve.t[solve.collar])
    return GridFunction(t=solve.t, phi=phi, series=series)


def refine_stationary(q: float, grid: GridFunction) -> GridFunction:
    """Solve the stationary equation on the grid by Newton-Krylov.

    The finite-scale recursion approaches the limit only like a fractional
    power of the scale, which strands its residual around 1e-4; solving the
    stationary equation directly removes that floor.  The scale-invariance
    mode (t -> ct reparametrizations) is pinned by anchoring the collar
    t <= 4e-3 to a mean-one series fitted from the grid itself; the
    objective of the one Newton solve rebuilds the collar and the series
    head from the free values (:func:`_set_collar`, one fit over
    4e-3 < t <= 0.8) before each residual evaluation, so the solution is
    self-consistent.  Nodes beyond t = 120 carry no weight in the kernel
    below t = 60; the derivative stencil at the last free nodes reads two
    of them, so they start and stay at :func:`_isotonic`'s floor 1e-300.

    The solve is preconditioned by :func:`_banded_preconditioner`, built
    and LU-factored once from the starting grid: the derivative stencil
    and the diagonal terms of the Jacobian are exact, the kernel integral
    is linearized with linear interpolation in ln t and kept within three
    nodes of the diagonal.  The residual, its finite-difference Jacobian
    products and the f_tol 1e-11 stopping rule are those of the
    unpreconditioned solve; the preconditioner and a fixed inner tolerance
    of 1e-3 bring the residual evaluations at q = 0.75 after one recursion
    step to 20.  Each evaluation recomputes only what depends on phi (the
    collar fit, the spline table and the kernel sums), into the table and
    products held by the solve's :class:`_StationarySolve`, where the
    grid's and the kernel's constants are built once: an evaluation takes
    no fresh pages from the heap.
    """
    _check_q_below_one(q)
    solve = _StationarySolve(q, grid)
    try:
        sol = newton_krylov(
            solve.objective,
            solve.start.phi[solve.fidx],
            f_tol=1e-11,
            maxiter=80,
            inner_M=_banded_preconditioner(solve),
            inner_rtol=_INNER_RTOL,
        )
    except NoConvergence as exc:
        raise ContractViolation(f"stationary solve failed: {exc}") from exc
    solved = solve.rebuilt(sol)
    phi = _isotonic(solved.phi, "after the stationary solve")
    out = GridFunction(t=solved.t, phi=phi, series=solved.series)
    out.check_invariants()
    return out


def stationary_residual(q: float, grid: GridFunction, t_point: float) -> float:
    """Signed residual of the stationary equation at one t.

    Independent of the fixed-rule path used by the solver: the derivative
    comes from a five-point centered difference in ln t and the kernel
    integral above the switch angle from adaptive Gauss-Kronrod quadrature.
    """
    _check_q_below_one(q)
    if not grid.t_min <= t_point <= grid.t_max:
        raise ValueError(
            f"t_point must lie in the grid [{grid.t_min}, {grid.t_max}], got {t_point}"
        )
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
    return ker.T * tphip + 0.5 * (val + small)


def moments_from_phi(grid: GridFunction, kmax: int = 4) -> tuple[float, ...]:
    """Estimate M_1..M_kmax from the small-t expansion of the grid.

    Unconstrained least squares on t..t^7 (degrees above kmax are nuisance
    terms absorbing series truncation); the estimated mean M_1 is a real
    diagnostic of mean preservation, not pinned.
    """
    _check_int("kmax", kmax, 1, 4)
    c, resid = _SeriesFit(grid.t, (1.0,), 0.0)(grid.phi)
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

    With ``refine`` the stationary solve starts from one recursion step
    (n = 1 to 2), whatever ``n_schedule``: its solution does not depend on
    where it starts.  Without ``refine`` the result is the finite-scale
    recursion run from n = 1 to ``n_schedule``.
    """
    _check_count("n_schedule", n_schedule)
    if not isinstance(refine, (bool, np.bool_)):
        raise ValueError(f"refine must be a bool, got {refine!r}")
    grid = make_grid(init)
    if not refine:
        return iterate_phi(q, b, 1, n_schedule, grid)
    # One step, not none: without it the solve takes up to 12 more residual
    # evaluations at b = 0.5 (42 against 30, q = 0.95 exponential), and the
    # step is the route's only theta.folded_rule call, which the benchmark
    # tests require.
    grid = iterate_phi(q, b, 1, 2, grid)
    return refine_stationary(q, grid)
