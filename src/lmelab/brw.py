"""Gaussian branching random walk calibration suite.

The binary-tree partition recursion Z' = e^{bV1} Z1 + e^{bV2} Z2 with
independent standard normals V is the exactly solved reference model for
the pool machinery: the normalized variable M = Z / E[Z] is a mean-one
martingale whose phase structure is classical, with critical inverse
temperature beta_c = sqrt(2 log 2):

* beta < beta_c: M converges to a positive limit with E[M^p] finite
  exactly for p < beta_c^2/beta^2;
* beta >= beta_c: M -> 0 in law; at beta_c the paired derivative variable
  carries the nontrivial limit;
* the maximum of the walk grows like beta_c n - (3/(2 beta_c)) log n.

Everything here runs both as a resampling pool (any depth) and as an
explicit 2^depth-leaf tree (depth <= 20), the latter serving as the
small-depth oracle for the former.

A pool step derives one stream per replica block on the calling thread
and hands its loop body to ``engine.map_chunks``, which runs the blocks on
all usable cores.  The body calls only numpy and touches only its block's
generator and output slice, so for a fixed seed the output is
bit-identical to a one-thread run.

The runs record a median of the pool at every depth (of M, of D, and of
the maximum that the centering fit uses).  ``_median`` takes it from one
single-kth ``np.partition`` and at most two scans, rather than ``np.median``,
whose extra kths (the lower middle and its NaN check at -1) send numpy's
float64 partition from its AVX-512 select kernel to the generic
introselect.  At 2^20 values on a 2-core AVX-512 host with numpy 2.4:
``np.median`` 17-20 ms, the helper 2.5-2.7 ms.  The gain depends on
numpy taking that AVX-512 select path on the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import _BLOCKS, block_mean_se, map_chunks, ols
from .streams import DOMAIN_BRW, derive_stream

__all__ = [
    "BETA_C",
    "BrwParams",
    "BrwPool",
    "init_pool",
    "step_cascade",
    "step_derivative",
    "step_max",
    "run_cascade",
    "run_derivative",
    "run_max",
    "second_moment_recursion",
    "tree_samples",
]

#: critical inverse temperature sqrt(2 ln 2)
BETA_C = 1.1774100225154747

_MAX_DEPTH = 40
# the simulations a brw config selects with its ``mode`` key, one per
# run_* entry point
_MODES = ("cascade", "derivative", "max")
_TREE_DEPTH_CAP = 20


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; use one of {', '.join(_MODES)}")


def _check_depth(depth: int) -> None:
    if depth < 1 or depth > _MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{_MAX_DEPTH}, got {depth}")


def _check_replicas(replicas: int) -> None:
    if replicas < _BLOCKS or replicas % _BLOCKS != 0:
        raise ValueError(f"replicas must be a positive multiple of {_BLOCKS}, got {replicas}")


@dataclass(frozen=True)
class BrwParams:
    """One brw run of ``replicas`` in ``blocks`` independent replica blocks;
    ``blocks`` is the fixed ``engine._BLOCKS``, not a constructor argument.

    Only the cascade reads ``beta``: the derivative runs at ``BETA_C``, and
    the maximum recursion takes no beta.
    """

    beta: float
    depth: int
    replicas: int = 1_000_000
    seed: int = 0
    blocks: ClassVar[int] = _BLOCKS

    def __post_init__(self):
        _check_depth(self.depth)
        _check_replicas(self.replicas)


@dataclass
class BrwPool:
    """Replica ensemble; D and X_max ride along only when requested."""

    n: int
    M_values: np.ndarray
    D_values: np.ndarray | None = None
    X_max_values: np.ndarray | None = None


def _median(x: np.ndarray) -> float:
    """``float(np.median(x))`` for a non-empty 1-d float array, NaN if x
    holds a NaN.

    After a partition at k = size // 2, part[k] is the upper middle order
    statistic, part[:k].max() the lower one, and every NaN lies in
    part[k:] (partition sorts NaN last).  np.median averages the two
    middles as (lo + hi) / 2, as here, so the result is the same bit for
    bit, except that a zero median may take the other sign when zeros of
    both signs meet at the middle.
    """
    k = x.size // 2
    part = np.partition(x, k)
    if np.isnan(part[k:].max()):
        return math.nan
    if x.size % 2:
        return float(part[k])
    return float((part[:k].max() + part[k]) / 2)


def init_pool(params: BrwParams, *, derivative: bool = False, track_max: bool = False) -> BrwPool:
    p = params.replicas
    return BrwPool(
        n=0,
        M_values=np.ones(p),
        D_values=np.zeros(p) if derivative else None,
        X_max_values=np.zeros(p) if track_max else None,
    )


def _block_rngs(params: BrwParams, step_index: int):
    return [
        derive_stream(params.seed, (DOMAIN_BRW, step_index, k))
        for k in range(_BLOCKS)
    ]


def step_cascade(pool: BrwPool, beta: float, rngs) -> BrwPool:
    """M' = (1/2) e^{beta V1 - beta^2/2} M[i] + (1/2) e^{beta V2 - beta^2/2} M[j],
    parents resampled with replacement within each replica block."""
    shift = -0.5 * beta * beta
    m = pool.M_values
    out = np.empty_like(m)

    def mix(sl, i, j, rng):
        a1 = 0.5 * np.exp(beta * rng.standard_normal(i.size) + shift)
        a2 = 0.5 * np.exp(beta * rng.standard_normal(i.size) + shift)
        out[sl] = a1 * m[i] + a2 * m[j]

    map_chunks(m.size, rngs, mix)
    return BrwPool(n=pool.n + 1, M_values=out)


def step_derivative(pool: BrwPool, rngs) -> BrwPool:
    """Joint step of (M, D) at beta_c with shared draws:
    D' = sum_i A_i [(beta_c - V_i) M^(i) + D^(i)], A_i the cascade weights.
    Sharing the normals and the resampled indices between the M and D
    updates is what keeps the pair a sample of the joint law."""
    if pool.D_values is None:
        raise ValueError("pool does not carry derivative values")
    shift = -0.5 * BETA_C * BETA_C
    m, d = pool.M_values, pool.D_values
    out_m, out_d = np.empty_like(m), np.empty_like(d)

    def mix(sl, i, j, rng):
        v1 = rng.standard_normal(i.size)
        v2 = rng.standard_normal(i.size)
        a1 = 0.5 * np.exp(BETA_C * v1 + shift)
        a2 = 0.5 * np.exp(BETA_C * v2 + shift)
        mi, mj = m[i], m[j]
        out_m[sl] = a1 * mi + a2 * mj
        out_d[sl] = a1 * ((BETA_C - v1) * mi + d[i]) + a2 * ((BETA_C - v2) * mj + d[j])

    map_chunks(m.size, rngs, mix)
    return BrwPool(n=pool.n + 1, M_values=out_m, D_values=out_d)


def step_max(pool: BrwPool, rngs) -> BrwPool:
    """X' = max(V1 + X[i], V2 + X[j])."""
    if pool.X_max_values is None:
        raise ValueError("pool does not carry maximum values")
    x = pool.X_max_values
    out = np.empty_like(x)

    def mix(sl, i, j, rng):
        x1 = rng.standard_normal(i.size) + x[i]
        x2 = rng.standard_normal(i.size) + x[j]
        np.maximum(x1, x2, out=out[sl])

    map_chunks(x.size, rngs, mix)
    return BrwPool(n=pool.n + 1, M_values=pool.M_values, X_max_values=out)


def run_cascade(params: BrwParams) -> dict:
    """Cascade to the requested depth; per-depth mean, SE, median, E[M^2]."""
    pool = init_pool(params)
    rec = {"n": [], "mean": [], "se": [], "median": [], "m2": [], "m2_se": []}

    def note(pool):
        mean, se = block_mean_se(pool.M_values)
        rec["n"].append(pool.n)
        rec["mean"].append(mean)
        rec["se"].append(se)
        rec["median"].append(_median(pool.M_values))
        m2, m2_se = block_mean_se(pool.M_values**2)
        rec["m2"].append(m2)
        rec["m2_se"].append(m2_se)

    note(pool)
    for step_index in range(params.depth):
        pool = step_cascade(pool, params.beta, _block_rngs(params, step_index))
        note(pool)
    rec["final_pool"] = pool
    return rec


def run_derivative(params: BrwParams) -> dict:
    """Paired (M, D) trajectory at beta_c: D has mean zero at every depth
    and an almost-surely positive limit visible through its median.  The
    run is at ``BETA_C`` whatever ``params.beta`` holds."""
    pool = init_pool(params, derivative=True)
    rec = {"n": [], "d_mean": [], "d_se": [], "d_median": [], "m_mean": [], "m_se": []}
    for step_index in range(params.depth):
        pool = step_derivative(pool, _block_rngs(params, step_index))
        d_mean, d_se = block_mean_se(pool.D_values)
        m_mean, m_se = block_mean_se(pool.M_values)
        rec["n"].append(pool.n)
        rec["d_mean"].append(d_mean)
        rec["d_se"].append(d_se)
        rec["d_median"].append(_median(pool.D_values))
        rec["m_mean"].append(m_mean)
        rec["m_se"].append(m_se)
    rec["final_pool"] = pool
    return rec


def run_max(params: BrwParams) -> dict:
    """Maximum recursion with the two-stage centering fit over depths
    n >= 10, past the small-n transient.

    Stage one fits median(X_max) ~ A + B n + C ln n jointly (B estimates
    beta_c); stage two subtracts the exact beta_c n and fits the log term
    alone (C estimates -3/(2 beta_c)).  A stage with fewer depths than
    parameters (depth < 12 for stage one, < 11 for stage two) has no fit,
    and its estimate is NaN.  The recursion takes no beta, so
    ``params.beta`` is not read."""

    def coefficient(design, y):
        coef, se, _ = ols(design, y)
        return float(coef[1]) if np.isfinite(se).all() else math.nan

    pool = init_pool(params, track_max=True)
    ns, medians = [], []
    for step_index in range(params.depth):
        pool = step_max(pool, _block_rngs(params, step_index))
        if pool.n >= 10:
            ns.append(pool.n)
            medians.append(_median(pool.X_max_values))
    ns_arr = np.array(ns, dtype=float)
    med = np.array(medians)
    design = np.vstack([np.ones_like(ns_arr), ns_arr, np.log(ns_arr)]).T
    design2 = np.vstack([np.ones_like(ns_arr), np.log(ns_arr)]).T
    return {
        "n": ns,
        "median": medians,
        "slope": coefficient(design, med),
        "log_coefficient": coefficient(design2, med - BETA_C * ns_arr),
        "final_pool": pool,
    }


def second_moment_recursion(beta: float, depth: int) -> list[float]:
    """Exact E[M_n^2] = (e^{beta^2}/2) E[M_{n-1}^2] + 1/2 from M_0 = 1.

    Algebraic oracle for the pool: converges to 1/(2 - e^{beta^2}) iff
    beta^2 < ln 2, i.e. beta < beta_c/sqrt(2), and grows geometrically
    otherwise.
    """
    vals = [1.0]
    g = math.exp(beta * beta) / 2.0
    for _ in range(depth):
        vals.append(g * vals[-1] + 0.5)
    return vals


def tree_samples(
    beta: float,
    depth: int,
    n_trees: int,
    rng: np.random.Generator,
    *,
    derivative: bool = False,
    track_max: bool = False,
) -> dict:
    """Explicit full binary trees: exact joint samples of (M, D, max X).

    Memory is n_trees * 2^depth floats; capped at depth 20.  This is the
    independent oracle the resampling pool is checked against at small
    depth.
    """
    if depth > _TREE_DEPTH_CAP:
        raise ValueError(f"explicit trees capped at depth {_TREE_DEPTH_CAP}")
    x = np.zeros((n_trees, 1))
    for _ in range(depth):
        v1 = rng.standard_normal(x.shape)
        v2 = rng.standard_normal(x.shape)
        x = np.concatenate([x + v1, x + v2], axis=1)
    weights = np.exp(beta * x - (0.5 * beta * beta + math.log(2.0)) * depth)
    out = {"M": weights.sum(axis=1)}
    if derivative:
        wc = np.exp(BETA_C * x - (0.5 * BETA_C * BETA_C + math.log(2.0)) * depth)
        out["D"] = ((BETA_C * depth - x) * wc).sum(axis=1)
    if track_max:
        out["X_max"] = x.max(axis=1)
    return out
