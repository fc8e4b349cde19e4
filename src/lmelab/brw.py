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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .engine import block_mean_se, ols, parent_pairs
from .streams import DOMAIN_BRW, derive_stream

__all__ = [
    "BETA_C",
    "BrwParams",
    "BrwPool",
    "Verdict",
    "init_pool",
    "step_cascade",
    "step_derivative",
    "step_max",
    "run_cascade",
    "run_derivative",
    "run_max",
    "moment_blowup_check",
    "second_moment_recursion",
    "tree_samples",
]

#: critical inverse temperature sqrt(2 ln 2)
BETA_C = 1.1774100225154747

_MAX_DEPTH = 40
_BLOCKS = 32
# the simulations a brw config selects with its ``mode`` key, one per
# run_* entry point
_MODES = ("cascade", "derivative", "max")
_TREE_DEPTH_CAP = 20
# moment_blowup_check lets the Hill index alone call a verdict only when it
# lies this far from p; the band sits inside the 0.2 contract margin
# around the threshold beta_c^2/beta^2.
_TAIL_INDEX_BAND = 0.15


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; use one of {', '.join(_MODES)}")


def _check_depth(depth: int) -> None:
    if depth < 1 or depth > _MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{_MAX_DEPTH}, got {depth}")


def _check_replicas(replicas: int, blocks: int = _BLOCKS) -> None:
    if replicas < blocks or replicas % blocks != 0:
        raise ValueError(f"replicas must be a positive multiple of {blocks}, got {replicas}")


@dataclass(frozen=True)
class BrwParams:
    beta: float
    depth: int
    replicas: int = 1_000_000
    seed: int = 0
    blocks: int = _BLOCKS

    def __post_init__(self):
        _check_depth(self.depth)
        _check_replicas(self.replicas, self.blocks)


@dataclass
class BrwPool:
    """Replica ensemble; D and X_max ride along only when requested."""

    n: int
    M_values: np.ndarray
    blocks: int
    D_values: np.ndarray | None = None
    X_max_values: np.ndarray | None = None


class Verdict(Enum):
    STABLE = "STABLE"
    GROWING = "GROWING"
    INCONCLUSIVE = "INCONCLUSIVE"


def init_pool(params: BrwParams, *, derivative: bool = False, track_max: bool = False) -> BrwPool:
    p = params.replicas
    return BrwPool(
        n=0,
        M_values=np.ones(p),
        blocks=params.blocks,
        D_values=np.zeros(p) if derivative else None,
        X_max_values=np.zeros(p) if track_max else None,
    )


def _block_rngs(params: BrwParams, step_index: int):
    return [
        derive_stream(params.seed, (DOMAIN_BRW, step_index, k))
        for k in range(params.blocks)
    ]


def step_cascade(pool: BrwPool, beta: float, rngs) -> BrwPool:
    """M' = (1/2) e^{beta V1 - beta^2/2} M[i] + (1/2) e^{beta V2 - beta^2/2} M[j],
    parents resampled with replacement within each replica block."""
    shift = -0.5 * beta * beta
    m = pool.M_values
    out = np.empty_like(m)
    for sl, i, j, rng in parent_pairs(m.size, pool.blocks, rngs):
        a1 = 0.5 * np.exp(beta * rng.standard_normal(i.size) + shift)
        a2 = 0.5 * np.exp(beta * rng.standard_normal(i.size) + shift)
        out[sl] = a1 * m[i] + a2 * m[j]
    return BrwPool(n=pool.n + 1, M_values=out, blocks=pool.blocks)


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
    for sl, i, j, rng in parent_pairs(m.size, pool.blocks, rngs):
        v1 = rng.standard_normal(i.size)
        v2 = rng.standard_normal(i.size)
        a1 = 0.5 * np.exp(BETA_C * v1 + shift)
        a2 = 0.5 * np.exp(BETA_C * v2 + shift)
        out_m[sl] = a1 * m[i] + a2 * m[j]
        out_d[sl] = (
            a1 * ((BETA_C - v1) * m[i] + d[i])
            + a2 * ((BETA_C - v2) * m[j] + d[j])
        )
    return BrwPool(n=pool.n + 1, M_values=out_m, blocks=pool.blocks, D_values=out_d)


def step_max(pool: BrwPool, rngs) -> BrwPool:
    """X' = max(V1 + X[i], V2 + X[j])."""
    if pool.X_max_values is None:
        raise ValueError("pool does not carry maximum values")
    x = pool.X_max_values
    out = np.empty_like(x)
    for sl, i, j, rng in parent_pairs(x.size, pool.blocks, rngs):
        x1 = rng.standard_normal(i.size) + x[i]
        x2 = rng.standard_normal(i.size) + x[j]
        np.maximum(x1, x2, out=out[sl])
    return BrwPool(
        n=pool.n + 1,
        M_values=pool.M_values,
        blocks=pool.blocks,
        X_max_values=out,
    )


def run_cascade(params: BrwParams) -> dict:
    """Cascade to the requested depth; per-depth mean, SE, median, E[M^2]."""
    pool = init_pool(params)
    rec = {"n": [], "mean": [], "se": [], "median": [], "m2": [], "m2_se": []}

    def note(pool):
        _, mean, se = block_mean_se(pool.M_values, pool.blocks)
        rec["n"].append(pool.n)
        rec["mean"].append(mean)
        rec["se"].append(se)
        rec["median"].append(float(np.median(pool.M_values)))
        _, m2, m2_se = block_mean_se(pool.M_values**2, pool.blocks)
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
    and an almost-surely positive limit visible through its median."""
    pool = init_pool(params, derivative=True)
    rec = {"n": [], "d_mean": [], "d_se": [], "d_median": [], "m_mean": [], "m_se": []}
    for step_index in range(params.depth):
        pool = step_derivative(pool, _block_rngs(params, step_index))
        _, d_mean, d_se = block_mean_se(pool.D_values, pool.blocks)
        _, m_mean, m_se = block_mean_se(pool.M_values, pool.blocks)
        rec["n"].append(pool.n)
        rec["d_mean"].append(d_mean)
        rec["d_se"].append(d_se)
        rec["d_median"].append(float(np.median(pool.D_values)))
        rec["m_mean"].append(m_mean)
        rec["m_se"].append(m_se)
    rec["final_pool"] = pool
    return rec


def run_max(params: BrwParams) -> dict:
    """Maximum recursion with the two-stage centering fit over depths
    n >= 10, past the small-n transient.

    Stage one fits median(X_max) ~ A + B n + C ln n jointly (B estimates
    beta_c); stage two subtracts the exact beta_c n and fits the log term
    alone (C estimates -3/(2 beta_c))."""
    pool = init_pool(params, track_max=True)
    ns, medians = [], []
    for step_index in range(params.depth):
        pool = step_max(pool, _block_rngs(params, step_index))
        if pool.n >= 10:
            ns.append(pool.n)
            medians.append(float(np.median(pool.X_max_values)))
    ns_arr = np.array(ns, dtype=float)
    med = np.array(medians)
    design = np.vstack([np.ones_like(ns_arr), ns_arr, np.log(ns_arr)]).T
    coef, _, _ = ols(design, med)
    design2 = np.vstack([np.ones_like(ns_arr), np.log(ns_arr)]).T
    coef2, _, _ = ols(design2, med - BETA_C * ns_arr)
    return {
        "n": ns,
        "median": medians,
        "slope": float(coef[1]),
        "log_coefficient": float(coef2[1]),
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


def hill_tail_index(sample: np.ndarray) -> float:
    """Hill estimator of the power-law tail index from the top k = 1000
    order statistics."""
    k = 1000
    if k + 1 >= sample.size:
        raise ValueError("sample must hold more than 1001 values")
    x = np.partition(sample, sample.size - k - 1)[-(k + 1):]
    x = np.sort(x)[::-1]
    return float(1.0 / np.mean(np.log(x[:k] / x[k])))


def moment_blowup_check(
    beta: float,
    p: float,
    *,
    replicas: int = 1_000_000,
    seed: int = 0,
) -> Verdict:
    """Decide whether E[M^p] diverges with depth, against the classical
    p < beta_c^2/beta^2 threshold.

    Two signals combine.  (1) The direct one: the empirical p-th moment
    doubling between depths 20 and 40.  Doubling is conclusive when it
    happens, but on the divergent side with tail index below 2 the growth
    of the true moment is carried by events rarer than 1/replicas, and the
    empirical moment becomes a max-dominated draw with no depth trend, so
    lack of doubling proves nothing there.  (2) The decidable one: the
    Hill tail-index estimate of the depth-40 sample; the p-th moment of
    the limit law is finite iff p is below the tail index, and at the
    contract margins (|p - beta_c^2/beta^2| >= 0.2, replicas ~ 1e6) the
    index is estimated sharply enough to call the verdict.
    """
    if not 0.0 < beta < BETA_C:
        raise ValueError(f"blowup check requires beta in (0, beta_c), got {beta}")
    params = BrwParams(beta=beta, depth=40, replicas=replicas, seed=seed)
    pool = init_pool(params)
    m_lo = None
    for step_index in range(params.depth):
        pool = step_cascade(pool, beta, _block_rngs(params, step_index))
        if pool.n == 20:
            m_lo = float(np.mean(pool.M_values**p))
    m_hi = float(np.mean(pool.M_values**p))
    ratio = m_hi / m_lo
    index = hill_tail_index(pool.M_values)
    if ratio >= 2.0 and index < p:
        return Verdict.GROWING
    if index < p - _TAIL_INDEX_BAND:
        return Verdict.GROWING
    if ratio <= 1.5 and index > p + _TAIL_INDEX_BAND:
        return Verdict.STABLE
    return Verdict.INCONCLUSIVE


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
