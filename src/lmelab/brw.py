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

A step takes the arrays it evolves and the generators it draws from, and
returns new arrays, as every pool step does (``engine.step`` for lme): the
cascade M, the derivative M and D, the maximum X_max.  :class:`BrwPool` is
only a run's final record.  A step never writes to its input arrays, so it
holds the old and the new of each, 8 bytes x replicas each: 16 MiB for a
cascade or maximum step at 2^20 replicas, 32 MiB for a derivative step.
Each lane adds a few chunk-sized buffers, in which the kernels compute.

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

from .engine import _BLOCKS, _check_blocks, block_mean_se, map_chunks, mix_pairs, ols
from .errors import _check_ge0
from .streams import DOMAIN_BRW, _check_seed, derive_stream

__all__ = [
    "BETA_C",
    "BrwParams",
    "BrwPool",
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
        raise ValueError(f"mode must be one of {', '.join(_MODES)}, got {mode!r}")


def _check_depth(depth: int) -> None:
    if depth < 1 or depth > _MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{_MAX_DEPTH}, got {depth}")


def _check_replicas(replicas: int) -> None:
    _check_blocks("replicas", replicas, _BLOCKS)


@dataclass(frozen=True)
class BrwParams:
    """One brw run of ``replicas`` in ``blocks`` independent replica blocks;
    ``blocks`` is the fixed ``engine._BLOCKS``, not a constructor argument.

    ``beta`` is finite and >= 0, and only the cascade reads it: the
    derivative runs at ``BETA_C``, and the maximum recursion takes no beta.
    """

    beta: float
    depth: int
    replicas: int = 1_000_000
    seed: int = 0
    blocks: ClassVar[int] = _BLOCKS

    def __post_init__(self):
        _check_ge0("beta", self.beta)
        _check_depth(self.depth)
        _check_replicas(self.replicas)
        _check_seed(self.seed)


@dataclass
class BrwPool:
    """A run's final record: the replica arrays its mode evolved, at depth
    ``n``.  The cascade sets ``M_values``, the derivative ``M_values`` and
    ``D_values``, the maximum ``X_max_values``; the others are None.
    """

    n: int
    M_values: np.ndarray | None = None
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


def _block_rngs(params: BrwParams, step_index: int):
    return [
        derive_stream(params.seed, (DOMAIN_BRW, step_index, k))
        for k in range(_BLOCKS)
    ]


# The derivative and max kernels compute in their chunk's buffers as
# engine.mix_pairs does, for the reasons it gives, in the operation order
# of the docstring formula.
def _weight(z: np.ndarray, beta: float, shift: float) -> np.ndarray:
    """(1/2) e^{beta z + shift}, computed in z."""
    z *= beta
    z += shift
    np.exp(z, out=z)
    z *= 0.5
    return z


def step_cascade(m: np.ndarray, beta: float, rngs) -> np.ndarray:
    """M' = (1/2) e^{beta V1 - beta^2/2} M[i] + (1/2) e^{beta V2 - beta^2/2} M[j],
    parents resampled with replacement within each replica block."""
    shift = -0.5 * beta * beta
    out = np.empty_like(m)

    def mix(sl, i, j, rng):
        a1 = _weight(rng.standard_normal(i.size), beta, shift)
        a2 = _weight(rng.standard_normal(i.size), beta, shift)
        mix_pairs(out[sl], m, i, j, a1, a2)

    map_chunks(m.size, rngs, mix)
    return out


def step_derivative(m: np.ndarray, d: np.ndarray, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Joint step of (M, D) at beta_c with shared draws:
    D' = sum_i A_i [(beta_c - V_i) M^(i) + D^(i)], A_i the cascade weights.
    Sharing the normals and the resampled indices between the M and D
    updates is what keeps the pair a sample of the joint law."""
    shift = -0.5 * BETA_C * BETA_C
    out_m, out_d = np.empty_like(m), np.empty_like(d)

    def mix(sl, i, j, rng):
        v1 = rng.standard_normal(i.size)
        v2 = rng.standard_normal(i.size)
        a1 = _weight(v1.copy(), BETA_C, shift)
        a2 = _weight(v2.copy(), BETA_C, shift)
        om, od = out_m[sl], out_d[sl]
        # v1 <- a1 ((beta_c - v1) M[i] + D[i]), om <- a1 M[i]
        np.subtract(BETA_C, v1, out=v1)
        np.take(m, i, out=om, mode="clip")
        v1 *= om
        om *= a1
        np.take(d, i, out=od, mode="clip")
        v1 += od
        v1 *= a1
        # v2 <- a2 ((beta_c - v2) M[j] + D[j]), om += a2 M[j]
        np.subtract(BETA_C, v2, out=v2)
        np.take(m, j, out=a1, mode="clip")
        v2 *= a1
        a1 *= a2
        om += a1
        np.take(d, j, out=od, mode="clip")
        v2 += od
        v2 *= a2
        np.add(v1, v2, out=od)

    map_chunks(m.size, rngs, mix)
    return out_m, out_d


def step_max(x: np.ndarray, rngs) -> np.ndarray:
    """X' = max(V1 + X[i], V2 + X[j])."""
    out = np.empty_like(x)

    def mix(sl, i, j, rng):
        x1 = rng.standard_normal(i.size)
        x2 = rng.standard_normal(i.size)
        o = out[sl]
        np.take(x, i, out=o, mode="clip")
        x1 += o
        np.take(x, j, out=o, mode="clip")
        x2 += o
        np.maximum(x1, x2, out=o)

    map_chunks(x.size, rngs, mix)
    return out


def run_cascade(params: BrwParams) -> dict:
    """Cascade to the requested depth; per-depth mean, SE, median, E[M^2]."""
    m = np.ones(params.replicas)
    rec = {"n": [], "mean": [], "se": [], "median": [], "m2": [], "m2_se": []}
    for n in range(params.depth + 1):
        if n:
            m = step_cascade(m, params.beta, _block_rngs(params, n - 1))
        mean, se = block_mean_se(m)
        rec["n"].append(n)
        rec["mean"].append(mean)
        rec["se"].append(se)
        rec["median"].append(_median(m))
        m2, m2_se = block_mean_se(m**2)
        rec["m2"].append(m2)
        rec["m2_se"].append(m2_se)
    rec["final_pool"] = BrwPool(n=params.depth, M_values=m)
    return rec


def run_derivative(params: BrwParams) -> dict:
    """Paired (M, D) trajectory at beta_c: D has mean zero at every depth
    and an almost-surely positive limit visible through its median.  The
    run is at ``BETA_C`` whatever ``params.beta`` holds."""
    m, d = np.ones(params.replicas), np.zeros(params.replicas)
    rec = {"n": [], "d_mean": [], "d_se": [], "d_median": [], "m_mean": [], "m_se": []}
    for n in range(1, params.depth + 1):
        m, d = step_derivative(m, d, _block_rngs(params, n - 1))
        d_mean, d_se = block_mean_se(d)
        m_mean, m_se = block_mean_se(m)
        rec["n"].append(n)
        rec["d_mean"].append(d_mean)
        rec["d_se"].append(d_se)
        rec["d_median"].append(_median(d))
        rec["m_mean"].append(m_mean)
        rec["m_se"].append(m_se)
    rec["final_pool"] = BrwPool(n=params.depth, M_values=m, D_values=d)
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

    x = np.zeros(params.replicas)
    ns, medians = [], []
    for n in range(1, params.depth + 1):
        x = step_max(x, _block_rngs(params, n - 1))
        if n >= 10:
            ns.append(n)
            medians.append(_median(x))
    ns_arr = np.array(ns, dtype=float)
    med = np.array(medians)
    design = np.vstack([np.ones_like(ns_arr), ns_arr, np.log(ns_arr)]).T
    design2 = np.vstack([np.ones_like(ns_arr), np.log(ns_arr)]).T
    return {
        "n": ns,
        "median": medians,
        "slope": coefficient(design, med),
        "log_coefficient": coefficient(design2, med - BETA_C * ns_arr),
        "final_pool": BrwPool(n=params.depth, X_max_values=x),
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
