"""Monte Carlo pool evolution of the normalized ratio.

The recursion for the raw quantity multiplies its mean by
T_n(q) = E[sin^{2q} th_n + cos^{2q} th_n] each scale; dividing every update
by the exact T_n (quadrature, not its small-eps asymptote) keeps the pool's
law normalized to mean one at every n and accumulates log E into logZ.

The pool is partitioned into independent replica blocks: each block
resamples parents only within itself.  One keyed stream per scale feeds
every block, each block drawing from its own consecutive, disjoint stretch
of it, so blocks stay independent.  The law of every sample is identical
to resampling from one big pool, but block independence is what makes
jackknife standard errors honest: a single resampled pool's mean performs
an unavoidable random walk of width ~ sqrt(n/pool) which slot-block
jackknife cannot see, whereas independent replicas expose it as
cross-block spread.  Moment estimates are the raw block means of the
pool's powers, unbiased because the pool is normalized by the
deterministic T_n.

Every pool step, here and in ``brw``, takes the arrays it evolves and the
generators it draws from and returns new arrays; the run owns the scale
loop and the streams.  ``map_chunks`` walks the chunks of every step.
Given one generator, as ``run`` passes, it walks the chunks in order on
the calling thread and starts no thread.  Given one generator per block,
as brw keeps on purpose, it spreads the blocks over the usable cores: each
generator's chunks stay in order on one thread and write only their own
slice of the output, so the result is bit-identical in whatever order the
blocks run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import theta
from .errors import _check_count, _check_distinct, _check_gt0, _check_q
from .streams import DOMAIN_LME, _check_seed, derive_stream

__all__ = [
    "LmeParams",
    "RunRecord",
    "PaleyZygmund",
    "exact_Tn",
    "map_chunks",
    "mix_pairs",
    "block_mean_se",
    "step",
    "run",
    "paley_zygmund_bounds",
    "ols",
]

_tn_cache: dict[tuple[float, float], float] = {}
# Independent replica blocks of every lme and brw pool; pool sizes are
# multiples of it, and the samples per block follow from the pool size.
_BLOCKS = 32
# Samples per chunk of the parent and angle draws: at 2^13 each int64 index
# or float64 draw array is 64 KiB and stays in L2 while a chunk is mixed.
# Sized by time and peak RSS alone, on a 2-core host with the lme
# benchmark's pool (32768 samples in 32 blocks, 199 steps, T_n cached):
# 67-72 ns/sample at 2^10 (one block per chunk), 48-55 at 2^11, 44-50 at
# 2^12, 38-43 at 2^13, 50-54 at 2^14 and 57-62 at 2^15, with peak RSS
# rising from 80.3 to 82.8 MiB over that range.  Blocks larger than a chunk
# are drawn one at a time: a whole-pool draw raised the 2^20-replica brw's
# peak RSS from 143 to 205 MiB (8 MiB temporaries) and its wall time by 20%.
# brw draws each block from its own generator, so its chunks are single
# blocks (32768 samples in its benchmark) and run on all usable cores.
_CHUNK = 1 << 13


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads that run chunk groups: the calling thread plus a pool of
# _WORKERS - 1, created on the first call that has more than one group.
_WORKERS = _usable_cores()
_executor: ThreadPoolExecutor | None = None


def _check_blocks(key: str, size: int, minimum: int) -> None:
    # every pool splits into _BLOCKS equal replica blocks
    if not (hasattr(size, "__index__") and size >= minimum and size % _BLOCKS == 0):
        raise ValueError(f"{key} must be a multiple of {_BLOCKS} and >= {minimum}, got {size}")


def _check_pool_size(pool_size: int) -> None:
    _check_blocks("pool_size", pool_size, 1000)


@dataclass(frozen=True)
class LmeParams:
    """Pool evolution parameters; mirrors the simulate-lme config."""

    q: float
    b: float
    n_max: int
    pool_size: int = 100_000
    seed: int = 0
    track_powers: tuple[float, ...] = (2.0, 3.0)

    def __post_init__(self):
        _check_q(self.q)
        _check_gt0("b", self.b)
        _check_count("n_max", self.n_max)
        _check_pool_size(self.pool_size)
        _check_seed(self.seed)
        _check_distinct("track_powers", self.track_powers)


@dataclass(frozen=True)
class PaleyZygmund:
    """Markov upper bound for P(ratio > 2) and the p-th-moment lower bound
    for P(ratio >= 1/2), with the empirical frequencies beside them."""

    upper_p_gt_2: float
    lower_p_ge_half: float
    empirical_p_gt_2: float
    empirical_p_ge_half: float


@dataclass
class RunRecord:
    """Checkpointed trajectory of a pool run.

    ``moments``/``ses`` hold the unbiased raw block-mean estimates of
    E[ratio^p] with their standard errors over independent blocks;
    ``means``/``mean_ses`` the same for E[ratio], which is one exactly;
    ``logZ`` the sum of ln T_m over m < n; ``final_values`` the pool at n_max.
    """

    params: LmeParams
    ns: list[int] = field(default_factory=list)
    logZ: list[float] = field(default_factory=list)
    moments: dict[float, list[float]] = field(default_factory=dict)
    ses: dict[float, list[float]] = field(default_factory=dict)
    means: list[float] = field(default_factory=list)
    mean_ses: list[float] = field(default_factory=list)
    final_values: np.ndarray | None = None


def exact_Tn(q: float, epsilon: float) -> float:
    """T_n(q) = E[sin^{2q} + cos^{2q}] at scale eps, by adaptive quadrature.

    ``theta.expect_theta`` calls the integrand, at angles it maps from the
    law's uniform variable, 256 times per scale on average over
    eps = 0.5/n, n < 200, at q 0.8 (336 times at eps 5e-5), so the
    integrand is ``math`` scalar code; through numpy 0-d arrays each call
    would cost over ten times as much.  Cached by (q, eps); the same eps
    recurs across runs whenever b/n collide (e.g. halving b doubles the
    colliding n).
    """
    _check_q(q)
    _check_gt0("epsilon", epsilon)  # the q = 1 shortcut builds no ThetaLaw
    key = (float(q), float(epsilon))
    if key in _tn_cache:
        return _tn_cache[key]
    if q == 1.0:
        val = 1.0  # sin^2 + cos^2, exactly
    else:
        law = theta.ThetaLaw(epsilon)
        val = theta.expect_theta(
            law, lambda t: (math.sin(t) ** 2) ** q + (math.cos(t) ** 2) ** q
        )
    _tn_cache[key] = val
    return val


def map_chunks(size: int, rngs, kernel) -> None:
    """Run ``kernel(sl, i, j, rng)`` on every chunk of whole replica blocks:
    ``sl`` is the chunk's slice of the pool and i, j its parent indices,
    drawn uniformly within each block of the chunk and offset to whole-pool
    positions.

    ``rngs`` holds one generator per equal group of consecutive blocks of
    the pool's ``_BLOCKS``: a single generator for the whole pool, or one
    per block.  Any other count, or a ``size`` that is not a positive
    multiple of ``_BLOCKS``, would leave slots unwritten and raises
    ``ValueError``.  A group is walked in chunks of at most ``_CHUNK``
    samples (at least one block); each chunk draws i, then j, with one call
    each, and the kernel draws the chunk's mixing variables from ``rng``
    after them.  Chunks of a group thus consume consecutive, disjoint
    stretches of its generator.  A one-block chunk makes exactly the two
    calls of a per-block draw.

    A single generator is walked on the calling thread.  G > 1 groups are
    dealt round-robin to L = min(``_WORKERS``, G) lanes, each running its
    groups in order: the calling thread runs groups 0, L, 2L, ... and the
    thread pool the other lanes.  A kernel must therefore touch only its
    own generator and its own slice of any output, and call nothing that
    is not thread-safe.  The call returns, or re-raises a lane's error,
    only once every lane has finished.
    """
    global _executor
    _check_blocks("size", size, _BLOCKS)
    if not rngs or _BLOCKS % len(rngs):
        raise ValueError(f"rngs must hold a divisor of {_BLOCKS} generators, got {len(rngs)}")
    p = size // _BLOCKS
    per_rng = _BLOCKS // len(rngs)
    per_chunk = min(max(_CHUNK // p, 1), per_rng)

    def lane(first_group: int, stride: int) -> None:
        for g in range(first_group, len(rngs), stride):
            rng = rngs[g]
            for first in range(g * per_rng, (g + 1) * per_rng, per_chunk):
                nb = min(per_chunk, (g + 1) * per_rng - first)
                lo = first * p
                offsets = np.arange(lo, lo + nb * p, p)[:, None]
                i = rng.integers(0, p, (nb, p))
                j = rng.integers(0, p, (nb, p))
                i += offsets
                j += offsets
                kernel(slice(lo, lo + nb * p), i.ravel(), j.ravel(), rng)

    stride = min(_WORKERS, len(rngs))
    if stride == 1:
        lane(0, 1)
        return
    if _executor is None:
        _executor = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="lmelab-chunks")
    futures = [_executor.submit(lane, k, stride) for k in range(1, stride)]
    try:
        lane(0, stride)
    finally:
        wait(futures)
    for f in futures:
        f.result()


def mix_pairs(out, x, i, j, a1, a2) -> None:
    """out = a1 x[i] + a2 x[j], the lme and brw pools' pair update, in the
    chunk buffers ``out`` and ``a1`` (overwritten) rather than chunk-sized
    temporaries.  The indices are in range, so ``np.take`` runs in "clip"
    mode: with out= the default "raise" copies through a temporary."""
    np.take(x, i, out=out, mode="clip")
    out *= a1
    np.take(x, j, out=a1, mode="clip")
    a1 *= a2
    out += a1


def block_mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of the ``_BLOCKS`` block means of ``values``, and its standard
    error from their spread across independent blocks."""
    means = values.reshape(_BLOCKS, -1).mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(_BLOCKS))


def step(x: np.ndarray, q: float, eps: float, t_n: float, rngs) -> np.ndarray:
    """X' = (sin^{2q} th X[i] + cos^{2q} th X[j]) / t_n, one scale step at
    eps = b/n: parent pairs resampled with replacement within each replica
    block and a fresh angle th at eps per sample, all drawn from ``rngs``
    (see ``map_chunks``); ``t_n`` is the exact T_n at eps."""
    law = theta.ThetaLaw(eps)
    out = np.empty_like(x)

    def mix(sl, i, j, rng):
        sin2, cos2 = theta.sample_sin2_cos2(law, rng, i.size)
        sin2 **= q
        cos2 **= q
        mix_pairs(out[sl], x, i, j, sin2, cos2)
        out[sl] /= t_n

    map_chunks(x.size, rngs, mix)
    return out


def _checkpoints(n_max: int) -> list[int]:
    pts = []
    n = 1
    while n < n_max:
        pts.append(n)
        n *= 2
    pts.append(n_max)
    return pts


def run(params: LmeParams) -> RunRecord:
    """Evolve the pool from the unit state at n = 1 up to n_max, recording
    moments with jackknife errors at geometrically spaced checkpoints.  The
    step from scale n draws from the (seed, (DOMAIN_LME, n)) stream and
    divides by the exact T_n at eps = b/n; logZ sums the ln T_n."""
    rec = RunRecord(params=params)
    for p in params.track_powers:
        rec.moments[p] = []
        rec.ses[p] = []
    marks = set(_checkpoints(params.n_max))

    def record(n, x, log_z):
        rec.ns.append(n)
        rec.logZ.append(log_z)
        mean, se = block_mean_se(x)
        rec.means.append(mean)
        rec.mean_ses.append(se)
        for p in params.track_powers:
            mean, se = block_mean_se(x**p)
            rec.moments[p].append(mean)
            rec.ses[p].append(se)

    x, log_z = np.ones(params.pool_size), 0.0  # the raw quantity starts at 1
    record(1, x, log_z)
    for n in range(1, params.n_max):
        eps = params.b / n
        t_n = exact_Tn(params.q, eps)
        x = step(x, params.q, eps, t_n, [derive_stream(params.seed, (DOMAIN_LME, n))])
        log_z += math.log(t_n)
        if n + 1 in marks:
            record(n + 1, x, log_z)
    rec.final_values = x
    return rec


def ols(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordinary least squares of y on the columns of ``design``.

    Returns (coefficients, their standard errors, residuals); the error
    variance is estimated with max(rows - columns, 1) degrees of freedom.
    A rank-deficient design (e.g. fewer rows than columns) yields the
    minimum-norm coefficients with infinite standard errors.
    """
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    if rank < design.shape[1]:
        return coef, np.full(design.shape[1], np.inf), resid
    dof = max(len(y) - design.shape[1], 1)
    cov = float(resid @ resid) / dof * np.linalg.inv(design.T @ design)
    return coef, np.sqrt(np.maximum(np.diag(cov), 0.0)), resid


def paley_zygmund_bounds(values: np.ndarray, p: float) -> PaleyZygmund:
    """Markov/Paley-Zygmund sandwich for the normalized ratio against the
    empirical frequencies of the pool ``values``.

    It certifies that the recursion's normalized ratio X, mean one at every
    scale, neither runs off nor collapses to zero: Markov gives
    P(X > 2) <= 1/2, and Paley-Zygmund with the pool's p-th moment gives
    P(X >= 1/2) >= ((1/2)^p / E[X^p])^{1/(p-1)}, a mass at order one that
    stays bounded away from zero while E[X^p] stays bounded (p < p*(q)).
    ``tests/test_engine.py::TestPaleyZygmund`` checks the sandwich on an
    evolved pool.
    """
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    m_p = float(np.mean(values**p))
    lower = (0.5 / m_p ** (1.0 / p)) ** (p / (p - 1.0))
    return PaleyZygmund(
        upper_p_gt_2=0.5,
        lower_p_ge_half=lower,
        empirical_p_gt_2=float(np.mean(values > 2.0)),
        empirical_p_ge_half=float(np.mean(values >= 0.5)),
    )
