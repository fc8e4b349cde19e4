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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import theta
from .streams import DOMAIN_LME, derive_stream

__all__ = [
    "LmeParams",
    "SamplePool",
    "RunRecord",
    "PaleyZygmund",
    "exact_Tn",
    "init_pool",
    "parent_pairs",
    "block_mean_se",
    "step",
    "run",
    "paley_zygmund_bounds",
    "ols",
]

_tn_cache: dict[tuple[float, float], float] = {}
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
_CHUNK = 1 << 13


def _check_pool_size(pool_size: int, blocks: int = _BLOCKS) -> None:
    if pool_size < 1000:
        raise ValueError("pool_size must be >= 1000")
    if pool_size % blocks != 0:
        raise ValueError(f"pool_size {pool_size} not divisible by {blocks} blocks")


@dataclass(frozen=True)
class LmeParams:
    """Pool evolution parameters; mirrors the simulate-lme config."""

    q: float
    b: float
    n_max: int
    pool_size: int = 100_000
    seed: int = 0
    track_powers: tuple[float, ...] = (2.0, 3.0)
    blocks: int = _BLOCKS

    def __post_init__(self):
        if not self.q > 0.5:
            raise ValueError(f"q must exceed 1/2, got {self.q}")
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        _check_pool_size(self.pool_size, self.blocks)


@dataclass
class SamplePool:
    """Empirical ensemble for the law of the normalized ratio at scale n."""

    n: int
    values: np.ndarray
    logZ: float
    blocks: int


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
    ``means``/``mean_ses`` the same for E[ratio], which is one exactly.
    """

    params: LmeParams
    ns: list[int] = field(default_factory=list)
    logZ: list[float] = field(default_factory=list)
    moments: dict[float, list[float]] = field(default_factory=dict)
    ses: dict[float, list[float]] = field(default_factory=dict)
    means: list[float] = field(default_factory=list)
    mean_ses: list[float] = field(default_factory=list)
    final_pool: SamplePool | None = None


def exact_Tn(q: float, epsilon: float) -> float:
    """T_n(q) = E[sin^{2q} + cos^{2q}] at scale eps, by adaptive quadrature.

    The quadrature calls its integrand about 550 times per scale, so the
    integrand here and the density inside ``theta.expect_theta`` are both
    ``math`` scalar code; through numpy 0-d arrays each call would cost
    over ten times as much.  Cached by (q, eps); the same eps recurs
    across runs whenever b/n collide (e.g. halving b doubles the
    colliding n).
    """
    if not q > 0.5:
        raise ValueError(f"q must exceed 1/2, got {q}")
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


def init_pool(params: LmeParams) -> SamplePool:
    """Deterministic unit pool at scale 1 (the raw quantity starts at 1)."""
    return SamplePool(
        n=1,
        values=np.ones(params.pool_size),
        logZ=0.0,
        blocks=params.blocks,
    )


def parent_pairs(size: int, blocks: int, rngs):
    """Per chunk of whole replica blocks: (slice, i, j, rng) with parent
    indices i, j drawn uniformly within each block of the chunk and offset
    to whole-pool positions.

    ``rngs`` holds one generator per equal group of consecutive blocks: a
    single generator for the whole pool, or one per block.  A group is
    walked in chunks of at most ``_CHUNK`` samples (at least one block);
    each chunk draws i, then j, with one call each, and the caller draws
    the chunk's mixing variables from ``rng`` after them.  Chunks of a
    group thus consume consecutive, disjoint stretches of its generator.
    A one-block chunk makes exactly the two calls of a per-block draw.
    """
    p = size // blocks
    per_rng = blocks // len(rngs)
    per_chunk = min(max(_CHUNK // p, 1), per_rng)
    for g, rng in enumerate(rngs):
        for first in range(g * per_rng, (g + 1) * per_rng, per_chunk):
            nb = min(per_chunk, (g + 1) * per_rng - first)
            lo = first * p
            offsets = np.arange(lo, lo + nb * p, p)[:, None]
            i = rng.integers(0, p, (nb, p))
            j = rng.integers(0, p, (nb, p))
            i += offsets
            j += offsets
            yield slice(lo, lo + nb * p), i.ravel(), j.ravel(), rng


def block_mean_se(values: np.ndarray, blocks: int) -> tuple[np.ndarray, float, float]:
    """Per-block means of ``values``, their mean, and its standard error
    from the spread across independent blocks."""
    means = values.reshape(blocks, -1).mean(axis=1)
    return means, float(means.mean()), float(means.std(ddof=1) / math.sqrt(blocks))


def step(pool: SamplePool, params: LmeParams) -> SamplePool:
    """One scale step: resample parent pairs within each block from the
    (seed, step) stream, mix with a fresh angle at eps = b/n, divide by the
    exact T_n."""
    q = params.q
    eps = params.b / pool.n
    t_n = exact_Tn(q, eps)
    law = theta.ThetaLaw(eps)
    rngs = [derive_stream(params.seed, (DOMAIN_LME, pool.n))]
    v = pool.values
    out = np.empty_like(v)
    for sl, i, j, rng in parent_pairs(v.size, pool.blocks, rngs):
        sin2, cos2 = theta.sample_sin2_cos2(law, rng, i.size)
        out[sl] = (sin2**q * v[i] + cos2**q * v[j]) / t_n
    return SamplePool(
        n=pool.n + 1,
        values=out,
        logZ=pool.logZ + math.log(t_n),
        blocks=pool.blocks,
    )


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
    moments with jackknife errors at geometrically spaced checkpoints."""
    rec = RunRecord(params=params)
    for p in params.track_powers:
        rec.moments[p] = []
        rec.ses[p] = []
    marks = set(_checkpoints(params.n_max))
    pool = init_pool(params)

    def record(pool):
        rec.ns.append(pool.n)
        rec.logZ.append(pool.logZ)
        _, mean, se = block_mean_se(pool.values, pool.blocks)
        rec.means.append(mean)
        rec.mean_ses.append(se)
        for p in params.track_powers:
            _, mean, se = block_mean_se(pool.values**p, pool.blocks)
            rec.moments[p].append(mean)
            rec.ses[p].append(se)

    if 1 in marks:
        record(pool)
    while pool.n < params.n_max:
        pool = step(pool, params)
        if pool.n in marks:
            record(pool)
    rec.final_pool = pool
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


def paley_zygmund_bounds(pool: SamplePool, p: float) -> PaleyZygmund:
    """Markov/Paley-Zygmund sandwich for the normalized ratio against the
    pool's empirical frequencies.

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
    v = pool.values
    m_p = float(np.mean(v**p))
    lower = (0.5 / m_p ** (1.0 / p)) ** (p / (p - 1.0))
    return PaleyZygmund(
        upper_p_gt_2=0.5,
        lower_p_ge_half=lower,
        empirical_p_gt_2=float(np.mean(v > 2.0)),
        empirical_p_ge_half=float(np.mean(v >= 0.5)),
    )
