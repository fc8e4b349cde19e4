"""Renormalization flow on a periodic chain of coupled levels.

Scale m couples each site i to site i+m with a fresh Gaussian coupling of
standard deviation b/m.  Pairs whose level gap is below (b/m)^a are
resonant and get an exact 2x2 rotation: the mixing angle follows
tan(2 theta) = -h/dE with dE the half-gap, the new levels are
Ebar -+ sqrt(dE^2 + h^2) assigned by continuity, and the two eigenvectors
rotate isometrically.  Non-resonant pairs are dropped entirely (their
angles are perturbatively small), and colliding resonances are resolved
greedily from a random origin so each site rotates at most once per scale.

The eigenvectors are the rows of one dense (N, N) array, started at the
identity.  Their supports soon cover about half the chain and most
rotations overlap, so sparse storage saves nothing; the dense state costs
8 N^2 bytes, and N is capped at :data:`MAX_N` (512 MiB).  Beyond the state
a flow holds one working block at a time: about :data:`_BLOCK_BYTES` of
rows for a Givens update or a P(q) pass, or about :data:`_GRAM_BYTES` of
Gram matrix for the final orthonormality check.  Because a scale's pairs
are disjoint and chosen from the levels before the scale, all of its
rotations are applied together, as a vectorized Givens update of the
selected rows in cache-sized blocks.

Inverse participation ratios of the tracked vectors then realize, up to
the model's approximations, the pairwise mixing recursion that the pool
engine evolves in the abstract; the flow record carries the empirical
resonance density and the level-density calibration beta needed to compare
the two quantitatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import _checkpoints
from .errors import ContractViolation, _check_count, _check_distinct, _check_gt0
from .streams import DOMAIN_CHAIN, _check_seed, derive_stream

__all__ = [
    "MAX_N",
    "ORTHONORMALITY_TOL",
    "RgParams",
    "ChainState",
    "RotationEvent",
    "init_chain",
    "step_scale",
    "ipr",
    "run_flow",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

#: Largest chain: the dense vector state takes 8 N^2 bytes (512 MiB here),
#: plus one row block of :data:`_BLOCK_BYTES` or one Gram block of
#: :data:`_GRAM_BYTES` while it is updated or checked.
MAX_N = 8192

#: Bound on max |V V^T - I| at the end of a replica.  Rotations are exact
#: Givens rotations, so rounding leaves about 1e-15 after a hundred scales.
ORTHONORMALITY_TOL = 1e-10

# Rows per block of a scale's Givens update are chosen so that each gathered
# block and temporary holds about 128 KiB and stays in cache: at N = 4096
# one scale's update took about 11 ms this way against 32 ms for all rows at
# once, while N = 1024 gained under 0.4 ms.  :func:`ipr` takes its rows in
# blocks of the same size.
_BLOCK_BYTES = 1 << 17

# Rows per block of the orthonormality check's Gram product: each block
# holds about 8 MiB, against 8 N^2 bytes (128 MiB at N = 4096) for the
# whole Gram matrix at once.
_GRAM_BYTES = 1 << 23


def _check_size(N: int) -> None:
    if N < 16:
        raise ValueError("N must be >= 16")
    if N > MAX_N:
        raise ValueError(f"N must be <= {MAX_N} (dense state of 8 N^2 bytes), got {N}")


def _check_a(a: float) -> None:
    if not 0.0 < a < 0.5:
        raise ValueError(f"a must lie in (0, 1/2), got {a}")


def _check_n_max(N: int, n_max: int) -> None:
    _check_count("n_max", n_max)
    if n_max > N // 2:
        raise ValueError(f"n_max must not exceed N/2 = {N // 2}, got {n_max}")


@dataclass(frozen=True)
class RgParams:
    N: int
    b: float
    n_max: int
    a: float = 0.4
    q_list: tuple[float, ...] = (0.75, 2.0)
    seed: int = 0
    replicas: int = 1

    def __post_init__(self):
        _check_size(self.N)
        _check_a(self.a)
        _check_n_max(self.N, self.n_max)
        _check_distinct("q_list", self.q_list)
        _check_gt0("b", self.b)
        _check_seed(self.seed)
        _check_count("replicas", self.replicas)


@dataclass(slots=True)
class RotationEvent:
    """One resonant 2x2 diagonalization, logged for exactness checks."""

    scale: int
    i: int
    j: int
    theta: float
    e_i_old: float
    e_j_old: float
    h: float
    overlapped: bool


@dataclass
class ChainState:
    """Levels and eigenvectors of the chain after ``n`` scales.

    ``V`` is dense, shape (N, N), 8 N^2 bytes with N <= :data:`MAX_N`: row
    i is the vector of slot i, with level ``E[i]``.  :attr:`vectors` is a
    sparse view of the same rows, built from ``V`` only when read.
    """

    N: int
    n: int
    E: np.ndarray
    V: np.ndarray
    resonance_log: list[RotationEvent] = field(default_factory=list)
    resonance_counts: dict[int, int] = field(default_factory=dict)
    rho0_hat: dict[int, float] = field(default_factory=dict)

    @property
    def vectors(self) -> list[dict[int, float]]:
        """Each row of ``V`` as a ``{site: amplitude}`` map of its nonzero
        entries, built anew on every access."""
        out = []
        for row in self.V:
            sites = np.flatnonzero(row)
            out.append(dict(zip(sites.tolist(), row[sites].tolist())))
        return out


def init_chain(N: int, rng: np.random.Generator) -> ChainState:
    """Fresh chain at scale 0: i.i.d. standard normal levels, basis vectors."""
    _check_size(N)
    return ChainState(N=N, n=0, E=rng.standard_normal(N), V=np.eye(N))


def ipr(vector, q: float) -> float | np.ndarray:
    """P(q) = sum |amplitude|^{2q} over the support (unit-norm input).

    ``vector`` is an array whose last axis holds the amplitudes; a 2-D
    array gives one P(q) per row, computed in row blocks of about
    :data:`_BLOCK_BYTES`, and a 1-D array is taken as one row and gives a
    float.  Only the nonzero entries are raised to the power q.
    """
    amps = np.asarray(vector, dtype=float)
    one_row = amps.ndim == 1
    amps = np.atleast_2d(amps)
    total = np.zeros(len(amps))
    rows = max(1, _BLOCK_BYTES // max(1, amps.shape[1] * amps.itemsize))
    for lo in range(0, len(amps), rows):
        block = amps[lo : lo + rows]
        support = block != 0.0
        p = block[support]  # a copy of the block's nonzero entries, row after row
        np.square(p, out=p)
        np.power(p, q, out=p)
        counts = np.count_nonzero(support, axis=1)
        filled = counts > 0
        if filled.any():
            starts = (np.cumsum(counts) - counts)[filled]
            total[lo : lo + rows][filled] = np.add.reduceat(p, starts)
    return float(total[0]) if one_row else total


def _kde_at_zero(samples: np.ndarray) -> float:
    """Gaussian KDE with Silverman bandwidth, evaluated at 0."""
    n = samples.size
    sd = samples.std()
    bw = 1.06 * sd * n ** (-0.2)
    return float(np.mean(np.exp(-0.5 * (samples / bw) ** 2)) / (bw * math.sqrt(2 * math.pi)))


def step_scale(state: ChainState, params: RgParams, rng: np.random.Generator) -> ChainState:
    """Advance one scale: detect resonances at distance m = n+1, rotate a
    greedy disjoint subset of them, update levels by continuity."""
    m = state.n + 1
    if m > params.n_max:
        raise ValueError("chain already at n_max")
    n_sites = state.N
    E = state.E
    j_of = (np.arange(n_sites) + m) % n_sites
    gaps = E - E[j_of]
    # level-density calibration before any rotation at this scale
    state.rho0_hat[m] = _kde_at_zero(0.5 * gaps)
    h_all = (params.b / m) * rng.standard_normal(n_sites)
    threshold = (params.b / m) ** params.a
    resonant = np.abs(gaps) <= threshold
    state.resonance_counts[m] = int(resonant.sum())
    origin = int(rng.integers(n_sites))

    # Greedy disjoint pairs, resonant sites visited in order from the
    # origin.  Selection reads only the levels from before this scale and
    # each site rotates at most once, so the rotations commute and are
    # applied together below.
    sites = np.flatnonzero(resonant)
    sites = np.roll(sites, -int(np.searchsorted(sites, origin)))
    levels = E.tolist()
    couplings = h_all.tolist()
    used = bytearray(n_sites)
    events = []
    rotations = []
    for i in sites.tolist():
        j = (i + m) % n_sites
        if used[i] or used[j]:
            continue
        used[i] = used[j] = 1
        h = couplings[i]
        de = 0.5 * (levels[i] - levels[j])
        if de == 0.0:
            th = -math.copysign(0.25 * math.pi, h)
        else:
            th = 0.5 * math.atan(-h / de)
        ebar = 0.5 * (levels[i] + levels[j])
        r = math.hypot(de, h)
        sign = 1.0 if de >= 0.0 else -1.0
        rotations.append((i, j, math.cos(th), math.sin(th), ebar + sign * r, ebar - sign * r))
        events.append(
            RotationEvent(
                scale=m, i=i, j=j, theta=th,
                e_i_old=ebar + de, e_j_old=ebar - de, h=h,
                overlapped=False,
            )
        )

    if rotations:
        I, J, c, s, e_i, e_j = (np.array(col) for col in zip(*rotations))
        E[I] = e_i
        E[J] = e_j
        V = state.V
        overlapped = np.empty(len(I), dtype=bool)
        rows = max(1, _BLOCK_BYTES // V[0].nbytes)
        for lo in range(0, len(I), rows):
            blk = slice(lo, lo + rows)
            vi, vj = V[I[blk]], V[J[blk]]
            overlapped[blk] = np.any((vi != 0.0) & (vj != 0.0), axis=1)
            cb, sb = c[blk, None], s[blk, None]
            V[I[blk]] = cb * vi - sb * vj
            V[J[blk]] = sb * vi + cb * vj
        for ev, ov in zip(events, overlapped.tolist()):
            ev.overlapped = ov
        state.resonance_log.extend(events)
    state.n = m
    return state


def _orthonormality_err(V: np.ndarray) -> float:
    """max |V V^T - I|, from the upper triangle of the Gram matrix in row
    blocks of about :data:`_GRAM_BYTES`, so no second (N, N) array is held."""
    n = len(V)
    rows = max(1, _GRAM_BYTES // V[0].nbytes)
    err = 0.0
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        gram = V[lo:hi] @ V[lo:].T
        gram[np.diag_indices(hi - lo)] -= 1.0
        err = max(err, float(np.abs(gram, out=gram).max()))
    return err


def run_flow(params: RgParams) -> dict:
    """Full flow to n_max, averaged over replicas.

    Records per checkpoint scale: mean ln P(q) and mean P(q) across sites
    for each q; per scale: resonance density against its prediction
    2 rho(0) (b/m)^a and the calibration beta_m = 2 rho_hat(0) E|v|;
    overall the overlap fraction among rotations and, as
    ``orthonormality_err``, the largest max |V V^T - I| over the replicas.
    A replica whose vectors drift above :data:`ORTHONORMALITY_TOL` raises
    :class:`ContractViolation`.
    """
    marks = _checkpoints(params.n_max)
    out = {
        "n": marks,
        "mean_lnP": {q: np.zeros(len(marks)) for q in params.q_list},
        "mean_P": {q: np.zeros(len(marks)) for q in params.q_list},
        "resonance_density": np.zeros(params.n_max + 1),
        "predicted_density": np.zeros(params.n_max + 1),
        "beta_m": np.zeros(params.n_max + 1),
        "overlap_fraction": 0.0,
        "rotations": 0,
        "orthonormality_err": 0.0,
    }
    total_overlaps = 0
    for rep in range(params.replicas):
        rng = derive_stream(params.seed, (DOMAIN_CHAIN, rep))
        state = init_chain(params.N, rng)
        k = 0
        for scale in range(1, params.n_max + 1):
            state = step_scale(state, params, rng)
            while k < len(marks) and marks[k] == state.n:
                for q in params.q_list:
                    iprs = ipr(state.V, q)
                    out["mean_lnP"][q][k] += np.mean(np.log(iprs))
                    out["mean_P"][q][k] += np.mean(iprs)
                k += 1
        err = _orthonormality_err(state.V)
        if not err <= ORTHONORMALITY_TOL:
            raise ContractViolation(
                f"chain vectors lost orthonormality: max |V V^T - I| = {err:.3g} "
                f"in replica {rep}"
            )
        out["orthonormality_err"] = max(out["orthonormality_err"], err)
        for scale, count in state.resonance_counts.items():
            out["resonance_density"][scale] += count / params.N
            rho0 = state.rho0_hat[scale]
            out["predicted_density"][scale] += rho0 * (params.b / scale) ** params.a
            out["beta_m"][scale] += 2.0 * rho0 * _SQRT_2_OVER_PI
        total_overlaps += sum(ev.overlapped for ev in state.resonance_log)
        out["rotations"] += len(state.resonance_log)
        out["last_state"] = state
    for key in ("resonance_density", "predicted_density", "beta_m"):
        out[key] /= params.replicas
    for q in params.q_list:
        out["mean_lnP"][q] /= params.replicas
        out["mean_P"][q] /= params.replicas
    out["overlap_fraction"] = (
        total_overlaps / out["rotations"] if out["rotations"] else 0.0
    )
    # calibration averaged over the scales actually flowed
    out["beta_emp"] = float(np.mean(out["beta_m"][1 : params.n_max + 1]))
    return out
