"""Renormalization flow on a periodic chain of coupled levels.

Scale m couples each site i to site i+m with a fresh Gaussian coupling of
standard deviation b/m.  Pairs whose level gap is below (b/m)^a are
resonant and get an exact 2x2 rotation: the mixing angle follows
tan(2 theta) = -h/dE with dE the half-gap, the new levels are
Ebar -+ sqrt(dE^2 + h^2) assigned by continuity, and the two sparse
eigenvector amplitude maps rotate isometrically.  Non-resonant pairs are
dropped entirely (their angles are perturbatively small), and colliding
resonances are resolved greedily from a random origin so each site rotates
at most once per scale.

Inverse participation ratios of the tracked vectors then realize, up to
the model's approximations, the pairwise mixing recursion that the pool
engine evolves in the abstract; the flow record carries the empirical
resonance density and the level-density calibration beta needed to compare
the two quantitatively.  The separate path-sum model evolves one dense
amplitude field with angle draws at every site, the transfer-operator view
of the same recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import theta
from .engine import _checkpoints
from .streams import DOMAIN_CHAIN, DOMAIN_PATHSUM, derive_stream

__all__ = [
    "RgParams",
    "ChainState",
    "RotationEvent",
    "init_chain",
    "step_scale",
    "ipr",
    "run_flow",
    "path_sum_eigenvector",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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
        if self.N < 16:
            raise ValueError("N must be >= 16")
        if not 0.0 < self.a < 0.5:
            raise ValueError(f"resonance exponent a must lie in (0, 1/2), got {self.a}")
        if self.n_max > self.N // 2:
            raise ValueError("n_max must not exceed N/2")
        if not self.b > 0:
            raise ValueError("b must be positive")


@dataclass
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
    N: int
    n: int
    E: np.ndarray
    vectors: list[dict[int, float]]
    resonance_log: list[RotationEvent] = field(default_factory=list)
    resonance_counts: dict[int, int] = field(default_factory=dict)
    overlap_counts: dict[int, int] = field(default_factory=dict)
    rho0_hat: dict[int, float] = field(default_factory=dict)


def init_chain(N: int, rng: np.random.Generator) -> ChainState:
    """Fresh chain at scale 0: i.i.d. standard normal levels, basis vectors."""
    if N < 16:
        raise ValueError("N must be >= 16")
    return ChainState(
        N=N,
        n=0,
        E=rng.standard_normal(N),
        vectors=[{i: 1.0} for i in range(N)],
    )


def ipr(vector, q: float) -> float:
    """P(q) = sum |amplitude|^{2q} over the support (unit-norm input)."""
    if isinstance(vector, dict):
        amps = np.array(list(vector.values()))
    else:
        amps = np.asarray(vector)
        amps = amps[amps != 0.0]
    return float(np.sum((amps * amps) ** q))


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

    used = np.zeros(n_sites, dtype=bool)
    overlaps = 0
    for off in range(n_sites):
        i = (origin + off) % n_sites
        if not resonant[i]:
            continue
        j = int(j_of[i])
        if used[i] or used[j]:
            continue
        used[i] = used[j] = True
        h = float(h_all[i])
        de = 0.5 * (E[i] - E[j])
        if de == 0.0:
            th = -math.copysign(0.25 * math.pi, h)
        else:
            th = 0.5 * math.atan(-h / de)
        c, s = math.cos(th), math.sin(th)
        vi, vj = state.vectors[i], state.vectors[j]
        overlapped = not set(vi).isdisjoint(vj)
        overlaps += overlapped
        new_i: dict[int, float] = {}
        new_j: dict[int, float] = {}
        for site, amp in vi.items():
            new_i[site] = c * amp
            new_j[site] = s * amp
        for site, amp in vj.items():
            new_i[site] = new_i.get(site, 0.0) - s * amp
            new_j[site] = new_j.get(site, 0.0) + c * amp
        state.vectors[i] = new_i
        state.vectors[j] = new_j
        ebar = 0.5 * (E[i] + E[j])
        r = math.hypot(de, h)
        sign = 1.0 if de >= 0.0 else -1.0
        E[i] = ebar + sign * r
        E[j] = ebar - sign * r
        state.resonance_log.append(
            RotationEvent(
                scale=m, i=i, j=j, theta=th,
                e_i_old=ebar + de, e_j_old=ebar - de, h=h,
                overlapped=overlapped,
            )
        )
    state.overlap_counts[m] = overlaps
    state.n = m
    return state


def run_flow(params: RgParams) -> dict:
    """Full flow to n_max, averaged over replicas.

    Records per checkpoint scale: mean ln P(q) and mean P(q) across sites
    for each q; per scale: resonance density against its prediction
    2 rho(0) (b/m)^a and the calibration beta_m = 2 rho_hat(0) E|v|;
    overall the overlap fraction among rotations.
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
                    iprs = np.array([ipr(v, q) for v in state.vectors])
                    out["mean_lnP"][q][k] += np.mean(np.log(iprs))
                    out["mean_P"][q][k] += np.mean(iprs)
                k += 1
        for scale, count in state.resonance_counts.items():
            out["resonance_density"][scale] += count / params.N
            rho0 = state.rho0_hat[scale]
            out["predicted_density"][scale] += rho0 * (params.b / scale) ** params.a
            out["beta_m"][scale] += 2.0 * rho0 * _SQRT_2_OVER_PI
        total_overlaps += sum(state.overlap_counts.values())
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


def path_sum_eigenvector(
    params: RgParams, site: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Dense amplitude map of the transfer-operator vector rooted at a site.

    At each scale the field mixes every site with its +-(n+1) neighbours
    through independent resonance angles and a fair coin choosing the
    direction; iterating the transposed one-scale operator on a basis
    vector sums the same weights as the full path expansion.  The operator
    is only approximately isometric, so callers normalize before taking
    participation ratios.
    """
    if params.N > 8192:
        raise ValueError("dense path-sum capped at N = 8192")
    if not 0 <= site < params.N:
        raise ValueError("site outside the chain")
    u = np.zeros(params.N)
    u[site] = 1.0
    for scale_index in range(params.n_max - 1, -1, -1):
        jump = scale_index + 1
        stream = (
            rng
            if rng is not None
            else derive_stream(params.seed, (DOMAIN_PATHSUM, scale_index, site))
        )
        law = theta.ThetaLaw(params.b / jump)
        th_plus = theta.sample_theta(law, stream, params.N)
        th_minus = theta.sample_theta(law, stream, params.N)
        sigma = stream.integers(0, 2, params.N).astype(float)
        stay = sigma * np.cos(th_plus) + (1.0 - sigma) * np.cos(th_minus)
        up = sigma * np.sin(th_plus)
        down = (1.0 - sigma) * np.sin(th_minus)
        u = stay * u + np.roll(up * u, jump) + np.roll(down * u, -jump)
    return u
