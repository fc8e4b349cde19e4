"""Exact law of the resonance mixing angle at scale parameter epsilon.

The angle of a 2x2 resonant rotation is theta = -(1/2) arccot(t/(eps*v))
with the level half-gap t and coupling v independent.  Taking t centered
normal with standard deviation 2/pi and v standard normal makes the
normalizing constant 2*rho(0)*E|v| equal exactly one, and collapses the
ratio construction to

    theta = (1/2) * arctan(s * C),      s = pi * eps / 2,

with C standard Cauchy, drawn as tan(pi (U - 1/2)) from a uniform U.
The density on [-pi/4, pi/4] is then closed form,

    r(theta) = 2 s / (pi * (s^2 cos^2 2theta + sin^2 2theta)),

so sampling is exact and branch-free, and the distribution function is
F(theta) = 1/2 + arctan(tan(2 theta)/s)/pi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureWarning, _check_count, _check_gt0

__all__ = [
    "ThetaLaw",
    "sample_theta",
    "sample_sin2_cos2",
    "theta_density",
    "theta_cdf",
    "expect_theta",
    "gauss_panels",
    "folded_rule",
]

_QUARTER_PI = 0.25 * math.pi
# Ratio of expect_theta's breakpoint ladder eps, 4 eps, 16 eps, ...: over
# the lme benchmark's 199 scales (q 0.8, b 0.5) ratios 2, 3, 4, 6 and 8
# took 79800, 58632, 50862, 49434 and 69090 integrand calls, and at q 1.5
# and 3 ratio 6 took 14% and 40% more calls than 4.
_LADDER = 4.0


@dataclass(frozen=True)
class ThetaLaw:
    """Angle law at scale epsilon = b/n; s = pi*eps/2 is the Cauchy scale."""

    epsilon: float
    s: float = field(init=False)

    def __post_init__(self):
        _check_gt0("epsilon", self.epsilon)
        object.__setattr__(self, "s", 0.5 * math.pi * self.epsilon)


def _cauchy_scaled(law: ThetaLaw, rng: np.random.Generator, size):
    # s*C by the inverse Cauchy CDF, one uniform per draw, computed in the
    # uniforms' own buffer (0-d for size=None)
    c = np.asarray(rng.random(size))
    c -= 0.5
    c *= math.pi
    np.tan(c, out=c)
    c *= law.s
    return c


def sample_theta(law: ThetaLaw, rng: np.random.Generator, size=None):
    """Exact sampler; returns a scalar for size=None, else an ndarray."""
    out = 0.5 * np.arctan(_cauchy_scaled(law, rng, size))
    return float(out) if size is None else out


def sample_sin2_cos2(law: ThetaLaw, rng: np.random.Generator, size):
    """Draw (sin^2 theta, cos^2 theta) pairs without evaluating the angle.

    With u = sC and r = sqrt(1 + u^2), cos(2 theta) = 1/r, so
    sin^2 theta = (1 - 1/r)/2 = u^2/(2 r (1 + r)); the last form has no
    cancellation at small |u|.  The uniforms are those ``sample_theta``
    would draw from the same stream.  This is the hot path of the pool
    recursion, drawn once per chunk of blocks from the scale's stream, so
    it computes in three arrays of ``size``: sin^2 lands in the uniforms'
    buffer, r and then 2r(1 + r) share a second, and 1 + r and then cos^2
    the third.  The operations and their order are those of the expressions
    above, so the pairs do not depend on the buffering.
    """
    sin2 = _cauchy_scaled(law, rng, size)
    sin2 *= sin2
    r = np.add(sin2, 1.0)
    np.sqrt(r, out=r)
    one_r = np.add(r, 1.0)
    r *= 2.0
    r *= one_r
    sin2 /= r
    return sin2, np.subtract(1.0, sin2, out=one_r)


def theta_density(law: ThetaLaw, theta):
    """Density r(theta) on [-pi/4, pi/4]; raises outside the support."""
    th = np.asarray(theta, dtype=float)
    if np.any(np.abs(th) > _QUARTER_PI + 1e-15):
        raise ValueError("theta outside [-pi/4, pi/4]")
    s, sin2t, cos2t = law.s, np.sin(2.0 * th), np.cos(2.0 * th)
    out = 2.0 * s / (math.pi * (s * s * cos2t * cos2t + sin2t * sin2t))
    return float(out) if np.isscalar(theta) else out


def theta_cdf(law: ThetaLaw, theta):
    """Exact distribution function 1/2 + arctan(tan(2 theta)/s)/pi."""
    th = np.asarray(theta, dtype=float)
    if np.any(np.abs(th) > _QUARTER_PI + 1e-15):
        raise ValueError("theta outside [-pi/4, pi/4]")
    out = np.where(
        np.abs(th) >= _QUARTER_PI,
        (np.sign(th) + 1.0) / 2.0,
        0.5 + np.arctan(np.tan(2.0 * th) / law.s) / math.pi,
    )
    return float(out) if np.isscalar(theta) else out


def expect_theta(
    law: ThetaLaw,
    f: Callable[[float], float],
    *,
    tol: float = 1e-10,
) -> float:
    """Adaptive quadrature of E[f(theta)] to absolute tol.

    The integral runs in the law's own uniform variable,
    E[f] = int_0^1 f(F^-1(u)) du with F^-1(u) = arctan(s tan(pi(u - 1/2)))/2,
    the map the samplers draw with, so the density leaves the integrand.
    ``quad`` gets a breakpoint at u = 1/2 (theta = 0, where f may have a
    cusp) and at u = F(+-eps 4^k) for every eps 4^k < pi/4: each panel then
    covers one scale of the peak or of its ~1/theta^2 tail, and for the T_n
    integrand at q 0.8 each converges at its first rule.  The ladder runs
    up to pi/4 because a single tail panel [10 eps, pi/4] in theta loses
    the tail: below eps ~ 5e-8 its nodes all lie far above the multiples of
    eps where the tail's mass sits, and E[1] reads 0.9501 with no warning.

    ``quad`` calls the integrand a few hundred times, so it is ``math``
    scalar code; through numpy 0-d arrays each call would cost over ten
    times as much.
    """
    s = law.s
    cuts = []  # u = F(p) on the ladder, theta_cdf's formula below pi/4
    p = law.epsilon
    while p < _QUARTER_PI:
        cuts.append(0.5 + math.atan(math.tan(2.0 * p) / s) / math.pi)
        p *= _LADDER
    val, err = integrate.quad(
        lambda u: f(0.5 * math.atan(s * math.tan(math.pi * (u - 0.5)))),
        0.0,
        1.0,
        points=[1.0 - c for c in reversed(cuts)] + [0.5] + cuts,
        epsabs=tol,
        epsrel=0.0,
        limit=400,
        full_output=0,
    )
    if err > 50.0 * tol:
        warnings.warn(
            f"expect_theta error estimate {err:.2e} exceeds tolerance {tol:.2e}",
            QuadratureWarning,
            stacklevel=2,
        )
    return val


@lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


def gauss_panels(
    edges,
    nodes_per_panel: int,
    density: Callable[[np.ndarray], np.ndarray] | None = None,
):
    """Composite Gauss-Legendre rule on [edges[0], pi/4].

    The panels are the given edges, strictly ascending within [0, pi/4),
    then a geometric bridge from the last of them up to pi/4 (panel ratio
    <= 16 keeps Gauss-Legendre accurate on a ~1/theta^2 integrand).
    Returns (nodes, weights); with a ``density`` callable the weights carry
    density(nodes) folded in.
    """
    _check_count("nodes_per_panel", nodes_per_panel)
    edges = list(edges)
    # a descending pair would make a panel of negative width
    bounds = [*edges, _QUARTER_PI]
    if not (edges and edges[0] >= 0.0 and all(a < b for a, b in zip(bounds, bounds[1:]))):
        raise ValueError(f"edges must ascend within [0, pi/4), got {edges}")
    last = edges[-1]
    while last > 0.0 and _QUARTER_PI / last > 16.0:
        last *= 16.0
        edges.append(last)
    edges.append(_QUARTER_PI)
    x, w = _legendre(nodes_per_panel)
    e = np.array(edges)
    mid = 0.5 * (e[:-1] + e[1:])[:, None]
    half = 0.5 * (e[1:] - e[:-1])[:, None]
    nodes = mid + half * x
    if density is not None:
        w = density(nodes) * w  # density * w * half keeps each weight's rounding
    return nodes.ravel(), (w * half).ravel()


def folded_rule(law: ThetaLaw, nodes_per_panel: int):
    """Fixed Gauss-Legendre rule for E[f] with f even in theta.

    Returns (theta_nodes, weights) on [0, pi/4] with the density folded in
    (weights sum to ~1).  The density has a peak of height ~1/eps and width
    ~eps at the origin: one panel [0, eps] covers it, and ``gauss_panels``'
    geometric bridge its ~1/theta^2 tail (a single panel when eps >= pi/4).
    Intended for vectorized iteration where one rule is reused across many
    evaluation points.
    """
    eps = law.epsilon
    return gauss_panels(
        [0.0, eps] if eps < _QUARTER_PI else [0.0],
        nodes_per_panel,
        lambda t: 2.0 * theta_density(law, t),
    )
