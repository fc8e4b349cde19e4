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

from .errors import QuadratureWarning, _check_gt0

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


@dataclass(frozen=True)
class ThetaLaw:
    """Angle law at scale epsilon = b/n; s = pi*eps/2 is the Cauchy scale."""

    epsilon: float
    s: float = field(init=False)

    def __post_init__(self):
        _check_gt0("epsilon", self.epsilon)
        object.__setattr__(self, "s", 0.5 * math.pi * self.epsilon)


def _cauchy_scaled(law: ThetaLaw, rng: np.random.Generator, size):
    # s*C by the inverse Cauchy CDF, one uniform per draw
    return law.s * np.tan(math.pi * (rng.random(size) - 0.5))


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
    recursion, drawn once per chunk of blocks from the scale's stream.
    """
    u = _cauchy_scaled(law, rng, size)
    u2 = u * u
    r = np.sqrt(1.0 + u2)
    sin2 = u2 / (2.0 * r * (1.0 + r))
    return sin2, 1.0 - sin2


def _density(s, sin2t, cos2t):
    # r(theta) from s, sin 2theta and cos 2theta; floats and arrays alike
    return 2.0 * s / (math.pi * (s * s * cos2t * cos2t + sin2t * sin2t))


def theta_density(law: ThetaLaw, theta):
    """Density r(theta) on [-pi/4, pi/4]; raises outside the support."""
    th = np.asarray(theta, dtype=float)
    if np.any(np.abs(th) > _QUARTER_PI + 1e-15):
        raise ValueError("theta outside [-pi/4, pi/4]")
    out = _density(law.s, np.sin(2.0 * th), np.cos(2.0 * th))
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


def _peak_edges(epsilon: float) -> list[float]:
    # The density has a peak of height ~1/eps and width ~eps at the origin;
    # panel edges at eps and 10 eps (those below pi/4) resolve it.
    return [p for p in (epsilon, 10.0 * epsilon) if p < _QUARTER_PI]


def expect_theta(
    law: ThetaLaw,
    f: Callable[[float], float],
    *,
    tol: float = 1e-10,
) -> float:
    """Adaptive quadrature of E[f(theta)] = int f r to absolute tol.

    ``quad`` calls the integrand hundreds of times with a Python float t
    inside [-pi/4, pi/4], so it evaluates the density with ``math`` scalars
    and no range check; through :func:`theta_density`'s numpy path each
    call would cost over ten times as much.
    """
    edges = _peak_edges(law.epsilon)
    s = law.s
    val, err = integrate.quad(
        lambda t: f(t) * _density(s, math.sin(2.0 * t), math.cos(2.0 * t)),
        -_QUARTER_PI,
        _QUARTER_PI,
        points=[-p for p in reversed(edges)] + edges,
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

    The panels are the given ascending edges, then a geometric bridge from
    the last of them up to pi/4 (panel ratio <= 16 keeps Gauss-Legendre
    accurate on a ~1/theta^2 integrand).  Returns (nodes, weights); with a
    ``density`` callable the weights carry density(nodes) folded in.
    """
    edges = list(edges)
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
    (weights sum to ~1).  Panels split at eps and 10 eps around the density
    peak, then geometrically up to pi/4.  Intended for vectorized iteration
    where one rule is reused across many evaluation points.
    """
    return gauss_panels(
        [0.0, *_peak_edges(law.epsilon)],
        nodes_per_panel,
        lambda t: 2.0 * theta_density(law, t),
    )
