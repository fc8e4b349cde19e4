"""Closed-form exponents and critical points of the recursion.

The per-step decay exponent ``T(q)`` is defined by the integral

    T(q) = (1/4) * int_0^{pi/2} (1 - sin^{2q}t - cos^{2q}t) / (sin^2 t cos^2 t) dt

(with ``sin^{2q}`` meaning ``(sin^2)^q``) and evaluates to the Gamma ratio
``(sqrt(pi)/2) * Gamma(q - 1/2) / Gamma(q - 1)``, continued through the
removable zero at q = 1.  The constant is pinned by T(2) = pi/4, which the
defining integral gives directly (the integrand is identically 2 there).

Everything here is a pure function of q (and the coupling b where noted);
all thresholds derive from T:

* ``H(q) = q T'(q) - T(q)`` changes sign exactly once on (1/2, inf); its
  root ``q_c`` separates the mean-dominated regime from the frozen one.
* ``moment_exponent(q, p) = T(pq) - p T(q)``: ``p_star(q)``, the supremum
  of bounded moment orders, is its root in p > 1 (``math.inf`` for q <= 1);
  ``q_k`` its root in q at p = k >= 2; and ``h_exponent(q)``, past q_c, the
  order h in (0, 1) maximizing it, the freezing-side decay order.
* ``d_of_q(q, b) = b T(q) / (q - 1)`` is the multifractal dimension.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

from scipy import integrate
from scipy.optimize import brentq, minimize_scalar
from scipy.special import digamma, gammaln, gammasgn, rgamma

from .errors import ContractViolation, _check_ge0, _check_int, _check_q

__all__ = [
    "T_of_q",
    "T_quadrature",
    "T_prime",
    "H_of_q",
    "find_qc",
    "moment_exponent",
    "p_star",
    "find_qk",
    "h_exponent",
    "d_of_q",
]

_SQRT_PI = math.sqrt(math.pi)
_QUAD_TOL = 1e-10  # absolute and relative, of T_quadrature's two integrals


def T_of_q(q: float) -> float:
    """Decay exponent ``T(q) = (sqrt(pi)/2) Gamma(q-1/2) / Gamma(q-1)``.

    Continued through q = 1 by its limit 0.  Negative on (1/2, 1), zero at
    1, positive beyond.  Evaluated in log space so large q does not overflow.
    """
    _check_q(q)
    sign = float(gammasgn(q - 1.0))  # 0 at the q=1 pole of Gamma(q-1)
    if sign == 0.0:
        return 0.0
    return 0.5 * _SQRT_PI * sign * math.exp(gammaln(q - 0.5) - gammaln(q - 1.0))


def T_quadrature(q: float) -> float:
    """Evaluate T(q) by adaptive quadrature of its defining integral.

    Independent route used to validate :func:`T_of_q`; the integrand has
    integrable endpoint behaviour ~ t^{2q-2} for q < 1, so the interval is
    split near both endpoints before handing panels to Gauss-Kronrod.
    """
    _check_q(q)

    # The integrand is symmetric about pi/4, so integrate on [0, pi/4] only,
    # where the single difficult point is t = 0.  Split off the sin^{2q} term,
    # whose t^{2q-2} endpoint behaviour Gauss-Kronrod handles through an
    # explicit algebraic weight; the remainder is regular.
    def regular(t: float) -> float:
        st2 = math.sin(t) ** 2
        ct2 = 1.0 - st2
        if st2 == 0.0:
            return q  # limit of (1 - cos^{2q} t)/(sin^2 t cos^2 t) at t=0
        return (1.0 - ct2**q) / (st2 * ct2)

    def singular_cofactor(t: float) -> float:
        # sin^{2q} t/(sin^2 t cos^2 t) = t^{2q-2} * cofactor(t), cofactor smooth
        if t == 0.0:
            return 1.0
        return (math.sin(t) / t) ** (2.0 * q - 2.0) / math.cos(t) ** 2

    a, _ = integrate.quad(
        regular, 0.0, 0.25 * math.pi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200
    )
    b, _ = integrate.quad(
        singular_cofactor,
        0.0,
        0.25 * math.pi,
        weight="alg",
        wvar=(2.0 * q - 2.0, 0.0),
        epsabs=_QUAD_TOL,
        epsrel=_QUAD_TOL,
        limit=200,
    )
    return 0.5 * (a - b)


def T_prime(q: float) -> float:
    """Derivative T'(q), positive for all q > 1/2.

    Away from q = 1 this is ``T(q) * (psi(q-1/2) - psi(q-1))``; the q = 1
    point is the product of a simple zero of T with a simple pole of
    psi(q-1), handled through the reciprocal-Gamma derivative.
    """
    _check_q(q)
    z = q - 1.0
    if z == 0.0:
        # d/dz [1/Gamma(z)] = 1 at z = 0, and Gamma(1/2) = sqrt(pi).
        return 0.5 * math.pi
    if abs(z) <= 0.5:
        # Near the zero of T the psi(q-1) pole cancels against rgamma; the
        # product psi(z) * rgamma(z) is well conditioned for small z.
        pref = 0.5 * _SQRT_PI * math.exp(gammaln(q - 0.5))
        rg = float(rgamma(z))
        return pref * (digamma(q - 0.5) * rg - digamma(z) * rg)
    return T_of_q(q) * (digamma(q - 0.5) - digamma(z))


def H_of_q(q: float) -> float:
    """``H(q) = q T'(q) - T(q)``; positive below q_c, negative above."""
    return q * T_prime(q) - T_of_q(q)


def _bracketed_root(f, lo: float, hi: float) -> float:
    """Brent root of f on [lo, hi]; ContractViolation without a sign change."""
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0.0:
        raise ContractViolation(
            f"no sign change on bracket [{lo}, {hi}]: f={flo:.3g},{fhi:.3g}"
        )
    return brentq(f, lo, hi, xtol=1e-14)


@lru_cache(maxsize=1)
def find_qc() -> float:
    """Unique root of H(q) = q T'(q) - T(q) on (1/2, inf); about 2.4056."""
    return _bracketed_root(H_of_q, 1.1, 8.0)


def moment_exponent(q: float, p: float) -> float:
    """``T(pq) - p T(q)``, which decides what moments of the normalized ratio
    stay finite: its zero in p > 1 is :func:`p_star`, its zero in q at p = k
    is :func:`find_qk`, its maximizer over p = h past q_c is
    :func:`h_exponent`, and its p-derivative at p = 1 is :func:`H_of_q`.  It
    is 0 at p = 1.  The limit moments' recursion divides by it at p = l, and
    -moment_exponent(q, k) = kT(q) - T(kq) are the stationary equation's
    decay rates.  It requires q > 1/2 and 1/(2q) < p < inf."""
    _check_q(q)
    # pq > 1/2 is what T_of_q(pq) needs; 0.5 / q < p would let p = 2/3
    # through at q = 0.75, where pq rounds to 0.5
    if not (p * q > 0.5 and p < math.inf):
        raise ValueError(f"p must lie in (1/(2q), inf) = ({0.5 / q}, inf), got {p}")
    return T_of_q(p * q) - p * T_of_q(q)


def p_star(q: float) -> float:
    """Moment boundary p*(q): root in p > 1 of :func:`moment_exponent`.

    Returns ``math.inf`` for q <= 1, where every moment is finite (the
    defining expression is positive for every p).  Strictly decreasing
    on (1, q_c) with limit 1 at q_c.
    """
    qc = find_qc()
    if not (0.5 < q < qc):
        raise ValueError(f"q must lie in (1/2, q_c={qc:.6f}) for p_star, got {q}")
    if q <= 1.0:
        return math.inf

    g = partial(moment_exponent, q)
    lo = 1.0 + 1e-9
    hi = 2.0
    while g(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e6:  # pragma: no cover - cannot happen for q in (1, q_c)
            raise ContractViolation("p_star bracket expansion failed")
    return _bracketed_root(g, lo, hi)


def find_qk(k: int) -> float:
    """Threshold q_k: root in (1, q_c) of moment_exponent(q, k); decreasing in k."""
    _check_int("k", k, 2)
    return _bracketed_root(lambda q: moment_exponent(q, k), 1.0, find_qc())


def h_exponent(q: float) -> float:
    """The order h in (0,1) maximizing moment_exponent(q, h) (bounded Brent).

    Only meaningful past the critical index, where the maximum is positive
    and drives the decay of the h-th moment of the normalized ratio.
    """
    qc = find_qc()
    if not q > qc:
        raise ValueError(f"q must exceed q_c = {qc:.6f} for h_exponent, got {q}")
    # moment_exponent(q, h) is strictly concave in h on (1/(2q), 1)
    res = minimize_scalar(
        lambda h: -moment_exponent(q, h),
        bounds=(0.5 / q + 1e-9, 1.0 - 1e-12),
        method="bounded",
        options={"xatol": 1e-10},
    )
    h = float(res.x)
    if moment_exponent(q, h) <= 0.0:
        raise ValueError(f"maximum of T(qh) - hT(q) not positive at q={q}")
    return h


def d_of_q(q: float, b: float) -> float:
    """Multifractal dimension ``d(q) = b T(q)/(q-1) = b (sqrt(pi)/2) Gamma(q-1/2)/Gamma(q)``."""
    _check_q(q)
    _check_ge0("b", b)
    return b * 0.5 * _SQRT_PI * math.exp(gammaln(q - 0.5)) * float(rgamma(q))
