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
* ``p_star(q)`` is the supremum of bounded moment orders, the root of
  ``T(pq) - p T(q)`` in p > 1 (unbounded for q <= 1).
* ``q_k`` is the root in q of ``T(kq) - k T(q)`` for integer k >= 2.
* ``h_exponent(q)``, past q_c, is the order h in (0, 1) maximizing
  ``T(qh) - h T(q)``, the freezing-side decay order.
* ``d_of_q(q, b) = b T(q) / (q - 1)`` is the multifractal dimension.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy import integrate
from scipy.optimize import brentq, minimize_scalar
from scipy.special import digamma, gammaln, gammasgn, rgamma

from .errors import ContractViolation

__all__ = [
    "UNBOUNDED",
    "T_of_q",
    "T_quadrature",
    "T_prime",
    "H_of_q",
    "find_qc",
    "p_star",
    "find_qk",
    "h_exponent",
    "d_of_q",
]

_SQRT_PI = math.sqrt(math.pi)


class _Unbounded:
    """Sentinel for an unbounded moment order (never a float inf in tables)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "unbounded"


#: Distinguished "no finite moment boundary" value returned by :func:`p_star`.
UNBOUNDED = _Unbounded()


def _check_q(q: float) -> None:
    if not q > 0.5:
        raise ValueError(f"q must exceed 1/2, got {q}")


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


def T_quadrature(q: float, *, tol: float = 1e-10) -> float:
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
        regular, 0.0, 0.25 * math.pi, epsabs=tol, epsrel=tol, limit=200
    )
    b, _ = integrate.quad(
        singular_cofactor,
        0.0,
        0.25 * math.pi,
        weight="alg",
        wvar=(2.0 * q - 2.0, 0.0),
        epsabs=tol,
        epsrel=tol,
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


def p_star(q: float):
    """Moment boundary p*(q): root in p > 1 of ``T(pq) - p T(q)``.

    Returns :data:`UNBOUNDED` for q <= 1 where the bracket never closes
    (the defining expression is positive for every p).  Strictly decreasing
    on (1, q_c) with limit 1 at q_c.
    """
    qc = find_qc()
    if not (0.5 < q < qc):
        raise ValueError(f"p_star requires q in (1/2, q_c={qc:.6f}), got {q}")
    if q <= 1.0:
        return UNBOUNDED

    def g(p: float) -> float:
        return T_of_q(p * q) - p * T_of_q(q)

    lo = 1.0 + 1e-9
    hi = 2.0
    while g(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 1e6:  # pragma: no cover - cannot happen for q in (1, q_c)
            raise ContractViolation("p_star bracket expansion failed")
    return _bracketed_root(g, lo, hi)


def find_qk(k: int) -> float:
    """Threshold q_k: root in (1, q_c) of ``T(kq) - k T(q)``; decreasing in k."""
    if k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")

    def g(q: float) -> float:
        return T_of_q(k * q) - k * T_of_q(q)

    return _bracketed_root(g, 1.0, find_qc())


def h_exponent(q: float) -> float:
    """The order h in (0,1) maximizing T(qh) - h T(q) (bounded Brent search).

    Only meaningful past the critical index, where the maximum is positive
    and drives the decay of the h-th moment of the normalized ratio.
    """
    qc = find_qc()
    if not q > qc:
        raise ValueError(f"h_exponent requires q > q_c = {qc:.6f}, got {q}")
    tq = T_of_q(q)

    def g(h: float) -> float:
        return T_of_q(q * h) - h * tq

    # g is strictly concave in h on (1/(2q), 1)
    res = minimize_scalar(
        lambda h: -g(h),
        bounds=(0.5 / q + 1e-9, 1.0 - 1e-12),
        method="bounded",
        options={"xatol": 1e-10},
    )
    h = float(res.x)
    if g(h) <= 0.0:
        raise ValueError(f"maximum of T(qh) - hT(q) not positive at q={q}")
    return h


def d_of_q(q: float, b: float) -> float:
    """Multifractal dimension ``d(q) = b T(q)/(q-1) = b (sqrt(pi)/2) Gamma(q-1/2)/Gamma(q)``."""
    _check_q(q)
    if b < 0:
        raise ValueError(f"coupling b must be >= 0, got {b}")
    return b * 0.5 * _SQRT_PI * math.exp(gammaln(q - 0.5)) * float(rgamma(q))
