"""Critical power-law random band matrix ensemble.

Real symmetric N x N matrices with independent Gaussian entries whose
variance is 1 within periodic distance b of the diagonal and (b/d)^2
beyond it, the marginal case of power-law band profiles where eigenvector
statistics turn multifractal.  Participation ratios of band-center
eigenvectors are regressed against matrix size to estimate the dimension
d(q) from P(q) ~ N^{-d(q)(q-1)}.

Every diagonalization is checked: the reconstruction and orthonormality
contracts of :func:`symmetric_eig` test every eigenpair, whatever LAPACK
driver produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import linalg

from .chain import _orthonormality_err
from .engine import ols
from .errors import ContractViolation
from .streams import DOMAIN_PRBM, derive_stream

__all__ = [
    "PrbmEnsemble",
    "DqFit",
    "build_matrix",
    "symmetric_eig",
    "central_half_log_iprs",
    "estimate_dq",
]


def _check_sizes(N_list) -> None:
    if any(n < 64 for n in N_list):
        raise ValueError("matrix sizes must be >= 64")


def _check_fit_sizes(N_list) -> None:
    # repeated sizes add no point to the ln N regression
    if len(set(N_list)) < 3:
        raise ValueError("need at least three distinct sizes for the fit")


@dataclass(frozen=True)
class PrbmEnsemble:
    N_list: tuple[int, ...]
    b: float
    realizations: int
    seed: int = 0

    def __post_init__(self):
        _check_sizes(self.N_list)
        if not self.b > 0:
            raise ValueError("b must be positive")
        if self.realizations < 1:
            raise ValueError("need at least one realization")


@dataclass(frozen=True)
class DqFit:
    """Size regression of band-center participation ratios at one q."""

    q: float
    slope: float
    stderr: float
    d: float
    d_stderr: float
    N_list: tuple[int, ...]
    mean_lnP: tuple[float, ...]
    se_lnP: tuple[float, ...]
    fit_residuals: tuple[float, ...]


def build_matrix(N: int, b: float, rng: np.random.Generator) -> np.ndarray:
    """One ensemble member: variance 1 at periodic distance < b, else (b/d)^2."""
    if N < 2 or not b > 0:
        raise ValueError("need N >= 2 and b > 0")
    idx = np.arange(N)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(dist, N - dist)
    sigma = np.where(dist < b, 1.0, b / np.maximum(dist, 1))
    raw = rng.standard_normal((N, N)) * sigma
    upper = np.triu(raw)
    return upper + np.triu(raw, 1).T


def symmetric_eig(matrix: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    Backed by LAPACK's divide-and-conquer ``syevd`` through numpy, whose
    OpenBLAS also runs the contract products below: scipy's ``eigh`` runs on
    scipy's separate OpenBLAS, and the two thread pools then contend for the
    same cores.  The reconstruction and orthonormality contracts are
    verified on every call.
    """
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("input must be square")
    if not np.all(np.isfinite(h)):
        raise ValueError("input must be finite")
    # rtol=0: numpy's default rtol of 1e-5 would pass asymmetries of 1e-6
    # that eigh then resolves by reading one triangle
    if not np.allclose(h, h.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(h).max())):
        raise ValueError("input must be symmetric")
    w, v = linalg.eigh(h)
    n = h.shape[0]
    scale = np.abs(h).max()
    recon = np.abs(h @ v - v * w[None, :]).max()
    if recon > 1e-9 * scale * n:
        raise ContractViolation(f"eigen reconstruction error {recon:.2e}")
    ortho = _orthonormality_err(v.T)
    if ortho > 1e-10:
        raise ContractViolation(f"eigenvector orthonormality error {ortho:.2e}")
    return w, v


def central_half_log_iprs(v: np.ndarray, q: float) -> np.ndarray:
    """ln P(q) for eigenvectors whose eigenvalue rank lies in the central
    half of the spectrum (columns are assumed sorted by eigenvalue)."""
    n = v.shape[1]
    lo, hi = n // 4, n - n // 4
    p = ((v[:, lo:hi] ** 2) ** q).sum(axis=0)
    return np.log(p)


def estimate_dq(ensemble: PrbmEnsemble, q: float) -> DqFit:
    """Fit mean ln P(q) against ln N; slope estimates -d(q)(q-1).

    q = 1 is exact: P(1) = 1 for every unit vector, so the slope and d are
    identically zero with no sampling involved.
    """
    if not q > 0:
        raise ValueError("q must be positive")
    _check_fit_sizes(ensemble.N_list)
    n_list = tuple(sorted(ensemble.N_list))
    if q == 1.0:
        z = (0.0,) * len(n_list)
        return DqFit(
            q=q, slope=0.0, stderr=0.0, d=0.0, d_stderr=0.0,
            N_list=n_list, mean_lnP=z, se_lnP=z, fit_residuals=z,
        )
    means, ses = [], []
    for n_index, n in enumerate(n_list):
        per_real = []
        for r in range(ensemble.realizations):
            rng = derive_stream(ensemble.seed, (DOMAIN_PRBM, n_index, r))
            h = build_matrix(n, ensemble.b, rng)
            _, v = symmetric_eig(h)
            per_real.append(float(np.mean(central_half_log_iprs(v, q))))
        arr = np.array(per_real)
        means.append(float(arr.mean()))
        ses.append(float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0)
    x = np.log(np.array(n_list, dtype=float))
    y = np.array(means)
    coef, coef_se, resid = ols(np.vstack([np.ones_like(x), x]).T, y)
    slope = float(coef[1])
    stderr = float(coef_se[1])
    return DqFit(
        q=q,
        slope=slope,
        stderr=stderr,
        d=-slope / (q - 1.0),
        d_stderr=stderr / abs(q - 1.0),
        N_list=n_list,
        mean_lnP=tuple(means),
        se_lnP=tuple(ses),
        fit_residuals=tuple(float(r) for r in resid),
    )
