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

Memory stays near the matrices themselves: :func:`build_matrix` peaks at
the one N^2 array it returns, and the symmetry and contract checks run in
row or column blocks of about :data:`_BLOCK_BYTES` (the orthonormality
check in the Gram blocks of :mod:`lmelab.chain`), beside LAPACK's own
workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import linalg
from numpy.lib.stride_tricks import sliding_window_view

from .chain import _BLOCK_BYTES, _orthonormality_err
from .engine import ols
from .errors import ContractViolation, _check_count, _check_gt0, _check_int
from .streams import DOMAIN_PRBM, _check_seed, derive_stream

__all__ = [
    "PrbmEnsemble",
    "DqFit",
    "build_matrix",
    "symmetric_eig",
    "central_half_log_iprs",
    "estimate_dq",
]


def _check_sizes(N_list) -> None:
    # the fit needs three points; a repeated size adds none
    for n in N_list:
        _check_int("N_list entry", n, 64)
    if len(set(N_list)) < 3:
        raise ValueError(f"N_list needs three distinct sizes, got {tuple(N_list)}")


@dataclass(frozen=True)
class PrbmEnsemble:
    N_list: tuple[int, ...]
    b: float
    realizations: int
    seed: int = 0

    def __post_init__(self):
        _check_sizes(self.N_list)
        _check_gt0("b", self.b)
        _check_count("realizations", self.realizations)
        _check_seed(self.seed)


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
    """One ensemble member: variance 1 at periodic distance < b, else (b/d)^2.

    Entry (i, j) with i <= j is a standard normal draw times the standard
    deviation at periodic distance d = min(|i - j|, N - |i - j|), read from
    one (N, N) draw in row-major order; the lower triangle mirrors the
    upper.  The profile depends on (j - i) mod N alone, so it is kept as
    one row and read as an (N, N) view, and the mirror is copied in row
    blocks: the returned array is the only N^2 buffer.
    """
    _check_int("N", N, 2)
    _check_gt0("b", b)
    d = np.arange(N)
    d = np.minimum(d, N - d)
    prof = np.where(d < b, 1.0, b / np.maximum(d, 1))
    # row i of the view is prof rolled right by i: sigma[i, j] = prof[(j - i) % N]
    sigma = sliding_window_view(np.concatenate([prof, prof]), N)[N:0:-1]
    h = rng.standard_normal((N, N))
    h *= sigma
    rows = max(1, _BLOCK_BYTES // h[0].nbytes)
    for lo in range(0, N, rows):
        hi = min(lo + rows, N)
        # columns left of the diagonal in rows lo:hi take the upper triangle
        below = np.tri(hi - lo, hi, lo - 1, dtype=bool)
        np.copyto(h[lo:hi, :hi], h[:hi, lo:hi].T, where=below)
    return h


def symmetric_eig(matrix: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    Backed by LAPACK's divide-and-conquer ``syevd`` through numpy, whose
    OpenBLAS also runs the contract products below: scipy's ``eigh`` runs on
    scipy's separate OpenBLAS, and the two thread pools then contend for the
    same cores.  The reconstruction and orthonormality contracts are
    verified on every call.  The symmetry check runs in row blocks and the
    reconstruction in column blocks of about :data:`_BLOCK_BYTES`, and the
    orthonormality check in the chain's Gram blocks, so beside ``v`` the
    checks hold one block at a time.
    """
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("input must be square")
    # max |h| without an N^2 temporary; NaN in h makes both terms NaN
    scale = float(np.maximum(h.max(), -h.min()))
    if not math.isfinite(scale):
        raise ValueError("input must be finite")
    n = h.shape[0]
    rows = max(1, _BLOCK_BYTES // h[0].nbytes)
    # an absolute bound only: a relative tolerance such as np.allclose's
    # default 1e-5 would pass asymmetries of 1e-6 that eigh then resolves by
    # reading one triangle
    atol = 1e-12 * max(1.0, scale)
    for lo in range(0, n, rows):
        skew = h[lo : lo + rows] - h[:, lo : lo + rows].T
        if np.abs(skew, out=skew).max() > atol:
            raise ValueError("input must be symmetric")
    w, v = linalg.eigh(h)
    recon = 0.0
    for lo in range(0, n, rows):
        vb = v[:, lo : lo + rows]
        resid = h @ vb
        resid -= vb * w[lo : lo + rows]
        recon = max(recon, float(np.abs(resid, out=resid).max()))
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
    p = v[:, lo:hi] ** 2
    p **= q
    return np.log(p.sum(axis=0))


def estimate_dq(ensemble: PrbmEnsemble, q: float) -> DqFit:
    """Fit mean ln P(q) against ln N; slope estimates -d(q)(q-1).

    q = 1 is exact: P(1) = 1 for every unit vector, so the slope and d are
    identically zero with no sampling involved.
    """
    _check_gt0("q", q)
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
