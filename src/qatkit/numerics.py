"""Seeded randomness and dense-matrix helpers.

Everything here works on plain float64 ``numpy`` arrays, so that the
optimizer and convergence checks elsewhere in the package are not confounded
by precision.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["NumericalFailure", "make_rng", "make_spd", "pca_project", "power_iteration_lmax"]


class NumericalFailure(RuntimeError):
    """A run produced a non-finite loss, iterate or statistic."""


def make_rng(seed) -> np.random.Generator:
    """Seeded PCG64 generator.

    PCG64 is a counter-based generator with fixed documented constants, so an
    identical seed plus call sequence reproduces the same stream on every
    platform.  ``seed`` may be an int or a tuple of ints (stream labels).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def make_spd(dim: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric positive definite matrix with condition number ``kappa``.

    Eigenvalues are log-spaced in [1, kappa]; the eigenbasis is a random
    orthogonal matrix obtained by QR of a Gaussian matrix (sign-fixed so the
    factorization is unique).
    """
    if kappa < 1.0:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if dim == 1 and kappa != 1.0:
        raise ValueError("a 1x1 matrix cannot have condition number > 1")
    eigs = np.logspace(0.0, np.log10(kappa), dim)
    G = rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    Q = Q * d
    M = (Q * eigs) @ Q.T
    return (M + M.T) / 2.0


def pca_project(points, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Project points onto the top-``k`` principal components.

    Returns ``(projections, components)`` where projections has shape
    (n_points, k) holding centered dot products and components has shape
    (k, dim) with orthonormal rows ordered by descending eigenvalue of the
    centered covariance.  Sign convention: the first nonzero entry of each
    component is positive.  Zero-variance input yields all-zero projections
    and a ``RuntimeWarning`` rather than an error; a covariance that
    overflows raises ``NumericalFailure``.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"points must form a 2-d array, got shape {X.shape}")
    n, dim = X.shape
    if n < 2:
        raise ValueError("need at least 2 points for PCA")
    if not 1 <= k <= dim:
        raise ValueError(f"component count {k} out of range [1, {dim}]")
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / (n - 1)
    if not np.isfinite(cov).all():
        raise NumericalFailure("non-finite covariance in the trajectory PCA")
    evals, evecs = np.linalg.eigh(cov)
    if evals[-1] <= 1e-15 * max(1.0, float(np.abs(X).max())):
        warnings.warn("zero-variance data: projections are all zero", RuntimeWarning)
    # eigh returns ascending order; take the top k, largest first
    comps = evecs[:, ::-1][:, :k].T.copy()
    for row in comps:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return Xc @ comps.T, comps


def power_iteration_lmax(A: np.ndarray, rng: np.random.Generator, iters: int = 200) -> float:
    """Largest-eigenvalue estimate of a symmetric PSD matrix via power iteration."""
    A = np.asarray(A, dtype=np.float64)
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(v @ (A @ v))
