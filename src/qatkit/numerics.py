"""Seeded randomness and dense-matrix helpers.

Everything here works on plain float64 ``numpy`` arrays, so that the
optimizer and convergence checks elsewhere in the package are not confounded
by precision.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["NumericalFailure", "make_rng", "make_spd", "pca_project"]

# subspace-iteration rounds in pca_project, set by its accuracy gate in
# tests/test_properties.py: over 4000 random-walk trajectories (d <= 64,
# n <= 300) the worst top-2 component error against a full eigh was 8e-10 at
# 10 rounds, 1.1e-11 at 12 and 1.7e-14 (round-off) at 16
PCA_ROUNDS = 16


class NumericalFailure(RuntimeError):
    """A run produced a non-finite loss, iterate or statistic.

    The message is assembled from the fields: ``what``, the failure up to
    and including its step; ``seed_index``, the first bad row's seed within
    its kappa (``None`` where the run has no seeds); ``kappa_index``, that
    kappa's index in the run's kappa list; and ``setting``, the run's own
    "lambda 0", "horizon 100" or "kappa 10", or empty.  ``str`` joins
    ``what``, "seed index i" and ``setting`` with ", ", skipping the absent.
    """

    def __init__(self, what: str, seed_index: int | None = None, kappa_index: int = 0, setting: str = ""):
        super().__init__(what)
        self.what, self.seed_index, self.kappa_index, self.setting = what, seed_index, kappa_index, setting

    def __str__(self) -> str:
        seed = None if self.seed_index is None else f"seed index {self.seed_index}"
        return ", ".join(part for part in (self.what, seed, self.setting) if part)


def make_rng(seed) -> np.random.Generator:
    """Seeded PCG64 generator.

    PCG64 is a counter-based generator with fixed documented constants, so an
    identical seed plus call sequence reproduces the same stream on every
    platform.  ``seed`` may be an int or a tuple of ints (stream labels).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def make_spd(dim: int, kappa: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random symmetric positive definite matrix with condition number
    ``kappa``, with the orthogonal Q and the spectrum it is built from:
    ``(A, Q, eigs)``.

    Eigenvalues are log-spaced in [1, kappa]; the eigenbasis is a random
    orthogonal matrix obtained by QR of a Gaussian matrix (sign-fixed so the
    factorization is unique).  A is the symmetrized Q diag(eigs) Q^T, so a
    caller can apply A^{-1} as Q diag(1/eigs) Q^T with two matvecs.
    """
    if kappa < 1.0:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if dim == 1 and kappa != 1.0:
        raise ValueError("a 1x1 matrix cannot have condition number > 1")
    eigs = np.logspace(0.0, np.log10(kappa), dim)
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    Q = Q * d
    M = (Q * eigs) @ Q.T
    return (M + M.T) / 2.0, Q, eigs


def pca_project(points, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Project points onto the top-``k`` principal components.

    ``points`` is an ``(n, dim)`` array, or a list or tuple of ``(n_i, dim)``
    row blocks (strided views are fine), read as their rows stacked in
    order: the blocks are copied into the one ``(n, dim)`` buffer the
    centred points take anyway, so the result is bitwise that of the
    stacked array, and of an ``(n, dim)`` array with the same rows.

    Returns ``(projections, components)`` where projections has shape
    (n_points, k) holding centered dot products and components has shape
    (k, dim) with orthonormal rows ordered by descending eigenvalue of the
    centered covariance.  Sign convention: the first nonzero entry of each
    component is positive.  Zero-variance input yields all-zero projections
    and a ``RuntimeWarning`` rather than an error; a covariance that
    overflows raises ``NumericalFailure``.

    The components come from ``PCA_ROUNDS`` rounds of block subspace
    iteration, V <- qr(C V), on p = min(dim, max(8, k)) columns from a seeded
    Gaussian start, then a Rayleigh-Ritz step: an ``eigh`` of the p x p
    matrix V^T C V (Halko, Martinsson & Tropp 2011).  C is the covariance,
    built in place and scaled there by an exact power of two to a largest
    entry in [1/2, 1), so C V cannot overflow; only it and the centred points
    are full size.  A component is accurate where eigenvalue p + 1 is well
    below its own (error ~ (lam_{p+1} / lam_i) ** PCA_ROUNDS) and it is
    unique (lam_i differs from its neighbours).
    """
    if isinstance(points, (list, tuple)) and points and all(np.ndim(b) == 2 for b in points):
        blocks = [np.asarray(b, dtype=np.float64) for b in points]
    else:
        blocks = [np.asarray(points, dtype=np.float64)]
        if blocks[0].ndim != 2:
            raise ValueError(f"points must form a 2-d array, got shape {blocks[0].shape}")
    n, dim = sum(len(X) for X in blocks), blocks[0].shape[1]
    if n < 2:
        raise ValueError("need at least 2 points for PCA")
    if not 1 <= k <= dim:
        raise ValueError(f"component count {k} out of range [1, {dim}]")
    Xc = np.concatenate(blocks, out=np.empty((n, dim)))  # C order, whatever the blocks' order
    scale = max(1.0, Xc.max(), -Xc.min())
    Xc -= Xc.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite C is the error raised next
        C = Xc.T @ Xc
        C /= n - 1
    amax = max(C.max(), -C.min())  # a NaN reaches both ends of C, an inf one
    if not np.isfinite(amax):
        raise NumericalFailure("non-finite covariance in the trajectory PCA")
    _, exp = np.frexp(amax)
    np.ldexp(C, -exp, out=C)
    V = make_rng(0).standard_normal((dim, min(dim, max(8, k))))
    for _ in range(PCA_ROUNDS):
        V, _ = np.linalg.qr(C @ V)
    ritz, W = np.linalg.eigh(V.T @ (C @ V))
    # the top Ritz value against the threshold scaled as C is; a threshold
    # that overflows there is above any eigenvalue of C
    with np.errstate(over="ignore"):
        if ritz[-1] <= np.ldexp(1e-15 * scale, -exp):
            warnings.warn("zero-variance data: projections are all zero", RuntimeWarning)
    # eigh returns ascending order; take the top k, largest first
    comps = W[:, ::-1][:, :k].T @ V.T
    for row in comps:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return Xc @ comps.T, comps
