"""Walsh-Hadamard transform used as the pre-quantization rotation.

The transform is the orthonormal Sylvester-ordered Hadamard matrix
H in {+-1/sqrt(n)}^{n x n}.  For n = 2^k it factors as H_n = H_a (x) H_b with
a = 2^floor(k/2) and b = n / a, so with x viewed as an (a, b) array,
Hx = H_a X H_b: two small matmuls against the cached +-1 factors (a, b <= 64
up to n = 4096) in place of a log2 n-stage butterfly.  Inputs whose length is
not a power of two are zero-padded on the forward pass and truncated on the
inverse, which preserves orthogonality on the embedded subspace.  Every
function acts on the last axis of a ``(..., n)`` batch, and each row of a
batch is bitwise the transform of that row alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["HadamardPlan", "hadamard_plan", "hadamard_forward", "hadamard_inverse"]


@dataclass(frozen=True)
class HadamardPlan:
    """Transform geometry for one row length and its read-only +-1 Sylvester
    factors: H_padded_dim = left (x) right."""

    logical_dim: int
    padded_dim: int
    scale: float
    left: np.ndarray = field(compare=False, repr=False)
    right: np.ndarray = field(compare=False, repr=False)


def _sylvester(n: int) -> np.ndarray:
    """The unnormalized n x n Sylvester Hadamard matrix (n a power of two), read-only."""
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=32)
def hadamard_plan(dim: int) -> HadamardPlan:
    """Plan for input length ``dim``: pad to the next power of two.  Plans are
    cached, so the factors are built once per recently used ``dim``."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    padded = 1 << (dim - 1).bit_length()
    a = 1 << (padded.bit_length() - 1) // 2
    return HadamardPlan(
        logical_dim=dim,
        padded_dim=padded,
        scale=1.0 / math.sqrt(padded),
        left=_sylvester(a),
        right=_sylvester(padded // a),
    )


def _rotate(plan: HadamardPlan, x: np.ndarray) -> np.ndarray:
    """scale * H x over the last axis (length ``plan.padded_dim``) as the
    stacked product H_a X H_b: every row is one matmul pair of the same
    shapes and layout, so BLAS takes the same path for a batch as for a lone
    row."""
    lead = x.shape[:-1]
    blocks = np.ascontiguousarray(x).reshape(lead + (len(plan.left), len(plan.right)))
    z = (plan.left @ blocks @ plan.right).reshape(lead + (plan.padded_dim,))
    z *= plan.scale
    return z


def _check_shape(x: np.ndarray, dim: int) -> None:
    if x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(f"expected a vector or a batch (..., {dim}), got shape {x.shape}")


def hadamard_forward(plan: HadamardPlan, x: np.ndarray) -> np.ndarray:
    """z = Hx on the zero-padded input, over the last axis of a ``(..., n)``
    batch; the last axis of the output has length ``plan.padded_dim``."""
    x = np.asarray(x, dtype=np.float64)
    _check_shape(x, plan.logical_dim)
    if plan.padded_dim != plan.logical_dim:
        padded = np.zeros(x.shape[:-1] + (plan.padded_dim,))
        padded[..., : plan.logical_dim] = x
        x = padded
    return _rotate(plan, x)


def hadamard_inverse(plan: HadamardPlan, z: np.ndarray) -> np.ndarray:
    """x = H^T z over the last axis of a ``(..., padded_dim)`` batch,
    truncated back to the logical length."""
    z = np.asarray(z, dtype=np.float64)
    _check_shape(z, plan.padded_dim)
    return _rotate(plan, z)[..., : plan.logical_dim]
