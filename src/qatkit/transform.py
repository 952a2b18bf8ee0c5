"""Fast Walsh-Hadamard transform used as the pre-quantization rotation.

The transform is the orthonormal Sylvester-ordered Hadamard matrix
H in {+-1/sqrt(n)}^{n x n} applied with an O(n log n) butterfly; H is never
materialized.  Inputs whose length is not a power of two are zero-padded on
the forward pass and truncated on the inverse, which preserves orthogonality
on the embedded subspace.  Every function acts on the last axis, so a
``(rows, n)`` array is transformed row by row in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["HadamardPlan", "hadamard_plan", "fwht_unnormalized", "hadamard_forward", "hadamard_inverse"]


@dataclass(frozen=True)
class HadamardPlan:
    """Transform geometry for one row length."""

    logical_dim: int
    padded_dim: int
    scale: float


def hadamard_plan(dim: int) -> HadamardPlan:
    """Plan for input length ``dim``: pad to the next power of two."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    padded = 1 << (dim - 1).bit_length()
    return HadamardPlan(logical_dim=dim, padded_dim=padded, scale=1.0 / math.sqrt(padded))


def fwht_unnormalized(x: np.ndarray) -> np.ndarray:
    """Butterfly over the last axis (length n, a power of two); returns a new array.

    Each stage writes the pair sums v[2i] + v[2i+1] to the first half of the
    other of two buffers and the differences to the second half: the operands
    of the stride-2^k butterfly in the same order, so bitwise the same result
    in Sylvester order.  Applying this twice multiplies the input by n.
    """
    src = np.asarray(x, dtype=np.float64)
    n = src.shape[-1]
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    if n == 1:
        return src.copy()
    bufs = (np.empty(src.shape), np.empty(src.shape))
    m = n // 2
    for stage in range(n.bit_length() - 1):
        dst = bufs[stage & 1]
        np.add(src[..., 0::2], src[..., 1::2], out=dst[..., :m])
        np.subtract(src[..., 0::2], src[..., 1::2], out=dst[..., m:])
        src = dst
    return src


def _check_shape(x: np.ndarray, dim: int) -> None:
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"expected vector or rows of dim {dim}, got shape {x.shape}")


def hadamard_forward(plan: HadamardPlan, x: np.ndarray) -> np.ndarray:
    """z = Hx on the zero-padded input (1-D, or 2-D row by row); the last axis
    of the output has length ``plan.padded_dim``."""
    x = np.asarray(x, dtype=np.float64)
    _check_shape(x, plan.logical_dim)
    if plan.padded_dim != plan.logical_dim:
        padded = np.zeros(x.shape[:-1] + (plan.padded_dim,))
        padded[..., : plan.logical_dim] = x
        x = padded
    z = fwht_unnormalized(x)
    z *= plan.scale
    return z


def hadamard_inverse(plan: HadamardPlan, z: np.ndarray) -> np.ndarray:
    """x = H^T z (1-D, or 2-D row by row), truncated back to the logical length."""
    z = np.asarray(z, dtype=np.float64)
    _check_shape(z, plan.padded_dim)
    out = fwht_unnormalized(z)
    out *= plan.scale
    return out[..., : plan.logical_dim]
