"""Gradient transport for quantized forward passes.

Two estimators.  The identity straight-through estimator passes the upstream
gradient unchanged: the gradient at Q(x) is used as is, so it needs no call.
The trust-masked estimator, ``ste_backward(spec, grad, fwd)``, zeroes the
transform-domain channels that the integer quantizer clipped on the forward
pass.  It takes that forward pass's ``QuantResult`` and reuses its keep-mask
``fwd.keep`` (|z_i| <= clip_factor * sigma, from the quantizer's own
transform and sigma), so the backward pass neither recomputes H x and sigma
nor can drift from the forward statistics.
"""

from __future__ import annotations

import numpy as np

from .quantize import INT_SCHEMES, QuantResult, QuantSpec
from .transform import hadamard_forward, hadamard_inverse, hadamard_plan

__all__ = ["STE_KINDS", "ste_backward"]

STE_KINDS = ("identity", "trust-masked")


def ste_backward(spec: QuantSpec, upstream_grad: np.ndarray, fwd: QuantResult) -> np.ndarray:
    """Trust-masked transport of the upstream gradient through the forward
    pass ``fwd`` of the int scheme ``spec``.

    Returns H^T (keep * (H upstream_grad)) row by row, with ``keep`` the
    forward keep-mask (int-plain skips the transform).  The rows are those
    ``quantize`` used: ``spec.row_length`` entries each, or the whole vector
    when it is unset, so ``spec`` must be the forward pass's own.  A batched
    forward pass takes a gradient of the same ``(..., d)`` shape.
    """
    if spec.scheme not in INT_SCHEMES or fwd.keep is None:
        raise ValueError("trust-masked STE needs an int-scheme QuantSpec and its forward pass")
    upstream_grad = np.asarray(upstream_grad, dtype=np.float64)
    if fwd.quantized.shape != upstream_grad.shape:
        raise ValueError(f"shape mismatch: grad {upstream_grad.shape} vs forward {fwd.quantized.shape}")
    if spec.scheme == "int-plain":
        return fwd.keep * upstream_grad
    g = upstream_grad.reshape(-1, spec.row_length or upstream_grad.shape[-1])
    keep = fwd.keep.reshape(len(g), -1)  # rows padded to the transform length
    plan = hadamard_plan(g.shape[1])
    return hadamard_inverse(plan, keep * hadamard_forward(plan, g)).reshape(upstream_grad.shape)
