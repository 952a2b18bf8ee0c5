"""Gradient transport for quantized forward passes.

Two policies: the identity straight-through estimator, which passes the
upstream gradient unchanged, and the trust-masked estimator, which zeroes the
transform-domain channels that the integer quantizer clipped on the forward
pass.  ``ste_backward(policy, grad, fwd)`` takes that forward pass's
``QuantResult`` and reuses its keep-mask ``fwd.keep`` (|z_i| <= clip_factor *
sigma, from the quantizer's own transform and sigma), so the backward pass
neither recomputes H x and sigma nor can drift from the forward statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantize import INT_SCHEMES, QuantResult, QuantSpec
from .transform import hadamard_forward, hadamard_inverse, hadamard_plan

__all__ = ["STE_KINDS", "StePolicy", "identity_policy", "trust_masked_policy", "ste_backward"]

STE_KINDS = ("identity", "trust-masked")


@dataclass(frozen=True)
class StePolicy:
    kind: str  # one of STE_KINDS
    spec: QuantSpec | None = None

    def __post_init__(self):
        if self.kind not in STE_KINDS:
            raise ValueError(f"unknown STE policy {self.kind!r}")
        if self.kind == "trust-masked":
            if self.spec is None or self.spec.scheme not in INT_SCHEMES:
                raise ValueError("trust-masked STE requires an int-scheme QuantSpec")


def identity_policy() -> StePolicy:
    return StePolicy(kind="identity")


def trust_masked_policy(spec: QuantSpec) -> StePolicy:
    return StePolicy(kind="trust-masked", spec=spec)


def ste_backward(policy: StePolicy, upstream_grad: np.ndarray, fwd: QuantResult) -> np.ndarray:
    """Transport the upstream gradient through the quantizer's forward pass ``fwd``.

    identity: returns ``upstream_grad`` unchanged.
    trust-masked: H^T (keep * (H upstream_grad)), row by row over the rows of
    ``fwd``, with ``keep`` the forward keep-mask (int-plain skips the
    transform).  A batched forward pass takes a gradient of the same
    ``(S, d)`` shape.
    """
    upstream_grad = np.asarray(upstream_grad, dtype=np.float64)
    if policy.kind == "identity":
        return upstream_grad
    if fwd.keep is None:
        raise ValueError("trust-masked STE needs the forward pass of an int scheme")
    if fwd.quantized.shape != upstream_grad.shape:
        raise ValueError(f"shape mismatch: grad {upstream_grad.shape} vs forward {fwd.quantized.shape}")
    g = upstream_grad.reshape(np.size(fwd.scale), -1)  # one scale per forward row
    keep = fwd.keep.reshape(g.shape[0], -1)
    if policy.spec.scheme == "int-plain":
        return (keep * g).reshape(upstream_grad.shape)
    plan = hadamard_plan(g.shape[1])
    return hadamard_inverse(plan, keep * hadamard_forward(plan, g)).reshape(upstream_grad.shape)
