"""Optimizer steps: SGD, AdamW, and their Pareto-corrected variants.

The corrected SGD step folds the weighted quantization error into the
gradient, x' = x - lr (g + lam_t e); with an SGD base the coupled (error
added to the gradient) and decoupled (error subtracted after the update)
orderings are the same formula, and both entry points share one
implementation so their outputs are bitwise identical.

For AdamW the two orderings genuinely differ.  The decoupled variant runs the
plain AdamW update and then subtracts lr * lam_t * e outside the
preconditioning path; the coupled variant feeds g + lam_t e through the
moment estimates.  The correction coefficient ramps linearly after a silence
period: lam_t = 0 while t/T <= silence_ratio, then
lam * (t/T - silence_ratio) / (1 - silence_ratio).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantize import QuantSpec, quant_error

__all__ = [
    "AdamState",
    "OptimConfig",
    "LambdaSchedule",
    "lambda_at",
    "sgd_step",
    "cage_sgd_step",
    "adamw_step",
    "cage_adamw_decoupled_step",
    "cage_adamw_coupled_step",
    "grad_clip",
]


@dataclass(frozen=True)
class LambdaSchedule:
    """Silence-then-linear-ramp schedule for the correction coefficient."""

    lam: float
    silence_ratio: float
    total_steps: int

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if not 0.0 <= self.silence_ratio < 1.0:
            raise ValueError(f"silence_ratio must be in [0, 1), got {self.silence_ratio}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be positive, got {self.total_steps}")


def lambda_at(sched: LambdaSchedule, t: int) -> float:
    """Coefficient at step t (1-based): zero through the silence period, then
    a linear ramp reaching ``lam`` at t = total_steps."""
    r = min(max(t / sched.total_steps, 0.0), 1.0)
    s = sched.silence_ratio
    if r <= s:
        return 0.0
    return sched.lam * (r - s) / (1.0 - s)


@dataclass(frozen=True)
class OptimConfig:
    """Hyperparameters shared by the optimizer family.

    Defaults follow the usual low-bit pretraining setup: beta1=0.9,
    beta2=0.95, eps=1e-8, weight_decay=0.1.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    lam: float = 0.0
    silence_ratio: float = 0.0
    total_steps: int = 1

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")

    def schedule(self) -> LambdaSchedule:
        return LambdaSchedule(self.lam, self.silence_ratio, self.total_steps)


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


def sgd_step(x: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    """x' = x - lr g."""
    return x - lr * g


def cage_sgd_step(x: np.ndarray, g: np.ndarray, e: np.ndarray, lr: float, lam_t: float) -> np.ndarray:
    """Error-corrected SGD: x' = x - lr (g + lam_t e).

    Coupled and decoupled corrections coincide for an SGD base, so this single
    formula serves both.
    """
    return sgd_step(x, g + lam_t * e, lr)


def adamw_step(state: AdamState, x: np.ndarray, g: np.ndarray, cfg: OptimConfig, lr: float | None = None):
    """One AdamW step with decoupled weight decay applied before the update.

    Returns ``(state', x')``.  ``lr`` overrides ``cfg.lr`` for schedules.
    """
    a = cfg.lr if lr is None else lr
    t = state.t + 1
    xd = (1.0 - a * cfg.weight_decay) * x
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (g * g)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    x_new = xd - a * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return AdamState(m=m, v=v, t=t), x_new


def cage_adamw_decoupled_step(
    state: AdamState,
    x: np.ndarray,
    g: np.ndarray,
    cfg: OptimConfig,
    t: int,
    spec: QuantSpec | None = None,
    lr: float | None = None,
):
    """AdamW step followed by the out-of-preconditioner correction.

    x' = adamw(x, g) - lr * lam_t * e_t, with e_t the quantization error of
    the decayed parameters (1 - lr * weight_decay) x, the literal update
    order.  During the silence period, and without a quantizer (``spec``
    None, so e_t = 0), the step is bitwise identical to plain AdamW.
    """
    a = cfg.lr if lr is None else lr
    lam_t = lambda_at(cfg.schedule(), t)
    new_state, x_tilde = adamw_step(state, x, g, cfg, lr=lr)
    if lam_t == 0.0 or spec is None:
        return new_state, x_tilde
    e_t = quant_error(spec, (1.0 - a * cfg.weight_decay) * x)
    return new_state, x_tilde - a * lam_t * e_t


def cage_adamw_coupled_step(
    state: AdamState,
    x: np.ndarray,
    g: np.ndarray,
    e: np.ndarray,
    cfg: OptimConfig,
    t: int,
    lr: float | None = None,
):
    """AdamW on the augmented gradient g + lam_t e; no post-step correction.

    The error rides through the moment estimates, so the correction is
    effectively preconditioned by the Adam statistics.
    """
    lam_t = lambda_at(cfg.schedule(), t)
    if lam_t == 0.0:
        return adamw_step(state, x, g, cfg, lr=lr)
    return adamw_step(state, x, g + lam_t * e, cfg, lr=lr)


def grad_clip(g: np.ndarray, max_norm: float) -> np.ndarray:
    """Global-norm clipping: g * min(1, max_norm / ||g||)."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = float(np.linalg.norm(g))
    if norm <= max_norm:
        return g
    return g * (max_norm / norm)
