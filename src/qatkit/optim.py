"""Optimizer steps: SGD, AdamW, and their Pareto-corrected variants.

Each step is a plain update rule: it takes the step's learning rate ``lr``
and, for a corrected step, its correction coefficient ``lam_t`` as arguments,
and reads no schedule or step index.  The caller computes both, and
``lambda_at`` gives the ramp lam_t = 0 while t/T <= silence_ratio, then
lam * (t/T - silence_ratio) / (1 - silence_ratio).

The corrected SGD step folds the weighted quantization error into the
gradient, x' = x - lr (g + lam_t e); with an SGD base the coupled (error
added to the gradient) and decoupled (error subtracted after the update)
orderings are the same formula, and both entry points share one
implementation so their outputs are bitwise identical.

For AdamW the two orderings genuinely differ.  The decoupled variant runs the
plain AdamW update and then subtracts lr * lam_t * e outside the
preconditioning path; the coupled variant feeds g + lam_t e through the
moment estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantize import QuantSpec, quantize

__all__ = [
    "AdamState",
    "OptimConfig",
    "lambda_at",
    "sgd_step",
    "cage_sgd_step",
    "adamw_step",
    "cage_adamw_decoupled_step",
    "cage_adamw_coupled_step",
    "grad_clip",
]


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

    def __post_init__(self):
        # comparisons written so that a NaN fails them
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")
        if not 0.0 <= self.silence_ratio < 1.0:
            raise ValueError(f"silence_ratio must be in [0, 1), got {self.silence_ratio}")


def lambda_at(cfg: OptimConfig, t: int, total_steps: int) -> float:
    """Correction coefficient at step t (1-based) of a ``total_steps`` run:
    zero through the silence period, then a linear ramp reaching ``cfg.lam``
    at t = ``total_steps``."""
    r = min(max(t / total_steps, 0.0), 1.0)
    s = cfg.silence_ratio
    if r <= s:
        return 0.0
    return cfg.lam * (r - s) / (1.0 - s)


@dataclass(frozen=True)
class AdamState:
    """Adam moments shaped like the parameters: ``(d,)``, or ``(S, d)`` for a
    batch of S runs that share the step count and the lr."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)


def sgd_step(x: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    """x' = x - lr g."""
    return x - lr * g


def cage_sgd_step(x: np.ndarray, g: np.ndarray, e: np.ndarray, lr: float, lam_t: float) -> np.ndarray:
    """Error-corrected SGD: x' = x - lr (g + lam_t e).

    Coupled and decoupled corrections coincide for an SGD base, so this single
    formula serves both.
    """
    return sgd_step(x, g + lam_t * e, lr)


def adamw_step(state: AdamState, x: np.ndarray, g: np.ndarray, cfg: OptimConfig, lr: float):
    """One AdamW step at learning rate ``lr``, with decoupled weight decay
    applied before the update.  Returns ``(state', x')``."""
    t = state.t + 1
    xd = (1.0 - lr * cfg.weight_decay) * x
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (g * g)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    x_new = xd - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return AdamState(m=m, v=v, t=t), x_new


def cage_adamw_decoupled_step(
    state: AdamState,
    x: np.ndarray,
    g: np.ndarray,
    cfg: OptimConfig,
    lr: float,
    lam_t: float,
    spec: QuantSpec,
):
    """AdamW step followed by the out-of-preconditioner correction.

    x' = adamw(x, g) - lr * lam_t * e_t, with e_t the quantization error of
    the decayed parameters (1 - lr * weight_decay) x, the literal update
    order.  With ``lam_t`` 0, or under the identity scheme ``none`` (e_t = +0.0),
    the step is bitwise identical to plain AdamW.
    """
    new_state, x_tilde = adamw_step(state, x, g, cfg, lr)
    if lam_t == 0.0:
        return new_state, x_tilde
    e_t = quantize(spec, (1.0 - lr * cfg.weight_decay) * x).error
    return new_state, x_tilde - lr * lam_t * e_t


def cage_adamw_coupled_step(
    state: AdamState,
    x: np.ndarray,
    g: np.ndarray,
    e: np.ndarray,
    cfg: OptimConfig,
    lr: float,
    lam_t: float,
):
    """AdamW on the augmented gradient g + lam_t e; no post-step correction.

    The error rides through the moment estimates, so the correction is
    effectively preconditioned by the Adam statistics.
    """
    if lam_t == 0.0:
        return adamw_step(state, x, g, cfg, lr)
    return adamw_step(state, x, g + lam_t * e, cfg, lr)


def grad_clip(g: np.ndarray, max_norm: float) -> np.ndarray:
    """Norm clipping g * min(1, max_norm / ||g||) of a gradient ``(d,)``, or
    of each row of a batch ``(S, d)`` on its own.

    The row norm sqrt(vecdot(g, g)) is ``np.linalg.norm``'s sqrt(g.dot(g)), so
    each row is bitwise its lone clip; a row with a NaN norm is scaled by NaN.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    # a row within the bound divides max_norm by itself: a factor of exactly 1
    return g * (max_norm / np.maximum(np.sqrt(np.vecdot(g, g)), max_norm))[..., None]
