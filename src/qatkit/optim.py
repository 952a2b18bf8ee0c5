"""Optimizer steps: SGD, AdamW, and their Pareto-corrected variants.

Each step is a plain update rule: it takes the step's learning rate ``lr``
and, for a corrected step, its correction coefficients as arguments, and
reads no schedule, step index or quantizer.  The caller computes all of
them, and ``lambda_at`` gives the ramp lam_t = 0 while t/T <=
silence_ratio, then lam * (t/T - silence_ratio) / (1 - silence_ratio).

There is one corrected rule per base optimizer family; a coefficient may be
one value per row, so one call steps rows with different corrections.

* SGD: x' = x - lr (g + lam e).  With an SGD base the coupled (error added
  to the gradient) and decoupled (error subtracted after the update)
  orderings are the same formula.
* AdamW: the AdamW step on g + lam_cpl e, then minus lr lam_dec e_dec, with
  e_dec the error at the decayed point.  Here the orderings differ: coupled
  (lam_dec = 0) feeds the error through the moment estimates, decoupled
  (lam_cpl = 0) subtracts it outside the preconditioning path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BETA1",
    "BETA2",
    "EPS",
    "AdamState",
    "OptimConfig",
    "lambda_at",
    "sgd_step",
    "cage_sgd_step",
    "adamw_step",
    "cage_adamw_step",
    "grad_clip",
]


# Adam moment decays and denominator guard: the usual low-bit pretraining setup
BETA1 = 0.9
BETA2 = 0.95
EPS = 1e-8


@dataclass(frozen=True)
class OptimConfig:
    """Hyperparameters shared by the optimizer family.  Every field is
    required: the defaults live in the CLI's option table."""

    lr: float
    weight_decay: float
    lam: float
    silence_ratio: float

    def __post_init__(self):
        # comparisons written so that a NaN fails them
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
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


@dataclass
class AdamState:
    """Adam moments shaped like the parameters: ``(d,)``, or ``(S, d)`` for a
    batch of S runs that share the step count and the lr.

    A mutable workspace: ``adamw_step`` and ``cage_adamw_step`` advance the
    state they are given in place (``m``, ``v`` and ``t``) and return it, so
    a caller that steps one state twice must pass a copy.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)


def sgd_step(x: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    """x' = x - lr g."""
    return x - lr * g


def cage_sgd_step(x: np.ndarray, g: np.ndarray, e: np.ndarray, lr: float, lam_t) -> np.ndarray:
    """Error-corrected SGD: x' = x - lr (g + lam_t e), with ``lam_t`` a
    scalar or per-row ``(..., 1)``.

    Coupled and decoupled corrections coincide for an SGD base, so this single
    formula serves both.
    """
    return sgd_step(x, g + lam_t * e, lr)


def adamw_step(state: AdamState, x: np.ndarray, g: np.ndarray, cfg: OptimConfig, lr: float):
    """One AdamW step at learning rate ``lr``, with decoupled weight decay
    applied before the update: m' = b1 m + (1 - b1) g, v' = b2 v + (1 - b2) g^2,
    x' = (1 - lr wd) x - (lr m' / (1 - b1^t)) / (sqrt(v' / (1 - b2^t)) + eps).
    Advances ``state`` in place and returns ``(state, x')``; ``x`` is not
    written."""
    state.t = t = state.t + 1
    xd = (1.0 - lr * cfg.weight_decay) * x if cfg.weight_decay else x  # 1.0 * x is x bitwise
    state.m *= BETA1
    state.m += (1.0 - BETA1) * g
    g2 = g * g
    g2 *= 1.0 - BETA2
    state.v *= BETA2
    state.v += g2
    step = state.m / (1.0 - BETA1**t)
    step *= lr
    denom = np.divide(state.v, 1.0 - BETA2**t, out=g2)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    return state, xd - step


def cage_adamw_step(
    state: AdamState,
    x: np.ndarray,
    g: np.ndarray,
    e: np.ndarray,
    e_dec: np.ndarray,
    cfg: OptimConfig,
    lr: float,
    lam_cpl,
    lam_dec,
):
    """Error-corrected AdamW: the AdamW step on g + lam_cpl e, then
    x' - lr lam_dec e_dec.  Advances ``state`` in place and returns
    ``(state, x')``.

    ``lam_cpl`` and ``lam_dec`` are scalars or per-row ``(..., 1)`` arrays.
    ``e`` is the error at x and ``e_dec`` the error at the decayed point
    (1 - lr weight_decay) x, the literal decoupled update order; the caller
    quantizes.  With both coefficients 0 the step is AdamW's, up to the sign
    of a zero entry (g + 0 e turns a -0.0 into +0.0).
    """
    g_cpl = lam_cpl * e
    g_cpl += g
    state, x_new = adamw_step(state, x, g_cpl, cfg, lr)
    x_new -= lr * lam_dec * e_dec
    return state, x_new


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
