"""Desk-scale experiment loops driven by the CLI and the demo scripts.

Three lanes:

* the scalar floor-quantized problem, where corrected SGD lands on the
  closed-form balance points x(lam) = 1 / (2 (1 + lam));
* condition-number-swept quadratics with a 4-bit quantized forward pass,
  comparing plain and corrected optimizers on the final optimality gap; the
  seeds of one (kappa, optimizer) cell run as one ``(S, d)`` state on a
  stack of their problems;
* the ergodic-rate study, which runs corrected SGD over a grid of horizons
  and fits the log-log decay of the mean squared balance gradient; the
  seeds of one horizon run as a batch, one ``(S, d)`` state, through the
  corrected-SGD loop the scalar lane also runs.

Every run owns its generators (seeded by integer tuples), so replicates are
reproducible and independent of scheduling.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .numerics import make_rng, power_iteration_lmax, make_spd
from .objectives import Objective, quadratic, rosenbrock, toy_scalar
from .optim import (
    AdamState,
    OptimConfig,
    adamw_step,
    cage_adamw_coupled_step,
    cage_adamw_decoupled_step,
    cage_sgd_step,
    grad_clip,
    lambda_at,
    sgd_step,
)
from .pareto import ParetoMeasure
from .qat_grad import STE_KINDS, identity_policy, trust_masked_policy, ste_backward
from .quantize import INT_SCHEMES, QuantSpec, quantize

__all__ = [
    "NumericalFailure",
    "OPTIMIZERS",
    "LR_SCHEDULES",
    "RATE_OBJECTIVES",
    "lr_at",
    "ToyParetoResult",
    "run_toy_pareto",
    "QuadraticRun",
    "make_quadratic_problem",
    "run_quadratic",
    "ConvergenceRun",
    "make_rate_objective",
    "run_convergence_run",
]

OPTIMIZERS = ("sgd", "adamw", "cage-sgd", "cage-adamw-dec", "cage-adamw-cpl")
LR_SCHEDULES = ("constant", "cosine")
RATE_OBJECTIVES = ("rosenbrock", "quadratic")

# seed-stream labels so the problem draw, init, and noise never alias
_STREAM_PROBLEM = 11
_STREAM_INIT = 12
_STREAM_NOISE = 13
# steps of gradient noise each seed's generator draws at once in the rate
# lane; a (k, d) draw equals k successive d-draws, so the block size does not
# change the stream
_NOISE_BLOCK = 128


class NumericalFailure(RuntimeError):
    """A run produced a non-finite loss or iterate."""


def lr_at(base_lr: float, t: int, total_steps: int, schedule: str = "constant") -> float:
    """Step-t learning rate; cosine decay includes a 10% linear warmup."""
    if schedule not in LR_SCHEDULES:
        raise ValueError(f"unknown lr schedule {schedule!r}")
    if schedule == "constant":
        return base_lr
    warm = max(1, math.ceil(0.1 * total_steps))
    if t <= warm:
        return base_lr * t / warm
    progress = (t - warm) / max(1, total_steps - warm)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def _check_finite(x: np.ndarray, loss, where: str) -> None:
    """NumericalFailure unless the loss (a float, or one per seed) and the
    iterate are finite."""
    if not (np.isfinite(loss).all() and np.isfinite(x).all()):
        raise NumericalFailure(f"non-finite value during {where}")


def _corrected_sgd(
    obj: Objective,
    spec: QuantSpec | None,
    x: np.ndarray,
    lr: float,
    lam: float,
    steps: int,
    trace: ParetoMeasure | None = None,
    noise_std: float = 0.0,
    noise_rngs: Sequence[np.random.Generator] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` corrected-SGD steps x <- x - lr (g + noise_std xi + lam e)
    on an ``(S, d)`` state, with e = x - Q(x) and row s's noise xi drawn from
    ``noise_rngs[s]`` (unused when ``noise_std`` is 0).

    Returns the final state and the ``(S, steps)`` squared balance-gradient
    norms ||g + lam e||^2, taken at each iterate before its step; ``trace``
    records the first row.
    """
    noise = np.empty((len(x), _NOISE_BLOCK, obj.dim))
    pareto_sq = np.empty((len(x), steps))
    for t in range(steps):
        loss, g = obj.value_and_grad(x)
        e = quantize(spec, x).error if spec is not None else np.zeros_like(x)
        p = g + lam * e
        pareto_sq[:, t] = np.vecdot(p, p)
        if trace is not None:
            trace.record(loss[0], g[0], e[0], lam)
        if noise_std == 0.0:
            g_tilde = g
        else:
            i = t % _NOISE_BLOCK
            if i == 0:
                k = min(_NOISE_BLOCK, steps - t)
                for rng, block in zip(noise_rngs, noise):
                    rng.standard_normal(out=block[:k])
            g_tilde = g + noise_std * noise[:, i]
        x = cage_sgd_step(x, g_tilde, e, lr, lam)
        _check_finite(x, loss, "corrected-SGD run")
    return x, pareto_sq


# ---------------------------------------------------------------------------
# scalar floor-quantized lane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyParetoResult:
    lam: float
    final_x: float
    pareto_grad_abs: float
    ste_grad_abs: float
    trace: ParetoMeasure


def run_toy_pareto(lam: float, lr: float = 0.05, steps: int = 5000, x0: float = 0.9) -> ToyParetoResult:
    """Corrected SGD with constant lam on the scalar problem, floor grid 1.

    The iterate moves by x - lr (grad f(x) + lam (x - Q(x))); for lam > 0 it
    converges to the balance point 1 / (2 (1 + lam)) from x0 = 0.9, while the
    straight-through gradient at Q(x) stays bounded away from zero.
    """
    obj = toy_scalar()
    spec = QuantSpec(scheme="floor-toy")
    trace = ParetoMeasure(lam=lam)
    (x,), _ = _corrected_sgd(obj, spec, np.array([[float(x0)]]), lr, lam, steps, trace)
    fwd = quantize(spec, x)
    return ToyParetoResult(
        lam=lam,
        final_x=float(x[0]),
        pareto_grad_abs=float(np.abs(obj.grad(x) + lam * fwd.error)[0]),
        ste_grad_abs=float(np.abs(obj.grad(fwd.quantized))[0]),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# quadratic lane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticRun:
    final_gaps: list[float]
    final_losses: list[float]
    trace: ParetoMeasure  # the first row's
    iterates: np.ndarray | None = None  # the first row's


def make_quadratic_problem(dim: int, kappa: float, seeds: Sequence[int], sigma0: float = 1.0):
    """Shared problem draw for the (kappa, seed) cells of a seed list: the
    SPD matrices and targets as one stacked quadratic, and the ``(S, d)``
    inits.

    Each seed draws from its own generator, so a seed's problem does not
    depend on which other seeds share the stack.  All optimizers in a cell
    must see the same problems so that per-seed comparisons are paired.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    b = np.empty((len(seeds), dim))
    x0 = np.empty((len(seeds), dim))
    for i, seed in enumerate(seeds):
        rng = make_rng((_STREAM_PROBLEM, seed, int(round(kappa * 1000))))
        spd = make_spd(dim, kappa, rng)
        if i == 0:
            # allocated after make_spd's temporaries are gone, not next to them
            A = np.empty((len(seeds), dim, dim))
        A[i] = spd
        b[i] = rng.standard_normal(dim)
        x0[i] = sigma0 * rng.standard_normal(dim)
    return quadratic(A, b), x0


def run_quadratic(
    obj: Objective,
    x0: np.ndarray,
    optimizer: str,
    steps: int,
    spec: QuantSpec | None,
    cfg: OptimConfig,
    lr_schedule: str = "constant",
    ste_kind: str = "trust-masked",
    grad_clip_norm: float | None = 1.0,
    record_iterates: bool = False,
) -> QuadraticRun:
    """Run one optimizer on quantized-forward quadratics, one run per row of
    ``x0`` ``(S, d)``, all rows stepped together as one ``(S, d)`` state.

    Row i runs on problem i of a stacked ``obj`` (see ``make_quadratic_problem``)
    and is bitwise its lone run: clipping is per row (off when
    ``grad_clip_norm`` is None or 0), and the lr and lambda schedules are
    shared scalars; a non-corrected optimizer ignores ``cfg.lam``.  The loss
    and gradient are evaluated at Q(x) with the gradient transported back by
    the chosen estimator; the reported gap is f(Q(x_T)) - f* (or f(x_T) - f*
    when quantization is disabled), one per row.  The trace and the iterates
    are the first row's.
    """
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if ste_kind not in STE_KINDS:
        raise ValueError(f"unknown ste_kind {ste_kind!r}")
    if spec is not None and ste_kind == "trust-masked" and spec.scheme in INT_SCHEMES:
        policy = trust_masked_policy(spec)
    else:
        policy = identity_policy()
    lam_for_measure = cfg.lam if optimizer.startswith("cage") else 0.0
    trace = ParetoMeasure(lam=lam_for_measure)
    x = np.array(x0, dtype=np.float64, ndmin=2)
    state = AdamState.zeros(x.shape)
    snapshots = np.empty((steps, x.shape[1])) if record_iterates else None

    for t in range(1, steps + 1):
        a_t = lr_at(cfg.lr, t, steps, lr_schedule)
        if spec is not None:
            qres = quantize(spec, x)
            loss, g_at_q = obj.value_and_grad(qres.quantized)
            g = ste_backward(policy, g_at_q, qres)
            e = qres.error
        else:
            loss, g = obj.value_and_grad(x)
            e = np.zeros_like(x)
        if grad_clip_norm:
            g = grad_clip(g, grad_clip_norm)

        if optimizer.startswith("cage"):
            lam_t = cfg.lam if optimizer == "cage-sgd" else lambda_at(cfg, t)
        else:
            lam_t = 0.0
        # the trace's gradient at x is taken for the first row alone
        trace.record(loss[0], obj.grad(x[:1])[0], e[0], lam_t)

        if optimizer == "sgd":
            x = sgd_step(x, g, a_t)
        elif optimizer == "adamw":
            state, x = adamw_step(state, x, g, cfg, lr=a_t)
        elif optimizer == "cage-sgd":
            x = cage_sgd_step(x, g, e, a_t, lam_t)
        elif optimizer == "cage-adamw-dec":
            state, x = cage_adamw_decoupled_step(state, x, g, cfg, t, spec=spec, lr=a_t)
        else:
            state, x = cage_adamw_coupled_step(state, x, g, e, cfg, t, lr=a_t)
        _check_finite(x, loss, "quadratic run")
        if snapshots is not None:
            snapshots[t - 1] = x[0]

    x_final = quantize(spec, x).quantized if spec is not None else x
    final_losses = obj.loss(x_final)
    return QuadraticRun(
        final_gaps=(final_losses - obj.f_star).tolist(),
        final_losses=final_losses.tolist(),
        trace=trace,
        iterates=snapshots,
    )


# ---------------------------------------------------------------------------
# ergodic-rate lane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRun:
    alpha: float
    ergodic_means: list[float]
    trace: ParetoMeasure | None  # the first seed's


def make_rate_objective(name: str, dim: int, kappa: float = 10.0, seed: int = 0,
                        lipschitz: float = 1000.0) -> tuple[Objective, float]:
    """Objective for the rate study plus its gradient-Lipschitz estimate.

    Quadratics get a power-iteration estimate of the top curvature; the
    non-convex objective uses the configured constant.
    """
    if name not in RATE_OBJECTIVES:
        raise ValueError(f"unknown rate objective {name!r}")
    if name == "rosenbrock":
        return rosenbrock(dim), lipschitz
    rng = make_rng((_STREAM_PROBLEM, seed, int(round(kappa * 1000))))
    A = make_spd(dim, kappa, rng)
    lhat = power_iteration_lmax(A, make_rng((_STREAM_PROBLEM, seed, 7)))
    return quadratic(A, rng.standard_normal(dim)), lhat


def run_convergence_run(
    obj: Objective,
    spec: QuantSpec | None,
    lam: float,
    noise_std: float,
    horizon: int,
    seeds: Sequence[int],
    lipschitz: float,
    x0_std: float = 0.25,
    keep_trace: bool = False,
) -> ConvergenceRun:
    """Corrected SGD at fixed horizon with alpha = min(1/L, 1/sqrt(T)), one
    run per seed, all seeds stepped together as one ``(S, d)`` state.

    The squared balance-gradient norm is recorded at each iterate before the
    step; its ergodic mean over the horizon, per seed, is the rate study's
    observable.  The init draw depends only on the seed, so runs at different
    horizons share their starting point.  Each seed has its own noise
    generator, so a seed's run does not depend on which other seeds share
    the batch.  ``keep_trace`` records the first seed's trace.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    alpha = min(1.0 / lipschitz, 1.0 / math.sqrt(horizon))
    x = np.stack([x0_std * make_rng((_STREAM_INIT, seed)).standard_normal(obj.dim) for seed in seeds])
    trace = ParetoMeasure(lam=lam) if keep_trace else None
    noise_rngs = [make_rng((_STREAM_NOISE, seed, horizon)) for seed in seeds]
    _, pareto_sq = _corrected_sgd(obj, spec, x, alpha, lam, horizon, trace, noise_std, noise_rngs)
    return ConvergenceRun(
        alpha=alpha,
        # rows are contiguous, so each mean sums in the order of a lone run
        ergodic_means=pareto_sq.mean(axis=1).tolist(),
        trace=trace,
    )
