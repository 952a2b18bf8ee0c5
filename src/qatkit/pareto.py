"""Stationarity diagnostics for quantized training.

The balance gradient grad f(x) + lam (x - Q(x)) vanishes exactly at the
points where loss descent and quantization-error reduction trade off; its
squared norm, averaged over the iterates, is the convergence measure used by
the rate study.  The module also carries the three-line error-feedback
recursion that mirrors straight-through SGD, the ergodic series and the
log-log fit of a rate study.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .objectives import Objective
from .quantize import QuantSpec, quantize

__all__ = [
    "ParetoMeasure",
    "EfState",
    "pareto_gradient",
    "ef_step",
    "ergodic_series",
    "loglog_fit",
    "write_trace_csv",
]

TRACE_COLUMNS = ("step", "loss", "pareto_sq_norm", "grad_sq_norm", "err_sq_norm", "lambda_t")


@dataclass
class ParetoMeasure:
    """Per-step record of the balance-gradient, gradient, and error norms."""

    loss: list[float] = field(default_factory=list)
    pareto_sq: list[float] = field(default_factory=list)
    grad_sq: list[float] = field(default_factory=list)
    err_sq: list[float] = field(default_factory=list)
    lambda_t: list[float] = field(default_factory=list)

    def record(self, loss: float, g: np.ndarray, e: np.ndarray, lam_t: float) -> None:
        p = g + lam_t * e
        self.loss.append(float(loss))
        self.pareto_sq.append(float(p @ p))
        self.grad_sq.append(float(g @ g))
        self.err_sq.append(float(e @ e))
        self.lambda_t.append(float(lam_t))

    def __len__(self) -> int:
        return len(self.pareto_sq)


@dataclass(frozen=True)
class EfState:
    """Carried state of the error-feedback recursion: quantized parameters
    plus the accumulated quantization error."""

    w: np.ndarray
    e: np.ndarray


def pareto_gradient(obj: Objective, spec: QuantSpec, x: np.ndarray, lam: float) -> np.ndarray:
    """grad f(x) + lam (x - Q(x)), using the true gradient at x (not the
    straight-through gradient at Q(x))."""
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    x = np.asarray(x, dtype=np.float64)
    return obj.grad(x) + lam * quantize(spec, x).error


def ef_step(ef: EfState, lr: float, g_tilde: np.ndarray, spec: QuantSpec) -> EfState:
    """One step of the error-feedback recursion.

    g = lr * g_tilde - e;  w' = Q(w - g);  e' = (w - g) - w'.

    ``g_tilde`` must be the stochastic gradient evaluated at ``ef.w``.  Run
    against straight-through SGD with a shared noise stream, this reproduces
    w_t = Q(x_t) and e_t = x_t - Q(x_t) at every step.
    """
    g = lr * g_tilde - ef.e
    pre = ef.w - g
    w_new = quantize(spec, pre).quantized
    return EfState(w=w_new, e=pre - w_new)


def ergodic_series(values) -> np.ndarray:
    """Prefix means; the final entry equals the uniform-random-iterate expectation."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need at least one record")
    return np.cumsum(v) / np.arange(1, v.size + 1)


def loglog_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y): returns (slope, intercept, r_squared)."""
    x = np.log(np.asarray(xs, dtype=np.float64))
    y = np.log(np.asarray(ys, dtype=np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def write_trace_csv(path, measure: ParetoMeasure) -> None:
    """Dump one run's per-step records with round-trippable floats."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for i in range(len(measure)):
            writer.writerow(
                [
                    i + 1,
                    repr(measure.loss[i]),
                    repr(measure.pareto_sq[i]),
                    repr(measure.grad_sq[i]),
                    repr(measure.err_sq[i]),
                    repr(measure.lambda_t[i]),
                ]
            )
