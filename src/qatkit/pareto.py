"""Stationarity diagnostics for quantized training.

The balance gradient grad f(x) + lam (x - Q(x)) vanishes exactly at the
points where loss descent and quantization-error reduction trade off; its
squared norm, averaged over the iterates, is the convergence measure used by
the rate study.  ``balance_sq_norm`` is the one place it is formed.  A lane's
per-step trace is a float64 array ``(steps, 5)`` whose columns are
``TRACE_COLUMNS[1:]``: the loss, ||g + lam e||^2, ||g||^2, ||e||^2 and
lam_t.  The module also carries the three-line error-feedback recursion that
mirrors straight-through SGD and the log-log fit of a rate study.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .quantize import QuantSpec, quantize

__all__ = [
    "TRACE_COLUMNS",
    "EfState",
    "balance_sq_norm",
    "ef_step",
    "loglog_fit",
    "write_trace_csv",
]

TRACE_COLUMNS = ("step", "loss", "pareto_sq_norm", "grad_sq_norm", "err_sq_norm", "lambda_t")


@dataclass(frozen=True)
class EfState:
    """Carried state of the error-feedback recursion: quantized parameters
    plus the accumulated quantization error."""

    w: np.ndarray
    e: np.ndarray


def balance_sq_norm(g: np.ndarray, e: np.ndarray, lam) -> np.ndarray:
    """||g + lam e||^2 over the last axis of ``g`` and ``e`` ``(..., d)``, one
    value per row; ``lam`` is a scalar, or one value per row as ``(..., 1)``."""
    p = g + lam * e
    return np.vecdot(p, p)


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


def loglog_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y): returns (slope, intercept, r_squared)."""
    x = np.log(np.asarray(xs, dtype=np.float64))
    y = np.log(np.asarray(ys, dtype=np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def write_trace_csv(path, trace: np.ndarray) -> None:
    """Dump one run's trace ``(steps, 5)``, one row per step, with
    round-trippable floats."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        # tolist gives Python floats, whose repr is the shortest round trip
        writer.writerows([i, *map(repr, row)] for i, row in enumerate(trace.tolist(), start=1))
