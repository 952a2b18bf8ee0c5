"""Stationarity diagnostics for quantized training.

The balance gradient grad f(x) + lam (x - Q(x)) vanishes exactly at the
points where loss descent and quantization-error reduction trade off; its
squared norm, averaged over the iterates, is the convergence measure used by
the rate study.  ``balance_sq_norm`` is the one place it is formed.  A lane's
per-step trace is a float64 array ``(steps, 5)`` whose columns are
``TRACE_COLUMNS[1:]``: the loss, ||g + lam e||^2, ||g||^2, ||e||^2 and
lam_t.  The module also carries the log-log fit of a rate study.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "TRACE_COLUMNS",
    "balance_sq_norm",
    "loglog_fit",
    "write_trace_csv",
]

TRACE_COLUMNS = ("step", "loss", "pareto_sq_norm", "grad_sq_norm", "err_sq_norm", "lambda_t")
_TRACE_ROW = "%d" + ",%r" * (len(TRACE_COLUMNS) - 1) + "\r\n"


def balance_sq_norm(g: np.ndarray, e: np.ndarray, lam) -> np.ndarray:
    """||g + lam e||^2 over the last axis of ``g`` and ``e`` ``(..., d)``, one
    value per row; ``lam`` is a scalar, or one value per row as ``(..., 1)``."""
    p = g + lam * e
    return np.vecdot(p, p)


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
    """Dump one run's trace ``(steps, 5)``, one row per step: the step, then
    each value's round-trippable repr, with csv-style ``\\r\\n`` line ends."""
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        # tolist gives Python floats, whose repr is the shortest round trip
        fh.writelines(_TRACE_ROW % (i, *row) for i, row in enumerate(trace.tolist(), start=1))
