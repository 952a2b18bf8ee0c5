"""Numerical oracles and fixture writers shared by the test modules."""

import csv
import math
from pathlib import Path

import numpy as np

from qatkit.scaling import CSV_HEADER


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient, the oracle for analytic-gradient checks.

    result_i = (f(x + h e_i) - f(x - h e_i)) / (2 h)
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"x must be 1-dimensional, got shape {x.shape}")
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fp = float(f(x + e))
        fm = float(f(x - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite objective value at coordinate {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def gaussian_clip_mse_trapezoid(bits: int, k: float, nodes: int = 100001) -> float:
    """E_{z~N(0,1)}[(z - dequant(quant(z; k)))^2] by the trapezoid rule on
    [-12, 12], the oracle for the closed form in ``quantize``."""
    q_max = 2 ** (bits - 1) - 1
    s = k / q_max
    z = np.linspace(-12.0, 12.0, nodes)
    r = z - s * np.clip(np.rint(z / s), -q_max - 1, q_max)
    return float(np.trapezoid(r * r * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi), z))


def write_scaling_csv(path, data) -> None:
    """Write ``ScalingDatum`` rows as a fit-scaling input CSV."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in data:
            writer.writerow([r.method, r.precision, repr(r.N), repr(r.D), repr(r.loss)])
