"""Numerical oracles and fixture writers shared by the test modules."""

import csv
import functools
import math
import time
from pathlib import Path

import numpy as np

from qatkit.experiments import make_rate_objective, run_convergence_run
from qatkit.quantize import QuantSpec
from qatkit.scaling import CSV_HEADER

RATE_STUDY_HORIZONS = (100, 1000, 10_000, 100_000)


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


def fwht_unnormalized(x) -> np.ndarray:
    """Fast Walsh-Hadamard butterfly over the last axis (length n, a power of
    two), unnormalized; returns a new array.  The oracle for the Kronecker
    transform in ``qatkit.transform``: scaled by 1/sqrt(n), it is H x.

    Each stage writes the pair sums v[2i] + v[2i+1] to the first half of the
    other of two buffers and the differences to the second half: the operands
    of the stride-2^k butterfly in the same order, so bitwise the same result
    in Sylvester order.  Applying this twice multiplies the input by n.
    """
    src = np.asarray(x, dtype=np.float64)
    n = src.shape[-1]
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    if n == 1:
        return src.copy()
    bufs = (np.empty(src.shape), np.empty(src.shape))
    m = n // 2
    for stage in range(n.bit_length() - 1):
        dst = bufs[stage & 1]
        np.add(src[..., 0::2], src[..., 1::2], out=dst[..., :m])
        np.subtract(src[..., 0::2], src[..., 1::2], out=dst[..., m:])
        src = dst
    return src


# one subnormal ulp: the absolute rounding a subnormal result can add
SUBNORMAL_ULP = float(np.finfo(np.float64).smallest_subnormal)


def hadamard_tolerance(n: int) -> float:
    """Relative bound on |H x - fwht_unnormalized(x) / sqrt(n)| in units of
    ||x||_2, for a power-of-two length n = 2^k = a b with a = 2^floor(k/2).

    Every product against a +-1 entry is exact, so only additions round: the
    Kronecker transform sums a then b terms, the butterfly k levels, each
    error at most eps times a partial sum bounded by ||x||_1 <= sqrt(n) ||x||_2,
    and the 1/sqrt(n) scale rounds once more on each side.  So the two agree to
    (a + b + k + 2) eps ||x||_2: 3.2e-14 at n = 4096.  A subnormal result
    also rounds in absolute terms, by at most ``SUBNORMAL_ULP``.
    """
    k = n.bit_length() - 1
    a = 1 << k // 2
    return (a + n // a + k + 2) * float(np.finfo(np.float64).eps)


def norm2(x) -> float:
    """||x||_2 of a 1-D array without overflow or underflow in the squares."""
    return math.hypot(*np.asarray(x, dtype=np.float64).tolist())


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


@functools.cache
def rosenbrock_rate_study():
    """The ergodic-rate study on 10-d Rosenbrock, run once per session.

    Floor grid 0.25, lambda = 1, step 0.1, ten seeds at each horizon of
    ``RATE_STUDY_HORIZONS``.  Returns ``(per_horizon_vals, elapsed)``: one
    array of per-seed ergodic means per horizon, and the wall time of the
    runs.  Seeds run independently in the batch, so ``vals[:k]`` is exactly
    a k-seed run, and the acceptance criterion and the 3-seed bracket check
    read the same runs.
    """
    start = time.perf_counter()
    spec = QuantSpec(scheme="floor-toy", grid=0.25)
    obj, lhat = make_rate_objective("rosenbrock", 10)
    per_horizon_vals = tuple(
        run_convergence_run(obj, spec, 1.0, 0.1, T, range(10), lhat, x0_std=0.25).ergodic_means
        for T in RATE_STUDY_HORIZONS
    )
    return per_horizon_vals, time.perf_counter() - start
