"""Numerical oracles and fixture writers shared by the test modules."""

import csv
import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qatkit.experiments import make_rate_objective, run_convergence_run
from qatkit.objectives import quadratic
from qatkit.optim import BETA1, BETA2, EPS, AdamState
from qatkit.pareto import TRACE_COLUMNS
from qatkit.quantize import _E2M1_BOUNDS, _E2M1_GRID, SIGMA_FLOOR, QuantSpec, _normal_cdf, quantize
from qatkit.scaling import CSV_HEADER, FP_LABEL, LeastSquaresResult
from qatkit.transform import hadamard_forward, hadamard_inverse, hadamard_plan

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


def solved_quadratic(A, b):
    """``quadratic(A, b, x*, f*)`` with x* = A^{-1} b by ``np.linalg.solve``
    and f* = -1/2 b^T x*, one problem at a time for a stack A ``(S, d, d)``,
    b ``(S, d)``: the oracle for the minimum the lanes take from the drawn
    eigenbasis, and the minimum of a test's own A."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x_star = np.empty_like(b)
    f_star = np.empty(b.shape[:-1])
    for i in np.ndindex(f_star.shape):
        x_star[i] = np.linalg.solve(A[i], b[i])
        f_star[i] = -0.5 * float(b[i] @ x_star[i])
    return quadratic(A, b, x_star, f_star if f_star.ndim else float(f_star))


@dataclass(frozen=True)
class EfState:
    """Carried state of the error-feedback recursion: quantized parameters
    plus the accumulated quantization error."""

    w: np.ndarray
    e: np.ndarray


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


def gaussian_clip_mse_trapezoid(bits: int, k: float, nodes: int = 100001) -> float:
    """E_{z~N(0,1)}[(z - dequant(quant(z; k)))^2] by the trapezoid rule on
    [-12, 12], the oracle for the closed form in ``quantize``."""
    q_max = 2 ** (bits - 1) - 1
    s = k / q_max
    z = np.linspace(-12.0, 12.0, nodes)
    r = z - s * np.clip(np.rint(z / s), -q_max - 1, q_max)
    return float(np.trapezoid(r * r * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi), z))


def gaussian_clip_mse_ndtr(bits: int, k: float) -> float:
    """``quantize.gaussian_clip_mse`` with Phi from scipy's ``ndtr``: the
    closed form as it stood while scipy computed Phi."""
    from scipy.special import ndtr

    q_max = 2 ** (bits - 1) - 1
    s = k / q_max
    c = s * np.arange(-q_max - 1, q_max + 1)
    edges = c[:-1] + s / 2.0
    pdf = np.exp(-0.5 * edges * edges) / math.sqrt(2.0 * math.pi)
    cdf = np.concatenate(([0.0], ndtr(edges), [1.0]))
    lower = np.concatenate(([0.0], (edges - 2.0 * c[1:]) * pdf))
    upper = np.concatenate(((edges - 2.0 * c[:-1]) * pdf, [0.0]))
    return float(((1.0 + c * c) * np.diff(cdf) + lower - upper).sum())


def _clip_cells_lone(bits: int, k: float):
    """One width's rounding cells on their own, the layout each width's
    slice of ``quantize._clip_cells`` must reproduce: ``(j, c, edges, mass,
    pdf)``, the interior edges, each cell's mass and phi at the edges."""
    q_max = 2 ** (bits - 1) - 1
    s = k / q_max
    j = np.arange(-q_max - 1, q_max + 1)
    c = s * j
    edges = c[:-1] + s / 2.0
    pdf = np.exp(-0.5 * edges * edges) / math.sqrt(2.0 * math.pi)
    mass = np.diff(np.concatenate(([0.0], _normal_cdf(edges), [1.0])))
    return j, c, edges, mass, pdf


def gaussian_clip_mse_lone(bits: int, k: float) -> float:
    """``quantize.gaussian_clip_mse`` on the lone-width cell layout: the
    oracle for its value on the batched layout."""
    _, c, edges, mass, pdf = _clip_cells_lone(bits, k)
    lower = np.concatenate(([0.0], (edges - 2.0 * c[1:]) * pdf))
    upper = np.concatenate(((edges - 2.0 * c[:-1]) * pdf, [0.0]))
    return float(((1.0 + c * c) * mass + lower - upper).sum())


def clip_mse_slope_lone(bits: int, k: float) -> float:
    """dMSE/dk of one width, the oracle for each width's slope in
    ``quantize._clip_mse_slopes``."""
    j, c, _, mass, pdf = _clip_cells_lone(bits, k)
    pdf_rise = np.diff(np.concatenate(([0.0], pdf, [0.0])))  # phi(b_j) - phi(a_j)
    return float(2.0 / j[-1] * (j * (c * mass + pdf_rise)).sum())


@functools.cache
def calibrate_clip_lone(bits: int) -> float:
    """One width's clip factor by a scalar bisection of its slope on
    [0.5, 6], the oracle for each width of ``quantize.calibrate_clip``."""
    lo, hi = 0.5, 6.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if clip_mse_slope_lone(bits, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def int_reference(spec, x):
    """A vector x, or each row of a batch ``(..., d)``, quantized here rather
    than by the quantizer, under an int ``spec``: z = H x row by row (x
    itself for int-plain; rows padded to the transform length), the row
    scale s = clip_factor * rms(z) / q_max (``SIGMA_FLOOR`` where rms(z) is
    0), codes = clip(round(z / s), q_min, q_max) and Q(x) = H^T (s codes) cut
    back to the rows.  Returns ``(q, z, s, codes)``, all but ``q`` one row
    per vector (``s`` a column)."""
    d = x.shape[-1]
    plan = hadamard_plan(d) if spec.scheme == "int-hadamard" else None
    z = x.reshape(-1, d) if plan is None else hadamard_forward(plan, x.reshape(-1, d))
    sigma = np.sqrt(np.mean(z * z, axis=-1, keepdims=True))
    s = np.where(sigma == 0.0, SIGMA_FLOOR, spec.clip_factor * sigma / spec.q_max)
    codes = np.clip(np.rint(z / s), spec.q_min, spec.q_max)
    q = s * codes if plan is None else hadamard_inverse(plan, s * codes)
    return q.reshape(x.shape), z, s, codes


def int_transform_rows(spec, v, n_rows: int):
    """H v over each of the ``n_rows`` rows of a vector v (v itself for
    int-plain): for v = Q(x), the transform-domain reconstruction.  Only for
    rows of a power-of-two length, where the transform pads and cuts nothing."""
    rows = v.reshape(n_rows, -1)
    if spec.scheme == "int-plain":
        return rows
    plan = hadamard_plan(rows.shape[1])
    assert plan.padded_dim == rows.shape[1], "a padded row drops part of H Q(x)"
    return hadamard_forward(plan, rows)


E2M1_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])


def mxfp4_block_scale(amax: float) -> float:
    """Shared scale of an mxfp4 block whose largest magnitude is ``amax``, as a
    scalar loop: 2**ceil(log2(amax / 6)) from amax's own frexp (6 = 0.75
    2**3), at least 2**-1074, and 1 for an all-zero block."""
    if amax == 0.0:
        return 1.0
    m, e = math.frexp(amax)
    return math.ldexp(1.0, max(e - 3 + (m > 0.75), -1074))


def mxfp4_entry_scales(x) -> np.ndarray:
    """The block scale of each entry of a vector x in blocks of 32, its last
    block zero-padded."""
    n_blocks = max(1, -(-x.size // 32))
    padded = np.zeros(n_blocks * 32)
    padded[: x.size] = x
    scales = [mxfp4_block_scale(float(np.abs(b).max())) for b in padded.reshape(-1, 32)]
    return np.repeat(scales, 32)[: x.size]


def quantize_mxfp4_padded(x):
    """mxfp4 as first written: every vector zero-padded to whole blocks,
    out-of-place arithmetic, and the padding cut off again.  Returns
    ``(quantized, error)``.  The byte oracle for ``quantize``'s mxfp4, which
    views whole blocks in place; it takes finite input only (the library's
    NaN/inf rejection and its saturation near the float max are left out)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    bs = QuantSpec.block_size
    n_blocks = max(1, -(-n // bs))
    padded = np.zeros(x.shape[:-1] + (n_blocks * bs,))
    padded[..., :n] = x
    blocks = padded.reshape(-1, bs)

    absb = np.abs(blocks)
    amax = absb.max(axis=1)
    # smallest power of two s with amax <= 6 s = 0.75 2**3 s, exact; at least
    # 2**-1074, and 2**-3 for an all-zero block
    m, e = np.frexp(amax)
    scales = np.ldexp(1.0, np.maximum(np.where(m > 0.75, e - 2, e - 3), -1074))
    idx = np.searchsorted(_E2M1_BOUNDS, absb / scales[:, None], side="left")
    mags = _E2M1_GRID[idx] * scales[:, None]
    quantized = np.copysign(mags, blocks).reshape(padded.shape)[..., :n]
    return quantized, x - quantized


def adamw_step_out_of_place(state, x, g, cfg, lr):
    """One AdamW step as first written, every formula a new array: the byte
    oracle for ``optim.adamw_step``, which applies the same formulas in the
    same order in place.  Writes nothing; returns ``(state', x')``."""
    t = state.t + 1
    xd = (1.0 - lr * cfg.weight_decay) * x if cfg.weight_decay else x  # 1.0 * x is x bitwise
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * (g * g)
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    x_new = xd - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return AdamState(m=m, v=v, t=t), x_new


def cage_adamw_step_out_of_place(state, x, g, e, e_dec, cfg, lr, lam_cpl, lam_dec):
    """``optim.cage_adamw_step`` as first written, on
    ``adamw_step_out_of_place``: the AdamW step on g + lam_cpl e, then
    x' - lr lam_dec e_dec."""
    new_state, x_tilde = adamw_step_out_of_place(state, x, g + lam_cpl * e, cfg, lr)
    return new_state, x_tilde - lr * lam_dec * e_dec


def pca_eigh(points, k: int):
    """Top-``k`` PCA by a full ``np.linalg.eigh`` of the centred covariance,
    with ``pca_project``'s sign convention (the first entry above 1e-12 in
    magnitude is positive): the oracle for its subspace iteration.  Returns
    ``(projections, components, eigenvalues)``, the eigenvalues descending."""
    X = np.asarray(points, dtype=np.float64)
    Xc = X - X.mean(axis=0)
    evals, evecs = np.linalg.eigh((Xc.T @ Xc) / (len(X) - 1))
    comps = evecs[:, ::-1][:, :k].T.copy()
    for row in comps:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return Xc @ comps.T, comps, evals[::-1]


def write_trace_csv_module(path, trace) -> None:
    """A run's trace through ``csv.writer``: the header, then the step and
    each value's repr per row, ``\\r\\n``-terminated.  The oracle for the
    bytes of ``pareto.write_trace_csv``, which formats its rows itself."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows([i, *map(repr, row)] for i, row in enumerate(trace.tolist(), start=1))


def write_scaling_csv(path, data) -> None:
    """Write ``ScalingDatum`` rows as a fit-scaling input CSV."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in data:
            writer.writerow([r.method, r.precision, repr(r.N), repr(r.D), repr(r.loss)])


def scaling_jacobian(rows, groups, prior_weight: float):
    """The full Jacobian J ``(n + 2, p)`` of the scaling fit's residuals at
    one theta, written out column by column from the law: the independent
    dense reference for ``build_residual_system``'s batched ``jacobian``.
    ``rows`` and ``groups`` are that function's canonical outputs."""
    n = len(rows)
    log_n = np.log([r.N for r in rows])
    log_d = np.log([r.D for r in rows])
    member = np.array([[float((r.method, r.precision) == key) for key in groups] for r in rows]).reshape(n, -1)
    is_fp = np.array([r.precision == FP_LABEL for r in rows])

    def jacobian(theta):
        A, alpha, B, beta, E = np.exp(theta[:5])
        eff = 1.0 / (1.0 + np.exp(-theta[5:]))
        eff_row = np.where(is_fp, 1.0, member @ eff)
        t1 = A * np.exp(-alpha * (log_n + np.log(eff_row)))
        t2 = B * np.exp(-beta * log_d)
        J = np.zeros((n + 2, theta.size))
        J[:n, 0] = t1
        J[:n, 1] = -alpha * (log_n + np.log(eff_row)) * t1
        J[:n, 2] = t2
        J[:n, 3] = -beta * log_d * t2
        J[:n, 4] = E
        J[:n, 5:] = member * (-alpha * t1 * (member @ (1.0 - eff)))[:, None]
        J[:n] /= (t1 + t2 + E)[:, None]
        J[n, 1] = J[n + 1, 3] = math.sqrt(prior_weight)
        return J

    return jacobian


def scipy_lm_per_start(fun, x0, jacobian, **tolerances) -> LeastSquaresResult:
    """``scaling.least_squares`` by MINPACK's Levenberg-Marquardt, through
    ``scipy.optimize.least_squares(method="lm")``, run on each start of
    ``x0`` in turn with the dense ``jacobian``.  ``fun`` is the batched
    residual closure; a start whose residuals are not finite at x0 comes
    back with cost +inf."""
    from scipy.optimize import least_squares

    def residual(theta):
        return fun(theta[None])[0]

    x, f, cost, nfev = [], [], [], []
    for start in np.asarray(x0, dtype=float):
        try:
            sol = least_squares(residual, start, jac=jacobian, method="lm", **tolerances)
            row = (sol.x, sol.fun, sol.cost, sol.nfev)
        except ValueError:  # residuals not finite at the start
            row = (start, residual(start), math.inf, 1)
        for column, value in zip((x, f, cost, nfev), row):
            column.append(value)
    return LeastSquaresResult(x=np.array(x), fun=np.array(f), cost=np.array(cost), nfev=np.array(nfev))


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
