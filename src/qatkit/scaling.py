"""Separable data/model/precision scaling law and its nonlinear fit.

The law is L(N, D, P) = A / (N * eff)^alpha + B / D^beta + E with one
effective-capacity factor eff in (0, 1] per (method, precision) group;
full-precision rows ("FP") are pinned at eff = 1.  The fit is
Levenberg-Marquardt on log-space residuals in a reparametrized space
(A = e^a etc., eff = sigmoid(u)) with weak log-priors on the exponents and a
seeded multi-start.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import NumericalFailure, make_rng

__all__ = [
    "FP_LABEL",
    "ScalingDatum",
    "ScalingFit",
    "predict_loss",
    "check_scaling_data",
    "build_residual_system",
    "fit_scaling",
    "synthesize_scaling_data",
    "read_scaling_csv",
    "fit_to_json_dict",
]

FP_LABEL = "FP"
CSV_HEADER = ("method", "P", "N", "D", "loss")
# residual evaluations allowed per Levenberg-Marquardt start
MAX_NFEV = 2000


@dataclass(frozen=True)
class ScalingDatum:
    """One observed training run: method label, precision label, sizes, loss."""

    method: str
    precision: str
    N: float
    D: float
    loss: float

    def __post_init__(self):
        # comparisons written so that NaN and inf fail them
        if not (0.0 < self.N < math.inf and 0.0 < self.D < math.inf):
            raise ValueError(f"N and D must be positive and finite, got N={self.N}, D={self.D}")
        if not 0.0 < self.loss < math.inf:
            raise ValueError(f"loss must be positive and finite, got {self.loss}")


@dataclass(frozen=True)
class ScalingFit:
    """Fitted law parameters plus the per-group capacity factors."""

    A: float
    alpha: float
    B: float
    beta: float
    E: float
    eff: dict[tuple[str, str], float]
    residual_rms: float


def predict_loss(fit: ScalingFit, N: float, D: float, method: str, precision: str) -> float:
    """Evaluate the fitted law at (N, D) for one method/precision group."""
    eff = 1.0 if precision == FP_LABEL else fit.eff.get((method, precision))
    if eff is None:
        raise KeyError(f"no fitted eff for group {(method, precision)}")
    return fit.A / (N * eff) ** fit.alpha + fit.B / D**fit.beta + fit.E


def _sigmoid(u):
    return 1.0 / (1.0 + np.exp(-u))


def _canonical(data: list[ScalingDatum]) -> list[ScalingDatum]:
    # fixed row order makes the fit exactly invariant to input ordering
    return sorted(data, key=lambda r: (r.method, r.precision, r.N, r.D, r.loss))


def check_scaling_data(data: list[ScalingDatum]) -> list[tuple[str, str]]:
    """ValueError unless the rows can pin the law: at least 2 distinct N and
    2 distinct D, a full-precision group, and >= 2 points per group.
    Returns the sorted (method, precision) groups whose eff is fitted."""
    if len({r.N for r in data}) < 2:
        raise ValueError("insufficient data diversity: need at least 2 distinct N")
    if len({r.D for r in data}) < 2:
        raise ValueError("insufficient data diversity: need at least 2 distinct D")
    groups: dict[tuple[str, str], int] = {}
    for r in data:
        groups[(r.method, r.precision)] = groups.get((r.method, r.precision), 0) + 1
    if not any(p == FP_LABEL for _, p in groups):
        raise ValueError("insufficient data diversity: need a full-precision (FP) group")
    for key, count in groups.items():
        if count < 2:
            raise ValueError(f"insufficient data diversity: group {key} has {count} point(s), need >= 2")
    return sorted(k for k in groups if k[1] != FP_LABEL)


def build_residual_system(data: list[ScalingDatum], prior_weight: float):
    """Residual and Jacobian closures over stacks of reparametrized points.

    The parameter vector is theta = (log A, log alpha, log B, log beta, log E,
    u_1..u_G) with eff_g = sigmoid(u_g), and both closures take a stack
    ``(k, p)`` of them, computing each row from that row alone.
    ``residuals(theta)`` returns ``f`` ``(k, n + 2)``: the per-point misfits
    log pred - log obs followed by the two prior rows sqrt(w) log alpha and
    sqrt(w) log beta.  A point far out gives +inf or NaN residuals, with no
    warning.
    ``jacobian(theta)`` returns J ``(k, n + 2, p)``, a view of J^T ``(k, p,
    n + 2)`` so that each column is one contiguous row; at m starts it holds
    m (n + 2) p floats.  The rows are canonically sorted first, so the
    system is independent of input ordering.  Returns (residuals, jacobian,
    groups, rows), ``rows`` in that canonical order.
    """
    if not 0.0 <= prior_weight < math.inf:
        raise ValueError(f"prior_weight must be finite and >= 0, got {prior_weight}")
    data = _canonical(list(data))
    groups = check_scaling_data(data)
    g_index = {key: i for i, key in enumerate(groups)}
    n, n_groups = len(data), len(groups)
    log_n = np.array([math.log(r.N) for r in data])
    neg_log_d = -np.array([math.log(r.D) for r in data])
    log_obs = np.log(np.array([r.loss for r in data]))
    # each row's group; full-precision rows point past the last one
    row_group = np.array([g_index.get((r.method, r.precision), n_groups) for r in data])
    fitted = np.flatnonzero(row_group < n_groups)
    sqrt_w = math.sqrt(prior_weight)

    def power_terms(theta):
        # A / (N eff)^alpha and B / D^beta per data point, and the capacity
        # exponent -alpha log(N eff); full-precision rows read log eff = 0
        alpha, beta = np.exp(theta[:, 1:4:2]).T
        log_eff = np.zeros((len(theta), n_groups + 1))
        log_eff[:, :n_groups] = -np.log1p(np.exp(-theta[:, 5:]))
        exponent = -alpha[:, None] * (np.take(log_eff, row_group, axis=1) + log_n)
        t1 = np.exp(exponent + theta[:, :1])
        t2 = np.exp(beta[:, None] * neg_log_d + theta[:, 2:3])
        return t1, t2, exponent

    def residuals(theta):
        f = np.empty((len(theta), n + 2))
        # a trial step far out overflows exp or underflows eff to 0: the
        # residual is +inf or NaN and LM rejects the step
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t1, t2, _ = power_terms(theta)
            pred = t1 + t2 + np.exp(theta[:, 4:5])
            f[:, :n] = np.log(pred) - log_obs
            f[:, n:] = sqrt_w * theta[:, 1:4:2]
        return f

    def jacobian(theta):
        alpha, beta, E = np.exp(theta[:, [1, 3, 4]]).T
        t1, t2, exponent = power_terms(theta)
        jt = np.zeros((*theta.shape, n + 2))
        data_t = jt[:, :, :n]
        data_t[:, 0] = t1
        data_t[:, 1] = exponent * t1
        data_t[:, 2] = t2
        data_t[:, 3] = beta[:, None] * neg_log_d * t2
        data_t[:, 4] = E[:, None]
        # d pred_i / d u_g = -alpha (1 - eff_g) d pred_i / d log A on group g's rows
        coef = -alpha[:, None] * (1.0 - _sigmoid(theta[:, 5:]))
        data_t[:, 5 + row_group[fitted], fitted] = coef[:, row_group[fitted]] * t1[:, fitted]
        # so far d pred / d theta; d log pred / d theta divides it by pred
        data_t /= (t1 + t2 + E[:, None])[:, None, :]
        jt[:, 1, n] = jt[:, 3, n + 1] = sqrt_w
        return jt.transpose(0, 2, 1)

    return residuals, jacobian, groups, data


@dataclass(frozen=True)
class LeastSquaresResult:
    """Per start: the final point ``x`` ``(m, p)``, its residuals ``fun``
    ``(m, r)``, ``cost`` = 0.5 * |fun|^2 ``(m,)`` and the residual
    evaluations ``nfev`` ``(m,)`` it took."""

    x: np.ndarray
    fun: np.ndarray
    cost: np.ndarray
    nfev: np.ndarray


def _rowdot(a, b):
    return np.add.reduce(a * b, axis=-1)


def least_squares(fun, x0, jac, *, xtol, ftol, gtol, max_nfev) -> LeastSquaresResult:
    """Minimize 0.5 * |fun(x)|^2 from each start, a row of ``x0`` ``(m, p)``,
    by Levenberg-Marquardt, stepping every start as one batch.

    ``fun(x)`` maps a stack ``(k, p)`` of points to their residuals ``(k,
    r)``, and ``jac(x)`` to their Jacobians ``(k, r, p)``.  Each start keeps
    its own state.  Its columns are scaled by the running maximum of its
    Jacobian column norms (Marquardt 1963), and its damping mu follows
    Nielsen's update (Nielsen 1999): an accepted step with gain ratio rho
    scales mu by max(1/3, 1 - (2 rho - 1)^3), and a rejected one by 2, 4, 8,
    ...  A start stops when an accepted step lowers its cost by at most
    ``ftol`` relative and predicted no more, when no column of J is more than
    ``gtol`` from orthogonal to its residuals, when a step, accepted or
    rejected, is within ``xtol`` relative of the scaled x, or after
    ``max_nfev`` residual evaluations.  A trial point with a non-finite cost
    is a rejected step, and a start whose cost at x0 is not finite is not
    stepped: it comes back at x0 with that cost.  A round solves
    (A + mu I) h = -g for every live start in one call, evaluates their trial
    points in one ``fun`` call and linearizes the accepted ones in one
    ``jac`` call, forming J^T J and J^T f.  No row's arithmetic reads
    another row, so each start's result is bitwise its result as a batch of
    one.  ``bench/tracing.py`` swaps this module attribute to count ``fun``
    and ``jac`` calls.
    """
    x = np.array(x0, dtype=float)
    m, p = x.shape
    f = fun(x)
    cost = 0.5 * _rowdot(f, f)
    nfev = np.ones(m, dtype=np.int64)
    live = np.isfinite(cost)
    scale = np.zeros((m, p))
    d = np.ones((m, p))
    A = np.zeros((m, p, p))
    g = np.zeros((m, p))
    xnorm = np.zeros(m)
    mu = np.full(m, np.nan)  # set at each start's first linearization
    nu = np.full(m, 2.0)
    eye = np.eye(p)

    def linearize(r):
        jt = jac(x[r]).transpose(0, 2, 1)
        jtj = jt @ jt.transpose(0, 2, 1)
        jtf = (jt @ f[r][:, :, None])[:, :, 0]
        norms = np.sqrt(np.diagonal(jtj, axis1=1, axis2=2))
        scale[r] = s = np.maximum(scale[r], norms)
        d[r] = dr = np.where(s > 0.0, s, 1.0)
        g[r] = jtf / dr
        A[r] = a = jtj / (dr[:, :, None] * dr[:, None, :])
        first = np.isnan(mu[r])
        mu[r[first]] = 1e-3 * np.max(np.diagonal(a[first], axis1=1, axis2=2), axis=1)
        xnorm[r] = np.linalg.norm(dr * x[r], axis=1)
        # gtol: the largest cosine between f and a column of J
        cosine = np.max(np.abs(jtf) / np.where(norms > 0.0, norms, 1.0), axis=1)
        live[r[cosine <= gtol * np.sqrt(2.0 * cost[r])]] = False

    # an overflowing mu, or a trial cost of inf or NaN, is a rejection, not an error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        linearize(np.flatnonzero(live))
        while True:
            rows = np.flatnonzero(live & (nfev < max_nfev))
            if rows.size == 0:
                break
            xr, dr, gr, mur, cost_r = x[rows], d[rows], g[rows], mu[rows], cost[rows]
            hs = np.linalg.solve(A[rows] + mur[:, None, None] * eye, -gr[:, :, None])[:, :, 0]
            x_new = xr + hs / dr
            f_new = fun(x_new)
            nfev[rows] += 1
            cost_new = 0.5 * _rowdot(f_new, f_new)
            done = np.linalg.norm(hs, axis=1) <= xtol * (xnorm[rows] + xtol)
            better = cost_new < cost_r  # inf or NaN fails
            actual = cost_r - cost_new
            # the damped linear model's reduction, > 0 whenever hs is
            predicted = 0.5 * _rowdot(hs, mur[:, None] * hs - gr)
            done |= better & (actual <= ftol * cost_r) & (predicted <= ftol * cost_r)
            rho = np.where(predicted > 0.0, np.minimum(actual / predicted, 1.0), 1.0)
            nur = nu[rows]
            mu[rows] = np.where(better, mur * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), mur * nur)
            nu[rows] = np.where(better, 2.0, 2.0 * nur)
            moved = rows[better]
            x[moved], f[moved], cost[moved] = x_new[better], f_new[better], cost_new[better]
            live[rows[done]] = False
            relin = better & ~done & (nfev[rows] < max_nfev)
            if relin.any():
                linearize(rows[relin])
    return LeastSquaresResult(x=x, fun=f, cost=cost, nfev=nfev)


def fit_scaling(
    data: list[ScalingDatum],
    prior_weight: float = 1e-3,
    n_starts: int = 8,
    seed: int = 0,
) -> ScalingFit:
    """Jointly fit A, alpha, B, beta, E shared across methods plus per-group eff.

    Minimizes sum (log pred - log obs)^2 plus prior_weight * ((log alpha)^2
    + (log beta)^2), by Levenberg-Marquardt in the reparametrized variables.
    ``n_starts`` seeded initializations are stepped as one batch and the
    lowest final cost wins, ties broken by lowest start index.  The result is
    independent of input ordering (see ``build_residual_system``).
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    residuals, jacobian, groups, rows = build_residual_system(data, prior_weight)
    # the start statistics sum in the canonical row order too
    obs = np.array([r.loss for r in rows])
    mean_log_n = np.mean([math.log(r.N) for r in rows])
    mean_log_d = np.mean([math.log(r.D) for r in rows])

    spread = max(obs.max() - obs.min(), 0.1 * obs.min())
    try:
        log_spread, log_floor = math.log(spread), math.log(0.8 * obs.min())
    except ValueError as err:
        # losses so small that their spread underflows leave nothing to start from
        raise NumericalFailure("all fit starts failed") from err
    starts = np.empty((n_starts, 5 + len(groups)))
    for start in range(n_starts):
        rng = make_rng((seed, start))
        starts[start, :5] = (
            log_spread + rng.normal(0.0, 0.5) + 0.3 * mean_log_n,
            math.log(0.3) + rng.normal(0.0, 0.3),
            log_spread + rng.normal(0.0, 0.5) + 0.3 * mean_log_d,
            math.log(0.3) + rng.normal(0.0, 0.3),
            log_floor + rng.normal(0.0, 0.2),
        )
        starts[start, 5:] = rng.normal(1.0, 1.0, size=len(groups))
    sol = least_squares(
        residuals, starts, jac=jacobian, xtol=1e-10, ftol=1e-14, gtol=1e-14, max_nfev=MAX_NFEV
    )
    finite = np.isfinite(sol.cost)
    if not finite.any():
        raise NumericalFailure("all fit starts failed")
    best = int(np.argmin(np.where(finite, sol.cost, np.inf)))  # the first of equal costs

    theta = sol.x[best]
    A, alpha, B, beta, E = (float(v) for v in np.exp(theta[:5]))
    return ScalingFit(
        A=A,
        alpha=alpha,
        B=B,
        beta=beta,
        E=E,
        eff={key: float(e) for key, e in zip(groups, _sigmoid(theta[5:]))},
        residual_rms=float(np.sqrt(np.mean(sol.fun[best, : len(rows)] ** 2))),
    )


DEFAULT_SYNTH_GRID = (
    (1.0, 10.0),
    (1.0, 1e3),
    (3.0, 1e2),
    (3.0, 1e4),
    (10.0, 1e3),
    (10.0, 1e5),
    (30.0, 1e4),
    (30.0, 10.0),
    (1e2, 1e5),
    (1e2, 1e2),
)


def synthesize_scaling_data(
    A: float,
    alpha: float,
    B: float,
    beta: float,
    E: float,
    eff_by_group: dict[tuple[str, str], float],
    noise: float,
    rng: np.random.Generator,
) -> list[ScalingDatum]:
    """Generate losses from known law parameters with multiplicative noise.

    ``eff_by_group`` maps (method, precision) to eff; precision 'FP' entries
    must use eff = 1.  Every group gets each (N, D) pair of
    ``DEFAULT_SYNTH_GRID``, whose 5 distinct N and 3 distinct D values pin all
    five shared parameters, which two distinct D alone cannot do.
    """
    law = ScalingFit(A=A, alpha=alpha, B=B, beta=beta, E=E, eff=eff_by_group, residual_rms=0.0)
    rows = []
    for (method, precision), eff in sorted(eff_by_group.items()):
        if precision == FP_LABEL and eff != 1.0:
            raise ValueError("FP groups must have eff = 1")
        for N, D in DEFAULT_SYNTH_GRID:
            loss = predict_loss(law, N, D, method, precision)
            rows.append(
                ScalingDatum(
                    method=method,
                    precision=precision,
                    N=float(N),
                    D=float(D),
                    loss=loss * (1.0 + noise * rng.standard_normal()),
                )
            )
    return rows


def read_scaling_csv(path) -> list[ScalingDatum]:
    """Parse the (method, P, N, D, loss) CSV of a UTF-8 file; errors name the path and line."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not a UTF-8 text file: {err}") from err
    rows: list[ScalingDatum] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
        raise ValueError(f"{path}:1: expected header {','.join(CSV_HEADER)}")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
        try:
            rows.append(
                ScalingDatum(
                    method=row[0].strip(),
                    precision=row[1].strip(),
                    N=float(row[2]),
                    D=float(row[3]),
                    loss=float(row[4]),
                )
            )
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
    return rows


def fit_to_json_dict(fit: ScalingFit, data: list[ScalingDatum]) -> dict:
    """JSON-ready document: parameters, eff table, rms, per-point residuals."""
    residuals = []
    for r in _canonical(data):
        pred = predict_loss(fit, r.N, r.D, r.method, r.precision)
        residuals.append(
            {
                "method": r.method,
                "P": r.precision,
                "N": r.N,
                "D": r.D,
                "loss": r.loss,
                "predicted": pred,
                "log_residual": math.log(pred) - math.log(r.loss),
            }
        )
    eff_table = [
        {"method": m, "P": p, "eff": fit.eff[(m, p)]} for (m, p) in sorted(fit.eff)
    ]
    return {
        "A": fit.A,
        "alpha": fit.alpha,
        "B": fit.B,
        "beta": fit.beta,
        "E": fit.E,
        "eff": eff_table,
        "residual_rms": fit.residual_rms,
        "residuals": residuals,
    }
