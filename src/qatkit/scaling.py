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
    "RESIDUAL_SPACES",
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
RESIDUAL_SPACES = ("log", "linear")
CSV_HEADER = ("method", "P", "N", "D", "loss")
# residual evaluations allowed per Levenberg-Marquardt start
MAX_NFEV = 2000
# starts per Jacobian call: the normal equations' working set is ~7 n floats
# per start, so blocks keep it flat in the number of starts
LINEARIZE_BLOCK = 8


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


def build_residual_system(data: list[ScalingDatum], prior_weight: float, residual_space: str):
    """Residual and normal-equation closures over stacks of reparametrized points.

    The parameter vector is theta = (log A, log alpha, log B, log beta, log E,
    u_1..u_G) with eff_g = sigmoid(u_g), and both closures take a stack
    ``(k, p)`` of them, computing each row from that row alone.
    ``residuals(theta)`` returns ``(f, terms)``: ``f`` ``(k, n + 2)`` holds
    the per-point data misfits followed by the two prior rows sqrt(w) log
    alpha and sqrt(w) log beta, and ``terms`` ``(k, 2, n)`` holds the law's
    two power terms A / (N eff)^alpha and B / D^beta at each data point.  A
    point far out gives +inf or NaN residuals, with no warning.
    ``normal_equations(theta, f, terms)`` takes a ``residuals`` output and
    returns J^T J ``(k, p, p)`` and J^T f ``(k, p)`` without forming J: each
    data point is in at most one group, so the group block of J^T J is
    diagonal and its cross block is a per-group sum over the five shared
    columns.  The rows are canonically sorted first, so the system is
    independent of input ordering.  Returns (residuals, normal_equations,
    groups, rows), ``rows`` in that canonical order.
    """
    if residual_space not in RESIDUAL_SPACES:
        raise ValueError(f"unknown residual_space {residual_space!r}")
    data = _canonical(list(data))
    groups = check_scaling_data(data)
    g_index = {key: i for i, key in enumerate(groups)}
    n, n_groups = len(data), len(groups)
    log_n = np.array([math.log(r.N) for r in data])
    neg_log_d = -np.array([math.log(r.D) for r in data])
    obs = np.array([r.loss for r in data])
    log_obs = np.log(obs)
    # each row's group; full-precision rows point past the last one
    row_group = np.array([g_index.get((r.method, r.precision), n_groups) for r in data])
    member = (row_group[:, None] == np.arange(n_groups)).astype(float)
    sqrt_w = math.sqrt(prior_weight)
    group_diag = np.arange(5, 5 + n_groups)

    def capacity_exponent(theta, alpha):
        # -alpha log(N eff) per data point; full-precision rows read log eff = 0
        log_eff = np.zeros((len(theta), n_groups + 1))
        log_eff[:, :n_groups] = -np.log1p(np.exp(-theta[:, 5:]))
        exponent = np.take(log_eff, row_group, axis=1)
        exponent += log_n
        exponent *= -alpha[:, None]
        return exponent

    def residuals(theta):
        k = len(theta)
        # (k, 2, n) over a (2, k, n) buffer: each term is one contiguous block,
        # which numpy updates in place without iterator buffers
        terms = np.empty((2, k, n)).transpose(1, 0, 2)
        t1, t2 = terms[:, 0], terms[:, 1]
        f = np.empty((k, n + 2))
        # a trial step far out overflows exp or underflows eff to 0: the
        # residual is +inf or NaN and LM rejects the step
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            alpha, beta, E = np.exp(theta[:, [1, 3, 4]]).T
            work = capacity_exponent(theta, alpha)
            work += theta[:, :1]
            np.exp(work, out=t1)
            np.multiply(beta[:, None], neg_log_d, out=t2)
            t2 += theta[:, 2:3]
            np.exp(t2, out=t2)
            np.add(t1, t2, out=work)
            work += E[:, None]
            if residual_space == "log":
                np.log(work, out=work)
                work -= log_obs
            else:
                work -= obs
            f[:, :n] = work
            np.multiply(theta[:, 1:4:2], sqrt_w, out=f[:, n:])
        return f, terms

    def normal_equations(theta, f, terms):
        k, p = theta.shape
        alpha, beta, E = np.exp(theta[:, [1, 3, 4]]).T
        t1, t2 = terms[:, 0], terms[:, 1]
        # the five shared columns of J over the data points, then f, a (k, n) block each
        cols = np.empty((6, k, n))
        cols[0] = t1
        np.multiply(capacity_exponent(theta, alpha), t1, out=cols[1])
        cols[2] = t2
        np.multiply(t2, neg_log_d, out=cols[3])
        cols[3] *= beta[:, None]
        cols[4] = E[:, None]
        if residual_space == "log":
            pred = t1 + t2
            pred += E[:, None]
            cols[:5] /= pred
        cols[5] = f[:, :n]
        per_start = cols.transpose(1, 0, 2)
        gram = per_start @ per_start.transpose(0, 2, 1)
        # d f_i / d u_g = -alpha (1 - eff_g) J_i0 on group g's rows
        coef = -alpha[:, None] * (1.0 - _sigmoid(theta[:, 5:]))
        # by_group[:, a, g] = sum of J_i0 J_ia over group g (J_i0 f_i for a = 5)
        cols *= cols[0].copy()
        by_group = per_start @ member
        jtj = np.zeros((k, p, p))
        jtj[:, :5, :5] = gram[:, :5, :5]
        jtj[:, [1, 3], [1, 3]] += sqrt_w * sqrt_w
        cross = by_group[:, :5] * coef[:, None, :]
        jtj[:, :5, 5:] = cross
        jtj[:, 5:, :5] = cross.transpose(0, 2, 1)
        jtj[:, group_diag, group_diag] = by_group[:, 0] * (coef * coef)
        jtf = np.empty((k, p))
        jtf[:, :5] = gram[:, :5, 5]
        jtf[:, 1:4:2] += sqrt_w * f[:, n:]
        jtf[:, 5:] = by_group[:, 5] * coef
        return jtj, jtf

    return residuals, normal_equations, groups, data


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

    ``fun(x)`` maps a stack ``(k, p)`` of points to their residuals ``(k, r)``
    and per-point ``terms`` (any array with k rows); ``jac(x, f, terms)``
    takes those and returns J^T J ``(k, p, p)`` and J^T f ``(k, p)``.  Each
    start keeps its own state.  Its columns are scaled by the running maximum
    of its Jacobian column norms (Marquardt 1963), and its damping mu follows
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
    points in one ``fun`` call and linearizes the accepted ones in ``jac``
    calls of up to ``LINEARIZE_BLOCK`` starts.  No row's arithmetic reads
    another row, so each start's result is bitwise its result as a batch of
    one.  ``bench/tracing.py`` swaps this module attribute to count ``fun``
    and ``jac`` calls.
    """
    x = np.array(x0, dtype=float)
    m, p = x.shape
    f, terms = fun(x)
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

    def linearize(rows, at, x_at, f_at, terms_at):
        # starts ``rows`` at points ``at`` of (x_at, f_at, terms_at), a block at a time
        for lo in range(0, rows.size, LINEARIZE_BLOCK):
            r, i = rows[lo : lo + LINEARIZE_BLOCK], at[lo : lo + LINEARIZE_BLOCK]
            xr = x_at[i]
            jtj, jtf = jac(xr, f_at[i], terms_at[i])
            norms = np.sqrt(np.diagonal(jtj, axis1=1, axis2=2))
            scale[r] = s = np.maximum(scale[r], norms)
            d[r] = dr = np.where(s > 0.0, s, 1.0)
            g[r] = jtf / dr
            A[r] = a = jtj / (dr[:, :, None] * dr[:, None, :])
            first = np.isnan(mu[r])
            mu[r[first]] = 1e-3 * np.max(np.diagonal(a[first], axis1=1, axis2=2), axis=1)
            xnorm[r] = np.linalg.norm(dr * xr, axis=1)
            # gtol: the largest cosine between f and a column of J
            cosine = np.max(np.abs(jtf) / np.where(norms > 0.0, norms, 1.0), axis=1)
            live[r[cosine <= gtol * np.sqrt(2.0 * cost[r])]] = False

    # an overflowing mu, or a trial cost of inf or NaN, is a rejection, not an error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        start = np.flatnonzero(live)
        linearize(start, start, x, f, terms)
        # a round's trial stacks die before the next round's are made
        del terms
        while True:
            rows = np.flatnonzero(live & (nfev < max_nfev))
            if rows.size == 0:
                break
            xr, dr, gr, mur, cost_r = x[rows], d[rows], g[rows], mu[rows], cost[rows]
            hs = np.linalg.solve(A[rows] + mur[:, None, None] * eye, -gr[:, :, None])[:, :, 0]
            x_new = xr + hs / dr
            f_new, terms_new = fun(x_new)
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
                linearize(rows[relin], np.flatnonzero(relin), x_new, f_new, terms_new)
            del f_new, terms_new
    return LeastSquaresResult(x=x, fun=f, cost=cost, nfev=nfev)


def fit_scaling(
    data: list[ScalingDatum],
    prior_weight: float = 1e-3,
    residual_space: str = "log",
    n_starts: int = 8,
    seed: int = 0,
) -> ScalingFit:
    """Jointly fit A, alpha, B, beta, E shared across methods plus per-group eff.

    Minimizes sum (log pred - log obs)^2 (or linear residuals with
    ``residual_space='linear'``) plus prior_weight * ((log alpha)^2 +
    (log beta)^2), by Levenberg-Marquardt in the reparametrized variables.
    ``n_starts`` seeded initializations are stepped as one batch and the
    lowest final cost wins, ties broken by lowest start index.  The result is
    independent of input ordering (see ``build_residual_system``).
    """
    residuals, normal_equations, groups, rows = build_residual_system(data, prior_weight, residual_space)
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
        residuals, starts, jac=normal_equations, xtol=1e-10, ftol=1e-14, gtol=1e-14, max_nfev=MAX_NFEV
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
