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


def _unpack_theta(theta):
    a, abar, b, bbar, ebar = theta[:5]
    u = theta[5:]
    return math.exp(a), math.exp(abar), math.exp(b), math.exp(bbar), math.exp(ebar), _sigmoid(u)


def build_residual_system(data: list[ScalingDatum], prior_weight: float, residual_space: str):
    """Residual and Jacobian closures over the reparametrized variables.

    The parameter vector is theta = (log A, log alpha, log B, log beta, log E,
    u_1..u_G) with eff_g = sigmoid(u_g); the residual vector is the per-point
    data misfit followed by the two prior rows sqrt(w) log alpha and
    sqrt(w) log beta.  The rows are canonically sorted first, so the system
    is independent of input ordering.  Returns (residuals, jacobian, groups,
    rows), ``rows`` in that canonical order.
    """
    if residual_space not in RESIDUAL_SPACES:
        raise ValueError(f"unknown residual_space {residual_space!r}")
    data = _canonical(list(data))
    groups = check_scaling_data(data)
    g_index = {key: i for i, key in enumerate(groups)}
    n = len(data)
    log_n = np.array([math.log(r.N) for r in data])
    log_d = np.array([math.log(r.D) for r in data])
    obs = np.array([r.loss for r in data])
    log_obs = np.log(obs)
    # group membership matrix: column g is 1 for rows in fitted group g
    member = np.zeros((n, len(groups)))
    for i, r in enumerate(data):
        if r.precision != FP_LABEL:
            member[i, g_index[(r.method, r.precision)]] = 1.0
    in_group = member.sum(axis=1) > 0
    sqrt_w = math.sqrt(prior_weight)

    def terms(theta):
        # a trial step far out (u << 0) underflows eff to 0: the residual is
        # +inf and LM rejects the step, so that overflow and log(0) are expected
        with np.errstate(over="ignore", divide="ignore"):
            A, alpha, B, beta, E, eff = _unpack_theta(theta)
            eff_row = np.where(in_group, member @ eff, 1.0)
            t1 = A * np.exp(-alpha * (log_n + np.log(eff_row)))
        t2 = B * np.exp(-beta * log_d)
        return A, alpha, B, beta, E, eff, eff_row, t1, t2

    def residuals(theta):
        _, alpha, _, beta, E, _, _, t1, t2 = terms(theta)
        pred = t1 + t2 + E
        if residual_space == "log":
            r = np.log(pred) - log_obs
        else:
            r = pred - obs
        return np.concatenate([r, [sqrt_w * math.log(alpha), sqrt_w * math.log(beta)]])

    def jacobian(theta):
        _, alpha, _, beta, E, eff, eff_row, t1, t2 = terms(theta)
        pred = t1 + t2 + E
        J = np.zeros((n + 2, theta.size))
        J[:n, 0] = t1
        J[:n, 1] = -alpha * (log_n + np.log(eff_row)) * t1
        J[:n, 2] = t2
        J[:n, 3] = -beta * log_d * t2
        J[:n, 4] = E
        # d pred / d u_g = -alpha * t1 * (1 - eff_g) for member rows
        J[:n, 5:] = member * (-alpha * t1 * (member @ (1.0 - eff)))[:, None]
        if residual_space == "log":
            J[:n] /= pred[:, None]
        J[n, 1] = sqrt_w
        J[n + 1, 3] = sqrt_w
        return J

    return residuals, jacobian, groups, data


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on first call so that only a
    fit loads scipy.  It stays a module attribute for ``bench/tracing.py``,
    which swaps it to count residual and Jacobian evaluations."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


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
    (log beta)^2), by Levenberg-Marquardt with an analytic Jacobian in the
    reparametrized variables.  ``n_starts`` seeded initializations are run and
    the best final objective wins, ties broken by lowest start index.  The
    result is independent of input ordering (see ``build_residual_system``).
    """
    residuals, jacobian, groups, rows = build_residual_system(data, prior_weight, residual_space)
    # the start statistics sum in the canonical row order too
    obs = np.array([r.loss for r in rows])
    mean_log_n = np.mean([math.log(r.N) for r in rows])
    mean_log_d = np.mean([math.log(r.D) for r in rows])

    spread = max(obs.max() - obs.min(), 0.1 * obs.min())
    best = None
    for start in range(n_starts):
        rng = make_rng((seed, start))
        # extreme losses can fail a start before LM runs: log of an
        # underflowed spread, exp of an overflowed parameter
        try:
            theta0 = np.concatenate(
                [
                    [
                        math.log(spread) + rng.normal(0.0, 0.5) + 0.3 * mean_log_n,
                        math.log(0.3) + rng.normal(0.0, 0.3),
                        math.log(spread) + rng.normal(0.0, 0.5) + 0.3 * mean_log_d,
                        math.log(0.3) + rng.normal(0.0, 0.3),
                        math.log(0.8 * obs.min()) + rng.normal(0.0, 0.2),
                    ],
                    rng.normal(1.0, 1.0, size=len(groups)),
                ]
            )
            sol = least_squares(
                residuals,
                theta0,
                jac=jacobian,
                method="lm",
                xtol=1e-10,
                ftol=1e-14,
                gtol=1e-14,
                max_nfev=MAX_NFEV,
            )
        except (ValueError, ArithmeticError):
            continue
        if np.isfinite(sol.cost) and (best is None or sol.cost < best.cost):
            best = sol
    if best is None:
        raise NumericalFailure("all fit starts failed")

    A, alpha, B, beta, E, eff = _unpack_theta(best.x)
    return ScalingFit(
        A=A,
        alpha=alpha,
        B=B,
        beta=beta,
        E=E,
        eff={key: float(e) for key, e in zip(groups, eff)},
        residual_rms=float(np.sqrt(np.mean(best.fun[: len(rows)] ** 2))),
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
    grid=DEFAULT_SYNTH_GRID,
) -> list[ScalingDatum]:
    """Generate losses from known law parameters with multiplicative noise.

    ``eff_by_group`` maps (method, precision) to eff; precision 'FP' entries
    must use eff = 1.  Every group gets the full list of (N, D) pairs; the
    default grid carries enough distinct N and D values (5 and 3) to pin all
    five shared parameters, which two distinct D alone cannot do.
    """
    law = ScalingFit(A=A, alpha=alpha, B=B, beta=beta, E=E, eff=eff_by_group, residual_rms=0.0)
    rows = []
    for (method, precision), eff in sorted(eff_by_group.items()):
        if precision == FP_LABEL and eff != 1.0:
            raise ValueError("FP groups must have eff = 1")
        for N, D in grid:
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
