"""Desk-scale experiment loops driven by the CLI and the demo scripts.

Three lanes:

* the scalar floor-quantized problem, where corrected SGD lands on the
  closed-form balance points x(lam) = 1 / (2 (1 + lam));
* condition-number-swept quadratics with a 4-bit quantized forward pass,
  comparing plain and corrected optimizers on the final optimality gap; the
  optimizers, kappas and seeds of a chunk of kappas run as one
  ``(O, K S, d)`` state on a stack of the chunk's problems, kappa-major;
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

from .numerics import NumericalFailure, make_rng, make_spd
from .objectives import Objective, quadratic, rosenbrock, toy_scalar
from .optim import AdamState, OptimConfig, cage_adamw_step, cage_sgd_step, grad_clip, lambda_at
from .pareto import TRACE_COLUMNS, balance_sq_norm
from .qat_grad import STE_KINDS, ste_backward
from .quantize import INT_SCHEMES, QuantResult, QuantSpec, quantize

__all__ = [
    "OPTIMIZERS",
    "RATE_OBJECTIVES",
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
_SGD_FAMILY = ("sgd", "cage-sgd")
RATE_OBJECTIVES = ("rosenbrock", "quadratic")

# seed-stream labels so the problem draw, init, and noise never alias
_STREAM_PROBLEM = 11
_STREAM_INIT = 12
_STREAM_NOISE = 13
# steps of gradient noise each seed's generator draws at once in the rate
# lane; a (k, d) draw equals k successive d-draws, so the block size does not
# change the stream
_NOISE_BLOCK = 128


def _empty_trace(*steps_shape: int) -> np.ndarray:
    """An unfilled trace: one row of ``TRACE_COLUMNS[1:]`` per step."""
    return np.empty((*steps_shape, len(TRACE_COLUMNS) - 1))


def _bad_rows(loss: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Which rows of a ``(..., d)`` state, with their ``(...)`` losses, hold a
    NaN or inf; a loss of 0.0 checks the state alone."""
    return ~(np.isfinite(loss) & np.isfinite(x).all(axis=-1))


def _seed_failure(message: str, bad: np.ndarray, n_seeds: int) -> NumericalFailure:
    """NumericalFailure ``message`` naming the first row of the mask ``bad``
    ``(K S,)``, K blocks of ``n_seeds`` seeds (the quadratic lane's kappas;
    the rate lane has one), by its seed index within its block; the block's
    index is the failure's ``kappa_index``."""
    kappa_index, seed_index = divmod(int(np.argmax(bad)), n_seeds)
    failure = NumericalFailure(f"{message}, seed index {seed_index}")
    failure.kappa_index = kappa_index
    return failure


def _rejected_rows(spec: QuantSpec, x: np.ndarray) -> np.ndarray:
    """Which rows of a ``(..., d)`` batch the quantizer rejects, each
    quantized on its own as it is within the batch: the rows behind a
    batch's ``FloatingPointError`` (floor-toy past the float max)."""
    flat = x.reshape(-1, x.shape[-1])
    bad = np.zeros(len(flat), dtype=bool)
    for i, row in enumerate(flat):
        try:
            quantize(spec, row)
        except FloatingPointError:
            bad[i] = True
    return bad.reshape(x.shape[:-1])


def _corrected_sgd(
    obj: Objective,
    spec: QuantSpec,
    x: np.ndarray,
    lr: float,
    lam: float,
    steps: int,
    trace: np.ndarray,
    noise_std: float = 0.0,
    noise_rngs: Sequence[np.random.Generator] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """``steps`` corrected-SGD steps x <- x - lr (g + noise_std xi + lam e)
    on an ``(S, d)`` state, with e = x - Q(x) and row s's noise xi drawn from
    ``noise_rngs[s]`` (unused when ``noise_std`` is 0).

    Returns the final state and the ``(S, steps)`` squared balance-gradient
    norms ||g + lam e||^2, taken at each iterate before its step; ``trace``
    ``(steps, 5)`` is filled with the first row's.  A non-finite initial
    point (an init scale times a normal draw can overflow), loss or iterate,
    or an iterate the quantizer rejects, raises ``NumericalFailure`` naming
    the first bad row's seed index, and the step for all but the first; a
    rejection keeps the quantizer's message.
    """
    bad = _bad_rows(0.0, x)
    if bad.any():
        raise _seed_failure("non-finite initial point", bad, len(x))
    noise = np.empty((len(x), _NOISE_BLOCK, obj.dim))
    pareto_sq = np.empty((len(x), steps))
    for t in range(steps):
        loss, g = obj.value_and_grad(x)
        try:
            e = quantize(spec, x).error
        except FloatingPointError as err:
            raise _seed_failure(
                f"{err} during corrected-SGD run at step {t + 1}", _rejected_rows(spec, x), len(x)
            ) from err
        pareto_sq[:, t] = balance_sq_norm(g, e, lam)
        g0, e0 = g[0], e[0]
        trace[t, 0] = loss[0]
        trace[t, 2] = g0.dot(g0)
        trace[t, 3] = e0.dot(e0)
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
        if not (np.isfinite(loss).all() and np.isfinite(x).all()):
            raise _seed_failure(
                f"non-finite value during corrected-SGD run at step {t + 1}", _bad_rows(loss, x), len(x)
            )
    trace[:, 1] = pareto_sq[0]
    trace[:, 4] = lam
    return x, pareto_sq


# ---------------------------------------------------------------------------
# scalar floor-quantized lane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyParetoResult:
    final_x: float
    pareto_grad_abs: float
    ste_grad_abs: float
    trace: np.ndarray  # (steps, 5)


def run_toy_pareto(lam: float, lr: float = 0.05, steps: int = 5000, x0: float = 0.9) -> ToyParetoResult:
    """Corrected SGD with constant lam on the scalar problem, floor grid 1.

    The iterate moves by x - lr (grad f(x) + lam (x - Q(x))); for lam > 0 it
    converges to the balance point 1 / (2 (1 + lam)) from x0 = 0.9, while the
    straight-through gradient at Q(x) stays bounded away from zero.  A
    non-finite value raises ``NumericalFailure`` naming the step.
    """
    obj = toy_scalar()
    spec = QuantSpec(scheme="floor-toy")
    trace = _empty_trace(steps)
    try:
        (x,), _ = _corrected_sgd(obj, spec, np.array([[float(x0)]]), lr, lam, steps, trace)
    except NumericalFailure as err:
        # the lane's one row is not a seed: drop the index the batched loop names
        raise NumericalFailure(str(err).removesuffix(", seed index 0")) from err
    fwd = quantize(spec, x)  # grid 1 takes every finite x: floor(x) is finite
    return ToyParetoResult(
        final_x=float(x[0]),
        # at d = 1, sqrt(p p) is |p| bitwise while p p neither under- nor overflows
        pareto_grad_abs=math.sqrt(balance_sq_norm(obj.grad(x), fwd.error, lam)),
        ste_grad_abs=float(np.abs(obj.grad(fwd.quantized))[0]),
        trace=trace,
    )


# ---------------------------------------------------------------------------
# quadratic lane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticRun:
    """One optimizer's run on one kappa: every seed's final gap, and its
    kappa's first seed's trace ``(steps, 5)`` and iterates.  The iterates
    are ``(n_i, d)`` row blocks, one per phase of the run, in step order;
    each is a view of the phase's block, which every optimizer stepping as
    one row with this one in that phase shares (``pca_project`` reads the
    blocks as they are; ``np.concatenate`` gives the ``(steps, d)`` array).
    """

    final_gaps: list[float]
    trace: np.ndarray
    iterates: tuple[np.ndarray, ...]


def _draw_quadratic(dim: int, kappa: float, seed: int):
    """One seed's quadratic from its own generator: ``(A, b, x*, f*, rng)``,
    with ``rng`` positioned for the init draw.

    A is ``make_spd``'s draw and b a normal vector; the minimizer comes from
    the eigenbasis and spectrum ``make_spd`` returns with A,
    x* = Q ((Q^T b) / eigs), with f* = -1/2 b^T x*: two matvecs, no
    factorization or solve.
    """
    rng = make_rng((_STREAM_PROBLEM, seed, int(round(kappa * 1000))))
    A, Q, eigs = make_spd(dim, kappa, rng)
    b = rng.standard_normal(dim)
    x_star = Q @ ((Q.T @ b) / eigs)
    return A, b, x_star, -0.5 * float(b @ x_star), rng


def make_quadratic_problem(dim: int, kappas: Sequence[float], seeds: Sequence[int], sigma0: float = 1.0):
    """Shared problem draw for the (kappa, seed) cells of a kappa list and a
    seed list: the K S quadratics (``_draw_quadratic``), kappa-major, as one
    stacked objective, and the ``(K, S, d)`` inits.

    Each (kappa, seed) draws from its own generator, so a cell's problem does
    not depend on which other cells share the stack.  All optimizers in a
    cell must see the same problems so that per-seed comparisons are paired.
    """
    kappas, seeds = tuple(kappas), tuple(seeds)
    cells = [(kappa, seed) for kappa in kappas for seed in seeds]
    if not cells:
        raise ValueError("need at least one kappa and one seed")
    b = np.empty((len(cells), dim))
    x_star = np.empty((len(cells), dim))
    f_star = np.empty(len(cells))
    x0 = np.empty((len(cells), dim))
    for i, (kappa, seed) in enumerate(cells):
        spd, b[i], x_star[i], f_star[i], rng = _draw_quadratic(dim, kappa, seed)
        if i == 0:
            # allocated after the draw's temporaries are gone, not next to them
            A = np.empty((len(cells), dim, dim))
        A[i] = spd
        x0[i] = sigma0 * rng.standard_normal(dim)
    return quadratic(A, b, x_star, f_star), x0.reshape(len(kappas), len(seeds), dim)


def run_quadratic(
    obj: Objective,
    x0: np.ndarray,
    optimizers: Sequence[str],
    steps: int,
    spec: QuantSpec,
    cfg: OptimConfig,
    ste_kind: str = "trust-masked",
    grad_clip_norm: float = 1.0,
) -> tuple[tuple[QuadraticRun, ...], ...]:
    """Run each of ``optimizers`` on quantized-forward quadratics from every
    row of ``x0`` ``(K, S, d)`` (K kappas of S seeds; ``(S, d)`` is one
    kappa); returns, per kappa, one run per optimizer, in order.

    Row (k, i) runs on problem k S + i of a stacked ``obj`` (see
    ``make_quadratic_problem``) and is bitwise its lone run.  Each step
    quantizes, evaluates, transports and clips (per row; ``grad_clip_norm``
    0 disables it) all rows at once.  The rows are ordered into two
    contiguous family blocks before the loop, so each step makes one
    ``cage_sgd_step`` call on the SGD block and one ``cage_adamw_step`` call
    (one ``AdamState``) on the AdamW block, with per-row lambdas: cage-sgd
    takes the constant ``cfg.lam``, both AdamW corrections the ramp
    ``lambda_at(cfg, t, steps)`` (as lam_cpl or lam_dec) and the plain
    optimizers 0; the traces record the same values, and every step takes
    the lr ``cfg.lr``.

    Optimizers of one family whose coefficients have agreed, bit for bit,
    on every step so far hold the same state.  They form a group, which
    steps as one row of an ``(R, K S, d)`` state, R <= O: through the
    silence period a cage-adamw optimizer is its adamw, and at lam 0
    cage-sgd is sgd.  Groups only split, on steps the lambda tables name in
    advance; a split hands each new group its old group's x and Adam
    moments, and each member's trace, iterates and gaps are its group's.
    A phase, a run of steps with the same groups, records its R groups'
    first-seed iterates once, as one ``(phase steps, R, K, d)`` block, and
    each member's ``iterates`` are views of its group's rows.

    The decoupled error e_dec is the forward pass's at ``weight_decay`` 0,
    where the decayed point (1 - lr 0) x is x bitwise; otherwise the
    decayed points of the groups whose decoupled lambda is positive are
    quantized again, and the other groups, which multiply e_dec by 0, take
    the forward error, as in their lone runs.  One paired evaluation
    (``obj.value_and_grads``, one read of each matrix per row) gives the
    loss and gradient at Q(x) and the trace's gradient at x; the gradient
    at Q(x) is transported back trust-masked only for ``ste_kind``
    "trust-masked" with an int scheme (else as is).  The gap is f(Q(x_T)) - f*, one per row.  Under the
    scheme ``none`` Q is the identity and e = 0: full-precision training.
    A run's trace and iterates are its kappa's first seed's.

    A non-finite initial point, loss or iterate, or a point the quantizer
    rejects, stops every kappa together; the ``NumericalFailure`` names the
    optimizers whose groups it hit, the step and the first such row's seed
    index within its kappa, and carries that kappa's index as
    ``kappa_index``.
    """
    if isinstance(optimizers, str) or not optimizers:
        raise ValueError(f"optimizers must be a non-empty sequence of names, got {optimizers!r}")
    for name in optimizers:
        if name not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {name!r}")
    if ste_kind not in STE_KINDS:
        raise ValueError(f"unknown ste_kind {ste_kind!r}")
    masked = ste_kind == "trust-masked" and spec.scheme in INT_SCHEMES
    x0 = np.array(x0, dtype=np.float64, ndmin=3)
    n_kappas, n_seeds, dim = x0.shape
    x0 = x0.reshape(-1, dim)
    bad = _bad_rows(0.0, x0)
    if bad.any():
        raise _seed_failure("non-finite initial point", bad, n_seeds)
    # SGD-family rows first, then AdamW-family rows; inv restores the caller's order
    order = sorted(range(len(optimizers)), key=lambda o: optimizers[o] not in _SGD_FAMILY)
    inv = np.argsort(order)
    names = [optimizers[o] for o in order]
    n = sum(name in _SGD_FAMILY for name in names)
    lam_fixed = np.array([cfg.lam if name == "cage-sgd" else 0.0 for name in names])[:, None, None]
    ramped = np.array([name.startswith("cage-adamw") for name in names])[:, None, None]
    coupled = np.array([name == "cage-adamw-cpl" for name in names[n:]])[:, None, None]
    # every step's per-row lambdas, (steps, O, 1, 1), and the AdamW block's
    # split of them into coupled and decoupled coefficients
    ramp = np.array([lambda_at(cfg, t, steps) for t in range(1, steps + 1)])[:, None, None, None]
    lam_rows = np.where(ramped, ramp, lam_fixed)
    lam_cpl_rows = np.where(coupled, lam_rows[:, n:], 0.0)
    lam_dec_rows = np.where(coupled, 0.0, lam_rows[:, n:])
    # groups[t - 1, o]: the row that steps for row o on step t, the first row
    # of o's family whose coefficients (the SGD lambda, or lam_cpl and
    # lam_dec) are o's bit for bit on steps 1..t (g + -0.0 e keeps a -0.0
    # that g + 0.0 e turns to +0.0); a phase starts where groups change
    coefs = np.zeros((steps, len(names), 2))
    coefs[:, :n, 0] = lam_rows[:, :n, 0, 0]
    coefs[:, n:, 0] = lam_cpl_rows[..., 0, 0]
    coefs[:, n:, 1] = lam_dec_rows[..., 0, 0]
    bits = coefs.view(np.int64)
    family = np.arange(len(names)) >= n
    same = (bits[:, :, None] == bits[:, None]).all(axis=-1) & (family[:, None] == family)
    groups = np.logical_and.accumulate(same, axis=0).argmax(axis=2)
    starts = [1, *(np.flatnonzero((groups[1:] != groups[:-1]).any(axis=1)) + 2).tolist()]
    phase_end = dict(zip(starts, [*starts[1:], steps + 1]))
    # before step 1 every row sits at x0 with zero moments, as one group
    x = x0[None]
    state = AdamState.zeros(x.shape)
    reps, member, r = np.zeros(1, dtype=np.intp), np.zeros(len(names), dtype=np.intp), 0
    # each kappa's first seed is every n_seeds-th row
    traces = _empty_trace(len(names), n_kappas, steps)
    traces[..., 4] = lam_rows[:, :, 0, 0].T[:, None]
    # per phase, its groups' first-seed iterates, (phase steps, R, K, d), and
    # which group each row is in
    phases = []

    def failure(what: str, when: str, bad: np.ndarray, rows=slice(None)) -> NumericalFailure:
        """``_seed_failure`` for the mask ``bad`` over the groups ``rows``,
        naming every optimizer of a group it hits."""
        hits = np.zeros((len(reps), len(x0)), dtype=bool)
        hits[rows] = bad
        hits = hits[member][inv]
        hit = ", ".join(name for name, b in zip(optimizers, hits.any(axis=1)) if b)
        return _seed_failure(f"{what} during quadratic run ({hit}) {when}", hits.any(axis=0), n_seeds)

    def checked_quantize(x: np.ndarray, when: str, rows=slice(None)) -> QuantResult:
        """``quantize(spec, x)`` of the groups ``rows``, whose rejection is a failure."""
        try:
            return quantize(spec, x)
        except FloatingPointError as err:
            raise failure(str(err), when, _rejected_rows(spec, x), rows) from err

    for t in range(1, steps + 1):
        if t in phase_end:
            reps = np.flatnonzero(groups[t - 1] == np.arange(len(names)))
            gather, r_old, r = member[reps], r, np.count_nonzero(reps < n)
            x = x[gather]
            state.m, state.v = state.m[gather[r:] - r_old], state.v[gather[r:] - r_old]
            member = np.searchsorted(reps, groups[t - 1])
            lam_reps = lam_rows[:, reps]
            lam_cpl_reps, lam_dec_reps = lam_cpl_rows[:, reps[r:] - n], lam_dec_rows[:, reps[r:] - n]
            t0, seg = t, np.empty((phase_end[t] - t, len(reps), n_kappas, dim))
            phases.append((seg, member))
        qres = checked_quantize(x, f"at step {t}")
        loss, g, g_x = obj.value_and_grads(qres.quantized, x)
        g = ste_backward(spec, g, qres) if masked else g
        e = qres.error
        if grad_clip_norm:
            g = grad_clip(g, grad_clip_norm)
        g0, e0 = g_x[:, ::n_seeds], e[:, ::n_seeds]
        lams = lam_reps[t - 1]
        row = np.empty((len(reps), n_kappas, 4))
        row[..., 0] = loss[:, ::n_seeds]
        row[..., 1] = balance_sq_norm(g0, e0, lams)
        np.vecdot(g0, g0, out=row[..., 2])
        np.vecdot(e0, e0, out=row[..., 3])
        traces[:, :, t - 1, :4] = row[member]

        if r:
            x[:r] = cage_sgd_step(x[:r], g[:r], e[:r], cfg.lr, lams[:r])
        if r < len(reps):
            lam_cpl, lam_dec = lam_cpl_reps[t - 1], lam_dec_reps[t - 1]
            e_dec = e[r:]
            # only the groups with a positive lam_dec read e_dec; the others
            # multiply the forward error by 0, as in their lone runs
            dec = np.flatnonzero(lam_dec[:, 0, 0] > 0) if cfg.weight_decay else ()
            if len(dec):
                x_dec = (1.0 - cfg.lr * cfg.weight_decay) * x[r + dec]
                e_dec = e_dec.copy()
                # the quantizer rejects a NaN or inf; where the decayed point
                # overflows, the step's own decay does too, and the check below fails it
                if np.isfinite(x_dec).all():
                    e_dec[dec] = checked_quantize(x_dec, f"at step {t}", r + dec).error
                else:
                    e_dec[dec] = x_dec
            state, x[r:] = cage_adamw_step(state, x[r:], g[r:], e[r:], e_dec, cfg, cfg.lr, lam_cpl, lam_dec)
        if not (np.isfinite(loss).all() and np.isfinite(x).all()):
            raise failure("non-finite value", f"at step {t}", _bad_rows(loss, x))
        seg[t - t0] = x[:, ::n_seeds]

    gaps = obj.loss(checked_quantize(x, "at the final iterate").quantized) - obj.f_star
    gaps = gaps.reshape(len(reps), n_kappas, n_seeds)[member]
    return tuple(
        tuple(
            QuadraticRun(
                final_gaps=gaps[o, k].tolist(),
                trace=traces[o, k],
                iterates=tuple(seg[:, group[o], k] for seg, group in phases),
            )
            for o in inv
        )
        for k in range(n_kappas)
    )


# ---------------------------------------------------------------------------
# ergodic-rate lane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRun:
    alpha: float
    ergodic_means: list[float]
    trace: np.ndarray  # the first seed's, (horizon, 5)


def make_rate_objective(name: str, dim: int, kappa: float = 10.0, seed: int = 0,
                        lipschitz: float = 1000.0) -> tuple[Objective, float]:
    """Objective for the rate study plus its gradient-Lipschitz constant L.

    The quadratic is the quadratic lane's draw for ``seed``
    (``_draw_quadratic``), with x* and f* from its eigenbasis, and its L is
    ``kappa``: ``make_spd`` sets the spectrum exactly, log-spaced on
    [1, kappa].  The non-convex objective uses the configured constant.
    """
    if name not in RATE_OBJECTIVES:
        raise ValueError(f"unknown rate objective {name!r}")
    if name == "rosenbrock":
        return rosenbrock(dim), lipschitz
    A, b, x_star, f_star, _ = _draw_quadratic(dim, kappa, seed)
    return quadratic(A, b, x_star, f_star), kappa


def run_convergence_run(
    obj: Objective,
    spec: QuantSpec,
    lam: float,
    noise_std: float,
    horizon: int,
    seeds: Sequence[int],
    lipschitz: float,
    x0_std: float = 0.25,
) -> ConvergenceRun:
    """Corrected SGD at fixed horizon with alpha = min(1/L, 1/sqrt(T)), one
    run per seed, all seeds stepped together as one ``(S, d)`` state.

    The squared balance-gradient norm is recorded at each iterate before the
    step; its ergodic mean over the horizon, per seed, is the rate study's
    observable.  The init draw depends only on the seed, so runs at different
    horizons share their starting point.  Each seed has its own noise
    generator, so a seed's run does not depend on which other seeds share
    the batch.  The run's trace is the first seed's.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    alpha = min(1.0 / lipschitz, 1.0 / math.sqrt(horizon))
    x = np.stack([x0_std * make_rng((_STREAM_INIT, seed)).standard_normal(obj.dim) for seed in seeds])
    trace = _empty_trace(horizon)
    noise_rngs = [make_rng((_STREAM_NOISE, seed, horizon)) for seed in seeds]
    _, pareto_sq = _corrected_sgd(obj, spec, x, alpha, lam, horizon, trace, noise_std, noise_rngs)
    return ConvergenceRun(
        alpha=alpha,
        # rows are contiguous, so each mean sums in the order of a lone run
        ergodic_means=pareto_sq.mean(axis=1).tolist(),
        trace=trace,
    )
