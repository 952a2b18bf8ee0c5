"""Hypothesis properties of the quantizer core, the batched objectives, the
batched gradient clip and the seed-batched rate and quadratic lanes.

Examples are derandomized and run without a deadline, so a slow or noisy host
changes neither which inputs are tried nor whether a property passes.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qatkit.experiments import (
    _STREAM_INIT,
    _STREAM_NOISE,
    _STREAM_PROBLEM,
    OPTIMIZERS,
    lr_at,
    make_quadratic_problem,
    run_convergence_run,
    run_quadratic,
)
from qatkit.numerics import make_rng, make_spd
from qatkit.objectives import quadratic, rosenbrock, toy_scalar
from qatkit.optim import (
    AdamState,
    OptimConfig,
    adamw_step,
    cage_adamw_coupled_step,
    cage_adamw_decoupled_step,
    cage_sgd_step,
    grad_clip,
    lambda_at,
    sgd_step,
)
from qatkit.pareto import ParetoMeasure
from qatkit.qat_grad import ste_backward
from qatkit.quantize import INT_SCHEMES, QuantSpec, _e2m1_round, int_spec, quantize
from qatkit.transform import fwht_unnormalized, hadamard_forward, hadamard_inverse, hadamard_plan

PROPERTY = settings(deadline=None, derandomize=True, max_examples=150)

# magnitudes up to 1e100 keep the row statistics z * z finite
FLOATS = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False)


def stack_butterfly(x):
    """Stride-h butterfly built with np.stack: an independent oracle for the
    bitwise result of ``fwht_unnormalized``."""
    v = np.array(x, dtype=np.float64, copy=True)
    n = v.size
    h = 1
    while h < n:
        v = v.reshape(-1, 2, h)
        top = v[:, 0, :] + v[:, 1, :]
        bot = v[:, 0, :] - v[:, 1, :]
        v = np.stack((top, bot), axis=1).reshape(-1)
        h *= 2
    return v


E2M1_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
E2M1_EVEN = np.array([True, False, True, False, True, False, True, False])
# grid points, midpoints and their neighbours one ulp away: every tie and near-tie
E2M1_TIES = np.concatenate([E2M1_GRID, (E2M1_GRID[1:] + E2M1_GRID[:-1]) / 2.0])
E2M1_EDGES = np.unique(np.concatenate([E2M1_TIES, np.nextafter(E2M1_TIES, 9.0), np.nextafter(E2M1_TIES[1:], -1.0)]))


def distance_matrix_e2m1_round(u):
    """E2M1 grid index by an (n, 8) distance matrix, ties bumped to the even
    mantissa: the rounding as first written, the oracle for ``_e2m1_round``."""
    d = np.abs(u[:, None] - E2M1_GRID[None, :])
    idx = np.argmin(d, axis=1)
    upper = np.minimum(idx + 1, E2M1_GRID.size - 1)
    tie = (d[np.arange(u.size), idx] == d[np.arange(u.size), upper]) & (upper != idx)
    return np.where(tie & ~E2M1_EVEN[idx], upper, idx)


def block_scale_loop(amax):
    """Per-block scale as the Python loop computed it: 2**ceil(log2(amax / 6))."""
    if amax == 0.0:
        return 1.0
    m, e = math.frexp(amax / 6.0)
    if m == 0.5:
        e -= 1
    return math.ldexp(1.0, e)


@st.composite
def int_cases(draw):
    """(spec, x) for an int scheme with 1..4 rows of a drawn row length."""
    scheme = draw(st.sampled_from(("int-hadamard", "int-plain")))
    bits = draw(st.integers(2, 8))
    row_length = draw(st.sampled_from((1, 3, 4, 8, 12, 16)))
    rows = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, rows * row_length, elements=FLOATS))
    return int_spec(scheme, bits, row_length=row_length if rows > 1 or draw(st.booleans()) else None), x


@st.composite
def any_cases(draw):
    """(spec, x) for every scheme."""
    kind = draw(st.sampled_from(("int", "mxfp4", "floor-toy", "none")))
    if kind == "int":
        return draw(int_cases())
    x = draw(arrays(np.float64, draw(st.integers(1, 80)), elements=FLOATS))
    if kind == "mxfp4":
        return QuantSpec(scheme="mxfp4", block_size=draw(st.sampled_from((4, 32)))), x
    if kind == "none":
        return QuantSpec(scheme="none"), x
    return QuantSpec(scheme="floor-toy", grid=draw(st.sampled_from((0.25, 1.0, 3.0)))), x


@st.composite
def batch_cases(draw):
    """(spec, X) with X a batch ``(S, d)`` of 1..4 vectors, or ``(O, S, d)``
    of 1..3 such batches, for every scheme: int schemes with and without
    ``row_length``, mxfp4 with lengths that are not whole blocks."""
    scheme = draw(st.sampled_from(INT_SCHEMES + ("mxfp4", "floor-toy", "none")))
    if scheme in INT_SCHEMES:
        row_length = draw(st.sampled_from((1, 3, 4, 8, 12)))
        per_vector = draw(st.integers(1, 3))
        rl = row_length if per_vector > 1 or draw(st.booleans()) else None
        spec, dim = int_spec(scheme, draw(st.integers(2, 8)), row_length=rl), row_length * per_vector
    elif scheme == "mxfp4":
        spec, dim = QuantSpec(scheme="mxfp4", block_size=draw(st.sampled_from((4, 32)))), draw(st.integers(1, 80))
    elif scheme == "floor-toy":
        spec, dim = QuantSpec(scheme="floor-toy", grid=draw(st.sampled_from((0.25, 1.0)))), draw(st.integers(1, 40))
    else:
        spec, dim = QuantSpec(scheme="none"), draw(st.integers(1, 40))
    lead = draw(st.one_of(st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 3), st.integers(1, 4))))
    return spec, draw(arrays(np.float64, lead + (dim,), elements=FLOATS))


def recomputed_mask_ste(spec, grad, x):
    """Trust-masked STE that recomputes H x and sigma row by row (the form
    that does not reuse the forward pass).  A row whose sigma underflowed to
    0 quantizes to codes 0, so none of its channels count as clipped."""
    rl = spec.row_length or x.shape[0]
    out = []
    for g_row, x_row in zip(grad.reshape(-1, rl), x.reshape(-1, rl)):
        plan = hadamard_plan(rl) if spec.scheme == "int-hadamard" else None
        z = x_row if plan is None else hadamard_forward(plan, x_row)
        sigma = math.sqrt(float(np.mean(z * z)))
        mask = (np.abs(z) <= spec.clip_factor * sigma) | (sigma == 0.0)
        out.append(mask * g_row if plan is None else hadamard_inverse(plan, mask * hadamard_forward(plan, g_row)))
    return np.concatenate(out)


def representable_residual(x, q):
    """Elements where x - q is exact in floating point (TwoSum residual 0)."""
    s = x - q
    b = s - x
    return (x - (s - b)) + (-q - b) == 0.0


@PROPERTY
@given(any_cases())
def test_error_is_the_residual_and_recovers_x(case):
    # quantized + error == x bitwise wherever x - Q(x) is representable; where
    # it is not (x = -0.25000000000000006 floors to -1 with error 0.75), no
    # float error can recover x and the sum is off by an ulp
    spec, x = case
    res = quantize(spec, x)
    assert np.array_equal(res.error, x - res.quantized)
    exact = representable_residual(x, res.quantized)
    assert np.array_equal((res.quantized + res.error)[exact], x[exact])


@PROPERTY
@given(int_cases())
def test_codes_within_grid(case):
    spec, x = case
    codes = quantize(spec, x).codes
    assert codes.dtype == np.int64
    assert codes.min() >= spec.q_min and codes.max() <= spec.q_max


@PROPERTY
@given(int_cases())
def test_keep_mask_matches_saturated_codes(case):
    spec, x = case
    res = quantize(spec, x)
    assert res.keep.shape == res.codes.shape and res.keep.dtype == bool
    assert (np.abs(res.codes[~res.keep]) >= spec.q_max).all()
    assert (np.abs(res.codes[res.keep]) <= spec.q_max).all()


@PROPERTY
@given(
    st.integers(0, 9).flatmap(
        lambda k: arrays(np.float64, st.tuples(st.integers(1, 5), st.just(2**k)), elements=FLOATS)
    )
)
def test_batched_butterfly_matches_rows_and_stack_oracle(rows):
    batched = fwht_unnormalized(rows)
    for i, row in enumerate(rows):
        single = fwht_unnormalized(row)
        assert np.array_equal(batched[i], single)
        assert np.array_equal(single, stack_butterfly(row))


@PROPERTY
@given(int_cases())
def test_row_batched_quantize_matches_per_row(case):
    spec, x = case
    res = quantize(spec, x)
    rl = spec.row_length or x.shape[0]
    row_spec = QuantSpec(scheme=spec.scheme, bits=spec.bits, clip_factor=spec.clip_factor)
    parts = [quantize(row_spec, row) for row in x.reshape(-1, rl)]
    for field in ("quantized", "error", "codes", "keep"):
        assert np.array_equal(getattr(res, field), np.concatenate([getattr(p, field) for p in parts]))
    assert np.array_equal(np.atleast_1d(res.scale), [p.scale for p in parts])


@PROPERTY
@given(arrays(np.float64, st.integers(1, 200), elements=FLOATS))
def test_mxfp4_block_scales_match_loop(x):
    res = quantize(QuantSpec(scheme="mxfp4"), x)
    padded = np.zeros(res.scale.size * 32)
    padded[: x.size] = x
    expected = [block_scale_loop(float(np.max(np.abs(b)))) for b in padded.reshape(-1, 32)]
    assert np.array_equal(res.scale, expected)


@PROPERTY
@given(int_cases(), st.integers(0, 2**32 - 1))
def test_forward_mask_ste_matches_recomputed_mask(case, seed):
    spec, x = case
    grad = np.random.default_rng(seed).standard_normal(x.shape[0])
    out = ste_backward(spec, grad, quantize(spec, x))
    assert np.array_equal(out, recomputed_mask_ste(spec, grad, x))


@PROPERTY
@given(batch_cases(), st.integers(0, 2**32 - 1))
@example((QuantSpec(scheme="mxfp4"), np.linspace(-7.0, 7.0, 90).reshape(2, 45)), 0)
@example((int_spec("int-plain", 4, row_length=4), np.linspace(-3.0, 3.0, 36).reshape(3, 12)), 0)
@example((int_spec("int-hadamard", 4), np.linspace(-3.0, 3.0, 72).reshape(2, 3, 12)), 0)
def test_batched_quantize_matches_each_vector(case, seed):
    spec, X = case
    res = quantize(spec, X)
    lead = X.shape[:-1]
    if spec.scheme != "none":
        scales = np.broadcast_to(res.scale, lead + np.shape(quantize(spec, X[(0,) * len(lead)]).scale))
    if spec.scheme in INT_SCHEMES:
        G = np.random.default_rng(seed).standard_normal(X.shape)
        G_back = ste_backward(spec, G, res)
    for s in np.ndindex(lead):
        one = quantize(spec, X[s])
        for field in ("quantized", "error"):
            assert np.array_equal(getattr(res, field)[s], getattr(one, field))
        if spec.scheme == "none":
            assert res.codes is res.scale is one.codes is one.scale is None
        else:
            assert np.array_equal(res.codes[s], one.codes) and np.array_equal(scales[s], one.scale)
        if spec.scheme in INT_SCHEMES:
            assert np.array_equal(res.keep[s], one.keep)
            assert np.array_equal(G_back[s], ste_backward(spec, G[s], one))
        else:
            assert res.keep is None and one.keep is None


@PROPERTY
@given(
    st.sampled_from((2, 3, 8, 10, 33, 64)).flatmap(
        lambda d: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 5), st.just(d)), elements=st.floats(-10.0, 10.0)),
            st.floats(1.0, 1000.0),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_batched_objectives_match_each_vector(case):
    # each row of a batch gets bitwise the per-vector values, and those are
    # bitwise the quadratic's and the scalar toy's x @ y form
    X, kappa, seed = case
    dim = X.shape[1]
    rng = make_rng(seed)
    A = make_spd(dim, kappa, rng)
    b = rng.standard_normal(dim)
    quad = quadratic(A, b)
    for obj, Y in ((rosenbrock(dim), X), (quad, X), (toy_scalar(), X[:, :1])):
        losses, grads = obj.value_and_grad(Y)
        assert losses.shape == Y.shape[:1] and grads.shape == Y.shape
        for s, y in enumerate(Y):
            loss, g = obj.value_and_grad(y)
            assert type(loss) is float and loss == losses[s]
            assert np.array_equal(g, grads[s])
    for x in X:
        loss, g = quad.value_and_grad(x)
        Ax = A @ x
        assert loss == 0.5 * float(x @ Ax) - float(b @ x)
        assert np.array_equal(g, Ax - b)
        d = x[:1] - 0.5
        assert toy_scalar().loss(x[:1]) == 0.5 * float(d @ d)


@PROPERTY
@given(
    st.sampled_from((2, 3, 8, 33, 64)).flatmap(
        lambda d: st.tuples(
            arrays(np.float64, st.tuples(st.integers(1, 4), st.just(d)), elements=st.floats(-10.0, 10.0)),
            st.floats(1.0, 1000.0),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_stacked_quadratic_matches_each_problem(case):
    # a stack of S problems evaluates row i of an (S, d) batch against
    # problem i, bitwise that problem's lone value, with its own x* and f*
    X, kappa, seed = case
    S, dim = X.shape
    rng = make_rng(seed)
    A = np.stack([make_spd(dim, kappa, rng) for _ in range(S)])
    b = rng.standard_normal((S, dim))
    stack = quadratic(A, b)
    losses, grads = stack.value_and_grad(X)
    assert losses.shape == (S,) and grads.shape == (S, dim)
    for i in range(S):
        lone = quadratic(A[i], b[i])
        loss, g = lone.value_and_grad(X[i])
        assert loss == losses[i] and np.array_equal(g, grads[i])
        assert np.array_equal(g, A[i] @ X[i] - b[i])
        assert stack.f_star[i] == lone.f_star and np.array_equal(stack.x_star[i], lone.x_star)


@PROPERTY
@given(arrays(np.float64, st.integers(1, 64), elements=st.one_of(st.floats(0.0, 6.0), st.sampled_from(E2M1_EDGES))))
@example(E2M1_EDGES)
def test_e2m1_round_matches_distance_matrix(u):
    assert np.array_equal(_e2m1_round(u), distance_matrix_e2m1_round(u))


def lone_rate_run(obj, spec, lam, noise_std, horizon, seed, lipschitz, x0_std):
    """One seed's corrected-SGD rate run, stepped alone with one
    ``standard_normal(d)`` noise draw per step and none at noise 0: the oracle
    for the seed-batched, block-drawn lane.  Under ``none`` it takes e = 0
    without calling the quantizer."""
    alpha = min(1.0 / lipschitz, 1.0 / math.sqrt(horizon))
    x = x0_std * make_rng((_STREAM_INIT, seed)).standard_normal(obj.dim)
    rng = make_rng((_STREAM_NOISE, seed, horizon))
    trace = ParetoMeasure()
    for _ in range(horizon):
        loss, g = obj.value_and_grad(x)
        e = np.zeros_like(x) if spec.scheme == "none" else quantize(spec, x).error
        trace.record(loss, g, e, lam)
        if noise_std != 0.0:
            g = g + noise_std * rng.standard_normal(obj.dim)
        x = x - alpha * (g + lam * e)
    return float(np.mean(trace.pareto_sq)), trace


@settings(PROPERTY, max_examples=25)
@given(
    st.sampled_from(("rosenbrock", "quadratic")),
    st.sampled_from((QuantSpec(scheme="none"), QuantSpec(scheme="floor-toy", grid=0.25), int_spec("int-hadamard", 4))),
    st.sampled_from((0.0, 0.5, 2.0)),
    st.sampled_from((0.0, 0.1)),
    st.integers(1, 300),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
)
@example("rosenbrock", QuantSpec(scheme="floor-toy", grid=0.25), 1.0, 0.1, 300, [0, 7, 3])
def test_seed_batched_rate_lane_matches_lone_runs(name, spec, lam, noise_std, horizon, seeds):
    # a horizon past one 128-step noise block, and not a multiple of it,
    # still gives every seed bitwise its lone run with per-step draws
    obj = rosenbrock(6) if name == "rosenbrock" else quadratic(make_spd(6, 10.0, make_rng(5)), np.ones(6))
    run = run_convergence_run(obj, spec, lam, noise_std, horizon, seeds, 1000.0, x0_std=0.5, keep_trace=True)
    for i, seed in enumerate(seeds):
        mean, trace = lone_rate_run(obj, spec, lam, noise_std, horizon, seed, 1000.0, 0.5)
        assert run.ergodic_means[i] == mean
        if i == 0:
            assert run.trace == trace


def lone_grad_clip(g, max_norm):
    """Norm clipping of one gradient with np.linalg.norm: the oracle for the
    row-wise batched ``grad_clip``."""
    norm = float(np.linalg.norm(g))
    if norm <= max_norm:
        return g
    return g * (max_norm / norm)


@PROPERTY
@given(
    st.integers(1, 64).flatmap(
        lambda d: arrays(np.float64, st.tuples(st.integers(1, 4), st.just(d)), elements=st.floats(-1e3, 1e3))
    ),
    st.sampled_from((0.5, 1.0, 5.0)),
)
@example(np.array([[3.0, 4.0], [0.0, 0.0], [30.0, 40.0], [0.3, 0.4]]), 5.0)
def test_batched_grad_clip_matches_each_row(G, max_norm):
    clipped = grad_clip(G, max_norm)
    for s, g in enumerate(G):
        assert np.array_equal(clipped[s], lone_grad_clip(g, max_norm))
        assert np.array_equal(grad_clip(g, max_norm), lone_grad_clip(g, max_norm))


def lone_quadratic_problem(dim, kappa, seed):
    """One seed's problem drawn on its own, as a plain (d, d) quadratic."""
    rng = make_rng((_STREAM_PROBLEM, seed, int(round(kappa * 1000))))
    A = make_spd(dim, kappa, rng)
    b = rng.standard_normal(dim)
    return quadratic(A, b), rng.standard_normal(dim)


def lone_quadratic_run(obj, x0, optimizer, steps, spec, cfg, lr_schedule, ste_kind, clip):
    """One seed's quadratic-lane run, stepped alone on a vector with
    ``lone_grad_clip``: the oracle for the seed-batched ``run_quadratic``.
    Under ``none`` it steps at x with e = 0 and no quantizer call.  Returns
    (final gap, final loss, trace, iterates)."""
    plain = spec.scheme == "none"
    masked = ste_kind == "trust-masked" and spec.scheme in INT_SCHEMES
    trace = ParetoMeasure()
    x = np.array(x0, dtype=np.float64)
    state = AdamState.zeros(obj.dim)
    iterates = np.empty((steps, obj.dim))
    for t in range(1, steps + 1):
        a_t = lr_at(cfg.lr, t, steps, lr_schedule)
        if not plain:
            qres = quantize(spec, x)
            loss, g_at_q = obj.value_and_grad(qres.quantized)
            g = ste_backward(spec, g_at_q, qres) if masked else g_at_q
            e = qres.error
        else:
            loss, g = obj.value_and_grad(x)
            e = np.zeros_like(x)
        if clip:
            g = lone_grad_clip(g, clip)
        if optimizer.startswith("cage"):
            lam_t = cfg.lam if optimizer == "cage-sgd" else lambda_at(cfg, t, steps)
        else:
            lam_t = 0.0
        trace.record(loss, obj.grad(x), e, lam_t)
        if optimizer == "sgd":
            x = sgd_step(x, g, a_t)
        elif optimizer == "adamw" or (optimizer == "cage-adamw-dec" and plain):
            state, x = adamw_step(state, x, g, cfg, a_t)
        elif optimizer == "cage-sgd":
            x = cage_sgd_step(x, g, e, a_t, lam_t)
        elif optimizer == "cage-adamw-dec":
            state, x = cage_adamw_decoupled_step(state, x, g, cfg, a_t, lam_t, spec)
        else:
            state, x = cage_adamw_coupled_step(state, x, g, e, cfg, a_t, lam_t)
        iterates[t - 1] = x
    final_loss = obj.loss(x if plain else quantize(spec, x).quantized)
    return final_loss - obj.f_star, final_loss, trace, iterates


QUADRATIC_SPECS = {
    "int-hadamard": int_spec("int-hadamard", 4),
    "int-plain-rows": int_spec("int-plain", 3, row_length=4),
    "mxfp4": QuantSpec(scheme="mxfp4", block_size=8),
    "none": QuantSpec(scheme="none"),
}


@settings(PROPERTY, max_examples=40)
@given(
    st.lists(st.sampled_from(OPTIMIZERS), min_size=1, max_size=5, unique=True),
    st.sampled_from(tuple(QUADRATIC_SPECS)),
    st.sampled_from(("trust-masked", "identity")),
    st.sampled_from(("constant", "cosine")),
    st.sampled_from((None, 1.0, 5.0)),
    st.sampled_from((8, 12, 20)),
    st.sampled_from((1.0, 10.0, 100.0)),
    st.sampled_from((0.0, 0.1)),
    st.integers(2, 40),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
)
@example(["cage-adamw-dec"], "int-hadamard", "trust-masked", "cosine", 1.0, 12, 100.0, 0.1, 40, [0, 7, 3])
@example(["cage-adamw-cpl"], "int-plain-rows", "trust-masked", "constant", 5.0, 20, 10.0, 0.0, 30, [2, 2])
@example(
    ["cage-adamw-cpl", "sgd", "cage-adamw-dec", "adamw", "cage-sgd"],
    "int-hadamard", "trust-masked", "cosine", 1.0, 12, 10.0, 0.1, 30, [5, 1],
)
def test_seed_batched_quadratic_lane_matches_lone_runs(
    optimizers, quant, ste_kind, lr_schedule, clip, dim, kappa, weight_decay, steps, seeds
):
    # every (optimizer, seed) final gap and loss, and each optimizer's first
    # seed trace and iterates, are bitwise those of the seed run alone on its
    # own draw
    spec = QUADRATIC_SPECS[quant]
    cfg = OptimConfig(lr=0.05, weight_decay=weight_decay, lam=2.0, silence_ratio=0.5)
    obj, x0 = make_quadratic_problem(dim, kappa, seeds)
    runs = run_quadratic(obj, x0, optimizers, steps, spec, cfg, lr_schedule, ste_kind, clip)
    assert len(runs) == len(optimizers)
    for optimizer, run in zip(optimizers, runs):
        assert len(run.final_gaps) == len(run.final_losses) == len(seeds)
        for i, seed in enumerate(seeds):
            lone_obj, lone_x0 = lone_quadratic_problem(dim, kappa, seed)
            assert np.array_equal(x0[i], lone_x0)
            gap, loss, trace, iterates = lone_quadratic_run(
                lone_obj, lone_x0, optimizer, steps, spec, cfg, lr_schedule, ste_kind, clip
            )
            assert run.final_gaps[i] == gap and run.final_losses[i] == loss
            if i == 0:
                assert run.trace == trace
                assert np.array_equal(run.iterates, iterates)
