"""Hypothesis properties of the quantizer core, the batched clip calibration,
the batched objectives, the batched gradient clip, the in-place AdamW steps,
the seed-batched rate and quadratic lanes and the trajectory PCA.

Examples are derandomized and run without a deadline, so a slow or noisy host
changes neither which inputs are tried nor whether a property passes.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    E2M1_GRID,
    SUBNORMAL_ULP,
    adamw_step_out_of_place,
    cage_adamw_step_out_of_place,
    calibrate_clip_lone,
    clip_mse_slope_lone,
    fwht_unnormalized,
    gaussian_clip_mse_lone,
    hadamard_tolerance,
    int_reference,
    int_transform_rows,
    mxfp4_entry_scales,
    norm2,
    solved_quadratic,
    pca_eigh,
    quantize_mxfp4_padded,
    rejected_rows_lone,
)
from qatkit.cli import _FLAG_ALIASES, _OPTIONS, main
from qatkit.experiments import (
    _STREAM_INIT,
    _STREAM_NOISE,
    OPTIMIZERS,
    RATE_OBJECTIVES,
    _draw_quadratic,
    make_quadratic_problem,
    run_convergence_run,
    run_quadratic,
)
from qatkit.numerics import NumericalFailure, make_rng, make_spd, pca_project
from qatkit.objectives import quadratic, rosenbrock, toy_scalar
from qatkit.optim import AdamState, OptimConfig, adamw_step, cage_adamw_step, grad_clip, lambda_at, sgd_step
from qatkit.qat_grad import STE_KINDS, ste_backward
from qatkit.quantize import (
    INT_SCHEMES,
    GridOverflowError,
    QuantSpec,
    _clip_mse_slopes,
    _e2m1_round,
    calibrate_clip,
    gaussian_clip_mse,
    quantize,
)
from qatkit.transform import hadamard_forward, hadamard_inverse, hadamard_plan

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


@st.composite
def int_cases(draw):
    """(spec, x) for an int scheme and one vector, padded to the transform
    length or not."""
    scheme = draw(st.sampled_from(("int-hadamard", "int-plain")))
    bits = draw(st.integers(2, 8))
    x = draw(arrays(np.float64, draw(st.sampled_from((1, 3, 4, 8, 12, 16, 24, 32, 48))), elements=FLOATS))
    return QuantSpec(scheme=scheme, bits=bits), x


@st.composite
def any_cases(draw):
    """(spec, x) for every scheme."""
    kind = draw(st.sampled_from(("int", "mxfp4", "floor-toy", "none")))
    if kind == "int":
        return draw(int_cases())
    x = draw(arrays(np.float64, draw(st.integers(1, 80)), elements=FLOATS))
    if kind == "mxfp4":
        return QuantSpec(scheme="mxfp4"), x
    if kind == "none":
        return QuantSpec(scheme="none"), x
    return QuantSpec(scheme="floor-toy", grid=draw(st.sampled_from((0.25, 1.0, 3.0)))), x


@st.composite
def batch_cases(draw):
    """(spec, X) with X a batch ``(S, d)`` of 1..4 vectors, or ``(O, S, d)``
    of 1..3 such batches, for every scheme: int schemes at lengths padded
    to the transform length or not, mxfp4 with lengths that are not whole
    blocks."""
    scheme = draw(st.sampled_from(INT_SCHEMES + ("mxfp4", "floor-toy", "none")))
    if scheme in INT_SCHEMES:
        spec, dim = QuantSpec(scheme=scheme, bits=draw(st.integers(2, 8))), draw(st.integers(1, 36))
    elif scheme == "mxfp4":
        spec, dim = QuantSpec(scheme="mxfp4"), draw(st.integers(1, 80))
    elif scheme == "floor-toy":
        spec, dim = QuantSpec(scheme="floor-toy", grid=draw(st.sampled_from((0.25, 1.0)))), draw(st.integers(1, 40))
    else:
        spec, dim = QuantSpec(scheme="none"), draw(st.integers(1, 40))
    lead = draw(st.one_of(st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 3), st.integers(1, 4))))
    return spec, draw(arrays(np.float64, lead + (dim,), elements=FLOATS))


def recomputed_mask_ste(spec, grad, x):
    """Trust-masked STE that recomputes H x and sigma (the form that does not
    reuse the forward pass).  A vector whose sigma underflowed to 0
    quantizes to codes 0, so none of its channels count as clipped."""
    plan = hadamard_plan(x.shape[0]) if spec.scheme == "int-hadamard" else None
    z = x if plan is None else hadamard_forward(plan, x)
    sigma = math.sqrt(float(np.mean(z * z)))
    mask = (np.abs(z) <= spec.clip_factor * sigma) | (sigma == 0.0)
    return mask * grad if plan is None else hadamard_inverse(plan, mask * hadamard_forward(plan, grad))


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
    # Q(x) is H^T (s codes) with codes in [q_min, q_max] at the test's own row
    # scale s = k rms(Hx) / q_max; where no row is padded, H Q(x) / s itself
    # lies on the integer grid within that range
    spec, x = case
    res = quantize(spec, x)
    q, _, s, codes = int_reference(spec, x)
    assert np.abs((res.quantized - q) / s).max() <= 1e-9
    if spec.scheme == "int-plain" or x.size & (x.size - 1) == 0:
        c = int_transform_rows(spec, res.quantized, 1) / s
        assert np.abs(c - codes).max() <= 1e-9
        assert np.rint(c).min() >= spec.q_min and np.rint(c).max() <= spec.q_max


@PROPERTY
@given(int_cases())
def test_keep_mask_matches_saturated_codes(case):
    spec, x = case
    res = quantize(spec, x)
    codes = int_reference(spec, x)[3][0]  # padded to the transform length, as keep is
    assert res.keep.shape == codes.shape and res.keep.dtype == bool
    assert (np.abs(codes[~res.keep]) >= spec.q_max).all()
    assert (np.abs(codes[res.keep]) <= spec.q_max).all()


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


# any (..., n) batch: 0..3 leading axes, lengths up to 4096 with and without padding
TRANSFORM_BATCHES = st.tuples(
    st.lists(st.integers(1, 3), max_size=3),
    st.one_of(st.integers(1, 80), st.sampled_from((100, 128, 300, 512, 1000, 2048, 4096))),
).flatmap(lambda s: arrays(np.float64, tuple(s[0]) + (s[1],), elements=FLOATS))


@PROPERTY
@given(TRANSFORM_BATCHES)
def test_batched_transform_rows_are_their_lone_calls(x):
    plan = hadamard_plan(x.shape[-1])
    z = hadamard_forward(plan, x)
    back = hadamard_inverse(plan, z)
    assert z.shape == x.shape[:-1] + (plan.padded_dim,) and back.shape == x.shape
    for i in np.ndindex(x.shape[:-1]):
        assert np.array_equal(z[i], hadamard_forward(plan, x[i]))
        assert np.array_equal(back[i], hadamard_inverse(plan, z[i]))


@PROPERTY
@given(TRANSFORM_BATCHES)
def test_transform_matches_butterfly_oracle_and_inverts(x):
    plan = hadamard_plan(x.shape[-1])
    n = plan.padded_dim
    rows = x.reshape(-1, x.shape[-1])
    padded = np.zeros((len(rows), n))
    padded[:, : rows.shape[1]] = rows
    z = hadamard_forward(plan, rows)
    oracle = fwht_unnormalized(padded) * plan.scale
    back = hadamard_inverse(plan, z)
    for row, z_row, o_row, b_row in zip(rows, z, oracle, back):
        tol = hadamard_tolerance(n) * norm2(row)
        assert np.abs(z_row - o_row).max() <= tol + SUBNORMAL_ULP
        # a round trip is two transforms
        assert np.abs(b_row - row).max() <= 2 * tol + SUBNORMAL_ULP


@PROPERTY
@given(arrays(np.float64, st.integers(1, 200), elements=FLOATS))
@example(np.array([0.75, -0.25, 0.0625]))  # amax / 6 = 2^-3 (frexp mantissa 0.5); 0.0625 needs s = 2^-3
def test_mxfp4_block_scales_match_loop(x):
    # each block is s E2M1 with the loop's scale s, rounded as the distance matrix rounds
    res = quantize(QuantSpec(scheme="mxfp4"), x)
    s = mxfp4_entry_scales(x)
    expected = np.copysign(E2M1_GRID[distance_matrix_e2m1_round(np.abs(x) / s)] * s, x)
    assert np.array_equal(res.quantized, expected)


# signed zeros, subnormals, the smallest normal and magnitudes far from 1:
# the entries where an in-place rewrite could round or sign differently
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-315, 2.2250738585072014e-308, 1e-300, -1e-300, 1.0, -3.5)


def special_floats(max_abs: float):
    """Finite floats within ``max_abs``, the ``SPECIALS`` and +-max_abs among them."""
    fixed = [v for v in SPECIALS if abs(v) <= max_abs] + [max_abs, -max_abs]
    return st.one_of(st.sampled_from(fixed), st.floats(-max_abs, max_abs, allow_nan=False, allow_infinity=False))


@st.composite
def mxfp4_batches(draw):
    """A batch ``(S, d)`` or ``(O, S, d)`` of special-laden rows of whole
    blocks (d = 32, 64, 96) or not."""
    dim = draw(st.one_of(st.sampled_from((32, 64, 96)), st.integers(1, 100)))
    lead = draw(st.one_of(st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 3), st.integers(1, 3))))
    return draw(arrays(np.float64, lead + (dim,), elements=special_floats(1e300)))


@PROPERTY
@given(mxfp4_batches())
@example(np.array([[[-0.0, 5e-324] * 32], [[1e300, -1e300] * 32]]))
def test_mxfp4_matches_padded_oracle_bitwise(x):
    # whole blocks are viewed in place and partial ones padded; both give
    # the bytes of the padded, out-of-place quantizer
    res = quantize(QuantSpec(scheme="mxfp4"), x)
    quantized, error = quantize_mxfp4_padded(x)
    assert res.quantized.shape == res.error.shape == x.shape
    assert res.quantized.tobytes() == quantized.tobytes()
    assert res.error.tobytes() == error.tobytes()


@PROPERTY
@given(
    arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 70)), elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from((1.79e308, -1.6e308, 1.5e308, -1.2e308, float(np.finfo(float).max), 1e-300, -0.0)),
    )),
)
def test_mxfp4_is_finite_over_the_float_range(x):
    # finite in, finite out, with no warning; each row is its lone result and
    # every entry the oracle does not overflow on is the oracle's, bitwise
    spec = QuantSpec(scheme="mxfp4")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = quantize(spec, x)
        rows = [quantize(spec, row) for row in x]
    assert np.isfinite(res.quantized).all() and np.isfinite(res.error).all()
    assert res.error.tobytes() == (x - res.quantized).tobytes()
    for i, one in enumerate(rows):
        assert res.quantized[i].tobytes() == one.quantized.tobytes()
    with np.errstate(over="ignore"):
        oracle, _ = quantize_mxfp4_padded(x)
    kept = np.isfinite(oracle)
    assert res.quantized[kept].tobytes() == oracle[kept].tobytes()
    assert (np.abs(res.quantized[~kept]) == 3.0 * 2.0**1022).all()


@st.composite
def floor_overflow_cases(draw):
    """(spec, x, i, bad) for floor-toy: x ``(d,)``, ``(S, d)`` or ``(R, K, d)``
    with entries below, at and past the grid's threshold min(grid, 1) 2**1022
    and the float max, and an entry index i and NaN or inf ``bad`` for it."""
    grid = draw(st.sampled_from((1e-300, 0.25, 1.0, 3.0, 1e308)))
    threshold = min(grid, 1.0) * 2.0**1022
    big = float(np.finfo(float).max)
    magnitude = st.one_of(
        st.floats(0.0, 10.0),
        st.floats(0.0, 3.99).map(lambda f: f * threshold),
        st.sampled_from((np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, big), big)),
    )
    lead = draw(st.sampled_from(((), (1,), (4,), (2, 3), (3, 1))))
    shape = lead + (draw(st.integers(1, 6)),)
    signs = draw(arrays(np.float64, shape, elements=st.sampled_from((1.0, -1.0))))
    x = signs * draw(arrays(np.float64, shape, elements=magnitude))
    i = draw(st.integers(0, x.size - 1))
    return QuantSpec(scheme="floor-toy", grid=grid), x, i, draw(st.sampled_from((np.nan, np.inf, -np.inf)))


@PROPERTY
@given(floor_overflow_cases())
@example((QuantSpec(scheme="floor-toy", grid=1e-300), np.array([[0.5, -1e-10], [1e10, 0.0]]), 0, np.nan))
@example((QuantSpec(scheme="floor-toy", grid=1e308), np.array([[[-1.7e308]], [[1.0]]]), 1, np.inf))
def test_floor_toy_rejection_names_the_rows_rejected_on_their_own(case):
    # a vector is rejected on its own where its x / grid or grid point
    # passes the float max; a batch raises exactly when some vector would,
    # its rows are those vectors, and its message is the batch's; a NaN or
    # inf entry is still the plain rejection of every scheme
    spec, x, i, bad = case
    with np.errstate(over="ignore"):
        past_max = ~np.isfinite(np.floor(x / spec.grid) * spec.grid).all(axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expect = rejected_rows_lone(spec, x)
        assert np.array_equal(expect, past_max)
        try:
            res = quantize(spec, x)
        except GridOverflowError as err:
            assert expect.any()
            assert err.rows.shape == x.shape[:-1] and err.rows.dtype == bool
            assert np.array_equal(err.rows, expect)
            assert str(err) == (
                f"floor-toy grid point past the float max: max |x| = {float(np.abs(x).max())!r} "
                f"on grid {spec.grid!r}"
            )
        else:
            assert not expect.any()
            assert np.isfinite(res.quantized).all()
        x = x.copy()
        x.flat[i] = bad
        with pytest.raises(FloatingPointError) as info:
            quantize(spec, x)
    assert type(info.value) is FloatingPointError
    assert str(info.value) == "quantizer input has a NaN or inf entry"


@PROPERTY
@given(
    st.integers(1, 3),
    st.integers(1, 40),
    st.integers(0, 60),
    st.sampled_from((0.0, 0.1)),
    st.floats(1e-4, 0.5),
    st.data(),
)
def test_adamw_matches_out_of_place_oracle_bitwise(rows, dim, t, weight_decay, lr, data):
    # the in-place step and its corrected form give the bytes of the
    # formulas written out of place; g, m and e stay below 1e150 so that
    # g * g cannot overflow
    draw = lambda max_abs: data.draw(arrays(np.float64, (rows, dim), elements=special_floats(max_abs)))
    x, v = draw(1e300), np.abs(draw(1e300))
    g, m, e, e_dec = draw(1e150), draw(1e150), draw(1e150), draw(1e150)
    lam_cpl, lam_dec = data.draw(arrays(np.float64, (2, rows, 1), elements=st.sampled_from((0.0, 0.3, 2.0))))
    cfg = OptimConfig(lr=lr, weight_decay=weight_decay, lam=2.0, silence_ratio=0.0)
    x_in = x.copy()
    for step, oracle, args in (
        (adamw_step, adamw_step_out_of_place, (g,)),
        (cage_adamw_step, cage_adamw_step_out_of_place, (g, e, e_dec)),
    ):
        coefficients = (lam_cpl, lam_dec) if step is cage_adamw_step else ()
        ref_state, ref_x = oracle(AdamState(m=m, v=v, t=t), x, *args, cfg, lr, *coefficients)
        state = AdamState(m=m.copy(), v=v.copy(), t=t)
        new_state, new_x = step(state, x, *args, cfg, lr, *coefficients)
        assert new_state is state and state.t == ref_state.t == t + 1
        assert new_x.tobytes() == ref_x.tobytes()
        assert state.m.tobytes() == ref_state.m.tobytes() and state.v.tobytes() == ref_state.v.tobytes()
        assert x.tobytes() == x_in.tobytes()


@settings(PROPERTY, max_examples=60)
@given(st.lists(st.tuples(st.integers(2, 8), st.floats(0.05, 8.0)), min_size=1, max_size=9))
@example([(b, 2.0) for b in range(2, 9)])
@example([(8, 0.5), (2, 6.0), (8, 0.5)])
def test_batched_calibration_matches_lone_bisections(widths):
    # every width of a batch, in any order and repeated or not, gets bitwise
    # the lone bisection's k_b, and its slope at a drawn k is the lone slope
    bits = tuple(b for b, _ in widths)
    ks = np.array([k for _, k in widths])
    assert calibrate_clip(bits) == [calibrate_clip_lone(b) for b in bits]
    assert _clip_mse_slopes(bits, ks).tolist() == [clip_mse_slope_lone(b, k) for b, k in widths]
    # the MSE column reads the same cell layout
    assert [gaussian_clip_mse(b, k) for b, k in widths] == [gaussian_clip_mse_lone(b, k) for b, k in widths]


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
@example((QuantSpec(scheme="int-plain", bits=4), np.linspace(-3.0, 3.0, 36).reshape(3, 12)), 0)
@example((QuantSpec(scheme="int-hadamard", bits=4), np.linspace(-3.0, 3.0, 72).reshape(2, 3, 12)), 0)
def test_batched_quantize_matches_each_vector(case, seed):
    spec, X = case
    res = quantize(spec, X)
    lead = X.shape[:-1]
    if spec.scheme in INT_SCHEMES:
        G = np.random.default_rng(seed).standard_normal(X.shape)
        G_back = ste_backward(spec, G, res)
    for s in np.ndindex(lead):
        one = quantize(spec, X[s])
        for field in ("quantized", "error"):
            assert np.array_equal(getattr(res, field)[s], getattr(one, field))
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
    A = make_spd(dim, kappa, rng)[0]
    b = rng.standard_normal(dim)
    quad = solved_quadratic(A, b)
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
    # problem i, bitwise that problem's lone value
    X, kappa, seed = case
    S, dim = X.shape
    rng = make_rng(seed)
    A = np.stack([make_spd(dim, kappa, rng)[0] for _ in range(S)])
    b = rng.standard_normal((S, dim))
    stack = solved_quadratic(A, b)
    losses, grads = stack.value_and_grad(X)
    assert losses.shape == (S,) and grads.shape == (S, dim)
    for i in range(S):
        lone = solved_quadratic(A[i], b[i])
        loss, g = lone.value_and_grad(X[i])
        assert loss == losses[i] and np.array_equal(g, grads[i])
        assert np.array_equal(g, A[i] @ X[i] - b[i])


def paired_tolerance(A, b, v):
    """Forward-error bound on how far the paired and the ``value_and_grad``
    loss and gradient at v may differ.  Any order of the d products and sums
    puts each gradient entry within gamma_(d+2) (|A| |v| + |b|)_i of the exact
    one, and the loss within gamma_(d+1) (|v| . |A| |v| + |b| . |v|); two such
    results differ by at most twice that, and 2 gamma_(d+2) <= (d + 3) eps."""
    dim = v.shape[-1]
    Av_abs = np.matvec(np.abs(A), np.abs(v))
    eps = (dim + 3) * np.finfo(np.float64).eps
    return (
        eps * (np.vecdot(np.abs(v), Av_abs) + np.vecdot(np.abs(b), np.abs(v))),
        eps * (Av_abs + np.abs(b)),
    )


@PROPERTY
@given(
    st.sampled_from((1, 2, 5, 12, 64)),
    st.sampled_from((None, 1, 2, 3)),
    st.sampled_from(((), (2,), (2, 3))),
    st.sampled_from((1e-3, 1.0, 1e3)),
    st.integers(0, 2**32 - 1),
)
def test_paired_quadratic_matches_lone_calls_and_value_and_grad(dim, stack, lead, scale, seed):
    # the paired evaluation gives each row bitwise its lone paired call, and
    # agrees with value_and_grad at both points within a forward-error bound;
    # stack None is one (d, d) problem with a vector or a batch, else a stack
    # of S problems with one or two leading axes
    rng = make_rng(seed)
    kappa = 1.0 if dim == 1 else 100.0
    S = 1 if stack is None else stack
    A = np.stack([make_spd(dim, kappa, rng)[0] for _ in range(S)])
    b = rng.standard_normal((S, dim))
    if stack is None:
        obj, A, b = solved_quadratic(A[0], b[0]), A[:1], b[:1]
        shape = lead + (dim,)
    else:
        obj = solved_quadratic(A, b)
        shape = lead[:1] + (S, dim)
    X = scale * rng.standard_normal(shape)
    At = scale * rng.standard_normal(shape)
    loss, g, g_at = obj.value_and_grads(X, At)
    assert g.shape == g_at.shape == shape and np.shape(loss) == shape[:-1]
    assert (type(loss) is float) == (X.ndim == 1)
    for idx in np.ndindex(shape[:-1]):
        s = idx[-1] if stack is not None else 0
        lone = solved_quadratic(A[s], b[s])
        one_loss, one_g, one_g_at = lone.value_and_grads(X[idx], At[idx])
        assert type(one_loss) is float and one_loss == np.asarray(loss)[idx]
        assert np.array_equal(one_g, g[idx]) and np.array_equal(one_g_at, g_at[idx])
        ref_loss, ref_g = lone.value_and_grad(X[idx])
        loss_tol, g_tol = paired_tolerance(A[s], b[s], X[idx])
        assert abs(one_loss - ref_loss) <= loss_tol and np.all(np.abs(one_g - ref_g) <= g_tol)
        _, g_at_tol = paired_tolerance(A[s], b[s], At[idx])
        assert np.all(np.abs(one_g_at - lone.grad(At[idx])) <= g_at_tol)


@PROPERTY
@given(arrays(np.float64, st.integers(1, 64), elements=st.one_of(st.floats(0.0, 6.0), st.sampled_from(E2M1_EDGES))))
@example(E2M1_EDGES)
def test_e2m1_round_matches_distance_matrix(u):
    assert np.array_equal(_e2m1_round(u), distance_matrix_e2m1_round(u))


def trace_row(loss, g, e, lam):
    """One trace row (loss, ||g + lam e||^2, ||g||^2, ||e||^2, lam) of a lone
    vector run, with one ``@`` per norm: the lanes' reference."""
    p = g + lam * e
    return [loss, p @ p, g @ g, e @ e, lam]


def lone_rate_run(obj, spec, lam, noise_std, horizon, seed, lipschitz, x0_std):
    """One seed's corrected-SGD rate run, stepped alone with one
    ``standard_normal(d)`` noise draw per step and none at noise 0: the oracle
    for the seed-batched, block-drawn lane.  Under ``none`` it takes e = 0
    without calling the quantizer."""
    alpha = min(1.0 / lipschitz, 1.0 / math.sqrt(horizon))
    x = x0_std * make_rng((_STREAM_INIT, seed)).standard_normal(obj.dim)
    rng = make_rng((_STREAM_NOISE, seed, horizon))
    trace = []
    for _ in range(horizon):
        loss, g = obj.value_and_grad(x)
        e = np.zeros_like(x) if spec.scheme == "none" else quantize(spec, x).error
        trace.append(trace_row(loss, g, e, lam))
        if noise_std != 0.0:
            g = g + noise_std * rng.standard_normal(obj.dim)
        x = x - alpha * (g + lam * e)
    trace = np.array(trace)
    # a contiguous copy sums in the order the lane's contiguous per-seed row does
    return float(np.mean(np.ascontiguousarray(trace[:, 1]))), trace


@settings(PROPERTY, max_examples=25)
@given(
    st.sampled_from(("rosenbrock", "quadratic")),
    st.sampled_from((QuantSpec(scheme="none"), QuantSpec(scheme="floor-toy", grid=0.25), QuantSpec(scheme="int-hadamard", bits=4))),
    st.sampled_from((0.0, 0.5, 2.0)),
    st.sampled_from((0.0, 0.1)),
    st.integers(1, 300),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
)
@example("rosenbrock", QuantSpec(scheme="floor-toy", grid=0.25), 1.0, 0.1, 300, [0, 7, 3])
def test_seed_batched_rate_lane_matches_lone_runs(name, spec, lam, noise_std, horizon, seeds):
    # a horizon past one 128-step noise block, and not a multiple of it,
    # still gives every seed bitwise its lone run with per-step draws
    obj = rosenbrock(6) if name == "rosenbrock" else solved_quadratic(make_spd(6, 10.0, make_rng(5))[0], np.ones(6))
    run = run_convergence_run(obj, spec, lam, noise_std, horizon, seeds, 1000.0, x0_std=0.5)
    for i, seed in enumerate(seeds):
        mean, trace = lone_rate_run(obj, spec, lam, noise_std, horizon, seed, 1000.0, 0.5)
        assert run.ergodic_means[i] == mean
        if i == 0:
            assert np.array_equal(run.trace, trace)


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


def lone_quadratic_problem(dim, kappa, seed, sigma0=1.0):
    """One seed's problem drawn on its own, as a plain (d, d) quadratic, with
    the x* and f* the lane draws."""
    A, b, x_star, f_star, rng = _draw_quadratic(dim, kappa, seed)
    return quadratic(A, b, x_star, f_star), sigma0 * rng.standard_normal(dim)


def lone_quadratic_run(obj, x0, optimizer, steps, spec, cfg, ste_kind, clip):
    """One seed's quadratic-lane run, stepped alone on a vector with
    ``lone_grad_clip`` and each optimizer's literal rule written out from
    ``sgd_step`` and ``adamw_step``: the oracle for the seed-batched,
    family-batched ``run_quadratic``.  Each step makes one paired evaluation
    at (Q(x), x); cage-adamw-dec quantizes its decayed point on its own.
    Under ``none`` it steps at x with e = 0 and no quantizer call.  Returns
    (final gap, trace, iterates)."""
    plain = spec.scheme == "none"
    masked = ste_kind == "trust-masked" and spec.scheme in INT_SCHEMES

    trace = []
    x = np.array(x0, dtype=np.float64)
    state = AdamState.zeros(obj.dim)
    iterates = np.empty((steps, obj.dim))
    lr = cfg.lr
    for t in range(1, steps + 1):
        if not plain:
            qres = quantize(spec, x)
            loss, g_at_q, g_x = obj.value_and_grads(qres.quantized, x)
            g = ste_backward(spec, g_at_q, qres) if masked else g_at_q
            e = qres.error
        else:
            loss, g, g_x = obj.value_and_grads(x, x)
            e = np.zeros_like(x)
        if clip:
            g = lone_grad_clip(g, clip)
        if optimizer.startswith("cage"):
            lam_t = cfg.lam if optimizer == "cage-sgd" else lambda_at(cfg, t, steps)
        else:
            lam_t = 0.0
        trace.append(trace_row(loss, g_x, e, lam_t))
        if optimizer == "sgd":
            x = sgd_step(x, g, lr)
        elif optimizer == "cage-sgd":
            x = sgd_step(x, g + lam_t * e, lr)
        elif optimizer == "cage-adamw-cpl":
            # coupled: AdamW on g + lam e
            state, x = adamw_step(state, x, g + lam_t * e, cfg, lr)
        elif optimizer == "adamw":
            state, x = adamw_step(state, x, g, cfg, lr)
        else:
            # decoupled: AdamW, then minus lr lam e of the decayed point
            xd = (1.0 - lr * cfg.weight_decay) * x
            e_dec = np.zeros_like(x) if plain else quantize(spec, xd).error
            state, x = adamw_step(state, x, g, cfg, lr)
            x = x - lr * lam_t * e_dec
        iterates[t - 1] = x
    final_loss = obj.loss(x if plain else quantize(spec, x).quantized)
    return final_loss - obj.f_star, np.array(trace), iterates


QUADRATIC_SPECS = {
    "int-hadamard": QuantSpec(scheme="int-hadamard", bits=4),
    "int-plain": QuantSpec(scheme="int-plain", bits=3),
    "mxfp4": QuantSpec(scheme="mxfp4"),
    "none": QuantSpec(scheme="none"),
}


@settings(PROPERTY, max_examples=40)
@given(
    st.lists(st.sampled_from(OPTIMIZERS), min_size=1, max_size=5, unique=True),
    st.sampled_from(tuple(QUADRATIC_SPECS)),
    st.sampled_from(("trust-masked", "identity")),
    st.sampled_from((None, 1.0, 5.0)),
    st.sampled_from((8, 12, 20)),
    st.lists(st.sampled_from((1.0, 10.0, 100.0)), min_size=1, max_size=3, unique=True),
    st.sampled_from((0.0, 0.1)),
    st.integers(2, 40),
    st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
    st.sampled_from((0.0, 1.0)),
    st.sampled_from((0.0, 0.5, 0.9)),
    st.sampled_from((0.0, 2.0)),
)
@example(["cage-adamw-dec"], "int-hadamard", "trust-masked", 1.0, 12, [100.0], 0.1, 40, [0, 7, 3], 1.0, 0.5, 2.0)
@example(["cage-adamw-cpl"], "int-plain", "trust-masked", 5.0, 20, [10.0], 0.0, 30, [2, 2], 1.0, 0.5, 2.0)
@example(
    ["cage-adamw-cpl", "sgd", "cage-adamw-dec", "adamw", "cage-sgd"],
    "int-hadamard", "trust-masked", 1.0, 12, [10.0, 1.0, 100.0], 0.1, 30, [5, 1], 1.0, 0.5, 2.0,
)
# an x0 of signed zeros: the entries where g + 0 e or x - lr 0 e could flip a sign
@example(
    ["adamw", "cage-sgd", "cage-adamw-dec", "sgd", "cage-adamw-cpl"],
    "int-hadamard", "trust-masked", 1.0, 12, [10.0, 100.0], 0.1, 20, [4, 0], 0.0, 0.5, 2.0,
)
# groups that never form (silence 0), split late (0.9) and never split (lam 0)
@example(
    ["cage-adamw-dec", "adamw", "sgd", "cage-adamw-cpl", "cage-sgd"],
    "mxfp4", "trust-masked", 1.0, 20, [10.0, 1.0], 0.1, 30, [3, 8], 1.0, 0.0, 2.0,
)
@example(
    ["cage-adamw-dec", "adamw", "sgd", "cage-adamw-cpl", "cage-sgd"],
    "int-hadamard", "trust-masked", 1.0, 12, [10.0, 100.0], 0.1, 30, [5, 1], 1.0, 0.9, 2.0,
)
@example(
    ["cage-sgd", "cage-adamw-cpl", "sgd", "adamw", "cage-adamw-dec"],
    "int-plain", "identity", 5.0, 8, [100.0, 1.0], 0.1, 20, [2], 1.0, 0.5, 0.0,
)
def test_seed_batched_quadratic_lane_matches_lone_runs(
    optimizers, quant, ste_kind, clip, dim, kappas, weight_decay, steps, seeds, sigma0, silence_ratio, lam
):
    # on a stack of kappas of seeds, every (kappa, seed, optimizer) final
    # gap, and each (kappa, optimizer)'s first-seed trace and iterates, are
    # bitwise those of the seed run alone on its own draw, with each
    # optimizer's literal update rule, whether the optimizers that share
    # their lambdas never step as one row, step as one until a late split,
    # or never split
    spec = QUADRATIC_SPECS[quant]
    cfg = OptimConfig(lr=0.05, weight_decay=weight_decay, lam=lam, silence_ratio=silence_ratio)
    obj, x0 = make_quadratic_problem(dim, kappas, seeds, sigma0)
    runs = run_quadratic(obj, x0, optimizers, steps, spec, cfg, ste_kind, clip)
    assert len(runs) == len(kappas)
    for kappa, kappa_x0, kappa_runs in zip(kappas, x0, runs):
        assert len(kappa_runs) == len(optimizers)
        for optimizer, run in zip(optimizers, kappa_runs):
            assert len(run.final_gaps) == len(seeds)
            for i, seed in enumerate(seeds):
                lone_obj, lone_x0 = lone_quadratic_problem(dim, kappa, seed, sigma0)
                assert np.array_equal(kappa_x0[i], lone_x0)
                gap, trace, iterates = lone_quadratic_run(
                    lone_obj, lone_x0, optimizer, steps, spec, cfg, ste_kind, clip
                )
                assert run.final_gaps[i] == gap
                if i == 0:
                    assert np.array_equal(run.trace, trace)
                    assert np.array_equal(np.concatenate(run.iterates), iterates)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(4, 300), st.integers(1, 2),
       st.sampled_from((1e-3, 1.0, 1e3)))
def test_pca_matches_full_eigh_on_random_walks(seed, dim, n, k, step):
    # the accuracy gate of pca_project's fixed round count: a random walk of
    # n >= 4 points has rank min(n - 1, dim) >= min(3, dim), so its top two
    # components are unique, and the subspace iteration's agree with a full
    # eigh's to 1e-10, orthonormal and with the same sign convention
    X = step * np.cumsum(make_rng(seed).standard_normal((n, dim)), axis=0)
    k = min(k, dim)
    proj, comps = pca_project(X, k)
    ref_proj, ref, _ = pca_eigh(X, k)
    assert np.abs(comps - ref).max() <= 1e-10
    assert np.abs(comps @ comps.T - np.eye(k)).max() <= 1e-12
    for row in comps:
        assert row[np.nonzero(np.abs(row) > 1e-12)[0][0]] > 0
    row_norms = np.linalg.norm(X - X.mean(axis=0), axis=1)[:, None]
    assert (np.abs(proj - ref_proj) <= 1e-10 * math.sqrt(dim) * row_norms).all()


def pca_outcome(points, k):
    """``pca_project(points, k)`` as comparable data: the bytes of its
    projections and components, or its ``NumericalFailure`` text, with the
    warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            proj, comps = pca_project(points, k)
            result = (proj.tobytes(), comps.tobytes())
        except NumericalFailure as err:
            result = str(err)
    return result, [(w.category, str(w.message)) for w in caught]


def row_block_view(block, layout):
    """``block`` as a C-ordered copy, an F-ordered copy, or a strided view
    (every other row, one column in) of a NaN-filled buffer."""
    if layout == "fortran":
        return np.asfortranarray(block)
    if layout == "contiguous":
        return block.copy()
    buf = np.full((2 * len(block), block.shape[1] + 1), np.nan)
    buf[::2, 1:] = block
    return buf[::2, 1:]


LAYOUTS = ("contiguous", "fortran", "strided")


@PROPERTY
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(2, 64), st.integers(1, 2),
    st.sampled_from(("walk", "constant", "overflow")), st.sets(st.integers(1, 63)),
    st.lists(st.sampled_from(LAYOUTS), min_size=1, max_size=4),
)
@example(7, 5, 64, 2, "walk", set(range(1, 64)), ["strided", "contiguous", "fortran"])
@example(8, 5, 40, 2, "walk", set(), ["strided"])
@example(9, 3, 30, 1, "constant", {1, 2, 29}, ["strided"])
@example(10, 3, 30, 2, "overflow", {15}, ["fortran", "strided"])
def test_pca_on_row_blocks_is_bitwise_pca_on_their_stack(seed, dim, n, k, kind, cuts, layouts):
    # any split of the rows into blocks (one-row blocks, a single block,
    # strided and F-ordered views) gives the stacked array's projections and
    # components bit for bit, and the same zero-variance warning or
    # non-finite-covariance failure
    rng = make_rng(seed)
    if kind == "constant":
        X = np.repeat(rng.standard_normal((1, dim)) * 10.0 ** rng.integers(-3, 4), n, axis=0)
    else:
        X = (1e200 if kind == "overflow" else 1.0) * np.cumsum(rng.standard_normal((n, dim)), axis=0)
    k = min(k, dim)
    bounds = [0, *sorted(c for c in cuts if c < n), n]
    blocks = [
        row_block_view(X[lo:hi], layouts[i % len(layouts)]) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    assert np.array_equal(np.concatenate(blocks), X)
    whole = pca_outcome(X, k)
    assert pca_outcome(blocks, k) == whole
    assert pca_outcome(tuple(blocks), k) == whole
    result, caught = whole
    if kind == "overflow":
        assert result == "non-finite covariance in the trajectory PCA"
    else:
        assert isinstance(result, tuple)
        assert (kind == "constant") == bool(caught)
        assert all(c == (RuntimeWarning, "zero-variance data: projections are all zero") for c in caught)


def edges(*values):
    return st.sampled_from(values)


# every option of every subcommand as command-line text, as a pair (accepted
# values, rejected values): in-range and extreme values, then out-of-range and
# malformed ones, over every quantizer scheme; dim <= 5 and steps <= 3 (a
# two-decade horizon list needs a 100) keep a run short
POSITIVE = (edges("0.5", "1", "1e308", "4.9e-324", "1e-300"), edges("0", "-1", "nan", "inf", "x"))
NONNEG = (edges("0", "0.5", "1", "1e308", "4.9e-324", "1e-300"), edges("-1", "nan", "inf", "x"))
SEEDS = (edges("0", "7", "0,1", str(2**63 - 1), str(2**63)), edges("-1", "3,3", "", "x"))
QUANTS = (
    edges(
        "none", "int-hadamard:2", "int-hadamard:4", "int-plain:3", "int-plain:8", "mxfp4", "floor-toy",
        "floor-toy:1e-300", "floor-toy:1e308", "floor-toy:4.9e-324",
    ),
    edges("int-hadamard:9", "int-plain", "mxfp4:4", "floor-toy:0", "bogus"),
)


def named(names):
    return edges(*names), edges("bogus")


CLI_VALUES = {
    "calibrate-clip": {"bits": (edges("2", "8", "2,3"), edges("1", "9", "4,4", "", "x"))},
    "toy-pareto": {
        "lambdas": (edges("0", "1", "0.5,2", "1e308", "4.9e-324", "1e-300"), edges("-1", "1,1", "nan", "")),
        "alpha": POSITIVE,
        "steps": (edges("1", "2", "3"), edges("0", "-1")),
        "x0": (edges("0", "-1", "0.9", "1e308", "4.9e-324"), edges("nan", "inf", "x")),
    },
    "quadratic": {
        "seed": SEEDS,
        "kappas": (edges("1", "10", "1e15", "1,100"), edges("0.5", "4503599627370496", "1e308", "nan", "1,1", "")),
        "dim": (edges("2", "3", "5"), edges("0", "1")),
        "steps": (edges("2", "3"), edges("0", "1", "-1")),
        "opt": (
            st.lists(st.sampled_from(OPTIMIZERS), min_size=1, max_size=5, unique=True).map(",".join),
            edges("", "sgd,sgd", "bogus"),
        ),
        "quant": QUANTS,
        "lr": POSITIVE,
        "lam": NONNEG,
        "silence_ratio": (edges("0", "0.5", "0.99"), edges("1", "-0.1", "nan")),
        "weight_decay": NONNEG,
        "grad_clip": NONNEG,
        "sigma0": NONNEG,
        "ste": named(STE_KINDS),
    },
    "convergence": {
        "seed": SEEDS,
        "objective": named(RATE_OBJECTIVES),
        "dim": (edges("1", "2", "3", "5"), edges("0", "-1")),
        "kappa": (edges("1", "10", "1e15"), edges("0.5", "1e308", "nan")),
        "quant": QUANTS,
        "lam": NONNEG,
        "noise_std": NONNEG,
        "steps": (edges("1", "3", "2,3", "1,100"), edges("0", "-1", "")),
        "lipschitz": POSITIVE,
        "x0_std": NONNEG,
    },
    "fit-scaling": {
        "input": (edges("fp.csv", "groups.csv", "huge.csv", "tiny.csv"), edges("garbage.csv", "missing.csv")),
        "prior_weight": NONNEG,
        "starts": (edges("1", "2", "3"), edges("0", "-1")),
        "fit_seed": (edges("0", "7", str(2**63)), edges("-1")),
    },
}
# options a draw always sets: the defaults run for seconds, and fit-scaling
# needs an input
ALWAYS_SET = {"dim", "steps", "input"}
GRID = [(n, d) for n in (10, 100, 1000) for d in (100, 1000, 10000)]
FIT_INPUTS = {
    "fp.csv": "".join(f"m,FP,{n},{d},{2.0 + 0.8 / n**0.3 + 1.5 / d**0.3}\n" for n, d in GRID),
    "groups.csv": "".join(
        f"m,FP,{n},{d},{2.0 + 0.8 / n**0.3 + 1.5 / d**0.3}\nq,4,{n},{d},{2.0 + 0.8 / (0.7 * n) ** 0.3 + 1.5 / d**0.3}\n"
        for n, d in GRID
    ),
    "huge.csv": "".join(f"m,FP,{n},{d},1e308\n" for n, d in GRID),
    "tiny.csv": "".join(f"m,FP,{n},{d},4.9e-324\n" for n, d in GRID),
    "garbage.csv": "m,FP,abc,1,2\n",
}


def test_cli_values_cover_every_option():
    for subcommand, table in _OPTIONS.items():
        assert set(CLI_VALUES[subcommand]) == set(table) - {"out"}


# the extreme settings may warn on their way to an exit code (numpy overflow
# before a finite check exits 3, pca_project's zero-variance warning before
# exit 0); the property is about exit codes and run directories, not warnings
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("subcommand", sorted(CLI_VALUES))
@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_cli_accepts_or_rejects_every_setting_cleanly(subcommand, data):
    # exit 0, 2 or 3 and never a traceback; a rejected setting exits 2 and
    # leaves no config.json, and a success (0) leaves summary.json.  At most
    # one option takes a rejected value, so most draws run the subcommand
    table = CLI_VALUES[subcommand]
    rejected = data.draw(st.none() | st.sampled_from(sorted(table)), label="rejected option")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        argv = [subcommand, f"--out={out}"]
        for name, (good, bad) in table.items():
            if name == rejected:
                value = data.draw(bad, label=name)
            else:
                value = data.draw(good if name in ALWAYS_SET else st.none() | good, label=name)
            if value is None:
                continue
            if name == "input":
                if value in FIT_INPUTS:
                    (Path(tmp) / value).write_text("method,P,N,D,loss\n" + FIT_INPUTS[value])
                value = str(Path(tmp) / value)
            argv.append(f"--{_FLAG_ALIASES.get(name, name).replace('_', '-')}={value}")
        code = main(argv)
        assert code in (0, 2, 3), argv
        assert code == 2 or rejected is None, argv
        if code == 2:
            assert not (out / "config.json").exists(), argv
        if code == 0:
            assert (out / "summary.json").exists(), argv
