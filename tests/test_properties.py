"""Hypothesis properties of the quantizer core.

Examples are derandomized and run without a deadline, so a slow or noisy host
changes neither which inputs are tried nor whether a property passes.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qatkit.qat_grad import ste_backward, trust_masked_policy
from qatkit.quantize import QuantSpec, int_spec, quantize, quantize_int_row
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
    kind = draw(st.sampled_from(("int", "mxfp4", "floor-toy")))
    if kind == "int":
        return draw(int_cases())
    x = draw(arrays(np.float64, draw(st.integers(1, 80)), elements=FLOATS))
    if kind == "mxfp4":
        return QuantSpec(scheme="mxfp4", block_size=draw(st.sampled_from((4, 32)))), x
    return QuantSpec(scheme="floor-toy", grid=draw(st.sampled_from((0.25, 1.0, 3.0)))), x


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
    parts = [quantize_int_row(row_spec, row) for row in x.reshape(-1, rl)]
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
    out = ste_backward(trust_masked_policy(spec), grad, quantize(spec, x))
    assert np.array_equal(out, recomputed_mask_ste(spec, grad, x))
