import numpy as np
import pytest

from oracles import EfState, ef_step
from qatkit.numerics import make_rng
from qatkit.objectives import toy_scalar
from qatkit.optim import cage_sgd_step
from qatkit.qat_grad import ste_backward
from qatkit.quantize import QuantSpec, quantize
from qatkit.transform import hadamard_inverse, hadamard_plan


def test_trust_mask_requires_int_scheme():
    spec = QuantSpec(scheme="floor-toy")
    fwd = quantize(spec, make_rng(0).standard_normal(16))
    with pytest.raises(ValueError):
        ste_backward(spec, np.ones(16), fwd)
    with pytest.raises(ValueError):
        ste_backward(QuantSpec(scheme="none"), np.ones(16), quantize(QuantSpec(scheme="none"), np.ones(16)))


def test_trust_mask_needs_matching_int_forward():
    spec = QuantSpec(scheme="int-hadamard", bits=4)
    x = make_rng(6).standard_normal(8)
    with pytest.raises(ValueError):
        ste_backward(spec, np.ones(8), quantize(QuantSpec(scheme="floor-toy"), x))
    with pytest.raises(ValueError):
        ste_backward(spec, np.ones(4), quantize(spec, x))


def test_no_clipping_is_identity():
    # craft x from a flat transform spectrum: |z_i| = sigma < k_b * sigma
    spec = QuantSpec(scheme="int-hadamard", bits=4)
    plan = hadamard_plan(16)
    z = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
    x = hadamard_inverse(plan, z)
    rng = make_rng(1)
    g = rng.standard_normal(16)
    out = ste_backward(spec, g, quantize(spec, x))
    assert np.abs(out - g).max() <= 1e-10
    # precondition: forward pass really has no clipped channels
    assert quantize(spec, x).keep.all()


def test_clipped_channel_zeroed_by_basis_probe():
    # one dominant transform channel clips (sqrt(d) > k_b); probing with that
    # channel's basis vector must return (near) zero gradient
    spec = QuantSpec(scheme="int-hadamard", bits=4)
    d = 64
    plan = hadamard_plan(d)
    j = 5
    zj = np.zeros(d)
    zj[j] = 1.0
    x = hadamard_inverse(plan, zj)  # spectrum is exactly e_j
    sigma = 1.0 / np.sqrt(d)
    assert 1.0 > spec.clip_factor * sigma  # channel j clips

    probe = hadamard_inverse(plan, zj)  # upstream grad living on channel j
    out = ste_backward(spec, probe, quantize(spec, x))
    assert np.abs(out).max() <= 1e-12

    # a complementary channel passes through untouched
    zk = np.zeros(d)
    zk[11] = 1.0
    probe_k = hadamard_inverse(plan, zk)
    out_k = ste_backward(spec, probe_k, quantize(spec, x))
    assert np.abs(out_k - probe_k).max() <= 1e-10


def test_int_plain_mask_is_elementwise():
    spec = QuantSpec(scheme="int-plain", bits=4)
    x = np.array([10.0, 0.1, -0.1, 0.2, -0.2, 0.1, -0.1, 0.0])
    res = quantize(spec, x)
    # only x[0] lies beyond the clip bound k sigma
    clipped = ~res.keep
    assert np.array_equal(clipped, np.abs(x) > spec.clip_factor * np.sqrt(np.mean(x * x)))
    assert clipped[0] and not clipped[1:].any()
    g = make_rng(2).standard_normal(8)
    out = ste_backward(spec, g, res)
    assert out[0] == 0.0
    assert np.array_equal(out[1:], g[1:])


def test_linearity_property():
    spec = QuantSpec(scheme="int-hadamard", bits=4)
    rng = make_rng(3)
    for _ in range(100):
        x = rng.standard_normal(32)
        g1 = rng.standard_normal(32)
        g2 = rng.standard_normal(32)
        a, b = rng.standard_normal(2)
        fwd = quantize(spec, x)
        lhs = ste_backward(spec, a * g1 + b * g2, fwd)
        rhs = a * ste_backward(spec, g1, fwd) + b * ste_backward(spec, g2, fwd)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_norm_nonexpansive_property():
    rng = make_rng(4)
    for scheme in ("int-hadamard", "int-plain"):
        spec = QuantSpec(scheme=scheme, bits=3)
        for _ in range(100):
            x = rng.standard_normal(24) * 10 ** rng.uniform(-1, 1)
            g = rng.standard_normal(24)
            out = ste_backward(spec, g, quantize(spec, x))
            assert np.linalg.norm(out) <= np.linalg.norm(g) + 1e-12


def test_chunked_rows():
    # the rows of a batch (2, 8) in one call, each as it transports alone
    spec = QuantSpec(scheme="int-hadamard", bits=4)
    rng = make_rng(5)
    x = rng.standard_normal((2, 8))
    g = rng.standard_normal((2, 8))
    out = ste_backward(spec, g, quantize(spec, x))
    parts = [ste_backward(spec, g[i], quantize(spec, x[i])) for i in range(2)]
    assert np.array_equal(out, np.stack(parts))


def test_identity_ste_sgd_matches_error_feedback():
    # straight-through SGD (identity STE, no correction) against the
    # three-line error-feedback recursion with a shared noise stream
    obj = toy_scalar()
    spec = QuantSpec(scheme="floor-toy")
    lr = 0.1
    for seed in range(10):
        rng_a = make_rng((100, seed))
        rng_b = make_rng((100, seed))
        x = np.array([0.9])
        ef = EfState(w=quantize(spec, x).quantized, e=quantize(spec, x).error)
        for _ in range(20):
            xq = quantize(spec, x).quantized
            g_ste = obj.grad(xq)  # the identity STE: the gradient at Q(x) as is
            g_noisy = g_ste + 0.05 * rng_a.standard_normal(1)
            x = cage_sgd_step(x, g_noisy, np.zeros(1), lr, 0.0)

            g_ef = obj.grad(ef.w) + 0.05 * rng_b.standard_normal(1)
            ef = ef_step(ef, lr, g_ef, spec)

            assert np.abs(ef.w - quantize(spec, x).quantized).max() <= 1e-12
            assert np.abs(ef.e - quantize(spec, x).error).max() <= 1e-12
