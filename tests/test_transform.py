"""The Kronecker-factored Hadamard transform, checked against the butterfly
oracle ``oracles.fwht_unnormalized``.

Tolerance: a row of padded length n agrees with ``fwht_unnormalized(x) /
sqrt(n)`` to ``hadamard_tolerance(n) * ||x||_2`` (3.2e-14 relative at n =
4096; derivation in ``oracles.hadamard_tolerance``), plus one subnormal ulp.
"""

import math

import numpy as np
import pytest

from oracles import SUBNORMAL_ULP, fwht_unnormalized, hadamard_tolerance, norm2
from qatkit.numerics import make_rng
from qatkit.transform import hadamard_forward, hadamard_inverse, hadamard_plan


def test_plan_padding():
    assert hadamard_plan(1).padded_dim == 1
    assert hadamard_plan(2).padded_dim == 2
    assert hadamard_plan(5).padded_dim == 8
    assert hadamard_plan(64).padded_dim == 64
    assert hadamard_plan(65).padded_dim == 128
    plan = hadamard_plan(37)
    assert plan.scale**2 * plan.padded_dim == pytest.approx(1.0, abs=1e-15)


def test_dim_one_is_identity():
    plan = hadamard_plan(1)
    assert np.array_equal(hadamard_forward(plan, np.array([5.0])), [5.0])


def test_first_row_sums():
    plan = hadamard_plan(2)
    z = hadamard_forward(plan, np.array([1.0, 1.0]))
    assert np.allclose(z, [math.sqrt(2.0), 0.0], atol=1e-15)
    assert np.allclose(hadamard_inverse(plan, z), [1.0, 1.0], atol=1e-12)


def test_basis_column_d4():
    plan = hadamard_plan(4)
    z = hadamard_forward(plan, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(z, [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_roundtrip_with_padding_d37():
    plan = hadamard_plan(37)
    x = make_rng(0).standard_normal(37)
    back = hadamard_inverse(plan, hadamard_forward(plan, x))
    assert np.abs(back - x).max() <= 1e-10


def test_basis_sweep_d8():
    plan = hadamard_plan(8)
    for i in range(8):
        e = np.zeros(8)
        e[i] = 1.0
        back = hadamard_inverse(plan, hadamard_forward(plan, e))
        assert np.abs(back - e).max() <= 1e-12


def test_orthogonality_up_to_1024():
    # basis-vector round trips, never materializing H
    n = 1
    while n <= 1024:
        plan = hadamard_plan(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            back = hadamard_inverse(plan, hadamard_forward(plan, e))
            err = np.abs(back - e).max()
            assert err <= 1e-9, f"n={n} i={i} err={err}"
        n *= 2


def test_energy_preservation_property():
    rng = make_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 200))
        x = rng.standard_normal(d)
        plan = hadamard_plan(d)
        z = hadamard_forward(plan, x)
        nx = np.linalg.norm(x)
        assert abs(np.linalg.norm(z) - nx) <= 1e-10 * max(1.0, nx)


def test_unnormalized_involution_property():
    rng = make_rng(2)
    for _ in range(100):
        n = 2 ** int(rng.integers(0, 9))
        x = rng.standard_normal(n)
        twice = fwht_unnormalized(fwht_unnormalized(x))
        assert np.allclose(twice, n * x, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", [2**k for k in range(13)] + [5, 24, 37, 65])
def test_matches_butterfly_oracle(dim):
    rng = make_rng(4)
    plan = hadamard_plan(dim)
    n = plan.padded_dim
    # three rows of magnitudes 1e-3, 1 and 1e3
    x = rng.standard_normal((3, dim)) * np.array([[1e-3], [1.0], [1e3]])
    padded = np.zeros((3, n))
    padded[:, :dim] = x
    z = hadamard_forward(plan, x)
    assert z.shape == (3, n)
    dev = np.abs(z - fwht_unnormalized(padded) * plan.scale).max(axis=1)
    assert (dev <= [hadamard_tolerance(n) * norm2(row) + SUBNORMAL_ULP for row in x]).all(), (dim, dev)
    back = hadamard_inverse(plan, z)
    assert back.shape == x.shape
    err = np.abs(back - x).max(axis=1)
    assert (err <= [2 * hadamard_tolerance(n) * norm2(row) + SUBNORMAL_ULP for row in x]).all(), (dim, err)


def test_plan_factors_are_cached_read_only_sylvester_kronecker_factors():
    plan = hadamard_plan(37)
    assert hadamard_plan(37) is plan
    assert not plan.left.flags.writeable and not plan.right.flags.writeable
    plans = [hadamard_plan(n) for n in (1, 2, 8, 37, 512, 4096)]
    assert [(len(p.left), len(p.right)) for p in plans] == [(1, 1), (1, 2), (2, 4), (8, 8), (16, 32), (64, 64)]
    for p in plans[:5]:
        assert np.array_equal(np.kron(p.left, p.right), fwht_unnormalized(np.eye(p.padded_dim)))


def test_linearity():
    rng = make_rng(3)
    plan = hadamard_plan(24)
    x, y = rng.standard_normal(24), rng.standard_normal(24)
    lhs = hadamard_forward(plan, 2.0 * x + 3.0 * y)
    rhs = 2.0 * hadamard_forward(plan, x) + 3.0 * hadamard_forward(plan, y)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_dim_mismatch_rejected():
    plan = hadamard_plan(4)
    with pytest.raises(ValueError):
        hadamard_forward(plan, np.ones(5))
    with pytest.raises(ValueError):
        hadamard_inverse(plan, np.ones(5))
    with pytest.raises(ValueError):
        fwht_unnormalized(np.ones(3))
