import numpy as np
import pytest

from oracles import finite_diff_grad, solved_quadratic
from qatkit.experiments import _draw_quadratic, make_quadratic_problem, make_rate_objective
from qatkit.numerics import make_rng, make_spd
from qatkit.objectives import quadratic, rosenbrock, toy_scalar
from qatkit.quantize import QuantSpec, quantize


class TestQuadratic:
    def test_identity_case(self):
        obj = solved_quadratic(np.eye(3), np.zeros(3))
        assert np.array_equal(obj.x_star, np.zeros(3))
        assert obj.f_star == 0.0

    def test_stationarity_at_minimizer(self):
        rng = make_rng(0)
        A = make_spd(5, 30.0, rng)[0]
        obj = solved_quadratic(A, rng.standard_normal(5))
        assert np.abs(obj.grad(obj.x_star)).max() <= 1e-10

    def test_grad_matches_fd(self):
        rng = make_rng(1)
        A = make_spd(5, 8.0, rng)[0]
        obj = solved_quadratic(A, rng.standard_normal(5))
        x = rng.standard_normal(5)
        g, g_fd = obj.grad(x), finite_diff_grad(obj.loss, x, h=1e-5)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_fstar_is_minimum(self):
        rng = make_rng(2)
        A = make_spd(4, 5.0, rng)[0]
        obj = solved_quadratic(A, rng.standard_normal(4))
        assert obj.loss(obj.x_star) == pytest.approx(obj.f_star, abs=1e-12)
        for _ in range(20):
            assert obj.loss(obj.x_star + 0.1 * rng.standard_normal(4)) >= obj.f_star

    def test_mismatched_shapes_rejected(self):
        # the constructor checks only shapes: b, x_star and f_star must match
        # A's, for one problem and for a stack of two
        for S in ((), (2,)):
            A = np.broadcast_to(np.eye(3), (*S, 3, 3))
            good = {"b": np.zeros((*S, 3)), "x_star": np.zeros((*S, 3)), "f_star": np.zeros(S) if S else 0.0}
            assert quadratic(A, **good).dim == 3
            for name, bad in (("b", np.zeros((*S, 4))), ("x_star", np.zeros((*S, 2))), ("x_star", np.zeros(4)),
                              ("f_star", np.zeros(3)), ("f_star", np.zeros((*S, 1)))):
                with pytest.raises(ValueError, match="bad shapes"):
                    quadratic(A, **{**good, name: bad})

    @pytest.mark.parametrize("dim, kappa, seeds", [(1, 1.0, (0,)), (12, 100.0, (0, 1)), (64, 1000.0, (5,)),
                                                   (512, 10.0, (3,))])
    def test_drawn_minimum_matches_solve(self, dim, kappa, seeds):
        # x* from the drawn eigenbasis against np.linalg.solve on the same A
        # and b, to (d + kappa) eps-scale round-off, and the lane's
        # stack and the rate objective take each seed's x* and f* as drawn
        obj, _ = make_quadratic_problem(dim, (kappa,), seeds)
        for i, seed in enumerate(seeds):
            A, b, x_star, f_star, _ = _draw_quadratic(dim, kappa, seed)
            ref = solved_quadratic(A, b)
            tol = 1e-14 * (dim + kappa)
            assert np.abs(x_star - ref.x_star).max() <= tol * np.abs(ref.x_star).max()
            assert abs(f_star - ref.f_star) <= tol * abs(ref.f_star)
            assert np.array_equal(obj.x_star[i], x_star) and obj.f_star[i] == f_star
            rate_obj, _ = make_rate_objective("quadratic", dim, kappa=kappa, seed=seed)
            assert np.array_equal(rate_obj.x_star, x_star) and rate_obj.f_star == f_star

    @pytest.mark.parametrize(
        "m,S,k,dim", [(2, 2, 2, 64), (2, 1, 1, 512), (3, 2, 2, 12), (2, 10, 10, 64), (2, 3, 3, 512)]
    )
    def test_stack_broadcasts_leading_axes(self, m, S, k, dim):
        # a stack of S problems evaluates an (m, S, d) batch with entry [o, i]
        # against problem i, bitwise that problem's lone value
        rng = make_rng((m, S, dim))
        A = np.stack([make_spd(dim, 10.0, rng)[0] for _ in range(S)])
        b = rng.standard_normal((S, dim))
        X = rng.standard_normal((m, k, dim))
        losses, grads = solved_quadratic(A, b).value_and_grad(X)
        assert losses.shape == (m, k) and grads.shape == (m, k, dim)
        for i in range(k):
            lone = solved_quadratic(A[i], b[i])
            for o in range(m):
                loss, g = lone.value_and_grad(X[o, i])
                assert loss == losses[o, i] and np.array_equal(g, grads[o, i])

    def test_stack_rejects_bad_batches(self):
        rng = make_rng(3)
        A = np.stack([make_spd(4, 5.0, rng)[0] for _ in range(2)])
        stack = solved_quadratic(A, rng.standard_normal((2, 4)))
        # a stack takes exactly (..., S, d): fewer rows than problems is no batch
        for shape in ((3, 4), (2, 3, 4), (2, 2, 5), (2, 5), (4,), (1, 4), (2, 1, 4)):
            with pytest.raises(ValueError):
                stack.value_and_grad(np.zeros(shape))
        # the paired evaluation takes two batches of one shape
        for shape in ((3, 2, 4), (2, 5), (1, 2, 4)):
            with pytest.raises(ValueError):
                stack.value_and_grads(np.zeros((2, 4)), np.zeros(shape))


class TestToyScalar:
    def test_minimum(self):
        obj = toy_scalar()
        assert obj.loss(np.array([0.5])) == 0.0
        assert obj.grad(np.array([0.5]))[0] == 0.0

    def test_grad_at_point_nine(self):
        assert toy_scalar().grad(np.array([0.9]))[0] == pytest.approx(0.4, abs=1e-15)

    def test_ste_grad_at_least_half_property(self):
        # the straight-through gradient grad f(floor(x)) never drops below 1/2
        obj = toy_scalar()
        spec = QuantSpec(scheme="floor-toy")
        rng = make_rng(3)
        for _ in range(100):
            x = rng.uniform(-20.0, 20.0, size=1)
            xq = quantize(spec, x).quantized
            assert abs(obj.grad(xq)[0]) >= 0.5


class TestRosenbrock:
    def test_minimum(self):
        obj = rosenbrock(10)
        assert obj.loss(np.ones(10)) == 0.0
        assert np.abs(obj.grad(np.ones(10))).max() == 0.0

    def test_grad_matches_fd(self):
        obj = rosenbrock(6)
        rng = make_rng(4)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=6)
            g, g_fd = obj.grad(x), finite_diff_grad(obj.loss, x, h=1e-6)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


class TestQuantizedObjective:
    """The loss at the quantized point, f(Q(x)), as the QAT lanes take it."""

    def test_fine_grid_loss_close_second_order(self):
        rng = make_rng(6)
        A = make_spd(8, 10.0, rng)[0]
        base = solved_quadratic(A, rng.standard_normal(8))
        spec = QuantSpec(scheme="int-plain", bits=8)
        tr = float(np.trace(A))
        lam_max = float(np.linalg.eigvalsh(A)[-1])
        for _ in range(20):
            x = rng.standard_normal(8)
            res = quantize(spec, x)
            e = res.error
            # quadratics make the Taylor identity exact:
            # f(Q(x)) - f(x) = -g.e + 1/2 e^T A e
            diff = base.loss(res.quantized) - base.loss(x)
            taylor = -float(base.grad(x) @ e) + 0.5 * float(e @ A @ e)
            assert diff == pytest.approx(taylor, abs=1e-10)
            # ... and the loss perturbation is second-order small in the scale
            s = spec.clip_factor * float(np.sqrt(np.mean(x * x))) / spec.q_max  # int-plain: z = x
            bound = np.linalg.norm(base.grad(x)) * np.linalg.norm(e) + 0.5 * lam_max * float(e @ e)
            assert abs(diff) <= bound + 1e-12
            assert 0.5 * lam_max * float(e @ e) <= s**2 * tr  # e is entrywise O(s)


def test_motivating_gap_ste_vs_balance_point():
    # |STE gradient| >= 1/2 everywhere on the toy problem, while the balance
    # residual vanishes at x*(lam)
    obj = toy_scalar()
    spec = QuantSpec(scheme="floor-toy")
    rng = make_rng(12)
    for _ in range(100):
        lam = float(rng.uniform(0.1, 8.0))
        x_star = np.array([1.0 / (2.0 * (1.0 + lam))])
        residual = obj.grad(x_star) + lam * quantize(spec, x_star).error
        assert abs(residual[0]) <= 5e-16 * (1.0 + lam)
        xq = quantize(spec, x_star).quantized
        assert abs(obj.grad(xq)[0]) >= 0.5
