import copy

import numpy as np
import pytest

from oracles import solved_quadratic
import qatkit.experiments
import qatkit.optim
from qatkit.experiments import make_quadratic_problem, run_quadratic
from qatkit.numerics import make_rng, make_spd
from qatkit.objectives import toy_scalar
from qatkit.optim import (
    BETA1,
    BETA2,
    EPS,
    AdamState,
    OptimConfig,
    adamw_step,
    cage_adamw_step,
    cage_sgd_step,
    grad_clip,
    lambda_at,
    sgd_step,
)
from qatkit.quantize import QuantSpec, quantize


class TestLambdaSchedule:
    def test_ramp_value(self):
        cfg = OptimConfig(lr=0.1, weight_decay=0.0, lam=2.0, silence_ratio=0.9)
        assert lambda_at(cfg, 95, 100) == pytest.approx(1.0, abs=1e-12)

    def test_zero_at_silence_boundary(self):
        cfg = OptimConfig(lr=0.1, weight_decay=0.0, lam=2.0, silence_ratio=0.5)
        assert lambda_at(cfg, 5, 10) == 0.0

    def test_full_lambda_at_end(self):
        cfg = OptimConfig(lr=0.1, weight_decay=0.0, lam=3.0, silence_ratio=0.25)
        assert lambda_at(cfg, 16, 16) == pytest.approx(3.0, abs=1e-12)

    def test_lane_ramp_follows_its_own_steps(self):
        # the ramp's horizon is the lane's step count, for the trace and the step
        cfg = OptimConfig(lr=0.03, weight_decay=0.0, lam=2.0, silence_ratio=0.5)
        obj, x0 = make_quadratic_problem(16, (10.0,), (0,))
        ((run,),) = run_quadratic(obj, x0, ["cage-adamw-dec"], 10, QuantSpec(scheme="int-hadamard", bits=4), cfg)
        lambda_t = run.trace[:, 4].tolist()
        assert lambda_t[:5] == [0.0] * 5
        assert lambda_t[-1] == cfg.lam
        assert lambda_t == [lambda_at(cfg, t, 10) for t in range(1, 11)]

    def test_continuity_property(self):
        rng = make_rng(0)
        for _ in range(100):
            lam = float(rng.uniform(0.1, 5.0))
            s = float(rng.uniform(0.0, 0.95))
            T = int(rng.integers(10, 500))
            cfg = OptimConfig(lr=0.1, weight_decay=0.0, lam=lam, silence_ratio=s)
            vals = [lambda_at(cfg, t, T) for t in range(1, T + 1)]
            max_jump = lam / ((1.0 - s) * T)
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-15  # non-decreasing
                assert b - a <= max_jump + 1e-12
            assert all(0.0 <= v <= lam + 1e-12 for v in vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(lr=0.1, weight_decay=0.0, lam=-1.0, silence_ratio=0.5)
        with pytest.raises(ValueError):
            OptimConfig(lr=0.1, weight_decay=0.0, lam=1.0, silence_ratio=1.0)


class TestSgd:
    def test_zero_grad(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(sgd_step(x, np.zeros(2), 0.1), x)

    def test_simple_step(self):
        assert sgd_step(np.array([1.0]), np.array([2.0]), 0.5)[0] == 0.0

    def test_monotone_on_quadratic(self):
        rng = make_rng(1)
        A = make_spd(6, 20.0, rng)[0]
        obj = solved_quadratic(A, rng.standard_normal(6))
        lr = 1.0 / np.linalg.eigvalsh(A)[-1]
        x = rng.standard_normal(6)
        prev = obj.loss(x)
        for _ in range(50):
            x = sgd_step(x, obj.grad(x), lr)
            cur = obj.loss(x)
            assert cur <= prev + 1e-12
            prev = cur


class TestCageSgd:
    def test_fixed_point_quarter(self):
        # x*(1) = 1/4: grad = -1/4, error = 1/4, update is exactly zero
        obj = toy_scalar()
        spec = QuantSpec(scheme="floor-toy")
        x = np.array([0.25])
        g = obj.grad(x)
        e = quantize(spec, x).error
        assert np.array_equal(cage_sgd_step(x, g, e, 0.1, 1.0), x)

    def test_fixed_point_negative_quarter(self):
        # x = -1/4 is another balance point at lam = 1
        obj = toy_scalar()
        spec = QuantSpec(scheme="floor-toy")
        x = np.array([-0.25])
        g = obj.grad(x)
        e = quantize(spec, x).error
        assert g[0] == -0.75 and e[0] == 0.75
        assert np.array_equal(cage_sgd_step(x, g, e, 0.1, 1.0), x)

    def test_direct_arithmetic(self):
        obj = toy_scalar()
        spec = QuantSpec(scheme="floor-toy")
        x = np.array([0.9])
        x2 = cage_sgd_step(x, obj.grad(x), quantize(spec, x).error, 0.1, 1.0)
        assert x2[0] == pytest.approx(0.77, abs=1e-15)

    def test_lambda_zero_is_sgd(self):
        rng = make_rng(2)
        x, g, e = rng.standard_normal(8), rng.standard_normal(8), rng.standard_normal(8)
        assert np.array_equal(cage_sgd_step(x, g, e, 0.3, 0.0), sgd_step(x, g + 0.0 * e, 0.3))

    def test_coupled_decoupled_identity_property(self):
        # with an SGD base both correction orderings are the same formula;
        # check the shared-implementation claim bitwise on random tuples
        rng = make_rng(3)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            x = rng.standard_normal(dim)
            g = rng.standard_normal(dim)
            e = rng.standard_normal(dim)
            lam = float(rng.uniform(0.0, 4.0))
            lr = float(rng.uniform(1e-4, 0.5))
            coupled = sgd_step(x, g + lam * e, lr)
            decoupled = cage_sgd_step(x, g, e, lr, lam)
            assert np.array_equal(coupled, decoupled)


def _manual_adamw_trace(x0, grads, lr, beta1, beta2, eps, wd):
    # plain-Python mirror of the update equations, scalar case
    m, v, t, x = 0.0, 0.0, 0, x0
    out = []
    for g in grads:
        t += 1
        x = (1.0 - lr * wd) * x
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        x = x - lr * m_hat / (v_hat**0.5 + eps)
        out.append(x)
    return out


class TestAdamW:
    def test_first_step_sign_move(self):
        cfg = OptimConfig(lr=0.01, weight_decay=0.0, lam=0.0, silence_ratio=0.0)
        g = np.array([0.5, -2.0])
        state, x = adamw_step(AdamState.zeros(2), np.zeros(2), g, cfg, cfg.lr)
        expected = -cfg.lr * g / (np.abs(g) + EPS)
        assert np.allclose(x, expected, atol=1e-15)
        assert state.t == 1

    def test_zero_grad_never_moves(self):
        cfg = OptimConfig(lr=0.1, weight_decay=0.0, lam=0.0, silence_ratio=0.0)
        state = AdamState.zeros(3)
        x = np.array([1.0, -2.0, 3.0])
        for _ in range(25):
            state, x = adamw_step(state, x, np.zeros(3), cfg, cfg.lr)
        assert np.array_equal(x, [1.0, -2.0, 3.0])

    def test_three_step_hand_trace(self):
        cfg = OptimConfig(lr=0.1, weight_decay=0.0, lam=0.0, silence_ratio=0.0)
        state = AdamState.zeros(1)
        x = np.array([0.5])
        seen = []
        for _ in range(3):
            state, x = adamw_step(state, x, np.array([1.0]), cfg, cfg.lr)
            seen.append(x[0])
        manual = _manual_adamw_trace(0.5, [1.0, 1.0, 1.0], 0.1, 0.9, 0.95, 1e-8, 0.0)
        assert np.allclose(seen, manual, atol=1e-12)

    def test_decay_applied_before_update(self):
        cfg = OptimConfig(lr=0.1, weight_decay=0.5, lam=0.0, silence_ratio=0.0)
        state, x = adamw_step(AdamState.zeros(1), np.array([2.0]), np.zeros(1), cfg, cfg.lr)
        # zero gradient: only the decay acts
        assert x[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5), abs=1e-15)

    def test_reduces_to_adam_property(self):
        # with weight_decay = 0 the step is plain Adam: mirror implementation
        rng = make_rng(4)
        for _ in range(100):
            cfg = OptimConfig(lr=float(rng.uniform(1e-3, 0.3)), weight_decay=0.0, lam=0.0, silence_ratio=0.0)
            g = rng.standard_normal(4)
            x = rng.standard_normal(4)
            state = AdamState(m=rng.standard_normal(4), v=np.abs(rng.standard_normal(4)), t=int(rng.integers(1, 50)))
            new_state, x_new = adamw_step(copy.deepcopy(state), x, g, cfg, cfg.lr)
            t = state.t + 1
            m = BETA1 * state.m + (1 - BETA1) * g
            v = BETA2 * state.v + (1 - BETA2) * (g * g)
            m_hat = m / (1 - BETA1**t)
            v_hat = v / (1 - BETA2**t)
            ref = 1.0 * x - cfg.lr * m_hat / (np.sqrt(v_hat) + EPS)
            assert np.array_equal(x_new, ref)
            assert new_state.t == t

    def test_no_decay_is_the_unit_factor_bitwise(self):
        # at weight_decay 0 the step skips the decay product; the formula with
        # its factor (1 - lr 0) = 1.0 applied gives the same bits, down to the
        # sign of zero, subnormals and values near the float max
        cfg = OptimConfig(lr=0.05, weight_decay=0.0, lam=0.0, silence_ratio=0.0)
        x = np.array([[-0.0, 0.0, 5e-324, -2.5e-310], [1e308, -1e308, -0.0, 1.5]])
        g = np.array([[0.0, -0.0, 1e-300, 3.0], [2.0, -1e-3, 0.0, -0.0]])
        m = np.array([[0.0, 0.0, 1e-310, -0.5], [1.0, 0.25, 0.0, 0.0]])
        state = AdamState(m=m.copy(), v=np.abs(m), t=3)
        new_state, x_new = adamw_step(state, x, g, cfg, cfg.lr)
        m_ref = BETA1 * m + (1.0 - BETA1) * g
        v_ref = BETA2 * np.abs(m) + (1.0 - BETA2) * (g * g)
        m_hat, v_hat = m_ref / (1.0 - BETA1**4), v_ref / (1.0 - BETA2**4)
        ref = (1.0 - cfg.lr * cfg.weight_decay) * x - cfg.lr * m_hat / (np.sqrt(v_hat) + EPS)
        assert x_new.tobytes() == ref.tobytes() and np.signbit(x_new[[0, 1], [0, 2]]).all()
        assert new_state.m.tobytes() == m_ref.tobytes() and new_state.v.tobytes() == v_ref.tobytes()

    def test_beta_zero_sign_consistency_property(self):
        rng = make_rng(5)
        # the first step from zero moments moves each coordinate against its gradient
        cfg = OptimConfig(lr=0.05, weight_decay=0.0, lam=0.0, silence_ratio=0.0)
        for _ in range(100):
            g = rng.standard_normal(6)
            _, x = adamw_step(AdamState.zeros(6), np.zeros(6), g, cfg, cfg.lr)
            moved = g != 0
            assert np.all(np.sign(x[moved]) == -np.sign(g[moved]))

    def test_v_stays_nonnegative_property(self):
        rng = make_rng(6)
        cfg = OptimConfig(lr=0.01, weight_decay=0.1, lam=0.0, silence_ratio=0.0)
        state = AdamState.zeros(5)
        x = rng.standard_normal(5)
        for _ in range(300):
            g = rng.standard_normal(5) * 10 ** rng.uniform(-6, 4)
            state, x = adamw_step(state, x, g, cfg, cfg.lr)
            assert np.all(state.v >= 0)


def decoupled(state, x, g, cfg, lr, lam_t, spec):
    """cage-adamw-dec's literal step: e_dec is the error of the decayed point."""
    e_dec = quantize(spec, (1.0 - lr * cfg.weight_decay) * x).error
    return cage_adamw_step(state, x, g, quantize(spec, x).error, e_dec, cfg, lr, 0.0, lam_t)


def coupled(state, x, g, e, cfg, lr, lam_t):
    """cage-adamw-cpl's step: the error rides through the moments."""
    return cage_adamw_step(state, x, g, e, e, cfg, lr, lam_t, 0.0)


class TestCageAdamW:
    def _setup(self, lam=2.0, silence=0.0):
        cfg = OptimConfig(lr=0.05, weight_decay=0.1, lam=lam, silence_ratio=silence)
        spec = QuantSpec(scheme="floor-toy", grid=0.5)
        return cfg, spec

    def test_lambda_zero_bitwise_adamw(self):
        cfg, spec = self._setup(lam=0.0)
        rng = make_rng(7)
        x = rng.standard_normal(6)
        g = rng.standard_normal(6)
        state = AdamState.zeros(6)
        s_ref, x_ref = adamw_step(copy.deepcopy(state), x, g, cfg, cfg.lr)
        lam_t = lambda_at(cfg, 5, 10)
        s_dec, x_dec = decoupled(copy.deepcopy(state), x, g, cfg, cfg.lr, lam_t, spec)
        s_cpl, x_cpl = coupled(copy.deepcopy(state), x, g, quantize(spec, x).error, cfg, cfg.lr, lam_t)
        assert np.array_equal(x_ref, x_dec) and np.array_equal(x_ref, x_cpl)
        assert np.array_equal(s_ref.m, s_dec.m) and np.array_equal(s_ref.v, s_cpl.v)

    def test_silence_period_bitwise_adamw(self):
        cfg, spec = self._setup(lam=2.0, silence=0.9)
        rng = make_rng(8)
        x = rng.standard_normal(4)
        g = rng.standard_normal(4)
        state = AdamState.zeros(4)
        _, x_ref = adamw_step(copy.deepcopy(state), x, g, cfg, cfg.lr)
        lam_90, lam_91 = lambda_at(cfg, 90, 100), lambda_at(cfg, 91, 100)
        _, x_dec = decoupled(copy.deepcopy(state), x, g, cfg, cfg.lr, lam_90, spec)  # r = 0.9 <= s
        assert np.array_equal(x_ref, x_dec)
        _, x_after = decoupled(copy.deepcopy(state), x, g, cfg, cfg.lr, lam_91, spec)
        assert not np.array_equal(x_ref, x_after)

    def test_on_grid_error_vanishes(self):
        cfg, spec = self._setup(lam=2.0)
        x = np.array([1.0, -0.5, 2.5, 0.0])  # already on the 0.5 grid
        g = make_rng(9).standard_normal(4)
        state = AdamState.zeros(4)
        _, x_ref = adamw_step(copy.deepcopy(state), x, g, cfg, cfg.lr)
        _, x_dec = decoupled(copy.deepcopy(state), x, g, cfg, cfg.lr, 2.0, spec)
        # decay shifts x off the grid, so the residual is the decayed point's
        xd = (1.0 - cfg.lr * cfg.weight_decay) * x
        manual = x_ref - cfg.lr * 2.0 * quantize(spec, xd).error
        assert np.array_equal(x_dec, manual)
        assert not np.array_equal(x_dec, x_ref)

    def test_lane_decoupled_uses_error_of_decayed_point(self):
        # with weight decay the lane quantizes the decayed point for the
        # decoupled correction; its first step is the literal rule
        cfg = OptimConfig(lr=0.05, weight_decay=0.2, lam=2.0, silence_ratio=0.0)
        spec = QuantSpec(scheme="floor-toy", grid=0.5)
        obj, (x0,) = make_quadratic_problem(8, (10.0,), (3,))
        ((run,),) = run_quadratic(obj, x0, ["cage-adamw-dec"], 1, spec, cfg, grad_clip_norm=0.0)
        fwd = quantize(spec, x0)
        _, g, _ = obj.value_and_grads(fwd.quantized, x0)
        _, x_ref = adamw_step(AdamState.zeros(x0.shape), x0, g, cfg, cfg.lr)
        xd = (1.0 - cfg.lr * cfg.weight_decay) * x0
        assert not np.array_equal(quantize(spec, xd).error, fwd.error)
        assert np.array_equal(run.iterates[0], (x_ref - cfg.lr * cfg.lam * quantize(spec, xd).error)[0])

    def test_decoupled_without_quantizer_is_adamw(self):
        # the identity quantizer has no quantization error, so no correction
        cfg, _ = self._setup(lam=1.0)
        rng = make_rng(10)
        x = rng.standard_normal(4)
        g = rng.standard_normal(4)
        state = AdamState.zeros(4)
        _, x_ref = adamw_step(copy.deepcopy(state), x, g, cfg, cfg.lr)
        none = QuantSpec(scheme="none")
        _, x_dec = decoupled(copy.deepcopy(state), x, g, cfg, cfg.lr, 1.0, none)
        _, x_cpl = coupled(copy.deepcopy(state), x, g, quantize(none, x).error, cfg, cfg.lr, 1.0)
        assert np.array_equal(x_dec, x_ref) and np.array_equal(x_cpl, x_ref)

    def test_coupled_zero_error_is_adamw(self):
        cfg, _ = self._setup(lam=2.0)
        rng = make_rng(14)
        x = rng.standard_normal(4)
        g = rng.standard_normal(4)
        state = AdamState.zeros(4)
        _, x_ref = adamw_step(copy.deepcopy(state), x, g, cfg, cfg.lr)
        _, x_cpl = coupled(copy.deepcopy(state), x, g, np.zeros(4), cfg, cfg.lr, 2.0)
        assert np.array_equal(x_ref, x_cpl)

    def test_decoupled_on_grid_no_decay_is_adamw(self):
        # without decay the parameters stay on the grid, the residual is zero,
        # and the correction vanishes entirely
        cfg = OptimConfig(lr=0.05, weight_decay=0.0, lam=2.0, silence_ratio=0.0)
        spec = QuantSpec(scheme="floor-toy", grid=0.5)
        x = np.array([1.0, -0.5, 2.5, 0.0])
        g = make_rng(15).standard_normal(4)
        state = AdamState.zeros(4)
        _, x_ref = adamw_step(copy.deepcopy(state), x, g, cfg, cfg.lr)
        _, x_dec = decoupled(copy.deepcopy(state), x, g, cfg, cfg.lr, 2.0, spec)
        assert np.array_equal(x_ref, x_dec)

    def test_coupled_differs_from_decoupled_for_adam(self):
        cfg, spec = self._setup(lam=2.0)
        rng = make_rng(11)
        x = rng.standard_normal(4) + 0.3
        g = rng.standard_normal(4)
        e = quantize(spec, x).error
        state = AdamState.zeros(4)
        _, x_dec = decoupled(copy.deepcopy(state), x, g, cfg, cfg.lr, 2.0, spec)
        _, x_cpl = coupled(copy.deepcopy(state), x, g, e, cfg, cfg.lr, 2.0)
        assert not np.array_equal(x_dec, x_cpl)

    def test_per_row_lambdas_match_each_row(self):
        # one call on an (O, S, d) block with (O, 1, 1) coefficients steps
        # each row bitwise as its lone call with scalar coefficients
        cfg, spec = self._setup(lam=2.0)
        rng = make_rng(16)
        x, g, m = rng.standard_normal((3, 3, 2, 5))
        v = np.abs(rng.standard_normal((3, 2, 5)))
        e, e_dec = quantize(spec, x).error, quantize(spec, 0.99 * x).error
        lam_cpl, lam_dec = [0.0, 1.5, 0.0], [0.0, 0.0, 1.5]
        state = AdamState(m=m.copy(), v=v.copy(), t=4)
        per_row = np.array([lam_cpl, lam_dec])[:, :, None, None]
        s_all, x_all = cage_adamw_step(state, x, g, e, e_dec, cfg, 0.03, *per_row)
        for o in range(3):
            lone = AdamState(m=m[o].copy(), v=v[o].copy(), t=4)
            s_o, x_o = cage_adamw_step(lone, x[o], g[o], e[o], e_dec[o], cfg, 0.03, lam_cpl[o], lam_dec[o])
            assert np.array_equal(x_all[o], x_o) and s_all.t == s_o.t == 5
            assert np.array_equal(s_all.m[o], s_o.m) and np.array_equal(s_all.v[o], s_o.v)


class TestAdamStateWorkspace:
    def test_step_advances_the_state_in_place(self):
        # the state is the step's workspace: its moments are updated in place
        # and the same object comes back; the iterate is not written
        cfg = OptimConfig(lr=0.05, weight_decay=0.1, lam=0.0, silence_ratio=0.0)
        rng = make_rng(17)
        x, g = rng.standard_normal((2, 3, 4))
        state = AdamState.zeros((3, 4))
        m, v, x_in = state.m, state.v, x.copy()
        before = copy.deepcopy(state)
        new_state, x_new = adamw_step(state, x, g, cfg, cfg.lr)
        assert new_state is state and state.t == 1 and state.m is m and state.v is v
        assert np.array_equal(x, x_in) and x_new is not x
        assert before.t == 0 and not before.m.any() and not before.v.any()
        new_state, _ = cage_adamw_step(state, x, g, g, g, cfg, cfg.lr, 1.0, 0.5)
        assert new_state is state and state.t == 2 and state.m is m


@pytest.mark.parametrize(
    "dim, quant, opts, seeds",
    [
        (512, QuantSpec(scheme="mxfp4"), ["adamw", "cage-adamw-cpl"], (3,)),
        (64, QuantSpec(scheme="int-hadamard", bits=4), ["adamw", "cage-adamw-dec"], (3, 4)),
    ],
    ids=["mxfp4-dim512", "int4-dim64"],
)
def test_bench_shaped_lane_matches_lone_optimizer_runs(dim, quant, opts, seeds):
    # the benchmark's quadratic cells (kappa 10, 20 steps): each optimizer's
    # trace, iterates and gaps in the two-optimizer run are bitwise its run
    # alone; the silence ratio is cut to 0.5 so that half the steps correct
    cfg = OptimConfig(lr=0.03, weight_decay=0.0, lam=2.0, silence_ratio=0.5)
    obj, x0 = make_quadratic_problem(dim, (10.0,), seeds)
    (runs,) = run_quadratic(obj, x0, opts, 20, quant, cfg)
    for name, run in zip(opts, runs):
        ((lone,),) = run_quadratic(obj, x0, [name], 20, quant, cfg)
        assert run.trace.tobytes() == lone.trace.tobytes()
        assert run.iterates.tobytes() == lone.iterates.tobytes()
        assert run.final_gaps == lone.final_gaps
    assert not np.array_equal(runs[0].iterates, runs[1].iterates)


def counted_quantize_calls(monkeypatch, cfg, steps):
    """Per-call ``experiments.quantize`` log (the input's shape) of one
    adamw + cage-adamw-dec lane run."""
    # the optimizer steps take their errors as arguments, so the lane makes every call
    assert not hasattr(qatkit.optim, "quantize")
    calls = []

    def counting(spec, x):
        calls.append(np.shape(x))
        return quantize(spec, x)

    monkeypatch.setattr(qatkit.experiments, "quantize", counting)
    obj, x0 = make_quadratic_problem(16, (10.0,), (0, 1))
    run_quadratic(obj, x0, ["adamw", "cage-adamw-dec"], steps, QuantSpec(scheme="int-hadamard", bits=4), cfg)
    return calls


def test_decoupled_lane_quantizes_once_per_step_without_decay(monkeypatch):
    # at weight_decay 0 the decayed point is x, so the forward pass's error
    # serves the decoupled correction: one call per step, one for the gap
    cfg = OptimConfig(lr=0.03, weight_decay=0.0, lam=2.0, silence_ratio=0.5)
    assert counted_quantize_calls(monkeypatch, cfg, 10) == [(2, 2, 16)] * 11


def test_decoupled_lane_requantizes_decayed_point_only_when_lambda_positive(monkeypatch):
    cfg = OptimConfig(lr=0.03, weight_decay=0.1, lam=2.0, silence_ratio=0.5)
    calls = counted_quantize_calls(monkeypatch, cfg, 10)
    # steps 1-5 are silent (lam_t 0); steps 6-10 add the decayed AdamW rows
    assert calls == [(2, 2, 16)] * 5 + [(2, 2, 16), (2, 2, 16)] * 5 + [(2, 2, 16)]
    assert [lambda_at(cfg, t, 10) > 0 for t in range(1, 11)] == [False] * 5 + [True] * 5


class TestGradClip:
    def test_small_untouched(self):
        g = np.array([0.3, 0.4])
        assert np.array_equal(grad_clip(g, 1.0), g)

    def test_large_scaled_to_max(self):
        g = np.array([0.0, 4.0])
        out = grad_clip(g, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        assert out[0] == 0.0 and out[1] > 0

    def test_norm_bound_property(self):
        rng = make_rng(12)
        for _ in range(100):
            g = rng.standard_normal(int(rng.integers(1, 20))) * 10 ** rng.uniform(-3, 3)
            max_norm = float(rng.uniform(0.01, 10.0))
            assert np.linalg.norm(grad_clip(g, max_norm)) <= max_norm + 1e-12

    def test_bad_max_norm(self):
        with pytest.raises(ValueError):
            grad_clip(np.ones(2), 0.0)
        with pytest.raises(ValueError):
            grad_clip(np.ones(2), float("nan"))


@pytest.mark.parametrize("field", ["lr", "weight_decay", "lam", "silence_ratio"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_bad_hyperparameter_rejected(field, value):
    # a NaN fails every check, as an out-of-range value does
    settings = {"lr": 0.1, "weight_decay": 0.0, "lam": 1.0, "silence_ratio": 0.5, field: value}
    with pytest.raises(ValueError):
        OptimConfig(**settings)


def test_toy_fixed_points_random_lambda_property():
    # at x*(lam) = 1/(2(1+lam)) the balance residual vanishes to fp noise
    obj = toy_scalar()
    spec = QuantSpec(scheme="floor-toy")
    rng = make_rng(13)
    for _ in range(100):
        lam = float(rng.uniform(0.05, 10.0))
        x = np.array([1.0 / (2.0 * (1.0 + lam))])
        g = obj.grad(x)
        e = quantize(spec, x).error
        x_next = cage_sgd_step(x, g, e, 0.1, lam)
        assert abs(x_next[0] - x[0]) <= 1e-16
