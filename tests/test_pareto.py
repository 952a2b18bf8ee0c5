import csv

import numpy as np
import pytest

from oracles import RATE_STUDY_HORIZONS, rosenbrock_rate_study, solved_quadratic
from qatkit.experiments import make_rate_objective, run_toy_pareto
from qatkit.numerics import make_rng, make_spd
from qatkit.objectives import toy_scalar
from qatkit.optim import cage_sgd_step
from qatkit.pareto import EfState, balance_sq_norm, ef_step, loglog_fit, write_trace_csv
from qatkit.quantize import QuantSpec, quantize


def toy_balance_sq_norm(x, lam):
    """||grad f(x) + lam (x - Q(x))||^2 of the scalar problem on floor grid 1."""
    x = np.array([x])
    return balance_sq_norm(toy_scalar().grad(x), quantize(QuantSpec(scheme="floor-toy"), x).error, lam)


class TestParetoGradient:
    def test_quarter_vanishes(self):
        assert toy_balance_sq_norm(0.25, 1.0) == 0.0

    def test_negative_quarter_vanishes(self):
        assert toy_balance_sq_norm(-0.25, 1.0) == 0.0

    def test_lambda_zero_is_true_gradient_property(self):
        rng = make_rng(0)
        A = make_spd(6, 12.0, rng)[0]
        obj = solved_quadratic(A, rng.standard_normal(6))
        spec = QuantSpec(scheme="int-plain", bits=4)
        for _ in range(100):
            x = rng.standard_normal(6)
            g = obj.grad(x)
            assert balance_sq_norm(g, quantize(spec, x).error, 0.0) == g @ g


class TestErrorFeedback:
    def test_noop_step(self):
        spec = QuantSpec(scheme="floor-toy")
        ef = EfState(w=np.array([2.0]), e=np.zeros(1))
        out = ef_step(ef, 0.1, np.zeros(1), spec)
        assert np.array_equal(out.w, [2.0])
        assert np.array_equal(out.e, [0.0])

    def test_single_step_hand_trace(self):
        # from x0 = 0.9: w0 = 0, e0 = 0.9; straight-through gradient at w0 is
        # -1/2, so g = 0.1 * (-0.5) - 0.9 = -0.95, w1 = floor(0.95) = 0,
        # e1 = 0.95
        obj = toy_scalar()
        spec = QuantSpec(scheme="floor-toy")
        ef = EfState(w=np.array([0.0]), e=np.array([0.9]))
        out = ef_step(ef, 0.1, obj.grad(ef.w), spec)
        assert out.w[0] == 0.0
        assert out.e[0] == pytest.approx(0.95, abs=1e-15)

    def _run_equivalence(self, spec, dim, seed, steps=50, tol=1e-12):
        rng = make_rng((21, seed))
        A = make_spd(dim, 6.0, rng)[0]
        obj = solved_quadratic(A, rng.standard_normal(dim))
        lr = 0.05
        noise_a = make_rng((22, seed))
        noise_b = make_rng((22, seed))
        x = rng.standard_normal(dim)
        r0 = quantize(spec, x)
        ef = EfState(w=r0.quantized, e=r0.error)
        for _ in range(steps):
            xq = quantize(spec, x).quantized
            g_x = obj.grad(xq) + 0.1 * noise_a.standard_normal(dim)
            x = x - lr * g_x

            g_w = obj.grad(ef.w) + 0.1 * noise_b.standard_normal(dim)
            ef = ef_step(ef, lr, g_w, spec)

            r = quantize(spec, x)
            assert np.abs(ef.w - r.quantized).max() <= tol
            assert np.abs(ef.e - r.error).max() <= tol

    def test_equivalence_floor(self):
        self._run_equivalence(QuantSpec(scheme="floor-toy", grid=0.5), 6, 1)

    def test_equivalence_int_plain(self):
        self._run_equivalence(QuantSpec(scheme="int-plain", bits=4), 6, 2)

    def test_equivalence_int_hadamard_looser_tol(self):
        self._run_equivalence(QuantSpec(scheme="int-hadamard", bits=4), 8, 3, tol=1e-9)

    def test_w_stays_on_grid_fixed_schemes_property(self):
        spec = QuantSpec(scheme="floor-toy", grid=0.25)
        rng = make_rng(4)
        ef = EfState(w=quantize(spec, rng.standard_normal(8)).quantized, e=np.zeros(8))
        for _ in range(100):
            ef = ef_step(ef, 0.1, rng.standard_normal(8), spec)
            assert np.array_equal(quantize(spec, ef.w).quantized, ef.w)

    def test_bijection_any_quantizer_any_lr_property(self):
        rng = make_rng(5)
        specs = [
            QuantSpec(scheme="floor-toy"),
            QuantSpec(scheme="floor-toy", grid=0.25),
            QuantSpec(scheme="int-plain", bits=3),
            QuantSpec(scheme="mxfp4"),
        ]
        for case in range(34):
            spec = specs[case % len(specs)]
            dim = 8
            lr = float(rng.uniform(0.001, 0.3))
            sigma = float(rng.uniform(0.0, 0.3))
            A = make_spd(dim, 4.0, make_rng((30, case)))[0]
            obj = solved_quadratic(A, make_rng((31, case)).standard_normal(dim))
            na, nb = make_rng((32, case)), make_rng((32, case))
            x = make_rng((33, case)).standard_normal(dim)
            r0 = quantize(spec, x)
            ef = EfState(w=r0.quantized, e=r0.error)
            for _ in range(3):
                xq = quantize(spec, x).quantized
                x = x - lr * (obj.grad(xq) + sigma * na.standard_normal(dim))
                ef = ef_step(ef, lr, obj.grad(ef.w) + sigma * nb.standard_normal(dim), spec)
                r = quantize(spec, x)
                assert np.abs(ef.w - r.quantized).max() <= 1e-11
                assert np.abs(ef.e - r.error).max() <= 1e-11


class TestErgodic:
    def test_inverse_sqrt_prefix_means(self):
        t = np.arange(1, 100_001)
        means = np.cumsum(1.0 / np.sqrt(t)) / t
        Ts = [100, 1000, 10_000, 100_000]
        vals = [means[T - 1] for T in Ts]
        slope, _, r2 = loglog_fit(Ts, vals)
        assert r2 > 0.99
        assert slope == pytest.approx(-0.5, abs=0.02)


class TestRateFit:
    def test_exact_inverse_sqrt(self):
        Ts = [100, 1000, 10_000, 100_000]
        vals = [3.0 / np.sqrt(T) for T in Ts]
        assert loglog_fit(Ts, vals)[0] == pytest.approx(-0.5, abs=1e-6)

    def test_exact_inverse(self):
        Ts = [100, 1000, 10_000, 100_000]
        vals = [5.0 / T for T in Ts]
        assert loglog_fit(Ts, vals)[0] == pytest.approx(-1.0, abs=1e-6)


class TestMeasureAndTrace:
    def test_record_counts_and_values(self):
        # one value per row, with one lam per row given as (..., 1)
        g = np.array([[1.0, 0.0], [3.0, 0.0]])
        e = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert balance_sq_norm(g[0], e[0], 2.0) == 5.0
        assert np.array_equal(balance_sq_norm(g, e, 2.0), [5.0, 13.0])
        assert np.array_equal(balance_sq_norm(g, e, np.array([[2.0], [0.0]])), [5.0, 9.0])

    def test_rows_are_their_lone_values_property(self):
        rng = make_rng(8)
        for d in (1, 3, 64, 257):
            g, e = rng.standard_normal((2, 3, 4, d))
            lam = rng.uniform(0.0, 3.0, (3, 4, 1))
            out = balance_sq_norm(g, e, lam)
            assert out.shape == (3, 4)
            for i in np.ndindex(3, 4):
                p = g[i] + lam[i][0] * e[i]
                assert out[i] == p @ p

    def test_trace_csv_roundtrip(self, tmp_path):
        rng = make_rng(6)
        trace = rng.standard_normal((5, 5))
        trace[0, :3] = -0.0, 5e-324, 1.7976931348623157e308
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        text = path.read_text()
        assert "np.float64" not in text
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["step", "loss", "pareto_sq_norm", "grad_sq_norm", "err_sq_norm", "lambda_t"]
        assert [row[0] for row in rows[1:]] == ["1", "2", "3", "4", "5"]
        assert rows[1][1:4] == ["-0.0", "5e-324", "1.7976931348623157e+308"]
        back = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        # round-trippable floats, the sign of zero included
        assert np.array_equal(back, trace) and np.signbit(back[0, 0])


def test_rate_fit_on_artifact_run():
    # the full study (10 seeds) is acceptance criterion 4; this reads its
    # first 3 seeds, exactly a 3-seed run, and asserts the exponent against
    # the bracket derived from the artifact's own seed spread.  With L = 1000
    # the step is 1/L at every horizon here, so the ergodic mean is
    # transient-dominated and decays close to 1/T: an exponent in the
    # illustrative [-0.75, -0.3] window, the 1/sqrt(T) regime, is not
    # attainable at this scale.
    per_horizon_vals, _ = rosenbrock_rate_study()
    means = [float(np.mean(vals[:3])) for vals in per_horizon_vals]
    p = loglog_fit(RATE_STUDY_HORIZONS, means)[0]
    assert -1.05 <= p <= -0.85, p


def test_rate_quadratic_lipschitz_is_kappa():
    # make_spd sets the spectrum on [1, kappa], so L is kappa exactly; A is
    # read back column by column through the gradient, g(e_i) - g(0)
    for kappa in (1.0, 10.0, 100.0):
        obj, lip = make_rate_objective("quadratic", 8, kappa=kappa)
        assert lip == kappa
        A = obj.grad(np.eye(8)) - obj.grad(np.zeros(8))
        assert abs(lip - np.linalg.eigvalsh((A + A.T) / 2)[-1]) <= 1e-12 * kappa


def test_converged_run_gap_between_measures():
    # after a converged corrected-SGD run the balance residual is ~0 while the
    # straight-through gradient magnitude stays >= 1/2
    for lam in (0.5, 1.0, 2.0):
        res = run_toy_pareto(lam, lr=0.05, steps=5000)
        assert res.pareto_grad_abs <= 1e-8
        assert res.ste_grad_abs >= 0.5 - 1e-8
        assert res.final_x == pytest.approx(1.0 / (2.0 * (1.0 + lam)), abs=1e-9)


def test_cage_sgd_step_used_by_equivalence_is_exact_iter_form():
    rng = make_rng(7)
    x = rng.standard_normal(5)
    g = rng.standard_normal(5)
    e = rng.standard_normal(5)
    assert np.array_equal(cage_sgd_step(x, g, e, 0.2, 1.5), x - 0.2 * (g + 1.5 * e))
