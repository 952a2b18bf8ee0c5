"""End-to-end acceptance checks, one per release criterion.

Each test enforces its stated tolerance and prints a single PASS line with
the measured values, so ``pytest tests/test_acceptance.py -s`` doubles as the
acceptance report.  Criteria 1-5 exercise the full experiment lanes; 6-7 are
oracle round trips.  Criterion 8 is the per-module property suites
themselves, as ``pytest`` collects and runs them; ``pytest -s`` prints every
report line.
"""

import time

import numpy as np
import pytest

from oracles import RATE_STUDY_HORIZONS, rosenbrock_rate_study, solved_quadratic
from qatkit.experiments import (
    make_quadratic_problem,
    run_quadratic,
    run_toy_pareto,
)
from qatkit.numerics import make_rng
from qatkit.optim import OptimConfig, cage_sgd_step, sgd_step
from qatkit.pareto import EfState, ef_step, loglog_fit
from qatkit.quantize import QuantSpec, calibrate_clip, gaussian_clip_mse, quantize
from qatkit.scaling import fit_scaling, synthesize_scaling_data


def _report(name, detail):
    print(f"\nACCEPTANCE PASS [{name}]: {detail}")


def test_criterion_1_toy_balance_points():
    start = time.perf_counter()
    finals = {}
    for lam in (0.5, 1.0, 2.0, 3.0):
        res = run_toy_pareto(lam, lr=0.05, steps=5000, x0=0.9)
        target = 1.0 / (2.0 * (1.0 + lam))
        assert abs(res.final_x - target) <= 1e-6, (lam, res.final_x)
        assert res.pareto_grad_abs <= 1e-8, (lam, res.pareto_grad_abs)
        assert res.ste_grad_abs >= 0.499, (lam, res.ste_grad_abs)
        finals[lam] = res.final_x
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report("1 toy balance points", f"finals={finals} in {elapsed:.2f}s")


def test_criterion_2_error_feedback_equivalence():
    start = time.perf_counter()
    cases = [
        (QuantSpec(scheme="floor-toy", grid=0.5), 1e-12),
        (QuantSpec(scheme="int-plain", bits=4), 1e-12),
        (QuantSpec(scheme="int-hadamard", bits=4), 1e-9),
    ]
    worst = {}
    for spec, tol in cases:
        dev = 0.0
        for seed in range(10):
            dim = 8
            rng = make_rng((201, seed))
            from qatkit.numerics import make_spd

            obj = solved_quadratic(make_spd(dim, 8.0, rng)[0], rng.standard_normal(dim))
            lr = 0.05
            na, nb = make_rng((202, seed)), make_rng((202, seed))
            x = rng.standard_normal(dim)
            r0 = quantize(spec, x)
            ef = EfState(w=r0.quantized, e=r0.error)
            for _ in range(200):
                xq = quantize(spec, x).quantized
                x = x - lr * (obj.grad(xq) + 0.1 * na.standard_normal(dim))
                ef = ef_step(ef, lr, obj.grad(ef.w) + 0.1 * nb.standard_normal(dim), spec)
                r = quantize(spec, x)
                dev = max(dev, float(np.abs(ef.w - r.quantized).max()),
                          float(np.abs(ef.e - r.error).max()))
        assert dev <= tol, (spec.scheme, dev)
        worst[spec.scheme] = dev
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report("2 error-feedback equivalence", f"max deviations={worst} in {elapsed:.2f}s")


def test_criterion_3_sgd_coupling_identity():
    rng = make_rng(303)
    for _ in range(10_000):
        dim = int(rng.integers(1, 9))
        x = rng.standard_normal(dim)
        g = rng.standard_normal(dim)
        e = rng.standard_normal(dim)
        lam = float(rng.uniform(0.0, 4.0))
        lr = float(rng.uniform(1e-4, 0.5))
        coupled = sgd_step(x, g + lam * e, lr)
        decoupled = cage_sgd_step(x, g, e, lr, lam)
        assert np.array_equal(coupled, decoupled)
    _report("3 SGD coupling identity", "10^4 random tuples bitwise equal")


def test_criterion_4_ergodic_rate():
    # the study runs once per session; tests/test_pareto.py's
    # test_rate_fit_on_artifact_run reads the same runs
    per_horizon_vals, elapsed = rosenbrock_rate_study()
    means = [float(np.mean(vals)) for vals in per_horizon_vals]
    slope, _, r2 = loglog_fit(RATE_STUDY_HORIZONS, means)
    # the first three seeds are exactly a 3-seed run; their exponent must sit
    # in the bracket derived from the artifact's own seed spread
    slope3 = loglog_fit(RATE_STUDY_HORIZONS, [float(np.mean(vals[:3])) for vals in per_horizon_vals])[0]
    assert slope <= -0.3, f"slope {slope}"
    assert r2 >= 0.9, f"r2 {r2}"
    assert -1.05 <= slope3 <= -0.85, f"3-seed slope {slope3}"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5min"
    _report(
        "4 ergodic rate",
        f"slope={slope:.3f} (3 seeds {slope3:.3f}) r2={r2:.4f} means={means} in {elapsed:.0f}s",
    )


def test_criterion_5_quadratic_ordering():
    start = time.perf_counter()
    spec = QuantSpec(scheme="int-hadamard", bits=4)
    kappas = (1.0, 10.0, 100.0)
    details = {}
    obj, x0 = make_quadratic_problem(64, kappas, range(10), 1.0)
    # adamw never reads lam, so one config serves both optimizers
    cfg = OptimConfig(lr=0.03, weight_decay=0.0, lam=2.0, silence_ratio=0.9)
    runs = run_quadratic(
        obj=obj,
        x0=x0,
        optimizers=("adamw", "cage-adamw-dec"),
        steps=2000,
        spec=spec,
        cfg=cfg,
        lr_schedule="constant",
        ste_kind="trust-masked",
        grad_clip_norm=1.0,
    )
    for kappa, kappa_runs in zip(kappas, runs):
        adam, cage = (np.array(run.final_gaps) for run in kappa_runs)
        wins = int((cage < adam).sum())
        assert cage.mean() < adam.mean(), (kappa, cage.mean(), adam.mean())
        assert wins >= 8, (kappa, wins)
        details[kappa] = f"adam={adam.mean():.3f} cage={cage.mean():.3f} wins={wins}/10"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.0f}s exceeds 2min"
    _report("5 quadratic ordering", f"{details} in {elapsed:.0f}s")


def test_criterion_6_clip_calibration():
    ks = {b: calibrate_clip(b) for b in (2, 3, 4)}
    assert ks[2] < ks[3] < ks[4], ks
    z = make_rng(606).standard_normal(1_000_000)
    for b, k in ks.items():
        q_max = 2 ** (b - 1) - 1
        q_min = -(2 ** (b - 1))

        def mc_mse(kk):
            s = kk / q_max
            deq = s * np.clip(np.rint(z / s), q_min, q_max)
            return float(np.mean((z - deq) ** 2))

        quad = gaussian_clip_mse(b, k)
        mc = mc_mse(k)
        assert abs(mc - quad) <= 0.02 * quad, (b, mc, quad)
        # no neighbor beats the optimum by more than 0.5%
        for kk in (k - 0.05, k + 0.05):
            assert mc_mse(kk) >= mc * (1.0 - 0.005), (b, kk)
    _report("6 clip calibration", {b: round(k, 5) for b, k in ks.items()})


def test_criterion_7_scaling_law_recovery():
    start = time.perf_counter()
    true = dict(A=0.8, alpha=0.34, B=1.5, beta=0.28, E=1.2)
    groups = {("fp16", "FP"): 1.0, ("m4", "4"): 0.7, ("m2", "2"): 0.5}
    worst_param, worst_eff = 0.0, 0.0
    for gen_seed in range(5):
        data = synthesize_scaling_data(
            **true, eff_by_group=groups, noise=0.005, rng=make_rng((500, gen_seed))
        )
        fit = fit_scaling(data)
        for key, truth in true.items():
            rel = abs(getattr(fit, key) / truth - 1.0)
            worst_param = max(worst_param, rel)
            assert rel <= 0.10, (gen_seed, key, rel)
        for key, truth in groups.items():
            if key[1] == "FP":
                continue
            err = abs(fit.eff[key] - truth)
            worst_eff = max(worst_eff, err)
            assert err <= 0.05, (gen_seed, key, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(
        "7 scaling-law recovery",
        f"worst param rel err {worst_param:.3f}, worst eff abs err {worst_eff:.3f} in {elapsed:.1f}s",
    )
