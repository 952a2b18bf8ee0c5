import json
import math
import warnings

import numpy as np
import pytest

import qatkit.scaling as sc
from oracles import scaling_jacobian, scipy_lm_per_start, write_scaling_csv
from qatkit.numerics import make_rng
from qatkit.scaling import (
    RESIDUAL_SPACES,
    ScalingDatum,
    ScalingFit,
    build_residual_system,
    fit_scaling,
    fit_to_json_dict,
    predict_loss,
    read_scaling_csv,
    synthesize_scaling_data,
)

TRUE = dict(A=0.8, alpha=0.34, B=1.5, beta=0.28, E=1.2)
GROUPS = {("fp16", "FP"): 1.0, ("m4", "4"): 0.7, ("m2", "2"): 0.5}


def _synth(seed, noise=0.005, groups=GROUPS):
    return synthesize_scaling_data(**TRUE, eff_by_group=groups, noise=noise, rng=make_rng((500, seed)))


def _fit_stub(eff=None):
    return ScalingFit(A=1.0, alpha=0.5, B=2.0, beta=0.3, E=1.5, eff=eff or {}, residual_rms=0.0)


class TestPredict:
    def test_asymptote_is_floor(self):
        fit = _fit_stub()
        val = predict_loss(fit, 1e30, 1e40, "any", "FP")
        assert val == pytest.approx(1.5, abs=1e-10)

    def test_half_eff_equals_half_params(self):
        fit = _fit_stub({("m", "4"): 0.5})
        lhs = predict_loss(fit, 1e8, 1e10, "m", "4")
        rhs = predict_loss(fit, 0.5e8, 1e10, "whatever", "FP")
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_direct_formula(self):
        fit = _fit_stub({("m", "4"): 0.8})
        expected = 1.0 / (1e8 * 0.8) ** 0.5 + 2.0 / (1e10) ** 0.3 + 1.5
        assert predict_loss(fit, 1e8, 1e10, "m", "4") == pytest.approx(expected, rel=1e-15)

    def test_unknown_group_raises(self):
        with pytest.raises(KeyError):
            predict_loss(_fit_stub(), 1e8, 1e10, "mystery", "4")

    def test_fp_always_available(self):
        assert predict_loss(_fit_stub(), 1e8, 1e10, "anything", "FP") > 0


class TestFitRoundTrips:
    def test_noiseless_exact_interpolation(self):
        # prior off: the generator parameters interpolate exactly
        fit = fit_scaling(_synth(0, noise=0.0), prior_weight=0.0)
        assert fit.residual_rms < 1e-6

    def test_noisy_recovery_within_tolerances(self):
        for seed in range(5):
            fit = fit_scaling(_synth(seed))
            for key, truth in TRUE.items():
                assert abs(getattr(fit, key) / truth - 1.0) <= 0.10, (seed, key)
            for key, truth in GROUPS.items():
                if key[1] == "FP":
                    continue
                assert abs(fit.eff[key] - truth) <= 0.05, (seed, key)

    def test_better_method_gets_higher_eff(self):
        # paired synthetic sets: same precision label, uniformly lower losses
        groups = {("fp", "FP"): 1.0, ("strong", "4"): 0.9, ("weak", "4"): 0.45}
        data = synthesize_scaling_data(**TRUE, eff_by_group=groups, noise=0.003, rng=make_rng(77))
        strong = {(r.N, r.D): r.loss for r in data if r.method == "strong"}
        weak = {(r.N, r.D): r.loss for r in data if r.method == "weak"}
        assert all(strong[k] < weak[k] for k in strong)  # uniformly lower losses
        fit = fit_scaling(data)
        assert fit.eff[("strong", "4")] >= fit.eff[("weak", "4")]

    def test_eff_fp_pinned_structurally(self):
        fit = fit_scaling(_synth(1))
        assert all(p != "FP" for (_, p) in fit.eff)
        assert predict_loss(fit, 100.0, 100.0, "new-method", "FP") > 0

    def test_eff_in_unit_interval(self):
        fit = fit_scaling(_synth(2))
        assert all(0.0 < v <= 1.0 for v in fit.eff.values())

    def test_order_invariance(self):
        data = _synth(3)
        fit_a = fit_scaling(data)
        rng = make_rng(99)
        for _ in range(100):
            shuffled = list(data)
            rng.shuffle(shuffled)
            fit_b = fit_scaling(shuffled, n_starts=2)
            fit_a2 = fit_scaling(data, n_starts=2)
            assert fit_b == fit_a2  # canonical sort makes this exact
        assert abs(fit_a.A - fit_scaling(list(reversed(data))).A) <= 1e-10

    def test_predict_fit_consistent_with_rms(self):
        data = _synth(4)
        fit = fit_scaling(data)
        resid = [
            np.log(predict_loss(fit, r.N, r.D, r.method, r.precision)) - np.log(r.loss)
            for r in data
        ]
        assert np.sqrt(np.mean(np.square(resid))) == pytest.approx(fit.residual_rms, rel=1e-9)

    def test_linear_residual_space_runs(self):
        fit = fit_scaling(_synth(5), residual_space="linear")
        assert fit.A > 0 and fit.alpha > 0


class TestValidation:
    def test_missing_fp_group(self):
        data = [r for r in _synth(0) if r.precision != "FP"]
        with pytest.raises(ValueError, match="FP"):
            fit_scaling(data)

    def test_single_n(self):
        rows = [
            ScalingDatum("m", "FP", 10.0, float(D), 2.0 + i * 0.1)
            for i, D in enumerate([1e2, 1e3, 1e4, 1e5])
        ]
        with pytest.raises(ValueError, match="distinct N"):
            fit_scaling(rows)

    def test_single_d(self):
        rows = [
            ScalingDatum("m", "FP", float(N), 100.0, 2.0 + i * 0.1)
            for i, N in enumerate([1e1, 1e2, 1e3, 1e4])
        ]
        with pytest.raises(ValueError, match="distinct D"):
            fit_scaling(rows)

    def test_small_group(self):
        data = _synth(0) + [ScalingDatum("solo", "4", 10.0, 100.0, 2.0)]
        with pytest.raises(ValueError, match="solo"):
            fit_scaling(data)

    def test_nonpositive_datum_rejected(self):
        with pytest.raises(ValueError):
            ScalingDatum("m", "FP", -1.0, 100.0, 2.0)
        with pytest.raises(ValueError):
            ScalingDatum("m", "FP", 10.0, 100.0, 0.0)
        # NaN and inf fail the checks too
        for N, D, loss in ((30.0, 1000.0, math.nan), (math.inf, 1000.0, 2.0), (30.0, math.nan, 2.0)):
            with pytest.raises(ValueError):
                ScalingDatum("fp", "FP", N, D, loss)

    def test_bad_residual_space(self):
        with pytest.raises(ValueError):
            fit_scaling(_synth(0), residual_space="huber")


def test_jacobian_matches_finite_differences():
    # the dense oracle J against central differences of the residuals, and
    # the normal equations, which never form J, against J^T J and J^T f
    data = _synth(6)
    for space in RESIDUAL_SPACES:
        residuals, normal_equations, groups, rows = build_residual_system(data, 1e-3, space)
        jacobian = scaling_jacobian(rows, groups, 1e-3, space)
        rng = make_rng(7)
        thetas = np.concatenate([rng.normal(0, 0.5, (5, 5)), rng.normal(0, 1.0, (5, len(groups)))], axis=1)
        f, terms = residuals(thetas)
        jtj, jtf = normal_equations(thetas, f, terms)
        for k, theta in enumerate(thetas):
            J = jacobian(theta)
            h = 1e-7
            for j in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                col_fd = (residuals(tp[None])[0][0] - residuals(tm[None])[0][0]) / (2 * h)
                scale = max(1.0, np.abs(J[:, j]).max())
                assert np.abs(J[:, j] - col_fd).max() <= 1e-6 * scale
            norms = np.linalg.norm(J, axis=0)
            assert np.all(np.abs(jtj[k] - J.T @ J) <= 1e-12 * np.outer(norms, norms))
            assert np.all(np.abs(jtf[k] - J.T @ f[k]) <= 1e-12 * norms * np.linalg.norm(f[k]))


def test_rejected_trial_step_does_not_warn():
    # a trial step with u_g far below 0 underflows eff_g to 0: the residual is
    # +inf on that group's rows, with no overflow or log-of-zero warning
    data = _synth(6)
    for space in RESIDUAL_SPACES:
        residuals, _, groups, rows = build_residual_system(data, 1e-3, space)
        theta = np.concatenate([np.zeros(5), np.ones(len(groups))])
        theta[5] = -1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = residuals(theta[None])[0][0]
        hit = np.array([(row.method, row.precision) == groups[0] for row in rows] + [False, False])
        assert hit.any() and np.all(r[hit] == np.inf) and np.isfinite(r[~hit]).all()


def test_overflowing_trial_step_is_rejected():
    # log A or log alpha past log(float max) = 709.78 overflows exp: the
    # trial point's cost is not finite, so LM rejects the step, and nothing
    # warns or raises OverflowError
    data = _synth(6)
    for space in RESIDUAL_SPACES:
        residuals, _, groups, rows = build_residual_system(data, 1e-3, space)
        for j in (0, 1):
            theta = np.concatenate([np.zeros(5), np.ones(len(groups))])
            theta[j] = 800.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                f = residuals(theta[None])[0][0]
                assert not np.isfinite(0.5 * (f @ f))
            assert np.isposinf(f).any()
            if j == 0:  # A = inf: every data point's prediction is +inf
                assert np.all(f[: len(rows)] == np.inf)


def test_lm_matches_scipy_on_criterion_7_data(monkeypatch):
    # the batched Levenberg-Marquardt and MINPACK's, through scipy and run
    # start by start, reach the same law on the five acceptance data sets
    pytest.importorskip("scipy.optimize")
    for seed in range(5):
        data = _synth(seed)
        ours = fit_scaling(data)
        _, _, groups, rows = build_residual_system(data, 1e-3, "log")
        jacobian = scaling_jacobian(rows, groups, 1e-3, "log")
        with monkeypatch.context() as m:
            m.setattr(sc, "least_squares", lambda fun, x0, jac, **kw: scipy_lm_per_start(fun, x0, jacobian, **kw))
            ref = fit_scaling(data)
        for key in TRUE:
            assert abs(getattr(ours, key) / getattr(ref, key) - 1.0) <= 1e-8, (seed, key)
        assert ours.eff.keys() == ref.eff.keys()
        for key, eff in ref.eff.items():
            assert abs(ours.eff[key] - eff) <= 1e-8, (seed, key)


def test_lm_rows_do_not_affect_each_other():
    # each start of a batch is bitwise its batch-of-one run: here one start is
    # not finite at x0 (failed on its own row and never stepped), one stops
    # at max_nfev and the rest converge first
    residuals, normal_equations, groups, _ = build_residual_system(_synth(0), 1e-3, "log")
    rng = make_rng(11)
    x0 = np.concatenate([rng.normal(0.0, 1.0, (6, 5)), rng.normal(1.0, 1.0, (6, len(groups)))], axis=1)
    x0[2, 5] = -1000.0
    kw = dict(jac=normal_equations, xtol=1e-10, ftol=1e-14, gtol=1e-14, max_nfev=15)
    batch = sc.least_squares(residuals, x0, **kw)
    assert batch.cost[2] == np.inf and batch.nfev[2] == 1 and np.array_equal(batch.x[2], x0[2])
    assert np.isfinite(np.delete(batch.cost, 2)).all()
    assert batch.nfev.tolist() == [10, 10, 1, 15, 9, 9]
    for j in range(len(x0)):
        alone = sc.least_squares(residuals, x0[j : j + 1], **kw)
        for name in ("x", "fun", "cost", "nfev"):
            assert getattr(batch, name)[j].tobytes() == getattr(alone, name)[0].tobytes(), (j, name)


class TestIo:
    def test_csv_roundtrip(self, tmp_path):
        data = _synth(8)
        path = tmp_path / "losses.csv"
        write_scaling_csv(path, data)
        back = read_scaling_csv(path)
        assert back == data

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match=":1"):
            read_scaling_csv(path)

    def test_csv_bad_row_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,P,N,D,loss\nm,FP,10,100,2.0\nm,FP,abc,100,2.0\n")
        with pytest.raises(ValueError, match=":3"):
            read_scaling_csv(path)

    def test_csv_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,P,N,D,loss\nm,FP,10,100\n")
        with pytest.raises(ValueError, match=":2"):
            read_scaling_csv(path)

    def test_fit_json_document(self):
        data = _synth(9)
        fit = fit_scaling(data)
        doc = json.loads(json.dumps(fit_to_json_dict(fit, data)))
        assert set(doc) == {"A", "alpha", "B", "beta", "E", "eff", "residual_rms", "residuals"}
        assert len(doc["residuals"]) == len(data)
        assert [e["method"] for e in doc["eff"]] == sorted(e["method"] for e in doc["eff"])
        # round-trippable doubles
        assert doc["A"] == fit.A

    def test_json_dict_predictions_match(self):
        data = _synth(9)
        fit = fit_scaling(data)
        doc = fit_to_json_dict(fit, data)
        row = doc["residuals"][0]
        assert row["predicted"] == pytest.approx(
            predict_loss(fit, row["N"], row["D"], row["method"], row["P"]), rel=1e-15
        )
