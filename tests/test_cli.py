import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qatkit.cli
from oracles import write_scaling_csv
from qatkit.cli import load_config_file, main, parse_quant
from qatkit.numerics import make_rng
from qatkit.quantize import QuantSpec, read_clip_table
from qatkit.scaling import synthesize_scaling_data


def run_cli(*args):
    return main(list(args))


def write_fp_only_csv(path):
    """A valid fit-scaling input: one full-precision group on a 3 x 3 grid."""
    path.write_text(
        "method,P,N,D,loss\n"
        + "\n".join(f"m,FP,{n},{d},{2.0 + 0.8 / n ** 0.3 + 1.5 / d ** 0.3}"
                    for n in (10, 100, 1000) for d in (100, 1000, 10000))
        + "\n"
    )
    return path


def write_synth_csv(path):
    """A fit-scaling input from known law parameters: FP, 4-bit and 2-bit groups."""
    data = synthesize_scaling_data(
        A=0.8, alpha=0.34, B=1.5, beta=0.28, E=1.2,
        eff_by_group={("fp16", "FP"): 1.0, ("m4", "4"): 0.7, ("m2", "2"): 0.5},
        noise=0.005, rng=make_rng((500, 0)),
    )
    write_scaling_csv(path, data)
    return path


class TestParseQuant:
    def test_none(self):
        assert parse_quant("none") == QuantSpec(scheme="none")

    def test_int_schemes(self):
        spec = parse_quant("int-hadamard:4")
        assert spec.scheme == "int-hadamard" and spec.bits == 4 and spec.clip_factor > 0
        assert parse_quant("int-plain:3").bits == 3

    def test_floor_with_grid(self):
        spec = parse_quant("floor-toy:0.25")
        assert spec.scheme == "floor-toy" and spec.grid == 0.25

    def test_mxfp4(self):
        assert parse_quant("mxfp4").scheme == "mxfp4"

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            parse_quant("int-hadamard")  # missing bits
        with pytest.raises(ValueError):
            parse_quant("foo:4")


class TestCalibrateClip:
    def test_three_row_monotone_table(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert run_cli("calibrate-clip", "--bits", "2,3,4", "--out", str(out)) == 0
        table = read_clip_table(out / "clip_factors.tsv")
        assert list(table) == [2, 3, 4]
        ks = [table[b][0] for b in (2, 3, 4)]
        assert ks[0] < ks[1] < ks[2]
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_rerun_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("calibrate-clip", "--bits", "3", "--out", str(out)) == 0
        assert (out1 / "clip_factors.tsv").read_bytes() == (out2 / "clip_factors.tsv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_packaged_table_is_a_fresh_calibration(self, tmp_path):
        out = tmp_path / "cal"
        assert run_cli("calibrate-clip", "--bits", "2,3,4,5,6,7,8", "--out", str(out)) == 0
        packaged = Path(qatkit.cli.__file__).parent / "data" / "clip_factors.tsv"
        assert (out / "clip_factors.tsv").read_bytes() == packaged.read_bytes()

    def test_out_of_range_bits_rejected(self, tmp_path, capsys):
        assert run_cli("calibrate-clip", "--bits", "9", "--out", str(tmp_path / "x")) == 2
        assert "range" in capsys.readouterr().err


class TestToyPareto:
    def test_balance_points(self, tmp_path):
        out = tmp_path / "toy"
        code = run_cli("toy-pareto", "--lambdas", "1,3", "--alpha", "0.05",
                       "--steps", "5000", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        by_lam = {r["lambda"]: r for r in summary["results"]}
        assert abs(by_lam[1.0]["final_x"] - 0.25) <= 1e-6
        assert abs(by_lam[3.0]["final_x"] - 0.125) <= 1e-6
        assert by_lam[1.0]["pareto_grad_abs"] <= 1e-8
        assert by_lam[1.0]["ste_grad_abs"] >= 0.499
        # per-lambda traces with header + one row per step
        trace = (out / "trace_lambda1.csv").read_text().strip().splitlines()
        assert len(trace) == 5001

    def test_lambda_zero_drifts_to_half(self, tmp_path):
        out = tmp_path / "toy0"
        assert run_cli("toy-pareto", "--lambdas", "0", "--alpha", "0.05",
                       "--steps", "4000", "--out", str(out)) == 0
        res = json.loads((out / "summary.json").read_text())["results"][0]
        # plain descent settles at the unquantized minimum with a
        # straight-through residual that never vanishes
        assert abs(res["final_x"] - 0.5) <= 1e-6
        assert res["ste_grad_abs"] >= 0.499

    def test_determinism_and_roundtrip_floats(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("toy-pareto", "--lambdas", "0.5", "--steps", "500",
                           "--out", str(out)) == 0
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1]
        from qatkit.experiments import run_toy_pareto

        res = run_toy_pareto(0.5, lr=0.05, steps=500)
        doc = json.loads(outs[0])
        assert doc["results"][0]["final_x"] == res.final_x  # exact round trip

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mid_run_failure_names_step_and_lambda(self, tmp_path, capsys):
        # at alpha 1e300 the first step takes x = 0.9 to -4e299, whose loss
        # and next step overflow; the message names the first lambda, and no
        # seed index, since the toy lane runs one point
        out = tmp_path / "blowup"
        code = run_cli("toy-pareto", "--lambdas", "0,1", "--alpha", "1e300", "--steps", "50", "--out", str(out))
        assert code == 3
        assert sorted(f.name for f in out.iterdir()) == ["config.json"]
        assert capsys.readouterr().err == (
            "numerical failure: non-finite value during corrected-SGD run at step 2, lambda 0\n"
        )


class TestQuadratic:
    @pytest.mark.filterwarnings("ignore:zero-variance data")
    def test_sanity_lane_unquantized_sgd(self, tmp_path):
        # kappa = 1: SGD at the optimal step size contracts to the minimizer
        out = tmp_path / "quad"
        code = run_cli(
            "quadratic", "--kappas", "1", "--dim", "16", "--steps", "200",
            "--opt", "sgd", "--quant", "none", "--lr", "1.0", "--seed", "0,1",
            "--grad-clip", "0", "--out", str(out),
        )
        assert code == 0
        cells = json.loads((out / "summary.json").read_text())["cells"]
        assert cells[0]["mean_final_gap"] < 1e-10

    def test_trajectory_csv_shape(self, tmp_path):
        out = tmp_path / "quad2"
        code = run_cli(
            "quadratic", "--kappas", "10", "--dim", "8", "--steps", "50",
            "--opt", "adamw", "--quant", "int-hadamard:4", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        text = (out / "traj_kappa10_adamw_seed3.csv").read_text()
        assert "np.float64" not in text
        traj = text.strip().splitlines()
        assert traj[0] == "pc1,pc2"
        assert len(traj) == 51  # header + one row per step
        assert all(len([float(v) for v in row.split(",")]) == 2 for row in traj[1:])
        trace = (out / "trace_kappa10_adamw_seed3.csv").read_text().strip().splitlines()
        assert len(trace) == 51

    def test_unknown_optimizer_rejected(self, tmp_path, capsys):
        assert run_cli("quadratic", "--opt", "prodigy", "--out", str(tmp_path / "x")) == 2
        assert "prodigy" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exit_code_with_snapshot(self, tmp_path):
        out = tmp_path / "blowup"
        code = run_cli(
            "quadratic", "--kappas", "1", "--dim", "8", "--steps", "50",
            "--opt", "sgd", "--quant", "none", "--lr", "1e200", "--seed", "0",
            "--grad-clip", "0", "--out", str(out),
        )
        assert code == 3
        # the config snapshot was written before the run started
        assert (out / "config.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_rerun_leaves_no_stale_summary(self, tmp_path):
        # summary.json exists only when the run of the config.json beside it finished
        out = tmp_path / "rerun"
        argv = [
            "quadratic", "--kappas", "1", "--dim", "4", "--steps", "5", "--opt", "sgd",
            "--quant", "none", "--grad-clip", "0", "--out", str(out),
        ]
        assert run_cli(*argv) == 0 and (out / "summary.json").exists()
        assert run_cli(*argv, "--lr", "1e200") == 3
        assert json.loads((out / "config.json").read_text())["lr"] == 1e200
        assert not (out / "summary.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_names_the_optimizer(self, tmp_path, capsys):
        # the optimizers of a kappa stop together; the message says which diverged
        out = tmp_path / "blowup"
        code = run_cli(
            "quadratic", "--kappas", "1", "--dim", "8", "--steps", "50",
            "--opt", "adamw,sgd", "--quant", "none", "--lr", "1e200", "--seed", "0",
            "--grad-clip", "0", "--out", str(out),
        )
        assert code == 3
        assert (out / "config.json").exists() and not (out / "summary.json").exists()
        assert "sgd" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mid_run_failure_names_step_seed_and_kappa(self, tmp_path, capsys):
        # sgd at lr 1e10 grows by about 1e10 a step and overflows first in
        # the fourth seed's row; adamw's normalised steps stay finite
        out = tmp_path / "blowup"
        code = run_cli(
            "quadratic", "--kappas", "10", "--dim", "8", "--steps", "50",
            "--opt", "sgd,adamw", "--quant", "none", "--lr", "1e10", "--seed", "0,1,2,3",
            "--grad-clip", "0", "--out", str(out),
        )
        assert code == 3
        assert not (out / "summary.json").exists()
        assert capsys.readouterr().err.strip().endswith(
            "non-finite value during quadratic run (sgd) at step 15, seed index 3, kappa 10"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_in_a_stacked_kappa_names_that_kappa(self, tmp_path, capsys):
        # kappas 1 and 10 step as one chunk; at lr 1.5 sgd contracts at kappa
        # 1 (A = I) and grows by up to 14 a step at kappa 10, where seed 10's
        # row (seed index 1 of kappa 10, row 3 of the stack) overflows first
        assert qatkit.cli._kappa_chunks([1.0, 10.0], 8, 2, 2, 200) == [[1.0, 10.0]]
        out = tmp_path / "blowup"
        code = run_cli(
            "quadratic", "--kappas", "1,10", "--dim", "8", "--steps", "200",
            "--opt", "adamw,sgd", "--quant", "none", "--lr", "1.5", "--seed", "7,10",
            "--grad-clip", "0", "--out", str(out),
        )
        assert code == 3
        # the failure stops every kappa of its chunk, so no kappa wrote a file
        assert sorted(f.name for f in out.iterdir()) == ["config.json"]
        assert capsys.readouterr().err.strip().endswith(
            "non-finite value during quadratic run (sgd) at step 135, seed index 1, kappa 10"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_in_a_shared_prefix_names_every_member(self, tmp_path, capsys):
        # through the silence period adamw and cage-adamw-dec step as one
        # row; its overflow at step 2 names both, as when each had its own row
        out = tmp_path / "blowup"
        code = run_cli(
            "quadratic", "--opt", "adamw,cage-adamw-dec", "--quant", "none", "--lr", "1e200",
            "--grad-clip", "0", "--out", str(out),
        )
        assert code == 3
        assert capsys.readouterr().err.strip().endswith(
            "numerical failure: non-finite value during quadratic run (adamw, cage-adamw-dec) "
            "at step 2, seed index 0, kappa 1"
        )

    def test_quantizer_failure_names_step_seed_optimizers_and_kappa(self, tmp_path, capsys):
        # as in the stacked-kappa case above, sgd grows by up to 14 a step at
        # kappa 10, and its x / grid passes the float max at step 9 in seed
        # 10's row; at lam 0 cage-sgd is sgd, so the message names both, with
        # the quantizer's own text first
        out = tmp_path / "blowup"
        code = run_cli(
            "quadratic", "--kappas", "1,10", "--dim", "8", "--steps", "200",
            "--opt", "adamw,sgd,cage-sgd", "--lambda", "0", "--quant", "floor-toy:1e-300",
            "--lr", "1.5", "--seed", "7,10", "--grad-clip", "0", "--out", str(out),
        )
        assert code == 3
        assert sorted(f.name for f in out.iterdir()) == ["config.json"]
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure: floor-toy grid point past the float max: max |x| = ")
        assert err.endswith(
            "on grid 1e-300 during quadratic run (sgd, cage-sgd) at step 9, seed index 1, kappa 10"
        )

    def test_kappa_chunks_follow_the_byte_budget(self):
        # (kappas, dim, seeds, optimizers, steps): a bench quadratic-mxfp4
        # kappa (a 2 MiB matrix and two 4 MB trajectories) exceeds the budget
        # alone, so its kappas run one at a time; the bench quadratic-int4
        # and criterion 5 kappas stack whole, and a longer list is cut in order
        chunks = qatkit.cli._kappa_chunks
        kappas = [1.0, 10.0, 100.0]
        assert chunks(kappas, 512, 1, 2, 1000) == [[1.0], [10.0], [100.0]]
        assert chunks(kappas, 64, 2, 2, 300) == [kappas]
        assert chunks(kappas, 64, 10, 2, 2000) == [kappas]
        assert chunks(list(range(1, 8)), 64, 10, 2, 2000) == [[1, 2, 3], [4, 5, 6], [7]]

    def test_chunking_does_not_change_the_run_directory(self, tmp_path, monkeypatch):
        # every kappa in one chunk, then each kappa a chunk of its own: the
        # same files with the same bytes
        argv = [
            "quadratic", "--kappas", "1,10,100", "--dim", "8", "--steps", "40",
            "--opt", "cage-sgd,adamw,cage-adamw-cpl", "--seed", "3,1",
        ]
        outs = []
        for budget in (qatkit.cli._CHUNK_BYTES, 1):
            monkeypatch.setattr(qatkit.cli, "_CHUNK_BYTES", budget)
            out = tmp_path / f"budget{budget}"
            assert run_cli(*argv, "--out", str(out)) == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir() if f.name != "config.json"})
        assert len(outs[0]) == 1 + 2 * 3 * 3
        assert outs[0] == outs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            # sigma0 N(0, 1) overflows to inf, which the first quantize would reject
            ["quadratic", "--kappas", "1", "--dim", "2", "--steps", "2", "--sigma0", "1e308"],
            # the iterates stay finite, but their centred covariance overflows in the PCA
            [
                "quadratic", "--kappas", "1", "--dim", "5", "--steps", "3", "--quant", "floor-toy:0.25",
                "--lr", "0.5", "--lambda", "1e308", "--weight-decay", "0", "--ste", "identity",
            ],
            # the decayed point of cage-adamw-dec's correction overflows once lam_t > 0
            ["quadratic", "--dim", "3", "--steps", "2", "--lr", "1e308", "--weight-decay", "0.5"],
            ["convergence", "--quant", "int-hadamard:4", "--x0-std", "1.7e308", "--steps", "10,1000"],
        ],
        ids=[
            "quadratic-init-overflow",
            "quadratic-pca-covariance-overflow",
            "quadratic-decayed-point-overflow",
            "conv-init-overflow",
        ],
    )
    def test_overflow_is_a_numerical_failure(self, argv, tmp_path, capsys):
        out = tmp_path / "blowup"
        assert run_cli(*argv, "--out", str(out)) == 3
        assert (out / "config.json").exists() and not (out / "summary.json").exists()
        assert "numerical failure" in capsys.readouterr().err


class TestConvergence:
    def test_quadratic_lane_monotone_means(self, tmp_path):
        out = tmp_path / "conv"
        code = run_cli(
            "convergence", "--objective", "quadratic", "--dim", "6", "--kappa", "5",
            "--quant", "none", "--lambda", "0", "--noise-std", "0",
            "--steps", "100,1000,10000", "--seed", "0,1", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        means = [h["seed_mean"] for h in doc["per_horizon"]]
        assert means[0] > means[1] > means[2]

    def test_alpha_rule(self, tmp_path):
        out = tmp_path / "conv2"
        code = run_cli(
            "convergence", "--objective", "quadratic", "--dim", "4", "--kappa", "2",
            "--quant", "floor-toy:0.25", "--lambda", "1", "--noise-std", "0.05",
            "--steps", "100,1000,10000", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        lhat = doc["lipschitz"]
        for h in doc["per_horizon"]:
            assert h["alpha"] == min(1.0 / lhat, 1.0 / np.sqrt(h["T"]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mid_run_failure_names_step_seed_and_horizon(self, tmp_path, capsys):
        # Rosenbrock from a wide init at lr 1/200: the fourth seed's iterate
        # overflows first, nine steps into the run
        out = tmp_path / "blowup"
        code = run_cli(
            "convergence", "--objective", "rosenbrock", "--dim", "4", "--quant", "none",
            "--lambda", "0", "--noise-std", "0", "--lipschitz", "200", "--x0-std", "0.5",
            "--steps", "100", "--seed", "0,1,2,3", "--out", str(out),
        )
        assert code == 3
        assert not (out / "summary.json").exists()
        assert capsys.readouterr().err.strip().endswith(
            "non-finite value during corrected-SGD run at step 9, seed index 3, horizon 100"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_init_failure_names_seed_and_horizon(self, tmp_path, capsys):
        # x0-std 1e308 times a normal draw overflows wherever |z| > 1.8:
        # seed 0's draw stays finite, seed 1's is the first to overflow
        out = tmp_path / "blowup"
        code = run_cli(
            "convergence", "--x0-std", "1e308", "--seed", "0,1,2,3", "--dim", "10", "--steps", "5",
            "--out", str(out),
        )
        assert code == 3
        assert not (out / "summary.json").exists()
        assert capsys.readouterr().err.strip().endswith("non-finite initial point, seed index 1, horizon 5")

    def test_floor_toy_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # at grid 1e-300 an init of scale 1e10 has x / grid past the float
        # max: the quantizer's named error, with the step, seed and horizon,
        # exits 3, with no warning first
        out = tmp_path / "overflow"
        code = run_cli(
            "convergence", "--quant", "floor-toy:1e-300", "--x0-std", "1e10", "--steps", "5",
            "--out", str(out),
        )
        assert code == 3
        assert not (out / "summary.json").exists()
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure: floor-toy grid point past the float max: max |x| = ")
        assert err.endswith("during corrected-SGD run at step 1, seed index 0, horizon 5")

    def test_horizon_span_validated(self, tmp_path, capsys):
        assert run_cli("convergence", "--steps", "100,1000", "--out", str(tmp_path / "x")) == 2
        assert "decades" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        blobs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            assert run_cli(
                "convergence", "--objective", "rosenbrock", "--dim", "4",
                "--quant", "floor-toy:0.25", "--steps", "50,500,5000",
                "--seed", "0,1", "--out", str(out),
            ) == 0
            blobs.append((out / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]


def test_quadratic_determinism(tmp_path):
    blobs = []
    for name in ("q1", "q2"):
        out = tmp_path / name
        assert run_cli(
            "quadratic", "--kappas", "10", "--dim", "8", "--steps", "100",
            "--opt", "adamw,cage-adamw-dec", "--seed", "0,1", "--out", str(out),
        ) == 0
        blobs.append((out / "summary.json").read_bytes())
    assert blobs[0] == blobs[1]


class TestFitScaling:
    @pytest.fixture()
    def synth_csv(self, tmp_path):
        return write_synth_csv(tmp_path / "losses.csv")

    def test_recovery_via_cli(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "fit"
        assert run_cli("fit-scaling", "--input", str(synth_csv), "--out", str(out)) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert abs(doc["A"] / 0.8 - 1) <= 0.10
        assert abs(doc["alpha"] / 0.34 - 1) <= 0.10
        effs = {(e["method"], e["P"]): e["eff"] for e in doc["eff"]}
        assert abs(effs[("m4", "4")] - 0.7) <= 0.05
        assert abs(effs[("m2", "2")] - 0.5) <= 0.05
        printed = capsys.readouterr().out
        assert "residual_rms" in printed and "m2" in printed

    def test_fp_only_file(self, tmp_path):
        path = write_fp_only_csv(tmp_path / "fp.csv")
        out = tmp_path / "fit"
        assert run_cli("fit-scaling", "--input", str(path), "--out", str(out)) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["eff"] == []  # no fitted groups; FP is pinned at 1

    def test_missing_fp_group_rejected(self, tmp_path, capsys):
        path = tmp_path / "nofp.csv"
        path.write_text(
            "method,P,N,D,loss\n"
            + "\n".join(f"m,4,{n},{d},2.5\nm2,4,{n},{d},2.6" for n in (10, 100) for d in (100, 1000))
            + "\n"
        )
        assert run_cli("fit-scaling", "--input", str(path), "--out", str(tmp_path / "f")) == 2
        assert "FP" in capsys.readouterr().err
        assert not (tmp_path / "f" / "config.json").exists()

    def test_malformed_csv_line_number(self, tmp_path, capsys):
        # a NaN or inf size or loss is as malformed as a word
        for bad in ("m,FP,oops,100,2.0", "fp,FP,30,1000,nan", "fp,FP,inf,1000,2.0"):
            path = tmp_path / "bad.csv"
            path.write_text(f"method,P,N,D,loss\nm,FP,10,100,2.0\n{bad}\n")
            out = tmp_path / "f"
            assert run_cli("fit-scaling", "--input", str(path), "--out", str(out)) == 2
            assert f"{path}:3" in capsys.readouterr().err
            assert not (out / "config.json").exists()

    def test_non_utf8_input_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("method,P,N,D,loss\nm\u00e9,FP,10,100,2.0\n".encode("latin-1"))
        out = tmp_path / "f"
        assert run_cli("fit-scaling", "--input", str(path), "--out", str(out)) == 2
        assert str(path) in capsys.readouterr().err
        assert not (out / "config.json").exists()

    def test_missing_input_flag(self, tmp_path, capsys):
        assert run_cli("fit-scaling", "--out", str(tmp_path / "f")) == 2
        assert "input" in capsys.readouterr().err

    def test_determinism(self, tmp_path, synth_csv):
        blobs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            assert run_cli("fit-scaling", "--input", str(synth_csv), "--out", str(out)) == 0
            blobs.append((out / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_config_loads_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("# toy settings\nlambdas = 1\nalpha = 0.05\nsteps = 400\n")
        out = tmp_path / "toy"
        assert run_cli("toy-pareto", "--config", str(cfg), "--steps", "600", "--out", str(out)) == 0
        snap = json.loads((out / "config.json").read_text())
        assert snap["steps"] == 600  # CLI wins
        assert snap["alpha"] == 0.05  # config supplies the rest
        assert snap["lambdas"] == [1.0]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lambdas = 1\nwarp_factor = 9\n")
        assert run_cli("toy-pareto", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert "warp_factor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, line",
        [
            ("quadratic", "lr = nan"),
            ("quadratic", "kappas = 10,10"),
            ("toy-pareto", "steps = 0"),
            ("calibrate-clip", "quadrature = 100001"),
            ("quadratic", "lr_schedule = constant"),
            ("fit-scaling", "residual_space = log"),
        ],
    )
    def test_bad_value_from_file_rejected_before_snapshot(self, tmp_path, capsys, subcommand, line):
        # a file value passes the same checks as the flag it stands for, and
        # a key with no flag, such as the old quadrature resolution, lr
        # schedule or residual space, is unknown
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "run"
        assert run_cli(subcommand, "--config", str(cfg), "--out", str(out)) == 2
        assert not (out / "config.json").exists()
        assert line.split(" =")[0] in capsys.readouterr().err

    def test_repeated_key_rejected_before_snapshot(self, tmp_path, capsys):
        # a key given twice is an error, not its last value
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("# settings\nlr = 0.1\nlr = 0.2\n")
        out = tmp_path / "run"
        assert run_cli("quadratic", "--config", str(cfg), "--out", str(out)) == 2
        assert not (out / "config.json").exists()
        err = capsys.readouterr().err
        assert "'lr'" in err and f"{cfg}:3" in err

    def test_non_utf8_file_rejected_before_snapshot(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("steps = 50 # \u00e9t\u00e9\n".encode("latin-1"))
        out = tmp_path / "run"
        assert run_cli("toy-pareto", "--config", str(cfg), "--out", str(out)) == 2
        assert not (out / "config.json").exists()
        assert str(cfg) in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lambdas 1\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config_file(cfg)

    def test_snapshot_written_before_results(self, tmp_path):
        out = tmp_path / "snap"
        assert run_cli("toy-pareto", "--lambdas", "1", "--steps", "50", "--out", str(out)) == 0
        snap = json.loads((out / "config.json").read_text())
        assert snap["subcommand"] == "toy-pareto"
        assert snap["out"] == str(out)


# each subcommand at tiny settings, with the files its run directory holds
# besides config.json and summary.json; None stands for a valid input CSV
RUN_FILES = [
    (["calibrate-clip", "--bits", "3"], {"clip_factors.tsv"}),
    (["toy-pareto", "--lambdas", "0.5,2", "--steps", "5"], {"trace_lambda0.5.csv", "trace_lambda2.csv"}),
    (
        ["quadratic", "--kappas", "2,10", "--dim", "4", "--steps", "5", "--opt", "sgd,adamw", "--seed", "1,2"],
        {f"{kind}_kappa{k}_{opt}_seed1.csv" for kind in ("trace", "traj") for k in (2, 10) for opt in ("sgd", "adamw")},
    ),
    (
        ["convergence", "--objective", "quadratic", "--dim", "2", "--steps", "5,500", "--seed", "3,4"],
        {"trace_T5_seed3.csv", "trace_T500_seed3.csv"},
    ),
    (["fit-scaling", "--input", None], set()),
]


@pytest.mark.parametrize("argv, extra", RUN_FILES, ids=[argv[0] for argv, _ in RUN_FILES])
def test_run_directory_contents(argv, extra, tmp_path):
    argv = [str(write_fp_only_csv(tmp_path / "losses.csv")) if a is None else a for a in argv]
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert {f.name for f in out.iterdir()} == {"config.json", "summary.json"} | extra


# one run of each subcommand: quadratic's draw and PCA and the rate lane's
# quadratic at dim 512, where OpenBLAS splits its work across threads
THREAD_RUNS = {
    "quadratic": [
        "quadratic", "--kappas", "10", "--dim", "512", "--steps", "20", "--opt", "adamw,cage-adamw-cpl",
        "--quant", "mxfp4", "--seed", "0",
    ],
    "convergence": [
        "convergence", "--objective", "quadratic", "--dim", "512", "--quant", "int-hadamard:4",
        "--steps", "5,500", "--seed", "0,1",
    ],
    "toy-pareto": ["toy-pareto", "--lambdas", "0.5,2", "--steps", "50"],
    "calibrate-clip": ["calibrate-clip", "--bits", "2,3"],
    "fit-scaling": ["fit-scaling", "--input", None],
}
RUN_ALL = "import json, sys\nfrom qatkit.cli import main\nsys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"


def test_run_directory_does_not_depend_on_blas_threads(tmp_path):
    # x* from the drawn eigenbasis and the PCA by subspace iteration give the
    # same bits at one and two OpenBLAS threads, so every file of each run
    # but config.json (which records --out) is byte-identical; one child
    # process per thread count runs all five subcommands
    csv_path = str(write_synth_csv(tmp_path / "losses.csv"))
    outs = []
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        runs = [
            [csv_path if a is None else a for a in argv] + ["--out", str(root / name)]
            for name, argv in THREAD_RUNS.items()
        ]
        proc = subprocess.run(
            [sys.executable, "-c", RUN_ALL, json.dumps(runs)],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append({
            f"{name}/{f.name}": f.read_bytes()
            for name in THREAD_RUNS for f in sorted((root / name).iterdir()) if f.name != "config.json"
        })
    assert sorted(outs[0]) == [
        "calibrate-clip/clip_factors.tsv", "calibrate-clip/summary.json",
        "convergence/summary.json", "convergence/trace_T500_seed0.csv", "convergence/trace_T5_seed0.csv",
        "fit-scaling/summary.json",
        "quadratic/summary.json",
        "quadratic/trace_kappa10_adamw_seed0.csv", "quadratic/trace_kappa10_cage-adamw-cpl_seed0.csv",
        "quadratic/traj_kappa10_adamw_seed0.csv", "quadratic/traj_kappa10_cage-adamw-cpl_seed0.csv",
        "toy-pareto/summary.json", "toy-pareto/trace_lambda0.5.csv", "toy-pareto/trace_lambda2.csv",
    ]
    assert outs[0] == outs[1]


def test_module_entrypoint_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qatkit", "toy-pareto", "--lambdas", "2",
         "--steps", "100", "--out", str(tmp_path / "m")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "lambda=2" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["quadratic", "--dim", "1", "--steps", "20"],
        ["quadratic", "--dim", "8", "--steps", "1"],
        ["toy-pareto", "--steps", "0"],
        ["convergence", "--steps", "0,100,1000"],
        ["convergence", "--steps=-5,100,1000"],
        ["convergence", "--steps", "0"],
        ["quadratic", "--kappas", "0.5"],
        ["convergence", "--objective", "quadratic", "--kappa", "0.5"],
        ["convergence", "--objective", "rosenbrock", "--dim", "1"],
        ["quadratic", "--ste", "foo"],
        ["quadratic", "--steps", "20,40"],
        ["toy-pareto", "--steps", "50,60"],
        ["convergence", "--noise-std=-0.1"],
        ["convergence", "--lambda=-1"],
        ["quadratic", "--lr=-1"],
        ["quadratic", "--silence-ratio", "1.5"],
        ["convergence", "--lipschitz", "0"],
        ["quadratic", "--quant", "int-hadamard:four"],
        ["convergence", "--quant", "floor-toy:0"],
        ["convergence", "--quant", "mxfp4:7", "--steps", "10,1000"],
        ["convergence", "--quant", "floor-toy:0.25:9"],
        ["fit-scaling", "--starts", "0"],
        ["fit-scaling", "--prior-weight=-1"],
        ["fit-scaling", "--prior-weight", "nan"],
        ["fit-scaling", "--fit-seed=-1"],
        ["toy-pareto", "--alpha", "0"],
        ["toy-pareto", "--alpha=-0.1"],
        ["toy-pareto", "--alpha", "nan"],
        ["toy-pareto", "--alpha", "inf"],
        ["toy-pareto", "--lambdas", "1,nan"],
        ["quadratic", "--lr", "nan"],
        ["quadratic", "--weight-decay", "nan"],
        ["quadratic", "--lambda", "nan"],
        ["quadratic", "--silence-ratio", "nan"],
        ["quadratic", "--grad-clip", "nan"],
        ["quadratic", "--sigma0", "nan"],
        ["convergence", "--x0-std", "nan"],
        ["convergence", "--noise-std", "inf"],
        ["quadratic", "--kappas", "1,inf"],
        ["toy-pareto", "--x0", "nan"],
        ["calibrate-clip", "--bits", ","],
        ["toy-pareto", "--lambdas", ","],
        ["quadratic", "--kappas", ","],
        ["quadratic", "--opt", ","],
        ["quadratic", "--seed", "0,0"],
        ["quadratic", "--kappas", "10,10"],
        ["quadratic", "--opt", "adamw,adamw"],
        ["convergence", "--seed", "1,1"],
        ["convergence", "--steps", "10,10,1000"],
        ["toy-pareto", "--lambdas", "1,1"],
        ["calibrate-clip", "--bits", "3,3"],
        ["quadratic", "--seed=-1"],
        ["toy-pareto", "--lambdas", "0.1234567,0.1234568"],
        ["quadratic", "--kappas", "10.0000001,10.0000002"],
        ["quadratic", "--kappas", "1e18", "--dim", "8"],
        ["convergence", "--objective", "quadratic", "--kappa", "1e18"],
    ],
    ids=[
        "quadratic-dim1", "quadratic-steps1", "toy-steps0", "conv-zero", "conv-negative", "conv-single-zero",
        "quadratic-kappa-below-1", "conv-quadratic-kappa-below-1", "conv-rosenbrock-dim1",
        "quadratic-unknown-ste", "quadratic-steps-list", "toy-steps-list", "conv-negative-noise",
        "conv-negative-lambda", "quadratic-negative-lr",
        "quadratic-silence-above-1", "conv-lipschitz0", "quant-bad-bits",
        "quant-zero-grid", "quant-mxfp4-field", "quant-floor-toy-extra-field", "fit-starts0", "fit-negative-prior",
        "fit-nan-prior", "fit-negative-seed", "toy-alpha0", "toy-negative-alpha", "toy-nan-alpha",
        "toy-inf-alpha", "toy-nan-lambda", "quadratic-nan-lr", "quadratic-nan-weight-decay",
        "quadratic-nan-lambda", "quadratic-nan-silence", "quadratic-nan-grad-clip",
        "quadratic-nan-sigma0", "conv-nan-x0-std", "conv-inf-noise", "quadratic-inf-kappa",
        "toy-nan-x0", "calibrate-empty-bits", "toy-empty-lambdas", "quadratic-empty-kappas",
        "quadratic-empty-opt", "quadratic-duplicate-seed", "quadratic-duplicate-kappa",
        "quadratic-duplicate-opt", "conv-duplicate-seed", "conv-duplicate-horizon", "toy-duplicate-lambda",
        "calibrate-duplicate-bits", "quadratic-negative-seed", "toy-same-lambda-file",
        "quadratic-same-kappa-file", "quadratic-kappa-past-float64", "conv-quadratic-kappa-past-float64",
    ],
)
def test_bad_settings_rejected_before_snapshot(argv, tmp_path, capsys):
    if argv[0] == "fit-scaling":
        # a valid input, so that only the bad setting can stop the run
        argv = [*argv, "--input", str(write_fp_only_csv(tmp_path / "losses.csv"))]
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert not (out / "config.json").exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["quadratic", "--lr-schedule", "constant"], ["fit-scaling", "--residual-space", "log"]],
    ids=["quadratic-lr-schedule", "fit-residual-space"],
)
def test_removed_flag_is_rejected_by_argparse(argv, tmp_path, capsys):
    # every quadratic step takes the constant lr and the fit minimizes log
    # residuals, so their old flags are unknown: argparse exits 2 before
    # anything is written
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 2
    assert not (out / "config.json").exists()
    assert argv[1] in capsys.readouterr().err


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # exit 2 means a bad setting; a ValueError raised inside a lane is a bug
    # and must surface as one
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(qatkit.cli, "run_toy_pareto", broken)
    with pytest.raises(ValueError, match="internal"):
        run_cli("toy-pareto", "--steps", "5", "--out", str(tmp_path / "run"))


def test_internal_fit_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # the fit settings and the input are checked before config.json; a
    # ValueError from inside the fit is a bug
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(qatkit.cli, "fit_scaling", broken)
    path = write_fp_only_csv(tmp_path / "losses.csv")
    with pytest.raises(ValueError, match="internal"):
        run_cli("fit-scaling", "--input", str(path), "--out", str(tmp_path / "run"))
