"""Golden corpus: sha256 digests of small CLI runs.

The determinism tests compare a rerun with itself, so a refactor that moves a
single float would still pass them.  These digests were recorded once and pin
the bytes of ``summary.json`` and every CSV or TSV a run writes; a change that is
meant to alter outputs must update them and say by how much the floats moved.
"""

import hashlib

import pytest

from oracles import write_scaling_csv
from qatkit.cli import main
from qatkit.numerics import make_rng
from qatkit.scaling import synthesize_scaling_data

GOLDEN = {
    "calibrate-clip": {
        "clip_factors.tsv": "732c071dbed5647dc6dbc6ccd28da6c71a7f78b64e47c2bb0cc45a7379a69a2d",
        "summary.json": "b1d48c3d3db39c30966ba6a940b066ebc8c48e84691cdd4ac455a41705c165e0",
    },
    "fit-scaling": {
        "summary.json": "4ad84b8ea49166f45ab455af5215ab4a6538edfa2bb1671e0745e8eabeb52a65",
    },
    "quadratic-int-hadamard": {
        "summary.json": "82e3db882d857e2cb61a2212ca17fb696410379bd3382253d5c85087ff5173c6",
        "trace_kappa100_adamw_seed0.csv": "bcac57cf0b5dfab8d41ba1c747df21f6ddab9c7a6fe1d996fbc84fed7a29f2e4",
        "trace_kappa100_cage-adamw-dec_seed0.csv": "5850fe9aba19bd4488402d626de5d6990d56832c224fb12f070f44cc17d69926",
        "trace_kappa100_cage-sgd_seed0.csv": "1a0ffccc1138ada0f13176abd0f631a4d254407a64e16ac8798e9a5d9ee7cc3a",
        "trace_kappa1_adamw_seed0.csv": "1a1fe0896334659ee51de6f2bba151620d280cc449fa968dec56dd8b758e6451",
        "trace_kappa1_cage-adamw-dec_seed0.csv": "a85b865b30a5806735d3bbb7b289499f4a06b77e27f48aa0a58a97a807e96e53",
        "trace_kappa1_cage-sgd_seed0.csv": "de4be4296bab6890cc6947bfe62ad23e4b272ee208033e92f50bbdb2097a80a5",
        "traj_kappa100_adamw_seed0.csv": "e6b82eac444b534d95130ba0d640485e468e8c391f034b898cba361493e34d42",
        "traj_kappa100_cage-adamw-dec_seed0.csv": "fb3d6d5f7da74c899a952a84b9cabbc891f8d993c466ead28ef03da40040fa53",
        "traj_kappa100_cage-sgd_seed0.csv": "092e07099be7e1e6b35d92cb73f73ed493e32ade8c4949604f23f4b25d4e79bc",
        "traj_kappa1_adamw_seed0.csv": "6bc1a99258f3f5f70d5aae20febcdb7a51512058cfa42365ee45a0fbe7832e42",
        "traj_kappa1_cage-adamw-dec_seed0.csv": "0350d0c40a7b2054c325c24e23101c74ee9ff4aa553b22ef8356c99bfc734cc4",
        "traj_kappa1_cage-sgd_seed0.csv": "19a98841cb30afe7cda45c93fd35d39d72e6ace0d6cce0312a57b3e13a11b3c2",
    },
    "quadratic-int-plain": {
        "summary.json": "e9aa073647456bac4832907c0ae340be532d6fe8a82539bb2113d78297c2b353",
        "trace_kappa10_adamw_seed2.csv": "d52e0dd811e5fe3cb32c8211b76192feffd6acd82a97a105a1d261fe86207020",
        "trace_kappa10_cage-adamw-cpl_seed2.csv": "90c13926b4522e4b1ec00f5c0df409e17a1d45d0d839ab343696265dd55f044c",
        "traj_kappa10_adamw_seed2.csv": "425637526e9dbc482edd30b21ee8408ec87ba86014dece02e33d4620291ef019",
        "traj_kappa10_cage-adamw-cpl_seed2.csv": "d75a1fdec7a9aedcbfdd53d70e13e29603eeceb7f4b0bbc11928eb421e2cd411",
    },
    "convergence-floor": {
        "summary.json": "4c2d92bd9c19fea94b6cacddc192de15427f804aad7313862ae31a71d0ba69f1",
        "trace_T2000_seed0.csv": "a79bafc90459b8fa701a5a8c2789b45abbdacda8a44523094cc8590813b0c99a",
        "trace_T200_seed0.csv": "2827a1811011de276e268e90ed0d42503332e504d37924403f8f9249444da372",
        "trace_T20_seed0.csv": "776a5d9a601808de3c25d5e777f8ed77ea0f62498b58ce53d7bc51c7d74e1f8f",
    },
    "convergence-quadratic-int": {
        "summary.json": "ca228b6a2d147b3ab1c74780b04b977303479af0f0eb1e513fc697cdce878cb2",
        "trace_T500_seed0.csv": "43105bec8f38a3b5457aa904127c5281ace6d3c1dd9b49730ca5eb2a9a30078f",
        "trace_T5_seed0.csv": "7cf8f64cae45edcc7e975fac910a3555df5ed77ffa430e6570591774a29b1dbb",
    },
    "quadratic-none": {
        "summary.json": "49ddc681a9cb3c0ff211c31d46c4dd66f7d78f4abfe3adcb6bd9ece7a90f091e",
        "trace_kappa100_adamw_seed0.csv": "4129b6a3d6ca7473391389eed475ce482c5b5b00c11676599b0eda21c86801db",
        "trace_kappa100_cage-adamw-cpl_seed0.csv": "796619409ad25525765f31ceada811d2e585d5b604d13cf160db267bd14460be",
        "trace_kappa100_cage-adamw-dec_seed0.csv": "796619409ad25525765f31ceada811d2e585d5b604d13cf160db267bd14460be",
        "trace_kappa100_cage-sgd_seed0.csv": "12095cbaff8da108fe92db82c10cbcdbae0d0abff44875ed6bf356e4d2c711c6",
        "trace_kappa100_sgd_seed0.csv": "22adf972e04434c6feb50c1cb3f3f123eb2f67bf47a9f17141ba7ea1980a6728",
        "trace_kappa1_adamw_seed0.csv": "4e7738c224219779a19e8aa8e27fbc9f1b4b03cce0c4fe455d20ea57b222ec23",
        "trace_kappa1_cage-adamw-cpl_seed0.csv": "75992e1666cec26f0deae2c526fb30c9e433f24502536cc52db0e1d9e27abe69",
        "trace_kappa1_cage-adamw-dec_seed0.csv": "75992e1666cec26f0deae2c526fb30c9e433f24502536cc52db0e1d9e27abe69",
        "trace_kappa1_cage-sgd_seed0.csv": "c13976e2e962ede24d80e89d1411eb2255f6ed888c2271fb0beca0690d1a0b22",
        "trace_kappa1_sgd_seed0.csv": "752160b86b5b6cdf64e9ba23fbf07245c58f87c705d450a8cd51bc1e6be9d875",
        "traj_kappa100_adamw_seed0.csv": "6e9bfe4083931c564d089030925981fcf7522b98d64df32a33458a943595fbf1",
        "traj_kappa100_cage-adamw-cpl_seed0.csv": "6e9bfe4083931c564d089030925981fcf7522b98d64df32a33458a943595fbf1",
        "traj_kappa100_cage-adamw-dec_seed0.csv": "6e9bfe4083931c564d089030925981fcf7522b98d64df32a33458a943595fbf1",
        "traj_kappa100_cage-sgd_seed0.csv": "e56db8d6f53b688011536c8f85feb83f6b7b0f0865601495372c0b08ad8613ba",
        "traj_kappa100_sgd_seed0.csv": "e56db8d6f53b688011536c8f85feb83f6b7b0f0865601495372c0b08ad8613ba",
        "traj_kappa1_adamw_seed0.csv": "00f88de1b34af1fddffe0e2a46429bd31bfa625c9a9690bdc801f564201de7d1",
        "traj_kappa1_cage-adamw-cpl_seed0.csv": "00f88de1b34af1fddffe0e2a46429bd31bfa625c9a9690bdc801f564201de7d1",
        "traj_kappa1_cage-adamw-dec_seed0.csv": "00f88de1b34af1fddffe0e2a46429bd31bfa625c9a9690bdc801f564201de7d1",
        "traj_kappa1_cage-sgd_seed0.csv": "b5521c93bb09870d76a146fea959c61174d145b4c1c2edf3aafbe65a5d7947db",
        "traj_kappa1_sgd_seed0.csv": "b5521c93bb09870d76a146fea959c61174d145b4c1c2edf3aafbe65a5d7947db",
    },
    "convergence-quadratic-none": {
        "summary.json": "b09de3a25b4027122cdb99495d0d4a5f8d5864492584b817c95a07bb330c48a8",
        "trace_T500_seed0.csv": "621b86adca5bf2029c7a0514c1244c8753da6ed440d7b52d802b5a7f65ee6210",
        "trace_T5_seed0.csv": "a6ad846cb2c7208023f3ea90d83b082ae58f664db3701c0dab6382cc24eb031c",
    },
    "toy-pareto": {
        "summary.json": "221a5b76f019080f5064c9426aab235bcc54df28e143439dd8972ad1af042fd8",
        "trace_lambda0.5.csv": "94a0deb7e6726480ec629bc74ff3ca2a9d3841cb7e0e24d4a28c24b861f3d31f",
        "trace_lambda3.csv": "7c4862071965807a8c8cac27d288bac15dacee062d495800151aeeed48c691ad",
    },
}

RUNS = {
    # dim 12 pads each transform to 16; trust-masked STE is the lane default
    "quadratic-int-hadamard": [
        "quadratic", "--kappas", "1,100", "--dim", "12", "--steps", "60",
        "--opt", "adamw,cage-adamw-dec,cage-sgd", "--quant", "int-hadamard:4",
        "--ste", "trust-masked", "--seed", "0,1",
    ],
    # the int grid without the transform, through coupled AdamW
    "quadratic-int-plain": [
        "quadratic", "--kappas", "10", "--dim", "16", "--steps", "60",
        "--opt", "adamw,cage-adamw-cpl", "--quant", "int-plain:4", "--seed", "2",
    ],
    "convergence-floor": [
        "convergence", "--objective", "rosenbrock", "--dim", "4", "--quant", "floor-toy:0.25",
        "--steps", "20,200,2000", "--seed", "0,1",
    ],
    # the seed-batched rate lane through the int quantizer and the quadratic's
    # np.matvec / np.vecdot, with L = kappa (alpha = 1/10 at T = 5)
    "convergence-quadratic-int": [
        "convergence", "--objective", "quadratic", "--dim", "8", "--quant", "int-hadamard:4",
        "--steps", "5,500", "--seed", "0,1,2",
    ],
    # the identity quantizer through every optimizer: e = 0, so each cage
    # variant steps as its base
    "quadratic-none": [
        "quadratic", "--kappas", "1,100", "--dim", "12", "--steps", "60",
        "--opt", "sgd,adamw,cage-sgd,cage-adamw-dec,cage-adamw-cpl", "--quant", "none",
        "--weight-decay", "0.1", "--silence-ratio", "0.5", "--seed", "0,1",
    ],
    "convergence-quadratic-none": [
        "convergence", "--objective", "quadratic", "--dim", "8", "--quant", "none",
        "--steps", "5,500", "--seed", "0,1,2",
    ],
    # the balance-point lane: one scalar through the floor quantizer and the
    # corrected-SGD loop the rate lane runs
    "toy-pareto": ["toy-pareto", "--lambdas", "0.5,3", "--steps", "300"],
    # the closed-form Gaussian clip MSE at the root of its slope
    "calibrate-clip": ["calibrate-clip", "--bits", "2,3"],
    # the multi-start law fit; None stands for the CSV of _scaling_input
    "fit-scaling": ["fit-scaling", "--input", None],
}


def _scaling_input(path):
    """A small fit-scaling input: one FP and one 4-bit group on the synthetic grid."""
    data = synthesize_scaling_data(
        A=0.8, alpha=0.34, B=1.5, beta=0.28, E=1.2,
        eff_by_group={("fp16", "FP"): 1.0, ("m4", "4"): 0.7},
        noise=0.005, rng=make_rng((21, 0)),
    )
    write_scaling_csv(path, data)
    return str(path)


def _digests(out):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
        if f.name == "summary.json" or f.suffix in (".csv", ".tsv")
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_digests(name, tmp_path):
    argv = [_scaling_input(tmp_path / "losses.csv") if a is None else a for a in RUNS[name]]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert _digests(out) == GOLDEN[name]
