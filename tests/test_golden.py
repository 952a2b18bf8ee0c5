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
        "clip_factors.tsv": "51fc49a2af157607d1a57dcb9608a2e10b5c82e0a3acbfdcb5a9c7ddddc0a422",
        "summary.json": "f10bdd97eff33151ce23c14120729976b2389ea305f1268bbcf76e8af40dd228",
    },
    "fit-scaling": {
        "summary.json": "88ee38b2840e1e4d121d600b317c943799bf2fbcafe1e6ba1aa0a88350203fe1",
    },
    "quadratic-int-hadamard": {
        "summary.json": "b00586540325e1415b4fc0dd01acd4eb436aefbd6831d47564c02933ba511874",
        "trace_kappa100_adamw_seed0.csv": "9fc07c59d2471cd4e3b8465a5607c443c70e39d58a89f5db401a7640f8bb0d68",
        "trace_kappa100_cage-adamw-dec_seed0.csv": "af374a76f2b26067c51a9b4f3add806b93a82266f5d209b0d6991af04b8ff6e8",
        "trace_kappa100_cage-sgd_seed0.csv": "16994fafbd41ecedc1c09261c15c5877cf1e40a032adc90b29c1518c849e2337",
        "trace_kappa1_adamw_seed0.csv": "c7a1e2d3a45a194e4222a8a5d7b1537d12d8811c166f6d208dcd64db8e976d64",
        "trace_kappa1_cage-adamw-dec_seed0.csv": "a4433fd50fd6ef29f0a42b71a6c1328d5aa1892dff5ac60a5406778796e80f95",
        "trace_kappa1_cage-sgd_seed0.csv": "b238c73786441ee548b7f2e7e447b30d10d3077fa78504e360e98d607221783f",
        "traj_kappa100_adamw_seed0.csv": "28c91863bb6f354f9c2797d6d95d45898798377b8d65ad9ac1c6c5632d52b01e",
        "traj_kappa100_cage-adamw-dec_seed0.csv": "f3e4dd7ec53655430bee47d5e6b6b7410a2b1b97703b393aa72b7be0abd56432",
        "traj_kappa100_cage-sgd_seed0.csv": "f5a9792c0f1fcb6922472b64daeedcca15de7ea25372c3ba6d236b282d5b9a4d",
        "traj_kappa1_adamw_seed0.csv": "c648592845f854c270cac3fd291301e38380b102c5e7fa53c4ad67e787a3efe7",
        "traj_kappa1_cage-adamw-dec_seed0.csv": "589b0d84a601cae11e91b90c6cfc356620e4259967e444a750361d5f6ae743fd",
        "traj_kappa1_cage-sgd_seed0.csv": "a436e037aa817f392be15d394159afca0694d916e93b5ed2f80c773278600375",
    },
    "quadratic-int-plain": {
        "summary.json": "6c4a77118dacb946f141a3453b6b648f42e27c950f086ab73f0bbc10ad273c39",
        "trace_kappa10_adamw_seed2.csv": "45ccc1786ce4008b0a30a246c09b620ddbfb564a12c89d54389aee68e11d52bc",
        "trace_kappa10_cage-adamw-cpl_seed2.csv": "f9fe23bfe4460066854488197d42f9d350a72bd2918cb8a51b1080042dc98621",
        "traj_kappa10_adamw_seed2.csv": "c284874079d6f68d69c928359597cc69940f082c94316e6de2a8864b5dda5aea",
        "traj_kappa10_cage-adamw-cpl_seed2.csv": "e4b42af9b29fc7c4494ba8c8b0f9f89a8a5f9bf5547adca496466aba18ac69ba",
    },
    "convergence-floor": {
        "summary.json": "4c2d92bd9c19fea94b6cacddc192de15427f804aad7313862ae31a71d0ba69f1",
        "trace_T2000_seed0.csv": "a79bafc90459b8fa701a5a8c2789b45abbdacda8a44523094cc8590813b0c99a",
        "trace_T200_seed0.csv": "2827a1811011de276e268e90ed0d42503332e504d37924403f8f9249444da372",
        "trace_T20_seed0.csv": "776a5d9a601808de3c25d5e777f8ed77ea0f62498b58ce53d7bc51c7d74e1f8f",
    },
    "convergence-quadratic-int": {
        "summary.json": "0f0d9d9d5ab2c788eecc018d4d00cd2d9334fcef26e4e7893fa3e76038ce707d",
        "trace_T500_seed0.csv": "15b832a9914ee4b14ddbc59a5a57224f8ea4adcccb045aa75ac008bd5e88c1d8",
        "trace_T5_seed0.csv": "88a545eb4c6e33312121105e2cbfa1b99b2591a972ed7ee1280f91d7ef721e71",
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
    # the Gaussian clip quadratures under the bounded Brent search
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
