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
        "clip_factors.tsv": "73a72027556946cffd972f618466ec8f654a2482dfae5dbd550cd61d5270b834",
        "summary.json": "e5e253c4e0f1841517137866fc87e020dee29681538852e7ec7ffe07e9c11b0b",
    },
    "fit-scaling": {
        "summary.json": "3f96800711f039ca211b028822cd0521d6d9e736e801678386541ffe2f9f2aaf",
    },
    "quadratic-int-hadamard": {
        "summary.json": "22fee2f910ea24405926f85f2c8a37f9609711ed3ca26d2fdb221a94dd0e042d",
        "trace_kappa100_adamw_seed0.csv": "9e7af6660c13793dca73894ec4d6a51527d3856b4afc8dfcb029938f8a148c66",
        "trace_kappa100_cage-adamw-dec_seed0.csv": "56d3651f401334c2dbd9af8a613681c49f8c0afdf6ae73e71135f438f9102854",
        "trace_kappa100_cage-sgd_seed0.csv": "51f41ddd4edfb5688cdb47a82c280ce9dda02cf073b2dd0843c8d2e2a18b8f8e",
        "trace_kappa1_adamw_seed0.csv": "5f55d5df894978ec876383b948f2a40f60f3cf7890f08de359b1ccfffc9e7803",
        "trace_kappa1_cage-adamw-dec_seed0.csv": "3cff04f49a44358eeb23c49d8615789a1626ce2a8f4b09d32ac9ec3fa82100eb",
        "trace_kappa1_cage-sgd_seed0.csv": "96630036e14ca6a8305b4bf7885e6c70b0081dbbc8e27c5515dc42a8c3bb4b45",
        "traj_kappa100_adamw_seed0.csv": "c73eeb85549cce28449bf7b84cd0f89a55b9e4cfae1468cf050628e116213967",
        "traj_kappa100_cage-adamw-dec_seed0.csv": "ac3fedb0e6ea78c9fd680fbbafd683eff51af4ee4f5316bfdd8f32da63246a72",
        "traj_kappa100_cage-sgd_seed0.csv": "49e901395f31d59b4259f27bd5f7c51fc99713f029137b861ae6e05e1ebde756",
        "traj_kappa1_adamw_seed0.csv": "b2dda0a367b79f751c6f16d0a51381967a10de307479def48b46fc47e48755f0",
        "traj_kappa1_cage-adamw-dec_seed0.csv": "30716e85378fd9cded0ee51f4b48a2df99d4ccbabacd7980c582655cecebd229",
        "traj_kappa1_cage-sgd_seed0.csv": "8bbe0c4eea5fbc1c14edf158009c1dc5dc8db7562abd7cd8e0b31adfee82c0ee",
    },
    "quadratic-int-plain": {
        "summary.json": "a945e0ad2a52c9c80d173c40beaf5a7e82c196d2aa558527d66154dce601036f",
        "trace_kappa10_adamw_seed2.csv": "7f43cbd7fcded65c459eec12da5d7f8e7a248054908ad59c0912478f68f62738",
        "trace_kappa10_cage-adamw-cpl_seed2.csv": "bf6f165869d5a94e6c87f9b002760c621ee7605b205078abba2b5f2684c0cde6",
        "traj_kappa10_adamw_seed2.csv": "e4627af74b20123a63d8d55cecc35ddfdc942894726b759ac607ef38bb1189ed",
        "traj_kappa10_cage-adamw-cpl_seed2.csv": "971895992465b94c800be2ef824b9f1749c05e8c8bc795366f3db2df9616ad6f",
    },
    "convergence-floor": {
        "summary.json": "4c2d92bd9c19fea94b6cacddc192de15427f804aad7313862ae31a71d0ba69f1",
        "trace_T2000_seed0.csv": "a79bafc90459b8fa701a5a8c2789b45abbdacda8a44523094cc8590813b0c99a",
        "trace_T200_seed0.csv": "2827a1811011de276e268e90ed0d42503332e504d37924403f8f9249444da372",
        "trace_T20_seed0.csv": "776a5d9a601808de3c25d5e777f8ed77ea0f62498b58ce53d7bc51c7d74e1f8f",
    },
    "convergence-quadratic-int": {
        "summary.json": "529964cebf31d9a58811cd3b64389e77528afa8641ce610144f3d0d37375eebd",
        "trace_T500_seed0.csv": "c2f04d58a6feacb02a60531f6e8ac17e8c1e53b540691c81300ec9b827bdfd9b",
        "trace_T5_seed0.csv": "025962bb9e0f0ad8a3e8f4188e3f0d253fe687265453cc962c60e0ea3eaae055",
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
