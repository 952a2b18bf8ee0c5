"""Golden corpus: sha256 digests of small CLI runs.

The determinism tests compare a rerun with itself, so a refactor that moves a
single float would still pass them.  These digests were recorded once and pin
the bytes of ``summary.json`` and every CSV a run writes; a change that is
meant to alter outputs must update them and say by how much the floats moved.
"""

import dataclasses
import hashlib

import pytest

import qatkit.cli
from qatkit.cli import main

GOLDEN = {
    "quadratic-int-hadamard": {
        "summary.json": "1c270114bd02e443893fb3fb874d2b792aeaf38c4edb1b412d2e3f6b57338c72",
        "trace_kappa100_adamw_seed0.csv": "9e7af6660c13793dca73894ec4d6a51527d3856b4afc8dfcb029938f8a148c66",
        "trace_kappa100_cage-adamw-dec_seed0.csv": "56d3651f401334c2dbd9af8a613681c49f8c0afdf6ae73e71135f438f9102854",
        "trace_kappa100_cage-sgd_seed0.csv": "51f41ddd4edfb5688cdb47a82c280ce9dda02cf073b2dd0843c8d2e2a18b8f8e",
        "trace_kappa1_adamw_seed0.csv": "5f55d5df894978ec876383b948f2a40f60f3cf7890f08de359b1ccfffc9e7803",
        "trace_kappa1_cage-adamw-dec_seed0.csv": "3cff04f49a44358eeb23c49d8615789a1626ce2a8f4b09d32ac9ec3fa82100eb",
        "trace_kappa1_cage-sgd_seed0.csv": "96630036e14ca6a8305b4bf7885e6c70b0081dbbc8e27c5515dc42a8c3bb4b45",
        "traj_kappa100_adamw_seed0.csv": "01b4d81dea38c4b062cbc705d4970899cce9a182da3ea1405d4dc71df259fd9d",
        "traj_kappa100_cage-adamw-dec_seed0.csv": "6305dbd9b840f174677c04bd30a50e9aa8864f82b32b0d4541bfe6307235c215",
        "traj_kappa100_cage-sgd_seed0.csv": "9d1baa9304424f72a76fbc927844f71c152b7438951fb2274f54d8071a354cc7",
        "traj_kappa1_adamw_seed0.csv": "da9cd253de0574f09715f56999f1fa2a81ddb750e7f42dd904cd0e7836ff21e1",
        "traj_kappa1_cage-adamw-dec_seed0.csv": "892c15ead92fb107c7596904b884ee1ddd1f2f3242f2f21b0e8ea5e3476eecc8",
        "traj_kappa1_cage-sgd_seed0.csv": "f73b2ce7592dc09e555d7b6d169d8156bc7d668149509876d2a10cc5f3703606",
    },
    "quadratic-int-plain-rows": {
        "summary.json": "99c915b3a2418affad0986d144dee14ec060e97461770910a3ec05c18c245bee",
        "trace_kappa10_adamw_seed2.csv": "a01a15e738d8d5d2f96dee061d91d0bee86d6a7178c9ec61a4a657aacadcf78d",
        "trace_kappa10_cage-adamw-cpl_seed2.csv": "0724e8101cf5e20bff7b509ce526b531d3a2a0803286d94f6e9b25def4f0e3cf",
        "traj_kappa10_adamw_seed2.csv": "72caeb92a3533c4c710a755824de070fea170ed84407004868cc4f9f03279060",
        "traj_kappa10_cage-adamw-cpl_seed2.csv": "1cbd0e75cbf035d728653ffdc14988c408530211ee8407227e89b5414d0294cc",
    },
    "convergence-floor": {
        "summary.json": "4c2d92bd9c19fea94b6cacddc192de15427f804aad7313862ae31a71d0ba69f1",
        "trace_T2000_seed0.csv": "a79bafc90459b8fa701a5a8c2789b45abbdacda8a44523094cc8590813b0c99a",
        "trace_T200_seed0.csv": "2827a1811011de276e268e90ed0d42503332e504d37924403f8f9249444da372",
        "trace_T20_seed0.csv": "776a5d9a601808de3c25d5e777f8ed77ea0f62498b58ce53d7bc51c7d74e1f8f",
    },
    "convergence-quadratic-int": {
        "summary.json": "03b5e7a4e33cfd2e83d7d011dc42dd357217aa4118692709e2c86a62d689a6f4",
        "trace_T500_seed0.csv": "c2f04d58a6feacb02a60531f6e8ac17e8c1e53b540691c81300ec9b827bdfd9b",
        "trace_T5_seed0.csv": "26e14c29db0ffac64166e064da1a812ca356a251b1a2ce654ca20ad5b1cbef82",
    },
    "quadratic-none": {
        "summary.json": "7f2a5f35c0df4d9297395643415691b5563837a73faa0b71735bfa0085c38393",
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
        "traj_kappa100_adamw_seed0.csv": "d2d494e6dab0076f7999d0b786d4cb99e121c3a90607205df31fec06ba72b297",
        "traj_kappa100_cage-adamw-cpl_seed0.csv": "d2d494e6dab0076f7999d0b786d4cb99e121c3a90607205df31fec06ba72b297",
        "traj_kappa100_cage-adamw-dec_seed0.csv": "d2d494e6dab0076f7999d0b786d4cb99e121c3a90607205df31fec06ba72b297",
        "traj_kappa100_cage-sgd_seed0.csv": "e5e861c7bef9a18d02602173e76e4c88d276631f473584cce142a8f5dcce591a",
        "traj_kappa100_sgd_seed0.csv": "e5e861c7bef9a18d02602173e76e4c88d276631f473584cce142a8f5dcce591a",
        "traj_kappa1_adamw_seed0.csv": "3fd330f1c905e1a1a683080cc5dc7ba63d80e89cc6f5179d73fd641baadfb4e4",
        "traj_kappa1_cage-adamw-cpl_seed0.csv": "3fd330f1c905e1a1a683080cc5dc7ba63d80e89cc6f5179d73fd641baadfb4e4",
        "traj_kappa1_cage-adamw-dec_seed0.csv": "3fd330f1c905e1a1a683080cc5dc7ba63d80e89cc6f5179d73fd641baadfb4e4",
        "traj_kappa1_cage-sgd_seed0.csv": "a0c122206f62e8a5ccae0a5e8ca43fcc6e5595b3a7a85a61600ce9681f6f4a47",
        "traj_kappa1_sgd_seed0.csv": "a0c122206f62e8a5ccae0a5e8ca43fcc6e5595b3a7a85a61600ce9681f6f4a47",
    },
    "convergence-quadratic-none": {
        "summary.json": "a4fc06ea543e4c31eb6bbac17427f5e626a8d94178d854da07b335d0ceea1928",
        "trace_T500_seed0.csv": "621b86adca5bf2029c7a0514c1244c8753da6ed440d7b52d802b5a7f65ee6210",
        "trace_T5_seed0.csv": "ebfa6a52893dddd1cc903daa445c59ae2d310d983fa21410939bea19cd1d4859",
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
    # run with row_length 8 patched into the spec: two rows per quantize call
    "quadratic-int-plain-rows": [
        "quadratic", "--kappas", "10", "--dim", "16", "--steps", "60",
        "--opt", "adamw,cage-adamw-cpl", "--quant", "int-plain:4", "--seed", "2",
    ],
    "convergence-floor": [
        "convergence", "--objective", "rosenbrock", "--dim", "4", "--quant", "floor-toy:0.25",
        "--steps", "20,200,2000", "--seed", "0,1",
    ],
    # the seed-batched rate lane through the int quantizer and the quadratic's
    # np.matvec / np.vecdot, recorded with the per-seed loop
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
}


def _digests(out):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
        if f.name == "summary.json" or f.suffix == ".csv"
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_digests(name, tmp_path, monkeypatch):
    if name == "quadratic-int-plain-rows":
        parse = qatkit.cli.parse_quant
        monkeypatch.setattr(qatkit.cli, "parse_quant", lambda v: dataclasses.replace(parse(v), row_length=8))
    out = tmp_path / name
    assert main(RUNS[name] + ["--out", str(out)]) == 0
    assert _digests(out) == GOLDEN[name]
