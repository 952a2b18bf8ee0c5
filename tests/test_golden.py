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
        "summary.json": "2acfc4c3bd19933daee768286a85359c8e6812fa85da97674de7b631047214b6",
        "trace_kappa100_adamw_seed0.csv": "464513b0cf77dc6bb76ec9d873dfb17998a92551d17c0ca7bf10dd2f49362bfb",
        "trace_kappa100_cage-adamw-dec_seed0.csv": "165eb653cb398581ee4160ffc043b103780ef90aad1d075ba73c1cef57cd6df2",
        "trace_kappa100_cage-sgd_seed0.csv": "f7494d2cb5dc2167d9f7cba6bd5f8bab63da9e5afe6943c523fdc9ab69e32e1f",
        "trace_kappa1_adamw_seed0.csv": "5fe61cb65374f043ec6f0076671f4ebf6fbfa33c0889403728f769fad1873cb5",
        "trace_kappa1_cage-adamw-dec_seed0.csv": "9fb0a2793f716a3a310a24a6051cbae26da4cf4b6529fe6b0e69b60157f36623",
        "trace_kappa1_cage-sgd_seed0.csv": "bfe8f42ca066c293e3707396d0d976faa9db5955d40542b4af9d0f87a55d9f35",
        "traj_kappa100_adamw_seed0.csv": "b0d5f12e3b24aec1ecbb5bae0ff77550b6c46cf9b7a1e7292d2b24ab3cc1fa33",
        "traj_kappa100_cage-adamw-dec_seed0.csv": "871d9f69e280130de5688e69489fb5abb83e0f98ab0be74c5239860d8b1fcfbb",
        "traj_kappa100_cage-sgd_seed0.csv": "9f8e0c88a42dd58500ce67c06e230c58e5819e4fd76760646fb4303788f3c695",
        "traj_kappa1_adamw_seed0.csv": "2a29d1b6afdad3f2ecffad4aa616e4c5cf7eac8b141ebd432953a0497652a627",
        "traj_kappa1_cage-adamw-dec_seed0.csv": "e64de9cbf5b98801e2420c6006fbf675870eaade211164eafe97d673cbc594bb",
        "traj_kappa1_cage-sgd_seed0.csv": "a546369b2d88239e8ee3372988e816bbfa4812c8eb8ea70d0a72791073dbb281",
    },
    "quadratic-int-plain-rows": {
        "summary.json": "e5604fbdf2486d1dcf9bead09c4225385c460ace438e7966e3b3df557d3646df",
        "trace_kappa10_adamw_seed2.csv": "28cc58f8e3a1ecdb9e9e21e234a3d53060ce66a1c930daab6eb0f04fb057a912",
        "trace_kappa10_cage-adamw-cpl_seed2.csv": "6f6b479ffe544fb5d3029f1b435bd03224ace0d089f8005ad1b2a2e8c9957230",
        "traj_kappa10_adamw_seed2.csv": "12210385677af7316b802334bd8d07746248fdfd39246a3c33e567e140da5e42",
        "traj_kappa10_cage-adamw-cpl_seed2.csv": "0305594af66786d4f88792fbe02c217b90d7fd15ac2e0d9ae0369f2bf0f692f0",
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
        "summary.json": "ccf0d53f51d2b29a6edac0953484292d5a49a1a367bb256e3f090b13861eb6e4",
        "trace_kappa100_adamw_seed0.csv": "6eba4c2529c1684ba1bf61a7f830587a68e349c77687301eedd724d510735339",
        "trace_kappa100_cage-adamw-cpl_seed0.csv": "35b8bd91a951ab880e76cd3e95819c0262a9b243c5ab21344596bf2c6f089022",
        "trace_kappa100_cage-adamw-dec_seed0.csv": "35b8bd91a951ab880e76cd3e95819c0262a9b243c5ab21344596bf2c6f089022",
        "trace_kappa100_cage-sgd_seed0.csv": "d3f78c56d3f3a4749de610ed3a86a1d01b5b289bdafd50df5905872bc1b252b5",
        "trace_kappa100_sgd_seed0.csv": "fc9d0a26cdb21f3e6caf5b3a2218728ab90a2df51d2b3c1311d86fcdccbd8056",
        "trace_kappa1_adamw_seed0.csv": "13844d75aec46ab002251b9181cc17945268cf01c283165f6b493c87d815ac6f",
        "trace_kappa1_cage-adamw-cpl_seed0.csv": "da780dfc0b711054b67f38f9860304033165e9078d7c1bdbe135b88768064279",
        "trace_kappa1_cage-adamw-dec_seed0.csv": "da780dfc0b711054b67f38f9860304033165e9078d7c1bdbe135b88768064279",
        "trace_kappa1_cage-sgd_seed0.csv": "723021ad695c84d4db7bc106db2e1643989900364d35c6f2538bcfc6f4d97779",
        "trace_kappa1_sgd_seed0.csv": "e09a8a188dcb92eb553be509d80c940e54ab5f5a35fcee7c986bce1ce2d90c75",
        "traj_kappa100_adamw_seed0.csv": "911067b3605b8bcf6c927e60dcf37551e59f6847608e18b2505cd08127a204f2",
        "traj_kappa100_cage-adamw-cpl_seed0.csv": "911067b3605b8bcf6c927e60dcf37551e59f6847608e18b2505cd08127a204f2",
        "traj_kappa100_cage-adamw-dec_seed0.csv": "911067b3605b8bcf6c927e60dcf37551e59f6847608e18b2505cd08127a204f2",
        "traj_kappa100_cage-sgd_seed0.csv": "5275d9fd50002ec838542031b85c91c8b781542064043b95e6a45d10aaedcf45",
        "traj_kappa100_sgd_seed0.csv": "5275d9fd50002ec838542031b85c91c8b781542064043b95e6a45d10aaedcf45",
        "traj_kappa1_adamw_seed0.csv": "57e4fad87676fc3985f44b889a3b0a2caae86e20ad90df37b22a3d155aa34da7",
        "traj_kappa1_cage-adamw-cpl_seed0.csv": "57e4fad87676fc3985f44b889a3b0a2caae86e20ad90df37b22a3d155aa34da7",
        "traj_kappa1_cage-adamw-dec_seed0.csv": "57e4fad87676fc3985f44b889a3b0a2caae86e20ad90df37b22a3d155aa34da7",
        "traj_kappa1_cage-sgd_seed0.csv": "c56004c027712d32c6c8a7561e194637edd9b308ab51e0a1bf3d6e525f8c64a7",
        "traj_kappa1_sgd_seed0.csv": "c56004c027712d32c6c8a7561e194637edd9b308ab51e0a1bf3d6e525f8c64a7",
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
    # variant steps as its base; recorded when no quantizer was a separate path
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
