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
        "summary.json": "08815bd72aeff3693fcacb0c5952119ba742833c0ed1a0f2972f68e41d66d5c1",
        "trace_kappa100_adamw_seed0.csv": "f401a6fe103acb04e8275ac5839107f649f53e2610782f024275988572323825",
        "trace_kappa100_cage-adamw-dec_seed0.csv": "0c56f5136ad425ee2482864f7eddb2521ab8ab803dd55c632f35ccf679c6aa84",
        "trace_kappa100_cage-sgd_seed0.csv": "bb689e2db79be88b2e6abb4ce710fa7654cd8e47c52c1f80596c6c57bf7aa252",
        "trace_kappa1_adamw_seed0.csv": "0bfb8450b1e1d48e6231ff97e73e80445716d4bbb600a969147017e150754bac",
        "trace_kappa1_cage-adamw-dec_seed0.csv": "6340767961655da98a157892079b01ef1c3071273dbafc93cbdef610aafef123",
        "trace_kappa1_cage-sgd_seed0.csv": "92ee673f14c3f1051844aeff706673959b1fc6e8f825b67ffe8eb41ec3de1299",
        "traj_kappa100_adamw_seed0.csv": "a7ccd180546c5d7ea97b20e383fa2bc17582e53f5d8c0bb84efb0298894a2930",
        "traj_kappa100_cage-adamw-dec_seed0.csv": "ae36df9546270c3ed49756b8fcc16a55ce970cf9e371fb91c6afbca74ba1be9f",
        "traj_kappa100_cage-sgd_seed0.csv": "35ced5cb25e198ae41ed1e1ae047708347a8a757339266e767b46fc1cb1bac9e",
        "traj_kappa1_adamw_seed0.csv": "71e24adbd4e92baefc4af3c7d4dc2a475e300af626b918fb9dbff028329293ca",
        "traj_kappa1_cage-adamw-dec_seed0.csv": "e107e69dc38cb6027e7b6032dc554b0ffbe5703abf725276a38d8c80c947c61b",
        "traj_kappa1_cage-sgd_seed0.csv": "cbc9aada92f3141c0b92416c631ca79092c8ced59d44a533b34366c82eebc046",
    },
    "quadratic-int-plain-rows": {
        "summary.json": "b28d6aabadc5af9dc1820640e1e4cf67a76e7a6ae0d37c7dd84f32e64194bbe8",
        "trace_kappa10_adamw_seed2.csv": "5c4d772bca512e6311fdc9fc14b613dd7dab37b27a374e2b0c368e93341eeadd",
        "trace_kappa10_cage-adamw-cpl_seed2.csv": "54022b72a30e98f8233c3a9e647902239fa7b1df98eeaf448f78962944e7ecbe",
        "traj_kappa10_adamw_seed2.csv": "10e9e0a8af0c0fa7eda64b26945662230c8ee48483388b3120503f19ece577ce",
        "traj_kappa10_cage-adamw-cpl_seed2.csv": "c5946711359ccd8346051ba1ec323326cbb7a14e1d2215a7ad7e32c4a9660470",
    },
    "convergence-floor": {
        "summary.json": "4c2d92bd9c19fea94b6cacddc192de15427f804aad7313862ae31a71d0ba69f1",
        "trace_T2000_seed0.csv": "a79bafc90459b8fa701a5a8c2789b45abbdacda8a44523094cc8590813b0c99a",
        "trace_T200_seed0.csv": "2827a1811011de276e268e90ed0d42503332e504d37924403f8f9249444da372",
        "trace_T20_seed0.csv": "776a5d9a601808de3c25d5e777f8ed77ea0f62498b58ce53d7bc51c7d74e1f8f",
    },
    "convergence-quadratic-int": {
        "summary.json": "21aba25511ea51afa3ac8230e175748975a6a101f597bc7d6ae9495be1dc819b",
        "trace_T500_seed0.csv": "e54bac9ef9467b182e6ba955abf458901bb6a284dcb3cba1131f19081e9dc330",
        "trace_T5_seed0.csv": "c0628a11edaf4bfcbdbc9372fb9bb4fceccb4cd99cf312f26dc6fac73bcd20e4",
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
