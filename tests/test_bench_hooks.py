"""The benchmark's layer tracer (``bench/tracing.py``) patches qatkit by module
and attribute name.  These tests build it against the package as it is, so a
renamed module or function shows here rather than as a broken ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import qatkit.cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(tracing):
    return {layer: dict(vars(importlib.import_module(f"qatkit.{layer}"))) for layer in tracing.LAYERS}


def test_install_then_uninstall_restores_every_attribute(tracing):
    before = namespaces(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = namespaces(tracing)
    finally:
        tracer.uninstall()
    patched = {
        (layer, name) for layer, names in before.items() for name, value in names.items()
        if installed[layer][name] is not value
    }
    # the crossings the per-layer metrics are built from
    assert {
        ("cli", "run_toy_pareto"), ("cli", "write_trace_csv"), ("experiments", "quantize"),
        ("experiments", "balance_sq_norm"), ("experiments", "toy_scalar"),
    } <= patched
    after = namespaces(tracing)
    assert after.keys() == before.keys()
    for layer, names in before.items():
        assert after[layer].keys() == names.keys()
        assert all(after[layer][name] is value for name, value in names.items()), layer


def test_traced_job_feeds_the_layer_metrics(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["toy-pareto", "--lambdas", "1", "--steps", "5", "--out", str(tmp_path / "run")]
        assert tracer.call_root(qatkit.cli.main, argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics(1.0, 0)
    assert metrics["experiments.steps"] == 5
    assert metrics["quantize.calls"] == 6  # one per step, one at the final iterate
    assert metrics["objectives.evals"] >= 5
    assert metrics["pareto.csv_bytes"] == (tmp_path / "run" / "trace_lambda1.csv").stat().st_size


@pytest.mark.parametrize("quant", ["int-hadamard:4", "mxfp4"])
def test_traced_quadratic_job_counts_quantizer_rows(tracing, tmp_path, quant):
    # the tracer's row count reads QuantSpec.block_size and .row_length, and
    # books one row per call on these batches
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = [
            "quadratic", "--kappas", "1,10", "--dim", "8", "--steps", "4", "--opt", "adamw,cage-sgd",
            "--quant", quant, "--out", str(tmp_path / "run"),
        ]
        assert tracer.call_root(qatkit.cli.main, argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics(1.0, 0)
    assert metrics["quantize.calls"] > 0
    assert metrics["quantize.rows"] == metrics["quantize.calls"]
