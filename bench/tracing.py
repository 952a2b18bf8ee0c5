"""Outside-in tracing of qatkit's layers, installed from the benchmark only.

Each qatkit module is a layer.  Every function that one layer imports from
another is replaced, in the importing module's namespace, by a wrapper that
records one span per call.  That is one span per crossing of a layer
boundary: calls inside a module (``quantize`` -> ``_quantize_int_single``, or
``hadamard_forward`` -> ``fwht_unnormalized``) stay unwrapped, so nothing is
counted twice.  Three crossings need more than a function wrapper:

* objective factories: the returned ``Objective`` gets a traced ``eval_fn``,
  one span per evaluation (``objectives.eval``);
* ``ParetoMeasure`` in ``experiments``: a subclass with a traced ``record``;
* ``least_squares`` in ``scaling`` and ``gaussian_clip_mse`` inside
  ``quantize``: counters only (no span), for the residual/Jacobian and MSE
  evaluation counts.

Nothing under ``src/`` changes: ``install`` patches module attributes and
``uninstall`` restores the originals, so untraced passes run the plain code.
Spans are kept in memory in flat arrays and written out by ``write_spans``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import os
from array import array
from time import perf_counter

LAYERS = (
    "numerics",
    "transform",
    "quantize",
    "qat_grad",
    "optim",
    "objectives",
    "pareto",
    "scaling",
    "experiments",
    "cli",
)

# the per-step quantizer entry points; calibration and table IO are not rows
_ROW_FUNCS = ("quantize.quantize", "quantize.quant_error")
_TRANSFORM_FUNCS = ("transform.hadamard_forward", "transform.hadamard_inverse")
_STEP_ARGS = {"run_quadratic": (3, "steps"), "run_convergence_run": (4, "horizon"), "run_toy_pareto": (2, "steps")}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _quantized_rows(spec, x) -> int:
    """Rows one quantizer call processes: int rows, mxfp4 blocks, or 1 floor call."""
    n = len(x)
    if spec.scheme == "mxfp4":
        return max(1, -(-n // spec.block_size))
    if spec.scheme == "floor-toy" or spec.row_length is None:
        return 1
    return n // spec.row_length


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.funcs: list[tuple[str, str]] = []  # func id -> (layer, name)
        self._func_ids: dict[str, int] = {}
        # span arrays, one entry per finished span
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_func = array("i")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.pass_index = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self.reset()
        self._patches = self._build_patches()

    # -- accounting ---------------------------------------------------------

    def reset(self) -> None:
        """Zero the per-pass accumulators (spans already recorded are kept)."""
        self.self_s = [0.0] * len(self.funcs)
        self.incl_s = [0.0] * len(self.funcs)
        self.count = [0] * len(self.funcs)
        self.counters = dict.fromkeys(
            ("rows", "flops", "bytes", "steps", "csv_bytes", "mse_evals", "residual_evals", "jacobian_evals"), 0
        )

    def _func_id(self, layer: str, name: str) -> int:
        key = f"{layer}.{name}"
        if key not in self._func_ids:
            self._func_ids[key] = len(self.funcs)
            self.funcs.append((layer, name))
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self.count.append(0)
        return self._func_ids[key]

    def wrap(self, fn, layer: str, name: str, hook=None):
        """``fn`` recorded as one span of ``layer``; ``hook(args, kwargs, result)``
        runs after the span closes, to update counters."""
        fid = self._func_id(layer, name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.self_s[fid] += dur - frame[2]
                self.incl_s[fid] += dur
                self.count[fid] += 1
                if stack:
                    stack[-1][2] += dur
                self.span_id.append(sid)
                self.span_parent.append(parent)
                self.span_func.append(fid)
                self.span_pass.append(self.pass_index)
                self.span_start.append(start)
                self.span_end.append(end)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _count_rows(self, args, kwargs, _result):
        self.counters["rows"] += _quantized_rows(_arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "x"))

    def _count_butterfly(self, args, kwargs, _result):
        n = _arg(args, kwargs, 0, "plan").padded_dim
        stage_work = n * int(math.log2(n))
        self.counters["flops"] += stage_work
        # every butterfly stage reads and writes n float64 values
        self.counters["bytes"] += 16 * stage_work

    def _steps_hook(self, index, name):
        def hook(args, kwargs, _result):
            self.counters["steps"] += int(_arg(args, kwargs, index, name))

        return hook

    def _count_mse(self, _args, _kwargs, _result):
        self.counters["mse_evals"] += 1

    def _count_csv(self, args, kwargs, _result):
        self.counters["csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _counted(self, fn, counter):
        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patches ------------------------------------------------------------

    def _traced_factory(self, fn, name):
        factory = self.wrap(fn, "objectives", name)

        def traced_factory(*args, **kwargs):
            obj = factory(*args, **kwargs)
            return dataclasses.replace(obj, eval_fn=self.wrap(obj.eval_fn, "objectives", "eval"))

        return traced_factory

    def _traced_least_squares(self, fn):
        def least_squares(fun, x0, jac="2-point", **kwargs):
            counted_fun = self._counted(fun, "residual_evals")
            counted_jac = self._counted(jac, "jacobian_evals") if callable(jac) else jac
            return fn(counted_fun, x0, jac=counted_jac, **kwargs)

        return least_squares

    def _replacement(self, caller: str, name: str, value):
        """The traced stand-in for ``caller.name``, or None to leave it alone."""
        if name == "least_squares" and caller == "scaling":
            return self._traced_least_squares(value)
        if caller == "quantize" and name == "gaussian_clip_mse":
            return self._counted(value, "mse_evals")
        if inspect.isclass(value):
            if value.__module__ == "qatkit.pareto" and value.__name__ == "ParetoMeasure":
                record = self.wrap(value.record, "pareto", "ParetoMeasure.record")
                return type(value.__name__, (value,), {"record": record, "__module__": __name__})
            return None
        if not inspect.isfunction(value) or not value.__module__.startswith("qatkit."):
            return None
        layer = value.__module__.split(".", 1)[1]
        if layer == caller or layer not in LAYERS:
            return None
        if layer == "objectives" and name in ("quadratic", "rosenbrock", "toy_scalar"):
            return self._traced_factory(value, name)
        hook = None
        if f"{layer}.{name}" in _ROW_FUNCS:
            hook = self._count_rows
        elif f"{layer}.{name}" in _TRANSFORM_FUNCS:
            hook = self._count_butterfly
        elif name in _STEP_ARGS:
            hook = self._steps_hook(*_STEP_ARGS[name])
        elif name == "write_trace_csv":
            hook = self._count_csv
        elif name == "gaussian_clip_mse":
            hook = self._count_mse
        return self.wrap(value, layer, name, hook)

    def _build_patches(self):
        patches = []
        for caller in LAYERS:
            module = importlib.import_module(f"qatkit.{caller}")
            for name, value in sorted(vars(module).items()):
                replacement = self._replacement(caller, name, value)
                if replacement is not None:
                    patches.append((module, name, value, replacement))
        return patches

    def install(self) -> None:
        for module, name, _original, replacement in self._patches:
            setattr(module, name, replacement)

    def uninstall(self) -> None:
        for module, name, original, _replacement in self._patches:
            setattr(module, name, original)

    def call_root(self, fn, *args):
        """Run ``fn`` (the CLI entry point) as the root span of a job."""
        return self.wrap(fn, "cli", fn.__name__)(*args)

    # -- results ------------------------------------------------------------

    def pass_metrics(self, pass_wall: float, out_bytes: int) -> dict[str, float]:
        """Per-layer metrics for the pass just traced; ``pass_wall`` is the
        summed wall time of its jobs, as the harness timed them."""
        ids = self._func_ids

        def self_of(*keys):
            return sum(self.self_s[ids[k]] for k in keys if k in ids)

        def incl_of(key):
            return self.incl_s[ids[key]] if key in ids else 0.0

        def calls_of(*keys):
            return sum(self.count[ids[k]] for k in keys if k in ids)

        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for fid, (layer, _name) in enumerate(self.funcs):
            layer_self[layer] += self.self_s[fid]
            layer_calls[layer] += self.count[fid]

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        c = self.counters
        steps = c["steps"]
        t_calls = calls_of(*_TRANSFORM_FUNCS)
        q_calls = calls_of(*_ROW_FUNCS)
        qat_calls = calls_of("qat_grad.ste_backward")
        evals = calls_of("objectives.eval")
        return {
            "transform.calls": t_calls,
            "transform.self_s": layer_self["transform"],
            "transform.us_per_call": per(layer_self["transform"], t_calls, 1e6),
            "transform.calls_per_step": per(t_calls, steps),
            "transform.flops_computed": c["flops"],
            "transform.bytes_computed": c["bytes"],
            "quantize.calls": q_calls,
            "quantize.rows": c["rows"],
            "quantize.self_s": layer_self["quantize"],
            "quantize.us_per_row": per(self_of(*_ROW_FUNCS), c["rows"], 1e6),
            "quantize.calls_per_step": per(q_calls, steps),
            "quantize.calib_s": incl_of("quantize.calibrate_clip") + incl_of("quantize.gaussian_clip_mse"),
            "quantize.mse_evals": c["mse_evals"],
            "qat_grad.calls": qat_calls,
            "qat_grad.self_s": layer_self["qat_grad"],
            "qat_grad.us_per_call": per(layer_self["qat_grad"], qat_calls, 1e6),
            "optim.calls": layer_calls["optim"],
            "optim.self_s": layer_self["optim"],
            "optim.us_per_call": per(layer_self["optim"], layer_calls["optim"], 1e6),
            "objectives.evals": evals,
            "objectives.self_s": layer_self["objectives"],
            "objectives.us_per_eval": per(self_of("objectives.eval"), evals, 1e6),
            "objectives.evals_per_step": per(evals, steps),
            "pareto.records": calls_of("pareto.ParetoMeasure.record"),
            "pareto.self_s": layer_self["pareto"],
            "pareto.csv_s": incl_of("pareto.write_trace_csv"),
            "pareto.csv_bytes": c["csv_bytes"],
            "numerics.calls": layer_calls["numerics"],
            "numerics.self_s": layer_self["numerics"],
            "scaling.fit_s": incl_of("scaling.fit_scaling"),
            "scaling.residual_evals": c["residual_evals"],
            "scaling.jacobian_evals": c["jacobian_evals"],
            "experiments.self_s": layer_self["experiments"],
            "experiments.steps": steps,
            "experiments.self_us_per_step": per(layer_self["experiments"], steps, 1e6),
            "cli.self_s": layer_self["cli"],
            "cli.out_bytes": out_bytes,
            "trace.coverage": per(sum(layer_self.values()), pass_wall),
        }

    def write_spans(self, path, seed: int) -> None:
        """All recorded spans as one ``.npz``: per-span arrays ``span``,
        ``parent`` (-1 for a root), ``pass``, ``function`` (an index into
        ``functions``, which holds "layer.name"), ``start_s`` and ``end_s``
        (perf_counter seconds), plus the workload ``seed``."""
        import numpy as np

        np.savez(
            path,
            span=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            function=np.frombuffer(self.span_func, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
            functions=np.array([f"{layer}.{name}" for layer, name in self.funcs]),
            seed=np.array(seed),
            **{"pass": np.frombuffer(self.span_pass, dtype=np.int32)},
        )
