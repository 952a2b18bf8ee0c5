"""Command-line entry point wiring configs to the experiment lanes.

Subcommands: ``calibrate-clip``, ``toy-pareto``, ``quadratic``,
``convergence``, ``fit-scaling``.  Settings come from a plain-text
``key = value`` config file with command-line overrides; unknown config keys
are rejected.  The resolved configuration is snapshotted to the output
directory before any compute, and all numeric output is serialized with
round-trippable doubles, so reruns with the same config and seeds are
byte-identical.

Exit codes: 0 success, 2 config error (a bad setting or input file), 3
numerical failure (a non-finite value in a run, or a floor-toy grid point
past the float max); any other exception is a bug and surfaces as one.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from .experiments import (
    OPTIMIZERS,
    RATE_OBJECTIVES,
    make_quadratic_problem,
    make_rate_objective,
    run_convergence_run,
    run_quadratic,
    run_toy_pareto,
)
from .numerics import NumericalFailure, pca_project
from .optim import OptimConfig
from .pareto import loglog_fit, write_trace_csv
from .qat_grad import STE_KINDS
from .quantize import (
    INT_SCHEMES,
    QuantSpec,
    calibrate_clip,
    gaussian_clip_mse,
    write_clip_table,
)
from .scaling import check_scaling_data, fit_scaling, fit_to_json_dict, read_scaling_csv

__all__ = ["main", "entrypoint", "parse_quant", "load_config_file"]


class ConfigError(ValueError):
    """Bad configuration or input data; maps to exit code 2."""


# ---------------------------------------------------------------------------
# option parsing and checks; a check raises ConfigError on a value it rejects
# ---------------------------------------------------------------------------

def _parse(parse, text: str, what: str):
    """``parse(text)``, with a malformed value raised as a ConfigError."""
    try:
        return parse(text)
    except ValueError as err:
        raise ConfigError(f"bad {what}: {text!r}") from err


def _finite(text: str) -> float:
    """A float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _list(parse_item):
    """Parser of a comma-separated list; empty items are skipped."""
    return lambda text: [parse_item(p) for p in str(text).split(",") if p.strip()]


def _rule(desc: str, ok):
    """Check that rejects a value for which ``ok`` is false."""

    def check(value):
        if not ok(value):
            raise ConfigError(f"must be {desc}, got {value!r}")

    return check


def at_least(n):
    return _rule(f">= {n}", lambda v: v >= n)


def one_of(names):
    return _rule(f"one of {' | '.join(names)}", lambda v: v in names)


positive = _rule("> 0", lambda v: v > 0)
nonneg = at_least(0)
bit_width = _rule("a bit-width in range [2, 8]", lambda b: 2 <= b <= 8)
# past 1/eps of float64 a drawn SPD matrix need not be positive definite
condition_number = _rule("in [1, 2**52)", lambda k: 1.0 <= k < 2.0**52)


def each(check):
    """List check: at least one entry, no entry twice (each names an output
    file or a sample member), and every entry passing ``check``.  A float
    names its files as ``f"{v:g}"``, so two floats that agree there repeat."""

    def check_list(values):
        if not values:
            raise ConfigError("needs at least one entry")
        names = [f"{v:g}" if isinstance(v, float) else v for v in values]
        if len(set(values)) < len(values) or len(set(names)) < len(names):
            raise ConfigError(f"has a duplicate entry: {values}")
        for value in values:
            check(value)

    return check_list


def parse_quant(v: str) -> QuantSpec:
    """Parse a quantizer spec string: ``none`` (the identity), ``int-hadamard:4``,
    ``int-plain:3``, ``mxfp4``, or ``floor-toy[:grid]``."""
    v = v.strip()
    if v == "none":
        return QuantSpec(scheme="none")
    parts = v.split(":")
    scheme = parts[0]
    if scheme in INT_SCHEMES:
        if len(parts) != 2:
            raise ConfigError(f"int schemes need a bit-width, e.g. {scheme}:4")
        bits = _parse(int, parts[1], "bit-width")
        bit_width(bits)
        return QuantSpec(scheme=scheme, bits=bits)
    if scheme == "mxfp4":
        if len(parts) != 1:
            raise ConfigError(f"mxfp4 takes no fields, got {v!r}")
        return QuantSpec(scheme="mxfp4")
    if scheme == "floor-toy":
        if len(parts) > 2:
            raise ConfigError(f"floor-toy takes at most a grid, e.g. floor-toy:0.25, got {v!r}")
        grid = _parse(_finite, parts[1], "floor-toy grid") if len(parts) > 1 else 1.0
        if grid <= 0:
            raise ConfigError(f"floor-toy grid must be positive, got {grid}")
        return QuantSpec(scheme="floor-toy", grid=grid)
    raise ConfigError(f"unknown quantizer scheme {scheme!r}")


# option tables: name -> (parser, default, help, check); the check runs on
# the resolved value, from a flag, the config file or the default
_OUT = {"out": (str, None, "output directory", None)}
_SEEDED = {**_OUT, "seed": (_list(int), [0], "comma-separated seed list", each(nonneg))}

_OPTIONS: dict[str, dict] = {
    "calibrate-clip": {
        **_OUT,
        "bits": (_list(int), [2, 3, 4], "bit-widths to calibrate", each(bit_width)),
    },
    "toy-pareto": {
        **_OUT,
        "lambdas": (_list(_finite), [0.5, 1.0, 2.0, 3.0], "correction coefficients", each(nonneg)),
        "alpha": (_finite, 0.05, "learning rate", positive),
        "steps": (int, 5000, "step budget", positive),
        "x0": (_finite, 0.9, "initial point", None),
    },
    "quadratic": {
        **_SEEDED,
        "kappas": (_list(_finite), [1.0, 10.0, 100.0], "condition numbers", each(condition_number)),
        # dim, steps >= 2: the first seed's trajectory goes through a two-component PCA
        "dim": (int, 64, "problem dimension", at_least(2)),
        "steps": (int, 2000, "step budget", at_least(2)),
        "opt": (
            _list(str.strip), ["adamw", "cage-adamw-dec"], "optimizers to compare", each(one_of(OPTIMIZERS))
        ),
        "quant": (str, "int-hadamard:4", "quantizer spec", parse_quant),
        "lr": (_finite, 0.03, "base learning rate", positive),
        "lam": (_finite, 2.0, "correction coefficient", nonneg),
        "silence_ratio": (
            _finite, 0.9, "fraction of steps before the ramp", _rule("in [0, 1)", lambda v: 0 <= v < 1)
        ),
        "weight_decay": (_finite, 0.0, "decoupled weight decay", nonneg),
        "grad_clip": (_finite, 1.0, "gradient clip norm, 0 disables", nonneg),
        "sigma0": (_finite, 1.0, "init scale", nonneg),
        "ste": (str, "trust-masked", " | ".join(STE_KINDS), one_of(STE_KINDS)),
    },
    "convergence": {
        **_SEEDED,
        "objective": (str, "rosenbrock", " | ".join(RATE_OBJECTIVES), one_of(RATE_OBJECTIVES)),
        "dim": (int, 10, "problem dimension", positive),
        "kappa": (_finite, 10.0, "condition number (quadratic objective)", condition_number),
        "quant": (str, "floor-toy:0.25", "quantizer spec", parse_quant),
        "lam": (_finite, 1.0, "correction coefficient", nonneg),
        "noise_std": (_finite, 0.1, "gradient noise std", nonneg),
        "steps": (_list(int), [100, 1000, 10000, 100000], "horizon list", each(positive)),
        "lipschitz": (_finite, 1000.0, "smoothness constant for non-quadratic objectives", positive),
        "x0_std": (_finite, 0.25, "init scale", nonneg),
    },
    "fit-scaling": {
        **_OUT,
        "input": (
            str, None, "input CSV path (method, P, N, D, loss)", _rule("given", lambda v: v is not None)
        ),
        "prior_weight": (_finite, 1e-3, "log-prior strength on the exponents", nonneg),
        "starts": (int, 8, "multi-start count", positive),
        "fit_seed": (int, 0, "seed for the start draws", nonneg),
    },
}

# CLI flag spellings that differ from the config key
_FLAG_ALIASES = {"lam": "lambda"}


def load_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines of a UTF-8 file; blank lines and '#'
    comments are skipped, and a key may be given once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not a UTF-8 text file: {err}") from err
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        out[key] = value
    return out


def _resolve_options(subcommand: str, args: argparse.Namespace) -> dict:
    table = _OPTIONS[subcommand]
    file_values: dict[str, str] = {}
    if args.config is not None:
        file_values = load_config_file(args.config)
        unknown = sorted(set(file_values) - set(table))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {subcommand}: {', '.join(unknown)}")
    resolved = {}
    for name, (parse, default, _help, check) in table.items():
        cli_value = getattr(args, name)
        if cli_value is not None:
            value = _parse(parse, cli_value, name)
        elif name in file_values:
            value = _parse(parse, file_values[name], name)
        else:
            value = default
        if check is not None:
            try:
                check(value)
            except ConfigError as err:
                raise ConfigError(f"bad {name}: {err}") from err
        resolved[name] = value
    if resolved.get("out") is None:
        resolved["out"] = f"runs/{subcommand}"
    resolved["subcommand"] = subcommand
    return resolved


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _prepare_out(opts: dict) -> Path:
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    # a summary.json stands only beside the config of a run that finished
    (out / "summary.json").unlink(missing_ok=True)
    _write_json(out / "config.json", opts)
    return out


# ---------------------------------------------------------------------------
# subcommands: each checks only what spans several options, and returns the
# document that main writes as summary.json
# ---------------------------------------------------------------------------

def cmd_calibrate_clip(opts: dict) -> dict:
    out = _prepare_out(opts)
    bits = sorted(opts["bits"])
    rows = [(b, k, gaussian_clip_mse(b, k)) for b, k in zip(bits, calibrate_clip(bits))]
    for b, k, mse in rows:
        print(f"{b}\t{k!r}\t{mse!r}")
    write_clip_table(out / "clip_factors.tsv", rows)
    return {"table": [{"bits": b, "k": k, "mse": m} for b, k, m in rows]}


def cmd_toy_pareto(opts: dict) -> dict:
    out = _prepare_out(opts)
    results = []
    for lam in opts["lambdas"]:
        res = run_toy_pareto(lam, lr=opts["alpha"], steps=opts["steps"], x0=opts["x0"])
        write_trace_csv(out / f"trace_lambda{lam:g}.csv", res.trace)
        print(
            f"lambda={lam:g} final_x={res.final_x!r} "
            f"|pareto_grad|={res.pareto_grad_abs!r} |ste_grad|={res.ste_grad_abs!r}"
        )
        results.append(
            {
                "lambda": lam,
                "final_x": res.final_x,
                "pareto_grad_abs": res.pareto_grad_abs,
                "ste_grad_abs": res.ste_grad_abs,
            }
        )
    return {"results": results}


# bytes one chunk of quadratic kappas may hold at once: its (K S, d, d) stack
# of matrices and its K O recorded (steps, d) trajectories
_CHUNK_BYTES = 8 << 20


def _kappa_chunks(kappas: list, dim: int, n_seeds: int, n_opts: int, steps: int) -> list[list]:
    """``kappas`` in order, cut into the longest runs of kappas whose stack and
    trajectories fit in ``_CHUNK_BYTES``; a kappa too large for it is a chunk
    of one."""
    per_kappa = 8 * dim * (n_seeds * dim + n_opts * steps)
    size = max(1, _CHUNK_BYTES // per_kappa)
    return [kappas[i:i + size] for i in range(0, len(kappas), size)]


def cmd_quadratic(opts: dict) -> dict:
    seeds, steps = opts["seed"], opts["steps"]
    cfg = OptimConfig(
        lr=opts["lr"],
        weight_decay=opts["weight_decay"],
        lam=opts["lam"],
        silence_ratio=opts["silence_ratio"],
    )
    spec = parse_quant(opts["quant"])
    out = _prepare_out(opts)
    cells = []
    for chunk in _kappa_chunks(opts["kappas"], opts["dim"], len(seeds), len(opts["opt"]), steps):
        obj, x0 = make_quadratic_problem(opts["dim"], chunk, seeds, opts["sigma0"])
        try:
            runs = run_quadratic(
                obj, x0, opts["opt"], steps, spec, cfg,
                ste_kind=opts["ste"], grad_clip_norm=opts["grad_clip"],
            )
        except NumericalFailure as err:
            raise NumericalFailure(f"{err}, kappa {chunk[err.kappa_index]:g}") from err
        del obj, x0  # the problems are not live during the PCAs or the next draw
        for kappa, kappa_runs in zip(chunk, runs):
            for name, run in zip(opts["opt"], kappa_runs):
                write_trace_csv(out / f"trace_kappa{kappa:g}_{name}_seed{seeds[0]}.csv", run.trace)
                proj, _ = pca_project(run.iterates, 2)
                with (out / f"traj_kappa{kappa:g}_{name}_seed{seeds[0]}.csv").open("w") as fh:
                    fh.write("pc1,pc2\n")
                    fh.writelines("%r,%r\n" % (pc1, pc2) for pc1, pc2 in proj.tolist())
                gaps = run.final_gaps
                mean = statistics.fmean(gaps)
                std = statistics.stdev(gaps) if len(gaps) > 1 else 0.0
                cells.append(
                    {
                        "kappa": kappa,
                        "optimizer": name,
                        "final_gaps": gaps,
                        "mean_final_gap": mean,
                        "std_final_gap": std,
                    }
                )
                print(f"kappa={kappa:g} opt={name} mean_gap={mean!r} std={std!r}")
        del runs, kappa_runs, run  # nor are this chunk's runs during the next draw
    return {"cells": cells}


def cmd_convergence(opts: dict) -> dict:
    seeds = opts["seed"]
    horizons = sorted(opts["steps"])
    if len(horizons) >= 2 and horizons[-1] / horizons[0] < 100.0:
        raise ConfigError("horizon list must span at least two decades")
    if opts["objective"] == "rosenbrock" and opts["dim"] < 2:
        raise ConfigError(f"rosenbrock needs dim >= 2, got {opts['dim']}")
    if opts["objective"] == "quadratic" and opts["dim"] == 1 and opts["kappa"] != 1.0:
        raise ConfigError(f"a quadratic at dim 1 needs kappa = 1, got {opts['kappa']}")
    spec = parse_quant(opts["quant"])
    out = _prepare_out(opts)
    obj, lhat = make_rate_objective(
        opts["objective"], opts["dim"], kappa=opts["kappa"], seed=seeds[0],
        lipschitz=opts["lipschitz"],
    )
    per_horizon = []
    for T in horizons:
        try:
            run = run_convergence_run(
                obj, spec, opts["lam"], opts["noise_std"], T, seeds, lhat,
                x0_std=opts["x0_std"],
            )
        except NumericalFailure as err:
            raise NumericalFailure(f"{err}, horizon {T}") from err
        write_trace_csv(out / f"trace_T{T}_seed{seeds[0]}.csv", run.trace)
        per_horizon.append(
            {
                "T": T,
                "alpha": run.alpha,
                "ergodic_means": run.ergodic_means,
                "seed_mean": statistics.fmean(run.ergodic_means),
            }
        )
        print(f"T={T} alpha={run.alpha!r} ergodic_mean={per_horizon[-1]['seed_mean']!r}")
    payload: dict = {"lipschitz": lhat, "per_horizon": per_horizon}
    if len(horizons) >= 2:
        slope, intercept, r2 = loglog_fit(
            [h["T"] for h in per_horizon], [h["seed_mean"] for h in per_horizon]
        )
        payload["rate"] = {"exponent": slope, "intercept": intercept, "r_squared": r2}
        print(f"rate exponent p={slope!r} r2={r2!r}")
    return payload


def cmd_fit_scaling(opts: dict) -> dict:
    # an unreadable file, a malformed row and too little data diversity are
    # input errors; a ValueError from the fit itself is a bug
    try:
        data = read_scaling_csv(opts["input"])
        check_scaling_data(data)
    except (FileNotFoundError, ValueError) as err:
        raise ConfigError(str(err)) from err
    _prepare_out(opts)
    fit = fit_scaling(
        data,
        prior_weight=opts["prior_weight"],
        n_starts=opts["starts"],
        seed=opts["fit_seed"],
    )
    try:
        doc = fit_to_json_dict(fit, data)
    except OverflowError as err:
        # a law fitted to extreme losses can overflow a float power at a data point
        raise NumericalFailure(f"fitted law overflows at a data point ({err})") from err
    print("method\tP\teff")
    print(f"*\tFP\t{1.0!r}")
    for entry in doc["eff"]:
        print(f"{entry['method']}\t{entry['P']}\t{entry['eff']!r}")
    print(f"residual_rms={fit.residual_rms!r}")
    return doc


_HANDLERS = {
    "calibrate-clip": cmd_calibrate_clip,
    "toy-pareto": cmd_toy_pareto,
    "quadratic": cmd_quadratic,
    "convergence": cmd_convergence,
    "fit-scaling": cmd_fit_scaling,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qatkit",
        description="Quantized-training experiment toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, table in _OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="plain-text key = value config file")
        for key, (_parse, default, help_text, _check) in table.items():
            flag = _FLAG_ALIASES.get(key, key).replace("_", "-")
            p.add_argument(f"--{flag}", dest=key, default=None, help=f"{help_text} (default: {default})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _resolve_options(args.subcommand, args)
        _write_json(Path(opts["out"]) / "summary.json", _HANDLERS[args.subcommand](opts))
        return 0
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NumericalFailure, FloatingPointError) as err:  # the latter: a floor-toy overflow
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
