"""Command-line entry point wiring configs to the experiment lanes.

Subcommands: ``calibrate-clip``, ``toy-pareto``, ``quadratic``,
``convergence``, ``fit-scaling``.  Settings come from a plain-text
``key = value`` config file with command-line overrides; unknown config keys
are rejected.  The resolved configuration is snapshotted to the output
directory before any compute, and all numeric output is serialized with
round-trippable doubles, so reruns with the same config and seeds are
byte-identical.

Exit codes: 0 success, 2 config error (a bad setting or input file), 3
numerical failure; any other exception is a bug and surfaces as one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import statistics
import sys
from pathlib import Path

from .experiments import (
    OPTIMIZERS,
    STE_KINDS,
    NumericalFailure,
    lr_at,
    make_quadratic_problem,
    make_rate_objective,
    run_convergence_run,
    run_quadratic,
    run_toy_pareto,
)
from .numerics import pca_project
from .optim import OptimConfig
from .pareto import loglog_fit, write_trace_csv
from .quantize import (
    INT_SCHEMES,
    QuantSpec,
    calibrate_clip,
    gaussian_clip_mse,
    int_spec,
    write_clip_table,
)
from .scaling import RESIDUAL_SPACES, check_scaling_data, fit_scaling, read_scaling_csv, write_fit_json

__all__ = ["main", "entrypoint", "parse_quant", "load_config_file"]


class ConfigError(ValueError):
    """Bad configuration or input data; maps to exit code 2."""


# ---------------------------------------------------------------------------
# option parsing
# ---------------------------------------------------------------------------

def _parse(parse, text: str, what: str):
    """``parse(text)``, with a malformed value raised as a ConfigError."""
    try:
        return parse(text)
    except ValueError as err:
        raise ConfigError(f"bad {what}: {text!r}") from err


def _parse_int_list(v: str) -> list[int]:
    return [int(p) for p in str(v).split(",") if p.strip()]


def _parse_float_list(v: str) -> list[float]:
    return [float(p) for p in str(v).split(",") if p.strip()]


def _parse_str_list(v: str) -> list[str]:
    return [p.strip() for p in str(v).split(",") if p.strip()]


def parse_quant(v: str) -> QuantSpec | None:
    """Parse a quantizer spec string: ``none``, ``int-hadamard:4``,
    ``int-plain:3``, ``mxfp4``, or ``floor-toy[:grid]``."""
    v = v.strip()
    if v == "none":
        return None
    parts = v.split(":")
    scheme = parts[0]
    if scheme in INT_SCHEMES:
        if len(parts) != 2:
            raise ConfigError(f"int schemes need a bit-width, e.g. {scheme}:4")
        bits = _parse(int, parts[1], "bit-width")
        if not 2 <= bits <= 8:
            raise ConfigError(f"bits out of supported range [2, 8]: {bits}")
        return int_spec(scheme, bits)
    if scheme == "mxfp4":
        return QuantSpec(scheme="mxfp4")
    if scheme == "floor-toy":
        grid = _parse(float, parts[1], "floor-toy grid") if len(parts) > 1 else 1.0
        if not grid > 0:
            raise ConfigError(f"floor-toy grid must be positive, got {grid}")
        return QuantSpec(scheme="floor-toy", grid=grid)
    raise ConfigError(f"unknown quantizer scheme {scheme!r}")


# option tables: name -> (parser, default, help); None default means "must be
# given by config or flag" only where noted
_OUT = {"out": (str, None, "output directory")}
_SEEDED = {**_OUT, "seed": (_parse_int_list, [0], "comma-separated seed list")}

_OPTIONS: dict[str, dict] = {
    "calibrate-clip": {
        **_OUT,
        "bits": (_parse_int_list, [2, 3, 4], "bit-widths to calibrate"),
        "n_grid": (int, 96, "coarse-scan resolution over the clip range"),
        "quadrature": (int, 100001, "quadrature node count"),
    },
    "toy-pareto": {
        **_OUT,
        "lambdas": (_parse_float_list, [0.5, 1.0, 2.0, 3.0], "correction coefficients"),
        "alpha": (float, 0.05, "learning rate"),
        "steps": (int, 5000, "step budget"),
        "x0": (float, 0.9, "initial point"),
    },
    "quadratic": {
        **_SEEDED,
        "kappas": (_parse_float_list, [1.0, 10.0, 100.0], "condition numbers"),
        "dim": (int, 64, "problem dimension"),
        "steps": (int, 2000, "step budget"),
        "opt": (_parse_str_list, ["adamw", "cage-adamw-dec"], "optimizers to compare"),
        "quant": (str, "int-hadamard:4", "quantizer spec"),
        "lr": (float, 0.03, "base learning rate"),
        "lr_schedule": (str, "constant", "constant | cosine"),
        "lam": (float, 2.0, "correction coefficient"),
        "silence_ratio": (float, 0.9, "fraction of steps before the ramp"),
        "weight_decay": (float, 0.0, "decoupled weight decay"),
        "grad_clip": (float, 1.0, "gradient clip norm, 0 disables"),
        "sigma0": (float, 1.0, "init scale"),
        "ste": (str, "trust-masked", "identity | trust-masked"),
    },
    "convergence": {
        **_SEEDED,
        "objective": (str, "rosenbrock", "rosenbrock | quadratic"),
        "dim": (int, 10, "problem dimension"),
        "kappa": (float, 10.0, "condition number (quadratic objective)"),
        "quant": (str, "floor-toy:0.25", "quantizer spec"),
        "lam": (float, 1.0, "correction coefficient"),
        "noise_std": (float, 0.1, "gradient noise std"),
        "steps": (_parse_int_list, [100, 1000, 10000, 100000], "horizon list"),
        "lipschitz": (float, 1000.0, "smoothness constant for non-quadratic objectives"),
        "x0_std": (float, 0.25, "init scale"),
    },
    "fit-scaling": {
        **_OUT,
        "input": (str, None, "input CSV path (method, P, N, D, loss)"),
        "prior_weight": (float, 1e-3, "log-prior strength on the exponents"),
        "residual_space": (str, "log", "log | linear"),
        "starts": (int, 8, "multi-start count"),
        "fit_seed": (int, 0, "seed for the start draws"),
    },
}

# CLI flag spellings that differ from the config key
_FLAG_ALIASES = {"lam": "lambda"}


def load_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines; blank lines and '#' comments are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
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
    for name, (parse, default, _help) in table.items():
        cli_value = getattr(args, name)
        if cli_value is not None:
            resolved[name] = _parse(parse, cli_value, name)
        elif name in file_values:
            resolved[name] = _parse(parse, file_values[name], name)
        else:
            resolved[name] = default
    if resolved.get("out") is None:
        resolved["out"] = f"runs/{subcommand}"
    return resolved


def _prepare_out(opts: dict, subcommand: str) -> Path:
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    snapshot = {"subcommand": subcommand, **opts}
    (out / "config.json").write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return out


def _write_summary(out: Path, payload: dict) -> None:
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_quadratic_problem(dim: int, kappas: list[float]) -> None:
    """The settings ``make_spd`` needs: dim >= 1, every kappa finite and
    >= 1, and kappa 1 for a 1x1 matrix."""
    if dim < 1:
        raise ConfigError(f"quadratic problems need dim >= 1, got {dim}")
    bad = [k for k in kappas if not 1.0 <= k < math.inf or (dim == 1 and k != 1.0)]
    if bad:
        raise ConfigError(f"condition numbers must be finite and >= 1 (exactly 1 at dim 1), got {bad}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_calibrate_clip(opts: dict) -> int:
    bits = opts["bits"]
    bad = [b for b in bits if not 2 <= b <= 8]
    if bad:
        raise ConfigError(f"bits out of supported range [2, 8]: {bad}")
    if opts["n_grid"] < 2 or opts["quadrature"] < 2:
        raise ConfigError(f"n_grid and quadrature need >= 2 points, got {opts['n_grid']}, {opts['quadrature']}")
    out = _prepare_out(opts, "calibrate-clip")
    rows = []
    for b in sorted(bits):
        k = calibrate_clip(b, n_grid=opts["n_grid"], quadrature=opts["quadrature"])
        mse = gaussian_clip_mse(b, k, opts["quadrature"])
        rows.append((b, k, mse))
        print(f"{b}\t{k!r}\t{mse!r}")
    write_clip_table(out / "clip_factors.tsv", rows)
    _write_summary(out, {"table": [{"bits": b, "k": k, "mse": m} for b, k, m in rows]})
    return 0


def cmd_toy_pareto(opts: dict) -> int:
    lambdas = opts["lambdas"]
    # comparisons written so that a NaN fails them
    if not all(0.0 <= lam < math.inf for lam in lambdas):
        raise ConfigError(f"lambda values must be non-negative and finite, got {lambdas}")
    if not 0.0 < opts["alpha"] < math.inf:
        raise ConfigError(f"toy-pareto needs a positive finite learning rate, got alpha={opts['alpha']}")
    if not math.isfinite(opts["x0"]):
        raise ConfigError(f"toy-pareto needs a finite x0, got {opts['x0']}")
    steps = opts["steps"]
    if steps < 1:
        raise ConfigError(f"toy-pareto needs steps >= 1, got {steps}")
    out = _prepare_out(opts, "toy-pareto")
    results = []
    for lam in lambdas:
        res = run_toy_pareto(lam, lr=opts["alpha"], steps=steps, x0=opts["x0"])
        results.append(res)
        write_trace_csv(out / f"trace_lambda{lam:g}.csv", res.trace)
        print(
            f"lambda={lam:g} final_x={res.final_x!r} "
            f"|pareto_grad|={res.pareto_grad_abs!r} |ste_grad|={res.ste_grad_abs!r}"
        )
    _write_summary(
        out,
        {
            "results": [
                {
                    "lambda": r.lam,
                    "final_x": r.final_x,
                    "pareto_grad_abs": r.pareto_grad_abs,
                    "ste_grad_abs": r.ste_grad_abs,
                }
                for r in results
            ]
        },
    )
    return 0


def cmd_quadratic(opts: dict) -> int:
    seeds = opts["seed"]
    if not seeds:
        raise ConfigError("need at least one seed")
    optimizers = opts["opt"]
    unknown = [o for o in optimizers if o not in OPTIMIZERS]
    if unknown:
        raise ConfigError(f"unknown optimizer(s): {', '.join(unknown)} (choose from {', '.join(OPTIMIZERS)})")
    # the first seed's trajectory is projected onto two principal components
    if opts["dim"] < 2:
        raise ConfigError(f"quadratic needs dim >= 2 for the trajectory PCA, got {opts['dim']}")
    steps = opts["steps"]
    if steps < 2:
        raise ConfigError(f"quadratic needs steps >= 2 for the trajectory PCA, got {steps}")
    _check_quadratic_problem(opts["dim"], opts["kappas"])
    if opts["ste"] not in STE_KINDS:
        raise ConfigError(f"unknown ste {opts['ste']!r} (choose from {', '.join(STE_KINDS)})")
    # comparisons written so that a NaN fails them
    if not (0.0 <= opts["grad_clip"] < math.inf and 0.0 <= opts["sigma0"] < math.inf):
        raise ConfigError(f"grad_clip and sigma0 must be finite and >= 0, got {opts['grad_clip']}, {opts['sigma0']}")
    # the config, its lambda schedule and a first lr_at call run the library's
    # own checks on lr, weight decay, lam, silence ratio and lr schedule
    try:
        cfg = OptimConfig(
            lr=opts["lr"],
            weight_decay=opts["weight_decay"],
            lam=opts["lam"],
            silence_ratio=opts["silence_ratio"],
            total_steps=steps,
        )
        cfg.schedule()
        lr_at(cfg.lr, 1, steps, opts["lr_schedule"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    spec = parse_quant(opts["quant"])
    out = _prepare_out(opts, "quadratic")
    clip = opts["grad_clip"] if opts["grad_clip"] > 0 else None
    cells = []
    for kappa in opts["kappas"]:
        obj, x0 = make_quadratic_problem(opts["dim"], kappa, seeds, opts["sigma0"])
        for name in optimizers:
            opt_cfg = cfg if name.startswith("cage") else dataclasses.replace(cfg, lam=0.0)
            run = run_quadratic(
                obj,
                x0,
                name,
                steps,
                spec,
                opt_cfg,
                lr_schedule=opts["lr_schedule"],
                ste_kind=opts["ste"],
                grad_clip_norm=clip,
                record_iterates=True,
            )
            write_trace_csv(out / f"trace_kappa{kappa:g}_{name}_seed{seeds[0]}.csv", run.trace)
            proj, _ = pca_project(run.iterates, 2)
            with (out / f"traj_kappa{kappa:g}_{name}_seed{seeds[0]}.csv").open("w") as fh:
                fh.write("pc1,pc2\n")
                for row in proj:
                    fh.write(f"{row[0]!r},{row[1]!r}\n")
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
    _write_summary(out, {"cells": cells})
    return 0


def cmd_convergence(opts: dict) -> int:
    seeds = opts["seed"]
    if not seeds:
        raise ConfigError("need at least one seed")
    horizons = sorted(opts["steps"])
    if not horizons or horizons[0] < 1:
        raise ConfigError(f"horizons must be positive, got {horizons}")
    if len(horizons) >= 2 and max(horizons) / min(horizons) < 100.0:
        raise ConfigError("horizon list must span at least two decades")
    if opts["objective"] not in ("rosenbrock", "quadratic"):
        raise ConfigError(f"unknown rate objective {opts['objective']!r} (rosenbrock | quadratic)")
    if opts["objective"] == "rosenbrock" and opts["dim"] < 2:
        raise ConfigError(f"rosenbrock needs dim >= 2, got {opts['dim']}")
    if opts["objective"] == "quadratic":
        _check_quadratic_problem(opts["dim"], [opts["kappa"]])
    # comparisons written so that a NaN fails them
    if not (
        0.0 <= opts["lam"] < math.inf
        and 0.0 <= opts["noise_std"] < math.inf
        and 0.0 <= opts["x0_std"] < math.inf
        and 0.0 < opts["lipschitz"] < math.inf
    ):
        raise ConfigError("convergence needs finite lambda, noise_std and x0_std >= 0 and a finite lipschitz > 0")
    spec = parse_quant(opts["quant"])
    out = _prepare_out(opts, "convergence")
    obj, lhat = make_rate_objective(
        opts["objective"], opts["dim"], kappa=opts["kappa"], seed=seeds[0],
        lipschitz=opts["lipschitz"],
    )
    per_horizon = []
    for T in horizons:
        run = run_convergence_run(
            obj, spec, opts["lam"], opts["noise_std"], T, seeds, lhat,
            x0_std=opts["x0_std"], keep_trace=True,
        )
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
    _write_summary(out, payload)
    return 0


def cmd_fit_scaling(opts: dict) -> int:
    if opts["input"] is None:
        raise ConfigError("fit-scaling needs an input CSV (--input)")
    if opts["residual_space"] not in RESIDUAL_SPACES:
        raise ConfigError(f"unknown residual space {opts['residual_space']!r} ({' | '.join(RESIDUAL_SPACES)})")
    if opts["starts"] < 1:
        raise ConfigError(f"fit-scaling needs starts >= 1, got {opts['starts']}")
    if not 0.0 <= opts["prior_weight"] < math.inf:
        raise ConfigError(f"prior weight must be non-negative and finite, got {opts['prior_weight']}")
    if opts["fit_seed"] < 0:
        raise ConfigError(f"fit seed must be non-negative, got {opts['fit_seed']}")
    # an unreadable file, a malformed row and too little data diversity are
    # input errors; a ValueError from the fit itself is a bug
    try:
        data = read_scaling_csv(opts["input"])
        check_scaling_data(data)
    except (FileNotFoundError, ValueError) as err:
        raise ConfigError(str(err)) from err
    out = _prepare_out(opts, "fit-scaling")
    fit = fit_scaling(
        data,
        prior_weight=opts["prior_weight"],
        residual_space=opts["residual_space"],
        n_starts=opts["starts"],
        seed=opts["fit_seed"],
    )
    doc = write_fit_json(out / "fit.json", fit, data)
    _write_summary(out, doc)
    print("method\tP\teff")
    print(f"*\tFP\t{1.0!r}")
    for entry in doc["eff"]:
        print(f"{entry['method']}\t{entry['P']}\t{entry['eff']!r}")
    print(f"residual_rms={fit.residual_rms!r}")
    return 0


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
        for key, (_parse, default, help_text) in table.items():
            flag = _FLAG_ALIASES.get(key, key).replace("_", "-")
            p.add_argument(f"--{flag}", dest=key, default=None, help=f"{help_text} (default: {default})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _resolve_options(args.subcommand, args)
        return _HANDLERS[args.subcommand](opts)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalFailure as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
