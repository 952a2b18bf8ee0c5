"""The benchmark's workloads: CLI job lists built from a seed, and the checks
that decide whether each job's outputs are correct.

A workload is a fixed list of ``qatkit`` CLI invocations (a "pass").  Pass
``p`` of a run with workload seed ``s`` derives its CLI seeds and generated
inputs from ``(workload, s, p)`` only, so the same seed reproduces the same
inputs and every pass of a run has the same shape (same steps, rows and
calls) on different numbers.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

TRACE_HEADER = ["step", "loss", "pareto_sq_norm", "grad_sq_norm", "err_sq_norm", "lambda_t"]

# criterion-5 lane settings, cut to a pass of about 1.5 s on one core
QUAD_KAPPAS = (1.0, 10.0, 100.0)
INT4 = dict(dim=64, quant="int-hadamard:4", opts=("adamw", "cage-adamw-dec"), steps=300, seeds=2)
# cage-sgd makes no progress at this dim and lr, so the corrected optimizer is cage-adamw-cpl
MXFP4 = dict(dim=512, quant="mxfp4", opts=("adamw", "cage-adamw-cpl"), steps=1000, seeds=1)
# criterion-4 lane with horizons cut to 20..2000 (two decades, as the CLI requires)
CONV_HORIZONS = (20, 200, 2000)
CONV_SEEDS = 10
CALIB_BITS = tuple(range(2, 9))
# scaling-law data: criterion-7 law parameters, eff of each group drawn per pass
LAW = dict(A=0.8, alpha=0.34, B=1.5, beta=0.28, E=1.2)
LAW_GROUPS = 8
LAW_EFF_RANGE = (0.3, 0.8)
LAW_NOISE = 0.005
LAW_GRID = [(n, d) for n in (1.0, 3.0, 10.0, 30.0, 100.0) for d in (10.0, 1e2, 1e3, 1e4, 1e5)]
FIT_STARTS = 32

# tolerances: criterion 4 (rate), criterion 6 (clip table), criterion 7 (fit)
RATE_MAX_EXPONENT = -0.3
RATE_MIN_R2 = 0.9
CLIP_TOL = 1e-4
LAW_PARAM_REL_TOL = 0.10
LAW_EFF_ABS_TOL = 0.05
GAP_ROUNDING = 1e-9


@dataclass
class Job:
    """One CLI invocation: its arguments, inputs to write first, and its check."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]]
    inputs: dict[Path, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# output checks: each returns the list of problems found (empty when correct)
# ---------------------------------------------------------------------------

def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def _trace_problems(path: Path, rows: int) -> list[str]:
    if not path.is_file():
        return [f"missing trace {path.name}"]
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != TRACE_HEADER:
        return [f"{path.name}: bad header"]
    if len(lines) - 1 != rows:
        return [f"{path.name}: {len(lines) - 1} rows, expected {rows}"]
    return []


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_quadratic(out: Path, kappas, opts, seeds, steps) -> list[str]:
    cells = _summary(out)["cells"]
    problems = []
    expected = sorted((float(k), o) for k in kappas for o in opts)
    if sorted((c["kappa"], c["optimizer"]) for c in cells) != expected:
        problems.append(f"cells {[(c['kappa'], c['optimizer']) for c in cells]} != {expected}")
    for c in cells:
        gaps = c["final_gaps"]
        label = f"kappa={c['kappa']:g} {c['optimizer']}"
        if len(gaps) != len(seeds):
            problems.append(f"{label}: {len(gaps)} gaps for {len(seeds)} seeds")
        if not _finite(gaps + [c["mean_final_gap"]]) or min(gaps, default=0.0) < -GAP_ROUNDING:
            problems.append(f"{label}: gaps not finite and >= 0: {gaps}")
        problems += _trace_problems(out / f"trace_kappa{c['kappa']:g}_{c['optimizer']}_seed{seeds[0]}.csv", steps)
    return problems


def check_convergence(out: Path, horizons, seeds) -> list[str]:
    summary = _summary(out)
    problems = []
    per_horizon = summary["per_horizon"]
    if [h["T"] for h in per_horizon] != list(horizons):
        problems.append(f"horizons {[h['T'] for h in per_horizon]} != {list(horizons)}")
    for h in per_horizon:
        means = h["ergodic_means"] + [h["seed_mean"]]
        if len(h["ergodic_means"]) != len(seeds) or not _finite(means) or min(means) <= 0:
            problems.append(f"T={h['T']}: ergodic means not finite and positive: {means}")
        problems += _trace_problems(out / f"trace_T{h['T']}_seed{seeds[0]}.csv", h["T"])
    rate = summary.get("rate")
    if rate is None:
        problems.append("no rate fit")
    elif not (rate["exponent"] <= RATE_MAX_EXPONENT and rate["r_squared"] >= RATE_MIN_R2):
        problems.append(f"rate exponent {rate['exponent']} / r2 {rate['r_squared']} outside criterion 4")
    return problems


def read_packaged_clip_table(path: Path) -> dict[int, float]:
    table = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith(("#", "bits")):
            bits, k, _mse = line.split("\t")
            table[int(bits)] = float(k)
    return table


def check_calibrate(out: Path, bits, packaged: dict[int, float]) -> list[str]:
    rows = _summary(out)["table"]
    problems = []
    if [r["bits"] for r in rows] != list(bits):
        problems.append(f"bits {[r['bits'] for r in rows]} != {list(bits)}")
    ks = [r["k"] for r in rows]
    if not _finite(ks) or any(a >= b for a, b in zip(ks, ks[1:])):
        problems.append(f"k_b not strictly increasing: {ks}")
    for r in rows:
        if r["bits"] in packaged and not abs(r["k"] - packaged[r["bits"]]) <= CLIP_TOL:
            problems.append(f"k_{r['bits']}={r['k']} differs from packaged {packaged[r['bits']]}")
    return problems


def check_fit(out: Path, effs: dict[tuple[str, str], float]) -> list[str]:
    fit = _summary(out)
    problems = []
    for key, truth in LAW.items():
        if not abs(fit[key] / truth - 1.0) <= LAW_PARAM_REL_TOL:
            problems.append(f"{key}={fit[key]} not within {LAW_PARAM_REL_TOL:.0%} of {truth}")
    fitted = {(e["method"], e["P"]): e["eff"] for e in fit["eff"]}
    expected = {k: v for k, v in effs.items() if k[1] != "FP"}
    if set(fitted) != set(expected):
        problems.append(f"eff groups {sorted(fitted)} != {sorted(expected)}")
    for key, truth in expected.items():
        if key in fitted and not abs(fitted[key] - truth) <= LAW_EFF_ABS_TOL:
            problems.append(f"eff{key}={fitted[key]} not within {LAW_EFF_ABS_TOL} of {truth}")
    return problems


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def _seed_list(rng: random.Random, count: int) -> list[int]:
    base = rng.randrange(1_000_000)
    return list(range(base, base + count))


def _join(values) -> str:
    return ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)


def _quadratic(lane: dict, rng: random.Random, work: Path) -> list[Job]:
    seeds = _seed_list(rng, lane["seeds"])
    out = work / "quadratic"
    argv = [
        "quadratic", "--kappas", _join(QUAD_KAPPAS), "--dim", str(lane["dim"]),
        "--steps", str(lane["steps"]), "--opt", ",".join(lane["opts"]), "--quant", lane["quant"],
        "--ste", "trust-masked", "--seed", _join(seeds), "--out", str(out),
    ]
    check = partial(check_quadratic, kappas=QUAD_KAPPAS, opts=lane["opts"], seeds=seeds, steps=lane["steps"])
    return [Job("quadratic", argv, out, check)]


def _convergence(rng: random.Random, work: Path) -> list[Job]:
    seeds = _seed_list(rng, CONV_SEEDS)
    out = work / "convergence"
    argv = [
        "convergence", "--objective", "rosenbrock", "--dim", "10", "--quant", "floor-toy:0.25",
        "--lambda", "1", "--noise-std", "0.1", "--steps", _join(CONV_HORIZONS),
        "--seed", _join(seeds), "--out", str(out),
    ]
    return [Job("convergence", argv, out, partial(check_convergence, horizons=CONV_HORIZONS, seeds=seeds))]


def scaling_csv(rng: random.Random) -> tuple[str, dict[tuple[str, str], float]]:
    """Losses from the known law with multiplicative noise; returns the CSV
    text and the generating eff of each (method, precision) group."""
    gen = np.random.Generator(np.random.PCG64(rng.randrange(2**63)))
    effs = {("fp16", "FP"): 1.0}
    for g, eff in enumerate(gen.uniform(*LAW_EFF_RANGE, size=LAW_GROUPS)):
        effs[(f"q{g}", str(g + 2))] = float(eff)
    lines = ["method,P,N,D,loss"]
    for (method, precision), eff in effs.items():
        for n, d in LAW_GRID:
            loss = LAW["A"] / (n * eff) ** LAW["alpha"] + LAW["B"] / d ** LAW["beta"] + LAW["E"]
            loss *= 1.0 + LAW_NOISE * gen.standard_normal()
            lines.append(f"{method},{precision},{n!r},{d!r},{loss!r}")
    return "\n".join(lines) + "\n", effs


def _calibrate_fit(rng: random.Random, work: Path, packaged: dict[int, float]) -> list[Job]:
    calib_out = work / "calibrate"
    calib = Job(
        "calibrate-clip",
        ["calibrate-clip", "--bits", _join(CALIB_BITS), "--out", str(calib_out)],
        calib_out,
        partial(check_calibrate, bits=CALIB_BITS, packaged=packaged),
    )
    text, effs = scaling_csv(rng)
    csv_path = work / "inputs" / "losses.csv"
    fit_out = work / "fit"
    fit = Job(
        "fit-scaling",
        ["fit-scaling", "--input", str(csv_path), "--starts", str(FIT_STARTS),
         "--fit-seed", str(rng.randrange(1_000_000)), "--out", str(fit_out)],
        fit_out,
        partial(check_fit, effs=effs),
        inputs={csv_path: text},
    )
    return [calib, fit]


WORKLOADS = ("quadratic-int4", "quadratic-mxfp4", "convergence-floor", "calibrate-fit")


def build_jobs(workload: str, seed: int, pass_index: int, work: Path, packaged: dict[int, float]) -> list[Job]:
    """The job list of one pass; ``work`` is an empty directory for its files."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "quadratic-int4":
        return _quadratic(INT4, rng, work)
    if workload == "quadratic-mxfp4":
        return _quadratic(MXFP4, rng, work)
    if workload == "convergence-floor":
        return _convergence(rng, work)
    if workload == "calibrate-fit":
        return _calibrate_fit(rng, work, packaged)
    raise ValueError(f"unknown workload {workload!r}")
