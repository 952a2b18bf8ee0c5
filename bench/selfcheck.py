#!/usr/bin/env python3
"""Self-checks of the benchmark itself.  Run from the repository root:

    python3 bench/selfcheck.py

1. Corrupted outputs count as failed jobs: a NaN gap, a missing or truncated
   trace, a job that exits non-zero and a job that raises each give
   fail_ratio 1/1, while the same pass uncorrupted gives 0/1.
2. Every metric BENCHMARK.json names is emitted, with its unit, for every
   workload with ``--trace 0`` and ``--trace 1`` (one-second runs).
3. In a directory holding only BENCHMARK.json and ``bench/``, run.py exits
   non-zero without printing a result.

Exits 0 when every check passes and prints one line per check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "selfcheck"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _rewrite_summary(out: Path, edit) -> None:
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))


def _nan_gap(out: Path) -> None:
    _rewrite_summary(out, lambda s: s["cells"][0]["final_gaps"].__setitem__(0, math.nan))


def _missing_trace(out: Path) -> None:
    next(out.glob("trace_*.csv")).unlink()


def _truncated_trace(out: Path) -> None:
    path = next(out.glob("trace_*.csv"))
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def check_corruption_counts() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from run import BLAS_ENV, BLAS_THREADS, Runner

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import qatkit.cli
    from workloads import read_packaged_clip_table

    real_main = qatkit.cli.main
    packaged = read_packaged_clip_table(ROOT / "src" / "qatkit" / "data" / "clip_factors.tsv")

    def corrupting(damage):
        def main(argv):
            rc = real_main(argv)
            damage(Path(argv[argv.index("--out") + 1]))
            return rc

        return main

    def exits_nonzero(argv):
        return 3

    def raises(argv):
        raise RuntimeError("injected")

    cases = {
        "clean": (real_main, 0),
        "NaN gap": (corrupting(_nan_gap), 1),
        "missing trace": (corrupting(_missing_trace), 1),
        "truncated trace": (corrupting(_truncated_trace), 1),
        "exit 3": (exits_nonzero, 1),
        "raises": (raises, 1),
    }
    errors = []
    try:
        for label, (main, expected_failed) in cases.items():
            qatkit.cli.main = main
            runner = Runner("quadratic-int4", 0, SCRATCH / "corrupt", packaged)
            runner.run_pass(0)
            got = f"{len(runner.failures)}/{runner.attempted}"
            status = "ok" if got == f"{expected_failed}/1" else "WRONG"
            print(f"corruption {label:<16} fail_ratio {got} ({status})")
            if status != "ok":
                errors.append(f"{label}: fail_ratio {got}, expected {expected_failed}/1")
    finally:
        qatkit.cli.main = real_main
    return errors


def _run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_metrics_emitted() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in [w["name"] for w in spec["workloads"]]:
            proc = _run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{workload} trace={trace}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            problems = []
            if set(result) != RESULT_KEYS:
                problems.append(f"result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"correct={result['correct']} failed={result['failed']}/{result['attempted']}")
            if emitted != expected:
                problems.append(f"metric/unit mismatch {sorted(set(emitted.items()) ^ set(expected.items()))}")
            print(f"metrics {workload:<18} trace={trace} {len(emitted)} emitted ({'ok' if not problems else 'WRONG'})")
            errors += [f"{workload} trace={trace}: {p}" for p in problems]
    return errors


def check_bare_directory() -> list[str]:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run_bench(bare, "quadratic-int4", 0)
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"bare directory: exit {proc.returncode}, stdout {'empty' if not proc.stdout.strip() else 'not empty'} ({'ok' if ok else 'WRONG'})")
    return [] if ok else [f"bare directory run exited {proc.returncode} with stdout {proc.stdout[-200:]!r}"]


def main() -> int:
    errors = check_corruption_counts() + check_bare_directory() + check_metrics_emitted()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selfcheck: " + ("all checks passed" if not errors else f"{len(errors)} problem(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
