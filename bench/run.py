#!/usr/bin/env python3
"""qatkit benchmark: runs a workload's CLI job list in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload quadratic-int4 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client calls ``qatkit.cli.main`` with generated inputs, one job after
another, for ``--seconds`` after a warm-up pass, and checks every job's
outputs.  With ``--trace 0`` it reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics (see tracing.py).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-run details (the
environment stamp, pass times, failures and the sha256 of every job output)
go to ``.bench_out/results/``; a traced run's spans to ``.bench_out/spans/``.

Exit status: 0 with a result printed, 1 if the harness itself failed, 2 if
the qatkit sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# one BLAS thread: the host is shared and has few cores, and make_spd/eigh at
# dim 512 oversubscribe it otherwise
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
COLD_START = "import qatkit.cli; from qatkit.quantize import default_clip_factor; print(repr(default_clip_factor(4)))"
DIGESTED_SUFFIXES = (".csv", ".tsv")


class BenchError(RuntimeError):
    """The harness could not produce a result."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs the passes of one workload, checking and digesting every job."""

    def __init__(self, workload: str, seed: int, work: Path, packaged: dict[int, float]):
        # imported here, after main() has pinned the BLAS threads numpy starts with
        from workloads import build_jobs
        from qatkit.cli import main

        self._build_jobs = build_jobs
        self._main = main
        self.workload = workload
        self.seed = seed
        self.work = work
        self.packaged = packaged
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: list[dict] = []

    def run_pass(self, index: int, tracer=None) -> tuple[float, int]:
        """Run pass ``index``; returns its summed job wall time and output bytes."""
        pass_dir = self.work / f"pass{index}"
        pass_dir.mkdir(parents=True)
        wall = 0.0
        out_bytes = 0
        try:
            for job in self._build_jobs(self.workload, self.seed, index, pass_dir, self.packaged):
                for path, text in job.inputs.items():
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)
                elapsed, problems = self._run_job(job, tracer)
                wall += elapsed
                files = sorted(job.out.iterdir()) if job.out.is_dir() else []
                out_bytes += sum(f.stat().st_size for f in files)
                self.digests.append(
                    {
                        "pass": index,
                        "job": job.name,
                        "files": {
                            f.name: _sha256(f)
                            for f in files
                            if f.name == "summary.json" or f.suffix in DIGESTED_SUFFIXES
                        },
                    }
                )
                if problems:
                    self.failures.append({"pass": index, "job": job.name, "problems": problems})
        finally:
            shutil.rmtree(pass_dir)
        return wall, out_bytes

    def _run_job(self, job, tracer) -> tuple[float, list[str]]:
        self.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = tracer.call_root(self._main, job.argv) if tracer else self._main(job.argv)
            except (Exception, SystemExit) as err:  # a job that raises has failed
                rc = err
            elapsed = time.perf_counter() - start
        if rc != 0:
            return elapsed, [f"exit {rc!r}: {stderr.getvalue().strip()[-500:]}"]
        try:
            return elapsed, job.check(job.out)
        except Exception as err:  # unreadable or malformed output
            return elapsed, [f"output check raised {err!r}"]


def cold_starts(count: int, expected_k4: float) -> list[float]:
    """Wall time of fresh interpreters importing qatkit.cli and loading the
    clip table; the first start (which compiles bytecode) is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.strip() != repr(expected_k4):
            raise BenchError(f"cold start failed: {proc.stdout.strip()} {proc.stderr.strip()[-500:]}")
        if i:
            samples.append(elapsed)
    return samples


class ReferenceLoop:
    """A fixed probe of how fast the shared host runs qatkit-like work now:
    Python bytecode, small numpy calls and a dim-512 matvec, about 0.1 s.

    The matrix is built row by row and lives as long as the probe, so the
    probe frees no large block: freeing one would raise glibc's mmap
    threshold and speed up the calibration quadratures, which a fresh CLI
    process does not enjoy.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        index = np.arange(512.0)
        self._matrix = np.empty((512, 512))
        for row in range(512):
            self._matrix[row] = 1.0 / (1.0 + np.abs(index - row))

    def __call__(self) -> float:
        np = self._np
        x = np.linspace(-1.0, 1.0, 64)
        v = np.ones(512)
        start = time.perf_counter()
        total = 0
        for k in range(300_000):
            total += k * k
        for _ in range(16_000):
            x = np.sqrt(np.abs(x) + 1.0) - 1.0
        for _ in range(800):
            v = self._matrix @ v
            v /= v.max()
        return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, packaged: dict[int, float]) -> dict:
    """One run: set-up samples, a warm-up pass, then passes until ``seconds``."""
    work = OUT / "work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(workload, seed, work, packaged)
    try:
        setup = [] if trace else cold_starts(SETUP_SAMPLES, packaged[4])
        runner.run_pass(-1)
        deadline = time.perf_counter() + seconds
        plain, traced, layers = [], [], []
        probes = []
        if not trace:
            reference = ReferenceLoop()
            probes.append(reference())
            while not plain or time.perf_counter() < deadline:
                plain.append(runner.run_pass(len(plain))[0])
                probes.append(reference())
            relative = [wall / ((before + after) / 2) for wall, before, after in zip(plain, probes, probes[1:])]
            values = {
                "wall_ref": statistics.median(relative),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            from tracing import Tracer

            tracer = Tracer()
            index = 0
            while not traced or time.perf_counter() < deadline:
                plain.append(runner.run_pass(index)[0])
                tracer.reset()
                tracer.pass_index = index + 1
                tracer.install()
                try:
                    wall, out_bytes = runner.run_pass(index + 1, tracer)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                layers.append(tracer.pass_metrics(wall, out_bytes))
                index += 2
            # median_low: an observed pass, so exact counts stay exact
            values = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
            # each traced pass against the untraced pass just before it, so
            # both see nearly the same host speed
            values["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain, traced))
            spans = OUT / "spans" / f"{workload}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload,
        "values": values,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "setup_samples": setup,
        "wall_s": statistics.median(plain),
        "plain_pass_walls": plain,
        "reference_walls": probes,
        "traced_pass_walls": traced,
        "digests": runner.digests,
    }


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment_stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    tree = hashlib.sha256()
    for path in sorted((SRC / "qatkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": tree.hexdigest(),
    }


def _metric_table(values: dict, listed: list[dict]) -> dict:
    """``values`` in BENCHMARK.json's order and units; the two name sets must match."""
    names = [m["name"] for m in listed]
    if set(names) != set(values):
        raise BenchError(f"metrics out of sync with BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def _report_line(result: dict, trace: bool) -> str:
    v = result["values"]
    ratio = result["failed"] / result["attempted"]
    head = f"{result['workload']:<18} fail_ratio={ratio:g} ({result['failed']}/{result['attempted']} jobs)"
    if trace:
        return head + f" passes={len(result['traced_pass_walls'])}+{len(result['plain_pass_walls'])}"
    return (
        head + f" wall_s={result['wall_s']:.4f} s wall_ref={v['wall_ref']:.3f} ref setup_s={v['setup_s']:.4f} s"
        f" peak_rss_mb={v['peak_rss_mb']:.1f} MB passes={len(result['plain_pass_walls'])}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qatkit" / "cli.py").is_file():
        print(f"error: qatkit sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy loads, so BLAS starts with this many threads
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, read_packaged_clip_table

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(workloads) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    packaged = read_packaged_clip_table(SRC / "qatkit" / "data" / "clip_factors.tsv")
    trace = bool(args.trace)

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    combined: dict = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            stamp = environment_stamp(workload, args.seed, args.seconds, trace)
            result = run_workload(workload, args.seed, args.seconds, trace, packaged)
            table = _metric_table(result["values"], listed)
            result_path = results_dir / f"{workload}-seed{args.seed}-trace{int(trace)}.json"
            details = {key: value for key, value in result.items() if key != "values"}
            result_path.write_text(json.dumps({"stamp": stamp, "metrics": table, **details}, indent=1) + "\n")
            print(f"# stamp {json.dumps(stamp)}")
            for failure in result["failures"][:5]:
                print(f"# FAILED pass {failure['pass']} {failure['job']}: {'; '.join(failure['problems'])}")
            print(_report_line(result, trace))
            if trace:
                traced_wall = statistics.median(result["traced_pass_walls"])
                shares = {n[:-7]: e["value"] / traced_wall for n, e in table.items() if n.endswith(".self_s")}
                print("# self-time share of traced wall: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
                for name, entry in table.items():
                    print(f"#   {name} = {entry['value']:.6g} {entry['unit']}")
            print(f"# results: {result_path.relative_to(ROOT)}")
            attempted += result["attempted"]
            failed += result["failed"]
            if len(workloads) == 1:
                combined = table
            else:
                combined.update({f"{workload}/{name}": entry for name, entry in table.items()})
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
