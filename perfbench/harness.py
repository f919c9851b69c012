"""Measurement loop of the kcontract benchmark.

A measured run (tracing off) repeats the set-up, then runs rounds of jobs
until the time is used, and reports end-to-end metrics. A traced run runs a
fixed number of rounds untraced, installs the tracer, runs the same rounds
again, and reports per-layer metrics.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibration import Calibration
from tracer import Tracer, per_layer
from workloads import BUNDLES, Job

SETUP_REPEATS = 9


@dataclass
class JobRecord:
    round: int
    job: Job
    start: float        # perf_counter around the call into the package
    end: float
    problems: list
    identical: bool
    seconds: float = 0.0   # reported time: measured, or at reference speed


class Run:
    """Jobs executed in one process, with their checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.jobs: list[JobRecord] = []

    def run_round(self, r: int, tracer: Tracer | None = None) -> float:
        """Run round r; return the summed measured job time."""
        total = 0.0
        for job in self.workload.round_jobs(self.seed, r):
            if tracer is not None:
                tracer.job_id = len(self.jobs)
            out = self.workload.execute(job)
            try:
                problems = self.workload.check(job, out)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems = [f"check could not read the report: {exc!r}"]
            self.jobs.append(JobRecord(r, job, out.start, out.end, problems,
                                       self.workload.identical(job, out), out.seconds))
            total += out.seconds
        return total

    @property
    def failures(self):
        return [(rec.job.key, rec.problems) for rec in self.jobs if rec.problems]


def set_up(workload, root: Path, scratch: Path) -> list[tuple[float, float]]:
    """Repeats of: import kcontract in a fresh interpreter, then generate and
    write the workload's documents. Returns the (start, end) of each."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    intervals = []
    for i in range(SETUP_REPEATS):
        workdir = scratch / f"docs{i}"  # the last one serves the measured jobs
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kcontract.cli"], env=env, cwd=root,
                       check=True, timeout=120)
        workload.prepare(workdir)
        intervals.append((t0, time.perf_counter()))
    return intervals


def measure(workload, seed: int, seconds: float) -> Run:
    """Rounds until the time is used, but at least min_rounds and min_jobs."""
    run = Run(workload, seed)
    rounds = []
    t_start = time.perf_counter()
    while True:
        rounds.append(run.run_round(len(rounds)))
        elapsed = time.perf_counter() - t_start
        enough = len(rounds) >= workload.min_rounds and len(run.jobs) >= workload.min_jobs
        if enough and elapsed + statistics.median(rounds) > seconds:
            return run


def hd_quantile(values, p: float, grid: int = 100_000) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution. Unlike a
    single order statistic it does not jump when the quantile falls between
    two job kinds of different cost."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(grid) + 0.5) / grid
    density = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
                     - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    cdf = np.concatenate([[0.0], np.cumsum(density)])
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.arange(grid + 1) / grid, cdf / cdf[-1]))
    return float(weights @ x)


def measured(workload, seed: int, seconds: float, root: Path, scratch: Path):
    """A measured run under calibration; end-to-end metrics at reference speed."""
    with Calibration(workload.calibration_kernel) as calib:
        setups = set_up(workload, root, scratch)
        run = measure(workload, seed, seconds)
    normalized = calib.normalized([rec.start for rec in run.jobs], [rec.end for rec in run.jobs])
    for rec, seconds in zip(run.jobs, normalized):
        rec.seconds = float(seconds)
    rounds = {}
    for rec in run.jobs:
        rounds[rec.round] = rounds.get(rec.round, 0.0) + rec.seconds
    job_ms = np.array([rec.seconds for rec in run.jobs]) * 1e3
    metrics = {
        "wall_s": (statistics.median(rounds.values()), "s"),
        "job_p50_ms": (hd_quantile(job_ms, 0.5), "ms"),
        "job_p90_ms": (hd_quantile(job_ms, 0.9), "ms"),
        "setup_s": (float(np.median(calib.normalized(*zip(*setups)))), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return run, metrics, {"kernel": workload.calibration_kernel,
                          "reference_s": calib.reference_s, "kernel_s": calib.durations,
                          "kernel_at": calib.starts, "setups": setups}


def traced(workload, seed: int, spans_path: Path | None) -> tuple[Run, dict]:
    """The fixed rounds untraced, then traced; per-layer metrics. A first,
    unrecorded round warms caches so the two passes compare like for like.
    Both passes run under calibration: kernel time is taken out of every
    span, and the tracing overhead compares the passes at reference speed."""
    run = Run(workload, seed)
    tracer = Tracer()
    with Calibration(workload.calibration_kernel) as calib:
        run.run_round(0)
        run.jobs.clear()
        for r in range(workload.traced_rounds):
            run.run_round(r)
        n_untraced = len(run.jobs)
        with tracer.installed():
            for r in range(workload.traced_rounds):
                run.run_round(r, tracer)
    starts = np.array([rec.start for rec in run.jobs])
    ends = np.array([rec.end for rec in run.jobs])
    normalized = calib.normalized(starts, ends)
    untraced, traced_jobs = run.jobs[:n_untraced], slice(n_untraced, None)
    overhead = normalized[traced_jobs].sum() / normalized[:n_untraced].sum() - 1.0
    traced_s = float((ends - starts - calib.spent(starts, ends))[traced_jobs].sum())
    bundle_s = {name: float(np.median([s for rec, s in zip(untraced, normalized)
                                       if rec.job.kind == name] or [0.0])) for name in BUNDLES}
    totals = tracer.totals(calib.spent)
    if spans_path is not None:
        tracer.save(spans_path)
    identical = sum(rec.identical for rec in run.jobs) / len(run.jobs)
    return run, per_layer(totals, traced_s, overhead, identical, bundle_s)


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "commit": git_commit(root),
        "platform": platform.platform(),
    }


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; a source tree
    without .git has none."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def run_benchmark(workload, seed: int, seconds: float, trace: bool, root: Path,
                  out_dir: Path) -> dict:
    """One benchmark run; returns the result object printed last."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    scratch = out_dir / f"tmp-{tag}-{os.getpid()}"
    calibration = None
    try:
        if trace:
            workload.prepare(scratch / "docs")
            run, metrics = traced(workload, seed, out_dir / f"spans-{workload.name}.npz")
        else:
            run, metrics, calibration = measured(workload, seed, seconds, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failures = run.failures
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(root),
        "calibration": calibration,
        "jobs": [{"round": rec.round, "key": rec.job.key, "ms": rec.seconds * 1e3,
                  "measured_ms": (rec.end - rec.start) * 1e3, "at": rec.start,
                  "problems": rec.problems,
                  "identical": rec.identical} for rec in run.jobs],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    for key, problems in failures:
        print(f"FAILED {key}: {'; '.join(problems)}")
    return {
        "correct": not failures,
        "attempted": len(run.jobs),
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
