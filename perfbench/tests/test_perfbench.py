"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from harness import run_benchmark, traced  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "reproduce": ["example25"],
    "flow": ["simulate/rossler_mod/k3/t1", "volume/example25/G16/t0.2"],
    "certify": ["analyze-lin/n4/k3", "certify-lin/n4/k2", "synth-lin/n12/k2",
                "verify-nl/synchronverter", "verify-nl/rossler_mod"],
}


def tiny(name):
    workload = wl.WORKLOADS[name](kinds=TINY[name])
    workload.min_jobs = workload.min_rounds = workload.traced_rounds = 1
    return workload


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = run_benchmark(tiny(name), 3, 0.0, trace, ROOT, tmp_path)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
    json.dumps(result, allow_nan=False)


def test_same_seed_generates_identical_inputs(tmp_path):
    def inputs(tag, seed):
        workload = wl.WORKLOADS["certify"]()
        workload.prepare(tmp_path / tag)
        docs = {p.name: p.read_bytes() for p in sorted((tmp_path / tag).iterdir())}
        jobs = [(job.key, [a.replace(str(tmp_path / tag), "") for a in job.argv])
                for r in range(3) for job in workload.round_jobs(seed, r)]
        return docs, jobs

    assert inputs("a", 7) == inputs("b", 7)
    assert inputs("c", 7)[1] != inputs("d", 8)[1]
    flow = wl.WORKLOADS["flow"]()
    flow.workdir = tmp_path
    assert flow.round_jobs(5, 2) == flow.round_jobs(5, 2)


def test_traced_counts_repeat_exactly(tmp_path):
    counted = ("sim.rk4_steps", "expressions.f_calls", "nl_verify.vertices",
               "numkernel.lyap_solves")

    def counts():
        out = {}
        for name in ("flow", "certify"):
            workload = tiny(name)
            workload.prepare(tmp_path / f"{name}{len(os.listdir(tmp_path))}")
            run, metrics = traced(workload, 11, None)
            assert not run.failures
            out.update({k: v for k, (v, _) in metrics.items() if k in counted and v})
        return out

    first = counts()
    assert sorted(first) == sorted(counted)
    assert counts() == first


def test_checks_trip_on_a_wrong_expectation(tmp_path):
    workload = tiny("certify")
    workload.prepare(tmp_path / "docs")
    job = workload.make_job("analyze-lin/n4/k3", 0)
    out = workload.execute(job)
    assert workload.check(job, out) == []

    wrong_exit = wl.Job(job.kind, job.key, job.argv, expect_exit=1)
    assert workload.check(wrong_exit, out)

    ref = json.loads(json.dumps(workload.reference))
    path = "/margins/0/1"
    ref[job.key]["leaves"][path] *= 1 + 1e-7
    assert any(path in p for p in workload.check(job, out, reference=ref))

    out.report["margins"][0][1] += 1e-6
    assert any("numpy" in p for p in workload.check(job, out))

    bundle = tiny("reproduce")
    bjob = bundle.round_jobs(0, 0)[0]
    bout = bundle.execute(bjob)
    assert bundle.check(bjob, bout) == []
    bout.report["checks"]["three_equilibria"] = False
    assert bundle.check(bjob, bout)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
