"""Benchmark a parent commit against this working tree in alternating pairs.

    python3 scripts/bench_ab.py --parent REV [--out BENCH.json]

Run from the root of a kcontract git checkout. The parent's committed files
are unpacked with `git archive` into a temporary directory; the change is
this working tree. Every workload of BENCHMARK.json runs for its
run_seconds in 10 pairs: pair i runs `perfbench/run.py --seed i+1` once on
each side, the parent first in even pairs and the change first in odd
ones, so a slow stretch of a shared host does not land on one side only.
After the pairs, one traced run (`--trace 1`, seed 1) per side and
workload gives the per-layer metrics.

The output records the host, with the cores this process may run on
(nproc) and the machine's (cpu_count): the C loop splits large batches
between threads, one a usable core. It holds every run's end-to-end
metrics, the change/parent ratio of each pair, and per metric and workload
both sides' median and quartiles plus the number of pairs the change won
(lower is better for every end-to-end metric of the benchmark).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> Path:
    """The committed files of rev, written under dest."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object of one perfbench/run.py run in checkout."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        out[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "median_ratio": statistics.median(c / p for c, p in zip(change, parent)),
            "change_wins": sum(c < p for c, p in zip(change, parent)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--out", type=Path, help="write the results here (default: stdout)")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    report = {
        "parent": git("rev-parse", args.parent),
        "change": "working tree",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": platform.processor(), "nproc": len(os.sched_getaffinity(0)),
                 "cpu_count": os.cpu_count()},
        "settings": {"pairs": PAIRS, "seconds": seconds},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": unpack(args.parent, Path(tmp) / "parent"), "change": ROOT}
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": i + 1, "first": order[0]}
                for side in order:
                    pair[side] = run(sides[side], workload, i + 1, seconds, 0)
                pair["ratio"] = {name: pair["change"]["metrics"][name]["value"]
                                 / pair["parent"]["metrics"][name]["value"]
                                 for name in pair["parent"]["metrics"]}
                pairs.append(pair)
                print(f"# {workload} pair {i + 1}: wall_s ratio "
                      f"{pair['ratio']['wall_s']:.3f}", file=sys.stderr)
            traced = {side: run(sides[side], workload, 1, seconds, 1) for side in sides}
            report["workloads"][workload] = {"summary": summarize(pairs), "pairs": pairs,
                                             "traced": traced}
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
