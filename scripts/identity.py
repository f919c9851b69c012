"""Check that this working tree gives a parent commit's outputs byte for byte.

    python3 scripts/identity.py --parent REV

Run from the root of a kcontract git checkout. The parent's committed files
are unpacked with `git archive` (bench_ab.unpack) into a temporary
directory; the change is this working tree. This working tree's
scripts/trace_digest.py --seed 3 and --seed 5, scripts/cert_digest.py
--seed 0 and --seed 1, and scripts/run_bundles.py run on each side's
package (PYTHONPATH and KCONTRACT_SRC name the side's src/), once with the
C compiler and once with CC=false (the Python loop), so a line the change
adds to a digest script is printed on both sides. It compares each run's
standard output and exit status, prints the lines that differ, and exits 1
on any difference, else 0.

Every run has one BLAS thread (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS set to 1), as perfbench/run.py pins it. OpenBLAS splits a
product between threads in a way that can change its rounding: with two
threads cert_digest.py --seed 0 prints other build_certificate,
stabilizability_certificate and construct_W digests than with one, so an
unpinned comparison would check arithmetic the benchmark never runs.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_ab import ROOT, unpack  # noqa: E402

JOBS = (("trace_digest.py", "--seed", "3"), ("trace_digest.py", "--seed", "5"),
        ("cert_digest.py", "--seed", "0"), ("cert_digest.py", "--seed", "1"),
        ("run_bundles.py",))
COMPILERS = {"compiler": {}, "CC=false": {"CC": "false"}}
ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def output(checkout: Path, job: tuple, env: dict) -> list:
    """The standard output lines of one of this working tree's scripts run on
    checkout's package, from checkout, then its exit status."""
    src = str(checkout / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / job[0]), *job[1:]],
                          cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, **ONE_THREAD, "PYTHONPATH": src,
                               "KCONTRACT_SRC": src, **env})
    return [*proc.stdout.splitlines(), f"exit status {proc.returncode}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision whose outputs are expected")
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        parent = unpack(args.parent, Path(tmp) / "parent")
        for label, env in COMPILERS.items():
            for job in JOBS:
                name = f"{' '.join(job)} ({label})"
                t0 = time.time()
                want, got = output(parent, job, env), output(ROOT, job, env)
                diff = list(difflib.unified_diff(want, got, f"{args.parent}: {name}",
                                                 f"working tree: {name}", n=0, lineterm=""))
                print("\n".join(diff) if diff else f"same: {name}", flush=True)
                print(f"# {name}: {time.time() - t0:.1f}s", file=sys.stderr)
                differ += bool(diff)
    print(f"{differ} of {len(COMPILERS) * len(JOBS)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
