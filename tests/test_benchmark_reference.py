"""The benchmark's reference check holds on this tree.

perfbench/workloads.py is imported read-only. In a subprocess that pins one
BLAS thread before numpy is imported (perfbench/run.py's pin_threads), every
job of the certify pool and every rossler_mod and synchronverter reproduce
job is run and checked by Workload.check against perfbench/reference/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
run.pin_threads()
from workloads import CertifyWorkload, ReproduceWorkload

failed, counts = {}, {}
with tempfile.TemporaryDirectory() as tmp:
    for workload in (CertifyWorkload(), ReproduceWorkload(kinds=["rossler_mod", "synchronverter"])):
        workload.prepare(Path(tmp) / workload.name)
        jobs = workload.pool()
        counts[workload.name] = len(jobs)
        for job in jobs:
            problems = workload.check(job, workload.execute(job))
            if problems:
                failed[job.key] = problems
print(json.dumps({"counts": counts, "failed": failed}))
"""


def test_reference_check_passes_with_one_blas_thread():
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["counts"] == {"certify": 243, "reproduce": 32}
    assert result["failed"] == {}
