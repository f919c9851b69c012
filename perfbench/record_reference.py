"""Record the reference outputs the benchmark checks jobs against.

    python3 perfbench/record_reference.py [reproduce flow certify]

Runs every job any seed can draw (every kind and input variant, and every
bundle seed) once and writes perfbench/reference/<workload>.json with each
job's exit code, the SHA-256 of its report and the report's numeric fields.
Record on the code the benchmark is meant to hold later changes to; a
change that alters results on purpose records again and says so.
"""

import json
import platform
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, pin_threads


def main(names) -> int:
    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from harness import git_commit
    from workloads import REFERENCE_DIR, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]()
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            workload.prepare(Path(tmp) / "docs")
            jobs = {}
            for job in workload.pool():
                out = workload.execute(job)
                jobs[job.key] = workload.record(out)
                print(f"{name} {job.key} exit {out.exit_code} {out.seconds:.3f} s", flush=True)
        doc = {"recorded_on": {"commit": git_commit(ROOT), "python": platform.python_version(),
                               "numpy": np.__version__},
               "jobs": jobs}
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["reproduce", "flow", "certify"]))
