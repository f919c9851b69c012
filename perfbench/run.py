"""Run one workload of the kcontract benchmark and print its metrics.

    python3 perfbench/run.py --workload {reproduce,flow,certify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
``src/``, never from an installed copy. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. Run records and spans are written under perfbench/out/.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("reproduce", "flow", "certify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread; call before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kcontract" / "__init__.py").is_file():
        print(f"error: no kcontract sources under {ROOT / 'src'}; "
              "run from a kcontract source checkout", file=sys.stderr)
        return 2
    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import kcontract
    if Path(kcontract.__file__).resolve().parent != ROOT / "src" / "kcontract":
        print(f"error: imported kcontract from {kcontract.__file__}", file=sys.stderr)
        return 2
    from harness import run_benchmark
    from workloads import WORKLOADS

    result = run_benchmark(WORKLOADS[args.workload](), args.seed, args.seconds,
                           bool(args.trace), ROOT, HERE / "out")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
