"""Run all four reproduction bundles and print their reports."""

import sys
import time

from kcontract import cli, reproduce


def main():
    t0 = time.time()
    failures = 0
    for name, fn in reproduce.BUNDLES.items():
        t1 = time.time()
        result = fn(seed=0)
        result.pop("trace", None)
        result.pop("resolved", None)
        print(cli.dumps(result, indent=2))
        status = result["verdict"]
        print(f"# {name}: {status} in {time.time() - t1:.1f}s", file=sys.stderr)
        failures += status != "success"
    print(f"# total: {time.time() - t0:.1f}s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
