"""Run all four reproduction bundles and print their reports."""

import sys
import time

from kcontract import cli, reproduce


def ms(seconds: float) -> str:
    """A time in ms to three significant digits, written without an exponent."""
    return f"{float(f'{1e3 * seconds:.3g}'):g} ms"


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
        print(f"# {name}: {status} in {ms(time.time() - t1)}", file=sys.stderr)
        failures += status != "success"
    print(f"# total: {ms(time.time() - t0)}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
