"""Print SHA-256 digests of kcontract trajectories, to compare two commits.

    python3 scripts/trace_digest.py --seed N

Run from the root of a source checkout; the package is imported from src/,
or from the directory KCONTRACT_SRC names (scripts/identity.py runs this
script on another commit's package that way).
At the benchmark's settings (perfbench/workloads.py) it runs the four
reproduction bundles, then a plain and a compound (k = 2) trajectory of the
example25 closed loop (models.closed_loop with the reference gain), then
`simulate --compound 2` and `volume` through the CLI on each built-in model,
then two runs whose field is called on an ndarray: `simulate` of a linear
model drawn from the seed (its field is `A @ x`), and a compound (k = 3)
trajectory of a 6-state compiled chain, whose C(6, 3) = 20 compound rows
run the numpy field of sim.integrate_compound. Last, for rossler_mod and
example25, whose fields raise states to integer powers, sim.flow_immersion
of a square over the middle half of the box in x1 and x2: numpy's
vectorised pow differs from libm's in the last bits of some of its rows,
so these lines pin integrate_batch's rows-as-integrate arithmetic.
Every array that sim.integrate, sim.integrate_compound and
sim.integrate_batch return during a run is hashed together with the run's
report or standard output, so equal digests mean byte-identical
trajectories, compound norms and reports. The arrays are hashed in the order
a run of one call after another returns them, also where the bundles run
integrations at once (stepper.concurrently), so a digest does not depend on
which thread finishes first.
"""

import argparse
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import threading
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [os.environ.get("KCONTRACT_SRC", str(ROOT / "src")), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from kcontract import cli, models, reproduce, sim, stepper  # noqa: E402
from workloads import BUNDLE_SEEDS, BUNDLE_SETTINGS, BUNDLES  # noqa: E402

SIM_T, SIM_K = "1", "2"
CLOSED_LOOP_T, CLOSED_LOOP_K = 1.0, 2
VOLUME_GRID, VOLUME_T = "32", "0.5"
LINEAR_DIM, CHAIN_DIM, CHAIN_K, CHAIN_T = 4, 6, 3, 1.0
HALF_BOX_MODELS, HALF_BOX_GRID, HALF_BOX_T = ("rossler_mod", "example25"), 64, 0.5


def chunks(*arrays):
    """The bytes hashed for arrays: each one's dtype and shape, then its data."""
    for a in arrays:
        if a is not None:
            a = np.ascontiguousarray(a)
            yield f"{a.dtype}{a.shape}".encode()
            yield a.tobytes()


class Recorder:
    """Hashes the arrays returned by the sim integrators while installed.

    Each return is keyed by where it falls in a run of one call after
    another: its count among the returns of its thread's current call path,
    after that path. stepper.concurrently is wrapped so that call i of it
    runs on the path of the concurrently call plus (i,). The returns are
    hashed in key order when the recorder is removed."""

    NAMES = ("integrate", "integrate_compound", "integrate_batch")

    def __init__(self):
        self.hash = hashlib.sha256()
        self.returns = []  # (key, chunks) of each integrator call
        self.local = threading.local()

    def add(self, *arrays):
        for chunk in chunks(*arrays):
            self.hash.update(chunk)

    def next_key(self):
        path, count = getattr(self.local, "path", ()), getattr(self.local, "count", 0)
        self.local.count = count + 1
        return (*path, count)

    def wrap(self, fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            arrays = ((out.times, out.states, out.compound_norms, np.array([out.truncated]))
                      if isinstance(out, sim.Trace) else out)
            self.returns.append((self.next_key(), list(chunks(*arrays))))
            return out
        return recorded

    def wrap_concurrently(self, fn):
        def on_path(path, call):
            saved = getattr(self.local, "path", ()), getattr(self.local, "count", 0)
            self.local.path, self.local.count = path, 0
            try:
                return call()
            finally:
                self.local.path, self.local.count = saved

        def concurrently(calls):
            key = self.next_key()
            return fn(functools.partial(on_path, (*key, i), call) for i, call in enumerate(calls))
        return concurrently

    def __enter__(self):
        self.saved = [(sim, name, getattr(sim, name)) for name in self.NAMES]
        self.saved.append((stepper, "concurrently", stepper.concurrently))
        for module, name, fn in self.saved:
            wrap = self.wrap_concurrently if module is stepper else self.wrap
            setattr(module, name, wrap(fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in self.saved:
            setattr(module, name, fn)
        for _, returned in sorted(self.returns, key=lambda entry: entry[0]):
            for chunk in returned:
                self.hash.update(chunk)


def bundle_digest(name: str, seed: int) -> str:
    with Recorder() as rec:
        result = reproduce.BUNDLES[name](seed=seed, **BUNDLE_SETTINGS[name])
    result.pop("trace", None)
    resolved = result.pop("resolved", None)
    if resolved is not None:
        rec.add(*resolved.mats, np.array(resolved.mus))
    rec.hash.update(cli.dumps(result).encode())
    return rec.hash.hexdigest()


def closed_loop_digest(seed: int) -> str:
    bundle = models.builtin("example25")
    K = reproduce.load_data("example25_design.json")["K_expected"]
    closed = models.closed_loop(bundle, np.reshape(K, (1, -1))).model
    x0 = bundle.box.sample(np.random.default_rng(seed), 1)[0]
    V0 = np.eye(closed.dim)[:, :CLOSED_LOOP_K]
    with Recorder() as rec:
        sim.integrate(closed.f, x0, CLOSED_LOOP_T)
        sim.integrate_compound(closed, x0, V0, CLOSED_LOOP_K, CLOSED_LOOP_T)
    return rec.hash.hexdigest()


def chain_digest(rng) -> str:
    """A compound trajectory of x_i' = -x_i + 0.5 x_(i+1)^2 (indices mod n)."""
    n = CHAIN_DIM
    chain = models.model_from_dict({
        "kind": "nonlinear", "dim": n,
        "f": [f"-x{i + 1} + 0.5*x{(i + 1) % n + 1}^2" for i in range(n)],
        "box": {"lower": [-1.0] * n, "upper": [1.0] * n}}).model
    x0 = rng.uniform(-1.0, 1.0, n)
    with Recorder() as rec:
        sim.integrate_compound(chain, x0, np.eye(n)[:, :CHAIN_K], CHAIN_K, CHAIN_T)
    return rec.hash.hexdigest()


def half_box_digest(name: str) -> str:
    """The flow of a square over the middle half of the box in x1 and x2,
    at the box centre in every other coordinate, and its area."""
    bundle = models.builtin(name)
    box = bundle.box

    def square(r):
        x = np.tile(box.center(), (len(r), 1))
        x[:, :2] = box.lower[:2] + (0.25 + 0.5 * r) * (box.upper - box.lower)[:2]
        return x

    grid = sim.ImmersionGrid.from_function(square, 2, HALF_BOX_GRID, box.dim)
    with Recorder() as rec:
        flowed = sim.flow_immersion(grid, bundle.model.f, HALF_BOX_T)
    area = None if flowed.truncated else sim.volume_of_immersion(flowed, np.eye(box.dim))
    rec.hash.update(f"truncated {flowed.truncated} area {area!r}".encode())
    return rec.hash.hexdigest()


def cli_digest(argv) -> str:
    buf = io.StringIO()
    with Recorder() as rec, redirect_stdout(buf):
        code = cli.main(list(argv))
    rec.hash.update(f"exit {code}\n{buf.getvalue()}".encode())
    return rec.hash.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    for name in BUNDLES:
        print(f"bundle/{name} {bundle_digest(name, args.seed % BUNDLE_SEEDS)}")
    print(f"closed_loop/example25 {closed_loop_digest(args.seed)}")
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        for name in models.BUILTINS:
            bundle = models.builtin(name)
            doc = Path(tmp) / f"{name}.json"
            doc.write_text(json.dumps(bundle.to_json()))
            box = bundle.box
            x0 = box.lower + rng.random(box.dim) * (box.upper - box.lower)
            x0_arg = "--x0=" + ",".join(repr(float(v)) for v in x0)
            print(f"simulate/{name} " + cli_digest(
                ("simulate", "--model", str(doc), x0_arg, "--t", SIM_T,
                 "--compound", SIM_K)))
            print(f"volume/{name} " + cli_digest(
                ("volume", "--model", str(doc), "--grid", VOLUME_GRID, "--t", VOLUME_T)))
        rng = np.random.default_rng([args.seed, 1])
        doc = Path(tmp) / "linear.json"
        A = rng.standard_normal((LINEAR_DIM, LINEAR_DIM)) - 2.0 * np.eye(LINEAR_DIM)
        doc.write_text(json.dumps({"kind": "linear", "A": A.tolist()}))
        x0_arg = "--x0=" + ",".join(repr(float(v)) for v in rng.standard_normal(LINEAR_DIM))
        print("simulate/linear " + cli_digest(
            ("simulate", "--model", str(doc), x0_arg, "--t", SIM_T)))
    print(f"compound/chain{CHAIN_DIM} {chain_digest(rng)}")
    for name in HALF_BOX_MODELS:
        print(f"flow_immersion/{name} {half_box_digest(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
