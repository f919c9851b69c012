"""Command-line interface.

Every command returns its report and the inputs it ran on; main prints the
report once as strict JSON (sorted keys, fixed seed defaulting to 0, digest
of the effective inputs) and exits with 0 on accept/success, 1 on any other
verdict (a legitimate negative), 2 on usage or data errors, non-finite float
options included. Traces are written as CSV next to the report when --out is
given.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import lin_contraction as lc
from . import lin_synthesis as ls
from . import models, nl_verify as nv, reproduce, sim
from .numkernel import NumericalError, check_lyapunov_size

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(obj, **kw) -> str:
    """Strict JSON with sorted keys: numpy arrays and scalars become plain
    Python, and a non-finite float raises ValueError instead of printing NaN."""
    return json.dumps(obj, sort_keys=True, default=_plain, allow_nan=False, **kw)


def emit(report: dict, inputs) -> None:
    digest = hashlib.sha256(dumps(inputs, separators=(",", ":")).encode()).hexdigest()
    print(dumps({**report, "inputs_digest": digest}, indent=2))


def _load_model(args, kind: str | None = None, needs_B: bool = False) -> models.ModelBundle:
    """The --model document, required to be of the given kind and to carry B."""
    bundle = models.parse_model(Path(args.model).read_text())
    if kind is not None and bundle.kind != kind:
        raise ValueError(f"{args.cmd} needs a {kind} model (kind == {kind!r})")
    if needs_B and bundle.B is None:
        raise ValueError("model must carry an input matrix B")
    return bundle


def _parse_vector(text: str) -> np.ndarray:
    x = np.array([float(v) for v in text.split(",")], dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"--x0 must be finite, got {text}")
    return x


def cmd_counts(args):
    n1, n2 = lc.variable_counts(args.n, args.k)
    return ({"command": "counts", "N1": n1, "N2": n2,
             "anchors": ["unknown-count-comparison"], "verdict": "success"},
            {"n": args.n, "k": args.k})


def cmd_analyze_lin(args):
    bundle = _load_model(args, "linear")
    verdict, margin = lc.k_contractive_lti(bundle.A, args.k)
    return {
        "command": "analyze-lin",
        "k": args.k,
        "verdict": "accept" if verdict else "reject",
        "margins": [["topk_realpart_sum", margin]],
        "anchors": ["lti-spectral-test"],
    }, {"model": bundle.to_json(), "k": args.k}


def cmd_certify_lin(args):
    bundle = _load_model(args, "linear")
    check_lyapunov_size(bundle.dim)  # outside the try: too large is a usage error
    inputs = {"model": bundle.to_json(), "k": args.k}
    try:
        cert = lc.build_certificate(bundle.A, args.k)
    except (ValueError, NumericalError) as exc:
        return {"command": "certify-lin", "k": args.k, "verdict": "reject",
                "reason": str(exc), "anchors": ["generalized-lyapunov-certificate"]}, inputs
    report = lc.verify_certificate(bundle.A, args.k, cert, slack=args.slack)
    cert_doc = {"ell": cert.ell, "k": cert.k, "mus": cert.mus, "ds": cert.ds,
                "mats": cert.mats}
    if args.out:
        Path(args.out).write_text(dumps(cert_doc, indent=2))
    return {
        "command": "certify-lin",
        "k": args.k,
        "verdict": "accept" if report.verdict else "reject",
        "margins": report.margins,
        "anchors": ["generalized-lyapunov-certificate"],
        "certificate": cert_doc,
    }, inputs


def cmd_stabilizable(args):
    bundle = _load_model(args, "linear", needs_B=True)
    ok, diag = ls.k_order_stabilizable(bundle.A, bundle.B, args.k)
    return {
        "command": "stabilizable", "k": args.k,
        "verdict": "accept" if ok else "reject",
        "diagnostics": diag,
        "anchors": ["uncontrollable-block-test"],
    }, {"model": bundle.to_json(), "k": args.k}


def cmd_synth_lin(args):
    bundle = _load_model(args, "linear", needs_B=True)
    check_lyapunov_size(bundle.dim)  # outside the try: too large is a usage error
    inputs = {"model": bundle.to_json(), "k": args.k, "rho": args.rho}
    try:
        cert = ls.stabilizability_certificate(bundle.A, bundle.B, args.k)
    except (ValueError, NumericalError) as exc:
        return {"command": "synth-lin", "k": args.k, "verdict": "reject",
                "reason": str(exc), "anchors": ["stabilizability-certificate"]}, inputs
    K = ls.synthesize_gain(cert, bundle.B, rho=args.rho)
    closed_ok, margin = lc.k_contractive_lti(bundle.A - bundle.B @ K, args.k)
    return {
        "command": "synth-lin", "k": args.k, "rho": args.rho,
        "K": K,
        "closed_loop_margin": margin,
        "margins": [["closed_loop_topk_sum", margin]]
        + [[f"W_{i}", m] for i, m in enumerate(ls.certificate_margins(bundle.A, bundle.B, cert))],
        "verdict": "accept" if closed_ok else "reject",
        "anchors": ["stabilizability-certificate", "colinear-gain"],
        "certificate": {"ell": cert.ell, "mus": cert.mus, "ds": cert.ds, "mats": cert.mats},
    }, inputs


def cmd_verify_nl(args):
    bundle = _load_model(args, "nonlinear")
    cert_doc = json.loads(Path(args.cert).read_text())
    cert = reproduce.cert_from_data(cert_doc)
    slack = args.slack if args.slack is not None else reproduce.data_slack(cert_doc)
    report = nv.verify_nl_certificate(bundle.model, bundle.box, cert, slack=slack)
    return {
        "command": "verify-nl",
        "slack": slack,
        "verdict": "accept" if report.verdict else "reject",
        "margins": report.margins,
        "diagnostics": report.diagnostics,
        "anchors": [f"constant-metric-pair/vertex-{report.data['worst_vertex']['P1']}"],
        "report": reproduce.report_entry(report),
    }, {"model": bundle.to_json(), "cert": cert_doc, "slack": slack}


def cmd_synth_nl(args):
    bundle = _load_model(args, "nonlinear", needs_B=True)
    doc = json.loads(Path(args.cert).read_text())
    design = reproduce.design_from_data(doc)
    slack = args.slack if args.slack is not None else reproduce.data_slack(doc)
    K, omega, report = nv.synthesize_nl_gain(bundle.model, bundle.box, B=bundle.B, slack=slack,
                                             **design)
    return {
        "command": "synth-nl",
        "K": K,
        "omega": omega,
        "verdict": "accept" if report.verdict else "reject",
        "margins": report.margins,
        "diagnostics": report.diagnostics,
        "anchors": ["gain-formula", "excess-rate"],
    }, {"model": bundle.to_json(), "design": doc, "slack": slack}


def cmd_simulate(args):
    bundle = _load_model(args)
    x0 = _parse_vector(args.x0)
    if x0.shape != (bundle.dim,):
        raise ValueError(f"--x0 has {x0.size} entries for a model of dimension {bundle.dim}")
    if args.compound and not 1 <= args.compound <= bundle.dim:  # 0: no compound
        raise ValueError(f"--compound must be in [1, n] for a model of dimension "
                         f"n = {bundle.dim}, got {args.compound}")
    if bundle.kind == "linear":
        if args.compound:
            raise ValueError("simulate --compound needs a nonlinear model")
        A = bundle.A
        tr = sim.integrate(lambda x: A @ x, x0, args.t, args.h)
    elif args.compound:
        tr = sim.integrate_compound(bundle.model, x0, np.eye(bundle.dim)[:, :args.compound],
                                    args.compound, args.t, args.h)
    else:
        tr = sim.integrate(bundle.model.f, x0, args.t, args.h)
    label = sim.classify_attractor(tr)
    if args.out:
        sim.trace_to_csv(tr, args.out)
    report = {
        "command": "simulate",
        "samples": len(tr),
        "final_state": tr.states[-1],
        "attractor": label,
        "truncated": tr.truncated,
        "verdict": "failure" if tr.truncated else "success",
        "anchors": ["trajectory" if not args.compound else "compound-trajectory"],
    }
    if args.compound:  # a truncated trace has no decay to fit
        report["decay_fit"] = None if tr.truncated else dict(
            zip(("a", "b", "residual"), sim.fit_decay(tr)))
    return report, {"model": bundle.to_json(), "x0": x0, "t": args.t,
                    "h": args.h, "compound": args.compound}


def cmd_volume(args):
    bundle = _load_model(args)
    dim = bundle.dim
    if dim < 2:
        raise ValueError("volume needs dimension >= 2")
    if bundle.kind == "linear":
        A = bundle.A
        field = lambda X: X @ A.T
        def immersion(r):
            x = np.zeros((len(r), dim))
            x[:, :2] = r
            return x
    else:
        model, box = bundle.model, bundle.box
        c = box.center()
        delta = 0.01 * float(np.min(box.upper - box.lower))
        def immersion(r):
            x = np.tile(c, (len(r), 1))
            x[:, :2] += delta * r
            return x
        field = model.f
    grid = sim.ImmersionGrid.from_function(immersion, 2, args.grid, dim)
    v0 = sim.volume_of_immersion(grid, np.eye(dim))
    if not v0 > 0:  # a box of zero width in some axis gives a square of zero area
        raise ValueError(f"volume needs an initial square of positive area, got V0 = {v0}")
    flowed = sim.flow_immersion(grid, field, args.t, args.h)
    report = {"command": "volume", "V0": v0, "anchors": ["area-transport"]}
    if flowed.truncated:  # a node's flow turned non-finite: there is no area at t
        report.update(Vt=None, ratio=None, truncated=True, verdict="failure")
    else:
        v1 = sim.volume_of_immersion(flowed, np.eye(dim))
        report.update(Vt=v1, ratio=v1 / v0, verdict="success")
    return report, {"model": bundle.to_json(), "grid": args.grid, "t": args.t, "h": args.h}


def cmd_reproduce(args):
    result = reproduce.BUNDLES[args.name](seed=args.seed)
    trace = result.pop("trace", None)
    resolved = result.pop("resolved", None)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if trace is not None:
            sim.trace_to_csv(trace, outdir / f"{args.name}_trace.csv")
        if resolved is not None:
            (outdir / f"{args.name}_resolved_cert.json").write_text(dumps({
                "P0": resolved.P0, "P1": resolved.P1, "mu0": resolved.mu0,
                "mu1": resolved.mu1, "k": resolved.k}, indent=2))
    result["command"] = f"reproduce {args.name}"
    return result, {"bundle": args.name, "seed": args.seed}


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors main reports as JSON, as it does
    every other error, where argparse would print text and exit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="kcontract",
        description="k-contraction analysis, feedback design, and simulation")
    p.add_argument("--seed", type=int, default=0, help="seed of the reproduce bundles' draws")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("counts", cmd_counts, help="unknown-count comparison N1 vs N2")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = add("analyze-lin", cmd_analyze_lin, help="spectral k-contraction test")
    sp.add_argument("--model", required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = add("certify-lin", cmd_certify_lin, help="build and verify a certificate")
    sp.add_argument("--model", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--slack", type=float, default=0.0)
    sp.add_argument("--out", help="write the certificate JSON here")

    sp = add("stabilizable", cmd_stabilizable, help="k-order stabilizability test")
    sp.add_argument("--model", required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = add("synth-lin", cmd_synth_lin, help="k-contractive state feedback")
    sp.add_argument("--model", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--rho", type=float, default=1.0)

    sp = add("verify-nl", cmd_verify_nl, help="verify a constant-metric pair on the model box")
    sp.add_argument("--model", required=True)
    sp.add_argument("--cert", required=True)
    sp.add_argument("--slack", type=float, default=None)

    sp = add("synth-nl", cmd_synth_nl, help="nonlinear gain from design data")
    sp.add_argument("--model", required=True)
    sp.add_argument("--cert", required=True, help="design data JSON (W0, W1, mu0, mu1, k)")
    sp.add_argument("--slack", type=float, default=None)

    sp = add("simulate", cmd_simulate, help="integrate a trajectory (optionally compound)")
    sp.add_argument("--model", required=True)
    sp.add_argument("--x0", required=True, help="comma-separated initial state")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--h", type=float, default=1e-3)
    sp.add_argument("--compound", type=int, default=0, help="co-integrate the k-compound state")
    sp.add_argument("--out", help="trace CSV path")

    sp = add("volume", cmd_volume, help="flow a coordinate square and measure its area")
    sp.add_argument("--model", required=True)
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--h", type=float, default=1e-3)

    sp = add("reproduce", cmd_reproduce, help="run a built-in reproduction bundle")
    sp.add_argument("name", choices=sorted(reproduce.BUNDLES))
    sp.add_argument("--out", help="directory for CSV traces and certificates")

    return p


def _attach_x0(argv):
    # argparse takes '-0.3,-0.3' for an option, so '--x0 V' is passed on as '--x0=V'
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--x0" in argv[:-1]:
        i = argv.index("--x0")
        argv[i:i + 2] = ["--x0=" + argv[i + 1]]
    return argv


def _error(message: str) -> int:
    print(dumps({"error": message, "verdict": "error"}, indent=2))
    return EXIT_USAGE


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_x0(argv))
    except SystemExit as exc:  # --help, printed by argparse
        return EXIT_USAGE if exc.code not in (0,) else 0
    except _UsageError as exc:
        return _error(str(exc))
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name} must be finite, got {value}")
        report, inputs = args.fn(args)
        emit(report, inputs)
    except (ValueError, OSError, NumericalError) as exc:  # a JSONDecodeError is a ValueError
        return _error(str(exc))
    return EXIT_ACCEPT if report["verdict"] in ("accept", "success") else EXIT_REJECT


if __name__ == "__main__":
    sys.exit(main())
