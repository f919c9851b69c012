"""Command-line interface.

Every command prints one JSON report to stdout (deterministic: sorted keys,
fixed seed defaulting to 0, digest of the effective inputs) and exits with
0 on accept/success, 1 on a legitimate negative (reject/failure), 2 on usage
or data errors. Traces are written as CSV next to the report when --out is
given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import lin_contraction as lc
from . import lin_synthesis as ls
from . import models, nl_verify as nv, reproduce, sim
from .numkernel import NumericalError
from .reproduce import jsonable

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


def _canonical(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def emit(report: dict, inputs) -> None:
    report = dict(report)
    report["inputs_digest"] = _digest(inputs)
    print(json.dumps(jsonable(report), sort_keys=True, indent=2))


def _load_model(path: str) -> models.ModelBundle:
    text = Path(path).read_text()
    return models.parse_model(text)


def _require_linear(bundle) -> None:
    if bundle.kind != "linear":
        raise ValueError("this command needs a linear model (kind == 'linear')")


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")], dtype=float)


def cmd_counts(args) -> int:
    n1, n2 = lc.variable_counts(args.n, args.k)
    emit({"command": "counts", "N1": n1, "N2": n2,
          "anchors": ["unknown-count-comparison"], "verdict": "success"},
         {"n": args.n, "k": args.k})
    return EXIT_ACCEPT


def cmd_analyze_lin(args) -> int:
    bundle = _load_model(args.model)
    _require_linear(bundle)
    verdict, margin = lc.k_contractive_lti(bundle.A, args.k)
    emit({
        "command": "analyze-lin",
        "k": args.k,
        "verdict": "accept" if verdict else "reject",
        "margins": [["topk_realpart_sum", margin]],
        "anchors": ["lti-spectral-test"],
    }, {"model": bundle.to_json(), "k": args.k})
    return EXIT_ACCEPT if verdict else EXIT_REJECT


def cmd_certify_lin(args) -> int:
    bundle = _load_model(args.model)
    _require_linear(bundle)
    try:
        cert = lc.build_certificate(bundle.A, args.k)
    except (ValueError, NumericalError) as exc:
        emit({"command": "certify-lin", "k": args.k, "verdict": "reject",
              "reason": str(exc), "anchors": ["generalized-lyapunov-certificate"]},
             {"model": bundle.to_json(), "k": args.k})
        return EXIT_REJECT
    report = lc.verify_certificate(bundle.A, args.k, cert, slack=args.slack)
    cert_doc = {
        "ell": cert.ell, "k": cert.k, "mus": cert.mus, "ds": cert.ds,
        "mats": [P.tolist() for P in cert.mats],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(jsonable(cert_doc), sort_keys=True, indent=2))
    emit({
        "command": "certify-lin",
        "k": args.k,
        "verdict": "accept" if report.verdict else "reject",
        "margins": [[l, m] for l, m in report.margins],
        "anchors": ["generalized-lyapunov-certificate"],
        "certificate": cert_doc,
    }, {"model": bundle.to_json(), "k": args.k})
    return EXIT_ACCEPT if report.verdict else EXIT_REJECT


def cmd_stabilizable(args) -> int:
    bundle = _load_model(args.model)
    _require_linear(bundle)
    if bundle.B is None:
        raise ValueError("model must carry an input matrix B")
    ok, diag = ls.k_order_stabilizable(bundle.A, bundle.B, args.k)
    emit({
        "command": "stabilizable", "k": args.k,
        "verdict": "accept" if ok else "reject",
        "diagnostics": diag,
        "anchors": ["uncontrollable-block-test"],
    }, {"model": bundle.to_json(), "k": args.k})
    return EXIT_ACCEPT if ok else EXIT_REJECT


def cmd_synth_lin(args) -> int:
    bundle = _load_model(args.model)
    _require_linear(bundle)
    if bundle.B is None:
        raise ValueError("model must carry an input matrix B")
    try:
        cert = ls.stabilizability_certificate(bundle.A, bundle.B, args.k)
    except (ValueError, NumericalError) as exc:
        emit({"command": "synth-lin", "k": args.k, "verdict": "reject",
              "reason": str(exc), "anchors": ["stabilizability-certificate"]},
             {"model": bundle.to_json(), "k": args.k, "rho": args.rho})
        return EXIT_REJECT
    K = ls.synthesize_gain(cert, bundle.B, rho=args.rho)
    closed_ok, margin = lc.k_contractive_lti(bundle.A - bundle.B @ K, args.k)
    emit({
        "command": "synth-lin", "k": args.k, "rho": args.rho,
        "K": K.tolist(),
        "closed_loop_margin": margin,
        "margins": [["closed_loop_topk_sum", margin]]
        + [[f"W_{i}", m] for i, m in enumerate(ls.certificate_margins(bundle.A, bundle.B, cert))],
        "verdict": "accept" if closed_ok else "reject",
        "anchors": ["stabilizability-certificate", "colinear-gain"],
        "certificate": {"ell": cert.ell, "mus": cert.mus, "ds": cert.ds,
                        "mats": [W.tolist() for W in cert.mats]},
    }, {"model": bundle.to_json(), "k": args.k, "rho": args.rho})
    return EXIT_ACCEPT if closed_ok else EXIT_REJECT


def cmd_verify_nl(args) -> int:
    bundle = _load_model(args.model)
    if bundle.kind != "nonlinear":
        raise ValueError("verify-nl needs a nonlinear model")
    cert_doc = json.loads(Path(args.cert).read_text())
    cert = reproduce.cert_from_data(cert_doc)
    slack = args.slack if args.slack is not None else reproduce.data_slack(cert_doc)
    report = nv.verify_nl_certificate(bundle.model, bundle.box, cert, slack=slack)
    emit({
        "command": "verify-nl",
        "slack": slack,
        "verdict": "accept" if report.verdict else "reject",
        "margins": [[l, m] for l, m in report.margins],
        "diagnostics": report.diagnostics,
        "anchors": [f"constant-metric-pair/vertex-{report.data['worst_vertex']['P1']}"],
        "report": reproduce.report_entry(report),
    }, {"model": bundle.to_json(), "cert": cert_doc, "slack": slack})
    return EXIT_ACCEPT if report.verdict else EXIT_REJECT


def cmd_synth_nl(args) -> int:
    bundle = _load_model(args.model)
    if bundle.kind != "nonlinear":
        raise ValueError("synth-nl needs a nonlinear model")
    doc = json.loads(Path(args.cert).read_text())
    if bundle.B is None:
        raise ValueError("model must carry an input matrix B")
    slack = args.slack if args.slack is not None else reproduce.data_slack(doc)
    K, omega, report = nv.synthesize_nl_gain(
        bundle.model, bundle.box, np.asarray(doc["W0"], float),
        np.asarray(doc["W1"], float), doc["mu0"], doc["mu1"], bundle.B, doc["k"],
        slack=slack)
    emit({
        "command": "synth-nl",
        "K": K.tolist(),
        "omega": omega,
        "verdict": "accept" if report.verdict else "reject",
        "margins": [[l, m] for l, m in report.margins],
        "diagnostics": report.diagnostics,
        "anchors": ["gain-formula", "excess-rate"],
    }, {"model": bundle.to_json(), "design": doc, "slack": slack})
    return EXIT_ACCEPT if report.verdict else EXIT_REJECT


def cmd_simulate(args) -> int:
    bundle = _load_model(args.model)
    x0 = _parse_vector(args.x0)
    if x0.shape != (bundle.dim,):
        raise ValueError(f"--x0 has {x0.size} entries for a model of dimension {bundle.dim}")
    if bundle.kind == "linear":
        if args.compound:
            raise ValueError("simulate --compound needs a nonlinear model")
        A = bundle.A
        field = lambda x: A @ x
        tr = sim.integrate(field, x0, args.t, args.h)
        label = sim.classify_attractor(tr)
        fitted = None
    else:
        if args.compound:
            tr = sim.integrate_compound(bundle.model, x0, np.eye(bundle.dim)[:, :args.compound],
                                        args.compound, args.t, args.h)
            fitted = sim.fit_decay(tr)
        else:
            tr = sim.integrate(bundle.model.f, x0, args.t, args.h)
            fitted = None
        label = sim.classify_attractor(tr)
    if args.out:
        sim.trace_to_csv(tr, args.out)
    report = {
        "command": "simulate",
        "samples": len(tr),
        "final_state": tr.states[-1].tolist(),
        "attractor": label,
        "truncated": tr.truncated,
        "verdict": "failure" if tr.truncated else "success",
        "anchors": ["trajectory" if not args.compound else "compound-trajectory"],
    }
    if fitted is not None:
        report["decay_fit"] = {"a": fitted[0], "b": fitted[1], "residual": fitted[2]}
    emit(report, {"model": bundle.to_json(), "x0": x0.tolist(), "t": args.t,
                  "h": args.h, "compound": args.compound})
    return EXIT_REJECT if tr.truncated else EXIT_ACCEPT


def cmd_volume(args) -> int:
    bundle = _load_model(args.model)
    dim = bundle.dim
    if dim < 2:
        raise ValueError("volume needs dimension >= 2")
    if bundle.kind == "linear":
        A = bundle.A
        field_batch = lambda X: X @ A.T
        def immersion(r):
            x = np.zeros(dim)
            x[0], x[1] = r[0], r[1]
            return x
    else:
        model, box = bundle.model, bundle.box
        c = box.center()
        delta = 0.01 * float(np.min(box.upper - box.lower))
        def immersion(r):
            x = c.copy()
            x[0] += delta * r[0]
            x[1] += delta * r[1]
            return x
        field_batch = model.f_batch
    grid = sim.ImmersionGrid.from_function(immersion, 2, args.grid, dim)
    v0 = sim.volume_of_immersion(grid, np.eye(dim))
    flowed = sim.flow_immersion(grid, field_batch, args.t, args.h)
    report = {"command": "volume", "V0": v0, "anchors": ["area-transport"]}
    if flowed.truncated:  # a node's flow turned non-finite: there is no area at t
        report.update(Vt=None, ratio=None, truncated=True, verdict="failure")
    else:
        v1 = sim.volume_of_immersion(flowed, np.eye(dim))
        report.update(Vt=v1, ratio=v1 / v0 if v0 > 0 else float("inf"), verdict="success")
    emit(report, {"model": bundle.to_json(), "grid": args.grid, "t": args.t, "h": args.h})
    return EXIT_REJECT if flowed.truncated else EXIT_ACCEPT


def cmd_reproduce(args) -> int:
    if args.name not in reproduce.BUNDLES:
        raise ValueError(f"unknown bundle {args.name!r}; available: {sorted(reproduce.BUNDLES)}")
    result = reproduce.BUNDLES[args.name](seed=args.seed)
    trace = result.pop("trace", None)
    resolved = result.pop("resolved", None)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if trace is not None:
            sim.trace_to_csv(trace, outdir / f"{args.name}_trace.csv")
        if resolved is not None:
            (outdir / f"{args.name}_resolved_cert.json").write_text(json.dumps(jsonable({
                "P0": resolved.P0, "P1": resolved.P1, "mu0": resolved.mu0,
                "mu1": resolved.mu1, "k": resolved.k}), sort_keys=True, indent=2))
    result["command"] = f"reproduce {args.name}"
    emit(result, {"bundle": args.name, "seed": args.seed})
    return EXIT_ACCEPT if result.get("verdict") == "success" else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kcontract",
        description="k-contraction analysis, feedback design, and simulation")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_x0(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    np.random.seed(args.seed)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError, NumericalError) as exc:
        print(json.dumps({"error": str(exc), "verdict": "error"}, indent=2))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
