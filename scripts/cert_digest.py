"""Print SHA-256 digests of kcontract certificates, to compare two commits.

    python3 scripts/cert_digest.py --seed N

Run from the root of a source checkout; the package is imported from src/.
The corpus holds the 60 linear systems of the benchmark's certify workload
(perfbench/workloads.py), 400 Gaussian systems with n = 2..8 (some with an
uncontrollable part), 150 systems whose half-integer spectra are hidden by a
similarity (pair midpoints and repeated real parts), and 50 systems with a
complex pair plus a Jordan block. On each system it runs build_certificate,
stabilizability_certificate, k_order_stabilizable and construct_W at
mu = 0 and mu = -0.5, and hashes every result (ell, mus, ds, colinear and the
matrix bytes) or, on rejection, the exception class. It also hashes the
report of verify_nl_certificate, synthesize_nl_gain and
verify_compound_condition on the packaged reference data. Equal digests mean
byte-identical certificates and reports.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from scipy.linalg import block_diag  # noqa: E402

from kcontract import lin_contraction as lc  # noqa: E402
from kcontract import lin_synthesis as ls  # noqa: E402
from kcontract import cli, models, nl_verify as nv, reproduce  # noqa: E402
from workloads import LIN_ORDERS, LIN_SIZES, LIN_VARIANTS, shifted_system  # noqa: E402

CONSTRUCT_MUS = (0.0, -0.5)


def topk(A, k):
    return float(np.sort(np.linalg.eigvals(A).real)[::-1][:k].sum())


def hidden(rng, D, controllable_rows):
    """(T D T^-1, T b) for a random well-conditioned T; b vanishes off controllable_rows."""
    n = len(D)
    T = rng.standard_normal((n, n)) + n * np.eye(n)
    b = np.zeros((n, 1))
    b[controllable_rows, 0] = rng.standard_normal(len(controllable_rows))
    return T @ D @ np.linalg.inv(T), T @ b


def gaussian_system(rng):
    n = int(rng.integers(2, 9))
    nu = int(rng.integers(1, n)) if rng.random() < 0.4 else 0
    nc = n - nu
    A = rng.standard_normal((n, n))
    A[nc:, :nc] = 0.0
    B = np.zeros((n, 1))
    B[:nc, 0] = rng.standard_normal(nc)
    k = int(rng.integers(1, n + 1))
    A -= (topk(A, k) / k + rng.uniform(-0.3, 1.0)) * np.eye(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ A @ Q.T, Q @ B, k


def half_integer_system(rng):
    n = int(rng.integers(2, 7))
    blocks = []
    while sum(len(b) for b in blocks) < n:
        re = float(rng.integers(-8, 5)) / 2
        if n - sum(len(b) for b in blocks) >= 2 and rng.random() < 0.3:
            im = float(rng.integers(1, 4)) / 2
            blocks.append(np.array([[re, im], [-im, re]]))
        else:
            blocks.append(np.array([[re]]))
    rows = list(range(n)) if rng.random() < 0.5 else list(range(len(blocks[0])))
    A, B = hidden(rng, block_diag(*blocks), rows)
    return A, B, int(rng.integers(1, n + 1))


def jordan_system(rng):
    a, b = float(rng.integers(-6, 2)) / 2, float(rng.uniform(0.5, 2.0))
    m = int(rng.integers(2, 4))
    c = float(rng.integers(-6, 2)) / 2
    J = c * np.eye(m) + np.diag(np.ones(m - 1), 1)
    D = block_diag(np.array([[a, b], [-b, a]]), J)
    n = len(D)
    rows = list(range(n)) if rng.random() < 0.5 else [0, 1]
    A, B = hidden(rng, D, rows)
    return A, B, int(rng.integers(1, n + 1))


def corpus(seed):
    for n in LIN_SIZES:
        for k in LIN_ORDERS:
            for v in range(LIN_VARIANTS):
                A, B = shifted_system(f"lin-n{n}-k{k}-v{v}", n, k)
                yield A, B, k
    rng = np.random.default_rng(seed)
    for make, count in ((gaussian_system, 400), (half_integer_system, 150),
                        (jordan_system, 50)):
        for _ in range(count):
            yield make(rng)


class Digest:
    def __init__(self):
        self.hash = hashlib.sha256()
        self.built = self.rejected = 0

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                a = np.ascontiguousarray(item)
                self.hash.update(f"{a.dtype}{a.shape}".encode())
                self.hash.update(a.tobytes())
            else:
                self.hash.update(cli.dumps(item).encode())

    def run(self, fn, *args):
        try:
            out = fn(*args)
        except Exception as exc:  # the rejection class is part of the digest
            self.rejected += 1
            self.add(f"raise {type(exc).__name__}")
            return
        self.built += 1
        if isinstance(out, lc.ContractionCertificate):
            self.add([out.ell, out.mus, out.ds, out.colinear], *out.mats)
        else:
            self.add(out)


def digest_of(*items):
    d = Digest()
    d.add(*items)
    return d


def linear_digests(seed):
    names = (["build_certificate", "stabilizability_certificate", "k_order_stabilizable"]
             + [f"construct_W/mu={mu:g}" for mu in CONSTRUCT_MUS])
    digests = {name: Digest() for name in names}
    for A, B, k in corpus(seed):
        digests["build_certificate"].run(lc.build_certificate, A, k)
        digests["stabilizability_certificate"].run(ls.stabilizability_certificate, A, B, k)
        digests["k_order_stabilizable"].run(ls.k_order_stabilizable, A, B, k)
        for mu in CONSTRUCT_MUS:
            digests[f"construct_W/mu={mu:g}"].run(ls.construct_W, A, B, mu)
    return digests


def nonlinear_digests():
    out = {}
    for name in ("synchronverter", "rossler_mod"):
        bundle = models.builtin(name)
        doc = reproduce.load_data(f"{name}_cert.json")
        cert = reproduce.cert_from_data(doc)
        out[f"verify_nl_certificate/{name}"] = digest_of(*(
            reproduce.report_entry(nv.verify_nl_certificate(bundle.model, bundle.box, cert,
                                                            slack=slack))
            for slack in (reproduce.data_slack(doc), 0.0)))

    bundle = models.builtin("synchronverter")
    doc = reproduce.load_data("synchronverter_resolved.json")
    refinement = {int(k): v for k, v in doc["refinement"].items()}
    verts = nv.envelope_vertices_refined(bundle.model, bundle.box, refinement)
    report = nv.verify_nl_certificate(bundle.model, bundle.box, reproduce.cert_from_data(doc),
                                      vertices=verts)
    out["verify_nl_certificate/synchronverter_resolved"] = digest_of(
        reproduce.report_entry(report))

    bundle = models.builtin("example25")
    doc = reproduce.load_data("example25_design.json")
    slack = reproduce.data_slack(doc)
    design = reproduce.design_from_data(doc)
    K, omega, report = nv.synthesize_nl_gain(bundle.model, bundle.box, B=bundle.B, slack=slack,
                                             **design)
    out["synthesize_nl_gain/example25"] = digest_of(K, omega, reproduce.report_entry(report))

    closed = models.closed_loop(bundle, K).model
    report = nv.verify_compound_condition(closed, bundle.box, np.asarray(doc["Q"], float),
                                          doc["eta"], design["k"], slack=slack)
    out["verify_compound_condition/example25"] = digest_of(reproduce.report_entry(report))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    for name, d in linear_digests(args.seed).items():
        print(f"{name} {d.hash.hexdigest()} built={d.built} rejected={d.rejected}")
    for name, d in nonlinear_digests().items():
        print(f"{name} {d.hash.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
