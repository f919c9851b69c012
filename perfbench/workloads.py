"""Seeded workloads for the kcontract benchmark: inputs, execution and checks.

Three workloads, each a closed loop that runs one job at a time:

* ``reproduce`` runs the four reproduction bundles back to back;
* ``flow`` is a stream of ``simulate --compound k`` and ``volume`` CLI jobs;
* ``certify`` is a stream of linear and nonlinear certificate CLI jobs.

A round is one job of every kind, in an order and with input variants drawn
from ``numpy.random.default_rng([seed, round])``. Each input variant is made
from its own key (``default_rng([POOL_KEY, crc32(key)])``), so every job any
seed can draw has a reference output recorded by ``record_reference.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
import zlib
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kcontract import cli, models, reproduce

POOL_KEY = 2311_18388
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
SUMMARY_LEN = 4  # larger numeric arrays are compared through a summary

NONLINEAR = ("rossler_mod", "synchronverter", "example25")
SIM_VARIANTS = 8
LIN_VARIANTS = 4
LIN_SIZES = (4, 8, 12, 16, 20)
LIN_ORDERS = (2, 3, 4)
LIN_COMMANDS = ("analyze-lin", "certify-lin", "stabilizable", "synth-lin")

BUNDLES = ("rossler", "rossler_mod", "synchronverter", "example25")
BUNDLE_SEEDS = 16  # bundle seed = workload seed mod 16; all 16 are recorded
# Shorter than the shipped defaults (121 s for the four bundles) so that two
# rounds fit in one run; scalar RK4 still does most of the work.
BUNDLE_SETTINGS = {
    "rossler": {"t_classify": 50.0},
    "rossler_mod": {"classify": False},
    "synchronverter": {"trajectories": 2, "squares": 2},
    "example25": {"classify": False},
}
DATA_DOCS = {
    "synchronverter": "synchronverter_cert.json",
    "rossler_mod": "rossler_mod_cert.json",
    "example25": "example25_design.json",
}


@dataclass(frozen=True)
class Job:
    kind: str            # one job kind per round slot
    key: str             # names the input variant and its reference record
    argv: tuple          # CLI arguments, or (bundle name, bundle seed)
    expect_exit: int | None = None   # outcome the generator guarantees, if any


@dataclass
class Outcome:
    exit_code: int
    start: float         # perf_counter around the one call into the package
    end: float
    text: str            # the report as printed (CLI) or canonical JSON (bundle)
    report: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


def key_rng(key: str) -> np.random.Generator:
    return np.random.default_rng([POOL_KEY, zlib.crc32(key.encode())])


def topk_real_sum(A, k: int) -> float:
    """Numpy-only oracle: sum of the k largest eigenvalue real parts."""
    return float(np.sort(np.linalg.eigvals(A).real)[::-1][:k].sum())


def shifted_system(key: str, n: int, k: int):
    """Random (A, B) with A shifted so its top-k real-part sum is -0.5 k."""
    rng = key_rng(key)
    A = rng.standard_normal((n, n))
    A -= (topk_real_sum(A, k) + 0.5 * k) / k * np.eye(n)
    B = rng.standard_normal((n, 1))
    return A, B


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _numeric_array(obj):
    try:
        a = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        return None
    return a if a.size > SUMMARY_LEN else None


def leaves(obj, path="") -> dict:
    """Numeric leaves of a report by path; a numeric list or matrix of more
    than SUMMARY_LEN numbers becomes [size, sum |x|, sum x^2]. Strings are
    not compared."""
    out = {}
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.update(leaves(obj[k], f"{path}/{k}"))
    elif isinstance(obj, list):
        a = _numeric_array(obj)
        if a is not None:
            a = np.abs(a)
            out[path] = [a.size, float(a.sum()), float((a * a).sum())]
        else:
            for i, v in enumerate(obj):
                out.update(leaves(v, f"{path}/{i}"))
    elif isinstance(obj, (bool, int, float)):
        out[path] = float(obj)
    return out


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def compare_leaves(ref: dict, got: dict) -> list[str]:
    problems = []
    for path, want in ref.items():
        if path not in got:
            problems.append(f"missing report field {path}")
            continue
        have = got[path]
        pairs = zip(want, have) if isinstance(want, list) else [(want, have)]
        if isinstance(want, list) != isinstance(have, list) or (
                isinstance(want, list) and len(want) != len(have)):
            problems.append(f"{path}: shape changed")
        elif not all(close(w, h) for w, h in pairs):
            problems.append(f"{path}: {have} differs from reference {want}")
    return problems


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text())["jobs"] if path.is_file() else {}


class Workload:
    """Job generation, execution and checking shared by the three workloads."""

    name = ""
    min_jobs = 1        # a measured run holds at least this many jobs
    min_rounds = 1
    traced_rounds = 1   # fixed, so traced counts repeat exactly
    calibration_kernel = "mixed"

    def __init__(self, kinds=None):
        self.kinds = list(kinds) if kinds is not None else self.all_kinds()
        self.reference = load_reference(self.name)
        self.workdir = None

    def all_kinds(self) -> list[str]:
        raise NotImplementedError

    def variants(self, kind: str) -> int:
        return 1

    def make_job(self, kind: str, variant: int) -> Job:
        raise NotImplementedError

    def prepare(self, workdir: Path) -> None:
        """Generate and write the documents the jobs read (the set-up)."""
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True)

    def round_jobs(self, seed: int, r: int) -> list[Job]:
        rng = np.random.default_rng([seed, r])
        order = rng.permutation(len(self.kinds))
        picks = [int(rng.integers(self.variants(kind))) for kind in self.kinds]
        return [self.make_job(self.kinds[i], picks[i]) for i in order]

    def pool(self) -> list[Job]:
        return [self.make_job(kind, v) for kind in self.kinds
                for v in range(self.variants(kind))]

    def execute(self, job: Job) -> Outcome:
        raise NotImplementedError

    def oracle(self, job: Job, out: Outcome) -> list[str]:
        return []

    def check(self, job: Job, out: Outcome, reference: dict | None = None) -> list[str]:
        """Problems with one job's output; empty when it is correct."""
        reference = self.reference if reference is None else reference
        problems = []
        if job.expect_exit is not None and out.exit_code != job.expect_exit:
            problems.append(f"exit {out.exit_code}, generator guarantees {job.expect_exit}")
        problems += self.oracle(job, out)
        ref = reference.get(job.key)
        if ref is None:
            problems.append("no reference recorded for this job")
        else:
            if out.exit_code != ref["exit"]:
                problems.append(f"exit {out.exit_code}, reference {ref['exit']}")
            problems += compare_leaves(ref["leaves"], leaves(out.report))
        return problems

    def identical(self, job: Job, out: Outcome) -> bool:
        ref = self.reference.get(job.key)
        return ref is not None and ref["sha256"] == digest(out.text)

    def record(self, out: Outcome) -> dict:
        return {"exit": out.exit_code, "sha256": digest(out.text),
                "leaves": leaves(out.report)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ReproduceWorkload(Workload):
    """The four reproduction bundles, back to back, in-process."""

    name = "reproduce"
    min_rounds = 2
    calibration_kernel = "scalar"

    def all_kinds(self):
        return list(BUNDLES)

    def variants(self, kind):
        return BUNDLE_SEEDS

    def make_job(self, kind, variant):
        return Job(kind, f"{kind}/s{variant}", (kind, variant), expect_exit=0)

    def round_jobs(self, seed, r):
        return [self.make_job(kind, seed % BUNDLE_SEEDS) for kind in self.kinds]

    def execute(self, job):
        name, bseed = job.argv
        bundle_fn = getattr(reproduce, f"reproduce_{name}")
        t0 = time.perf_counter()
        result = bundle_fn(seed=bseed, **BUNDLE_SETTINGS[name])
        t1 = time.perf_counter()
        trace = result.pop("trace", None)
        resolved = result.pop("resolved", None)
        if trace is not None:
            result["trace_summary"] = {"samples": len(trace), "final": trace.states[-1]}
        if resolved is not None:
            result["resolved_pair"] = {"P0": resolved.P0, "P1": resolved.P1,
                                       "mu0": resolved.mu0, "mu1": resolved.mu1}
        report = _plain(result)
        code = 0 if report.get("verdict") == "success" else 1
        return Outcome(code, t0, t1, json.dumps(report, sort_keys=True), report)

    def oracle(self, job, out):
        failed = [name for name, ok in out.report.get("checks", {}).items() if not ok]
        return [f"bundle check {name} failed" for name in failed]


class CliWorkload(Workload):
    """Jobs run in-process through ``kcontract.cli.main`` on written documents."""

    def doc(self, name: str) -> str:
        return str(self.workdir / f"{name}.json")

    def write_doc(self, name: str, doc: dict) -> None:
        (self.workdir / f"{name}.json").write_text(json.dumps(doc))

    def write_models(self, names) -> None:
        for name in names:
            self.write_doc(name, models.builtin(name).to_json())

    def execute(self, job):
        buf = io.StringIO()
        with redirect_stdout(buf):
            t0 = time.perf_counter()
            code = cli.main(list(job.argv))
            t1 = time.perf_counter()
        text = buf.getvalue()
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            report = {}
        return Outcome(code, t0, t1, text, report)


class FlowWorkload(CliWorkload):
    """Compound-state trajectories and flowed-square volumes on nonlinear models."""

    name = "flow"
    min_jobs = 100

    def all_kinds(self):
        kinds = []
        for model in NONLINEAR:
            for k in ((2,) if model == "example25" else (2, 3)):
                kinds += [f"simulate/{model}/k{k}/t{t}" for t in (1, 2)]
        for model in NONLINEAR:
            kinds += [f"volume/{model}/G{g}/t{t}" for g in (16, 32, 64) for t in (0.2, 0.5)]
        return kinds

    def variants(self, kind):
        return SIM_VARIANTS if kind.startswith("simulate") else 1

    def prepare(self, workdir):
        super().prepare(workdir)
        self.write_models(NONLINEAR)

    def make_job(self, kind, variant):
        command, model, size, t = kind.split("/")
        t = t[1:]
        if command == "volume":
            return Job(kind, kind, ("volume", "--model", self.doc(model),
                                    "--grid", size[1:], "--t", t), expect_exit=0)
        key = f"{kind}/v{variant}"
        box = BOXES[model]
        x0 = box.lower + key_rng(key).random(len(box.lower)) * (box.upper - box.lower)
        # --x0=... form: "--x0 -0.3,..." is read by argparse as an option (exit 2)
        return Job(kind, key, ("simulate", "--model", self.doc(model),
                               "--x0=" + ",".join(repr(float(v)) for v in x0),
                               "--t", t, "--compound", size[1:]), expect_exit=0)

    def oracle(self, job, out):
        rep = out.report
        if job.argv[0] == "simulate":
            t = float(job.argv[job.argv.index("--t") + 1])
            if rep.get("samples") != int(round(t / 1e-3)) + 1 or rep.get("truncated"):
                return [f"trajectory has {rep.get('samples')} samples or was truncated"]
            return []
        if not rep.get("V0", 0) > 0 or not close(rep["Vt"] / rep["V0"], rep["ratio"], 1e-12):
            return ["volume ratio is not Vt / V0"]
        return []


class CertifyWorkload(CliWorkload):
    """Linear analysis, certificates and synthesis, plus nonlinear verification."""

    name = "certify"
    min_jobs = 100
    traced_rounds = 8

    def all_kinds(self):
        kinds = [f"{cmd}/n{n}/k{k}" for cmd in LIN_COMMANDS
                 for n in LIN_SIZES for k in LIN_ORDERS]
        return kinds + ["verify-nl/synchronverter", "verify-nl/rossler_mod",
                        "synth-nl/example25"]

    def variants(self, kind):
        return LIN_VARIANTS if kind.split("/")[0] in LIN_COMMANDS else 1

    def systems(self):
        """(doc name, n, k) of every linear system the kinds can draw."""
        sizes = sorted({tuple(kind.split("/")[1:]) for kind in self.kinds
                        if kind.split("/")[0] in LIN_COMMANDS})
        return [(f"lin-{n}-{k}-v{v}", int(n[1:]), int(k[1:]))
                for n, k in sizes for v in range(LIN_VARIANTS)]

    def prepare(self, workdir):
        super().prepare(workdir)
        for name, n, k in self.systems():
            A, B = shifted_system(name, n, k)
            self.write_doc(name, {"kind": "linear", "A": A.tolist(), "B": B.tolist()})
        needed = {kind.split("/")[1] for kind in self.kinds if "-nl/" in kind}
        self.write_models(sorted(needed))
        for model in needed:
            self.write_doc(f"{model}-data", reproduce.load_data(DATA_DOCS[model]))

    def make_job(self, kind, variant):
        parts = kind.split("/")
        command = parts[0]
        if command in LIN_COMMANDS:
            n, k = parts[1][1:], parts[2][1:]
            argv = (command, "--model", self.doc(f"lin-{parts[1]}-{parts[2]}-v{variant}"),
                    "--k", k) + (("--rho", "10") if command == "synth-lin" else ())
            # A is k-contractive by construction, so every test but synthesis accepts
            expect = None if command == "synth-lin" else 0
            return Job(kind, f"{kind}/v{variant}", argv, expect_exit=expect)
        model = parts[1]
        argv = (command, "--model", self.doc(model), "--cert", self.doc(f"{model}-data"))
        # verify-nl on rossler_mod rejects: the printed pair fails on this box
        expect = {"synchronverter": 0, "rossler_mod": 1}.get(model)
        return Job(kind, kind, argv, expect_exit=expect)

    def _system(self, job):
        doc = json.loads(Path(job.argv[2]).read_text())
        return np.asarray(doc["A"], float), np.asarray(doc["B"], float), int(job.argv[4])

    def oracle(self, job, out):
        command, rep = job.argv[0], out.report
        if command in ("analyze-lin", "certify-lin"):
            A, _, k = self._system(job)
            want = topk_real_sum(A, k)
            problems = [] if want < 0 else [f"top-{k} sum {want} is not negative"]
            if command == "analyze-lin":
                got = rep["margins"][0][1]
                if not close(got, want, 1e-9) and abs(got - want) > 1e-12:
                    problems.append(f"top-k sum {got} differs from numpy {want}")
            elif not all(m < 0 for _, m in rep.get("margins", [[None, 1.0]])):
                problems.append("certificate margins are not all negative")
            return problems
        if command == "synth-lin":
            if "K" not in rep:
                ok = rep.get("verdict") == "reject" and out.exit_code == 1
                return [] if ok else ["synth-lin gave neither a gain nor a rejection"]
            A, B, k = self._system(job)
            want = topk_real_sum(A - B @ np.asarray(rep["K"], float), k)
            got = rep["closed_loop_margin"]
            problems = []
            if not close(got, want, 1e-9) and abs(got - want) > 1e-12:
                problems.append(f"closed-loop top-k sum {got} differs from numpy {want}")
            if (rep["verdict"] == "accept") != (want < 0) or out.exit_code != (0 if want < 0 else 1):
                problems.append("verdict and exit code disagree with the closed-loop spectrum")
            return problems
        if command == "synth-nl":
            data = json.loads(Path(job.argv[4]).read_text())
            K = np.ravel(rep.get("K", [np.nan]))
            if not np.all(np.abs(K - np.ravel(data["K_expected"])) <= data["K_tolerance"]):
                return ["gain differs from the design data"]
            if not abs(rep["omega"] - data["omega_expected"]) <= data["omega_tolerance"]:
                return ["excess rate differs from the design data"]
        return []


BOXES = {name: models.builtin(name).box for name in NONLINEAR}
WORKLOADS = {w.name: w for w in (ReproduceWorkload, FlowWorkload, CertifyWorkload)}
