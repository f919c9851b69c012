"""Span tracing of kcontract from outside the package.

``Tracer.installed`` replaces every public kcontract function bound in a
kcontract module namespace, including names imported from another module
(``sim.additive_compound``, ``lin_synthesis.solve_lyapunov``), by a wrapper
that records a span. Models returned by ``models.builtin`` and
``models.parse_model`` get their ``f``, ``f_batch``, ``jacobian`` and
``bounds`` callables wrapped too. A span is (name, start, end, parent, job);
spans are kept in flat arrays and written out once, at the end of the run.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import time
import types
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("expressions", "models", "sim", "compound", "numkernel", "lin_contraction",
          "lin_synthesis", "nl_verify", "reproduce", "cli")


def _steps(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(round(bound.arguments["t_end"] / bound.arguments["h"]))
    return count


def _vertices(args, kwargs, result):
    return result.data["n_vertices"]


# work done by one call, recorded with its span
WORK = {
    "sim.integrate": _steps,
    "sim.integrate_batch": _steps,
    "sim.integrate_compound": _steps,
    "nl_verify.verify_nl_certificate": lambda fn: _vertices,
    "nl_verify.verify_compound_condition": lambda fn: _vertices,
    "nl_verify.search_nl_certificate": lambda fn: lambda a, kw, result: result is not None,
    "expressions.f_batch": lambda fn: lambda a, kw, result: len(a[0]),
}
MODEL_CALLABLES = {"f": "expressions.f", "f_batch": "expressions.f_batch",
                   "bounds": "expressions.bounds", "jacobian": "models.jacobian"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.failed = array("b")
        self.stack = [-1]
        self.job_id = -1

    def wrap(self, fn, name: str, post=None):
        """A wrapper around fn that records one span per call."""
        if getattr(fn, "_traced", False):
            return fn
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        work = WORK[name](fn) if name in WORK else None
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, works, failed = self.start, self.end, self.work, self.failed
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            starts.append(0.0)
            ends.append(0.0)
            works.append(0.0)
            failed.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if work is not None:
                works[idx] = work(args, kwargs, result)
            return post(result) if post is not None else result

        traced._traced = True
        traced.__wrapped__ = fn
        return traced

    def wrap_model(self, bundle):
        model = getattr(bundle, "model", None)
        if model is not None:
            for attr, name in MODEL_CALLABLES.items():
                fn = getattr(model, attr)
                if fn is not None:
                    setattr(model, attr, self.wrap(fn, name))
        return bundle

    @contextmanager
    def installed(self):
        """Trace kcontract inside the block; the module bindings are restored after."""
        patched = self._install()
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def _install(self):
        import kcontract
        from kcontract import (cli, compound, expressions, lin_contraction, lin_synthesis,
                               models, nl_verify, numkernel, reproduce, sim)
        modules = (cli, compound, expressions, lin_contraction, lin_synthesis, models,
                   nl_verify, numkernel, reproduce, sim)
        prefix = kcontract.__name__ + "."
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith(prefix)):
                    continue
                name = value.__module__[len(prefix):] + "." + value.__name__
                post = self.wrap_model if name in ("models.builtin", "models.parse_model") else None
                patched.append((mod, attr, value))
                setattr(mod, attr, self.wrap(value, name, post))
        return patched

    # --------------------------------------------------------------- results

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.float64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def totals(self, spent=None) -> dict:
        """Per span name: calls, inclusive and self seconds, work, failures.
        spent(starts, ends) gives time inside each span that is not the
        program's (calibration samples); it is taken out of the durations."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        if spent is not None:
            dur = dur - spent(a["start"], a["end"])
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child

        def per_name(weights=None):
            return np.bincount(a["name"], weights=weights, minlength=n_names)

        calls, incl, selft = per_name(), per_name(dur), per_name(self_time)
        work, failed = per_name(a["work"]), per_name(a["failed"].astype(float))
        out = {name: {"calls": int(calls[i]), "incl": float(incl[i]), "self": float(selft[i]),
                      "work": float(work[i]), "failed": int(failed[i])}
               for i, name in enumerate(self.names)}
        return {"by_name": out, "top_s": float(dur[~has_parent].sum())}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def per_layer(totals: dict, traced_s: float, overhead: float, identical_frac: float,
              bundle_s: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from span totals."""
    t = totals["by_name"]
    zero = {"calls": 0, "incl": 0.0, "self": 0.0, "work": 0.0, "failed": 0}

    def g(name):
        return t.get(name, zero)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def per_call(name, field, scale):
        return ratio(g(name)[field], g(name)["calls"], scale)

    f, fb, bounds, jac = (g("expressions.f"), g("expressions.f_batch"),
                          g("expressions.bounds"), g("models.jacobian"))
    integ, comp, batch = g("sim.integrate"), g("sim.integrate_compound"), g("sim.integrate_batch")
    verify = [g("nl_verify.verify_nl_certificate"), g("nl_verify.verify_compound_condition")]
    vertices = sum(v["work"] for v in verify)
    search = g("nl_verify.search_nl_certificate")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, v in t.items():
        layer_self[name.split(".")[0]] += v["self"]

    m = {
        "expressions.f_calls": (f["calls"], "count"),
        "expressions.f_us": (ratio(f["self"], f["calls"], 1e6), "us"),
        "expressions.batch_rows": (fb["work"], "count"),
        "expressions.batch_ns_per_row": (ratio(fb["self"], fb["work"], 1e9), "ns"),
        "expressions.bounds_calls": (bounds["calls"], "count"),
        "expressions.bounds_us": (ratio(bounds["incl"], bounds["calls"], 1e6), "us"),
        "models.parse_calls": (g("models.parse_model")["calls"], "count"),
        "models.parse_ms": (per_call("models.parse_model", "incl", 1e3), "ms"),
        "models.jacobian_calls": (jac["calls"], "count"),
        "models.jacobian_us": (ratio(jac["self"], jac["calls"], 1e6), "us"),
        "sim.rk4_steps": (integ["work"], "count"),
        "sim.step_us": (ratio(integ["self"], integ["work"], 1e6), "us"),
        "sim.compound_steps": (comp["work"], "count"),
        "sim.compound_step_us": (ratio(comp["incl"], comp["work"], 1e6), "us"),
        "sim.batch_steps": (batch["work"], "count"),
        "sim.batch_step_us": (ratio(batch["incl"], batch["work"], 1e6), "us"),
        "sim.classify_ms": (per_call("sim.classify_attractor", "incl", 1e3), "ms"),
        "sim.equilibria_ms": (per_call("sim.find_equilibria", "incl", 1e3), "ms"),
        "sim.volume_ms": (per_call("sim.volume_of_immersion", "incl", 1e3), "ms"),
        "compound.additive_calls": (g("compound.additive_compound")["calls"], "count"),
        "compound.additive_us": (per_call("compound.additive_compound", "incl", 1e6), "us"),
        "numkernel.lyap_solves": (g("numkernel.solve_lyapunov")["calls"], "count"),
        "numkernel.lyap_ms": (per_call("numkernel.solve_lyapunov", "incl", 1e3), "ms"),
        "numkernel.lyap_failed": (g("numkernel.solve_lyapunov")["failed"], "count"),
        "numkernel.inertia_calls": (g("numkernel.inertia_symmetric")["calls"], "count"),
        "numkernel.inertia_us": (per_call("numkernel.inertia_symmetric", "incl", 1e6), "us"),
        "lin_contraction.build_calls": (g("lin_contraction.build_certificate")["calls"], "count"),
        "lin_contraction.build_ms": (per_call("lin_contraction.build_certificate", "incl", 1e3), "ms"),
        "lin_contraction.verify_ms": (per_call("lin_contraction.verify_certificate", "incl", 1e3), "ms"),
        "lin_synthesis.cert_calls": (g("lin_synthesis.stabilizability_certificate")["calls"], "count"),
        "lin_synthesis.cert_ms": (per_call("lin_synthesis.stabilizability_certificate", "incl", 1e3), "ms"),
        "lin_synthesis.gain_ms": (per_call("lin_synthesis.synthesize_gain", "incl", 1e3), "ms"),
        "nl_verify.vertices": (vertices, "count"),
        "nl_verify.vertex_us": (ratio(sum(v["incl"] for v in verify), vertices, 1e6), "us"),
        "nl_verify.envelope_ms": (per_call("nl_verify.envelope_vertices", "incl", 1e3), "ms"),
        "nl_verify.search_calls": (search["calls"], "count"),
        "nl_verify.search_s": (ratio(search["incl"], search["calls"]), "s"),
        "nl_verify.search_success_ratio": (ratio(search["work"], search["calls"]), "frac"),
        "reproduce.self_s": (layer_self["reproduce"], "s"),
        "cli.emit_ms": (per_call("cli.emit", "incl", 1e3), "ms"),
        "cli.identical_frac": (identical_frac, "frac"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.unattributed_frac": (ratio(traced_s - totals["top_s"], traced_s), "frac"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (ratio(layer_self[layer], traced_s), "frac")
    for bundle, seconds in bundle_s.items():
        m[f"bundle.{bundle}_s"] = (seconds, "s")
    return m
