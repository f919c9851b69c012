"""Reproduction bundles for the built-in example systems.

Each bundle runs an end-to-end experiment against the shipped reference data
and returns a plain-dict report: reproduced quantities, margins, and an
accept/reject verdict per check. Honest negative outcomes (a reference
certificate failing its strict inequalities, a certificate search coming back
empty) are reported as such, never patched over.

A bundle's integrations that do not depend on each other run at once,
through stepper.concurrently: rossler's compound run and its trajectory,
rossler_mod's attractor-box run and its compound run, the trajectory of
each start in _attractor_labels and the flows of each square in
square_volumes. Their C loops release the GIL, so they share the cores;
every report is the same, byte for byte, as one run after another gives.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import numpy as np

from . import models, nl_verify as nv, sim, stepper
from .compound import additive_compound
from .numkernel import inertia_symmetric, spectral_norm
from .lin_contraction import VerificationReport


def load_data(name: str) -> dict:
    path = resources.files("kcontract").joinpath(f"data/{name}")
    return json.loads(path.read_text())


def _matrix(doc, name: str) -> np.ndarray:
    return models.finite(models.required(doc, name), name, (None, None))


def _rate(doc, name: str) -> float:
    value = models.required(doc, name)
    if not models.is_number(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _order(doc) -> int:
    k = models.required(doc, "k")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    return k


def cert_from_data(doc) -> nv.NonlinearCertificate:
    """The constant-metric pair of a certificate document, each field checked
    by name: P0 and P1 finite matrices, the rates mu0 and mu1 finite numbers
    and the order k an integer of at least 1; ValueError otherwise."""
    return nv.NonlinearCertificate(P0=_matrix(doc, "P0"), P1=_matrix(doc, "P1"),
                                   mu0=_rate(doc, "mu0"), mu1=_rate(doc, "mu1"), k=_order(doc))


def design_from_data(doc) -> dict:
    """synthesize_nl_gain's keyword arguments W0, W1, mu0, mu1 and k from a
    design document, each checked by name as cert_from_data checks its own."""
    return {"W0": _matrix(doc, "W0"), "W1": _matrix(doc, "W1"), "mu0": _rate(doc, "mu0"),
            "mu1": _rate(doc, "mu1"), "k": _order(doc)}


def data_slack(doc: dict) -> float:
    """Printed-precision reference data gets relative slack 1e-2; exact data
    0, as does a document without printed_precision, which must be a bool."""
    printed = doc.get("printed_precision", False)
    if not isinstance(printed, bool):
        raise ValueError(f"printed_precision must be true or false, got {printed!r}")
    return 1e-2 if printed else 0.0


def compound_constant_check(bundle):
    """max |J^[3] + 0.5| over the bundle's box: J^[3] is affine in the
    envelope parameters theta, so its largest deviation on the box of theta
    is at a vertex of it (nv.envelope_vertices)."""
    J = nv.envelope_vertices(bundle.model, bundle.box)
    return float(np.abs(additive_compound(J, 3) + 0.5).max())


# derive_attractor_box's reference run, t in [0, 400] at h = 1e-2, and the
# factor its box is inflated by
ATTRACTOR_T_END = 400.0
ATTRACTOR_H = 1e-2
ATTRACTOR_INFLATE = 1.1


def derive_attractor_box(bundle, x0):
    """Bounding box of the trailing half of a reference trajectory, inflated."""
    tr = sim.integrate(bundle.model.f, np.asarray(x0, dtype=float), ATTRACTOR_T_END, ATTRACTOR_H)
    tail = tr.states[len(tr) // 2:]
    box = nv.Box(tail.min(axis=0), tail.max(axis=0)).inflate(ATTRACTOR_INFLATE)
    return box, tr


def report_entry(report: VerificationReport):
    return {
        "verdict": "accept" if report.verdict else "reject",
        "margins": [[lab, float(m)] for lab, m in report.margins],
        "diagnostics": report.diagnostics,
        "data": report.data,
    }


def _compound_decay(bundle, x0):
    """(rate, overshoot, relative error against exp(-t/2)) of the third-compound
    state from x0 and the identity frame over t in [0, 20]."""
    ctr = sim.integrate_compound(bundle.model, x0, np.eye(3), 3, 20.0, 1e-3)
    a, b, _ = sim.fit_decay(ctr)
    rel = float(np.abs(ctr.compound_norms
                       / (ctr.compound_norms[0] * np.exp(-0.5 * ctr.times)) - 1).max())
    return a, b, rel


def _attractor_labels(field, starts, t_end):
    """(labels, traces): the attractor label of the trace from each start,
    the starts run at once."""
    traces = stepper.concurrently(
        functools.partial(sim.integrate, field, x0, t_end, 1e-3, record_every=10) for x0 in starts)
    return [sim.classify_attractor(tr) for tr in traces], traces


def reproduce_rossler(seed: int = 0, t_classify: float = 500.0) -> dict:
    """Chaotic example: constant third-compound trace, exact compound decay,
    no simple attractor, and no constant-metric certificate. seed is taken
    as every bundle takes it; this one draws no sample."""
    bundle = models.builtin("rossler")
    dev = compound_constant_check(bundle)

    x0 = np.array([0.1, 0.1, 0.0])
    (a, b, rel), ([label], [tr]) = stepper.concurrently([
        lambda: _compound_decay(bundle, x0),
        lambda: _attractor_labels(bundle.model.f, [x0], t_classify)])

    cert = nv.search_nl_certificate(bundle.model, bundle.box, 3)

    checks = {
        "compound_trace_constant": dev <= 1e-12,
        "compound_decay_rate": abs(a - 0.5) <= 1e-3,
        "attractor_unresolved": label == "unresolved",
        "constant_metric_search_fails": cert is None,
    }
    return {
        "bundle": "rossler",
        "anchors": ["additive-compound-constant", "compound-decay", "attractor-classification",
                    "constant-metric-search"],
        "compound_trace_deviation": dev,
        "fitted_decay_rate": a,
        "fitted_overshoot": b,
        "compound_decay_rel_error": rel,
        "attractor_label": label,
        "certificate_search": "failure (legitimate)" if cert is None else "success",
        "checks": checks,
        "verdict": "success" if all(checks.values()) else "failure",
        "trace": tr,
    }


def reproduce_rossler_mod(seed: int = 0, classify: bool = True) -> dict:
    """Cubic variant: derived attractor box, reference certificate check plus
    the packaged re-solved pair at zero slack, exact rate budget, compound
    decay, and attractor labels. seed is taken as every bundle takes it;
    this one draws no sample."""
    bundle = models.builtin("rossler_mod")
    doc = load_data("rossler_mod_cert.json")
    printed = cert_from_data(doc)

    x0 = np.array([0.2, 0.5, 0.0])
    (box, _), (a, _, rel) = stepper.concurrently([
        lambda: derive_attractor_box(bundle, x0),
        lambda: _compound_decay(bundle, x0)])
    slack = data_slack(doc)
    printed_report = nv.verify_nl_certificate(bundle.model, box, printed, slack=slack)

    resolved = cert_from_data(load_data("rossler_mod_resolved.json"))
    resolved_report = nv.verify_nl_certificate(bundle.model, box, resolved, slack=0.0)

    labels = {}
    if classify:
        ics = ((0.2, 0.5, 0.0), (-0.3, -0.3, -0.5), (0.2, -0.5, -0.3))
        labels = dict(zip(map(str, ics), _attractor_labels(bundle.model.f, ics, 500.0)[0]))

    rate = printed.rate_sum
    checks = {
        "compound_trace_constant": compound_constant_check(bundle) <= 1e-12,
        "rate_budget_exact": abs(rate - (-0.05)) <= 1e-12,
        "resolved_accepted_at_zero_slack": resolved_report.verdict,
        "compound_decay_rate": abs(a - 0.5) <= 1e-3,
        "compound_decay_rel_error": rel <= 1e-6,
    }
    if classify:
        checks["attractors_simple"] = all(
            lab in ("fixed_point", "limit_cycle") for lab in labels.values())
    return {
        "bundle": "rossler_mod",
        "anchors": ["attractor-box-derivation", "constant-metric-pair", "certificate-re-solve",
                    "rate-budget", "compound-decay", "attractor-classification"],
        "derived_box": {"lower": box.lower.tolist(), "upper": box.upper.tolist()},
        "box_protocol": "trailing half of the trajectory from (0.2, 0.5, 0) over "
                        "t in [0, 400], bounding box inflated by 10 percent",
        "printed_certificate": report_entry(printed_report),
        "printed_slack": slack,
        "resolved_certificate": report_entry(resolved_report),
        "rate_budget": rate,
        "fitted_decay_rate": a,
        "compound_decay_rel_error": rel,
        "attractor_labels": labels,
        "checks": checks,
        "verdict": "success" if all(checks.values()) else "failure",
        "resolved": resolved,
    }


SQUARE_TIMES = [0.0, 0.1, 0.2, 0.3, 0.4]


def square_volumes(bundle, rng, count: int) -> list:
    """Areas of count small random squares in the box, flowed to each SQUARE_TIMES.

    Each square has side 0.01 in a random 2-plane through a point drawn from
    the box, kept 5% away from its faces; one list of areas per square. Every
    square is drawn first, in turn, and then the squares are flowed at once.
    """
    box, model = bundle.box, bundle.model
    eye = np.eye(model.dim)
    squares = []
    for _ in range(count):
        c = box.sample(rng, 1)[0]
        c = np.clip(c, box.lower + 0.05 * (box.upper - box.lower),
                    box.upper - 0.05 * (box.upper - box.lower))
        Qm, _ = np.linalg.qr(rng.standard_normal((model.dim, 2)))
        squares.append((c, Qm))

    def areas(c, Qm):
        grid = sim.ImmersionGrid.from_function(
            lambda r: c + 0.01 * (r[:, :1] * Qm[:, 0] + r[:, 1:] * Qm[:, 1]), 2, 12, model.dim)
        vols = [sim.volume_of_immersion(grid, eye)]
        for t1, t2 in zip(SQUARE_TIMES[:-1], SQUARE_TIMES[1:]):
            grid = sim.flow_immersion(grid, model.f, t2 - t1, 1e-3)
            vols.append(sim.volume_of_immersion(grid, eye))
        return vols

    return stepper.concurrently(functools.partial(areas, c, Qm) for c, Qm in squares)


def reproduce_synchronverter(seed: int = 0, trajectories: int = 10,
                             squares: int = 5, classify: bool = True) -> dict:
    """Fourth-order inverter: reference pair at printed precision, the packaged
    re-solved pair at zero slack on its refined envelope, plus trajectory and
    volume behavior consistent with 2-contraction on the working box."""
    bundle = models.builtin("synchronverter")
    doc = load_data("synchronverter_cert.json")
    printed = cert_from_data(doc)
    box = bundle.box
    slack = data_slack(doc)

    printed_report = nv.verify_nl_certificate(bundle.model, box, printed, slack=slack)
    margin_bound_ok = all(
        abs(printed_report.margin(lab)) < 1e-2 * spectral_norm(P)
        for lab, P in (("P0", printed.P0), ("P1", printed.P1))
    )

    resolved_doc = load_data("synchronverter_resolved.json")
    refinement = {int(k): v for k, v in resolved_doc["refinement"].items()}
    refined = nv.envelope_vertices_refined(bundle.model, box, refinement)
    resolved_report = nv.verify_nl_certificate(
        bundle.model, box, cert_from_data(resolved_doc), slack=0.0, vertices=refined)

    labels = []
    if classify:
        starts = box.sample(np.random.default_rng(seed), trajectories)
        labels = _attractor_labels(bundle.model.f, starts, 20.0)[0]

    vol_runs = square_volumes(bundle, np.random.default_rng(seed + 1), squares)

    checks = {
        "printed_accepted_at_printed_precision": printed_report.verdict,
        "printed_margins_within_rounding": margin_bound_ok,
        "inertia_as_required": (
            inertia_symmetric(printed.P0) == (0, 0, 4)
            and inertia_symmetric(printed.P1) == (1, 0, 3)),
        "resolved_accepted_at_zero_slack": resolved_report.verdict,
    }
    if classify:
        checks["trajectories_reach_fixed_points"] = all(l == "fixed_point" for l in labels)
    if squares:
        checks["area_decay_monotone"] = all(
            all(v2 < v1 for v1, v2 in zip(vols[:-1], vols[1:])) for vols in vol_runs)

    return {
        "bundle": "synchronverter",
        "anchors": ["constant-metric-pair", "certificate-re-solve/refined-envelope",
                    "attractor-classification", "area-decay"],
        "box": {"lower": box.lower.tolist(), "upper": box.upper.tolist()},
        "printed_certificate": report_entry(printed_report),
        "printed_slack": slack,
        "printed_inertia": {"P0": list(inertia_symmetric(printed.P0)),
                            "P1": list(inertia_symmetric(printed.P1))},
        "resolved_certificate": report_entry(resolved_report),
        "refinement": resolved_doc["refinement"],
        "trajectory_labels": labels,
        "volume_runs": vol_runs,
        "checks": checks,
        "verdict": "success" if all(checks.values()) else "failure",
    }


def reproduce_example25(seed: int = 0, classify: bool = True) -> dict:
    """Design example: gain and excess rate from the reference design data,
    compound-condition cross-check on the closed loop, equilibrium census."""
    bundle = models.builtin("example25")
    doc = load_data("example25_design.json")
    design = design_from_data(doc)
    slack = data_slack(doc)

    K, omega, design_report = nv.synthesize_nl_gain(bundle.model, bundle.box, B=bundle.B,
                                                    slack=slack, **design)
    Kv = K.ravel()

    K_exp = np.asarray(doc["K_expected"], dtype=float)
    K_ok = bool(np.all(np.abs(Kv - K_exp) <= doc["K_tolerance"]))
    omega_ok = abs(omega - doc["omega_expected"]) <= doc["omega_tolerance"]

    closed = models.closed_loop(bundle, K).model
    q_report = nv.verify_compound_condition(
        closed, bundle.box, np.asarray(doc["Q"], dtype=float), doc["eta"], design["k"],
        slack=slack)

    eqs = sim.find_equilibria(closed, bundle.box)
    x1s = sorted(round(float(e.point[0]), 6) for e in eqs)
    n_unstable = sum(e.unstable for e in eqs)

    labels = []
    if classify:
        starts = bundle.box.sample(np.random.default_rng(seed), 3)
        labels = _attractor_labels(closed.f, starts, 200.0)[0]

    checks = {
        "gain_matches_reference": K_ok,
        "excess_rate_matches_reference": omega_ok,
        "compound_condition_accepted": q_report.verdict,
        "three_equilibria": len(eqs) == 3,
        "equilibrium_abscissae": bool(
            len(x1s) == 3 and all(abs(a - b) <= 1e-6 for a, b in zip(x1s, (-0.5, 0.0, 0.5)))),
        "exactly_one_unstable": n_unstable == 1,
    }
    if classify:
        checks["closed_loop_trajectories_settle"] = all(l == "fixed_point" for l in labels)

    return {
        "bundle": "example25",
        "anchors": ["gain-formula", "excess-rate", "compound-lmi-cross-check",
                    "equilibrium-census", "attractor-classification"],
        "K": Kv.tolist(),
        "K_expected": K_exp.tolist(),
        "omega": float(omega),
        "omega_expected": doc["omega_expected"],
        "design_inequalities": report_entry(design_report),
        "compound_condition": report_entry(q_report),
        "equilibria": [
            {"point": e.point.tolist(), "label": e.label,
             "eigenvalues_re": np.sort(e.eigenvalues.real).tolist()}
            for e in eqs
        ],
        "closed_loop_labels": labels,
        "checks": checks,
        "verdict": "success" if all(checks.values()) else "failure",
    }


BUNDLES = {
    "rossler": reproduce_rossler,
    "rossler_mod": reproduce_rossler_mod,
    "synchronverter": reproduce_synchronverter,
    "example25": reproduce_example25,
}
