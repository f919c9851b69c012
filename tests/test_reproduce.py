import time

import numpy as np
from test_sim import cores, trace_bytes

from kcontract import cli, models, nl_verify as nv, reproduce, sim


def test_compound_constant_check_helper():
    dev = reproduce.compound_constant_check(models.builtin("rossler"))
    assert dev == 0.0


def test_compound_constant_check_reports_the_vertex_maximum():
    # rossler with -x3^2 added to x3': J^[3] = trace J = -0.5 - 2 x3, whose
    # largest deviation on the box is 8 at x3 = 4; seeded states only approach it
    bundle = models.model_from_dict({
        "kind": "nonlinear", "dim": 3,
        "f": ["x2", "-x1 - x3", "0.5*((x1 - x1^2) - x3) - x3^2"],
        "box": {"lower": [-5, -5, -2], "upper": [6, 5, 4]}})
    assert reproduce.compound_constant_check(bundle) == 8.0
    states = bundle.box.sample(np.random.default_rng(0), 100)
    sampled = max(abs(np.trace(bundle.model.jacobian(x)) + 0.5) for x in states)
    assert 0.0 < sampled < 8.0


def test_derive_attractor_box_protocol():
    bundle = models.builtin("rossler_mod")
    box, tr = reproduce.derive_attractor_box(bundle, [0.2, 0.5, 0.0])
    assert not tr.truncated
    assert box.contains(tr.states[-1])
    # inflation leaves slack around the trailing samples
    tail = tr.states[len(tr) // 2:]
    assert np.all(box.lower < tail.min(axis=0))
    assert np.all(box.upper > tail.max(axis=0))


def test_decay_rate_dominates_certificate_budget():
    # accepted pair with rates (mu0, mu1): fitted compound decay is at least
    # -(mu1 + (k-1) mu0) up to transient tolerance, over random starts
    bundle = models.builtin("rossler_mod")
    box, _ = reproduce.derive_attractor_box(bundle, [0.2, 0.5, 0.0])
    cert = nv.search_nl_certificate(bundle.model, box, 3)
    assert cert is not None
    bound = -cert.rate_sum - 0.1
    rng = np.random.default_rng(5)
    for x0 in box.sample(rng, 20):
        tr = sim.integrate_compound(bundle.model, x0, np.eye(3), 3, 8.0, 1e-3,
                                    record_every=10)
        a, _, _ = sim.fit_decay(tr)
        assert a >= bound


def test_no_repelling_equilibria_under_full_order_contraction():
    # the chaotic example has constant negative full-order compound, so no
    # equilibrium can repel in every direction
    bundle = models.builtin("rossler")
    eqs = sim.find_equilibria(bundle.model, bundle.box)
    assert eqs, "expected at least one equilibrium in the box"
    assert all(not e.repelling for e in eqs)


def test_bundle_quick_synchronverter():
    r = reproduce.reproduce_synchronverter(classify=False, squares=0)
    assert r["verdict"] == "success"
    assert r["printed_inertia"] == {"P0": [0, 0, 4], "P1": [1, 0, 3]}
    assert r["refinement"] == {"3": 8}
    assert r["resolved_certificate"]["data"]["n_vertices"] == 256


def test_rossler_mod_packaged_pair_rederived():
    # both metrics are found at the printed rates on the bundle's derived box,
    # the box the packaged pair is recorded on
    bundle = models.builtin("rossler_mod")
    doc = reproduce.load_data("rossler_mod_resolved.json")
    box, _ = reproduce.derive_attractor_box(bundle, [0.2, 0.5, 0.0])
    assert doc["box"] == {"lower": box.lower.tolist(), "upper": box.upper.tolist()}
    verts = nv.envelope_vertices(bundle.model, box)
    (P0, t0), (P1, t1) = (nv.solve_metric_lmi(verts, mu) for mu in (doc["mu0"], doc["mu1"]))
    assert t0 < 0 and t1 < 0
    cert = nv.NonlinearCertificate(P0=P0, P1=P1, mu0=doc["mu0"], mu1=doc["mu1"], k=doc["k"])
    assert nv.verify_nl_certificate(bundle.model, box, cert, slack=0.0).verdict


def test_synchronverter_pair_rederived_on_refinement():
    # both metrics are found at the packaged rates on the packaged refinement
    bundle = models.builtin("synchronverter")
    doc = reproduce.load_data("synchronverter_resolved.json")
    refinement = {int(a): b for a, b in doc["refinement"].items()}
    verts = nv.envelope_vertices_refined(bundle.model, bundle.box, refinement)
    (P0, t0), (P1, t1) = (nv.solve_metric_lmi(verts, mu) for mu in (doc["mu0"], doc["mu1"]))
    assert t0 < 0 and t1 < 0
    cert = nv.NonlinearCertificate(P0=P0, P1=P1, mu0=doc["mu0"], mu1=doc["mu1"], k=doc["k"])
    assert nv.verify_nl_certificate(bundle.model, bundle.box, cert, slack=0.0,
                                    vertices=verts).verdict


def test_shipped_data_reads_the_same_floats():
    for name in ("rossler_mod_cert", "rossler_mod_resolved", "synchronverter_cert",
                 "synchronverter_resolved"):
        doc = reproduce.load_data(f"{name}.json")
        cert = reproduce.cert_from_data(doc)
        for m in ("P0", "P1"):
            assert np.array_equal(getattr(cert, m), doc[m])
        assert (cert.mu0, cert.mu1, cert.k) == (doc["mu0"], doc["mu1"], doc["k"])
    doc = reproduce.load_data("example25_design.json")
    design = reproduce.design_from_data(doc)
    assert np.array_equal(design["W0"], doc["W0"]) and np.array_equal(design["W1"], doc["W1"])
    assert [design[k] for k in ("mu0", "mu1", "k")] == [doc[k] for k in ("mu0", "mu1", "k")]


def test_bundle_quick_example25():
    r = reproduce.reproduce_example25(classify=False)
    assert r["verdict"] == "success"
    assert np.all(np.abs(np.array(r["K"]) - r["K_expected"]) <= 0.02)


def test_example25_mirrored_equilibria_share_their_spectrum():
    # the closed loop is odd, f(-x) = -f(x), so J(x) = J(-x): the exact
    # Jacobian gives the x1 = +-0.5 pair one spectrum, where central
    # differences left the real parts 4e-11 apart
    eqs = reproduce.reproduce_example25(classify=False)["equilibria"]
    low, high = (e for e in eqs if abs(e["point"][0]) > 0.25)
    assert low["point"][0] < 0 < high["point"][0]
    assert np.allclose(low["eigenvalues_re"], high["eigenvalues_re"], rtol=0, atol=1e-13)


# every call site of stepper.concurrently in the bundles, at sizes that stay
# quick on the Python loop
CONCURRENT_SETTINGS = {
    "rossler": {"t_classify": 20.0},
    "rossler_mod": {"classify": False},
    "synchronverter": {"trajectories": 3, "squares": 3},
    "example25": {"classify": False},
}


def test_bundle_reports_are_the_same_on_one_core_and_on_four():
    # on one core no thread starts and every run follows the one before
    reports = {}
    for count in (1, 4):
        with cores(count):
            for name, settings in CONCURRENT_SETTINGS.items():
                report = reproduce.BUNDLES[name](seed=3, **settings)
                trace = report.pop("trace", None)
                report.pop("resolved", None)
                reports.setdefault(name, []).append(
                    (cli.dumps(report), None if trace is None else trace_bytes(trace)))
    for name, (one, four) in reports.items():
        assert one == four, name


def test_all_bundles_under_a_minute():
    t0 = time.time()
    for name, fn in reproduce.BUNDLES.items():
        result = fn(seed=0)
        assert result["verdict"] == "success", (name, result["checks"])
    elapsed = time.time() - t0
    print(f"\nfour bundles end-to-end: {elapsed:.0f}s")
    assert elapsed < 60.0
