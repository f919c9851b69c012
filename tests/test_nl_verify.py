import dataclasses
import math

import numpy as np
import pytest

from kcontract import lin_contraction as lc
from kcontract import lin_synthesis, models, nl_verify as nv, reproduce
from kcontract.nl_verify import Box, NonlinearCertificate


def linear_bundle(A):
    n = A.shape[0]
    return models.model_from_dict({
        "kind": "nonlinear", "dim": n,
        "f": [" + ".join(f"{float(A[i, j])!r}*x{j + 1}" for j in range(n)) for i in range(n)],
        "box": {"lower": [-1.0] * n, "upper": [1.0] * n},
    })


def test_envelope_linear_single_vertex():
    A = np.diag([-1.0, -2.0])
    b = linear_bundle(A)
    verts = nv.envelope_vertices(b.model, b.box)
    assert len(verts) == 1
    assert np.allclose(verts[0], A)


def test_envelope_modified_rossler_two_vertices():
    b = models.builtin("rossler_mod")
    box = Box(np.array([-2.0, -1.0, -1.0]), np.array([2.0, 1.0, 1.0]))
    verts = nv.envelope_vertices(b.model, box)
    assert len(verts) == 2
    # theta = x1^2 ranges over [0, 4]
    lo = b.model.A0
    hi = b.model.A0 + 4.0 * b.model.terms[0]
    assert np.allclose(verts[0], lo) and np.allclose(verts[1], hi)


def test_envelope_synchronverter_32_vertices():
    b = models.builtin("synchronverter")
    verts = nv.envelope_vertices(b.model, b.box)
    assert len(verts) == 32


def test_jacobian_accumulates_terms_in_order():
    # J = ((A0 + theta_1 A_1) + theta_2 A_2) + ..., bit for bit
    rng = np.random.default_rng(13)
    n = 3
    terms = [(rng.standard_normal((n, n)).tolist(),
              lambda x, j=j: math.sin(x[j % n]) * 10.0 ** j) for j in range(4)]
    model = nv.NonlinearModel(dim=n, f=lambda x: x, A0=rng.standard_normal((n, n)),
                              terms=[Aj for Aj, _ in terms],
                              theta=lambda x: [theta(x) for _, theta in terms],
                              bounds=lambda b: [])
    for x in rng.standard_normal((20, n)):
        J = np.array(model.A0, dtype=float, copy=True)
        for Aj, theta in terms:
            J += theta(x) * np.asarray(Aj, dtype=float)
        assert model.jacobian(x).tobytes() == J.tobytes()


def test_envelope_term_cap():
    n = 3
    mk = lambda: [[0.0] * n for _ in range(n)]
    terms = []
    for _ in range(17):
        M = mk()
        M[0][0] = 1e-9
        terms.append(np.asarray(M))
    model = nv.NonlinearModel(dim=n, f=lambda x: np.zeros(n), A0=-np.eye(n),
                              terms=terms, theta=lambda x: [0.0] * 17,
                              bounds=lambda b: [(0.0, 1.0)] * 17)
    box = Box(np.zeros(n), np.ones(n))
    with pytest.raises(ValueError, match="above the cap"):
        nv.envelope_vertices(model, box)


def test_envelope_soundness_sampling():
    # every sampled Jacobian margin is below the worst vertex margin
    b = models.builtin("rossler_mod")
    box = Box(np.array([-0.5, -0.5, -0.2]), np.array([0.5, 0.5, 0.2]))
    verts = nv.envelope_vertices(b.model, box)
    rng = np.random.default_rng(0)
    P = np.eye(3)
    mu = 0.0
    worst = max(nv.metric_condition_margin(P, J, mu) for J in verts)
    for x in box.sample(rng, 10_000):
        m = nv.metric_condition_margin(P, b.model.jacobian(x), mu)
        assert m <= worst + 1e-9


def test_split_box_refinement_tightens():
    b = models.builtin("synchronverter")
    doc_cert = np.array([
        [0.0007, 0.00001, -0.00851, -0.0692],
        [0.00001, 0.00027, -0.000382, -0.00009],
        [-0.00851, -0.000382, 0.157, 1.308],
        [-0.0692, -0.00009, 1.308, 0.842]])
    coarse = nv.envelope_vertices(b.model, b.box)
    fine = nv.envelope_vertices_refined(b.model, b.box, {3: 4})
    mc = max(nv.metric_condition_margin(doc_cert, J, -15.0) for J in coarse)
    mf = max(nv.metric_condition_margin(doc_cert, J, -15.0) for J in fine)
    assert mf <= mc


def test_refined_envelope_over_the_cap_rejected_before_work():
    b = models.builtin("synchronverter")

    def never(box):
        raise AssertionError("bounds computed for an oversized refinement")

    model = dataclasses.replace(b.model, bounds=never)
    # 64 * 8 slabs of 2^5 vertices each: 16384
    with pytest.raises(ValueError, match="16384 envelope vertices"):
        nv.envelope_vertices_refined(model, b.box, {3: 64, 2: 8})
    # no slabs would leave no vertex, and any certificate would pass vacuously
    with pytest.raises(ValueError, match="below 1"):
        nv.envelope_vertices_refined(model, b.box, {3: 8, 2: 0})
    shipped = reproduce.load_data("synchronverter_resolved.json")["refinement"]
    shipped = {int(axis): parts for axis, parts in shipped.items()}
    assert len(nv.envelope_vertices_refined(b.model, b.box, shipped)) == 256


def test_verify_without_vertices_raises_before_any_margin(monkeypatch):
    # no vertex would leave both margins at -inf and accept any certificate
    b = models.builtin("synchronverter")
    cert = reproduce.cert_from_data(reproduce.load_data("synchronverter_resolved.json"))

    def never(*args):
        raise AssertionError("margin computed without a vertex")

    # every margin is a batched eigvalsh of the vertex stack
    monkeypatch.setattr(np.linalg, "eigvalsh", never)
    with pytest.raises(ValueError, match="no envelope vertex to check"):
        nv.verify_nl_certificate(b.model, b.box, cert, vertices=[])


def loop_worst(margins):
    """(largest margin, its index) by the per-vertex loop: the first NaN, whose
    condition fails, else the first of tied maxima."""
    arg = 0
    for i, m in enumerate(margins):
        if np.isnan(m):
            return m, i
        if m > margins[arg]:
            arg = i
    return margins[arg], arg


def per_matrix(fn):
    """fn called on one matrix at a time, as the per-vertex loop called it."""
    def loop(a, *args, **kwargs):
        a = np.asarray(a)
        if a.ndim == 2:
            return fn(a, *args, **kwargs)
        return np.array([fn(m, *args, **kwargs) for m in a])
    return loop


def test_batched_margins_match_the_per_vertex_loop():
    b = models.builtin("synchronverter")
    doc = reproduce.load_data("synchronverter_resolved.json")
    verts = nv.envelope_vertices_refined(b.model, b.box,
                                         {int(a): p for a, p in doc["refinement"].items()})
    assert verts.shape == (256, 4, 4)
    cert = reproduce.cert_from_data(doc)
    rng = np.random.default_rng(5)
    B = rng.standard_normal((4, 2))
    for P, mu in ((cert.P0, cert.mu0), (cert.P1, cert.mu1)):
        want = [nv.metric_condition_margin(P, J, mu) for J in verts]
        got = nv.metric_condition_margin(P, verts, mu)
        assert got.tobytes() == np.array(want).tobytes()
        assert nv._worst(got) == loop_worst(want)
        want = [lin_synthesis.design_margin(J, B, P, mu) for J in verts]
        got = lin_synthesis.design_margin(verts, B, P, mu)
        assert got.tobytes() == np.array(want).tobytes()
        assert nv._worst(got) == loop_worst(want)


@pytest.mark.parametrize("margins", [
    [1.0, 3.0, 3.0, 2.0],           # tied maxima: the first wins
    [-0.0, 0.0], [0.0, -0.0],       # signed zeros tie
    [np.nan, -1.0, np.nan, -0.5],   # the first NaN fails
    [np.nan, np.nan], [-np.inf, np.nan], [5.0, np.nan, 6.0],
    [-2.0], [-np.inf, -np.inf],
])
def test_worst_matches_the_per_vertex_loop(margins):
    got, want = nv._worst(np.array(margins)), loop_worst(margins)
    assert got[1] == want[1] and np.array_equal(got[0], want[0], equal_nan=True)
    assert np.signbit(got[0]) == np.signbit(want[0])


def test_condition_no_vertex_could_evaluate_fails():
    # the printed synchronverter pair scaled by 1e306: every P1 margin
    # overflows to NaN, and a condition no vertex could evaluate fails
    b = models.builtin("synchronverter")
    cert = reproduce.cert_from_data(reproduce.load_data("synchronverter_cert.json"))
    cert = dataclasses.replace(cert, P0=cert.P0 * 1e306, P1=cert.P1 * 1e306)
    with np.errstate(all="ignore"):
        report = nv.verify_nl_certificate(b.model, b.box, cert)
    assert not report.verdict and math.isnan(report.margin("P1"))
    assert report.data["worst_vertex"] == {"P0": 24, "P1": 0}
    assert "P1 condition margin nan at vertex 0 not below 0" in report.diagnostics


def test_envelope_without_terms_is_a_one_vertex_stack():
    A = np.array([[-1.0, 2.0], [-0.0, -3.0]])
    b = linear_bundle(A)
    verts = nv.envelope_vertices(b.model, b.box)
    assert verts.shape == (1, 2, 2) and verts[0].tobytes() == b.model.A0.tobytes()
    P = np.eye(2)
    report = nv.verify_nl_certificate(b.model, b.box, NonlinearCertificate(
        P0=P, P1=P, mu0=-0.5, mu1=-0.5, k=1))
    assert report.margin("P0") == nv.metric_condition_margin(P, A, -0.5)
    assert report.data["worst_vertex"] == {"P0": 0, "P1": 0} and report.data["n_vertices"] == 1


def test_batched_search_matches_the_per_vertex_loop(monkeypatch):
    b = models.builtin("synchronverter")
    got = nv.search_nl_certificate(b.model, b.box, 2)
    monkeypatch.setattr(np.linalg, "eigvals", per_matrix(np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eigvalsh", per_matrix(np.linalg.eigvalsh))
    want = nv.search_nl_certificate(b.model, b.box, 2)
    assert got is not None and want is not None
    for field in ("P0", "P1", "mu0", "mu1", "k"):
        assert np.asarray(getattr(got, field)).tobytes() == \
            np.asarray(getattr(want, field)).tobytes(), field


def test_verify_structural_rejection_inertia():
    # identity has no negative direction: wrong inertia for the second metric
    b = models.builtin("rossler")
    cert = NonlinearCertificate(P0=np.eye(3), P1=np.eye(3), mu0=0.2, mu1=-0.45, k=3)
    report = nv.verify_nl_certificate(b.model, b.box, cert, slack=1e-2)
    assert not report.verdict
    assert "P1 inertia" in report.diagnostics


def test_verify_dimension_mismatch_raises():
    b = models.builtin("rossler")
    cert = NonlinearCertificate(P0=np.eye(2), P1=np.eye(2), mu0=0.0, mu1=-1.0, k=2)
    with pytest.raises(ValueError):
        nv.verify_nl_certificate(b.model, b.box, cert)


def test_verify_linear_reduction_agrees_with_lti_verifier():
    # with no envelope terms the vertex check is the LTI condition itself
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4)) - 1.5 * np.eye(4)
    k = 3
    assert lc.k_contractive_lti(A, k)[0]
    lin_cert = lc.build_certificate(A, k)
    bundle = linear_bundle(A)
    if lin_cert.ell == 2 and lin_cert.ds[1] == k - 1:
        cert = NonlinearCertificate(P0=lin_cert.mats[0], P1=lin_cert.mats[1],
                                    mu0=lin_cert.mus[0], mu1=lin_cert.mus[1], k=k)
        report = nv.verify_nl_certificate(bundle.model, bundle.box, cert)
        lin_report = lc.verify_certificate(A, k, lin_cert)
        assert report.verdict == lin_report.verdict


def test_verify_planar_flag():
    A = np.diag([-1.0, -3.0])
    bundle = linear_bundle(A)
    P0 = lc.shifted_inertia_certificate(A, -0.5)
    P1 = lc.shifted_inertia_certificate(A, -2.0)
    from kcontract.numkernel import inertia_symmetric
    assert inertia_symmetric(P1) == (1, 0, 1)
    cert = NonlinearCertificate(P0=P0, P1=P1, mu0=-0.5, mu1=-2.0, k=2)
    report = nv.verify_nl_certificate(bundle.model, bundle.box, cert)
    assert report.verdict and report.data["planar"]
    assert "compactness" in report.diagnostics


def test_compound_condition_linear_identity_metric():
    # Hurwitz normal matrix: Q = I certifies with eta = 2|Re lambda_max|
    A = np.array([[-1.0, 1.0], [-1.0, -1.0]])  # normal, eigenvalues -1 +- i
    bundle = linear_bundle(A)
    report = nv.verify_compound_condition(bundle.model, bundle.box, np.eye(2), 2.0, 1)
    assert report.verdict
    report = nv.verify_compound_condition(bundle.model, bundle.box, np.eye(2), 2.0 + 1e-6, 1)
    assert not report.verdict


def test_compound_condition_rejects_indefinite_q():
    b = models.builtin("rossler_mod")
    with pytest.raises(ValueError, match="positive definite"):
        nv.verify_compound_condition(b.model, b.box, np.diag([1.0, -1.0, 1.0]), 0.1, 2)


def test_synthesize_gain_zero_input():
    b = models.builtin("rossler_mod")
    W0 = np.eye(3)
    W1 = np.diag([-1.0, 1.0, 1.0])
    K, omega, report = nv.synthesize_nl_gain(
        b.model, b.box, W0, W1, 0.1, -0.5, np.zeros((3, 1)), 2)
    assert np.allclose(K, 0.0)
    assert omega == pytest.approx(nv.TINY_OMEGA, abs=1e-12)


def test_synthesize_gain_inertia_violation_raises():
    b = models.builtin("example25")
    with pytest.raises(ValueError, match="W1 inertia"):
        nv.synthesize_nl_gain(b.model, b.box, np.eye(3), np.eye(3), 0.3, -0.6, b.B, 2)
    with pytest.raises(ValueError, match="W0 must be positive definite"):
        nv.synthesize_nl_gain(b.model, b.box, -np.eye(3), np.diag([-1.0, 1.0, 1.0]),
                              0.3, -0.6, b.B, 2)


def test_metric_lmi_sign_decides_feasibility():
    # diag(0.5, -1, -2): a strict metric exists at every rate off the spectrum,
    # with one negative direction per eigenvalue above the rate
    from kcontract.numkernel import inertia_symmetric
    verts = [np.diag([0.5, -1.0, -2.0])]
    P, t = nv.solve_metric_lmi(verts, 0.58)
    assert t < 0 and inertia_symmetric(P) == (0, 0, 3)
    P, t = nv.solve_metric_lmi(verts, -0.82)
    assert t < 0 and inertia_symmetric(P) == (1, 0, 2)
    # at a rate on the spectrum no strict metric exists
    assert nv.solve_metric_lmi(verts, -1.0)[1] >= 0


def test_metric_lmi_rejects_an_oversized_vertex_set_before_any_allocation():
    # 70 000 references to one 20 x 20 matrix would need 70 002 * 211 * 400
    # entries (47 GB of float64) per tensor; the cap rejects them before np.asarray
    with pytest.raises(ValueError, match="cap of 16777216"):
        nv.solve_metric_lmi([np.zeros((20, 20))] * 70_000, 0.0)


def test_search_linear_system_succeeds():
    A = np.diag([0.5, -1.0, -2.0])  # 2-contractive but not 1-contractive
    bundle = linear_bundle(A)
    cert = nv.search_nl_certificate(bundle.model, bundle.box, 2)
    assert cert is not None
    report = nv.verify_nl_certificate(bundle.model, bundle.box, cert, slack=0.0)
    assert report.verdict


def test_search_failure_is_none():
    # expanding system: no certificate exists for k = 1
    A = np.diag([1.0, 2.0])
    bundle = linear_bundle(A)
    cert = nv.search_nl_certificate(bundle.model, bundle.box, 1)
    assert cert is None


def test_search_modified_rossler_on_derived_box():
    b = models.builtin("rossler_mod")
    box = Box(np.array([-0.46, -0.39, -0.14]), np.array([0.46, 0.39, 0.14]))
    cert = nv.search_nl_certificate(b.model, box, 3)
    assert cert is not None
    assert nv.verify_nl_certificate(b.model, box, cert, slack=0.0).verdict
    # accepted pairs are ordered: the second rate is strictly the smaller one
    assert cert.mu1 < cert.mu0
