import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from kcontract import models, reproduce
from kcontract.expressions import (IntervalError, gradient, monomial_text, normal_form,
                                   parse_expression)


def finite_difference_jacobian(field, x, eps: float = 1e-6):
    x = np.asarray(x, dtype=float)
    n = len(x)
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        J[:, j] = (np.asarray(field(x + e), dtype=float)
                   - np.asarray(field(x - e), dtype=float)) / (2 * eps)
    return J


def test_parse_linear_double_integrator():
    bundle = models.parse_model('{"kind":"linear","A":[[0,1],[0,0]],"B":[[0],[1]]}')
    assert bundle.kind == "linear"
    assert np.array_equal(bundle.A, [[0, 1], [0, 0]])
    assert np.array_equal(bundle.B, [[0], [1]])


def test_parse_error_carries_location():
    with pytest.raises(ValueError, match="line 1"):
        models.parse_model('{"kind": ')


def test_unknown_kind():
    with pytest.raises(ValueError, match="unknown model kind"):
        models.parse_model('{"kind":"quantum"}')


def test_builtin_names():
    with pytest.raises(ValueError, match="unknown builtin"):
        models.builtin("lorenz")
    for name in ("rossler", "rossler_mod", "synchronverter", "example25"):
        assert models.builtin(name).name == name
    with pytest.raises(ValueError, match=re.escape("'rossler' takes no params, got ['J']")):
        models.builtin("rossler", J=1.0)


def test_rossler_mod_field_values():
    b = models.builtin("rossler_mod")
    f = b.model.f(np.array([0.2, 0.5, -0.1]))
    assert f[0] == pytest.approx(0.5 - 2 * (-0.1))
    assert f[1] == pytest.approx(-0.2 - (-0.1))
    assert f[2] == pytest.approx(0.5 * ((0.2 - 0.2 ** 3) - (-0.1)))


def test_synchronverter_field_matches_parameters():
    p = models.SYNCHRONVERTER_DEFAULTS
    b = models.builtin("synchronverter")
    x = np.array([-30.0, 5.0, 300.0, 0.3])
    f = b.model.f(x)
    R, L, V = p["R"], p["L"], p["V"]
    assert f[0] == pytest.approx(-(R / L) * x[0] + x[1] * x[2] + (V / L) * np.sin(x[3]))
    assert f[3] == pytest.approx(x[2] - p["w_n"])


def test_synchronverter_override():
    p = models.SYNCHRONVERTER_DEFAULTS
    b = models.builtin("synchronverter", T_m=7.0)
    f = b.model.f(np.array([0.0, 0.0, p["w_n"], 0.0]))
    assert f[2] == pytest.approx(7.0 / p["J"])
    with pytest.raises(ValueError, match="unknown synchronverter"):
        models.builtin("synchronverter", mass=1.0)


def test_envelope_consistency_all_builtins():
    # the derived A0 + sum theta_j A_j must match the field Jacobian everywhere
    rng = np.random.default_rng(0)
    for name in ("rossler", "rossler_mod", "synchronverter", "example25"):
        b = models.builtin(name)
        for x in b.box.sample(rng, 20):
            J_env = b.model.jacobian(x)
            J_fd = finite_difference_jacobian(b.model.f, x)
            assert np.abs(J_env - J_fd).max() <= 1e-6 * (1.0 + np.abs(J_env).max())


def test_envelope_mismatch_rejected():
    # a document may not declare an envelope, whether it is the field's or not
    doc = {"kind": "nonlinear", "dim": 2, "f": ["x2", "-x1"],
           "box": {"lower": [-1, -1], "upper": [1, 1]}}
    spurious = [{"A": [[0, 0], [1, 0]], "theta": "x1"}]
    for declared in ({"A0": [[0, 1], [-1, 0]]}, {"terms": spurious},
                     {"A0": [[0, 1], [-1, 0]], "terms": spurious}, {"terms": []}):
        key = "A0" if "A0" in declared else "terms"
        with pytest.raises(ValueError, match=f"^{key} is not accepted: the envelope is "
                                             f"derived from f$"):
            models.model_from_dict(doc | declared)


def test_builtin_round_trip():
    # serialize -> parse -> same field at random points
    rng = np.random.default_rng(1)
    for name in ("rossler", "rossler_mod", "synchronverter", "example25"):
        b = models.builtin(name)
        doc = json.dumps(b.to_json())
        b2 = models.parse_model(doc)
        for x in b.box.sample(rng, 100):
            assert np.abs(b.model.f(x) - b2.model.f(x)).max() <= 1e-12 * (
                1.0 + np.abs(b.model.f(x)).max())
        assert np.allclose(b2.model.A0, b.model.A0)


def example25_gain():
    K = reproduce.load_data("example25_design.json")["K_expected"]
    return np.asarray(K, dtype=float).reshape(1, -1)


def test_closed_loop_is_the_feedback_field():
    bundle, K = models.builtin("example25"), example25_gain()
    closed = models.closed_loop(bundle, K)

    def closed_field(x):  # the reference: the loop closed around the numpy field
        return bundle.model.f(x) - bundle.B.ravel() * float(K.ravel() @ x)

    again = models.model_from_dict(closed.to_json())
    for x in bundle.box.sample(np.random.default_rng(3), 100):
        want = closed_field(x)
        assert np.abs(closed.model.f(x) - want).max() <= 1e-14 * np.abs(want).max()
        assert again.model.f(x).tobytes() == closed.model.f(x).tobytes()
    assert closed.model.A0.tobytes() == (bundle.model.A0 - bundle.B @ K).tobytes()
    # only the input row changes; terms, theta, box and B are kept
    assert [closed.f_exprs[i] == bundle.f_exprs[i] for i in range(3)] == [True, False, True]
    assert closed.theta_exprs == bundle.theta_exprs
    assert all(np.array_equal(a, b) for a, b in zip(closed.model.terms, bundle.model.terms))
    assert np.array_equal(closed.box.lower, bundle.box.lower)
    assert np.array_equal(closed.box.upper, bundle.box.upper)
    assert np.array_equal(closed.B, bundle.B)


def test_closed_loop_rejects_bad_input_before_work(monkeypatch):
    K = example25_gain()
    linear = models.model_from_dict({"kind": "linear", "A": np.eye(3).tolist(),
                                     "B": [[0.0], [1.0], [0.0]]})
    example25 = models.builtin("example25")
    cases = [(linear, K), (models.builtin("rossler"), K), (example25, K.ravel()),
             (example25, K[:, :2]), (example25, np.vstack([K, K])),
             (example25, K * [1.0, np.nan, 1.0]), (example25, K * [1.0, 1.0, np.inf])]

    def never(doc):
        raise AssertionError("closed loop built from a bad input")

    monkeypatch.setattr(models, "model_from_dict", never)
    for bundle, gain in cases:
        with pytest.raises(ValueError):
            models.closed_loop(bundle, gain)


def test_theta_bounds_from_intervals():
    b = models.builtin("rossler_mod")
    from kcontract.nl_verify import Box
    box = Box(np.array([-2.0, -1.0, -1.0]), np.array([2.0, 1.0, 1.0]))
    (lo, hi), = b.model.bounds(box)
    assert (lo, hi) == (0.0, 4.0)


def test_envelope_check_rejects_non_finite_jacobian():
    # d f1 / d x1 = 2e400 x1 is exact, but its coefficient is past the float range
    doc = {"kind": "nonlinear", "dim": 2, "f": ["1e200*1e200*x1^2 + x2", "-x1"],
           "box": {"lower": [-1, -1], "upper": [1, 1]}}
    with pytest.raises(ValueError, match=re.escape("a Jacobian coefficient of x1 overflows")):
        models.model_from_dict(doc)


def test_bounds_reject_non_finite():
    # theta x1^2 (of d/dx1 (1e-100 x1)^3) reaches 1e400 on the box: the power
    # overflows to inf, and bounds refuses it
    doc = {"kind": "nonlinear", "dim": 2, "f": ["x2", "-x1 + (1e-100*x1)^3"],
           "box": {"lower": [-1e200, -1], "upper": [1e200, 1]}}
    bundle = models.model_from_dict(doc)
    assert bundle.theta_exprs == ["x1^2"]
    with pytest.raises(IntervalError, match=re.escape(
            "envelope parameter 1 (x1^2) has the non-finite bound (0.0, inf)")):
        bundle.model.bounds(bundle.box)


def rossler_mod_doc():
    return models.builtin("rossler_mod").to_json() | {"B": [[0.0], [1.0], [0.0]]}


def edit(doc, path, value):
    """doc with the entry at path (keys and indices) set to value, or deleted
    when value is Ellipsis."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is ...:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def closed_loop_docs():
    """The example25 closed loop, and a two-input one whose B K entries are
    sums of two rounded products."""
    K = example25_gain()
    two = models.builtin("example25")
    two.B = np.array([[0.3, 0.0], [1.0, 0.7], [0.0, 0.1]])
    K2 = np.vstack([K, np.random.default_rng(5).standard_normal((1, 3))])
    return [models.closed_loop(models.builtin("example25"), K).to_json(),
            models.closed_loop(two, K2).to_json()]


# the first 16 hex digits of envelope_digest, as the hand-written envelopes of
# the built-ins and the closed loops' A0 - BK gave them; the envelopes derived
# from their fields keep these bytes
DECLARED_ENVELOPES = {
    "rossler": "7a9ff330c84b1448", "rossler_mod": "e9451b97d336dddb",
    "synchronverter": "c91f3635c147d59b", "example25": "8aae46f6f96090b9",
    "closed_loop": "028332eabb7a5ff2", "closed_loop_two_inputs": "745f128c6769e803",
}


def envelope_digest(bundle):
    """SHA-256 over the bytes of A0 and each A_m, the theta texts and bounds(box)."""
    h = hashlib.sha256(bundle.model.A0.tobytes())
    for A in bundle.model.terms:
        h.update(A.tobytes())
    h.update(repr((bundle.theta_exprs, bundle.model.bounds(bundle.box))).encode())
    return h.hexdigest()[:16]


def test_derived_envelopes_are_the_declared_ones():
    docs = dict(zip(["closed_loop", "closed_loop_two_inputs"], closed_loop_docs()))
    for name in models.BUILTINS:
        assert envelope_digest(models.builtin(name)) == DECLARED_ENVELOPES[name]
        docs[name] = models.builtin(name).to_json()
    for name, doc in docs.items():
        assert envelope_digest(models.model_from_dict(doc)) == DECLARED_ENVELOPES[name]
    # theta order: total degree, then x_i by index < sin < cos
    assert models.builtin("synchronverter").theta_exprs == ["x1", "x2", "x3", "sin(x4)",
                                                            "cos(x4)"]


# envelope_digest of three derived documents with nested sin and cos, as the
# chain rule taken one (atom, x_j) pair at a time gave them
NESTED_TRIG_ENVELOPES = {
    ("sin(x1*cos(x2))", "-x2", "-x3"): "c98558c489c87dfc",
    ("-x1", "-x2", "cos(sin(x1) + x2^2)*x3"): "14a0e5d59e031d15",
    ("x1*x2*sin(x3 - x1)", "-x2", "-x3"): "f938c515372d3e70",
}


@pytest.mark.parametrize("f", NESTED_TRIG_ENVELOPES)
def test_nested_trig_envelopes_keep_their_bytes(f):
    doc = {"kind": "nonlinear", "dim": 3, "f": list(f),
           "box": {"lower": [-1, -1, -1], "upper": [1, 1, 1]}}
    assert envelope_digest(models.model_from_dict(doc)) == NESTED_TRIG_ENVELOPES[f]


def test_load_forms_only_the_fields_jacobian_entries(monkeypatch):
    # f_i = -x_i: one gradient call per component, one partial each
    n, calls, entries = 1000, [], []

    def counted(form, cache=None):
        grad = gradient(form, cache)
        calls.append(form)
        entries.extend((j, m) for j, partial in grad.items() for m in partial)
        return grad

    monkeypatch.setattr(models, "gradient", counted)
    doc = {"kind": "nonlinear", "dim": n, "f": [f"-x{i + 1}" for i in range(n)],
           "box": {"lower": [-1] * n, "upper": [1] * n}}
    bundle = models.model_from_dict(doc)
    assert len(calls) == n and len(entries) == n
    assert bundle.theta_exprs == [] and (bundle.model.A0 == -np.eye(n)).all()


def test_envelope_is_derived_only():
    doc = {"kind": "nonlinear", "dim": 1, "f": ["sin(x1/3)"], "box": {"lower": [-1], "upper": [1]}}
    # 1/3 is not a float: the theta text writes it as (1/3), which parses back to it
    bundle = models.model_from_dict(doc)
    assert bundle.theta_exprs == ["cos((1/3)*x1)"]
    assert bundle.model.terms[0].tolist() == [[1 / 3]] and bundle.model.A0.tolist() == [[0.0]]
    (lo, hi), = bundle.model.bounds(bundle.box)
    assert (round(lo, 5), hi) == (0.94496, 1.0)
    # a coefficient past the float range inside the argument
    with pytest.raises(ValueError, match=re.escape("monomial cos(inf*x1) has no exact text")):
        models.model_from_dict(doc | {"f": ["sin(1e200*1e200*x1)"]})


def test_theta_coefficient_whose_numerator_is_not_a_float_loads():
    # -1/3 + 0.1/3 has a numerator of 55 significant bits, not a float: the
    # theta text writes it as a sum of two ints that are
    f = "sin(-x1/3 + 0.1*x1/3)"
    bundle = models.model_from_dict({"kind": "nonlinear", "dim": 1, "f": [f],
                                     "box": {"lower": [-1], "upper": [1]}})
    assert bundle.theta_exprs == ["cos((-(32425917317067568 + 3)/108086391056891904)*x1)"]
    (monomial, c), = gradient(normal_form(parse_expression(f, 1)))[0].items()
    assert c == (Fraction(-1) + Fraction(0.1)) / 3
    assert normal_form(parse_expression(bundle.theta_exprs[0], 1)) == {monomial: 1}
    (lo, hi), = bundle.model.bounds(bundle.box)
    X = bundle.box.sample(np.random.default_rng(0), 200)
    assert all(lo <= bundle.model.theta(x)[0] <= hi for x in [bundle.box.lower, *X])


@pytest.mark.parametrize("c", [Fraction(2**120 + 2**60 + 1, 3**40), Fraction(-(3**40), 7),
                               Fraction(2**1023 + 1, 3)])
def test_monomial_text_writes_wide_coefficients_exactly(c):
    # a numerator or denominator wider than a float is a sum of floats, as
    # many as its bits need
    arg = frozenset({(frozenset({(("x", 0), 1)}), c)})
    monomial = frozenset({(("sin", arg), 1)})
    assert normal_form(parse_expression(monomial_text(monomial), 1)) == {monomial: 1}


def test_exact_envelope_accepts_builtins_and_closed_loops():
    # to_json writes the field alone, which reloads to the same envelope
    docs = [models.builtin(name).to_json() for name in models.BUILTINS] + closed_loop_docs()
    for doc in docs:
        assert "A0" not in doc and "terms" not in doc
        bundle = models.model_from_dict(doc)
        assert envelope_digest(models.model_from_dict(bundle.to_json())) == envelope_digest(bundle)


def test_field_not_finite_in_the_box_is_refused():
    # the exact form is x2, so the envelope is finite; in floats the first
    # component is inf - inf = nan wherever |x1| > 1e-46, though 0 at the centre
    doc = {
        "kind": "nonlinear", "dim": 2,
        "f": ["(1e200*x1)*(1e200*x1) - (1e200*x1)*(1e200*x1) + x2", "-x1"],
        "box": {"lower": [-1, -1], "upper": [1, 1]},
    }
    with pytest.raises(ValueError, match=r"f is not finite in floats at x = \[.*\] in the box"):
        models.model_from_dict(doc)
    doc["f"][0] = "x2"
    assert models.model_from_dict(doc).model.f(np.array([0.5, 0.0])).tolist() == [0.0, -0.5]


def test_envelope_error_elides_nested_arguments():
    # d/dx1 of sin(sin(...x1...)) 100 deep is a product of 100 cos factors,
    # 99 of them with nested arguments: a theta text nested past MAX_DEPTH
    f = "x1"
    for _ in range(100):
        f = f"sin({f})"
    doc = {"kind": "nonlinear", "dim": 1, "f": [f], "box": {"lower": [-1], "upper": [1]}}
    with pytest.raises(ValueError,
                       match=r"monomial cos\(x1\)\*cos\(…\)\^99 has no exact text") as exc:
        models.model_from_dict(doc)
    assert len(str(exc.value).encode()) < 1000
