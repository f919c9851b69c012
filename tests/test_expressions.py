import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kcontract import sim
from kcontract.expressions import (IntervalError, Node, ParseError, compile_model,
                                   parse_expression)


# The tree-walking evaluator the compiled source replaces, kept as the oracle.
def ref_eval(node, x):
    op, args = node.op, node.args
    if op == "const":
        return args[0]
    if op == "var":
        return float(x[args[0]])
    if op == "neg":
        return -ref_eval(args[0], x)
    if op == "+":
        return ref_eval(args[0], x) + ref_eval(args[1], x)
    if op == "-":
        return ref_eval(args[0], x) - ref_eval(args[1], x)
    if op == "*":
        return ref_eval(args[0], x) * ref_eval(args[1], x)
    if op == "/":
        return ref_eval(args[0], x) / ref_eval(args[1], x)
    if op == "pow":
        return ref_eval(args[0], x) ** args[1]
    if op == "sin":
        return math.sin(ref_eval(args[0], x))
    if op == "cos":
        return math.cos(ref_eval(args[0], x))
    raise AssertionError(op)


def ref_eval_batch(node, X):
    op, args = node.op, node.args
    if op == "const":
        return np.full(X.shape[0], args[0])
    if op == "var":
        return X[:, args[0]]
    if op == "neg":
        return -ref_eval_batch(args[0], X)
    if op in ("+", "-", "*", "/"):
        a = ref_eval_batch(args[0], X)
        b = ref_eval_batch(args[1], X)
        return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[op](a, b)
    if op == "pow":
        return ref_eval_batch(args[0], X) ** args[1]
    if op == "sin":
        return np.sin(ref_eval_batch(args[0], X))
    if op == "cos":
        return np.cos(ref_eval_batch(args[0], X))
    raise AssertionError(op)


@lru_cache(maxsize=None)
def compiled(node, dim):
    return compile_model(dim, [node], [node])


def value(node, x):
    """The compiled scalar value of one expression at x."""
    return compiled(node, len(x))[1](x)[0]


def assert_rows_run_as_integrate(f, X, t_end, h, every=1):
    """integrate_batch(f, X) holds, byte for byte, the runs of integrate(f, row)
    on the Python loop, up to the last record before the first truncation;
    returns the batch's times and the runs."""
    times, traj = sim.integrate_batch(f, X, t_end, h, every)
    with pytest.MonkeyPatch.context() as m:
        m.setenv("CC", "false")
        runs = [sim.integrate(f, row, t_end, h, every) for row in X]
    assert len(times) == min(len(tr) for tr in runs)
    for j, tr in enumerate(runs):
        assert times.tobytes() == tr.times[:len(times)].tobytes()
        assert traj[:, j].tobytes() == tr.states[:len(times)].tobytes()
    assert np.isfinite(traj).all()
    return times, runs


def test_basic_arithmetic():
    e = parse_expression("x1*(x1^2 - 0.25)", 1)
    assert value(e, [0.5]) == pytest.approx(0.0)
    assert value(e, [1.0]) == pytest.approx(0.75)


def test_trig_and_unary_minus():
    e = parse_expression("-sin(x1) + cos(x2)", 2)
    assert value(e, [math.pi / 2, 0.0]) == pytest.approx(0.0)


def test_double_star_power():
    e = parse_expression("x1**3", 1)
    assert value(e, [2.0]) == pytest.approx(8.0)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + $", 1)
    assert "position" in str(err.value)


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_expression("x3 + 1", 2)


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expression("x1^1.5", 1)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expression("x1 x1", 1)


def test_interval_square():
    e = parse_expression("x1^2", 1)
    assert e.interval([(-2.0, 2.0)]) == (0.0, 4.0)


def test_interval_trig():
    e = parse_expression("sin(x1)", 1)
    lo, hi = e.interval([(-0.2, 1.0)])
    assert lo == pytest.approx(math.sin(-0.2))
    assert hi == pytest.approx(math.sin(1.0))
    e = parse_expression("cos(x1)", 1)
    lo, hi = e.interval([(-0.2, 1.0)])
    assert lo == pytest.approx(math.cos(1.0))
    assert hi == pytest.approx(1.0)


def test_interval_division_by_zero_crossing():
    e = parse_expression("1/x1", 1)
    with pytest.raises(IntervalError):
        e.interval([(-1.0, 1.0)])


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=80, deadline=None)
def test_interval_soundness(seed):
    # interval bound must contain every sampled value
    rng = np.random.default_rng(seed)
    exprs = ["x1*(x1^2 - 0.25)", "sin(x1)*cos(x2)", "x1*x2 - 2*x2^3",
             "0.5*((x1 - x1^3) - x2)"]
    text = exprs[seed % len(exprs)]
    e = parse_expression(text, 2)
    lo = rng.uniform(-3, 0, 2)
    hi = lo + rng.uniform(0.1, 3, 2)
    ivlo, ivhi = e.interval([(lo[0], hi[0]), (lo[1], hi[1])])
    for _ in range(50):
        x = lo + rng.random(2) * (hi - lo)
        v = value(e, x)
        assert ivlo - 1e-9 <= v <= ivhi + 1e-9


def test_eval_batch_matches_scalar():
    # a batch evaluates f on each row exactly as the scalar loop does
    e = parse_expression("sin(x1)*x2 - x2^2/(2 + cos(x1))", 2)
    X = np.random.default_rng(0).standard_normal((40, 2))
    times, _ = assert_rows_run_as_integrate(compile_model(2, [e, e], [])[0], X, 0.05, 0.01)
    assert len(times) == 6


def test_non_finite_literal_rejected_with_position():
    for text, pos in (("1e999*x1 + 1", 0), ("x1 + 2.5e400", 5)):
        with pytest.raises(ParseError) as err:
            parse_expression(text, 1)
        assert err.value.position == pos


def node_trees(dim):
    """Random expression trees over every operation, sin/cos and pow included."""
    leaves = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(lambda v: Node("const", (v,))),
        st.sampled_from([0.0, -0.0, 0.5, 2.0]).map(lambda v: Node("const", (v,))),
        st.integers(0, dim - 1).map(lambda i: Node("var", (i,))),
    )

    def extend(children):
        return st.one_of(
            children.map(lambda a: Node("neg", (a,))),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Node(t[0], (t[1], t[2]))),
            st.tuples(children, st.integers(0, 5)).map(lambda t: Node("pow", t)),
            st.tuples(st.sampled_from(["sin", "cos"]), children).map(
                lambda t: Node(t[0], (t[1],))),
        )
    return st.recursive(leaves, extend, max_leaves=10)


def outcome(fn, *args):
    """The bytes of fn's result as float64, or the class of the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(*args), dtype=float).tobytes()
    except Exception as exc:  # noqa: BLE001 -- the class is what is compared
        return type(exc)


STATES = st.floats(min_value=-1e3, max_value=1e3) | st.sampled_from([0.0, -0.0, 1e300])


@given(node_trees(2), st.lists(st.tuples(STATES, STATES), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_compiled_matches_tree_walker(node, rows):
    X = np.array(rows, dtype=float)
    f, theta = compile_model(2, [node, node], [node])
    for x in X:
        want = outcome(ref_eval, node, x)
        assert outcome(lambda y: theta(y)[0], x) == want
        assert outcome(lambda y: f(y)[1], x) == want
    # one step of a batch: a row whose value fails as floats do ends it at once
    times, _ = assert_rows_run_as_integrate(f, X, 0.5, 0.5)
    if any(isinstance(outcome(ref_eval, node, x), type) for x in X):
        assert len(times) == 1
