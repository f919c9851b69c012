import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from kcontract import sim
from kcontract.expressions import (MAX_COEFFICIENT_BITS, MAX_DEPTH, MAX_NORMAL_FORM,
                                   MAX_OPERATORS, IntervalError, Node, ParseError, compile_model,
                                   gradient, normal_form, parse_expression)


def const(v):
    return Node("const", (v,))


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


@pytest.mark.parametrize("text, position", [
    ("1_0", 0), ("0x10", 0), ("1j", 0), ("True", 0), ("x1 if x2 else x3", 0), ("x1 # c", 3),
    ("x1;x2", 2), ("x1,x2", 2), ("x1//x2", 0), ("x1 % 2", 3), ("+x1", 0), ("x1.real", 0),
    ("x1^(2)", 4), ("2^-1", 3), ("x1^2^3", 3), ("sin(x1, x2)", 6), ("sin()", 0), ("x1()", 0),
    ("x1 + \u0663", 5),  # ARABIC-INDIC DIGIT THREE: only ASCII digits make numbers
    ("x1)+(x2", 2), ("", 0), ("x1 x1", 0), ("sin x1", 0),
])
def test_forms_outside_the_grammar_are_refused(text, position):
    with pytest.raises(ParseError) as err:
        parse_expression(text, 2)
    assert err.value.position == position
    # no hint of Python's, such as "invalid syntax. Perhaps you forgot a comma?"
    assert "?" not in str(err.value)


X1, X2 = Node("var", (0,)), Node("var", (1,))


@pytest.mark.parametrize("text, want", [
    ("01", const(1.0)), ("x01", X1), ("1.5e-08", const(1.5e-08)), ("007.5e-007", const(7.5e-07)),
    ("x1^2.0", Node("pow", (X1, 2))), ("x1^1e1", Node("pow", (X1, 10))),
    ("x1\n+ x2", Node("+", (X1, X2))), ("x1\u2003+\tx2 ", Node("+", (X1, X2))),
    ("-2", Node("neg", (const(2.0),))), ("-x1^2", Node("neg", (Node("pow", (X1, 2)),))),
    ("sin (x1)^2", Node("pow", (Node("sin", (X1,)), 2))),
])
def test_forms_that_load(text, want):
    assert parse_expression(text, 2) == want


def test_parentheses_and_negations_nest_apart():
    # each bounded by MAX_DEPTH on its own, not the two together
    assert parse_expression("(" * 60 + "-" * 50 + "x1" + ")" * 60, 1) == parse_expression(
        "-" * 50 + "x1", 1)
    deep = MAX_DEPTH + 1
    for text in ("(" * deep + "x1" + ")" * deep, "-" * deep + "x1"):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
            parse_expression(text, 1)


def balanced_sum(terms):
    """x1 + x1 + ... with terms terms, in balanced parentheses."""
    if terms == 1:
        return "x1"
    return f"({balanced_sum(terms // 2)} + {balanced_sum(terms - terms // 2)})"


def test_operator_count_bound():
    # a text at the bound is read by Python's parser; one operator more is refused before
    node = parse_expression(balanced_sum(MAX_OPERATORS + 1), 1)
    assert normal_form(node) == {frozenset({(("x", 0), 1)}): MAX_OPERATORS + 1}
    with pytest.raises(ParseError, match=f"more than {MAX_OPERATORS} operators"):
        parse_expression(balanced_sum(MAX_OPERATORS + 2), 1)


def spaces():
    return st.sampled_from(["", " ", "  ", "\t", "\n", "\u2003"])


PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4}


def printed(data, node):
    """node as text, drawing the spacing, redundant parentheses, ^ or **,
    leading zeros and the form of each number from data."""
    op, args = node.op, node.args

    def operand(child, needs_parentheses):
        text = printed(data, child)
        return f"({data.draw(spaces())}{text}{data.draw(spaces())})" if needs_parentheses else text

    if op == "const":
        text = data.draw(st.sampled_from(["", "0", "00"])) + repr(args[0])
    elif op == "var":
        text = f"x{data.draw(st.sampled_from(['', '0']))}{args[0] + 1}"
    elif op == "neg":
        text = "-" + data.draw(spaces()) + operand(args[0], PRECEDENCE.get(args[0].op, 5) < 3)
    elif op == "pow":
        e = args[1]
        power = data.draw(st.sampled_from([str(e), f"{e}.0", f"{e}.", f"0{e}", f"0.{e}e1",
                                           f"{e}e0"]))
        text = (operand(args[0], PRECEDENCE.get(args[0].op, 5) < 5)
                + data.draw(spaces()) + data.draw(st.sampled_from(["^", "**"]))
                + data.draw(spaces()) + power)
    elif op in ("sin", "cos"):
        text = f"{op}{data.draw(st.sampled_from(['', ' ']))}({printed(data, args[0])})"
    else:
        left = operand(args[0], PRECEDENCE.get(args[0].op, 5) < PRECEDENCE[op])
        right = operand(args[1], PRECEDENCE.get(args[1].op, 5) <= PRECEDENCE[op])
        text = f"{left}{data.draw(spaces())}{op}{data.draw(spaces())}{right}"
    if data.draw(st.integers(0, 4)) == 0:  # redundant parentheses
        text = f"({data.draw(spaces())}{text})"
    return text


def printable_trees(dim):
    """Random trees with non-negative constants and exponents 0..9: a negative
    literal reads as a negation."""
    leaves = st.one_of(
        st.floats(0.0, allow_infinity=False).map(lambda v: const(abs(v))),
        st.integers(0, dim - 1).map(lambda i: Node("var", (i,))))

    def extend(children):
        return st.one_of(
            children.map(lambda a: Node("neg", (a,))),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Node(t[0], (t[1], t[2]))),
            st.tuples(children, st.integers(0, 9)).map(lambda t: Node("pow", t)),
            st.tuples(st.sampled_from(["sin", "cos"]), children).map(
                lambda t: Node(t[0], (t[1],))))
    return st.recursive(leaves, extend, max_leaves=10)


@given(printable_trees(3), st.data())
@settings(max_examples=500, deadline=None)
def test_printed_tree_parses_back(node, data):
    text = data.draw(spaces()) + printed(data, node) + data.draw(spaces())
    assert parse_expression(text, 3) == node


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


@pytest.mark.parametrize("text, box, want", [
    # sin and cos at endpoints 2^53 or more from 0, where floats are 2 or more
    # apart, are bounded by [-1, 1] at once
    ("sin(x1)", (1e22, 1e22), (-1.0, 1.0)),
    ("sin(x1)", (1e300, 1e300), (-1.0, 1.0)),
    ("sin(x1)", (2.0 ** 53, 2.0 ** 53 + 2), (-1.0, 1.0)),
    ("sin(x1)", (-1e300, -1e300), (-1.0, 1.0)),
    ("cos(x1)", (1e300, 1e300), (-1.0, 1.0)),
    # a power that overflows is infinite, with the sign of the exact power
    ("x1^2", (-1e200, 1e200), (0.0, math.inf)),
    ("x1^3", (-1e200, 1e200), (-math.inf, math.inf)),
    ("x1^3", (-1e200, -1e100), (-math.inf, -1e300)),
])
def test_interval_past_the_float_range(text, box, want):
    assert parse_expression(text, 1).interval([box]) == want


def true_sin_range(lo, hi):
    """The exact range of sin on the real interval [lo, hi], from mpmath at 300 bits."""
    with mpmath.workprec(300):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        vals = [mpmath.sin(lo), mpmath.sin(hi)]
        first = int(mpmath.ceil((lo - mpmath.pi / 2) / mpmath.pi))
        last = int(mpmath.floor((hi - mpmath.pi / 2) / mpmath.pi))
        vals += [(-1) ** (m % 2) for m in range(first, min(last, first + 2) + 1)]
        return min(vals), max(vals)


@given(st.sampled_from(["sin", "cos"]),
       st.integers(-3 * 10 ** 14, 3 * 10 ** 14) | st.integers(-10, 10),
       st.floats(-4.0, 4.0), st.floats(0.0, 7.0))
@settings(max_examples=300, deadline=None)
# a true minimum -1.0 about 0.04 from the float stationary point
@example("sin", 0, 1e15 + 1.6, 2.0)
def test_trig_interval_holds_the_true_range(fn, m, offset, width):
    # endpoints up to 1e15 around a stationary point m pi + pi/2; the float
    # stationary point drifts from the true one by about |m| 1.2e-16
    lo = m * math.pi + offset
    box = (lo, lo + width)
    got = parse_expression(f"{fn}(x1)", 1).interval([box])
    if fn == "cos":  # bounded as sin on the float interval box + pi/2
        box = (box[0] + math.pi / 2, box[1] + math.pi / 2)
    want = true_sin_range(*box)
    # sin at an endpoint is rounded to nearest, not outward
    assert got[0] <= want[0] + math.ulp(1.0) and got[1] >= want[1] - math.ulp(1.0)


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


def polynomial_trees(dim):
    """Random trees inside the exact class: constants in [-10, 10], sin, cos,
    pow and division by a nonzero constant only."""
    consts = st.floats(-10.0, 10.0).map(lambda v: Node("const", (v,)))
    leaves = consts | st.integers(0, dim - 1).map(lambda i: Node("var", (i,)))
    divisors = (st.floats(0.5, 10.0) | st.floats(-10.0, -0.5)).map(
        lambda v: Node("const", (v,)))

    def extend(children):
        return st.one_of(
            children.map(lambda a: Node("neg", (a,))),
            st.tuples(st.sampled_from("+-*"), children, children).map(
                lambda t: Node(t[0], (t[1], t[2]))),
            st.tuples(children, divisors).map(lambda t: Node("/", t)),
            st.tuples(children, st.integers(0, 3)).map(lambda t: Node("pow", t)),
            st.tuples(st.sampled_from(["sin", "cos"]), children).map(
                lambda t: Node(t[0], (t[1],))),
        )
    return st.recursive(leaves, extend, max_leaves=8)


def form_value(form, x, size=abs):
    """The normal form evaluated in floats at x; with size=abs, a bound on the
    magnitudes its rounding errors scale with."""
    total = 0.0
    for monomial, c in form.items():
        term = size(float(c))
        for (kind, arg), e in monomial:
            if kind == "x":
                atom = size(x[arg])
            else:
                u = form_value(dict(arg), x, size)
                atom = max(1.0, u) if size is abs else getattr(math, kind)(u)
            term *= atom ** e
        total += term
    return total


def tree_size(node, x):
    """A bound on the magnitudes the rounding errors of node's float value scale with."""
    op, args = node.op, node.args
    if op in ("const", "var"):
        return abs(ref_eval(node, x))
    parts = [tree_size(a, x) for a in args if isinstance(a, Node)]
    if op in ("neg", "+", "-"):
        return sum(parts)
    if op == "*":
        return parts[0] * parts[1]
    if op == "/":
        return parts[0] / parts[1]
    if op == "pow":
        return parts[0] ** args[1]
    return max(1.0, parts[0])  # sin and cos move by at most their argument's error


def float_ops(node):
    """The float operations of node's compiled value, one per node."""
    return 1 + sum(float_ops(a) for a in node.args if isinstance(a, Node))


def form_ops(form):
    """The float operations form_value makes on form."""
    return sum(2 + sum(2 + (0 if kind == "x" else 1 + form_ops(dict(arg)))
                       for (kind, arg), _ in monomial) for monomial in form)


@given(polynomial_trees(2), st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                                     min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
# -(2.0 * (2.5e-320 * x1)) at x1 = 0.125: exactly -6.25e-321, in floats -6.245e-321
@example(Node("neg", (Node("*", (const(2.0), Node("*", (const(2.5e-320), Node("var", (0,)))))),)),
         [(0.125, 0.0)])
# 2 * -(5e-324 / 2): exactly -5e-324, in floats -0.0 (5e-324 / 2 rounds to 0)
@example(Node("*", (const(2.0), Node("neg", (Node("/", (const(5e-324), const(2.0))),)))),
         [(0.0, 0.0)])
def test_normal_form_matches_compiled_field(node, rows):
    try:
        form = normal_form(node)
    except ValueError as exc:  # sin or cos of an argument that is constant
        assert "constant argument" in str(exc)
        reject()
    f, _ = compile_model(2, [node], [])
    grad = gradient(form)
    assert set(grad) <= {0, 1} and all(grad.values())  # only the nonzero partials
    # each float operation may lose up to 2^-1075 to underflow; the sum over both
    # sides' operations is rounded up to whole multiples of 2^-1074
    underflow = math.ldexp(-(-(float_ops(node) + form_ops(form)) // 2), -1074)
    for x in np.array(rows, dtype=float):
        scale = max(tree_size(node, x), form_value(form, x))
        assert form_value(form, x, lambda v: v) == pytest.approx(f(x)[0], rel=1e-9,
                                                                abs=1e-9 * scale + underflow)
        for j in range(2):
            # the central difference, Richardson-extrapolated from steps h and h/2,
            # within its own step-halving change
            h = 1e-3
            e = np.eye(2)[j]
            d1, d2 = ((f(x + s * e)[0] - f(x - s * e)[0]) / (2 * s) for s in (h, h / 2))
            want = (4 * d2 - d1) / 3
            got = form_value(grad.get(j, {}), x, lambda v: v)
            assert got == pytest.approx(want, rel=1e-9, abs=abs(d2 - d1) + 1e-12 * (1 + scale) / h)


def test_normal_form_cap_and_zero_denominator():
    # a term of degree MAX_NORMAL_FORM - 1 has size MAX_NORMAL_FORM: at the cap, not past it
    assert len(normal_form(parse_expression(f"x1^{MAX_NORMAL_FORM - 1}", 1))) == 1
    with pytest.raises(ValueError, match="cap"):
        normal_form(parse_expression(f"x1^{MAX_NORMAL_FORM}", 1))
    with pytest.raises(ValueError, match="constant zero"):
        normal_form(parse_expression("x1/(x2 - x2)", 2))


def test_power_coefficients_are_capped_and_zero_powers_are_zero():
    # a power of zero is zero at once, whatever its exponent
    assert normal_form(parse_expression("0^1000000000", 1)) == {}
    assert normal_form(parse_expression("(x1 - x1)^1000000000000000000", 1)) == {}
    assert normal_form(parse_expression("(-1)^1000000001", 1)) == normal_form(Node("const", (-1.0,)))
    # 2^k has k + 1 bits; the bound is k times 2's two bits
    half = MAX_COEFFICIENT_BITS // 2
    assert normal_form(parse_expression(f"2^{half}", 1)) == {frozenset(): 2 ** half}
    for text in (f"2^{half + 1}", "0.1^1000000000", "3^1000000000", "(0.1*x1)^900",
                 "(0.1^150*x1)*(0.1^150*x2)"):
        with pytest.raises(ValueError, match=f"cap of {MAX_COEFFICIENT_BITS} bits"):
            normal_form(parse_expression(text, 2))


def expression_text(node):
    """node in the expression language, every operation in parentheses."""
    op, args = node.op, node.args
    if op == "const":
        return f"({args[0]!r})"
    if op == "var":
        return f"x{args[0] + 1}"
    if op == "neg":
        return f"(-{expression_text(args[0])})"
    if op == "pow":
        return f"({expression_text(args[0])})^{args[1]}"
    if op in ("sin", "cos"):
        return f"{op}({expression_text(args[0])})"
    return f"({expression_text(args[0])} {op} {expression_text(args[1])})"


@given(polynomial_trees(2), polynomial_trees(2))
@settings(max_examples=100, deadline=None)
def test_derived_envelope_reloads_as_declared(f1, f2):
    # the derived envelope: to_json writes the field, which reloads to the
    # same theta texts and envelope bytes
    from kcontract import models
    doc = {"kind": "nonlinear", "dim": 2, "f": [expression_text(f1), expression_text(f2)],
           "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}}
    try:
        derived = models.model_from_dict(doc)
    except ValueError as exc:  # sin or cos of a constant; a theta whose text is not exact
        assert "constant argument" in str(exc) or "has no exact text" in str(exc)
        reject()
    again = models.model_from_dict(derived.to_json())
    assert again.theta_exprs == derived.theta_exprs
    assert again.model.A0.tobytes() == derived.model.A0.tobytes()
    assert [A.tobytes() for A in again.model.terms] == [A.tobytes() for A in derived.model.terms]


@given(st.integers(-10 ** 6, 10 ** 6).filter(bool),
       st.integers(3, 10 ** 6).filter(lambda q: q & (q - 1)))
@settings(max_examples=100, deadline=None)
def test_rational_argument_theta_parses_back(p, q):
    # p/q, for q not a power of two, is a float only if it reduces to one; a
    # theta text writes it as (p/q) otherwise, and parses back either way
    from kcontract import models
    bundle = models.model_from_dict({"kind": "nonlinear", "dim": 1, "f": [f"sin({p}/{q}*x1)"],
                                     "box": {"lower": [-1.0], "upper": [1.0]}})
    theta, = bundle.theta_exprs
    assert normal_form(parse_expression(theta, 1)) == normal_form(
        parse_expression(f"cos({p}/{q}*x1)", 1))
    assert bundle.model.terms[0].tolist() == [[p / q]]
