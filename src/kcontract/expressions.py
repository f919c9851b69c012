"""Tiny total expression language for vector fields and envelope terms.

Grammar, the spec (total; parse errors carry position):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom (('^' | '**') integer)?
    atom    := number | variable | 'sin' '(' expr ')' | 'cos' '(' expr ')'
             | '(' expr ')'

Variables are x1..xn and numeric literals must be finite. Read ^ as **, and
every text of the grammar is a Python expression whose syntax tree has the
shape of its Node tree: parse_expression reads it with Python's own parser
and converts the tree node by node, refusing any node outside the grammar.

Expressions are evaluated by compiling them to Python source
(``compile_model``), and bounded over boxes by interval evaluation
(``Node.interval``); interval division by a zero-crossing denominator raises
(no silent widening to infinity). An expression with constant denominators
also has an exact normal form (``normal_form``), a polynomial over x_i, sin(u)
and cos(u) whose nonzero partials ``gradient`` gives symbolically, in one walk
over its monomials.
"""

from __future__ import annotations

import ast
import bisect
import itertools
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IntervalError(ValueError):
    """Raised when an interval bound cannot be computed soundly."""


def _ivadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _ivsub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _ivmul(a, b):
    c = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (min(c), max(c))


def _ivdiv(a, b):
    if b[0] <= 0.0 <= b[1]:
        raise IntervalError(f"division by an interval containing zero: {b}")
    return _ivmul(a, (1.0 / b[1], 1.0 / b[0]))


def _fpow(x, p):
    """x ** p, infinite with the sign of the exact power where it overflows."""
    try:
        return x ** p
    except OverflowError:
        return math.copysign(math.inf, x) if p % 2 else math.inf


def _ivpow(a, p):
    if p == 0:
        return (1.0, 1.0)
    lo, hi = _fpow(a[0], p), _fpow(a[1], p)
    if p % 2 == 0 and a[0] < 0.0 < a[1]:
        return (0.0, max(lo, hi))
    return (min(lo, hi), max(lo, hi))


# from 2^53 on floats are 2 or more apart, too far for the stationary points
# of sin, pi apart, to be told from their neighbours
_STATIONARY_RANGE = 2.0 ** 53


def _ivsin(a):
    lo, hi = a
    if hi - lo >= 2 * math.pi or max(-lo, hi) >= _STATIONARY_RANGE:
        return (-1.0, 1.0)
    vals = [math.sin(lo), math.sin(hi)]
    # the stationary points pi/2 + k*pi in [lo, hi], where sin is (-1)^k: at
    # most 2 in an interval shorter than 2 pi. Their floats drift from them by
    # about |k| 1.2e-16, the error of the float pi, so each candidate k whose
    # float lies within that drift (and its roundings) of the interval counts
    m = math.ceil((lo - math.pi / 2) / math.pi)
    for k in range(m - 1, m + 3):
        point = math.pi / 2 + k * math.pi
        drift = (abs(k) + 1) * 1.25e-16 + 2 * math.ulp(point)
        if lo - drift <= point <= hi + drift:
            vals.append(-1.0 if k % 2 else 1.0)
    return (min(vals), max(vals))


def _ivcos(a):
    return _ivsin((a[0] + math.pi / 2, a[1] + math.pi / 2))


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple

    def interval(self, boxes):
        """Range bound over per-variable intervals [(lo, hi), ...]."""
        op, args = self.op, self.args
        if op == "const":
            return (args[0], args[0])
        if op == "var":
            return tuple(boxes[args[0]])
        if op == "neg":
            a = args[0].interval(boxes)
            return (-a[1], -a[0])
        if op in ("+", "-", "*", "/"):
            a = args[0].interval(boxes)
            b = args[1].interval(boxes)
            return {"+": _ivadd, "-": _ivsub, "*": _ivmul, "/": _ivdiv}[op](a, b)
        if op == "pow":
            return _ivpow(args[0].interval(boxes), args[1])
        if op == "sin":
            return _ivsin(args[0].interval(boxes))
        if op == "cos":
            return _ivcos(args[0].interval(boxes))
        raise AssertionError(op)


# The deepest an expression may nest: its tree's height (the operators above
# its deepest leaf) and, bounded apart, the parentheses open at once in its
# text. Later stages recurse once a level of height, and python_source writes a
# parenthesis a level, where CPython's tokenizer refuses 200: they would also
# take closed_loop's "(f) - (r)", a level more than f. The parentheses' bound
# only keeps Python's parser within its limits; no stage recurses on them.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"

# Python's parser crashes (3.10, from about 106 000 terms) or raises (3.11 and
# later, from about 10 000) on a long flat sum, so a text with more operator
# characters is refused before it is parsed.
MAX_OPERATORS = 10_000

_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# a number's leading zeros, but none inside a name or number or after an exponent's sign
_LEADING_ZEROS = re.compile(r"(?<![0-9A-Za-z_.])(?<![eE][+-])0+(?=[0-9])")
_VARIABLE = re.compile(r"x([0-9]+)")
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def parse_expression(text: str, dim: int) -> Node:
    """Parse one scalar expression over variables x1..x<dim>; ParseError for one
    outside the grammar, deeper than MAX_DEPTH levels or past MAX_OPERATORS.

    Python's parser reads the text with ^ as **, and its tree is converted node
    by node. The text is normalised one character for one, so that positions
    hold: whitespace becomes a space, and so do a number's leading zeros."""
    text = re.sub(r"\s", " ", text)
    if bad := re.search(r"[^0-9A-Za-z_.+\-*/^() ]", text):
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    text = _LEADING_ZEROS.sub(lambda m: " " * len(m.group()), text)
    depth = 0
    for m in re.finditer(r"[()]", text):
        depth += 1 if m.group() == "(" else -1
        if depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, m.start())
        if depth < 0:
            raise ParseError("unmatched ')'", m.start())
    if sum(map(text.count, "+-*/^")) > MAX_OPERATORS:
        past = next(itertools.islice(re.finditer(r"[-+*/^]", text), MAX_OPERATORS, None))
        raise ParseError(f"expression has more than {MAX_OPERATORS} operators", past.start())
    source = "(" + text.replace("^", "**") + ")"  # the parentheses admit a leading space

    def position(offset):  # the index in text of an offset into source
        starts = list(itertools.accumulate((2 if c == "^" else 1 for c in text), initial=1))
        return min(max(bisect.bisect_right(starts, offset) - 1, 0), len(text))

    def fail(message, node):
        raise ParseError(message, position(node.col_offset))

    def number(node):
        segment = source[node.col_offset:node.end_col_offset]
        if not _NUMBER.fullmatch(segment):
            fail(f"unexpected literal {segment!r}", node)
        if not math.isfinite(value := float(segment)):
            fail(f"literal {segment} is not a finite number", node)
        return value

    def exponent(node):
        """A bare integral literal: x1^(2) and x1^x2 are refused."""
        power = node.right
        negative = isinstance(power, ast.UnaryOp) and isinstance(power.op, ast.USub)
        power = power.operand if negative else power
        if (not isinstance(power, ast.Constant) or number(power) % 1
                or "(" in source[node.left.end_col_offset:power.col_offset]):
            fail("exponent must be an integer literal", power)
        if negative:
            fail("negative exponents are not supported", power)
        return int(number(power))

    def convert(node, level):
        if level > MAX_DEPTH:
            fail(_TOO_DEEP, node)
        if isinstance(node, ast.Constant):
            return Node("const", (number(node),))
        if isinstance(node, ast.Name):
            if not (m := _VARIABLE.fullmatch(node.id)):
                fail(f"unknown identifier {node.id!r}", node)
            if not 0 < int(m.group(1)) <= dim:
                fail(f"variable {node.id} out of range for dimension {dim}", node)
            return Node("var", (int(m.group(1)) - 1,))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Node("neg", (convert(node.operand, level + 1),))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return Node(_BINARY[type(node.op)],
                        (convert(node.left, level + 1), convert(node.right, level + 1)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return Node("pow", (convert(node.left, level + 1), exponent(node)))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("sin", "cos") and len(node.args) == 1 and not node.keywords):
            return Node(node.func.id, (convert(node.args[0], level + 1),))
        fail(f"unexpected {type(getattr(node, 'op', node)).__name__}", node)

    try:
        # silences "invalid decimal literal" (1if x1); not thread-safe, so parse on one thread
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:  # without a hint such as "Perhaps you forgot a comma?"
        message = "invalid syntax" if exc.msg.startswith("invalid syntax") else exc.msg
        raise ParseError(message, position((exc.offset or 1) - 1)) from None
    except (RecursionError, MemoryError):  # past the parser's own depth limits
        raise ParseError(_TOO_DEEP, 0) from None
    return convert(tree, 0)


# ---------------------------------------------------------------------------
# compilation to Python source
# ---------------------------------------------------------------------------


def python_source(node: Node, consts: list) -> str:
    """Fully parenthesised Python source of node over the float locals
    x0..x<n-1>, with math.sin/math.cos. Every constant is appended to consts
    and read by name (c<i>), never written as a literal."""

    def bind(value):
        consts.append(value)
        return f"c{len(consts) - 1}"

    def emit(node):
        op, args = node.op, node.args
        if op == "const":
            return bind(args[0])
        if op == "var":
            return f"x{args[0]}"
        if op == "neg":
            return f"(-{emit(args[0])})"
        if op in ("+", "-", "*", "/"):
            return f"({emit(args[0])} {op} {emit(args[1])})"
        if op == "pow":
            base = emit(args[0])
            return f"({base} ** {bind(args[1])})"
        if op in ("sin", "cos"):
            return f"math.{op}({emit(args[0])})"
        raise AssertionError(op)

    return emit(node)


@lru_cache(maxsize=64)
def _code(source: str):
    # constants are bound by name, so models that differ only in their
    # constants (builtin parameters, repeated loads) share one code object
    return compile(source, "<kcontract model>", "exec")


def exec_source(source: str, names: dict) -> dict:
    """Run source, compiled once per distinct text, in a fresh namespace that
    holds math, array, asarray and names; return the namespace."""
    namespace = {"math": math, "array": np.array, "asarray": np.asarray}
    namespace.update(names)
    exec(_code(source), namespace)
    return namespace


@dataclass(frozen=True)
class Rate:
    """A function of the state as source, called as that function. lines are
    statements over the state locals x0..x<dim-1>, outputs[i] is the
    expression of value i, and names binds every other name they read. The
    locals the lines set (th*, J*_*, Jy) and the names (c*, A*_*_*) shadow
    none of the RK4 loop's."""

    dim: int
    lines: tuple
    outputs: tuple
    names: dict

    def stage(self, out: str) -> list:
        """The source lines that set out0, out1, ... to the outputs."""
        return [*self.lines, *(f"{out}{i} = {expr}" for i, expr in enumerate(self.outputs))]

    def __call__(self, x):
        """The ndarray of the outputs at the state x."""
        return self._compiled(x)

    @cached_property
    def _compiled(self):
        """The function __call__ runs, compiled from the same lines on first call."""
        xs = ", ".join(f"x{i}" for i in range(self.dim))
        body = [f"[{xs}] = asarray(x, dtype=float).tolist()", *self.stage("r"),
                f"return array([{', '.join(f'r{i}' for i in range(len(self.outputs)))}])"]
        source = "def rate(x):\n" + "".join(f"    {line}\n" for line in body)
        return exec_source(source, self.names)["rate"]


def compile_model(dim: int, f_nodes, theta_nodes):
    """(f, theta): the vector field and its envelope parameters, two Rates
    that share one names dict, so the RK4 loops inline f's. f(x) evaluates
    the field on Python floats and theta(x) the parameter values, each into
    an ndarray, compiled once per distinct text."""
    consts = []
    f_outputs = tuple(python_source(n, consts) for n in f_nodes)
    theta_outputs = tuple(python_source(n, consts) for n in theta_nodes)
    names = {f"c{i}": value for i, value in enumerate(consts)}
    return Rate(dim, (), f_outputs, names), Rate(dim, (), theta_outputs, names)


# ---------------------------------------------------------------------------
# exact normal form
# ---------------------------------------------------------------------------

# The largest size a product or power may reach. The size of a normal form is
# its number of terms plus their atom factors counted with their exponents,
# which is what the exact arithmetic on it costs; a product or power is
# refused from its factors' sizes before it is formed.
MAX_NORMAL_FORM = 1000
# The most bits a product or power may give a coefficient's numerator or
# denominator, bounded from its factors' bits before it is formed. A float
# literal is exact in at most 1075 bits, so this leaves room for products of
# a dozen extreme literals; a constant power such as 0.1^1000000 is refused.
MAX_COEFFICIENT_BITS = 1 << 14

_ONE = frozenset()  # the monomial of the constant term
_UNIT = {_ONE: 1}


def normal_form(node: Node) -> dict:
    """The exact value of node as a polynomial over the atoms x_i, sin(u) and
    cos(u): a dict from monomial to its nonzero coefficient.

    A monomial is a frozenset of (atom, exponent) pairs, empty for the
    constant term. An atom is ("x", i), ("sin", u) or ("cos", u), where u is
    the normal form of the argument as a frozenset of its items. Coefficients
    are ints or fractions.Fraction, exact in the float literals. Raises
    ValueError for a denominator that is zero or not constant, for sin or cos
    of a constant argument, and for a product or power that could exceed
    MAX_NORMAL_FORM or MAX_COEFFICIENT_BITS."""

    def walk(node):
        op, args = node.op, node.args
        if op == "const":
            return {_ONE: exact(args[0])} if args[0] else {}
        if op == "var":
            return {frozenset({(("x", args[0]), 1)}): 1}
        if op == "neg":
            return _scale(walk(args[0]), -1)
        if op in ("+", "-"):
            return _add(walk(args[0]), walk(args[1]), 1 if op == "+" else -1)
        if op == "*":
            return _mul(walk(args[0]), walk(args[1]))
        if op == "/":
            den = walk(args[1])
            if den.keys() - {_ONE}:
                raise ValueError("a denominator that is not constant is outside the exact "
                                 "class (polynomials in x_i, sin(u) and cos(u))")
            if not den:
                raise ValueError("division by a constant zero")
            from fractions import Fraction  # deferred, as in exact
            return _scale(walk(args[0]), 1 / Fraction(den[_ONE]))
        if op == "pow":
            return _pow(walk(args[0]), args[1])
        if op in ("sin", "cos"):
            u = walk(args[0])
            if not u.keys() - {_ONE}:
                raise ValueError(f"{op} of a constant argument; write its value as a literal")
            return {frozenset({((op, frozenset(u.items())), 1)}): 1}
        raise AssertionError(op)

    return walk(node)


def gradient(form: dict, cache: dict | None = None) -> dict:
    """The nonzero partials of form, {j: the normal form of d form / d x_(j+1)},
    by the product and chain rules, each monomial's atoms walked once. A cache
    passed in keeps the gradients of sin and cos atoms between calls."""
    cache = {} if cache is None else cache
    out = {}
    for monomial, c in form.items():
        for atom, e in monomial:
            rest = dict(monomial)
            if e == 1:
                del rest[atom]
            else:
                rest[atom] = e - 1
            term = {frozenset(rest.items()): c * e}
            for j, d_atom in _atom_gradient(atom, cache).items():
                _add(out.setdefault(j, {}), term if d_atom is _UNIT else _mul(term, d_atom))
    return {j: d for j, d in out.items() if d}


def monomial_text(monomial, elide: bool = False) -> str:
    """A monomial in the expression language, its factors sorted by text.
    An argument's coefficient is written by ``_coefficient_text``, so the text
    parses back to the monomial unless a coefficient is past the float range
    or the text nests past MAX_DEPTH levels.

    With elide, an atom argument that holds an atom itself is written ``…``
    (``cos(sin(x1))`` reads ``cos(…)``), and factors that then read alike are
    merged into one power that counts them, so the text stays short however
    deep the nesting."""
    factors = []
    for (kind, arg), e in monomial:
        if kind == "x":
            text = f"x{arg + 1}"
        elif elide and any(a[0] != "x" for m, _ in arg for a, _ in m):
            text = f"{kind}(…)"
        else:
            terms = sorted(monomial_text(m) if c == 1
                           else f"{_coefficient_text(c)}*{monomial_text(m)}" for m, c in arg)
            text = f"{kind}({' + '.join(terms)})"
        factors.append((text, e))
    if elide:
        counts = {}
        for text, e in factors:
            counts[text] = counts.get(text, 0) + e
        factors = counts.items()
    return "*".join(sorted(t if e == 1 else f"{t}^{e}" for t, e in factors)) or "1"


def _coefficient_text(c) -> str:
    """The exact number c as a literal: its repr when c is a float, else
    (p/q), each written by _integer_text. A p or q past the float range
    gives c's nearest float, which does not parse back to c."""
    p, q = c.numerator, c.denominator
    if rounded(c) == c or math.isinf(rounded(p)) or math.isinf(rounded(q)):
        return repr(rounded(c))
    return f"({_integer_text(p)}/{_integer_text(q)})"


def _integer_text(n: int) -> str:
    """The int n, within the float range, as a literal, or where n is not a
    float as a parenthesised sum of ints that are: its top 53 bits, then
    those of the rest, and so on."""
    rest, chunks = abs(n), []
    while rest:
        low = max(rest.bit_length() - 53, 0)
        chunks.append(rest >> low << low)
        rest -= chunks[-1]
    if len(chunks) < 2:
        return str(n)
    return ("-" if n < 0 else "") + f"({' + '.join(map(str, chunks))})"


def exact(v):
    """The float v as an exact int or fractions.Fraction."""
    if float(v).is_integer():
        return int(v)
    from fractions import Fraction  # deferred: only model loading does exact arithmetic
    return Fraction(v)


def rounded(c) -> float:
    """The double nearest the exact number c, infinite past the float range."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def _scale(form, c):
    return {m: c * v for m, v in form.items()}


def _add(p, q, sign=1):
    """p + sign * q, written into p, which the caller owns."""
    for m, c in q.items():
        c = c if sign > 0 else -c
        if m in p:
            c += p[m]
            if not c:
                del p[m]
                continue
        p[m] = c
    return p


def _degree(monomial):
    return sum(e for _, e in monomial)


def _size(form):
    return sum(1 + _degree(m) for m in form)


def _bits(form):
    """The most bits of any coefficient's numerator or denominator."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in form.values()), default=0)


def _mul(p, q):
    # every product of two monomials has the size of the pair less one
    bound = len(q) * _size(p) + len(p) * _size(q) - len(p) * len(q)
    if bound > MAX_NORMAL_FORM:
        raise ValueError(f"a product expands past the normal-form cap of {MAX_NORMAL_FORM}")
    if _bits(p) + _bits(q) > MAX_COEFFICIENT_BITS:
        raise ValueError(f"a product's coefficients pass the cap of {MAX_COEFFICIENT_BITS} bits")
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            if ma and mb:
                exps = dict(ma)
                for atom, e in mb:
                    exps[atom] = exps.get(atom, 0) + e
                m = frozenset(exps.items())
            else:
                m = ma or mb
            c = ca * cb
            if m in out:
                c += out[m]
                if not c:
                    del out[m]
                    continue
            out[m] = c
    return out


def _pow(form, k):
    if k == 0:
        return dict(_UNIT)
    if not form:  # zero
        return {}
    # its top-degree term alone has size 1 + k * degree
    if 1 + k * max(map(_degree, form)) > MAX_NORMAL_FORM:
        raise ValueError(f"a power expands past the normal-form cap of {MAX_NORMAL_FORM}")
    if len(form) == 1:  # one term: its coefficient by repeated squaring
        (monomial, c), = form.items()
        # c ** k has at most k times c's bits, and one bit if c is 1 or -1
        bits = _bits(form)
        if bits > 1 and k * bits > MAX_COEFFICIENT_BITS:
            raise ValueError(f"a power's coefficient passes the cap of "
                             f"{MAX_COEFFICIENT_BITS} bits")
        return {frozenset((atom, e * k) for atom, e in monomial): c ** k}
    out = form
    for _ in range(k - 1):
        out = _mul(out, form)
    return out


def _atom_gradient(atom, cache):
    """The nonzero partials of one atom, as gradient's; cached for sin and cos."""
    kind, arg = atom
    if kind == "x":
        return {arg: _UNIT}
    if atom not in cache:  # sin' = cos, cos' = -sin
        other, sign = ("cos", 1) if kind == "sin" else ("sin", -1)
        outer = {frozenset({((other, arg), 1)}): sign}
        cache[atom] = {j: _mul(outer, du) for j, du in gradient(dict(arg), cache).items()}
    return cache[atom]
