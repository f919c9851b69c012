"""Tiny total expression language for vector fields and envelope terms.

Grammar (total; parse errors carry position):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom (('^' | '**') integer)?
    atom    := number | variable | 'sin' '(' expr ')' | 'cos' '(' expr ')'
             | '(' expr ')'

Variables are x1..xn and numeric literals must be finite. Expressions are
evaluated by compiling them to Python source (``compile_model``), and bounded
over boxes by interval evaluation (``Node.interval``); interval division by a
zero-crossing denominator raises (no silent widening to infinity). An
expression with constant denominators also has an exact normal form
(``normal_form``), a polynomial over x_i, sin(u) and cos(u) whose nonzero
partials ``gradient`` gives symbolically, in one walk over its monomials.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from functools import lru_cache

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
    # the stationary points pi/2 + m*pi in [lo, hi]: at most 3 in an interval
    # shorter than 2 pi, with rounding
    m = math.ceil((lo - math.pi / 2) / math.pi)
    for point in (math.pi / 2 + k * math.pi for k in range(m, m + 3)):
        if point <= hi:
            vals.append(math.sin(point))
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


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "num":
            value = float(m.group("num"))
            if not math.isfinite(value):
                raise ParseError(f"literal {m.group('num')} is not a finite number",
                                 m.start("num"))
            tokens.append(("num", value, m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


# The deepest an expression may nest, counted as the parentheses, calls and
# negations open at once while it is parsed and as its tree's height (the
# operators above its deepest leaf); parse_expression refuses a deeper one
# before anything recurses. Every stage recurses about once a level, and the
# bound is half the tightest limit: the parser takes 5 Python frames a
# parenthesis, 500 of the default recursion limit of 1000 at the bound, and
# python_source nests a parenthesis a level, where CPython's tokenizer
# refuses 200. So the stages would also take closed_loop's "(f) - (r)", a
# level more than f, though the bound refuses a closed loop past it.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0
        self.level = 0  # the parentheses, calls and negations open at the token

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {val!r}", pos)
        if _height(node) > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
        return node

    def nested(self, parse, pos):
        """parse() one level deeper; a ParseError past MAX_DEPTH levels."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        node = parse()
        self.level -= 1
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.take()
                node = Node(val, (node, self.term()))
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("*", "/"):
                self.take()
                node = Node(val, (node, self.factor()))
            else:
                return node

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Node("neg", (self.nested(self.factor, pos),))
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val in ("^", "**"):
            self.take()
            k2, v2, p2 = self.take()
            neg = False
            if k2 == "op" and v2 == "-":
                neg = True
                k2, v2, p2 = self.take()
            if k2 != "num" or v2 != int(v2):
                raise ParseError("exponent must be an integer literal", p2)
            if neg:
                raise ParseError("negative exponents are not supported", p2)
            return Node("pow", (base, int(v2)))
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return Node("const", (val,))
        if kind == "name":
            if val in ("sin", "cos"):
                self.expect_op("(")
                inner = self.nested(self.expr, pos)
                self.expect_op(")")
                return Node(val, (inner,))
            m = re.fullmatch(r"x(\d+)", val)
            if not m:
                raise ParseError(f"unknown identifier {val!r}", pos)
            idx = int(m.group(1)) - 1
            if not 0 <= idx < self.dim:
                raise ParseError(f"variable {val} out of range for dimension {self.dim}", pos)
            return Node("var", (idx,))
        if kind == "op" and val == "(":
            inner = self.nested(self.expr, pos)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def _height(node: Node) -> int:
    """The operators above node's deepest leaf, counted without recursion."""
    height, stack = 0, [(node, 0)]
    while stack:
        node, h = stack.pop()
        height = max(height, h)
        stack.extend((a, h + 1) for a in node.args if isinstance(a, Node))
    return height


def parse_expression(text: str, dim: int) -> Node:
    """Parse one scalar expression over variables x1..x<dim>; ParseError for
    one that nests deeper than MAX_DEPTH levels."""
    return _Parser(text, dim).parse()


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
    """A function of the state as source. lines are statements over the
    state locals x0..x<dim-1>, outputs[i] is the expression of value i, and
    names binds every other name they read. The locals the lines set (th*,
    J*_*, Jy) and the names (c*, A*_*_*) shadow none of the RK4 loop's."""

    dim: int
    lines: tuple
    outputs: tuple
    names: dict

    def stage(self, out: str) -> list:
        """The source lines that set out0, out1, ... to the outputs."""
        return [*self.lines, *(f"{out}{i} = {expr}" for i, expr in enumerate(self.outputs))]

    def function(self):
        """fn(x) -> ndarray of the outputs, compiled from the same lines and
        registered, so that rate_of(fn) is this Rate."""
        xs = ", ".join(f"x{i}" for i in range(self.dim))
        body = [f"[{xs}] = asarray(x, dtype=float).tolist()", *self.stage("r"),
                f"return array([{', '.join(f'r{i}' for i in range(len(self.outputs)))}])"]
        source = "def rate(x):\n" + "".join(f"    {line}\n" for line in body)
        fn = exec_source(source, self.names)["rate"]
        _RATES[fn] = self
        return fn


# the one registry of functions known by their Rate, written only by
# Rate.function and keyed by the function itself: an attribute would be
# copied onto functools.wraps wrappers, which may compute something else
_RATES = weakref.WeakKeyDictionary()


def rate_of(fn) -> Rate | None:
    """The Rate whose Rate.function made fn; None for any other callable."""
    try:
        return _RATES.get(fn)
    except TypeError:  # not weakly referenceable, so never recorded
        return None


def compile_model(dim: int, f_nodes, theta_nodes):
    """(f, theta): the vector field and its envelope parameters, each
    compiled once per distinct text. f(x) evaluates the field on Python
    floats and theta(x) the parameter values, each into an ndarray; both are
    made by Rate.function, from Rates that share one names dict, so the RK4
    loops inline f's."""
    consts = []
    f_outputs = tuple(python_source(n, consts) for n in f_nodes)
    theta_outputs = tuple(python_source(n, consts) for n in theta_nodes)
    names = {f"c{i}": value for i, value in enumerate(consts)}
    return (Rate(dim, (), f_outputs, names).function(),
            Rate(dim, (), theta_outputs, names).function())


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
    parses back to the monomial unless a coefficient is not a ratio of two
    floats or the text nests past MAX_DEPTH levels.

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
    """The exact number c as a literal: its repr when c is a float, (p/q) when
    its numerator and denominator are, and otherwise its nearest float (inf
    past the range), which does not parse back to c."""
    p, q = c.numerator, c.denominator
    if rounded(c) != c and rounded(p) == p and rounded(q) == q:
        return f"({p}/{q})"
    return repr(rounded(c))


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
