"""Model ingestion (JSON + expression language) and the built-in registry.

A nonlinear model is its vector field, written as expression strings, and a
working box. Its Jacobian envelope J(x) = A0 + sum theta_m(x) A_m is derived
from the field's exact symbolic Jacobian (``_derived_envelope``): A0 is its
constant part and each other monomial is one theta_m, its coefficients each
rounded once. A document that declares A0 or terms is refused, and the theta
bounds come only from interval evaluation.
A field outside polynomials in x_i, sin(u) and cos(u) with constant
denominators, one past ``expressions.MAX_NORMAL_FORM`` or
``expressions.MAX_COEFFICIENT_BITS``, one whose dense envelope would hold
more than ``nl_verify.MAX_LMI_ENTRIES`` entries, and one not finite in floats
at the box centre or at ``FINITE_CHECK_POINTS`` sampled points is refused
with ValueError.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .expressions import (MAX_DEPTH, IntervalError, compile_model, gradient, monomial_text,
                          normal_form, parse_expression, rounded)
from .nl_verify import MAX_LMI_ENTRIES, Box, NonlinearModel


@dataclass
class ModelBundle:
    """A parsed model plus its serializable description."""

    kind: str                  # "linear" | "nonlinear"
    name: str = ""
    A: np.ndarray | None = None       # linear only
    B: np.ndarray | None = None       # input matrix (optional for nonlinear)
    model: NonlinearModel | None = None
    box: Box | None = None
    f_exprs: list = field(default_factory=list)
    theta_exprs: list = field(default_factory=list)

    @property
    def dim(self):
        return self.A.shape[0] if self.kind == "linear" else self.model.dim

    def to_json(self) -> dict:
        if self.kind == "linear":
            doc = {"kind": "linear", "A": self.A.tolist()}
            if self.B is not None:
                doc["B"] = self.B.tolist()
            return doc
        doc = {
            "kind": "nonlinear",
            "name": self.name,
            "dim": self.model.dim,
            "f": list(self.f_exprs),
            "box": {"lower": self.box.lower.tolist(), "upper": self.box.upper.tolist()},
        }
        if self.B is not None:
            doc["B"] = self.B.tolist()
        return doc


def _build_nonlinear(name, dim, f_exprs, box, B=None):
    """The bundle of a nonlinear model, its envelope derived from f (``_derived_envelope``)."""
    f_nodes = [parse_expression(s, dim) for s in f_exprs]
    jacobian = _jacobian(_normal_forms(f_exprs, f_nodes))
    A0, terms, theta_exprs, theta_nodes = _derived_envelope(dim, jacobian)
    f, theta = compile_model(dim, f_nodes, theta_nodes)

    def bounds(b: Box):
        out = []
        for j, node in enumerate(theta_nodes):
            try:
                iv = node.interval(b.intervals())
            except IntervalError as exc:
                raise IntervalError(f"cannot bound envelope parameter on the box: {exc}") from exc
            if not all(math.isfinite(v) for v in iv):
                raise IntervalError(f"envelope parameter {j + 1} ({theta_exprs[j]}) has the "
                                    f"non-finite bound {tuple(iv)} on the box")
            out.append(iv)
        return out

    model = NonlinearModel(dim=dim, f=f, A0=A0, terms=terms, theta=theta, bounds=bounds)
    return ModelBundle(kind="nonlinear", name=name, B=None if B is None else np.asarray(B, float),
                       model=model, box=box, f_exprs=list(f_exprs), theta_exprs=theta_exprs)


def _jacobian(f_forms) -> dict:
    """The exact Jacobian of the field whose f_i have the normal forms f_forms,
    by monomial: {monomial: {(i, j): its nonzero coefficient in d f_i / d x_j}}."""
    cache, out = {}, {}
    for i, form in enumerate(f_forms):
        for j, partial in gradient(form, cache).items():
            for m, c in partial.items():
                out.setdefault(m, {})[i, j] = c
    return out


def _check_size(dim, thetas):
    """Refuse a dense envelope (A0 and the theta matrices) past MAX_LMI_ENTRIES entries."""
    if dim * dim * (1 + thetas) > MAX_LMI_ENTRIES:
        raise ValueError(f"the envelope of dim {dim} with {thetas} thetas would hold "
                         f"{dim * dim * (1 + thetas)} matrix entries, past the cap of "
                         f"{MAX_LMI_ENTRIES}")


def _derived_envelope(dim, jacobian):
    """A0, the theta matrices, texts and parsed texts derived from the exact
    Jacobian: A0 is its constant part (the monomial frozenset()), and each other
    monomial is one theta, its ``monomial_text``, with its coefficients, rounded once."""
    texts = {m: monomial_text(m) for m in jacobian.keys() - {frozenset()}}
    _check_size(dim, len(texts))
    # by total degree, then by the factors ranked x_i (by index) < sin < cos, ties by text
    monomials = sorted(texts, key=lambda m: (sum(e for _, e in m), sorted(
        (("x", "sin", "cos").index(k), a if k == "x" else 0) for (k, a), _ in m), texts[m]))
    nodes = [_theta_node(m, texts[m], dim) for m in monomials]

    def matrix(m):
        A = np.zeros((dim, dim))
        for (i, j), c in jacobian.get(m, {}).items():
            A[i, j] = rounded(c)
        if not np.isfinite(A).all():
            raise ValueError(f"a Jacobian coefficient of {monomial_text(m, elide=True)} overflows")
        return A

    return matrix(frozenset()), list(map(matrix, monomials)), [texts[m] for m in monomials], nodes


def _theta_node(monomial, text, dim):
    """The parsed text of a derived theta, which must parse back to its monomial."""
    try:
        node = parse_expression(text, dim)
        if normal_form(node) == {monomial: 1}:
            return node
    except ValueError:  # nested past MAX_DEPTH, or a coefficient past the float range
        pass
    raise ValueError(f"the Jacobian monomial {monomial_text(monomial, elide=True)} has no "
                     f"exact text as a theta (a coefficient in it is past the float range, "
                     f"or the text nests past {MAX_DEPTH} levels)")


def _normal_forms(texts, nodes):
    out = []
    for k, (text, node) in enumerate(zip(texts, nodes)):
        try:
            out.append(normal_form(node))
        except ValueError as exc:
            raise ValueError(f"f{k + 1} = {text}: {exc}") from None
    return out


# a field that overflows in floats somewhere in the box is refused, checked at
# the centre and at points sampled with a fixed seed
FINITE_CHECK_POINTS = 100


def _check_finite(f, box: Box):
    """Refuse a field that is not finite in floats at the box centre or at
    FINITE_CHECK_POINTS points sampled in the box."""
    points = np.vstack([box.center(), box.sample(np.random.default_rng(0), FINITE_CHECK_POINTS)])
    values = []
    for x in points:
        try:
            values.append(f(x))
        except (ArithmeticError, ValueError):  # ** overflowing, a math domain error
            values.append(np.full(len(x), np.nan))
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        raise ValueError(f"f is not finite in floats at x = {points[bad[0]].tolist()} in the box")


def required(doc, name: str, where: str = "the document"):
    """doc[name], where doc (named where in errors) must be a JSON object
    that holds name; otherwise a ValueError that names the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    if name not in doc:
        raise ValueError(f"{where} has no field {name}")
    return doc[name]


def is_number(value) -> bool:
    """Whether value is a number, not a bool, and a finite float: nan, inf
    and an int past the float range (which math.isfinite cannot take) are not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def finite(value, name: str, shape: tuple) -> np.ndarray:
    """value, an array of numbers (no strings, nulls or booleans), as a finite
    float array of shape, where None stands for any positive length;
    otherwise a ValueError that names the field."""
    want = str(tuple("m" if s is None else s for s in shape)).replace("'", "")
    try:
        a = np.asarray(value)
        # strings, nulls, booleans, and a boolean among numbers, which numpy reads as 1
        rows = value if a.ndim == 2 else [value] if a.ndim == 1 else []
        if a.dtype.kind not in "iuf" or bool in map(type, chain.from_iterable(rows)):
            raise TypeError
    except (TypeError, ValueError):  # or a ragged nesting
        raise ValueError(f"{name} must be a {want} array of numbers") from None
    a = a.astype(float)
    if a.ndim != len(shape) or any(n < 1 if s is None else n != s
                                   for n, s in zip(a.shape, shape)):
        raise ValueError(f"{name} has shape {a.shape}, expected {want}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _nonlinear_from_dict(doc: dict) -> ModelBundle:
    """A nonlinear document, every field validated and the envelope derived.
    A document that declares an envelope (A0 or terms) is refused."""
    name = _name(doc)
    for key in ("A0", "terms"):
        if key in doc:
            raise ValueError(f"{key} is not accepted: the envelope is derived from f")
    dim = required(doc, "dim")
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"nonlinear model dim must be a positive integer, got {dim!r}")
    dim = int(dim)
    _check_size(dim, 0)
    box_doc = required(doc, "box")
    box = Box(finite(required(box_doc, "lower", "box"), "box lower", (dim,)),
              finite(required(box_doc, "upper", "box"), "box upper", (dim,)))
    f_exprs = required(doc, "f")
    if not (isinstance(f_exprs, list) and len(f_exprs) == dim
            and all(isinstance(s, str) for s in f_exprs)):
        raise ValueError(f"f must be a list of {dim} expression strings")
    B = doc.get("B")
    if B is not None:
        B = finite(B, "B", (dim, None))
    bundle = _build_nonlinear(name, dim, f_exprs, box, B)
    _check_finite(bundle.model.f, box)
    return bundle


def parse_model(text: str) -> ModelBundle:
    """Parse and validate a model JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"model JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return model_from_dict(doc)


def _name(doc) -> str:
    """The document's optional name, a string; "" when it has none."""
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    return name


def model_from_dict(doc: dict) -> ModelBundle:
    """The model of a document, every field it reads checked by name:
    ValueError for a missing or malformed one."""
    kind = required(doc, "kind")
    if kind == "linear":
        A = finite(required(doc, "A"), "A", (None, None))
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"linear model A must be square, got {A.shape}")
        B = finite(doc["B"], "B", (len(A), None)) if "B" in doc else None
        return ModelBundle(kind="linear", name=_name(doc), A=A, B=B)
    if kind == "nonlinear":
        return _nonlinear_from_dict(doc)
    if kind == "builtin":
        name, params = required(doc, "name"), doc.get("params", {})
        if not isinstance(name, str):
            raise ValueError(f"builtin name must be a string, got {name!r}")
        if not (isinstance(params, dict) and all(map(is_number, params.values()))):
            raise ValueError(f"builtin params must be an object of finite numbers, got {params!r}")
        return builtin(name, **params)
    raise ValueError(f"unknown model kind {kind!r}")


def closed_loop(bundle: ModelBundle, K) -> ModelBundle:
    """The model under feedback u = -K x: field f(x) - B K x, the rest kept.
    It is parsed from its JSON document, so its envelope is derived like any
    loaded model's, A0 - B K rounded once; a row of B K that is zero keeps its
    component's expression."""
    if bundle.kind != "nonlinear" or bundle.B is None:
        raise ValueError("a closed loop needs a nonlinear model with an input matrix B")
    K = np.asarray(K, dtype=float)
    if K.shape != (bundle.B.shape[1], bundle.dim) or not np.isfinite(K).all():
        raise ValueError(f"K must be a finite {bundle.B.shape[1]}x{bundle.dim} matrix, "
                         f"got shape {K.shape}")
    BK = bundle.B @ K
    rows = [" + ".join(f"{_fmt(c)}*x{j + 1}" for j, c in enumerate(r) if c) for r in BK]
    return model_from_dict(bundle.to_json() | {
        "f": [f"({f}) - ({r})" if r else f for f, r in zip(bundle.f_exprs, rows)]})


# ---------------------------------------------------------------------------
# built-in registry
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def rossler() -> ModelBundle:
    """Three-dimensional system with constant third compound trace -0.5 and a
    quadratic term that rules out constant indefinite metrics."""
    f_exprs = ["x2", "-x1 - x3", "0.5*((x1 - x1^2) - x3)"]
    box = Box(np.array([-5.0, -5.0, -2.0]), np.array([6.0, 5.0, 4.0]))
    return _build_nonlinear("rossler", 3, f_exprs, box)


def rossler_mod() -> ModelBundle:
    """Cubic variant of the same family; trajectories settle on simple attractors."""
    f_exprs = ["x2 - 2*x3", "-x1 - x3", "0.5*((x1 - x1^3) - x3)"]
    box = Box(np.array([-1.0, -1.0, -0.5]), np.array([1.0, 1.0, 0.5]))
    return _build_nonlinear("rossler_mod", 3, f_exprs, box)


SYNCHRONVERTER_DEFAULTS = dict(
    w_n=100 * math.pi, V=230 * math.sqrt(3), J=0.2, R=1.875, L=0.05675,
    D_p=10.0, m=3.5, T_m=0.0, i_f=1.0,
)


def synchronverter(**overrides) -> ModelBundle:
    """Grid-connected inverter model, fourth order, affine in
    (x1, x2, x3, sin x4, cos x4)."""
    p = dict(SYNCHRONVERTER_DEFAULTS)
    unknown = set(overrides) - set(p)
    if unknown:
        raise ValueError(f"unknown synchronverter parameters: {sorted(unknown)}")
    p.update(overrides)
    w_n, V, J, R, L, D_p, m, T_m, i_f = (
        p["w_n"], p["V"], p["J"], p["R"], p["L"], p["D_p"], p["m"], p["T_m"], p["i_f"])
    if not (J and L):  # both divide
        raise ValueError(f"synchronverter J and L must be nonzero, got J = {J!r}, L = {L!r}")
    # each coefficient of f, keyed by the parameters it is formed from: one
    # that is not finite would reach the parser as the name inf or nan
    coefficients = {("R", "L"): R / L, ("V", "L"): V / L, ("m", "L", "i_f"): m / L * i_f,
                    ("m", "J", "i_f"): m / J * i_f, ("D_p", "J"): D_p / J,
                    ("T_m", "J"): T_m / J, ("w_n",): w_n}
    for names, value in coefficients.items():
        if not math.isfinite(value):
            given = ", ".join(f"{name} = {p[name]!r}" for name in names)
            raise ValueError(f"synchronverter parameters {given} give a coefficient of f "
                             f"that is not finite ({value!r})")
    RL, VL, mLif, mJif, DpJ, TmJ, w_n = map(_fmt, coefficients.values())
    f_exprs = [
        f"-{RL}*x1 + x2*x3 + {VL}*sin(x4)",
        f"-x1*x3 - {RL}*x2 - {mLif}*x3 + {VL}*cos(x4)",
        f"{mJif}*x2 - {DpJ}*(x3 - {w_n}) + {TmJ}",
        f"x3 - {w_n}",
    ]
    # working box; the x4 interval is taken ascending
    box = Box(np.array([-81.0, -67.0, 298.0, -0.2]), np.array([5.0, 10.5, 315.0, 1.0]))
    return _build_nonlinear("synchronverter", 4, f_exprs, box)


def example25() -> ModelBundle:
    """Third-order design example with input on the second state and a cubic
    nonlinearity; the open loop sustains periodic orbits."""
    f_exprs = ["x2 - x3", "-x1 - x3", "x1*(x1^2 - 0.25)"]
    # covers the three closed-loop equilibria (x1 = 0, +-0.5) with ~10% margin
    box = Box(np.array([-0.55, -0.55, -0.55]), np.array([0.55, 0.55, 0.55]))
    return _build_nonlinear("example25", 3, f_exprs, box, B=[[0.0], [1.0], [0.0]])


BUILTINS = {
    "rossler": rossler,
    "rossler_mod": rossler_mod,
    "synchronverter": synchronverter,
    "example25": example25,
}


def builtin(name: str, **params) -> ModelBundle:
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin model {name!r}; available: {sorted(BUILTINS)}")
    if params and name != "synchronverter":
        raise ValueError(f"builtin model {name!r} takes no params, got {sorted(params)}")
    bundle = BUILTINS[name](**params)
    bundle.name = name
    return bundle
