"""Model ingestion (JSON + expression language) and the built-in registry.

A nonlinear model document carries the vector field as expression strings,
the envelope split J(x) = A0 + sum theta_j(x) A_j, and a working box. On
parse, every field of the document is validated, and the declared envelope
is checked exactly against the field's symbolic Jacobian (``_check_envelope``),
so a mis-declared term matrix never survives ingestion. The check covers
polynomials in x_i, sin(u) and cos(u) with constant denominators; a document
outside that class, or one whose expansion exceeds
``expressions.MAX_NORMAL_FORM`` or ``expressions.MAX_COEFFICIENT_BITS``, is
refused with ValueError, and so is a field that is not finite in floats at
the box centre or at ``FINITE_CHECK_POINTS`` points sampled in the box.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .expressions import (IntervalError, compile_model, derivative, monomial_text,
                          normal_form, parse_expression)
from .nl_verify import Box, NonlinearModel


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
    theta_bounds_fixed: list = field(default_factory=list)  # per-term explicit bounds or None
    params: dict = field(default_factory=dict)

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
            "A0": np.asarray(self.model.A0).tolist(),
            "terms": [
                {"A": np.asarray(Aj).tolist(), "theta": expr}
                | ({"bounds": list(bnd)} if bnd is not None else {})
                for Aj, expr, bnd in zip(
                    self.model.terms, self.theta_exprs, self.theta_bounds_fixed
                )
            ],
            "box": {"lower": self.box.lower.tolist(), "upper": self.box.upper.tolist()},
        }
        if self.B is not None:
            doc["B"] = self.B.tolist()
        return doc


def _build_nonlinear(name, dim, f_exprs, A0, term_docs, box, B=None, params=None,
                     check=False):
    """The bundle of a nonlinear model; with check, its envelope is checked
    exactly (``_check_envelope``) and its field in floats (``_check_finite``)."""
    f_nodes = [parse_expression(s, dim) for s in f_exprs]
    term_mats = [np.asarray(doc["A"], dtype=float) for doc in term_docs]
    theta_exprs = [doc["theta"] for doc in term_docs]
    theta_nodes = [parse_expression(s, dim) for s in theta_exprs]
    fixed_bounds = [tuple(doc["bounds"]) if "bounds" in doc else None for doc in term_docs]
    if check:
        _check_envelope(_normal_forms("f", f_exprs, f_nodes),
                        _normal_forms("theta", theta_exprs, theta_nodes), A0, term_mats)
    f, theta = compile_model(dim, f_nodes, theta_nodes)
    if check:
        _check_finite(f, box)

    def bounds(b: Box):
        ivs = b.intervals()
        out = []
        for j, (node, fixed) in enumerate(zip(theta_nodes, fixed_bounds)):
            if fixed is not None:
                iv = fixed
            else:
                try:
                    iv = node.interval(ivs)
                except IntervalError as exc:
                    raise IntervalError(
                        f"cannot bound envelope parameter on the box: {exc}"
                    ) from exc
            if not all(math.isfinite(v) for v in iv):
                raise IntervalError(
                    f"envelope parameter {j + 1} ({theta_exprs[j]}) has the non-finite "
                    f"bound {tuple(iv)} on the box"
                )
            out.append(iv)
        return out

    model = NonlinearModel(
        dim=dim, f=f, A0=A0, terms=term_mats, theta=theta,
        bounds=bounds,
    )
    return ModelBundle(
        kind="nonlinear", name=name, B=None if B is None else np.asarray(B, dtype=float),
        model=model, box=box, f_exprs=list(f_exprs), theta_exprs=theta_exprs,
        theta_bounds_fixed=fixed_bounds, params=dict(params or {}),
    )


def _check_envelope(f_forms, theta_forms, A0, terms):
    """Check that the declared envelope is the field's exact Jacobian.

    f_forms and theta_forms are the exact normal forms of f_i and theta_m
    (``expressions.normal_form``), and f_i is differentiated in its form.
    Entry (i, j) is accepted when, for every monomial, the exact coefficient
    of d f_i / d x_j and that of A0_ij + sum_m theta_m (A_m)_ij round to the
    same double. Rounding once lets ``closed_loop``'s A0 - BK pass: each of
    its entries is one float subtraction of the literal fl((BK)_ij) that its
    field carries, so it is the rounded exact value. The rule leaves a gap of
    up to half an ulp per coefficient, which interval bounds rounded outward
    would have to cover. A failure names the entry and, of the monomials
    that disagree, the first by full text, written with nested atom
    arguments elided."""
    A0 = np.asarray(A0, dtype=float).tolist()
    terms = [A.tolist() for A in terms]
    cache = {}
    for i, form in enumerate(f_forms):
        for j in range(len(f_forms)):
            got = derivative(form, j, cache)
            want = _envelope_form(A0[i][j], [(A[i][j], th) for A, th in zip(terms, theta_forms)])
            bad = [m for m in got.keys() | want.keys()
                   if got.get(m, 0) != want.get(m, 0)
                   and _rounded(got.get(m, 0)) != _rounded(want.get(m, 0))]
            if bad:
                m = min(bad, key=monomial_text)
                raise ValueError(
                    f"declared envelope disagrees with the field Jacobian: entry "
                    f"({i + 1}, {j + 1}), monomial {monomial_text(m, elide=True)}: "
                    f"d f{i + 1}/d x{j + 1} has {_rounded(got.get(m, 0))!r}, A0 + sum theta_m A_m has "
                    f"{_rounded(want.get(m, 0))!r}")


def _normal_forms(prefix, texts, nodes):
    out = []
    for k, (text, node) in enumerate(zip(texts, nodes)):
        try:
            out.append(normal_form(node))
        except ValueError as exc:
            raise ValueError(f"{prefix}{k + 1} = {text}: {exc}") from None
    return out


def _envelope_form(constant: float, weighted) -> dict:
    """The exact normal form of constant + sum w * form over the (w, form)
    pairs of weighted, every float taken exactly. A monomial may be left with
    a zero coefficient, which compares like an absent one."""
    from fractions import Fraction  # deferred: only model loading does exact arithmetic

    def exact(v):
        return int(v) if v.is_integer() else Fraction(v)

    out = {frozenset(): exact(constant)} if constant else {}  # the constant term
    for w, form in weighted:
        if w:
            w = exact(w)
            for m, c in form.items():
                out[m] = out.get(m, 0) + w * c
    return out


def _rounded(c) -> float:
    """The double nearest the exact coefficient c, infinite past the range."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


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


def is_number(value) -> bool:
    """Whether value is a number, not a bool, and a finite float: nan, inf
    and an int past the float range (which math.isfinite cannot take) are not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def finite(value, name: str, shape: tuple) -> np.ndarray:
    """value, an array of numbers (no strings or nulls), as a finite float
    array of shape, where None stands for any positive length; otherwise a
    ValueError that names the field."""
    want = str(tuple("m" if s is None else s for s in shape)).replace("'", "")
    try:
        a = np.asarray(value)
        if a.dtype.kind not in "iuf":  # strings, nulls, booleans
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
    """A nonlinear document, every field validated and the envelope checked."""
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"nonlinear model dim must be a positive integer, got {dim!r}")
    dim = int(dim)
    box_doc = doc.get("box")
    if box_doc is None:
        raise ValueError("nonlinear model requires a box")
    box = Box(finite(box_doc["lower"], "box lower", (dim,)),
              finite(box_doc["upper"], "box upper", (dim,)))
    f_exprs = doc["f"]
    if not (isinstance(f_exprs, list) and len(f_exprs) == dim
            and all(isinstance(s, str) for s in f_exprs)):
        raise ValueError(f"f must be a list of {dim} expression strings")
    A0 = finite(doc["A0"], "A0", (dim, dim))
    terms = []
    for k, term in enumerate(doc.get("terms", [])):
        where = f"terms[{k}]"
        if not (isinstance(term, dict) and isinstance(term.get("theta"), str)):
            raise ValueError(f"{where} must be an object with a theta expression string")
        checked = {"A": finite(term["A"], f"{where}.A", (dim, dim)), "theta": term["theta"]}
        if "bounds" in term:
            bnd = term["bounds"]
            if not (isinstance(bnd, list) and len(bnd) == 2 and all(map(is_number, bnd))
                    and bnd[0] <= bnd[1]):
                raise ValueError(f"{where}.bounds must be two finite numbers lo <= hi, "
                                 f"got {bnd!r}")
            checked["bounds"] = bnd
        terms.append(checked)
    B = doc.get("B")
    if B is not None:
        B = finite(B, "B", (dim, None))
    return _build_nonlinear(doc.get("name", ""), dim, f_exprs, A0, terms, box, B, check=True)


def parse_model(text: str) -> ModelBundle:
    """Parse and validate a model JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"model JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return model_from_dict(doc)


def model_from_dict(doc: dict) -> ModelBundle:
    kind = doc.get("kind")
    if kind == "linear":
        A = np.asarray(doc["A"], dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"linear model A must be square, got {A.shape}")
        B = np.asarray(doc["B"], dtype=float) if "B" in doc else None
        if B is not None and B.shape[0] != A.shape[0]:
            raise ValueError("B row count must match A")
        return ModelBundle(kind="linear", name=doc.get("name", ""), A=A, B=B)
    if kind == "nonlinear":
        return _nonlinear_from_dict(doc)
    if kind == "builtin":
        return builtin(doc["name"], **doc.get("params", {}))
    raise ValueError(f"unknown model kind {kind!r}")


def closed_loop(bundle: ModelBundle, K) -> ModelBundle:
    """The model under feedback u = -K x: field f(x) - B K x and A0 - B K, the
    rest kept. It is parsed from its JSON document, so it is compiled and
    envelope-checked like any loaded model; a row of B K that is zero keeps
    its component's expression."""
    if bundle.kind != "nonlinear" or bundle.B is None:
        raise ValueError("a closed loop needs a nonlinear model with an input matrix B")
    K = np.asarray(K, dtype=float)
    if K.shape != (bundle.B.shape[1], bundle.dim) or not np.isfinite(K).all():
        raise ValueError(f"K must be a finite {bundle.B.shape[1]}x{bundle.dim} matrix, "
                         f"got shape {K.shape}")
    BK = bundle.B @ K
    rows = [" + ".join(f"{_fmt(c)}*x{j + 1}" for j, c in enumerate(r) if c) for r in BK]
    return model_from_dict(bundle.to_json() | {
        "A0": (bundle.model.A0 - BK).tolist(),
        "f": [f"({f}) - ({r})" if r else f for f, r in zip(bundle.f_exprs, rows)],
    })


# ---------------------------------------------------------------------------
# built-in registry
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def rossler() -> ModelBundle:
    """Three-dimensional system with constant third compound trace -0.5 and a
    quadratic term that rules out constant indefinite metrics."""
    f_exprs = ["x2", "-x1 - x3", "0.5*((x1 - x1^2) - x3)"]
    A0 = [[0, 1, 0], [-1, 0, -1], [0.5, 0, -0.5]]
    terms = [{"A": [[0, 0, 0], [0, 0, 0], [-1, 0, 0]], "theta": "x1"}]
    box = Box(np.array([-5.0, -5.0, -2.0]), np.array([6.0, 5.0, 4.0]))
    return _build_nonlinear("rossler", 3, f_exprs, A0, terms, box)


def rossler_mod() -> ModelBundle:
    """Cubic variant of the same family; trajectories settle on simple attractors."""
    f_exprs = ["x2 - 2*x3", "-x1 - x3", "0.5*((x1 - x1^3) - x3)"]
    A0 = [[0, 1, -2], [-1, 0, -1], [0.5, 0, -0.5]]
    terms = [{"A": [[0, 0, 0], [0, 0, 0], [-1.5, 0, 0]], "theta": "x1^2"}]
    box = Box(np.array([-1.0, -1.0, -0.5]), np.array([1.0, 1.0, 0.5]))
    return _build_nonlinear("rossler_mod", 3, f_exprs, A0, terms, box)


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
    RL, VL, mLif, mJif, DpJ = R / L, V / L, m / L * i_f, m / J * i_f, D_p / J
    f_exprs = [
        f"-{_fmt(RL)}*x1 + x2*x3 + {_fmt(VL)}*sin(x4)",
        f"-x1*x3 - {_fmt(RL)}*x2 - {_fmt(mLif)}*x3 + {_fmt(VL)}*cos(x4)",
        f"{_fmt(mJif)}*x2 - {_fmt(DpJ)}*(x3 - {_fmt(w_n)}) + {_fmt(T_m / J)}",
        f"x3 - {_fmt(w_n)}",
    ]
    A0 = [
        [-RL, 0, 0, 0],
        [0, -RL, -mLif, 0],
        [0, mJif, -DpJ, 0],
        [0, 0, 1, 0],
    ]
    z = lambda: [[0.0] * 4 for _ in range(4)]
    A_x1 = z(); A_x1[1][2] = -1.0
    A_x2 = z(); A_x2[0][2] = 1.0
    A_x3 = z(); A_x3[0][1] = 1.0; A_x3[1][0] = -1.0
    A_s4 = z(); A_s4[1][3] = -VL
    A_c4 = z(); A_c4[0][3] = VL
    terms = [
        {"A": A_x1, "theta": "x1"},
        {"A": A_x2, "theta": "x2"},
        {"A": A_x3, "theta": "x3"},
        {"A": A_s4, "theta": "sin(x4)"},
        {"A": A_c4, "theta": "cos(x4)"},
    ]
    # working box; the x4 interval is taken ascending
    box = Box(np.array([-81.0, -67.0, 298.0, -0.2]), np.array([5.0, 10.5, 315.0, 1.0]))
    return _build_nonlinear("synchronverter", 4, f_exprs, A0, terms, box, params=p)


def example25() -> ModelBundle:
    """Third-order design example with input on the second state and a cubic
    nonlinearity; the open loop sustains periodic orbits."""
    f_exprs = ["x2 - x3", "-x1 - x3", "x1*(x1^2 - 0.25)"]
    A0 = [[0, 1, -1], [-1, 0, -1], [-0.25, 0, 0]]
    terms = [{"A": [[0, 0, 0], [0, 0, 0], [3.0, 0, 0]], "theta": "x1^2"}]
    # covers the three closed-loop equilibria (x1 = 0, +-0.5) with ~10% margin
    box = Box(np.array([-0.55, -0.55, -0.55]), np.array([0.55, 0.55, 0.55]))
    return _build_nonlinear("example25", 3, f_exprs, A0, terms, box,
                            B=[[0.0], [1.0], [0.0]])


BUILTINS = {
    "rossler": rossler,
    "rossler_mod": rossler_mod,
    "synchronverter": synchronverter,
    "example25": example25,
}


def builtin(name: str, **params) -> ModelBundle:
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin model {name!r}; available: {sorted(BUILTINS)}")
    bundle = BUILTINS[name](**params)
    bundle.name = name
    return bundle
