"""Model ingestion (JSON + expression language) and the built-in registry.

A nonlinear model document carries the vector field as expression strings,
the envelope split J(x) = A0 + sum theta_j(x) A_j, and a working box. On
parse, the declared envelope is cross-checked against a finite-difference
Jacobian of the field at sampled points, so a mis-declared term matrix never
survives ingestion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import IntervalError, compile_model, parse_expression
from .nl_verify import Box, NonlinearModel
from .sim import finite_difference_jacobian

ENVELOPE_CHECK_POINTS = 100
ENVELOPE_CHECK_RTOL = 1e-6


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


def _build_nonlinear(name, dim, f_exprs, A0, term_docs, box, B=None, params=None):
    f_nodes = [parse_expression(s, dim) for s in f_exprs]
    if len(f_nodes) != dim:
        raise ValueError(f"expected {dim} field components, got {len(f_nodes)}")

    term_mats = []
    theta_nodes = []
    theta_exprs = []
    fixed_bounds = []
    for doc in term_docs:
        Aj = np.asarray(doc["A"], dtype=float)
        if Aj.shape != (dim, dim):
            raise ValueError(f"term matrix has shape {Aj.shape}, expected {(dim, dim)}")
        term_mats.append(Aj)
        theta_nodes.append(parse_expression(doc["theta"], dim))
        theta_exprs.append(doc["theta"])
        fixed_bounds.append(tuple(doc["bounds"]) if "bounds" in doc else None)
    f, theta = compile_model(dim, f_nodes, theta_nodes)

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


def _check_envelope(bundle: ModelBundle, points: int = ENVELOPE_CHECK_POINTS):
    """Cross-check the declared envelope against a finite-difference Jacobian."""
    model, box = bundle.model, bundle.box
    rng = np.random.default_rng(0)
    worst = (0.0, None)
    for x in box.sample(rng, points):
        J_env = model.jacobian(x)
        J_fd = finite_difference_jacobian(model.f, x)
        if np.isfinite(J_env).all() and np.isfinite(J_fd).all():
            err = np.abs(J_env - J_fd).max() / (1.0 + np.abs(J_env).max())
        else:
            err = math.inf  # a non-finite Jacobian never agrees
        if err > worst[0]:
            worst = (err, x)
    if worst[0] > ENVELOPE_CHECK_RTOL:
        raise ValueError(
            f"declared envelope disagrees with the field Jacobian: relative error "
            f"{worst[0]:.3e} at x = {np.round(worst[1], 6).tolist()}"
        )


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
        dim = int(doc["dim"])
        box_doc = doc.get("box")
        if box_doc is None:
            raise ValueError("nonlinear model requires a box")
        box = Box(np.asarray(box_doc["lower"], float), np.asarray(box_doc["upper"], float))
        bundle = _build_nonlinear(
            doc.get("name", ""), dim, doc["f"], doc["A0"], doc.get("terms", []),
            box, doc.get("B"),
        )
        _check_envelope(bundle)
        return bundle
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
