"""The one RK4 loop of sim.integrate, emitted as Python source and compiled
per field.

The loop runs the arithmetic on Python floats in integrate's operation
order. A field whose rate is known as source, a Rate, has it inlined into
the loop, so no ndarray is built and no function is called per stage: a
compiled model's f, and integrate_compound's augmented field once
compound_rate has emitted its Rate and inline has attached it. Any other
field is called on an ndarray.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .compound import additive_scatter
from .expressions import exec_source, scalar_source
from .nl_verify import NonlinearModel

# The one RK4 loop. Stages are s + half*k and s + h*k3; the update is
# s + sixth*(((k1 + 2k2) + 2k3) + k4), elementwise on Python floats. A rate
# that fails as floats do (OverflowError from x**3, ZeroDivisionError, the
# "math domain error" of math.sin(inf)) counts as a non-finite state, as inf
# or nan would in numpy; any other error propagates.
_RK4 = """\
def rk4(z, n_steps, h, record_every, *, {bound}):
    half, sixth = 0.5 * h, h / 6.0
    {state} = z
    times, states = [0.0], [z]
    for i in range(1, n_steps + 1):
        try:
{stages}
        except ArithmeticError:
            return times, states, True
        except ValueError as error:
            if error.args != ("math domain error",):
                raise
            return times, states, True
{update}
        if not ({finite}):
            return times, states, True
        if i % record_every == 0 or i == n_steps:
            times.append(i * h)
            states.append({state})
    return times, states, False
"""
_STAGE = "{s} + {step} * {k}"
_UPDATE = "{s} + sixth * ((({a} + 2.0 * {b}) + 2.0 * {c}) + {d})"
_STAGES = (("ka", None, None), ("kb", "ka", "half"), ("kc", "kb", "half"), ("kd", "kc", "h"))


@dataclass(frozen=True)
class Rate:
    """A field's rate as source. lines are statements over the state locals
    x0..x<dim-1>, outputs[i] is the expression of component i, and names
    binds every other name they read. The locals the lines set (th*, J*_*,
    Jy) and the names (c*, A*_*_*) shadow none of the RK4 loop's."""

    dim: int
    lines: tuple
    outputs: tuple
    names: dict

    def stage(self, out: str) -> list:
        """The source lines that set out0..out<dim-1>."""
        return [*self.lines, *(f"{out}{i} = {expr}" for i, expr in enumerate(self.outputs))]

    def function(self):
        """rate(z) -> ndarray, compiled from the same lines."""
        xs = ", ".join(f"x{i}" for i in range(self.dim))
        body = [f"[{xs}] = asarray(z, dtype=float).tolist()", *self.stage("r"),
                f"return array([{', '.join(f'r{i}' for i in range(self.dim))}])"]
        source = "def rate(z):\n" + "".join(f"    {line}\n" for line in body)
        return exec_source(source, self.names)["rate"]


def _emit_rk4(dim: int, stage, names: dict, unrolled: bool):
    """The RK4 loop around stage, compiled: rk4(z, n_steps, h, record_every)
    returns (times, states, truncated) as lists.

    Unrolled, the state is the locals s0..s<dim-1> and stage(out) gives the
    source lines that set out0..out<dim-1> from the stage locals
    x0..x<dim-1>; otherwise the state is the list s and stage(out) sets the
    list out from the list x. names binds every other name those lines read.
    """
    names = {"isfinite": math.isfinite, **names}
    stages = []
    if unrolled:
        s = [f"s{i}" for i in range(dim)]
        for out, prev, step in _STAGES:
            stages += [f"x{i} = " + (si if prev is None else
                                      _STAGE.format(s=si, step=step, k=f"{prev}{i}"))
                       for i, si in enumerate(s)]
            stages += stage(out)
        update = [f"{si} = " + _UPDATE.format(s=si, a=f"ka{i}", b=f"kb{i}", c=f"kc{i}",
                                              d=f"kd{i}") for i, si in enumerate(s)]
        state, finite = f"[{', '.join(s)}]", " and ".join(f"isfinite({si})" for si in s)
    else:
        for out, prev, step in _STAGES:
            stages.append("x = s" if prev is None else
                          f"x = [{_STAGE.format(s='a', step=step, k='b')} "
                          f"for a, b in zip(s, {prev})]")
            stages += stage(out)
        update = [f"s = [{_UPDATE.format(s='a', a='b', b='c', c='d', d='e')} "
                  "for a, b, c, d, e in zip(s, ka, kb, kc, kd)]"]
        state, finite = "s", "all(map(isfinite, s))"
    source = _RK4.format(
        bound=", ".join(f"{name}={name}" for name in names), state=state,
        stages="\n".join(" " * 12 + line for line in stages),
        update="\n".join(" " * 8 + line for line in update), finite=finite or "True")
    return exec_source(source, names)["rk4"]


def _unwrap(fn):
    """fn seen through the wrappers that mark themselves _traced (perfbench's
    tracer does): they only count and time calls, so fn may run in their
    place. Any other wrapper, functools.wraps ones included, is a function
    of its own."""
    while getattr(fn, "_traced", False):
        fn = fn.__wrapped__
    return fn


def _scalar_source(fn):
    """The ScalarSource of a compiled model function, or None."""
    return scalar_source(_unwrap(fn))


# fields integrate runs by an attached Rate, keyed by the field itself (see
# expressions.scalar_source)
_INLINED = weakref.WeakKeyDictionary()


def inline(field, rate: Rate):
    """Have integrate run field by inlining rate, whose values must be field's."""
    _INLINED[field] = rate


def _inlined_rate(field) -> Rate | None:
    """The Rate integrate inlines for field: a compiled model's f, or one
    attached by inline; None for any other field."""
    fn = _unwrap(field)
    src = scalar_source(fn)
    if src is not None:
        return Rate(src.dim, (), src.f, src.names())
    try:
        return _INLINED.get(fn)
    except TypeError:  # not weakly referenceable, so nothing is attached
        return None


def field_rk4(field, dim: int):
    """RK4 for field: its Rate inlined when it has one (a compiled model's f,
    or a field given one by inline), else one call of field on an ndarray per
    stage."""
    rate = _inlined_rate(field)
    if rate is not None and rate.dim == dim:
        return _emit_rk4(dim, rate.stage, rate.names, unrolled=True)

    def call(y):
        value = np.asarray(field(np.array(y)), dtype=float).tolist()
        if len(value) != dim:
            raise TypeError(f"field returned {len(value)} components for a state of {dim}")
        return value

    return _emit_rk4(dim, lambda out: [f"{out} = rate(x)"], {"rate": call}, unrolled=False)


# numpy sums fewer than eight terms one by one from 0.0 (longer sums are
# pairwise), so the emitted compound diagonal reproduces it only below k = 8
_MAX_EMITTED_ORDER = 7
# the emitted rate writes all N*N compound entries: at N = 3-10 it takes 7-17
# us per call against the numpy field's 20-25 us, at N = 20 already 41 against
# 24 us, and its source grows as N^2
_MAX_EMITTED_COMPOUND_DIM = 10


def compound_rate(model: NonlinearModel, k: int) -> Rate | None:
    """The Rate of integrate_compound's augmented field, the derivative of
    the state (x, y) with ydot = J(x)^[k] y, for a model whose f, theta and
    jacobian are its compiled model's own, k <= 7 and N = C(n, k) <= 10;
    None for any other model.

    J(x) accumulates ((A0 + theta_1 A_1) + theta_2 A_2)... as
    NonlinearModel.jacobian does, and the compound entries are formed as in
    additive_compound. For N > 1, J^[k] y stays one numpy matmul: no Python
    summation order reproduces the BLAS product's bytes. For N = 1 (k = n)
    it is the float (J^[n] * y) + 0.0, which gives the bytes of numpy's
    1 x 1 matmul: that product starts from +0.0, so a -0 is stored as +0.
    The matrices are read now, so a model whose matrices were replaced after
    compiling never runs a rate emitted for other data.
    """
    n, src = model.dim, _scalar_source(model.f)
    jacobian = _unwrap(model.jacobian)
    mats = [model.A0, *model.terms]
    if (src is None or _scalar_source(model.theta) is not src or src.dim != n
            or getattr(jacobian, "__func__", None) is not NonlinearModel.jacobian
            or getattr(jacobian, "__self__", None) is not model
            or len(src.theta) != len(model.terms) or k > _MAX_EMITTED_ORDER
            or math.comb(n, k) > _MAX_EMITTED_COMPOUND_DIM
            or any(A.shape != (n, n) for A in mats)):
        return None
    names = src.names()
    for j, A in enumerate(mats):
        names.update((f"A{j}_{a}_{b}", v) for a, row in enumerate(A.tolist())
                     for b, v in enumerate(row))
    pairs = [(a, a) for a in range(n)] if k == n else [(a, b) for a in range(n) for b in range(n)]
    lines = [f"th{j} = {body}" for j, body in enumerate(src.theta)]
    for a, b in pairs:
        expr = f"A0_{a}_{b}"
        for j in range(1, len(mats)):
            expr = f"({expr} + th{j - 1} * A{j}_{a}_{b})"
        lines.append(f"J{a}_{b} = {expr}")
    if k == 1:
        N, entries = n, [f"J{a}_{b}" for a, b in pairs]
    else:
        subs, dst, index, sign = additive_scatter(n, k)
        N = len(subs)
        entries = ["0.0"] * (N * N)
        for p, q, sg in zip(dst.tolist(), index.tolist(), sign.tolist()):
            entries[p] = f"({sg!r} * J{q // n}_{q % n} + 0.0)"
        for i, sub in enumerate(subs.tolist()):
            entries[i * (N + 1)] = "(" * k + "0.0" + "".join(f" + J{a}_{a})" for a in sub)
    if N == 1:
        products = [f"({entries[0]} * x{n}) + 0.0"]
    else:
        xs = ", ".join(f"x{i}" for i in range(n + N))
        lines.append(f"Jy = (array([{', '.join(entries)}]).reshape({N}, {N}) "
                     f"@ array([{xs}])[{n}:]).tolist()")
        products = [f"Jy[{i}]" for i in range(N)]
    return Rate(n + N, tuple(lines), (*src.f, *products), names)
