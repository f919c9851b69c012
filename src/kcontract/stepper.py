"""The one RK4 loop, emitted as Python source or as C, per field.

One template holds the RK4 arithmetic in sim.integrate's operation order,
and it is emitted in one of two state forms. A field that is a Rate (a
compiled model's f, or compound_rate's Rate) has it inlined into a loop
over Python float locals, so no ndarray is built and no function is
called per stage. Any other field is called once per stage on the whole
state, one row or a block, as one ndarray (array_rk4).

run is the one call that runs a field, the one place that checks a state
against a Rate, and the one owner of a run's records: their times
(record_times), the states and the trim of a truncated run. A Rate runs
one shape, an (m, dim) block of rows, each row its own run, by one of two
runners with one contract, (rate, block, n_steps, h, record_every, states)
-> stop, each filling its rows of states and returning the step the block
ended at: native.rk4, the C form of the float loop (the same stages and
update, step_lines, as C with Python's float semantics spelled out per
operation), when the Rate has one and an object is at hand, or else
python_rk4, the float loop row by row, which is the oracle the C bytes are
tested against.

concurrently is the one fan-out onto threads: native.rk4 runs the row
slices of a large block through it, and reproduce the independent runs of a
bundle. threads() is how many calls it runs at once.
"""

from __future__ import annotations

import itertools
import math
import os
import threading

import numpy as np

from .compound import additive_scatter
from .expressions import Rate, exec_source
from .nl_verify import NonlinearModel

# The one RK4 loop. Stages are s + half*k and s + h*k3; the update is
# s + sixth*(((k1 + 2k2) + 2k3) + k4), elementwise on floats. A rate that
# fails as floats do (OverflowError from x**3, ZeroDivisionError, the "math
# domain error" of math.sin(inf)) counts as a non-finite state, as inf or nan
# would in numpy; any other error propagates.
_RK4 = """\
def rk4(z, n_steps, h, record_every, *, {bound}):
    half, sixth = 0.5 * h, h / 6.0
    z = {load}
    {state} = z
    states = [z]
    for i in range(1, n_steps + 1):
        try:
{stages}
        except ArithmeticError:
            break
        except ValueError as error:
            if error.args != ("math domain error",):
                raise
            break
{update}
        if not ({finite}):
            break
        if i % record_every == 0 or i == n_steps:
            states.append({state})
    else:
        return states, n_steps
    return states, (len(states) - 1) * record_every
"""
_STAGE = "{s} + {step} * {k}"
_UPDATE = "{s} + sixth * ((({a} + 2.0 * {b}) + 2.0 * {c}) + {d})"
_STAGES = (("ka", None, None), ("kb", "ka", "half"), ("kc", "kb", "half"), ("kd", "kc", "h"))


def step_lines(parts, stage, end: str = ""):
    """The statements of one step, the four stages and the update, over the
    state locals s<p> for p in parts, each statement ending in end."""
    stages = []
    for out, prev, step in _STAGES:
        stages += [f"x{p} = " + (f"s{p}" if prev is None else
                                 _STAGE.format(s=f"s{p}", step=step, k=f"{prev}{p}")) + end
                   for p in parts]
        stages += stage(out)
    update = [f"s{p} = " + _UPDATE.format(s=f"s{p}", a=f"ka{p}", b=f"kb{p}", c=f"kc{p}",
                                          d=f"kd{p}") + end for p in parts]
    return stages, update


def _emit_rk4(parts, stage, names: dict, *, load: str, state: str, finite: str):
    """The RK4 loop, compiled: rk4(z, n_steps, h, record_every) returns
    (states, stop), the recorded states as a list and the step the run
    ended at: n_steps, or where a state turned non-finite, its last
    record's step.

    The state is held in the locals s<p> for p in parts: the one ndarray s
    for parts [""], the floats s0..s<dim-1> for parts range(dim). stage(out)
    gives the source lines that set the out<p> from the stage locals x<p>,
    and names binds every other name those lines read. load, state and
    finite are the source of z as the loop holds it, of the state as
    recorded, and of the test that it is finite."""
    stages, update = step_lines(parts, stage)
    source = _RK4.format(
        bound=", ".join(f"{name}={name}" for name in names),
        stages="\n".join(" " * 12 + line for line in stages),
        update="\n".join(" " * 8 + line for line in update), load=load, state=state,
        finite=finite)
    return exec_source(source, names)["rk4"]


def _unwrap(fn):
    """fn seen through the wrappers that mark themselves _traced (perfbench's
    tracer does): they only count and time calls, so fn may run in their
    place. Any other wrapper, functools.wraps ones included, is a function
    of its own."""
    while getattr(fn, "_traced", False):
        fn = fn.__wrapped__
    return fn


def array_rk4(field):
    """RK4 on one ndarray state, 1-d or an (m, n) batch: each stage calls
    field on the whole state, and a value of another shape raises TypeError."""
    def stage(out):
        return [f"{out} = asarray(rate(x), dtype=float)",
                f"if {out}.shape != x.shape: raise TypeError("
                f"f'field returned shape {{{out}.shape}} for a state of shape {{x.shape}}')"]

    return _emit_rk4([""], stage, {"rate": field, "asarray": np.asarray, "isfinite": np.isfinite},
                     load="array(z, dtype=float)", state="s", finite="isfinite(s).all()")


def python_rk4(rate, block, n_steps: int, h: float, record_every: int, states):
    """rate's float loop on each row j of an (m, rate.dim) block in turn,
    its records into states[:, j] of the (n_records, m, dim) states: the
    Python twin of native.rk4, and the oracle its bytes are tested against.
    Returns the step the block ended at: n_steps, or, once a row truncates,
    its last record's step, to which later rows run."""
    s = [f"s{i}" for i in range(rate.dim)]
    row_rk4 = _emit_rk4(range(rate.dim), rate.stage, {"isfinite": math.isfinite, **rate.names},
                        load="asarray(z, dtype=float).tolist()", state=f"[{', '.join(s)}]",
                        finite=" and ".join(f"isfinite({si})" for si in s))
    for j, row in enumerate(block):
        records, n_steps = row_rk4(row, n_steps, h, record_every)
        states[:len(records), j] = records
    return n_steps


def record_times(n_steps: int, h: float, record_every: int):
    """The times a run of n_steps records, i * h for step 0, every
    record_every-th step and n_steps."""
    return np.append(np.arange(0, n_steps, record_every), n_steps) * h


def run(field, z, n_steps: int, h: float, record_every: int):
    """(times, states, truncated) of n_steps RK4 steps of field from z, one
    state or an (m, n) block of them, each row its own run (integrate_batch's
    rows); states has shape (n_samples, *z.shape).

    A field that is a Rate (such as a compiled model's f, seen through
    _traced wrappers) runs a (dim,) state or an (m, dim) block, dim being
    both the Rate's dimension and its number of outputs: any other shape
    raises ValueError before any step. It runs as a block of rows, a state
    as a one-row block, by native.rk4 or, where that has no object,
    python_rk4. Any other field runs array_rk4 on z. The runner returns the
    step the run ended at; the times are record_times up to it, and a
    truncated run is trimmed to copies."""
    z = np.asarray(z, dtype=float)
    record_every = int(record_every)
    rate = _unwrap(field)
    times = record_times(n_steps, h, record_every)
    with np.errstate(over="ignore", invalid="ignore"):
        if not isinstance(rate, Rate):
            states, stop = array_rk4(field)(z, n_steps, h, record_every)
        elif not (z.ndim in (1, 2) and z.shape[-1] == rate.dim == len(rate.outputs)):
            # the C loop reads and writes dim floats a row
            raise ValueError(f"a field with a Rate runs an (n,) state or an (m, n) block of rows, "
                             f"n its dimension and its output count, here {rate.dim} and "
                             f"{len(rate.outputs)}; got shape {z.shape}")
        else:
            from . import native  # the C form and its compiler: on the first Rate run only
            block, states = z.reshape(-1, rate.dim), np.empty((len(times), *z.shape))
            rows = states.reshape(len(times), *block.shape)  # a view: the runners fill states
            stop = native.rk4(rate, block, n_steps, h, record_every, rows)
            if stop is None:
                stop = python_rk4(rate, block, n_steps, h, record_every, rows)
    if stop < n_steps:  # truncated: trimmed to copies, so the full buffers are freed
        count = stop // record_every + 1
        times, states = times[:count].copy(), states[:count].copy()
    return times, states, stop < n_steps


MAX_THREADS = 8


def threads() -> int:
    """The calls concurrently runs at once: the cores this process may run
    on, at most MAX_THREADS."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cores = os.cpu_count() or 1
    return min(cores, MAX_THREADS)


def concurrently(calls) -> list:
    """The results of calls, functions of no argument, in call order.

    At most threads() of them run at once: the calling thread and up to
    threads() - 1 started threads (none at one usable core or for one call),
    each taking the next call not yet taken. Only a call that releases the
    GIL (a ctypes call such as native.rk4's C loop, a large numpy kernel)
    runs in parallel with another. Every call runs and every thread is
    joined before the exception of the first call, by index, that raised
    is re-raised."""
    calls = list(calls)
    results, errors = [None] * len(calls), {}
    taken = itertools.count()  # next() on it is atomic under the GIL

    def work():
        while (i := next(taken)) < len(calls):
            try:
                results[i] = calls[i]()
            except BaseException as error:
                errors[i] = error

    workers = [threading.Thread(target=work) for _ in range(min(threads(), len(calls)) - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[min(errors)]
    return results


# numpy sums fewer than eight terms one by one from 0.0 (longer sums are
# pairwise), so the emitted compound diagonal reproduces it only below k = 8
_MAX_EMITTED_ORDER = 7
# the emitted rate writes all N*N compound entries, so its source grows as
# N^2. Measured on a 2-core x86-64 host, on chain models at N = 3, 6 and 10,
# an RK4 step of it takes 0.9, 1.6 and 2.2 us as C (native, which probes
# numpy's dgemv at N <= 10 only) and 37, 61 and 90 us on the Python loop,
# against 98-187 us for the numpy field; its compiler run takes 0.3, 0.5
# and 1.0 s
_MAX_EMITTED_COMPOUND_DIM = 10


def compound_rate(model: NonlinearModel, k: int) -> Rate | None:
    """The Rate of integrate_compound's augmented field, the derivative of
    the state (x, y) with ydot = J(x)^[k] y, for a model whose f, theta and
    jacobian are its compiled model's own (f and theta are Rates that share
    one names dict, as compile_model makes them), k <= 7 and N = C(n, k) <= 10;
    None for any other model.

    J(x) accumulates ((A0 + theta_1 A_1) + theta_2 A_2)... as
    NonlinearModel.jacobian does, and the compound entries are formed as in
    additive_compound. For N > 1, J^[k] y stays one numpy matmul, the line
    Jy = (array([entries]).reshape(N, N) @ array([x...])[n:]).tolist(): no
    summation order written in Python or C reproduces the BLAS product's
    bytes, so native's C form of this line calls numpy's own dgemv as the
    matmul does. For N = 1 (k = n)
    it is the float (J^[n] * y) + 0.0, which gives the bytes of numpy's
    1 x 1 matmul: that product starts from +0.0, so a -0 is stored as +0.
    The matrices are read now, so a model whose matrices were replaced after
    compiling never runs a rate emitted for other data.
    """
    n, f, theta = model.dim, _unwrap(model.f), _unwrap(model.theta)
    jacobian = _unwrap(model.jacobian)
    mats = [model.A0, *model.terms]
    if (not isinstance(f, Rate) or not isinstance(theta, Rate) or theta.names is not f.names
            or f.dim != n or getattr(jacobian, "__func__", None) is not NonlinearModel.jacobian
            or getattr(jacobian, "__self__", None) is not model
            or len(theta.outputs) != len(model.terms) or k > _MAX_EMITTED_ORDER
            or math.comb(n, k) > _MAX_EMITTED_COMPOUND_DIM
            or any(A.shape != (n, n) for A in mats)):
        return None
    names = dict(f.names)
    for j, A in enumerate(mats):
        names.update((f"A{j}_{a}_{b}", v) for a, row in enumerate(A.tolist())
                     for b, v in enumerate(row))
    pairs = [(a, a) for a in range(n)] if k == n else [(a, b) for a in range(n) for b in range(n)]
    lines = [*f.lines, *theta.lines,
             *(f"th{j} = {body}" for j, body in enumerate(theta.outputs))]
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
    return Rate(n + N, tuple(lines), (*f.outputs, *products), names)
