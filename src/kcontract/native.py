"""The C form of stepper's RK4 loop: emitted from a Rate, built, cached on
disk and loaded through ctypes.

c_source writes stepper's float loop as C from the Rate's Python source,
through ast, with the same stages and update (stepper.step_lines), as one
entry point, kcontract_rk4, that runs an (m, dim) block of rows as
stepper.python_rk4 runs them; rk4 runs it in that twin's place.

A block of SPLIT_MIN_ROW_STEPS row-steps or more is split into contiguous
row slices, one a thread (threads(): the usable cores, at most
MAX_THREADS), each through kcontract_rk4, which takes the full block's row
count as its record stride, so every slice writes its own rows of the one
states array and its own times. The calling thread runs the first slice,
and ctypes releases the GIL for each call. The slices share one stop step:
a row runs to the step it reads there when it starts, and a row that
truncates lowers it to its last record's step. So the batch ends at that
step, as one call on the whole block ends it, and a slice stops running
full rows once another has truncated. The Python twin stays sequential.

The compiler is $CC, or cc on PATH. An object is built with FLAGS and keyed
by the SHA-256 of its source, the flags and the compiler's -dumpfullversion
and -dumpmachine, and kept under $XDG_CACHE_HOME/kcontract (by default
~/.cache/kcontract): a directory created with mode 0700 and used only while
it belongs to this user and no one else can write to it. Where it cannot be
used, an object is built in a private temporary directory for this process
alone. Each object carries the SHA-256 of its bytes after them, and one
whose bytes do not match is never loaded. Any failure (no compiler, a
failed build, an object that does not load) gives None, and the caller runs
the Python twin. stepper imports this module on the first run of a Rate,
never at import kcontract.
"""

from __future__ import annotations

import ast
import ctypes
import functools
import hashlib
import math
import os
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading

import numpy as np

from .stepper import step_lines

# -fno-builtin keeps every pow, sin and cos a libm call, as Python's are:
# folded builtins change bytes (example25 first differs at step 107 844)
FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
LIBS = ("-lm",)
_ARGTYPES = (ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_double, ctypes.c_long,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_long))
_DIGEST = hashlib.sha256().digest_size

# below this many row-steps (rows x n_steps) a C loop runs only from an
# object already built: at 2.2-4 us per Python step that is 22-40 ms,
# against about 0.1 s for one compiler run, whose object is then cached on
# disk
NATIVE_MIN_STEPS = 10_000

# a block of at least this many row-steps (rows x n_steps) is split into
# contiguous row slices, one a thread (threads()). Measured on a 2-core
# x86-64 host, 2 slices against one call, on the four built-ins: from 51 200
# row-steps on they take 0.53-0.61 of its time when the second thread gets a
# core of its own, and where the scheduler keeps it on the caller's core
# (most calls in the first seconds of a process there), 1.02-1.05 of it at
# 51 200 and 1.01-1.03 at 128 000. Starting and joining a thread takes 60-130
# us, about 1% of a block at this size.
SPLIT_MIN_ROW_STEPS = 100_000
MAX_THREADS = 8

# the loaded entry point of this process, by key; None where building failed
_LOADED = {}


# stepper's loop as C, for a Rate with a C form. Where Python would raise
# inside a stage, the emitted guard jumps to fail and the run ends truncated
# and unrecorded, as the Python loop's except clauses end it: a division
# whose divisor is == 0.0 (ZeroDivisionError), py_pow where float ** int
# raises, sin or cos of an infinity ("math domain error"). The constants are
# read from p at call time, so the source, and the object built from it,
# depend only on the structure of the rate. kcontract_rk4 runs each of the
# m rows it is given in turn, as integrate_batch runs them; those rows are
# one block or a slice of one, of block_rows rows, whose records it writes
# with that stride, and *stop is the block's step count, shared by its
# slices.
_C_RK4 = """\
#include <errno.h>
#include <math.h>

/* v ** w for an integer w, case by case as CPython's float_pow computes it;
   1 where Python raises (0.0 to a negative power, OverflowError), else 0
   with the value in *out */
static int py_pow(double v, double w, double *out)
{{
    int negate = 0;
    double r;
    if (w == 0.0) {{ *out = 1.0; return 0; }}
    if (isnan(v)) {{ *out = v; return 0; }}
    if (isinf(v)) {{
        int odd = fmod(fabs(w), 2.0) == 1.0;
        *out = w > 0.0 ? (odd ? v : fabs(v)) : (odd ? copysign(0.0, v) : 0.0);
        return 0;
    }}
    if (v == 0.0) {{
        if (w < 0.0) return 1;
        *out = fmod(fabs(w), 2.0) == 1.0 ? v : 0.0;
        return 0;
    }}
    if (v < 0.0) {{
        v = -v;
        negate = fmod(fabs(w), 2.0) == 1.0;
    }}
    if (v == 1.0) {{ *out = negate ? -1.0 : 1.0; return 0; }}
    errno = 0;
    r = pow(v, w);
    if (errno == 0 ? isinf(r) : !(errno == ERANGE && r == 0.0)) return 1;
    *out = negate ? -r : r;
    return 0;
}}

/* the run from the one row z: its record r goes to times[r] and to
   states[r * stride:r * stride + DIM], and the number of records is
   returned, negated when the run truncated */
static long run(const double *z, long n_steps, double h, long record_every,
                const double *p, double *times, double *states, long stride)
{{
    const double half = 0.5 * h, sixth = h / 6.0;
    double {declare};
    long i, rows = 1;
    times[0] = 0.0;
{load}
    for (i = 1; i <= n_steps; i++) {{
{stages}
{update}
        if (!({finite})) return -rows;
        if (i % record_every == 0 || i == n_steps) {{
            times[rows] = i * h;
{record}
            rows++;
        }}
    }}
    return rows;
fail:
    return -rows;
}}

/* the run from each of the m rows of z, rows of a block of block_rows:
   record r of row j at states[(r * block_rows + j) * DIM]. Each row runs
   to the step *stop holds when it starts, and a row that truncates lowers
   *stop to its last record's step by an atomic min, so later rows, of this
   slice or of another slice of the block, run only to that step. */
void kcontract_rk4(const double *z, long m, long block_rows, double h, long record_every,
                   const double *p, double *times, double *states, long *stop)
{{
    long j, got, last, now;
    for (j = 0; j < m; j++) {{
        got = run(z + j * {dim}, __atomic_load_n(stop, __ATOMIC_RELAXED), h, record_every, p,
                  times, states + j * {dim}, block_rows * {dim});
        if (got < 0) {{
            last = (-got - 1) * record_every;
            now = __atomic_load_n(stop, __ATOMIC_RELAXED);
            while (last < now && !__atomic_compare_exchange_n(stop, &now, last, 0,
                                                             __ATOMIC_RELAXED, __ATOMIC_RELAXED))
                ;
        }}
    }}
}}
"""
_C_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}


class _NoCForm(Exception):
    """The Rate holds a node or a name the C loop does not read as Python does."""


def _kind(value) -> str | None:
    """'float' or 'int' for a value the C loop reads as Python does (an int
    converted to a double where it meets a float), None for any other."""
    return {float: "float", int: "int"}.get(type(value))


def c_source(rate):
    """(source, params): the C form of stepper's float loop with rate inlined,
    and the names whose values it reads from p, in order; None when rate has
    no C form.

    Every line and output is translated through ast, and only these nodes
    have a C form: + - * / ** on two operands, unary -, math.sin and
    math.cos of one argument, names and finite int or float constants. A
    name is a state local x<i>, a local set by an earlier line, or one of
    rate.names holding a float or an int. Since Python's arithmetic on two
    ints is exact, an operation on two int operands has no C form, and
    neither has ** with a float exponent (float_pow's complex results)."""
    kinds = tuple(sorted((name, _kind(value)) for name, value in rate.names.items()))
    return _c_source(rate.dim, rate.lines, rate.outputs, kinds)


@functools.lru_cache(maxsize=64)
def _c_source(dim: int, lines: tuple, outputs: tuple, kinds: tuple):
    bound = dict(kinds)
    local = {f"x{i}": (f"x{i}", "float") for i in range(dim)}  # name -> (C name, kind)
    params, body, temps = [], [], []

    def temp(value=None):
        name = f"T{len(temps)}"
        temps.append(name)
        if value is not None:
            body.append(f"{name} = {value};")
        return name

    def emit(node):
        """(C expression, kind) of node; the guards it needs go to body."""
        if isinstance(node, ast.Constant):
            kind = _kind(node.value)
            if kind is None or not math.isfinite(node.value):
                raise _NoCForm
            return float(node.value).hex(), kind
        if isinstance(node, ast.Name):
            if node.id in local:
                return local[node.id]
            if bound.get(node.id) is None:
                raise _NoCForm
            if node.id not in params:
                params.append(node.id)
            return f"p[{params.index(node.id)}]", bound[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            value, kind = emit(node.operand)
            return f"(-{value})", kind
        if isinstance(node, ast.BinOp) and type(node.op) in _C_BINARY:
            (a, a_kind), (b, b_kind) = emit(node.left), emit(node.right)
            if a_kind == b_kind == "int":
                raise _NoCForm
            if isinstance(node.op, ast.Div):
                divisor = temp(b)
                body.append(f"if ({divisor} == 0.0) goto fail;")
                return f"({a} / {divisor})", "float"
            if isinstance(node.op, ast.Pow):
                if b_kind != "int":
                    raise _NoCForm
                power = temp()
                body.append(f"if (py_pow({a}, {b}, &{power})) goto fail;")
                return power, "float"
            return f"({a} {_C_BINARY[type(node.op)]} {b})", "float"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"
                and "math" not in local and "math" not in bound
                and node.func.attr in ("sin", "cos") and len(node.args) == 1
                and not node.keywords):
            arg = temp(emit(node.args[0])[0])
            body.append(f"if (isinf({arg})) goto fail;")
            return f"{node.func.attr}({arg})", "float"
        raise _NoCForm

    try:
        for line in lines:
            [statement] = ast.parse(line).body
            if not (isinstance(statement, ast.Assign) and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)):
                raise _NoCForm
            name = statement.targets[0].id
            if name in bound or not name.isascii():
                raise _NoCForm
            value, kind = emit(statement.value)
            c_name = local[name][0] if name in local else f"L_{name}"
            body.append(f"{c_name} = {value};")
            local[name] = (c_name, kind)
        results = [emit(ast.parse(output, mode="eval").body)[0] for output in outputs]
    except (_NoCForm, SyntaxError, ValueError, OverflowError):
        return None
    parts = range(dim)
    stages, update = step_lines(
        parts, lambda out: [*body, *(f"{out}{i} = {r};" for i, r in enumerate(results))], ";")
    declare = [f"{v}{p}" for v in ("s", "x", "ka", "kb", "kc", "kd") for p in parts]
    declare += [c_name for c_name, _ in local.values() if c_name.startswith("L_")] + temps
    source = _C_RK4.format(
        declare=", ".join(declare),
        load="\n".join(f"    states[{p}] = s{p} = z[{p}];" for p in parts),
        stages="\n".join(" " * 8 + line for line in stages),
        update="\n".join(" " * 8 + line for line in update),
        finite=" && ".join(f"isfinite(s{p})" for p in parts),
        record="\n".join(f"            states[rows * stride + {p}] = s{p};" for p in parts),
        dim=dim)
    return source, tuple(params)


def rk4(rate, block, n_steps: int, h: float, record_every: int):
    """The C form of rate's loop on a nonempty (m, rate.dim) block of rows:
    stepper.python_rk4's results, with times and states as arrays; None when
    rate has no C form or no object is at hand. The object is loaded from
    this process or the cache or, from NATIVE_MIN_STEPS row-steps on, built
    now. A block of SPLIT_MIN_ROW_STEPS row-steps or more runs as threads()
    row slices."""
    form = c_source(rate)
    if form is None:
        return None
    source, params = form
    try:
        p = np.array([float(rate.names[name]) for name in params])
    except OverflowError:  # an int beyond the float range, on which Python raises
        return None
    m = len(block)
    fn = load(source, build=m * n_steps >= NATIVE_MIN_STEPS)
    if fn is None:
        return None
    z = np.ascontiguousarray(block, dtype=float)
    rows = 1 + -(-n_steps // record_every)
    states = np.empty((rows, *z.shape))
    parts = min(threads(), m) if m * n_steps >= SPLIT_MIN_ROW_STEPS else 1
    bounds = [m * i // parts for i in range(parts + 1)]
    times, stop = [np.empty(rows) for _ in range(parts)], ctypes.c_long(n_steps)

    def run(i):
        # a worker's target: it holds z, states and times, the buffers the
        # C call writes, until that call returns
        start = bounds[i]
        fn(z[start].ctypes.data, bounds[i + 1] - start, m, h, record_every, p.ctypes.data,
           times[i].ctypes.data, states[0, start].ctypes.data, ctypes.byref(stop))

    workers = [threading.Thread(target=run, args=(i,)) for i in range(1, parts)]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    if stop.value == n_steps:
        return times[0], states, False
    # truncated: the batch ends at the record of the stop step, and is
    # trimmed to a copy, so the full buffers are freed
    count = stop.value // record_every + 1
    return times[0][:count].copy(), states[:count].copy(), True


def threads() -> int:
    """The threads a block of SPLIT_MIN_ROW_STEPS row-steps or more is split
    between: the cores this process may run on, at most MAX_THREADS."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cores = os.cpu_count() or 1
    return min(cores, MAX_THREADS)


def compiler():
    """(argv, identity) of the C compiler, $CC or cc on PATH; None when there
    is none or it does not report its version and target."""
    return _compiler(os.environ.get("CC") or "cc", os.environ.get("PATH", os.defpath))


@functools.lru_cache(maxsize=8)
def _compiler(cc: str, path: str):
    try:
        argv = shlex.split(cc)
    except ValueError:  # unbalanced quotes
        return None
    found = shutil.which(argv[0], path=path) if argv else None
    if found is None:
        return None
    argv = (found, *argv[1:])
    try:
        identity = [subprocess.run([*argv, flag], capture_output=True, text=True, timeout=60,
                                   check=True).stdout.strip()
                    for flag in ("-dumpfullversion", "-dumpmachine")]
    except (OSError, subprocess.SubprocessError):
        return None
    return (argv, "\0".join(identity)) if all(identity) else None


def cache_dir() -> str | None:
    """The object cache, created if need be; None when it cannot be created
    or is not a directory owned by this user that others cannot write."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "kcontract")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return None
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
        return None
    return path


def load(source: str, build: bool):
    """kcontract_rk4 of source, built with FLAGS: from this process, from
    the cache, or, when build is true, compiled now. None when there is no
    compiler, no object and build is false, or building or loading fails."""
    found = compiler()
    if found is None:
        return None
    argv, identity = found
    key = hashlib.sha256("\0".join((source, *FLAGS, *LIBS, identity)).encode()).hexdigest()
    if key in _LOADED:
        return _LOADED[key]
    cache = cache_dir()
    if cache is not None:
        fn = _open(os.path.join(cache, key + ".so"))
        if fn is not None:
            _LOADED[key] = fn
            return fn
    if not build:
        return None
    _LOADED[key] = fn = _build(argv, source, cache, key)
    return fn


def _build(argv, source: str, cache: str | None, key: str):
    """Compile source in a temporary directory (in cache, or a private one),
    append the digest, and load the object, moved into cache by os.replace."""
    try:
        with tempfile.TemporaryDirectory(prefix="kcontract-", dir=cache) as tmp:
            c_path, so_path = os.path.join(tmp, "rk4.c"), os.path.join(tmp, "rk4.so")
            with open(c_path, "w") as fh:
                fh.write(source)
            subprocess.run([*argv, *FLAGS, "-o", so_path, c_path, *LIBS], capture_output=True,
                           timeout=600, check=True)
            with open(so_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).digest()
            with open(so_path, "ab") as fh:
                fh.write(digest)
            if cache is None:
                return _open(so_path)  # loaded before the directory is removed
            path = os.path.join(cache, key + ".so")
            os.replace(so_path, path)
            return _open(path)
    except (OSError, subprocess.SubprocessError):
        return None


def _open(path: str):
    """kcontract_rk4 of the object at path, if its bytes match the digest
    after them and it loads; else None."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if hashlib.sha256(data[:-_DIGEST]).digest() != data[-_DIGEST:]:
        return None
    try:
        fn = ctypes.CDLL(path).kcontract_rk4
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = _ARGTYPES, None
    return fn
