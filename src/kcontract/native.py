"""The C form of stepper's RK4 loop: emitted from a Rate, built, cached on
disk and loaded through ctypes.

c_source writes stepper's float loop as C from the Rate's Python source,
through ast, with the same stages and update (stepper.step_lines), as one
entry point, kcontract_rk4, that runs an (m, dim) block of rows as
stepper.python_rk4 runs them; rk4 runs it in that twin's place, with its
contract: it fills the states stepper.run allocated and returns the step
the block ended at. stepper.run alone computes the record times and trims
a truncated run.

A compound rate with N = C(n, k) > 1 forms J^[k] y as one numpy matmul,
whose bytes no summation order written in C gives. Its C form calls the
kernel numpy's matmul calls: numpy's own cblas dgemv, found by gemv() among
the symbols of GEMV_SYMBOLS through numpy's extension module, and probed
against np.matmul at every order of GEMV_ORDERS before first use. Its
address is passed to kcontract_rk4 at call time, as the constants are, so
no source or cache key depends on the BLAS. Where it is not found or the
probe fails, such a rate has no C form and runs the Python twin.

A block of SPLIT_MIN_ROW_STEPS row-steps or more is split into contiguous
row slices, one a thread (stepper.threads(): the usable cores, at most
stepper.MAX_THREADS), each through kcontract_rk4, which takes the full
block's row count as its record stride, so every slice writes its own rows
of the one states array. The slices run through
stepper.concurrently, the calling thread among them, and ctypes releases
the GIL for each call. The slices share one stop step:
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
the Python twin. An object is built when the Python loop's estimated cost
reaches NATIVE_MIN_COST, and below it only loaded. stepper imports this
module on the first run of a Rate, never at import kcontract, and gemv()
looks up and probes dgemv on the first C form that calls it.
"""

from __future__ import annotations

import ast
import ctypes
import functools
import hashlib
import math
import os
import random
import shlex
import shutil
import stat
import subprocess
import tempfile
from typing import NamedTuple

import numpy as np

from .stepper import concurrently, step_lines, threads

# -fno-builtin keeps every pow, sin and cos a libm call, as Python's are:
# folded builtins change bytes (example25 first differs at step 107 844)
FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
LIBS = ("-lm",)
_ARGTYPES = (ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_double, ctypes.c_long,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.POINTER(ctypes.c_long))
_DIGEST = hashlib.sha256().digest_size

# below this estimated cost of the Python loop, row-steps (rows x n_steps)
# times the AST nodes of the Rate's lines and outputs (CForm.size), a C loop
# runs only from an object already built. Measured on a 2-core x86-64 host,
# the Python loop takes 45-130 ns a node-step: 2.6-4.1 us a step for the
# built-ins' f (28-94 nodes), 29-57 us for their compound rates with N > 1
# (222-1194 nodes). So this is 9-26 ms, against 0.15-0.45 s for one
# compiler run, whose object is then cached on disk. Those compound rates
# are built from 1000 steps on, the built-ins' f from 2100-7200.
NATIVE_MIN_COST = 200_000

# numpy's cblas dgemv by the symbols its BLAS builds export, with the width
# of their integers. A symbol not listed here is never called: the wrong
# width crashes rather than gives other bytes.
GEMV_SYMBOLS = (("scipy_cblas_dgemv64_", 64), ("cblas_dgemv64_", 64), ("scipy_cblas_dgemv", 32))
# the orders of matrix the C loop multiplies through dgemv, each probed
# (gemv) before first use; at order 1 numpy's matmul is a dot product
GEMV_ORDERS = range(2, 11)

# a block of at least this many row-steps (rows x n_steps) is split into
# contiguous row slices, one a thread (stepper.threads()). Measured on a 2-core
# x86-64 host, 2 slices against one call, on the four built-ins: from 51 200
# row-steps on they take 0.53-0.61 of its time when the second thread gets a
# core of its own, and where the scheduler keeps it on the caller's core
# (most calls in the first seconds of a process there), 1.02-1.05 of it at
# 51 200 and 1.01-1.03 at 128 000. Starting and joining a thread takes 60-130
# us, about 1% of a block at this size.
SPLIT_MIN_ROW_STEPS = 100_000

# the loaded entry point of this process, by key; None where building failed
_LOADED = {}


# stepper's loop as C, for a Rate with a C form. Where Python would raise
# inside a stage, the emitted guard jumps to fail and the run ends truncated
# and unrecorded, as the Python loop's except clauses end it: a division
# whose divisor is == 0.0 (ZeroDivisionError), py_pow where float ** int
# raises, sin or cos of an infinity ("math domain error"). The constants are
# read from p, and numpy's dgemv from g32 or g64, at call time, so the
# source, and the object built from it, depend only on the structure of the
# rate. A J^[k] y line fills a local N x N array in reshape's order and
# calls matvec: numpy's dgemv with numpy's own arguments. kcontract_rk4
# runs each of the m rows it is given in turn, as integrate_batch runs
# them; those rows are one block or a slice of one, of block_rows rows,
# whose records it writes with that stride, and *stop is the block's step
# count, shared by its slices.
_C_RK4 = """\
#include <errno.h>
#include <math.h>
#include <stdint.h>

/* cblas dgemv with 32-bit and with 64-bit integers */
typedef void (*gemv32)(int, int, int32_t, int32_t, double, const double *, int32_t,
                       const double *, int32_t, double, double *, int32_t);
typedef void (*gemv64)(int, int, int64_t, int64_t, double, const double *, int64_t,
                       const double *, int64_t, double, double *, int64_t);

/* out = a @ y for the row-major n x n matrix a, as numpy's matmul computes
   it: numpy's own dgemv, g32 or g64 (the other is null), with numpy's
   arguments (CblasColMajor = 102, CblasTrans = 112) */
static inline void matvec(gemv32 g32, gemv64 g64, int n, const double *a, const double *y,
                          double *out)
{{
    if (g64) g64(102, 112, n, n, 1.0, a, n, y, 1, 0.0, out, 1);
    else g32(102, 112, n, n, 1.0, a, n, y, 1, 0.0, out, 1);
}}

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

/* the run from the one row z: its record r goes to
   states[r * stride:r * stride + DIM], and the number of records is
   returned, negated when the run truncated */
static long run(const double *z, long n_steps, double h, long record_every,
                const double *p, gemv32 g32, gemv64 g64, double *states, long stride)
{{
    const double half = 0.5 * h, sixth = h / 6.0;
    double {declare};
    long i, rows = 1;
{load}
    for (i = 1; i <= n_steps; i++) {{
{stages}
{update}
        if (!({finite})) return -rows;
        if (i % record_every == 0 || i == n_steps) {{
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
                   const double *p, gemv32 g32, gemv64 g64, double *states, long *stop)
{{
    long j, got, last, now;
    for (j = 0; j < m; j++) {{
        got = run(z + j * {dim}, __atomic_load_n(stop, __ATOMIC_RELAXED), h, record_every, p,
                  g32, g64, states + j * {dim}, block_rows * {dim});
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


class CForm(NamedTuple):
    """A Rate's C form: the source of its loop; the names whose values it
    reads from p, in order; gemv, the (gemv32, gemv64) addresses of numpy's
    dgemv that it calls, or (None, None) when it calls none; and size, the
    AST nodes of the Rate's lines and outputs."""

    source: str
    params: tuple
    gemv: tuple
    size: int


def c_source(rate) -> CForm | None:
    """The C form of stepper's float loop with rate inlined; None when rate
    has no C form.

    Every line and output is translated through ast, and only these nodes
    have a C form: + - * / ** on two operands, unary -, math.sin and
    math.cos of one argument, names and finite int or float constants. A
    name is a state local x<i>, a local set by an earlier line, or one of
    rate.names holding a float or an int. Since Python's arithmetic on two
    ints is exact, an operation on two int operands has no C form, and
    neither has ** with a float exponent (float_pow's complex results).

    One line more has a C form, stepper.compound_rate's J^[k] y:
    name = (array([floats]).reshape(N, N) @ array([floats])[a:]).tolist()
    with N in GEMV_ORDERS, read as name[i] with a constant i. It calls
    numpy's own dgemv as numpy's matmul does, so it has a C form only when
    gemv() finds and probes that kernel."""
    kinds = tuple(sorted((name, _kind(value)) for name, value in rate.names.items()))
    form = _c_source(rate.dim, rate.lines, rate.outputs, kinds)
    if form is None:
        return None
    source, params, calls_gemv, size = form
    pointers = gemv() if calls_gemv else (None, None)
    return None if pointers is None else CForm(source, params, pointers, size)


@functools.lru_cache(maxsize=64)
def _c_source(dim: int, lines: tuple, outputs: tuple, kinds: tuple):
    bound = dict(kinds)
    local = {f"x{i}": (f"x{i}", "float") for i in range(dim)}  # name -> (C name, kind)
    vectors = {}  # name -> (C name, length), of the J^[k] y lines
    params, body, temps, arrays = [], [], [], []
    size = 0

    def temp(value=None):
        name = f"T{len(temps)}"
        temps.append(name)
        if value is not None:
            body.append(f"{name} = {value};")
        return name

    def array(length):
        name = f"V{len(arrays)}"
        arrays.append(f"{name}[{length}]")
        return name

    def fill(values):
        """A C array of the floats values; the guards they need go to body."""
        name = array(len(values))
        for i, node in enumerate(values):
            value, kind = emit(node)
            if kind != "float":  # numpy would hold an int array, or objects
                raise _NoCForm
            body.append(f"{name}[{i}] = {value};")
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
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in vectors and isinstance(node.slice, ast.Constant)
                and type(node.slice.value) is int
                and 0 <= node.slice.value < vectors[node.value.id][1]):
            return f"{vectors[node.value.id][0]}[{node.slice.value}]", "float"
        raise _NoCForm

    def matvec(node):
        """(C name, N) of the C array that numpy's dgemv fills when node is
        compound_rate's J^[k] y, from the matrix in reshape's (row-major)
        order; None for any other node."""
        match node:
            case ast.Call(ast.Attribute(ast.BinOp(
                    ast.Call(ast.Attribute(ast.Call(ast.Name("array"), [ast.List(entries)], []),
                                           "reshape"), [ast.Constant(rows), ast.Constant(cols)],
                             []),
                    ast.MatMult(),
                    ast.Subscript(ast.Call(ast.Name("array"), [ast.List(column)], []),
                                  ast.Slice(ast.Constant(start), None, None))),
                    "tolist"), [], []):
                pass
            case _:
                return None
        if ("array" in local or "array" in bound or "array" in vectors or type(rows) is not int
                or rows != cols or rows not in GEMV_ORDERS or len(entries) != rows * rows
                or type(start) is not int or start < 0 or len(column) - start != rows):
            raise _NoCForm
        matrix, y, out = fill(entries), fill(column), array(rows)
        body.append(f"matvec(g32, g64, {rows}, {matrix}, {y} + {start}, {out});")
        return out, rows

    try:
        for line in lines:
            [statement] = ast.parse(line).body
            size += sum(1 for _ in ast.walk(statement))
            if not (isinstance(statement, ast.Assign) and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)):
                raise _NoCForm
            name = statement.targets[0].id
            if name in bound or name in vectors or not name.isascii():
                raise _NoCForm
            vector = matvec(statement.value)
            if vector is not None:
                if name in local:
                    raise _NoCForm
                vectors[name] = vector
                continue
            value, kind = emit(statement.value)
            c_name = local[name][0] if name in local else f"L_{name}"
            body.append(f"{c_name} = {value};")
            local[name] = (c_name, kind)
        trees = [ast.parse(output, mode="eval").body for output in outputs]
        size += sum(1 for tree in trees for _ in ast.walk(tree))
        results = [emit(tree)[0] for tree in trees]
    except (_NoCForm, SyntaxError, ValueError, OverflowError):
        return None
    parts = range(dim)
    stages, update = step_lines(
        parts, lambda out: [*body, *(f"{out}{i} = {r};" for i, r in enumerate(results))], ";")
    declare = [f"{v}{p}" for v in ("s", "x", "ka", "kb", "kc", "kd") for p in parts]
    declare += [c_name for c_name, _ in local.values() if c_name.startswith("L_")]
    declare += temps + arrays
    source = _C_RK4.format(
        declare=", ".join(declare),
        load="\n".join(f"    states[{p}] = s{p} = z[{p}];" for p in parts),
        stages="\n".join(" " * 8 + line for line in stages),
        update="\n".join(" " * 8 + line for line in update),
        finite=" && ".join(f"isfinite(s{p})" for p in parts),
        record="\n".join(f"            states[rows * stride + {p}] = s{p};" for p in parts),
        dim=dim)
    return source, tuple(params), bool(vectors), size


def rk4(rate, block, n_steps: int, h: float, record_every: int, states):
    """The C form of rate's loop on an (m, rate.dim) block of rows, as
    stepper.python_rk4 runs it: it fills the C-contiguous (n_records, m,
    dim) states and returns the step the block ended at; None, with states
    untouched, when rate has no C form or no object is at hand. The object
    is loaded from this process or the cache or, from an estimated
    Python-loop cost of NATIVE_MIN_COST on (row-steps x the Rate's size),
    built now. A block of SPLIT_MIN_ROW_STEPS row-steps or more runs as
    threads() row slices. A block or states of another shape, dtype or
    layout raises ValueError."""
    z = np.ascontiguousarray(block, dtype=float)
    m = len(z)
    if (z.shape != (m, rate.dim) or states.dtype != np.float64 or not states.flags.c_contiguous
            or states.shape != (1 + -(-n_steps // record_every), *z.shape)):  # what C writes
        raise ValueError(f"an (m, {rate.dim}) block runs into C-contiguous float states of "
                         f"shape (records, m, {rate.dim}); got {z.shape} and {states.shape}")
    form = c_source(rate)
    if form is None:
        return None
    try:
        p = np.array([float(rate.names[name]) for name in form.params])
    except OverflowError:  # an int beyond the float range, on which Python raises
        return None
    fn = load(form.source, build=m * n_steps * form.size >= NATIVE_MIN_COST)
    if fn is None:
        return None
    parts = min(threads(), m) if m * n_steps >= SPLIT_MIN_ROW_STEPS else 1
    bounds = [m * i // parts for i in range(parts + 1)]
    stop = ctypes.c_long(n_steps)

    def run(i):
        # slice i: it holds z and states, the buffers the C call reads and
        # writes, until that call returns
        start = bounds[i]
        fn(z[start:].ctypes.data, bounds[i + 1] - start, m, h, record_every, p.ctypes.data,
           *form.gemv, states[0, start:].ctypes.data, ctypes.byref(stop))

    concurrently(functools.partial(run, i) for i in range(parts))
    return stop.value


@functools.cache
def gemv():
    """(gemv32, gemv64): the address of numpy's own cblas dgemv, as an int
    in the slot of its integer width and None in the other; None when no
    symbol of GEMV_SYMBOLS is found or the first one found fails the probe
    (_gemv_matches).

    The symbol is looked up through numpy's extension module, which
    searches that module and the libraries it loaded, so it is the kernel
    numpy's matmul calls and not another copy of the BLAS."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for symbol, bits in GEMV_SYMBOLS:
        try:
            fn = getattr(lib, symbol)
        except AttributeError:
            continue
        blasint = ctypes.c_int64 if bits == 64 else ctypes.c_int32
        fn.argtypes = (ctypes.c_int, ctypes.c_int, blasint, blasint, ctypes.c_double,
                       ctypes.c_void_p, blasint, ctypes.c_void_p, blasint, ctypes.c_double,
                       ctypes.c_void_p, blasint)
        fn.restype = None
        if not _gemv_matches(fn):
            return None
        address = ctypes.cast(fn, ctypes.c_void_p).value
        return (None, address) if bits == 64 else (address, None)
    return None


def _gemv_matches(fn) -> bool:
    """Whether fn, called with numpy's arguments, gives the bytes of
    np.matmul(J, y) for fixed J and y of each order in GEMV_ORDERS: entries
    of one scale and spread over 600 decades, and entries among +-0, +-inf,
    NaN, subnormals and the float extremes, at two alignments, into an out
    buffer holding garbage first."""
    rng = random.Random(20231)
    special = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
               2.2250738585072014e-308, -1e-300, 1.7976931348623157e308, -1.0, 3.0)
    garbage = (math.nan, -math.inf, -0.0, 1e300)
    for n in GEMV_ORDERS:
        for case in range(4):
            values = [rng.uniform(-1.0, 1.0) for _ in range(n * n + n)]
            if case == 1:
                values = [v * 10.0 ** rng.randint(-300, 300) for v in values]
            elif case >= 2:
                values = [rng.choice(special) if rng.random() < 0.5 * (case - 1) else v
                          for v in values]
            offset = case % 2  # J and y shifted by one double in the buffer
            buffer = np.empty(offset + len(values) + n)
            buffer[offset:offset + len(values)] = values
            J = buffer[offset:offset + n * n].reshape(n, n)
            y = buffer[offset + n * n:offset + len(values)]
            out = buffer[-n:]
            out[:] = garbage[case]
            with np.errstate(all="ignore"):
                want = np.matmul(J, y)
            fn(102, 112, n, n, 1.0, J.ctypes.data, n, y.ctypes.data, 1, 0.0, out.ctypes.data, 1)
            if out.tobytes() != want.tobytes():
                return False
    return True


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
