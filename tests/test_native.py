"""The C form of the RK4 loop against the Python loop it stands in for."""

import ctypes
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from test_expressions import assert_rows_run_as_integrate
from test_sim import (compiler, example25_closed_loop, native_cache, native_loaded, needs_cc,
                      trace_bytes)

from kcontract import cli, models, native, sim, stepper
from kcontract.expressions import compile_model, parse_expression

ROOT = Path(__file__).resolve().parents[1]


def scalar_model(text):
    """The compiled f of the one-dimensional field x1' = text."""
    return compile_model(1, [parse_expression(text, 1)], [])[0]


def run_block(runner, rate, block, n_steps, every, h=1e-3):
    """(stop, records) of a runner, native.rk4 or stepper.python_rk4, on
    block: the step it returns and the records up to that step, of states
    that start as NaN."""
    states = np.full((len(stepper.record_times(n_steps, h, every)), *block.shape), np.nan)
    stop = runner(rate, block, n_steps, h, every, states)
    return stop, states[:1 + -(-stop // every)]


def reached(*args):
    raise AssertionError("a runner was reached")


def python_trace(f, x0, t_end, h=1e-3, record_every=1):
    """sim.integrate of f on the Python loop: the compiler hidden."""
    with pytest.MonkeyPatch.context() as m:
        m.setenv("CC", "false")
        return sim.integrate(f, x0, t_end, h, record_every)


@needs_cc
@pytest.mark.parametrize("text, x0, steps", [
    ("1/(1/x1)", 0.0, 1),            # ZeroDivisionError
    ("1/(x1^3)", 1e103, 1),          # OverflowError of float ** int
    ("sin(x1*1e308*10)^0", 1.0, 1),  # math domain error, though inf ** 0 is 1
    ("1/(x1*1e308*10)", 1.0, 101),   # 1/inf is 0.0: both loops run on
])
def test_float_failures_truncate_as_in_python(tmp_path, text, x0, steps):
    f = scalar_model(text)
    with native_cache(tmp_path):
        got = sim.integrate(f, [x0], 0.1, 1e-3)
        assert native_loaded(f)
    assert trace_bytes(got) == trace_bytes(python_trace(f, [x0], 0.1))
    assert len(got) == steps and got.truncated == (steps == 1)
    # a truncated run is trimmed to a copy: the one row of it is all its memory
    assert got.states.base is None


@needs_cc
@pytest.mark.parametrize("name", ["rossler", "rossler_mod", "synchronverter", "example25",
                                  "example25_closed_loop"])
def test_builtins_and_their_k_n_compound_match_the_python_loop(tmp_path, name):
    bundle = example25_closed_loop() if name == "example25_closed_loop" else models.builtin(name)
    x0 = bundle.box.sample(np.random.default_rng(12), 1)[0]
    n = bundle.dim
    with native_cache(tmp_path):
        got = sim.integrate(bundle.model.f, x0, 5.0, 1e-3, record_every=7)
        compound = sim.integrate_compound(bundle.model, x0, np.eye(n), n, 2.0)
        assert native_loaded(bundle.model.f)
    assert trace_bytes(got) == trace_bytes(python_trace(bundle.model.f, x0, 5.0, 1e-3, 7))
    with pytest.MonkeyPatch.context() as m:
        m.setenv("CC", "false")
        assert trace_bytes(compound) == trace_bytes(
            sim.integrate_compound(bundle.model, x0, np.eye(n), n, 2.0))
    assert len(list((tmp_path / "kcontract").glob("*.so"))) == 2


@needs_cc
def test_block_runs_in_one_c_call(tmp_path):
    # every row of a block runs in one C call, with the bytes of the Python
    # twin's rows
    rate = models.builtin("rossler_mod").model.f
    X = np.array([[0.1, 0.2, 0.3], [-0.49835108, 0.89350589, -0.31067962], [0.3, 0.2, 0.1]])
    with native_cache(tmp_path):
        for every in (1, 7, 5000):
            got = run_block(native.rk4, rate, X, 5000, every)
            want = run_block(stepper.python_rk4, rate, X, 5000, every)
            assert got[0] == want[0] < 5000  # truncated
            assert got[1].tobytes() == want[1].tobytes() and got[1].shape[1:] == (3, 3)


@needs_cc
def test_a_state_of_another_shape_reaches_neither_runner(tmp_path):
    # the C loop reads dim floats a row and writes rows * dim a record: a
    # state of any other shape must be refused before it, as before its twin
    f = models.builtin("rossler").model.f
    with native_cache(tmp_path):
        sim.integrate(f, np.zeros(3), 0.01)  # built now
        assert native_loaded(f)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(native, "rk4", reached)
            m.setattr(stepper, "python_rk4", reached)
            for shape in ((3, 2), (3, 5), (3, 3)):
                with pytest.raises(ValueError):
                    sim.integrate(f, np.zeros(shape), 20.0)
            for shape in ((), (2,), (4,), (3, 2), (3, 5), (0, 2), (1, 3, 3)):
                with pytest.raises(ValueError, match="here 3 and 3; got shape"):
                    stepper.run(f, np.zeros(shape), 10, 1e-3, 1)


def test_native_rk4_checks_the_buffers_it_would_hand_the_c_loop():
    f = models.builtin("rossler").model.f
    for block, states in ((np.zeros((2, 2)), np.zeros((11, 2, 2))),
                          (np.zeros(3), np.zeros((11, 3))),
                          (np.zeros((2, 3)), np.zeros((10, 2, 3))),
                          (np.zeros((2, 3)), np.zeros((11, 2, 3), dtype=np.float32)),
                          (np.zeros((2, 3)), np.zeros((11, 3, 2)).transpose(0, 2, 1))):
        with pytest.raises(ValueError, match="C-contiguous float"):
            native.rk4(f, block, 10, 1e-3, 1, states)


# rossler_mod rows that overflow, a py_pow failure (read through errno, which
# is thread-local), by the step at which they do: the second is the first
# scaled by 1.1
OVERFLOWS = {2820: np.array([-0.49835108, 0.89350589, -0.31067962])}
OVERFLOWS[2532] = OVERFLOWS[2820] * 1.1


@pytest.mark.parametrize("cc", ["cc", "false"])
def test_run_owns_the_records_of_either_runner(tmp_path, cc):
    # stepper.run computes the record times, allocates the states and trims
    # a truncated block to a copy: an empty, a full and a truncated block
    # each get a prefix of record_times, whichever runner fills the states
    rate = models.builtin("rossler_mod").model.f
    X = np.array([[0.1, 0.2, 0.3], OVERFLOWS[2820]])
    times = stepper.record_times(3000, 1e-3, 7)
    assert times.tolist() == [i * 1e-3 for i in (*range(0, 3000, 7), 3000)]
    with compiler(cc, tmp_path), pytest.MonkeyPatch.context() as m:
        if cc == "cc":
            m.setattr(stepper, "python_rk4", reached)  # every block runs as C
        full = stepper.run(rate, X[:1], 3000, 1e-3, 7)
        empty = stepper.run(rate, X[:0], 3000, 1e-3, 7)
        cut = stepper.run(rate, X, 3000, 1e-3, 7)
    for got, rows in ((full, 1), (empty, 0)):
        assert got[0].tobytes() == times.tobytes() and not got[2]
        assert got[1].shape == (len(times), rows, 3)
    count = 2819 // 7 + 1  # the records up to the last one before step 2820
    assert cut[0].tobytes() == times[:count].tobytes() and cut[2]
    assert cut[1].shape == (count, 2, 3) and cut[1].base is None
    assert cut[1][:, 0].tobytes() == full[1][:count, 0].tobytes()


class RecordedThread:
    """A stand-in for threading.Thread that records each thread planned and
    runs its target in the calling thread on start, so no thread starts."""

    planned = []

    def __init__(self, target, args=()):
        self.target, self.args = target, args
        RecordedThread.planned.append(self)

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


def batch_bytes(f, X, t_end, everies):
    out = []
    for every in everies:
        times, traj = sim.integrate_batch(f, X, t_end, 1e-3, every)
        out.append((times.tobytes(), traj.tobytes(), traj.shape))
    return out


@needs_cc
@pytest.mark.parametrize("name", ["rossler", "rossler_mod", "synchronverter", "example25",
                                  "example25_closed_loop"])
def test_split_block_gives_the_bytes_of_one_call_and_of_the_python_twin(tmp_path, name):
    # with 3 usable cores and the split from the first row-step on, 5 rows
    # run as slices of 1, 2 and 2 rows, two of them on worker threads
    bundle = example25_closed_loop() if name == "example25_closed_loop" else models.builtin(name)
    f, X, everies = bundle.model.f, bundle.box.sample(np.random.default_rng(7), 5), (1, 7, 2000)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    runs = {}
    for label, cc, split in (("one call", "cc", 10**12), ("split", "cc", 1),
                             ("python twin", "false", 1)):
        with compiler(cc, tmp_path / cc), pytest.MonkeyPatch.context() as m:
            m.setattr(native, "SPLIT_MIN_ROW_STEPS", split)
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
            m.setattr(threading, "Thread", Counted)
            runs[label] = batch_bytes(f, X, 2.0, everies)
        assert len(started) == 2 * len(everies) * (label == "split")
        started.clear()
    assert runs["split"] == runs["one call"] == runs["python twin"]


@pytest.mark.parametrize("cc", ["cc", "false"])
@pytest.mark.parametrize("overflow", [{0: 2820}, {3: 2820}, {0: 2820, 3: 2532},
                                      {0: 2532, 3: 2820}],
                         ids=["first slice", "last slice", "both, later first",
                              "both, earlier first"])
def test_overflow_in_any_slice_ends_the_batch_where_one_call_ends_it(tmp_path, cc, overflow):
    # 4 rows on 2 cores: slices of rows 0-1 and 2-3
    bundle = models.builtin("rossler_mod")
    f, X = bundle.model.f, bundle.box.sample(np.random.default_rng(2), 4)  # none overflows
    for j, step in overflow.items():
        X[j] = OVERFLOWS[step]
    everies = (1, 7, 3000)
    with compiler(cc, tmp_path) as cache, pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        m.setattr(native, "SPLIT_MIN_ROW_STEPS", 10**12)
        one_call = batch_bytes(f, X, 3.0, everies)
        m.setattr(native, "SPLIT_MIN_ROW_STEPS", 1)
        assert batch_bytes(f, X, 3.0, everies) == one_call
        for every in everies:
            # the batch ends at the fewest records of any row's own run
            times, runs = assert_rows_run_as_integrate(f, X, 3.0, 1e-3, every)
            assert times[-1] < 3.0
            if every == 1:
                assert [len(tr) for tr in runs] == [overflow.get(j, 3001) for j in range(4)]
    assert len(list(cache.glob("*.so"))) == (cc == "cc")


@needs_cc
def test_rows_run_to_the_shared_stop_step_and_a_truncation_lowers_it(tmp_path):
    # kcontract_rk4 called directly: each row runs to the step *stop holds
    # when it starts, and rossler_mod's row that overflows at step 2820
    # lowers it to its last record's step, so the rows after it, of this
    # slice or of another, stop there as well
    rate = models.builtin("rossler_mod").model.f
    form = native.c_source(rate)
    with native_cache(tmp_path):
        fn = native.load(form.source, build=True)
    p = np.array([float(rate.names[name]) for name in form.params])
    X = np.array([OVERFLOWS[2820], [0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
    for first, last in ((3000, 2819), (100, 100)):
        stop = ctypes.c_long(first)
        states = np.full((3001, 3, 3), np.nan)
        fn(X.ctypes.data, 3, 3, 1e-3, 1, p.ctypes.data, None, None, states.ctypes.data,
           ctypes.byref(stop))
        assert stop.value == last
        assert not np.isnan(states[:last + 1, 1:]).any() and np.isnan(states[last + 1:, 1:]).all()


@needs_cc
def test_more_slices_than_cores_keep_the_bytes(tmp_path):
    # 8 slices (7 worker threads) over 16 rows, two of which overflow in
    # different slices, with thread switches forced often: each run gives
    # the bytes of one call
    bundle = models.builtin("rossler_mod")
    rate, X = bundle.model.f, bundle.box.sample(np.random.default_rng(2), 16)
    X[5], X[12] = OVERFLOWS[2820], OVERFLOWS[2532]
    interval, threads = sys.getswitchinterval(), threading.active_count()
    with native_cache(tmp_path), pytest.MonkeyPatch.context() as m:
        m.setattr(native, "SPLIT_MIN_ROW_STEPS", 10**12)
        want = run_block(native.rk4, rate, X, 3000, 1)
        m.setattr(native, "SPLIT_MIN_ROW_STEPS", 1)
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                got = run_block(native.rk4, rate, X, 3000, 1)
                assert got[0] == want[0] == 2531 and len(got[1]) == 2532
                assert got[1].tobytes() == want[1].tobytes()
        finally:
            sys.setswitchinterval(interval)
    assert threading.active_count() == threads  # every worker was joined


@needs_cc
def test_thread_count_is_capped_and_planned_only_for_large_blocks(tmp_path):
    # no real thread is started: RecordedThread runs each slice in this thread
    rate = models.builtin("synchronverter").model.f
    X = models.builtin("synchronverter").box.sample(np.random.default_rng(4), 64)
    with native_cache(tmp_path), pytest.MonkeyPatch.context() as m:
        want = run_block(native.rk4, rate, X, 100, 7)
        m.setattr(threading, "Thread", RecordedThread)
        m.setattr(native, "SPLIT_MIN_ROW_STEPS", 64 * 100)
        for cores, rows, steps, planned in ((64, 64, 100, 7), (64, 3, 100 * 64 // 3 + 1, 2),
                                            (64, 64, 99, 0), (1, 64, 100, 0), (2, 64, 100, 1)):
            RecordedThread.planned.clear()
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            got = run_block(native.rk4, rate, X[:rows], steps, 7)
            assert len(RecordedThread.planned) == planned and got[0] == steps
            if steps == 100:
                assert got[1].tobytes() == want[1][:, :rows].tobytes()
        # without CPU affinity, the count is os.cpu_count(), or one thread
        m.delattr(os, "sched_getaffinity")
        for count, planned in ((64, 7), (None, 0)):
            RecordedThread.planned.clear()
            m.setattr(os, "cpu_count", lambda: count)
            run_block(native.rk4, rate, X, 100, 7)
            assert len(RecordedThread.planned) == planned


# (model, k) of every built-in compound rate with N = C(n, k) > 1, whose
# J^[k] y is numpy's dgemv
COMPOUNDS = [(name, k) for name, n in (("rossler", 3), ("rossler_mod", 3), ("synchronverter", 4),
                                       ("example25", 3), ("example25_closed_loop", 3))
             for k in range(1, n)]


def builtin(name):
    return example25_closed_loop() if name == "example25_closed_loop" else models.builtin(name)


@pytest.fixture(scope="module")
def compound_cache(tmp_path_factory):
    """One object cache for the compound tests, so each rate is built once."""
    return tmp_path_factory.mktemp("compound")


@needs_cc
@pytest.mark.parametrize("name, k", COMPOUNDS)
def test_compound_rates_run_as_c_with_the_bytes_of_the_python_twin(compound_cache, name, k):
    # two rows of (x, y); on rossler_mod the first overflows at step 2820,
    # which ends the block there
    bundle = builtin(name)
    n, rate = bundle.dim, stepper.compound_rate(bundle.model, k)
    assert rate.dim - n > 1 and native.c_source(rate).gemv != (None, None)
    X = bundle.box.sample(np.random.default_rng(9), 2)
    steps = 3000 if name == "rossler_mod" else 500
    if name == "rossler_mod":
        X[0] = OVERFLOWS[2820]
    block = np.hstack([X, np.tile(np.linspace(1.0, -0.5, rate.dim - n), (2, 1))])
    V0 = np.eye(n)[:, :k]
    with native_cache(compound_cache):
        for every in (1, 7):
            got = run_block(native.rk4, rate, block, steps, every)
            want = run_block(stepper.python_rk4, rate, block, steps, every)
            assert got[0] == want[0] and (got[0] < steps) == (name == "rossler_mod")
            assert got[1].tobytes() == want[1].tobytes()
        compound = sim.integrate_compound(bundle.model, X[1], V0, k, 0.5, 1e-3, 3)
        assert native_loaded(rate)
    with pytest.MonkeyPatch.context() as m:
        m.setenv("CC", "false")
        assert trace_bytes(compound) == trace_bytes(
            sim.integrate_compound(bundle.model, X[1], V0, k, 0.5, 1e-3, 3))


@needs_cc
def test_split_compound_block_gives_the_bytes_of_the_python_twin(compound_cache):
    # 5 rows on 3 cores run as slices of 1, 2 and 2 rows, each slice calling
    # numpy's dgemv from its own thread; row 3 overflows at step 2820
    bundle = models.builtin("rossler_mod")
    rate = stepper.compound_rate(bundle.model, 1)
    X = bundle.box.sample(np.random.default_rng(5), 5)
    X[3] = OVERFLOWS[2820]
    block = np.hstack([X, np.tile([1.0, 0.5, -0.25], (5, 1))])
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    with native_cache(compound_cache), pytest.MonkeyPatch.context() as m:
        m.setattr(native, "SPLIT_MIN_ROW_STEPS", 5 * 3000)
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        m.setattr(threading, "Thread", Counted)
        got = run_block(native.rk4, rate, block, 3000, 7)
    want = run_block(stepper.python_rk4, rate, block, 3000, 7)
    assert len(started) == 2 and got[0] == want[0] < 3000
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("fault", ["probe mismatch", "missing symbol"])
def test_without_a_probed_dgemv_a_compound_runs_the_python_loop(tmp_path, fault):
    model = models.builtin("rossler").model
    x0, V0 = np.array([0.2, 0.5, 0.0]), np.eye(3)[:, :2]
    with pytest.MonkeyPatch.context() as m:
        m.setenv("CC", "false")
        want = sim.integrate_compound(model, x0, V0, 2, 1.0)
    native.gemv.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as m:
            if fault == "probe mismatch":  # a dgemv one ulp off numpy's matmul
                m.setattr(np, "matmul", lambda a, b: np.nextafter(a @ b, math.inf))
            else:  # no symbol of the allow-list is exported
                m.setattr(native, "GEMV_SYMBOLS", (("kcontract_no_such_dgemv64_", 64),))
            assert native.gemv() is None
        assert native.c_source(stepper.compound_rate(model, 2)) is None
        assert native.c_source(stepper.compound_rate(model, 3)) is not None  # N = 1
        with native_cache(tmp_path) as cache:
            got = sim.integrate_compound(model, x0, V0, 2, 1.0)
    finally:
        native.gemv.cache_clear()
    assert trace_bytes(got) == trace_bytes(want)
    assert not list(cache.glob("*.so"))


def test_numpy_dgemv_is_used_wherever_numpy_exports_a_known_symbol():
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    exported = [bits for symbol, bits in native.GEMV_SYMBOLS if hasattr(lib, symbol)]
    found = native.gemv()
    assert (found is None) == (not exported)
    if found:
        assert (found[1] is not None) == (exported[0] == 64) == (found[0] is None)


@needs_cc
def test_cold_cache_simulate_compound_builds_its_object(tmp_path, capsys):
    path = tmp_path / "rossler.json"
    path.write_text(json.dumps({"kind": "builtin", "name": "rossler"}))
    cache = tmp_path / "cache" / "kcontract"
    with pytest.MonkeyPatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        m.setattr(native, "_LOADED", {})
        assert cli.main(["simulate", "--model", str(path), "--x0", "0.2,0.5,0", "--t", "2",
                         "--compound", "2"]) == 0
        assert len(list(cache.glob("*.so"))) == 1
        assert native_loaded(stepper.compound_rate(models.builtin("rossler").model, 2))
    capsys.readouterr()
    # every built-in compound with N > 1 is built from a run of 1000 steps on
    for name, k in COMPOUNDS:
        form = native.c_source(stepper.compound_rate(builtin(name).model, k))
        assert 1000 * form.size >= native.NATIVE_MIN_COST


def test_c_form_covers_the_language_and_the_compound_matmul():
    model = models.builtin("synchronverter").model
    assert native.c_source(model.f).gemv == (None, None)
    assert native.c_source(stepper.compound_rate(model, 4)).gemv == (None, None)  # k = n
    # Jy = array(...) @ ...: numpy's own dgemv, where gemv finds and probes it
    form = native.c_source(stepper.compound_rate(model, 2))
    assert (form is None) == (native.gemv() is None)
    assert form is None or form.gemv == native.gemv()
    # the line as compound_rate writes it, and no other: another order, an
    # int array, a shadowed array, or a vector read as a float
    line = "Jy = (array([x0, 0.0, 0.0, x1]).reshape(2, 2) @ array([x0, x1, x2])[1:]).tolist()"
    assert (native.c_source(stepper.Rate(3, (line,), ("Jy[0]", "Jy[1]", "x0"), {})) is None) == (
        native.gemv() is None)
    for lines, outputs, names in (((line.replace("(2, 2)", "(4, 1)"),), ("Jy[0]",), {}),
                                  ((line.replace("0.0", "0"),), ("Jy[0]",), {}),
                                  ((line.replace("[1:]", "[:2]"),), ("Jy[0]",), {}),
                                  ((line,), ("Jy[2]",), {}),
                                  ((line,), ("Jy",), {}),
                                  ((line,), ("Jy[0] + 1.0",), {"array": 1.0}),
                                  ((line, "Jy = x0"), ("Jy",), {})):
        assert native.c_source(stepper.Rate(3, lines, outputs, names)) is None
    # Python's exact int arithmetic and its complex powers have no C form
    for lines, outputs, names in (((), ("c0 * c1",), {"c0": 2, "c1": 3}),
                                  ((), ("x0 ** c0",), {"c0": 0.5}),
                                  ((), ("x0 * c0",), {"c0": np.float64(2.0)}),
                                  (("t = x0",), ("t + y",), {})):
        assert native.c_source(stepper.Rate(1, lines, outputs, names)) is None
    # constants are read at call time: one source for any parameter values
    a = native.c_source(scalar_model("2.5*x1 - x1^3"))
    b = native.c_source(scalar_model("1.5*x1 - x1^2"))
    assert a == b and a[1] == ("c0", "c1")


@needs_cc
@pytest.mark.parametrize("hide", ["CC", "PATH"])
def test_hidden_compiler_runs_the_python_loop_with_the_same_bytes(tmp_path, hide):
    f = models.builtin("rossler_mod").model.f
    x0 = np.array([0.1, 0.2, 0.3])
    with native_cache(tmp_path):
        got = sim.integrate(f, x0, 2.0)
        with pytest.MonkeyPatch.context() as m:
            if hide == "CC":
                m.setenv("CC", "false")
            else:
                m.delenv("CC", raising=False)
                m.setenv("PATH", str(tmp_path / "empty"))
            assert native.compiler() is None
            assert not native_loaded(f)
            want = sim.integrate(f, x0, 2.0)
    assert trace_bytes(got) == trace_bytes(want)


@needs_cc
def test_corrupt_cached_object_is_rebuilt_or_passed_over(tmp_path):
    # the truncated copy goes into a second cache: rewriting an object this
    # process has loaded would pull its mapped pages away
    f = models.builtin("rossler").model.f
    x0 = np.array([0.1, 0.2, 0.3])
    with native_cache(tmp_path / "built") as built:
        want = sim.integrate(f, x0, 1.0)
    [obj] = built.glob("*.so")
    with native_cache(tmp_path / "corrupt") as cache, pytest.MonkeyPatch.context() as m:
        cache.mkdir(mode=0o700, parents=True)
        (cache / obj.name).write_bytes(obj.read_bytes()[:4096])
        m.setattr(native, "NATIVE_MIN_COST", 10**12)
        assert trace_bytes(sim.integrate(f, x0, 1.0)) == trace_bytes(want)
        assert not native_loaded(f)  # not loaded, not built
        m.setattr(native, "NATIVE_MIN_COST", 1)
        assert trace_bytes(sim.integrate(f, x0, 1.0)) == trace_bytes(want)
        assert native_loaded(f)  # built again
    assert (cache / obj.name).read_bytes() == obj.read_bytes()


@needs_cc
def test_unsafe_cache_directory_is_not_used(tmp_path):
    cache = tmp_path / "kcontract"
    cache.mkdir()
    cache.chmod(0o777)
    f = models.builtin("rossler").model.f
    with native_cache(tmp_path):
        assert native.cache_dir() is None
        sim.integrate(f, np.array([0.1, 0.2, 0.3]), 0.01)
        assert native_loaded(f)  # a private build
    assert list(cache.iterdir()) == []
    cache.chmod(0o700)
    with native_cache(tmp_path):
        assert native.cache_dir() == str(cache)
    fresh = tmp_path / "fresh"
    with native_cache(fresh):
        assert stat.S_IMODE(os.stat(native.cache_dir()).st_mode) == 0o700


def test_import_starts_no_compiler_and_touches_no_cache(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), HOME=str(tmp_path),
               PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, kcontract.cli; "
            "print([m for m in ('subprocess', 'kcontract.native') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
    assert list(tmp_path.iterdir()) == []
