import ast
import contextlib
import ctypes
import dataclasses
import functools
import math
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from test_expressions import assert_rows_run_as_integrate, node_trees, ref_eval_batch

from kcontract import compound as cp
from kcontract import models, native, reproduce, sim, stepper
from kcontract.expressions import compile_model, parse_expression
from kcontract.nl_verify import Box, NonlinearModel


def integrate_numpy_oracle(field, x0, t_end, h=1e-3, record_every=1):
    """Fixed-step RK4 on numpy arrays, the reference for sim.integrate."""
    x = np.asarray(x0, dtype=float).copy()
    n_steps = int(round(t_end / h))
    times, states, truncated = [0.0], [x.copy()], False
    f = lambda y: np.asarray(field(y), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                truncated = True
                break
            if i % record_every == 0 or i == n_steps:
                times.append(i * h)
                states.append(x.copy())
    return sim.Trace(np.asarray(times), np.asarray(states), truncated=truncated)


needs_cc = pytest.mark.skipif(native.compiler() is None,
                              reason="no C compiler: neither $CC nor cc on PATH runs")


@contextlib.contextmanager
def native_cache(path):
    """Every run of a Rate with a C form goes native, built into (and loaded
    only from) a cache under path."""
    with pytest.MonkeyPatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(path))
        m.setattr(native, "NATIVE_MIN_COST", 1)
        m.setattr(native, "_LOADED", {})
        yield path / "kcontract"


def native_loaded(f):
    """Whether the C loop of f's Rate is at hand, loaded in this process or
    cached, so that stepper.run runs it for f without building."""
    return native.load(native.c_source(f)[0], build=False) is not None


def trace_bytes(tr):
    norms = b"" if tr.compound_norms is None else tr.compound_norms.tobytes()
    return tr.times.tobytes(), tr.states.tobytes(), norms, tr.truncated


def example25_closed_loop():
    K = reproduce.load_data("example25_design.json")["K_expected"]
    return models.closed_loop(models.builtin("example25"), np.reshape(K, (1, -1)))


@pytest.mark.parametrize("name", ["rossler", "rossler_mod", "synchronverter", "example25",
                                  "example25_closed_loop"])
def test_integrate_matches_numpy_oracle_bytes(name):
    bundle = example25_closed_loop() if name == "example25_closed_loop" else models.builtin(name)
    x0 = bundle.box.sample(np.random.default_rng(12), 1)[0]
    got = sim.integrate(bundle.model.f, x0, 2.0, 1e-3, record_every=7)
    want = integrate_numpy_oracle(bundle.model.f, x0, 2.0, 1e-3, record_every=7)
    assert trace_bytes(got) == trace_bytes(want)
    for k in (2, 3):
        V0 = np.eye(bundle.dim)[:, :k]
        got = sim.integrate_compound(bundle.model, x0, V0, k, 0.5, 1e-3)
        want = oracle_compound(bundle.model, x0, V0, k, 0.5, 1e-3)
        assert trace_bytes(got) == trace_bytes(want)


@pytest.mark.parametrize("field, x0, h, blows_up", [
    (lambda x: x ** 3, [3.0], 1e-2, True),
    (lambda x: np.array([x[1], -np.sin(x[0])]), [0.3, 0.0], 1e-2, False),
    (lambda x: [x[0] * x[1], -x[0] - 1e-3 * x[1]], [1.0, 2.0], 5e-3, False),  # a list field
])
def test_lambda_fields_match_numpy_oracle_bytes(field, x0, h, blows_up):
    got = sim.integrate(field, np.array(x0), 10.0, h, record_every=3)
    want = integrate_numpy_oracle(field, np.array(x0), 10.0, h, record_every=3)
    assert trace_bytes(got) == trace_bytes(want)
    assert got.truncated == want.truncated == blows_up


def raising_as_nan(field):
    """field, with a raised arithmetic or math-domain error read as a NaN rate."""
    def safe(y):
        try:
            return np.asarray(field(y), dtype=float)
        except (ArithmeticError, ValueError):
            return np.full(len(y), np.nan)
    return safe


def oracle_compound(model, x0, V0, k, t_end, h=1e-3, record_every=1):
    """sim.integrate_compound of the numpy field (no emitted compound rate),
    with the numpy oracle in place of sim.integrate."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(stepper, "compound_rate", lambda model, k: None)
        m.setattr(sim, "integrate", lambda field, *args: integrate_numpy_oracle(
            raising_as_nan(field), *args))
        return sim.integrate_compound(model, x0, V0, k, t_end, h, record_every)


ENTRIES = st.floats(-10, 10) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@st.composite
def compiled_models(draw):
    """A NonlinearModel of random compiled trees and random envelope matrices."""
    n = draw(st.integers(1, 3))
    f_nodes = [draw(node_trees(n)) for _ in range(n)]
    theta_nodes = draw(st.lists(node_trees(n), max_size=2))
    mats = [np.reshape(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n)), (n, n))
            for _ in range(len(theta_nodes) + 1)]
    f, theta = compile_model(n, f_nodes, theta_nodes)
    return NonlinearModel(dim=n, f=f, A0=mats[0], terms=mats[1:], theta=theta, bounds=None)


def check_loops_against_numpy_oracle(model, data):
    n = model.dim
    x0 = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)))
    h = 1e-2
    t_end = h * data.draw(st.integers(1, 30))
    every = data.draw(st.integers(1, 4))
    got = sim.integrate(model.f, x0, t_end, h, every)
    want = integrate_numpy_oracle(raising_as_nan(model.f), x0, t_end, h, every)
    assert trace_bytes(got) == trace_bytes(want)
    for k in range(1, n + 1):
        V0 = np.eye(n)[:, n - k:]
        got = sim.integrate_compound(model, x0, V0, k, t_end, h, every)
        want = oracle_compound(model, x0, V0, k, t_end, h, every)
        assert trace_bytes(got) == trace_bytes(want)


@given(compiled_models(), st.data())
@settings(max_examples=120, deadline=None)
def test_emitted_loops_match_numpy_oracle_bytes(model, data):
    check_loops_against_numpy_oracle(model, data)


@needs_cc
@given(compiled_models(), st.data())
@settings(max_examples=12, deadline=None)  # about two compiler runs (0.1 s each) per example
def test_native_loops_match_numpy_oracle_bytes(tmp_path_factory, model, data):
    # compound rates with N > 1 run the Python loop here, as without numpy's
    # dgemv: built too, they would double the compiler runs of this test.
    # test_native.py runs their C form on every built-in.
    with native_cache(tmp_path_factory.mktemp("cache")), pytest.MonkeyPatch.context() as m:
        m.setattr(native, "gemv", lambda: None)
        native.load(native.c_source(model.f)[0], build=True)
        assert native_loaded(model.f)
        check_loops_against_numpy_oracle(model, data)


def test_compound_diagonal_sums_in_numpy_order():
    # ((0 + 1) + 1e16) - 1e16 = 0 but ((0 - 1e16) + 1e16) + 1 = 1: each diagonal
    # entry of J^[k] must sum the trace of J over its index set in numpy's order
    A0 = np.diag([1.0, 1e16, -1e16, 0.5])
    f, theta = compile_model(4, [parse_expression(f"{float(A0[i, i])!r}*x{i + 1}", 4)
                                 for i in range(4)], [])
    model = NonlinearModel(dim=4, f=f, A0=A0, terms=[], theta=theta, bounds=None)
    x0 = np.array([0.5, 0.0, 0.0, 0.125])
    for k in (3, 4):
        V0 = np.eye(4)[:, :k]
        got = sim.integrate_compound(model, x0, V0, k, 1.0, 0.1)
        assert not got.truncated
        assert trace_bytes(got) == trace_bytes(oracle_compound(model, x0, V0, k, 1.0, 0.1))


# (theta = x1, y): trace(J) * y underflows to -0, overflows, is 0 * inf or nan
EDGE_STATES = [(-1e-200, 1e-200), (1e-200, -1e-200), (5e-324, -0.5), (-1.0, 0.0), (2.0, -0.0),
               (1e200, 1e200), (-1e200, 1e200), (0.0, math.inf), (-0.0, -math.inf),
               (math.inf, 0.0), (math.nan, 1.0), (1.0, math.nan), (0.75, -3.0)]


@pytest.mark.parametrize("n", [1, 3])
def test_single_compound_entry_gives_the_bytes_of_numpy_matmul(n):
    # for k = n, J^[n] is the 1 x 1 trace of J, here theta = x1, and the
    # emitted rate forms J^[n] y on floats as (trace * y) + 0.0
    f, theta = compile_model(n, [parse_expression(f"-x{i + 1}", n) for i in range(n)],
                             [parse_expression("x1", n)])
    A1 = np.zeros((n, n))
    A1[0, 0] = 1.0
    model = NonlinearModel(dim=n, f=f, A0=np.zeros((n, n)), terms=[A1], theta=theta,
                           bounds=None)
    rate = stepper.compound_rate(model, n)
    with np.errstate(all="ignore"):
        for x1, y in EDGE_STATES:
            z = np.array([x1, *np.linspace(0.5, -0.25, n - 1), y])
            want = np.concatenate([model.f(z[:n]),
                                   cp.additive_compound(model.jacobian(z[:n]), n) @ z[n:]])
            assert rate(z).tobytes() == want.tobytes(), (x1, y)
    for k in range(1, n + 1):
        names = {node.id for line in stepper.compound_rate(model, k).stage("k")
                 for node in ast.walk(ast.parse(line)) if isinstance(node, ast.Name)}
        assert ("array" in names) == (k < n)  # N > 1 keeps the numpy matmul


def counted(fn, calls):
    """fn behind a call-counting wrapper marked as perfbench's tracer marks its own."""
    def traced(*args):
        calls.append(fn)
        return fn(*args)
    traced._traced = True
    traced.__wrapped__ = fn
    return traced


def test_compiled_model_runs_emitted_loops_through_wrappers():
    model = models.builtin("synchronverter").model
    calls = []
    model.f, model.theta, model.jacobian = (counted(fn, calls) for fn in
                                            (model.f, model.theta, model.jacobian))
    x0 = np.array([-10.0, 1.0, 310.0, 0.4])
    plain = sim.integrate(model.f, x0, 0.05)
    assert calls == []
    assert trace_bytes(plain) == trace_bytes(integrate_numpy_oracle(model.f, x0, 0.05))
    for k in (1, 2, 3, 4):
        counts = []
        for t_end in (0.05, 0.1):
            calls.clear()
            got = sim.integrate_compound(model, x0, np.eye(4)[:, :k], k, t_end)
            counts.append(len(calls))
            assert trace_bytes(got) == trace_bytes(
                oracle_compound(model, x0, np.eye(4)[:, :k], k, t_end))
        # f and jacobian (theta inside it) run once, to check the rate at x0
        assert counts == [3, 3]


def test_functools_wraps_wrapper_runs_as_written():
    # functools.wraps sets __wrapped__ and copies __dict__, yet the wrapper
    # computes another field: it must not be inlined as the model's f
    model = models.builtin("rossler").model

    @functools.wraps(model.f)
    def damped(x):
        return model.f(x) - x

    x0 = np.array([0.3, -0.2, 0.1])
    got = sim.integrate(damped, x0, 0.2)
    assert trace_bytes(got) == trace_bytes(integrate_numpy_oracle(damped, x0, 0.2))
    assert got.states.tobytes() != sim.integrate(model.f, x0, 0.2).states.tobytes()
    replaced = dataclasses.replace(model, f=damped)
    for k in (1, 2, 3):
        got = sim.integrate_compound(replaced, x0, np.eye(3)[:, :k], k, 0.2)
        assert trace_bytes(got) == trace_bytes(
            oracle_compound(replaced, x0, np.eye(3)[:, :k], k, 0.2))


def test_emitted_code_stays_small_for_large_dimensions():
    # a compound rate is emitted only for N = C(n, k) <= 10 and k <= 7, and a
    # field called per stage runs in a loop whose code does not grow with the state
    def chain(n):
        f, theta = compile_model(n, [parse_expression(f"-x{i + 1} + 0.5*x{(i + 1) % n + 1}^2", n)
                                     for i in range(n)], [])
        return NonlinearModel(dim=n, f=f, A0=-np.eye(n), terms=[], theta=theta, bounds=None)

    big = chain(24)
    assert all(stepper.compound_rate(big, k) is None for k in range(1, 25))
    model = chain(6)
    emitted = {k: stepper.compound_rate(model, k) for k in range(1, 7)}
    assert [k for k, rate in emitted.items() if rate is not None] == [1, 5, 6]
    assert max(len(rate._compiled.__code__.co_code)
               for rate in emitted.values() if rate) < 2048
    assert len(stepper.array_rk4(lambda x: -x).__code__.co_code) < 2048
    A = -np.eye(2000)
    got = sim.integrate(lambda x: A @ x, np.ones(2000), 0.003)
    assert trace_bytes(got) == trace_bytes(integrate_numpy_oracle(lambda x: A @ x, np.ones(2000),
                                                                  0.003))
    x0, V0 = np.linspace(0.1, 0.6, 6), np.eye(6)[:, :3]
    got = sim.integrate_compound(model, x0, V0, 3, 0.01)  # N = 20: the numpy field runs
    assert trace_bytes(got) == trace_bytes(oracle_compound(model, x0, V0, 3, 0.01))


def test_field_errors_other_than_float_failures_propagate():
    A = np.eye(2)
    with pytest.raises(ValueError, match="matmul"):
        sim.integrate(lambda x: A @ x, np.ones(3), 1.0)

    def bad_domain(x):
        raise ValueError("not a float failure")

    with pytest.raises(ValueError, match="not a float failure"):
        sim.integrate(bad_domain, np.ones(2), 1.0)
    # math's own domain error is a blow-up: the trace truncates at the first step
    got = sim.integrate(lambda x: np.array([np.sin(x[0]), math.sin(x[1] * 1e308 * 10)]),
                        np.ones(2), 1.0)
    assert got.truncated and len(got) == 1


def test_replaced_model_never_runs_a_loop_emitted_for_other_data():
    # a model whose f and A0, or A0 alone, are swapped after its own loops ran
    # must run loops emitted for the new data
    bundle = models.builtin("example25")
    model, B = bundle.model, bundle.B
    K = np.asarray(reproduce.load_data("example25_design.json")["K_expected"], float)
    K = K.reshape(1, -1)

    def closed_field(x):
        return model.f(x) - B.ravel() * float(K.ravel() @ x)

    x0, V0 = np.array([0.3, -0.2, 0.1]), np.eye(3)[:, :2]
    open_loop = sim.integrate_compound(model, x0, V0, 2, 0.5)
    for closed in (dataclasses.replace(model, f=closed_field, A0=model.A0 - B @ K),
                   dataclasses.replace(model, A0=model.A0 - B @ K)):
        got = sim.integrate_compound(closed, x0, V0, 2, 0.5)
        assert trace_bytes(got) == trace_bytes(oracle_compound(closed, x0, V0, 2, 0.5))
        assert got.compound_norms.tobytes() != open_loop.compound_norms.tobytes()
    got = sim.integrate(closed_field, x0, 0.5)
    assert trace_bytes(got) == trace_bytes(integrate_numpy_oracle(closed_field, x0, 0.5))


def test_blow_up_truncates_at_the_numpy_step():
    # x1^3 overflows a Python float near t = 2.82: the run truncates at the step
    # where RK4 on numpy floats, which overflow to inf, turns non-finite
    bundle = models.builtin("rossler_mod")
    f_nodes = [parse_expression(text, 3) for text in bundle.f_exprs]
    theta_node = parse_expression(bundle.theta_exprs[0], 3)
    numpy_f = lambda x: np.array([ref_eval_batch(node, x[None, :])[0] for node in f_nodes])
    numpy_model = dataclasses.replace(
        bundle.model, f=numpy_f, theta=lambda x: [ref_eval_batch(theta_node, x[None, :])[0]])
    x0 = np.array([-0.49835108, 0.89350589, -0.31067962])
    got = sim.integrate(bundle.model.f, x0, 5.0)
    want = integrate_numpy_oracle(numpy_f, x0, 5.0)
    assert got.truncated and want.truncated and len(got) == len(want) == 2820
    assert np.array_equal(got.times, want.times)
    assert np.allclose(got.states, want.states, rtol=1e-12, atol=0)
    got = sim.integrate_compound(bundle.model, x0, np.eye(3), 3, 5.0)
    want = oracle_compound(numpy_model, x0, np.eye(3), 3, 5.0)
    assert got.truncated and want.truncated and len(got) == len(want) == 2820


@pytest.mark.parametrize("shape", [(2,), (5, 2)])
def test_array_field_of_another_shape_raises_before_any_step(shape):
    # a value that would broadcast against the state ((2,) + (1,), (5, 2) +
    # (5, 1)) or that is a bare number is refused at the first stage
    calls = []

    def narrow(x):
        calls.append(x)
        return x[..., :1]

    x0 = np.ones(shape)
    run = sim.integrate if len(shape) == 1 else sim.integrate_batch
    for field in (narrow, lambda x: float(x.sum())):
        with pytest.raises(TypeError, match="shape"):
            run(field, x0, 1.0)
    assert len(calls) == 1


@contextlib.contextmanager
def compiler(cc, path):
    """A native cache under path with the compiler ("cc"), or none ("false")."""
    if cc == "cc" and native.compiler() is None:
        pytest.skip("no C compiler: neither $CC nor cc on PATH runs")
    with native_cache(path) as cache, pytest.MonkeyPatch.context() as m:
        if cc == "false":
            m.setenv("CC", "false")
        yield cache


@pytest.mark.parametrize("cc", ["cc", "false"])
@pytest.mark.parametrize("name", ["rossler", "rossler_mod", "synchronverter", "example25",
                                  "example25_closed_loop"])
def test_batch_rows_run_as_integrate_runs_them(tmp_path, name, cc):
    # rossler_mod's second row overflows at step 2820 (see
    # test_blow_up_truncates_at_the_numpy_step), and the batch ends no later
    bundle = example25_closed_loop() if name == "example25_closed_loop" else models.builtin(name)
    X = bundle.box.sample(np.random.default_rng(3), 3)
    if name == "rossler_mod":
        X[1] = [-0.49835108, 0.89350589, -0.31067962]
    with compiler(cc, tmp_path) as cache:
        for every in (1, 3, 3000):
            times, runs = assert_rows_run_as_integrate(bundle.model.f, X, 3.0, 1e-3, every)
            truncated = any(tr.truncated for tr in runs)
            assert (times[-1] < 3.0) == truncated == (name == "rossler_mod")
    assert len(list(cache.glob("*.so"))) == (cc == "cc")


@pytest.mark.parametrize("cc", ["cc", "false"])
@pytest.mark.parametrize("name", ["rossler", "rossler_mod", "synchronverter", "example25",
                                  "example25_closed_loop"])
def test_one_state_runs_as_a_one_row_block(tmp_path, name, cc):
    # integrate and integrate_batch take one run shape, a block of rows: a
    # state is the block's one row, also on rossler_mod's row that overflows
    # at step 2820, and an empty block gives the run's record times
    bundle = example25_closed_loop() if name == "example25_closed_loop" else models.builtin(name)
    f = bundle.model.f
    x0 = (np.array([-0.49835108, 0.89350589, -0.31067962]) if name == "rossler_mod"
          else bundle.box.sample(np.random.default_rng(5), 1)[0])
    with compiler(cc, tmp_path) as cache:
        for every in (7, 1):
            tr = sim.integrate(f, x0, 5.0, 1e-3, every)
            times, traj = sim.integrate_batch(f, x0[None], 5.0, 1e-3, every)
            assert times.tobytes() == tr.times.tobytes()
            assert traj[:, 0].tobytes() == tr.states.tobytes()
            assert (times[-1] < 5.0) == tr.truncated
        assert name != "rossler_mod" or tr.truncated and len(tr) == 2820
        times, traj = sim.integrate_batch(f, np.empty((0, bundle.dim)), 5.0, 1e-3, 7)
        want = [i * 1e-3 for i in (*range(0, 5000, 7), 5000)]
        assert times.tobytes() == np.array(want).tobytes()
        assert traj.shape == (len(times), 0, bundle.dim)
    objects = list(cache.glob("*.so"))
    assert len(objects) == (cc == "cc")
    for obj in objects:  # one entry point: the block of rows
        lib = ctypes.CDLL(str(obj))
        assert hasattr(lib, "kcontract_rk4") and not hasattr(lib, "kcontract_rk4_rows")


@pytest.mark.parametrize("cc", ["cc", "false"])
def test_compound_rate_that_differs_at_the_initial_state_is_not_run(tmp_path, cc):
    # integrate_compound runs the emitted rate only where its function gives
    # the numpy field's bytes at z0: with one output negated, the numpy field
    # runs, as in the oracle, and no C object is built for the rate
    model = models.builtin("rossler_mod").model
    emitted = stepper.compound_rate

    def negated(model, k):
        rate = emitted(model, k)
        return dataclasses.replace(rate, outputs=(f"(-{rate.outputs[0]})", *rate.outputs[1:]))

    x0 = np.array([0.1, 0.2, 0.3])
    with compiler(cc, tmp_path) as cache, pytest.MonkeyPatch.context() as m:
        m.setattr(stepper, "compound_rate", negated)
        for k in (1, 2, 3):
            V0 = np.eye(3)[:, :k]
            z0 = np.concatenate([x0, cp.multiplicative_compound(V0, k).ravel()])
            assert negated(model, k)(z0)[0] == -emitted(model, k)(z0)[0]
            got = sim.integrate_compound(model, x0, V0, k, 0.5)
            assert trace_bytes(got) == trace_bytes(oracle_compound(model, x0, V0, k, 0.5))
    assert list(cache.glob("*.so")) == []


def test_batch_row_blow_up_truncates_at_the_integrate_step(tmp_path):
    # x1' = x1^3 from x1 = 3 overflows at step 58 (h = 1e-3): a batch holding that row
    # ends at the step where sim.integrate of the row alone does, with the
    # row's states byte for byte, and a grid flowed through it is truncated
    bundle = models.model_from_dict({
        "kind": "nonlinear", "dim": 2, "f": ["x1^3", "-x2"],
        "box": {"lower": [2.9, -0.1], "upper": [3.1, 0.1]}})
    model, row = bundle.model, np.array([3.0, 0.1])
    for cc in ["false"] + ["cc"] * (native.compiler() is not None):
        with compiler(cc, tmp_path / cc):
            for every in (1, 2, 1000):
                times, runs = assert_rows_run_as_integrate(
                    model.f, np.array([[0.5, -0.1], row, [2.0, 0.0]]), 1.0, 1e-3, every)
                assert runs[1].truncated and len(times) == len(runs[1]) < len(runs[0])
                assert len(runs[1]) == 1 + 57 // every  # step 58 overflows
            grid = sim.ImmersionGrid.from_function(lambda r: row + 0.01 * r, 2, 4, 2)
            flowed = sim.flow_immersion(grid, model.f, 1.0)
            assert flowed.truncated and np.isnan(flowed.points).all()
            assert not sim.flow_immersion(grid, model.f, 0.01).truncated


def test_batch_input_is_checked_before_any_step():
    f = models.builtin("rossler_mod").model.f
    for field, X0 in ((never, np.ones(3)), (never, np.ones((1, 2, 3))), (f, np.ones(3)),
                      (f, np.ones((2, 2))), (f, np.ones((2, 4)))):
        with pytest.raises(ValueError, match="block of rows"):
            sim.integrate_batch(field, X0, 1.0, 0.1)
    # an empty block records every step of the run
    for field, n in ((f, 3), (lambda X: -X, 2)):
        times, traj = sim.integrate_batch(field, np.zeros((0, n)), 1.0, 0.1, 3)
        assert times.tolist() == [0.0, 3 * 0.1, 6 * 0.1, 9 * 0.1, 10 * 0.1]
        assert traj.shape == (5, 0, n)


@pytest.mark.parametrize("cc", ["cc", "false"])
def test_rate_field_refuses_a_state_of_another_width(tmp_path, cc):
    # a Rate runs states as wide as its dimension, which must also be its
    # number of outputs: rossler_mod's f is 3 -> 3 and its theta 3 -> 1. A
    # state of another width raises this ValueError before any step (no
    # object is built, though every Rate run would build one here), not an
    # error from inside the first stage
    model = models.builtin("rossler_mod").model
    with compiler(cc, tmp_path) as cache:
        for field, width, outputs in ((model.f, 2, 3), (model.f, 4, 3), (model.theta, 3, 1)):
            want = rf"here 3 and {outputs}; got shape \({{}}\)"
            with pytest.raises(ValueError, match=want.format(f"{width},")):
                sim.integrate(field, np.zeros(width), 1.0)
            with pytest.raises(ValueError, match=want.format(f"5, {width}")):
                sim.integrate_batch(field, np.zeros((5, width)), 1.0)
        assert not cache.exists() or list(cache.glob("*.so")) == []


def test_scalar_linear_decay():
    tr = sim.integrate(lambda x: -x, np.array([1.0]), 1.0, 1e-3)
    assert abs(tr.states[-1, 0] - np.exp(-1.0)) <= 1e-8


def test_harmonic_energy_drift():
    field = lambda x: np.array([x[1], -x[0]])
    tr = sim.integrate(field, np.array([1.0, 0.0]), 10.0, 1e-3)
    energy = 0.5 * (tr.states[:, 0] ** 2 + tr.states[:, 1] ** 2)
    assert np.abs(energy - energy[0]).max() <= 1e-6


def test_blowup_truncates():
    tr = sim.integrate(lambda x: x ** 3, np.array([3.0]), 10.0, 1e-2)
    assert tr.truncated
    assert np.all(np.isfinite(tr.states))


def test_step_halving_order():
    # global error drops ~16x when the step is halved (4th order)
    field = lambda x: np.array([-x[0] + np.sin(x[0])])
    errs = []
    for h in (2e-2, 1e-2):
        tr = sim.integrate(field, np.array([1.5]), 2.0, h)
        ref = sim.integrate(field, np.array([1.5]), 2.0, 1e-4)
        errs.append(abs(tr.states[-1, 0] - ref.states[-1, 0]))
    assert errs[1] < errs[0] / 8


def test_batch_matches_single():
    field = lambda x: np.array([x[1], -np.sin(x[0])])
    fb = lambda X: np.stack([X[:, 1], -np.sin(X[:, 0])], axis=1)
    X0 = np.array([[0.3, 0.0], [1.0, -0.2]])
    _, traj = sim.integrate_batch(fb, X0, 2.0, 1e-3)
    for i in range(2):
        tr = sim.integrate(field, X0[i], 2.0, 1e-3)
        assert np.allclose(traj[-1, i], tr.states[-1], atol=1e-12)


def test_compound_trace_linear_oracle():
    # |X^(k)(t)| equals |exp(A^[k] t) X^(k)(0)| for linear dynamics
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) - np.eye(4)
    model = models.model_from_dict({
        "kind": "nonlinear", "dim": 4,
        "f": [" + ".join(f"{float(A[i, j])!r}*x{j + 1}" for j in range(4)) for i in range(4)],
        "box": {"lower": [-1] * 4, "upper": [1] * 4},
    }).model
    V0 = rng.standard_normal((4, 2))
    tr = sim.integrate_compound(model, np.zeros(4), V0, 2, 5.0, 1e-3, record_every=100)
    C = cp.additive_compound(A, 2)
    y0 = cp.multiplicative_compound(V0, 2).ravel()
    for t, norm in zip(tr.times, tr.compound_norms):
        expected = np.linalg.norm(expm(C * t) @ y0)
        assert norm == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_compound_refuses_a_v0_of_another_shape():
    # the k vectors as the rows of a (k, n) array, of full rank: read as an
    # (n, k) array it would run from another compound state
    model = models.builtin("rossler").model
    x0 = np.array([0.2, 0.5, 0.0])
    rows = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 2.0]])
    for V0, k in ((rows, 2), (rows.ravel(), 2), (np.ones(3), 1), (np.eye(3), 2)):
        with pytest.raises(ValueError, match="V0 has shape"):
            sim.integrate_compound(model, x0, V0, k, 0.1)
    tr = sim.integrate_compound(model, x0, rows.T, 2, 0.1)
    assert tr.compound_norms[0] == pytest.approx(math.sqrt(6.0))


def test_compound_k1_is_variational():
    bundle = models.builtin("rossler_mod")
    v0 = np.array([[1.0], [0.0], [0.0]])
    tr = sim.integrate_compound(bundle.model, np.array([0.2, 0.5, 0.0]), v0, 1, 2.0, 1e-3)
    # k = 1: the compound state is the displacement vector itself
    assert tr.compound_norms[0] == pytest.approx(1.0)
    assert tr.compound_norms[-1] > 0


def test_modified_rossler_exact_compound_decay():
    bundle = models.builtin("rossler_mod")
    tr = sim.integrate_compound(bundle.model, np.array([0.2, 0.5, 0.0]), np.eye(3),
                                3, 20.0, 1e-3)
    expected = tr.compound_norms[0] * np.exp(-0.5 * tr.times)
    rel = np.abs(tr.compound_norms / expected - 1.0).max()
    assert rel <= 1e-6


def test_fit_decay_synthetic():
    times = np.linspace(0.0, 10.0, 1001)
    norms = np.exp(-0.5 * times)
    tr = sim.Trace(times, np.zeros((len(times), 1)), compound_norms=norms)
    a, b, _ = sim.fit_decay(tr)
    assert a == pytest.approx(0.5, abs=1e-6)
    assert b == pytest.approx(1.0, rel=1e-6)


def test_fit_decay_stops_at_the_first_zero_norm():
    times = np.linspace(0.0, 10.0, 1001)
    norms = np.exp(-0.5 * times)
    cut = norms.copy()
    cut[600:] = 0.0  # an underflowed norm, then samples the fit must ignore
    cut[601::2] = 1.0
    fit = lambda n: sim.fit_decay(sim.Trace(times, np.zeros((len(times), 1)),
                                            compound_norms=n))
    whole = sim.Trace(times[:600], np.zeros((600, 1)), compound_norms=norms[:600])
    assert fit(cut) == sim.fit_decay(whole)
    # two positive samples still fit, exactly
    a, b, _ = fit(np.concatenate([norms[:2], np.zeros(999)]))
    assert a == pytest.approx(0.5) and b == pytest.approx(1.0)
    for positive in (0, 1):
        with pytest.raises(ValueError, match="must be positive"):
            fit(np.concatenate([norms[:positive], np.zeros(1001 - positive)]))


def test_fit_decay_no_decay_reports_nonpositive():
    tr = sim.integrate_compound(
        models.model_from_dict({
            "kind": "nonlinear", "dim": 2, "f": ["x1", "-3*x2"],
            "box": {"lower": [-1, -1], "upper": [1, 1]},
        }).model,
        np.array([0.1, 0.1]), np.array([[1.0], [0.0]]), 1, 5.0, 1e-3)
    a, _, _ = sim.fit_decay(tr)
    assert a <= 0


def test_volume_unit_square():
    g = sim.ImmersionGrid.from_function(lambda r: r.copy(), 2, 64, 2)
    assert sim.volume_of_immersion(g, np.eye(2)) == pytest.approx(1.0, abs=1e-3)


def test_volume_metric_scaling():
    g = sim.ImmersionGrid.from_function(lambda r: r.copy(), 1, 64, 1)
    assert sim.volume_of_immersion(g, 4.0 * np.eye(1)) == pytest.approx(2.0, abs=1e-9)


def test_volume_curved_quadrature_error():
    # quarter-turn arc of radius 1: length pi/2, midpoint rule O(res^-2)
    g = sim.ImmersionGrid.from_function(
        lambda r: np.hstack([np.cos(np.pi / 2 * r), np.sin(np.pi / 2 * r)]), 1, 64, 2)
    assert sim.volume_of_immersion(g, np.eye(2)) == pytest.approx(np.pi / 2, abs=1e-3)


def test_immersion_grid_calls_fn_once_on_the_nodes_in_order():
    # node (i, j) sits in row i * resolution + j; the square of
    # reproduce.square_volumes, written over the rows, gives each node the
    # bytes of the same expression evaluated at that node alone
    calls = []

    def square(r):
        calls.append(r.shape)
        return c + 0.01 * (r[:, :1] * Q[:, 0] + r[:, 1:] * Q[:, 1])

    c, Q = np.array([0.3, -1.7, 2.9]), np.linalg.qr(np.arange(6.0).reshape(3, 2) ** 1.5)[0]
    g = sim.ImmersionGrid.from_function(square, 2, 5, 3)
    assert calls == [(25, 2)] and g.points.shape == (5, 5, 3)
    axis = np.linspace(0.0, 1.0, 5)
    for i, j in np.ndindex(5, 5):
        node = c + 0.01 * (axis[i] * Q[:, 0] + axis[j] * Q[:, 1])
        assert g.points[i, j].tobytes() == node.tobytes()
    with pytest.raises(ValueError, match="shape"):
        sim.ImmersionGrid.from_function(lambda r: r.T, 2, 5, 2)


def test_volume_rejects_indefinite_metric():
    g = sim.ImmersionGrid.from_function(lambda r: r.copy(), 2, 8, 2)
    with pytest.raises(ValueError, match="positive definite"):
        sim.volume_of_immersion(g, np.diag([1.0, -1.0]))


class Evaluated(Exception):
    """Raised by a field or immersion that a rejected run must never call."""


def never(*args):
    raise Evaluated


def test_integrate_input_validation():
    with pytest.raises(ValueError):
        sim.integrate(lambda x: -x, np.array([1.0]), 1.0, h=0.0)
    with pytest.raises(ValueError):
        sim.integrate(lambda x: -x, np.array([1.0]), -1.0, h=0.1)
    # i % 0 would divide by zero inside the loop (undefined behaviour in C)
    for every in (0, -3, 2.5, True, "2"):
        with pytest.raises(ValueError, match="record_every"):
            sim.integrate(never, np.array([1.0]), 1.0, 0.1, record_every=every)
        with pytest.raises(ValueError, match="record_every"):
            sim.integrate_batch(never, np.ones((2, 1)), 1.0, 0.1, record_every=every)
    assert len(sim.integrate(lambda x: -x, np.array([1.0]), 1.0, 0.1, np.int64(3))) == 5
    # x0 is one state: a block of them is integrate_batch's
    for x0 in (np.full((3, 3), 0.1), np.zeros((1, 3)), np.float64(1.0)):
        with pytest.raises(ValueError, match="1-d"):
            sim.integrate(lambda x: -x, x0, 0.01)
        with pytest.raises(ValueError, match="1-d"):
            sim.integrate(models.builtin("rossler").model.f, x0, 0.01)


def test_non_finite_and_over_cap_runs_rejected_before_work():
    for t_end, h in ((np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.inf), (1e308, 1e-300)):
        with pytest.raises(ValueError):
            sim.integrate(never, np.array([1.0]), t_end, h)
        with pytest.raises(ValueError):
            sim.integrate_batch(never, np.ones((2, 1)), t_end, h)
    with pytest.raises(ValueError, match="cap"):
        sim.integrate(never, np.array([1.0]), (sim.MAX_STEPS + 1) * 1e-3, 1e-3)
    rows = sim.MAX_BATCH_ROW_STEPS // 1000 + 1  # 1000 steps each, under MAX_STEPS
    with pytest.raises(ValueError, match="cap"):
        sim.integrate_batch(never, np.zeros((rows, 1)), 1.0, 1e-3)
    with pytest.raises(ValueError, match="resolution"):
        sim.ImmersionGrid.from_function(never, 2, sim.MAX_GRID_RESOLUTION + 1, 2)
    # t_end <= h / 2 rounds to no step: x0 would come back as the run's end
    for t_end in (0.4e-3, 0.5e-3):
        with pytest.raises(ValueError, match="rounds to 0 steps"):
            sim.integrate(never, np.array([1.0]), t_end, 1e-3)
        with pytest.raises(ValueError, match="rounds to 0 steps"):
            sim.integrate_batch(never, np.ones((2, 1)), t_end, 1e-3)


def test_fit_decay_requires_positive_norms():
    tr = sim.Trace(np.linspace(0, 1, 10), np.zeros((10, 1)),
                   compound_norms=np.zeros(10))
    with pytest.raises(ValueError, match="positive"):
        sim.fit_decay(tr)
    with pytest.raises(ValueError, match="no compound norms"):
        sim.fit_decay(sim.Trace(np.linspace(0, 1, 10), np.zeros((10, 1))))


def test_flowed_square_linear_volume():
    A = np.diag([-1.0, -2.0])
    for t in (0.5, 1.0, 2.0):
        g = sim.ImmersionGrid.from_function(lambda r: r.copy(), 2, 64, 2)
        flowed = sim.flow_immersion(g, lambda X: X @ A.T, t, 1e-3)
        V = sim.volume_of_immersion(flowed, np.eye(2))
        assert V == pytest.approx(np.exp(-3 * t), abs=1e-2)


def test_volume_compound_agreement():
    # parallelotope immersion under linear flow: V^k equals |X^(k)(t)|
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) - np.eye(3)
    V0 = rng.standard_normal((3, 2))
    x0 = np.zeros(3)
    t = 0.7
    g = sim.ImmersionGrid.from_function(lambda r: x0 + r @ V0.T, 2, 48, 3)
    flowed = sim.flow_immersion(g, lambda X: X @ A.T, t, 1e-3)
    vol = sim.volume_of_immersion(flowed, np.eye(3))
    y = cp.multiplicative_compound(expm(A * t) @ V0, 2).ravel()
    assert vol == pytest.approx(np.linalg.norm(y), rel=1e-3)


def scalar_model(f):
    """A 1-state model loaded from its document, so its Jacobian is exact."""
    return models.model_from_dict({
        "kind": "nonlinear", "dim": 1, "f": [f], "box": {"lower": [-1.0], "upper": [1.0]}}).model


def test_find_equilibria_scalar():
    box = Box(np.array([-2.0]), np.array([2.0]))
    eqs = sim.find_equilibria(scalar_model("-x1"), box)
    assert len(eqs) == 1
    assert eqs[0].label == "stable" and not eqs[0].repelling

    eqs = sim.find_equilibria(scalar_model("x1"), box)
    assert len(eqs) == 1
    assert eqs[0].repelling and eqs[0].label == "repelling"


def test_find_equilibria_multistable():
    model = scalar_model("x1*(0.25 - x1^2)")
    box = Box(np.array([-1.0]), np.array([1.0]))
    eqs = sim.find_equilibria(model, box)
    xs = sorted(round(float(e.point[0]), 6) for e in eqs)
    assert xs == [-0.5, 0.0, 0.5]
    assert sum(e.unstable for e in eqs) == 1


def test_classify_fixed_point_linear():
    tr = sim.integrate(lambda x: -x, np.array([1.0, 2.0]), 30.0, 1e-3, record_every=10)
    assert sim.classify_attractor(tr) == "fixed_point"


def test_classify_limit_cycle():
    # Van der Pol style oscillator settles on a cycle
    field = lambda x: np.array([x[1], (1 - x[0] ** 2) * x[1] - x[0]])
    tr = sim.integrate(field, np.array([0.1, 0.0]), 200.0, 1e-3, record_every=10)
    assert sim.classify_attractor(tr) == "limit_cycle"


def test_classify_short_trace_unresolved():
    tr = sim.Trace(np.linspace(0, 1, 5), np.zeros((5, 2)))
    assert sim.classify_attractor(tr) == "unresolved"


def test_csv_format(tmp_path):
    tr = sim.integrate(lambda x: -x, np.array([1.0, 0.5]), 0.01, 1e-3)
    path = tmp_path / "trace.csv"
    sim.trace_to_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == len(tr) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0

    ctr = sim.integrate_compound(models.builtin("rossler_mod").model,
                                 np.array([0.2, 0.5, 0.0]), np.eye(3), 3, 0.01, 1e-3)
    path2 = tmp_path / "ctrace.csv"
    sim.trace_to_csv(ctr, path2)
    assert path2.read_text().splitlines()[0] == "t,x1,x2,x3,compound_norm"


@contextlib.contextmanager
def cores(count):
    """stepper.threads() reads count usable cores."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        yield


def test_concurrently_returns_results_in_call_order():
    # later calls finish first: each sleeps (releasing the GIL) less than the one before
    calls = [functools.partial(lambda i: time.sleep(0.002 * (8 - i)) or i, i) for i in range(8)]
    with cores(4):
        assert stepper.concurrently(calls) == list(range(8))
        assert stepper.concurrently(iter(calls)) == list(range(8))
        assert stepper.concurrently([]) == []


def test_concurrently_runs_at_most_threads_calls_at_once():
    # the barrier passes only when 3 calls wait at it together, and a lock
    # counts the calls running at once
    barrier, lock, running, peak = threading.Barrier(3, timeout=30), threading.Lock(), [0], [0]

    def call(i):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        if i < 3:
            barrier.wait()
        time.sleep(0.005)
        with lock:
            running[0] -= 1
        return threading.get_ident()

    before = threading.active_count()
    with cores(3):
        idents = stepper.concurrently(functools.partial(call, i) for i in range(9))
    assert peak[0] == 3 and len(set(idents)) == 3
    assert threading.get_ident() in idents  # the caller runs calls too
    assert threading.active_count() == before


def test_concurrently_starts_no_thread_at_one_core_or_one_call():
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    main = threading.get_ident()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(threading, "Thread", refuse)
        with cores(1):
            assert stepper.concurrently([threading.get_ident] * 4) == [main] * 4
        with cores(8):
            assert stepper.concurrently([threading.get_ident]) == [main]


def test_concurrently_joins_every_call_before_raising_the_first_error():
    # call 1 fails at once and call 3 later; call 0 fails last, after call 2
    # ends: the error re-raised is call 0's, once every call has ended
    ended = []

    def fail(i, delay):
        time.sleep(delay)
        ended.append(i)
        raise ValueError(f"call {i}")

    def finish(i, delay):
        time.sleep(delay)
        ended.append(i)
        return i

    calls = [functools.partial(fail, 0, 0.05), functools.partial(fail, 1, 0.0),
             functools.partial(finish, 2, 0.03), functools.partial(fail, 3, 0.01),
             functools.partial(finish, 4, 0.0)]
    before = threading.active_count()
    with cores(2), pytest.raises(ValueError, match="^call 0$"):
        stepper.concurrently(calls)
    assert sorted(ended) == [0, 1, 2, 3, 4]
    assert threading.active_count() == before
