import numpy as np
import pytest
from scipy.linalg import expm

from kcontract import compound as cp
from kcontract import models, sim
from kcontract.nl_verify import Box


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


def trace_bytes(tr):
    norms = b"" if tr.compound_norms is None else tr.compound_norms.tobytes()
    return tr.times.tobytes(), tr.states.tobytes(), norms, tr.truncated


@pytest.mark.parametrize("name", ["rossler", "rossler_mod", "synchronverter", "example25"])
def test_integrate_matches_numpy_oracle_bytes(name, monkeypatch):
    bundle = models.builtin(name)
    x0 = bundle.box.sample(np.random.default_rng(12), 1)[0]
    got = sim.integrate(bundle.model.f, x0, 2.0, 1e-3, record_every=7)
    want = integrate_numpy_oracle(bundle.model.f, x0, 2.0, 1e-3, record_every=7)
    assert trace_bytes(got) == trace_bytes(want)
    for k in (2, 3):
        V0 = np.eye(bundle.dim)[:, :k]
        got = sim.integrate_compound(bundle.model, x0, V0, k, 0.5, 1e-3)
        with monkeypatch.context() as m:
            m.setattr(sim, "integrate", integrate_numpy_oracle)
            want = sim.integrate_compound(bundle.model, x0, V0, k, 0.5, 1e-3)
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
        "A0": A.tolist(), "terms": [],
        "box": {"lower": [-1] * 4, "upper": [1] * 4},
    }).model
    V0 = rng.standard_normal((4, 2))
    tr = sim.integrate_compound(model, np.zeros(4), V0, 2, 5.0, 1e-3, record_every=100)
    C = cp.additive_compound(A, 2)
    y0 = cp.multiplicative_compound(V0, 2).ravel()
    for t, norm in zip(tr.times, tr.compound_norms):
        expected = np.linalg.norm(expm(C * t) @ y0)
        assert norm == pytest.approx(expected, rel=1e-6, abs=1e-9)


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


def test_fit_decay_no_decay_reports_nonpositive():
    tr = sim.integrate_compound(
        models.model_from_dict({
            "kind": "nonlinear", "dim": 2, "f": ["x1", "-3*x2"],
            "A0": [[1.0, 0.0], [0.0, -3.0]], "terms": [],
            "box": {"lower": [-1, -1], "upper": [1, 1]},
        }).model,
        np.array([0.1, 0.1]), np.array([[1.0], [0.0]]), 1, 5.0, 1e-3)
    a, _, _ = sim.fit_decay(tr)
    assert a <= 0


def test_volume_unit_square():
    g = sim.ImmersionGrid.from_function(lambda r: r.copy(), 2, 64, 2)
    assert sim.volume_of_immersion(g, np.eye(2)) == pytest.approx(1.0, abs=1e-3)


def test_volume_metric_scaling():
    g = sim.ImmersionGrid.from_function(lambda r: np.array([r[0]]), 1, 64, 1)
    assert sim.volume_of_immersion(g, 4.0 * np.eye(1)) == pytest.approx(2.0, abs=1e-9)


def test_volume_curved_quadrature_error():
    # quarter-turn arc of radius 1: length pi/2, midpoint rule O(res^-2)
    g = sim.ImmersionGrid.from_function(
        lambda r: np.array([np.cos(np.pi / 2 * r[0]), np.sin(np.pi / 2 * r[0])]), 1, 64, 2)
    assert sim.volume_of_immersion(g, np.eye(2)) == pytest.approx(np.pi / 2, abs=1e-3)


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
    g = sim.ImmersionGrid.from_function(lambda r: x0 + V0 @ r, 2, 48, 3)
    flowed = sim.flow_immersion(g, lambda X: X @ A.T, t, 1e-3)
    vol = sim.volume_of_immersion(flowed, np.eye(3))
    y = cp.multiplicative_compound(expm(A * t) @ V0, 2).ravel()
    assert vol == pytest.approx(np.linalg.norm(y), rel=1e-3)


def test_find_equilibria_scalar():
    box = Box(np.array([-2.0]), np.array([2.0]))
    eqs = sim.find_equilibria(lambda x: -x, box, seeds=10)
    assert len(eqs) == 1
    assert eqs[0].label == "stable" and not eqs[0].repelling

    eqs = sim.find_equilibria(lambda x: x.copy(), box, seeds=10)
    assert len(eqs) == 1
    assert eqs[0].repelling and eqs[0].label == "repelling"


def test_find_equilibria_multistable():
    field = lambda x: np.array([x[0] * (0.25 - x[0] ** 2)])
    box = Box(np.array([-1.0]), np.array([1.0]))
    eqs = sim.find_equilibria(field, box, seeds=30)
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
