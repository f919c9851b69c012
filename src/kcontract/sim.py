"""Trajectory, variational-compound and volume dynamics, and equilibria.

Fixed-step classical RK4 throughout: traces are bit-for-bit reproducible
across runs, which matters more than speed at this scale. The compound state
is integrated directly in its C(n,k)-dimensional space with the exact linear
dynamics ydot = J(x)^[k] y, and find_equilibria runs Newton on the model's
exact envelope Jacobian: nothing here differentiates numerically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import stepper
from .compound import additive_compound, multiplicative_compound
from .nl_verify import Box, NonlinearModel

# caps that reject a run before it starts: 2x the longest shipped run (500k
# steps); 1e8 row-steps of integrate_batch on the built-in models take 8-12 s
# on one core as C (80-115 ns each on a 2-core x86-64 host; the C loop splits
# such a block between threads, one a usable core) and 100-210 s on the
# Python loop (1.0-2.1 us each), which runs on one core
MAX_STEPS = 1_000_000
MAX_BATCH_ROW_STEPS = 100_000_000
MAX_GRID_RESOLUTION = 1024

# find_equilibria: its seeds (the box centre and points sampled with seed 0),
# Newton steps per seed, the residual (relative to the box diagonal) at which
# a point is an equilibrium, and the distance within which two are one
EQUILIBRIUM_SEEDS = 40
NEWTON_STEPS = 80
NEWTON_TOL = 1e-12
DEDUP = 1e-6
# classify_attractor's speed and recurrence tolerance
ATTRACTOR_TOL = 1e-3


@dataclass
class Trace:
    """Time-stamped states, optionally with compound-volume norms."""

    times: np.ndarray
    states: np.ndarray
    compound_norms: np.ndarray | None = None
    truncated: bool = False  # set when integration hit a non-finite state

    def __len__(self):
        return len(self.times)

    @property
    def dim(self):
        return self.states.shape[1]


@dataclass
class EquilibriumInfo:
    point: np.ndarray
    eigenvalues: np.ndarray
    stable: bool      # Jacobian Hurwitz
    repelling: bool   # negated Jacobian Hurwitz

    @property
    def label(self):
        if self.stable:
            return "stable"
        if self.repelling:
            return "repelling"
        return "saddle"

    @property
    def unstable(self):
        return not self.stable


def _step_count(t_end: float, h: float, record_every: int = 1) -> int:
    """round(t_end / h); ValueError unless both are finite and positive, the
    count is at least 1 and at most MAX_STEPS and record_every is an int of
    at least 1."""
    if not (math.isfinite(t_end) and math.isfinite(h) and t_end > 0 and h > 0):
        raise ValueError(f"h and t_end must be positive and finite, got h={h!r}, "
                         f"t_end={t_end!r}")
    if (isinstance(record_every, bool) or not isinstance(record_every, (int, np.integer))
            or record_every < 1):
        raise ValueError(f"record_every must be an int of at least 1, got {record_every!r}")
    if t_end / h > MAX_STEPS:
        raise ValueError(f"t_end / h = {t_end / h:.6g} steps exceeds the cap of {MAX_STEPS}")
    n_steps = int(round(t_end / h))
    if n_steps == 0:  # t_end <= h / 2: the run would report x0 without a step
        raise ValueError(f"t_end / h = {t_end / h:.6g} rounds to 0 steps, got h={h!r}, "
                         f"t_end={t_end!r}")
    return n_steps


def integrate(field, x0, t_end: float, h: float = 1e-3, record_every: int = 1) -> Trace:
    """Integrate xdot = field(x) with fixed-step RK4 from x0, one 1-d state,
    to t_end.

    The RK4 loop is stepper's one template, elementwise in the order
    x + (h/6)*(((k1 + 2k2) + 2k3) + k4), in one of two state forms. A field
    that is a Rate (such as a compiled model's f, seen through the tracer's
    _traced wrappers only) is inlined on Python floats, as a one-row block;
    any other field, a functools.wraps wrapper of a Rate included, is called
    on the state as one float ndarray and must return that shape. Non-finite
    states truncate the trace (flagged), they never propagate; a field that fails as floats do
    (ArithmeticError, math's "math domain error") counts as a non-finite
    state. record_every thins the stored samples; the step size is
    unaffected. A Rate with a C form runs as C, with the same bytes, when a
    C compiler is present (stepper.run; its objects are cached), and a
    state whose length is not the Rate's dimension raises ValueError.
    """
    n_steps = _step_count(t_end, h, record_every)
    z = np.asarray(x0, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"x0 must be one state, a 1-d array, got shape {z.shape}")
    times, states, truncated = stepper.run(field, z, n_steps, h, record_every)
    return Trace(times, np.asarray(states), truncated=truncated)


def integrate_batch(field, X0, t_end: float, h: float = 1e-3, record_every: int = 1):
    """RK4 over a batch of initial conditions, the rows of the (m, n) block X0.

    field is taken as integrate takes it. A field that is a Rate (a compiled
    model's f) runs each row exactly as integrate(field, row) runs it: as C
    when an object is at hand or, from an estimated Python-loop cost of
    native.NATIVE_MIN_COST on, built now, else on Python floats, row by
    row; X0 must then have the Rate's n columns. Any other field maps the
    whole (m, n) state block to its (m, n) derivative block once per stage,
    in integrate's ndarray loop (stepper.array_rk4).

    Returns (times, trajectory array of shape (n_samples, m, n)). The first
    non-finite state of any row ends the run, unrecorded, so a truncated
    run's last time is below n_steps * h.
    """
    n_steps = _step_count(t_end, h, record_every)
    X = np.asarray(X0, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X0 must be an (m, n) block of rows, got shape {X.shape}")
    if len(X) * n_steps > MAX_BATCH_ROW_STEPS:
        raise ValueError(f"{len(X)} rows x {n_steps} steps exceeds the cap of "
                         f"{MAX_BATCH_ROW_STEPS} row-steps")
    times, states, _ = stepper.run(field, X, n_steps, h, record_every)
    return times, np.asarray(states)


def integrate_compound(model: NonlinearModel, x0, V0, k: int, t_end: float,
                       h: float = 1e-3, record_every: int = 1) -> Trace:
    """Co-integrate x(t) and the compound state y(t) with ydot = J(x)^[k] y.

    V0 is an (n, k) array with independent columns, and any other shape
    raises ValueError; y(0) is its k-th multiplicative compound. The trace
    records |y(t)| alongside the state samples. The augmented field runs
    through integrate: the Rate emitted for it (stepper.compound_rate) when
    the model is compiled and that Rate gives the numpy field's bytes at the
    initial state, else the numpy field. That Rate runs as C (native) as a
    compiled model's f does, with J^[k] y through numpy's own dgemv, when
    N = C(n, k) > 1.
    """
    n = model.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
    V0 = np.asarray(V0, dtype=float)
    if V0.shape != (n, k):
        raise ValueError(f"V0 has shape {V0.shape}, expected ({n}, {k}): k columns of length n")
    if np.linalg.matrix_rank(V0) < k:
        raise ValueError("V0 columns must be linearly independent")
    y0 = multiplicative_compound(V0, k).ravel()

    def aug_field(z):
        x, y = z[:n], z[n:]
        Ck = additive_compound(model.jacobian(x), k)
        return np.concatenate([np.asarray(model.f(x), dtype=float), Ck @ y])

    z0 = np.concatenate([x0, y0])
    field, rate = aug_field, stepper.compound_rate(model, k)
    if rate is not None:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if rate(z0).tobytes() == aug_field(z0).tobytes():
                    field = rate
        except (ArithmeticError, ValueError):
            pass  # the numpy field runs, and integrate reads the failure
    tr = integrate(field, z0, t_end, h, record_every)
    with np.errstate(over="ignore"):  # a truncated run may end near overflow
        norms = np.linalg.norm(tr.states[:, n:], axis=1)
    return Trace(tr.times, tr.states[:, :n], compound_norms=norms, truncated=tr.truncated)


def fit_decay(trace: Trace):
    """Least-squares exponential fit |y(t)| ~ b |y(0)| exp(-a t) on the trailing half.

    A norm that underflowed to 0 ends the samples; at least two are fitted.
    Returns (a, b, residual); a is the decay rate (negative means growth).
    """
    if trace.compound_norms is None:
        raise ValueError("trace has no compound norms")
    norms = np.asarray(trace.compound_norms, dtype=float)
    zeros = np.flatnonzero(norms <= 0)
    count = int(zeros[0]) if len(zeros) else len(norms)
    if count < 2:
        raise ValueError("compound norms must be positive for a log-linear fit")
    half = min(count // 2, count - 2)
    t = trace.times[half:count]
    y = np.log(norms[half:count])
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = coef
    a = -float(slope)
    b = float(np.exp(intercept) / norms[0])
    residual = float(np.sqrt(res[0] / len(t))) if len(res) else 0.0
    return a, b, residual


@dataclass
class ImmersionGrid:
    """Sampled immersion of [0,1]^k: nodes at i/(resolution-1) per axis.

    points has shape (resolution,)*k + (n,); k in {1, 2}. A flowed grid is
    truncated when the flow reached a non-finite state; its points are then
    all NaN.
    """

    k: int
    resolution: int
    points: np.ndarray
    truncated: bool = False

    @staticmethod
    def from_function(fn, k: int, resolution: int, dim: int):
        """The grid of fn's points, fn called once: it maps the (N, k) array
        of node coordinates, one node per row (node (i, j) of a k = 2 grid
        in row i * resolution + j), to the (N, dim) array of their points."""
        if k not in (1, 2):
            raise ValueError("only k in {1, 2} immersions are supported")
        if not 3 <= resolution <= MAX_GRID_RESOLUTION:
            raise ValueError(f"resolution must be in [3, {MAX_GRID_RESOLUTION}], "
                             f"got {resolution}")
        axes = np.meshgrid(*[np.linspace(0.0, 1.0, resolution)] * k, indexing="ij")
        r = np.stack(axes, axis=-1).reshape(-1, k)
        pts = np.asarray(fn(r), dtype=float)
        if pts.shape != (len(r), dim):
            raise ValueError(f"immersion gave points of shape {pts.shape} for {len(r)} nodes "
                             f"in dimension {dim}")
        return ImmersionGrid(k, resolution, pts.reshape((resolution,) * k + (dim,)))


def flow_immersion(grid: ImmersionGrid, field, t_end: float,
                   h: float = 1e-3) -> ImmersionGrid:
    """Flow every grid node with the same steps so differences stay synchronous.

    The nodes are the rows of one integrate_batch run of field: a compiled
    model's f flows each node as integrate flows it, and any other field
    maps the whole (m, n) block of nodes at once. When any node reaches a
    non-finite state the run ends there, and the grid returned is truncated.
    """
    shape = grid.points.shape
    n_steps = _step_count(t_end, h)
    times, traj = integrate_batch(field, grid.points.reshape(-1, shape[-1]), t_end, h,
                                  record_every=max(1, n_steps))
    if times[-1] < n_steps * h:
        return ImmersionGrid(grid.k, grid.resolution, np.full(shape, np.nan), truncated=True)
    return ImmersionGrid(grid.k, grid.resolution, traj[-1].reshape(shape))


def volume_of_immersion(grid: ImmersionGrid, P) -> float:
    """Midpoint-rule volume with the metric P (> 0): integral of sqrt det(D' P D).

    Cell-center derivatives come from averaged corner differences (central,
    O(res^-2)); roundoff-negative determinants are clamped at zero and
    flagged with a warning.
    """
    P = np.asarray(P, dtype=float)
    res = grid.resolution
    hstep = 1.0 / (res - 1)
    w = np.linalg.eigvalsh(0.5 * (P + P.T))
    if w[0] <= 0:
        raise ValueError("metric P must be positive definite")
    if grid.k == 1:
        diffs = (grid.points[1:] - grid.points[:-1]) / hstep
        vals = np.sqrt(np.maximum(np.einsum("id,de,ie->i", diffs, P, diffs), 0.0))
        return float(vals.sum() * hstep)
    pts = grid.points
    d1 = (pts[1:, :-1] + pts[1:, 1:] - pts[:-1, :-1] - pts[:-1, 1:]) / (2 * hstep)
    d2 = (pts[:-1, 1:] + pts[1:, 1:] - pts[:-1, :-1] - pts[1:, :-1]) / (2 * hstep)
    g11 = np.einsum("ijd,de,ije->ij", d1, P, d1)
    g12 = np.einsum("ijd,de,ije->ij", d1, P, d2)
    g22 = np.einsum("ijd,de,ije->ij", d2, P, d2)
    det = g11 * g22 - g12 ** 2
    n_neg = int(np.sum(det < 0))
    if n_neg:
        warnings.warn(f"clamped {n_neg} negative cell determinants (degenerate immersion)",
                      RuntimeWarning, stacklevel=2)
    return float(np.sqrt(np.maximum(det, 0.0)).sum() * hstep ** 2)


def find_equilibria(model: NonlinearModel, box: Box):
    """Damped Newton on model.f from EQUILIBRIUM_SEEDS seeded points, each
    step and the classification on the spectrum of model.jacobian, the
    model's exact envelope Jacobian.

    Returns a list of EquilibriumInfo, deduplicated within DEDUP. An empty
    list is a legitimate outcome.
    """
    f, jacobian = model.f, model.jacobian
    starts = [box.center(), *box.sample(np.random.default_rng(0), EQUILIBRIUM_SEEDS - 1)]
    found = []
    scale = max(float(np.linalg.norm(box.upper - box.lower)), 1.0)
    for s in starts:
        x = np.asarray(s, dtype=float).copy()
        ok = False
        for _ in range(NEWTON_STEPS):
            fx = np.asarray(f(x), dtype=float)
            if np.linalg.norm(fx) < NEWTON_TOL * scale:
                ok = True
                break
            try:
                step = np.linalg.solve(jacobian(x), -fx)
            except np.linalg.LinAlgError:
                break
            # damping: backtrack until the residual shrinks
            lam = 1.0
            fn = np.linalg.norm(fx)
            for _ in range(30):
                xn = x + lam * step
                if np.linalg.norm(np.asarray(f(xn), dtype=float)) < fn:
                    break
                lam *= 0.5
            else:
                break
            x = x + lam * step
            if not np.all(np.isfinite(x)):
                break
        if not ok or not box.contains(x, tol=0.05 * scale):
            continue
        if any(np.linalg.norm(x - e.point) < DEDUP for e in found):
            continue
        ev = np.linalg.eigvals(jacobian(x))
        found.append(EquilibriumInfo(
            point=x,
            eigenvalues=ev,
            stable=bool(ev.real.max() < 0),
            repelling=bool(ev.real.min() > 0),
        ))
    found.sort(key=lambda e: tuple(np.round(e.point, 9)))
    return found


def classify_attractor(trace: Trace) -> str:
    """Label the trace's limit behavior: fixed_point, limit_cycle, or unresolved.

    The first half of the trace is discarded as transient. fixed_point needs
    terminal speed and trailing displacement below ATTRACTOR_TOL; limit_cycle
    needs a recurrence: the final state is revisited within ATTRACTOR_TOL by
    a sample at least a quarter-window earlier, with an excursion away from
    it in between.
    unresolved is the honest fallback.
    """
    n = len(trace)
    if n < 8:
        return "unresolved"
    tail_start = n // 2
    tail = trace.states[tail_start:]
    times = trace.times[tail_start:]
    end = tail[-1]
    dt = times[-1] - times[-2]
    with np.errstate(over="ignore"):  # a truncated run may end near overflow
        speed = float(np.linalg.norm(tail[-1] - tail[-2]) / dt) if dt > 0 else np.inf
        dists = np.linalg.norm(tail - end, axis=1)
    if speed < ATTRACTOR_TOL and float(np.max(dists)) < ATTRACTOR_TOL:
        return "fixed_point"
    if speed >= ATTRACTOR_TOL:
        m = len(tail)
        guard = max(2, m // 4)  # recurrence must not be mere adjacency
        early = dists[: m - guard]
        if early.size and early.min() < ATTRACTOR_TOL:
            hit = int(np.argmin(early))
            if dists[hit:].max() > 10 * ATTRACTOR_TOL:  # genuinely left the neighborhood
                return "limit_cycle"
    return "unresolved"


def trace_to_csv(trace: Trace, path):
    """Write t, x1..xn[, compound_norm] rows with 12 significant digits."""
    n = trace.dim
    header = "t," + ",".join(f"x{i + 1}" for i in range(n))
    if trace.compound_norms is not None:
        header += ",compound_norm"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(len(trace)):
            row = [f"{trace.times[i]:.12g}"] + [f"{v:.12g}" for v in trace.states[i]]
            if trace.compound_norms is not None:
                row.append(f"{trace.compound_norms[i]:.12g}")
            fh.write(",".join(row) + "\n")
