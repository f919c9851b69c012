"""Nonlinear certificate verification and synthesis over boxes.

Models carry an affine-parameter Jacobian envelope J(x) = A0 + sum_j
theta_j(x) A_j with interval-bounded scalar parameters theta_j over a box.
Matrix-inequality conditions are affine in theta, so checking the 2^m
envelope vertices certifies them on the whole box.

Margins use the same rate-normalized half form as the linear module:
margin = lambda_max(sym(P J) - mu P) for metric conditions, and
lambda_max(sym(Q C) + eta/2 I) for the compound condition with C the k-th
additive compound of a vertex Jacobian. Relative slack s accepts margins
below s * ||P||_2 (resp. s * ||Q||_2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compound import additive_compound
from .lin_contraction import VerificationReport, shifted_inertia_certificate
from .lin_synthesis import design_margin
from .numkernel import (
    NumericalError,
    check_symmetric,
    inertia_symmetric,
    spectral_norm,
    sym,
)

VERTEX_CAP = 16  # 2^16 envelope vertices


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lower <= x <= upper}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("box has lower > upper on some axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return len(self.lower)

    def intervals(self):
        return [(float(lo), float(hi)) for lo, hi in zip(self.lower, self.upper)]

    def contains(self, x, tol=0.0):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def sample(self, rng, count):
        u = rng.random((count, self.dim))
        return self.lower + u * (self.upper - self.lower)

    def center(self):
        return 0.5 * (self.lower + self.upper)

    def inflate(self, factor):
        c = self.center()
        half = 0.5 * (self.upper - self.lower) * factor
        return Box(c - half, c + half)


@dataclass
class NonlinearModel:
    """Vector field with an affine-parameter Jacobian envelope.

    f(x) evaluates the field; the Jacobian is A0 + sum theta_j(x) A_j with
    terms the matrices A_j, theta(x) the list [theta_1(x), ...] and bounds a
    procedure mapping a Box to intervals [theta_j-, theta_j+]. For models
    built from the expression language the bounds come from interval
    evaluation.
    """

    dim: int
    f: callable
    A0: np.ndarray
    terms: list  # [A_1, A_2, ...]
    theta: callable  # x -> [theta_1(x), ...]
    bounds: callable  # Box -> [(lo, hi), ...]
    f_batch: callable | None = None  # optional vectorized evaluator (m,n) -> (m,n)

    def __post_init__(self):
        self.A0 = np.asarray(self.A0, dtype=float)
        self.terms = [np.asarray(Aj, dtype=float) for Aj in self.terms]

    def jacobian(self, x):
        J = self.A0.copy()
        for Aj, value in zip(self.terms, self.theta(x)):
            J += value * Aj
        return J


@dataclass
class NonlinearCertificate:
    """Constant-metric pair (P0 > 0, P1 of inertia (k-1, 0, n-k+1)) with rates."""

    P0: np.ndarray
    P1: np.ndarray
    mu0: float
    mu1: float
    k: int

    @property
    def rate_sum(self):
        return float(self.mu1 + (self.k - 1) * self.mu0)


def envelope_vertices(model: NonlinearModel, box: Box):
    """The 2^m matrices A0 + sum theta_j^{+/-} A_j bracketing J(x) on the box."""
    m = len(model.terms)
    if m == 0:
        return [model.A0.copy()]
    if m > VERTEX_CAP:
        raise ValueError(
            f"{m} envelope terms means 2^{m} vertices; use grid sampling instead"
            " (non-certifying)"
        )
    ivs = model.bounds(box)
    if len(ivs) != m:
        raise ValueError("bounds procedure returned wrong number of intervals")
    verts = []
    for mask in range(2 ** m):
        J = model.A0.copy()
        for j, Aj in enumerate(model.terms):
            lo, hi = ivs[j]
            J += (hi if (mask >> j) & 1 else lo) * Aj
        verts.append(J)
    return verts


def jacobian_samples(model: NonlinearModel, box: Box, count, rng):
    """Sampled Jacobians; sound only pointwise (grid fallback, non-certifying)."""
    return [model.jacobian(x) for x in box.sample(rng, count)]


def split_box(box: Box, axis: int, parts: int):
    """Partition the box into `parts` equal slabs along one axis."""
    if not 0 <= axis < box.dim:
        raise ValueError(f"axis {axis} out of range")
    edges = np.linspace(box.lower[axis], box.upper[axis], parts + 1)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        lo, hi = box.lower.copy(), box.upper.copy()
        lo[axis], hi[axis] = a, b
        out.append(Box(lo, hi))
    return out


def envelope_vertices_refined(model: NonlinearModel, box: Box, splits: dict | None = None):
    """Union of envelope vertices over a slab partition of the box.

    splits maps state-axis index to slab count. The union hull is a tighter
    outer approximation of {J(x) : x in box} than the single-box hull, so a
    certificate valid at every refined vertex is valid on the whole box.
    """
    boxes = [box]
    for axis, parts in (splits or {}).items():
        boxes = [sub for b in boxes for sub in split_box(b, axis, parts)]
    verts = []
    for b in boxes:
        verts.extend(envelope_vertices(model, b))
    return verts


def metric_condition_margin(P, J, mu):
    """Half-form margin of J'P + PJ < 2 mu P at one Jacobian."""
    return float(np.linalg.eigvalsh(sym(P @ J) - mu * P).max())


def _worst(margins):
    """(largest margin, its index) over an iterable of per-vertex margins."""
    worst, arg = -np.inf, -1
    for i, m in enumerate(margins):
        if m > worst:
            worst, arg = m, i
    return worst, arg


def verify_nl_certificate(model: NonlinearModel, box: Box, cert: NonlinearCertificate,
                          slack: float = 0.0, vertices=None,
                          fallback_samples: int = 0) -> VerificationReport:
    """Vertex-check the constant-metric pair conditions on the box.

    Accepts iff both metric inequalities hold at every envelope vertex with
    margin below slack * ||P_i||_2 and mu1 + (k-1) mu0 < 0. Inertia mismatches
    reject with the condition named; only dimension mismatches raise. When the
    envelope exceeds the vertex cap and fallback_samples > 0, sampled
    Jacobians are checked instead; that run is flagged non-certifying.
    """
    n = model.dim
    P0 = check_symmetric(cert.P0, "P0")
    P1 = check_symmetric(cert.P1, "P1")
    if P0.shape != (n, n) or P1.shape != (n, n):
        raise ValueError(f"certificate matrices must be {n}x{n}")
    k = cert.k
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")

    problems = []
    in0 = inertia_symmetric(P0)
    in1 = inertia_symmetric(P1)
    if in0 != (0, 0, n):
        problems.append(f"P0 inertia {tuple(in0)} != required (0, 0, {n})")
    if in1 != (k - 1, 0, n - k + 1):
        problems.append(
            f"P1 inertia {tuple(in1)} != required ({k - 1}, 0, {n - k + 1})"
        )

    certifying = True
    if vertices is None:
        try:
            verts = envelope_vertices(model, box)
        except ValueError:
            if not fallback_samples:
                raise
            verts = jacobian_samples(model, box, fallback_samples,
                                     np.random.default_rng(0))
            certifying = False
    else:
        verts = vertices
    m0, v0 = _worst(metric_condition_margin(P0, J, cert.mu0) for J in verts)
    m1, v1 = _worst(metric_condition_margin(P1, J, cert.mu1) for J in verts)
    thr0 = slack * max(spectral_norm(P0), 1e-300)
    thr1 = slack * max(spectral_norm(P1), 1e-300)
    if not m0 < thr0:
        problems.append(f"P0 condition margin {m0:.6g} at vertex {v0} not below {thr0:.6g}")
    if not m1 < thr1:
        problems.append(f"P1 condition margin {m1:.6g} at vertex {v1} not below {thr1:.6g}")
    rate = cert.rate_sum
    if not rate < 0:
        problems.append(f"rate sum mu1 + (k-1) mu0 = {rate:.6g} not negative")

    planar = (n == 2 and k == 2)
    notes = []
    if planar:
        notes.append("planar case: box compactness not required for the conclusion")
    if not certifying:
        notes.append("grid-sampled check only: NOT certifying on the box")
    if problems:
        notes = problems + notes
    return VerificationReport(
        verdict=not problems,
        margins=[("P0", m0), ("P1", m1), ("rate_sum", rate)],
        diagnostics="; ".join(notes) if notes else f"all conditions hold (slack={slack:g})",
        data={
            "worst_vertex": {"P0": v0, "P1": v1},
            "slack": slack,
            "planar": planar,
            "n_vertices": len(verts),
            "certifying": certifying,
        },
    )


def verify_compound_condition(model: NonlinearModel, box: Box, Q, eta: float, k: int,
                              slack: float = 0.0) -> VerificationReport:
    """Check Q C + C'Q <= -eta I for C the k-th additive compound at all vertices.

    The compound of an affine family is affine in theta, so vertex checking
    stays exact on the box.
    """
    Q = check_symmetric(Q, "Q")
    w = np.linalg.eigvalsh(Q)
    if w[0] <= 0:
        raise ValueError(f"Q must be positive definite (lambda_min = {w[0]:.6g})")
    if eta <= 0:
        raise ValueError("eta must be positive")
    verts = envelope_vertices(model, box)
    shift = 0.5 * eta * np.eye(len(Q))
    worst, arg = _worst(float(np.linalg.eigvalsh(sym(Q @ additive_compound(J, k)) + shift).max())
                        for J in verts)
    thr = slack * max(spectral_norm(Q), 1e-300)
    ok = worst <= thr
    return VerificationReport(
        verdict=bool(ok),
        margins=[("compound", worst)],
        diagnostics=(f"compound condition holds with eta={eta:g} (slack={slack:g})"
                     if ok else
                     f"compound condition margin {worst:.6g} at vertex {arg} above {thr:.6g}"),
        data={"worst_vertex": arg, "slack": slack, "eta": eta, "n_vertices": len(verts)},
    )


TINY_OMEGA = 1e-9


def synthesize_nl_gain(model: NonlinearModel, box: Box, W0, W1, mu0: float, mu1: float,
                       B, k: int, slack: float = 0.0):
    """Gain K = 1/2 B'(W0^-1 + W1^-1) and certified excess rate omega.

    The two design inequalities are checked at every envelope vertex and
    reported (worst vertex named); the report's verdict states whether the
    closed loop is certified k-contractive, i.e. the inequalities hold and
    (k-1) mu0 + mu1 + omega < 0. Inertia violations of W0/W1 raise.
    """
    n = model.dim
    W0 = check_symmetric(W0, "W0")
    W1 = check_symmetric(W1, "W1")
    B = np.asarray(B, dtype=float).reshape(n, -1)
    if W0.shape != (n, n) or W1.shape != (n, n):
        raise ValueError(f"W matrices must be {n}x{n}")
    in0 = inertia_symmetric(W0)
    if in0 != (0, 0, n):
        raise ValueError(f"W0 must be positive definite, inertia {tuple(in0)}")
    in1 = inertia_symmetric(W1)
    if in1 != (k - 1, 0, n - k + 1):
        raise ValueError(
            f"W1 inertia {tuple(in1)} != required ({k - 1}, 0, {n - k + 1})"
        )

    W0i = np.linalg.inv(W0)
    W1i = np.linalg.inv(W1)
    BBt = B @ B.T
    K = 0.5 * (B.T @ (W0i + W1i))

    M = np.eye(n) - 0.5 * BBt @ W1i
    growth = float(np.linalg.eigvals(W0i @ M @ W0 @ M.T).real.max())
    omega_bar = max(growth - 1.0, 0.0) + TINY_OMEGA
    omega = (k - 1) * omega_bar

    verts = envelope_vertices(model, box)
    shift = 0.5 * BBt @ W0i
    worst_a, va = _worst(design_margin(J, B, W0, mu0) for J in verts)
    worst_b, vb = _worst(design_margin(J - shift, B, W1, mu1) for J in verts)
    thr_a = slack * max(spectral_norm(W0), 1e-300)
    thr_b = slack * max(spectral_norm(W1), 1e-300)
    rate = (k - 1) * mu0 + mu1 + omega
    problems = []
    if not worst_a < thr_a:
        problems.append(f"design inequality (W0) margin {worst_a:.6g} at vertex {va}")
    if not worst_b < thr_b:
        problems.append(f"design inequality (W1) margin {worst_b:.6g} at vertex {vb}")
    if not rate < 0:
        problems.append(f"rate budget (k-1)mu0 + mu1 + omega = {rate:.6g} not negative")
    report = VerificationReport(
        verdict=not problems,
        margins=[("W0", worst_a), ("W1", worst_b), ("rate_sum", rate)],
        diagnostics="; ".join(problems) if problems else
        f"closed loop certified {k}-contractive (omega={omega:.6g})",
        data={
            "omega": omega,
            "omega_bar": omega_bar,
            "worst_vertex": {"W0": va, "W1": vb},
            "slack": slack,
            "n_vertices": len(verts),
        },
    )
    return K, omega, report


# ---------------------------------------------------------------------------
# best-effort certificate search (heuristic; failure is a legitimate outcome)
# ---------------------------------------------------------------------------


def _center_lyapunov_start(verts, n, mu, n_neg):
    """Warm start: exact inertia-correct solution at the vertex-set centroid."""
    Jc = sum(verts) / len(verts)
    try:
        P = shifted_inertia_certificate(Jc, mu)
    except NumericalError:
        return None
    if inertia_symmetric(P) != (n_neg, 0, n - n_neg):
        return None
    return P / spectral_norm(P)


def _project_inertia(P, n_neg, floor=1e-6):
    w, U = np.linalg.eigh(P)
    s = np.abs(w).max()
    w2 = w.copy()
    for i in range(len(w)):
        w2[i] = min(w2[i], -floor * s) if i < n_neg else max(w2[i], floor * s)
    return (U * w2) @ U.T


def _sylvester_polish(P, mu, verts, n_neg, sweeps=200, damp=0.35):
    """Damped corrections from Lyapunov solves at the worst vertex.

    Each sweep clips the positive eigenvalues of the worst vertex's condition
    matrix and solves the linear (Sylvester) equation for the minimal metric
    correction achieving the clipped target, then re-projects the inertia.
    """
    from scipy.linalg import solve_sylvester

    n = len(P)
    P = P / spectral_norm(P)
    best, best_m = P.copy(), max(metric_condition_margin(P, J, mu) for J in verts)
    for _ in range(sweeps):
        margins = [metric_condition_margin(P, J, mu) for J in verts]
        i = int(np.argmax(margins))
        if margins[i] < best_m:
            best_m, best = margins[i], P.copy()
        if best_m < -1e-8:
            break
        Ahat = verts[i] - mu * np.eye(n)
        M = sym(P @ Ahat)
        w, U = np.linalg.eigh(M)
        target = (U * np.minimum(w, -1e-4)) @ U.T
        try:
            dP = sym(solve_sylvester(Ahat.T, Ahat, 2 * (target - M)))
        except Exception:
            break
        P = _project_inertia(P + damp * dP, n_neg)
        P = P / spectral_norm(P)
    return best, best_m


def _search_single(verts, n, mu, n_neg, rng, restarts, iters):
    """Minimize the worst normalized margin over one metric condition.

    Parameterizes P = R' diag(sig) R (inertia by construction), runs L-BFGS
    on a softplus surrogate of the maximal eigenvalue with a sharpening
    temperature ladder, then polishes with damped Sylvester corrections at
    the worst vertex.
    """
    from scipy.optimize import minimize

    sig = np.concatenate([-np.ones(n_neg), np.ones(n - n_neg)])

    def build(R):
        return R.T @ (sig[:, None] * R)

    def true_margin(P):
        nP = spectral_norm(P)
        return max(metric_condition_margin(P, J, mu) for J in verts) / nP

    def fg(z, beta):
        R = z.reshape(n, n)
        P = build(R)
        nP = np.linalg.norm(P, "fro") + 1e-12
        f = 0.0
        G = np.zeros((n, n))
        for J in verts:
            Mv = sym(P @ J) - mu * P
            w, U = np.linalg.eigh(Mv)
            t = beta * (w / nP + 1e-4)
            f += (np.where(t > 30, t, np.log1p(np.exp(np.minimum(t, 30)))) / beta).sum()
            coef = 1.0 / (1.0 + np.exp(-np.clip(t, -500, 500))) / nP
            Wm = (U * coef) @ U.T
            G += sym(J @ Wm) - mu * Wm
        return f, (2 * (sig[:, None] * R) @ G).ravel()

    best_P, best_m = None, np.inf
    starts = []
    center = _center_lyapunov_start(verts, n, mu, n_neg)
    if center is not None:
        w, U = np.linalg.eigh(center)  # center = R' diag(sig) R
        starts.append((U * np.sqrt(np.abs(w))).T.ravel())
    while len(starts) < restarts:
        starts.append(rng.standard_normal(n * n))
    for z0 in starts:
        z = np.asarray(z0, dtype=float)
        for beta in (50.0, 400.0, 3000.0):
            res = minimize(fg, z, args=(beta,), jac=True, method="L-BFGS-B",
                           options=dict(maxiter=iters, ftol=1e-16, gtol=1e-14))
            z = res.x
        P = build(z.reshape(n, n))
        P = P / spectral_norm(P)
        m = true_margin(P)
        if m >= -1e-9:
            # polish keeps the metric at unit norm, so its margin is comparable
            P2, m2 = _sylvester_polish(P, mu, verts, n_neg)
            if m2 < m:
                P, m = P2, m2
        if m < best_m:
            best_m, best_P = m, P
        if best_m < -1e-9:
            break
    return best_P, best_m


def search_nl_certificate(model: NonlinearModel, box: Box, k: int, budget: int = 40,
                          seed: int = 0, mus=None):
    """Best-effort search for a constant-metric certificate on the box.

    budget caps the number of (mu candidate x restart) optimization attempts.
    Returns an accepted NonlinearCertificate or None; the result is gated
    through verify_nl_certificate at slack 0 against the same vertex set, so a
    returned certificate is always genuinely valid. None is an honest failure,
    never fabricated.
    """
    n = model.dim
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    verts = envelope_vertices(model, box)
    rng = np.random.default_rng(seed)

    # pointwise-necessary windows for the rates, from vertex spectra
    res = np.array([np.sort(np.linalg.eigvals(J).real)[::-1] for J in verts])
    rmax = res[:, 0].max()
    if k >= 2:
        lo1 = res[:, k - 1].max()   # mu1 must sit above the k-th largest everywhere
        hi1 = res[:, k - 2].min()   # ... and below the (k-1)-th largest
    else:
        lo1, hi1 = -np.inf, np.inf

    candidates = []
    if mus is not None:
        candidates.append(tuple(mus))
    if k >= 2 and lo1 < hi1:
        for t1 in (0.12, 0.5, 0.88):
            mu1c = lo1 + t1 * (hi1 - lo1)
            hi0 = -mu1c / (k - 1)
            if hi0 <= rmax:
                continue
            for t0 in (0.25, 0.75):
                mu0c = rmax + t0 * (hi0 - rmax)
                candidates.append((mu0c, mu1c))
    elif k == 1 and rmax < 0:
        # both metrics positive definite; any negative rate above the spectrum works
        candidates.append((rmax / 2.0, rmax / 2.0))

    attempts = 0
    for mu0, mu1 in candidates:
        if not mu1 + (k - 1) * mu0 < 0:
            continue
        if attempts >= budget:
            break
        restarts = max(1, min(4, budget - attempts))
        P0, m0 = _search_single(verts, n, mu0, 0, rng, restarts, 400)
        P1, m1 = _search_single(verts, n, mu1, k - 1, rng, restarts, 400)
        attempts += restarts
        if m0 < 0 and m1 < 0:
            cert = NonlinearCertificate(P0=P0, P1=P1, mu0=float(mu0), mu1=float(mu1), k=k)
            report = verify_nl_certificate(model, box, cert, slack=0.0, vertices=verts)
            if report.verdict:
                return cert
    return None
