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

import math
from dataclasses import dataclass

import numpy as np

from .compound import additive_compound
from .lin_contraction import VerificationReport
from .lin_synthesis import design_margin
from .numkernel import (
    MAX_DENSE_ENTRIES,
    check_symmetric,
    inertia_symmetric,
    spectral_norm,
    sym,
)

VERTEX_CAP = 16  # 2^16 envelope vertices
# slabs x 2^m vertices of envelope_vertices_refined: 16x the shipped
# synchronverter refinement (8 slabs of 2^5 vertices)
MAX_REFINED_VERTICES = 4096
# entries of solve_metric_lmi's (V + 2) x (n(n+1)/2 + 1) x n x n tensors
# (128 MiB of float64 each): 370x the shipped maximum, 258 * 11 * 16
MAX_LMI_ENTRIES = MAX_DENSE_ENTRIES


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
    terms the matrices A_j, theta(x) the values [theta_1(x), ...] and bounds a
    procedure mapping a Box to intervals [theta_j-, theta_j+]. ``models``
    derives the envelope from f and bounds theta_j by interval evaluation only.
    """

    dim: int
    f: callable
    A0: np.ndarray
    terms: list  # [A_1, A_2, ...]
    theta: callable  # x -> [theta_1(x), ...]
    bounds: callable  # Box -> [(lo, hi), ...]
    # read by nothing in kcontract (integrate_batch takes f) and None on
    # compiled models; kept for code outside the package that reads it
    f_batch: callable | None = None

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
    """The 2^m matrices A0 + sum theta_j^{+/-} A_j bracketing J(x) on the box, as one
    (2^m, n, n) stack. Vertex v takes theta_j's upper bound where bit j of v is set,
    and adds the terms in order, ((A0 + theta_1 A_1) + theta_2 A_2) + ..., as jacobian does."""
    m = len(model.terms)
    if m > VERTEX_CAP:
        raise ValueError(
            f"{m} envelope terms means 2^{m} vertices, above the cap of 2^{VERTEX_CAP}"
        )
    ivs = model.bounds(box) if m else []
    if len(ivs) != m:
        raise ValueError("bounds procedure returned wrong number of intervals")
    lo, hi = np.asarray(ivs, dtype=float).reshape(m, 2).T
    theta = np.where((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1, hi, lo)
    verts = np.repeat(model.A0[None], 2 ** m, axis=0)
    for j, Aj in enumerate(model.terms):
        verts += theta[:, j, None, None] * Aj
    return verts


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
    A slab count below 1, which would leave no vertex to check, and more than
    MAX_REFINED_VERTICES vertices are rejected before any bound is computed.
    """
    splits = splits or {}
    if any(parts < 1 for parts in splits.values()):
        raise ValueError(f"refinement {splits} has a slab count below 1")
    count = math.prod(splits.values()) * 2 ** len(model.terms)
    if count > MAX_REFINED_VERTICES:
        raise ValueError(f"refinement {splits} gives {count} envelope vertices, above the "
                         f"cap of {MAX_REFINED_VERTICES}")
    boxes = [box]
    for axis, parts in splits.items():
        boxes = [sub for b in boxes for sub in split_box(b, axis, parts)]
    return np.concatenate([envelope_vertices(model, b) for b in boxes])


def metric_condition_margin(P, J, mu):
    """Half-form margin of J'P + PJ < 2 mu P: a float at one Jacobian J, one
    margin per matrix of a (V, n, n) stack."""
    margin = np.linalg.eigvalsh(sym(P @ J) - mu * P).max(axis=-1)
    return margin if margin.ndim else float(margin)


def _worst(margins):
    """(largest margin, first index) of a margin array. A NaN margin is a vertex
    whose condition could not be evaluated, so it fails: the first NaN wins."""
    arg = int(np.argmax(margins))  # argmax takes the first NaN
    return float(margins[arg]), arg


def verify_nl_certificate(model: NonlinearModel, box: Box, cert: NonlinearCertificate,
                          slack: float = 0.0, vertices=None) -> VerificationReport:
    """Vertex-check the constant-metric pair conditions on the box.

    Accepts iff both metric inequalities hold at every envelope vertex with
    margin below slack * ||P_i||_2 and mu1 + (k-1) mu0 < 0. Inertia mismatches
    reject with the condition named; only dimension mismatches raise.
    """
    n = model.dim
    P0 = check_symmetric(cert.P0, "P0")
    P1 = check_symmetric(cert.P1, "P1")
    if P0.shape != (n, n) or P1.shape != (n, n):
        raise ValueError(f"certificate matrices must be {n}x{n}")
    k = cert.k
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    verts = envelope_vertices(model, box) if vertices is None else np.asarray(vertices, float)
    if len(verts) == 0:
        raise ValueError("no envelope vertex to check")

    problems = []
    in0 = inertia_symmetric(P0)
    in1 = inertia_symmetric(P1)
    if in0 != (0, 0, n):
        problems.append(f"P0 inertia {tuple(in0)} != required (0, 0, {n})")
    if in1 != (k - 1, 0, n - k + 1):
        problems.append(
            f"P1 inertia {tuple(in1)} != required ({k - 1}, 0, {n - k + 1})"
        )

    m0, v0 = _worst(metric_condition_margin(P0, verts, cert.mu0))
    m1, v1 = _worst(metric_condition_margin(P1, verts, cert.mu1))
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
            "certifying": True,  # vertex checks always certify the box; kept for readers
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
    worst, arg = _worst(
        np.linalg.eigvalsh(sym(Q @ additive_compound(verts, k)) + shift).max(axis=-1))
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
    worst_a, va = _worst(design_margin(verts, B, W0, mu0))
    worst_b, vb = _worst(design_margin(verts - shift, B, W1, mu1))
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
# convex certificate search (failure is a legitimate outcome)
# ---------------------------------------------------------------------------

BARRIER_GAP = 1e-9      # stop once the duality gap bound (blocks * n) / c is below this
BARRIER_GROWTH = 5.0    # factor on c between centerings; 20 stalls Newton on thin LMIs
NEWTON_CAP = 500        # Newton steps per centering


def solve_metric_lmi(verts, mu):
    """(P, t*) minimizing t subject to sym(P (J_v - mu I)) <= t I at every vertex
    and -I <= P <= I.

    Each J_v - mu I is scaled to unit Frobenius norm, which keeps the sign of
    t* and the feasible metrics. A log-barrier Newton method on (vech P, t)
    starts from the strictly feasible point P = 0, t = 1 and follows the
    central path until the duality gap is below BARRIER_GAP. t* < 0 means P
    meets every vertex condition strictly, and then (Ostrowski-Schneider) P
    has the inertia that the vertex spectra force. A vertex set whose
    tensors would hold more than MAX_LMI_ENTRIES entries raises ValueError
    before any is built.
    """
    V, n = len(verts), len(verts[0])
    entries = (V + 2) * (n * (n + 1) // 2 + 1) * n * n
    if entries > MAX_LMI_ENTRIES:
        raise ValueError(f"{V} vertices of size {n} need {entries} LMI entries, above the "
                         f"cap of {MAX_LMI_ENTRIES}")
    A = np.asarray(verts, dtype=float)
    A = A - mu * np.eye(n)
    norms = np.linalg.norm(A, axis=(1, 2))
    A = A / np.where(norms > 0, norms, 1.0)[:, None, None]
    rows, cols = np.triu_indices(n)
    m = len(rows)
    E = np.zeros((m, n, n))  # basis of the symmetric matrices, P = sum z_i E_i
    E[np.arange(m), rows, cols] = E[np.arange(m), cols, rows] = 1.0
    EA = E @ A[:, None]
    # block b is S_b(z) = C_b + sum_j z_j G_bj with z = (vech P, t): t I - sym(P A_v)
    # per vertex, then I - P and I + P
    G = np.zeros((V + 2, m + 1, n, n))
    G[:V, :m] = -0.5 * (EA + EA.transpose(0, 1, 3, 2))
    G[:V, m] = np.eye(n)
    G[V, :m], G[V + 1, :m] = -E, E
    C = np.zeros((V + 2, n, n))
    C[V:] = np.eye(n)

    def barrier(z):
        """(-sum_b log det S_b(z), S), or (inf, None) outside the feasible set."""
        S = C + np.tensordot(z, G, axes=(0, 1))
        try:
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return np.inf, None
        return -2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(), S

    z = np.zeros(m + 1)
    z[m] = 1.0
    phi, S = barrier(z)
    c = 1.0
    while True:
        for _ in range(NEWTON_CAP):
            X = np.linalg.inv(S)[:, None] @ G
            grad = -np.einsum("bjkk->j", X)
            grad[m] += c
            hess = np.tensordot(X, X.transpose(0, 1, 3, 2), axes=([0, 2, 3], [0, 2, 3]))
            step = -np.linalg.solve(hess, grad)
            decrement = -grad @ step
            if decrement < 2e-10:
                break
            s, f0 = 1.0, c * z[m] + phi
            while s > 1e-12:
                phi_s, S_s = barrier(z + s * step)
                if c * (z[m] + s * step[m]) + phi_s <= f0 - 0.25 * s * decrement:
                    break
                s *= 0.5
            else:
                break  # no descent left at working precision
            z, phi, S = z + s * step, phi_s, S_s
        if (V + 2) * n / c < BARRIER_GAP:
            break
        c *= BARRIER_GROWTH
    P = np.zeros((n, n))
    P[rows, cols] = P[cols, rows] = z[:m]
    return P, float(z[m])


def search_nl_certificate(model: NonlinearModel, box: Box, k: int):
    """Convex search for a constant-metric certificate on the box.

    Rate candidates come from the windows the vertex spectra allow; each metric
    of a candidate is one solve_metric_lmi, and the candidate fails when
    either t* >= 0.
    Returns an accepted NonlinearCertificate or None; the result is gated
    through verify_nl_certificate at slack 0 against the same vertex set, so a
    returned certificate is always genuinely valid. None is an honest failure,
    never fabricated.
    """
    n = model.dim
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    verts = envelope_vertices(model, box)

    # pointwise-necessary windows for the rates, from vertex spectra
    res = np.sort(np.linalg.eigvals(verts).real, axis=1)[:, ::-1]
    rmax = res[:, 0].max()
    if k >= 2:
        lo1 = res[:, k - 1].max()   # mu1 must sit above the k-th largest everywhere
        hi1 = res[:, k - 2].min()   # ... and below the (k-1)-th largest
    else:
        lo1, hi1 = -np.inf, np.inf

    candidates = []
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

    for mu0, mu1 in candidates:
        if not mu1 + (k - 1) * mu0 < 0:
            continue
        P0, t0 = solve_metric_lmi(verts, mu0)
        P1, t1 = solve_metric_lmi(verts, mu1)
        if t0 < 0 and t1 < 0:
            cert = NonlinearCertificate(P0=P0, P1=P1, mu0=float(mu0), mu1=float(mu1), k=k)
            report = verify_nl_certificate(model, box, cert, slack=0.0, vertices=verts)
            if report.verdict:
                return cert
    return None
