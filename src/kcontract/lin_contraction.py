"""Necessary-and-sufficient k-contraction machinery for LTI systems.

The spectral test sums the k largest eigenvalue real parts; the certificate
route realizes the same property through a family of generalized Lyapunov
inequalities A'P_i + P_i A < 2 mu_i P_i with prescribed inertia of each P_i
and a weighted rate sum sum(h_i mu_i) < 0. The nonlinear constant-metric
pair is the same certificate with ell = 2 and ds = [0, k-1, k], checked at
every vertex of a Jacobian envelope instead of at one A: verify_certificate
takes one A or a (V, n, n) stack of them.

Margins for a generalized inequality are reported in the rate-normalized
half form: margin = lambda_max(sym(P J) - mu P) at each J, the worst over
the stack. A condition holds strictly iff its margin is negative; relative
slack s accepts margins below s * ||P||_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkernel import (
    SPECTRAL_RTOL,
    NumericalError,
    as_square,
    check_symmetric,
    eigenvalues,
    inertia_symmetric,
    resonant_pair,
    solve_lyapunov_symmetric,
    spectral_norm,
    sym,
    worst_margin,
)

REAL_PART_GROUP_RTOL = 1e-8
# defective eigenvalue clusters come out of the eigensolver spread by up to
# ~||A|| * eps_machine^(1/chain); coarser regroups recover them
GROUP_RTOL_LADDER = (REAL_PART_GROUP_RTOL, 3e-7, 1e-5, 3e-4)
EPSILON_HALVINGS = 40
# a rate this close to a pair midpoint makes the shifted solution blow up
RESONANCE_RTOL = 1e-6
# the most decimal digits of an N1 that variable_counts computes: the JSON
# encoder's default limit, fixed here whatever PYTHONINTMAXSTRDIGITS says
MAX_COUNT_DIGITS = 4300


@dataclass
class ContractionCertificate:
    """Data realizing the generalized Lyapunov test for k-contraction.

    ell rates mu_0 > ... > mu_{ell-1}, breakpoints d_0 = 0 <= d_1 <= ... <=
    d_{ell-1} <= k-1 plus the closing d_ell <= k, weights h_i = d_{i+1} - d_i,
    and symmetric matrices P_i of inertia (d_i, 0, n - d_i). A stage of
    weight 0 is still checked and adds nothing to the rate sum.

    The nonlinear constant-metric pair (pair) is ell = 2, ds = [0, k-1, k]:
    P0 > 0 at rate mu0 and P1 of inertia (k-1, 0, n-k+1) at mu1, read back
    through the P0, P1, mu0 and mu1 properties.

    Synthesis stores its W_i in the same record with colinear=True: the W_i
    share one controllable-block factor, so B'W_i^{-1} is the same for all i.

    report is the slack-0 report that build_certificate's gate accepted (None
    otherwise); it is not part of the data: not compared, shown or serialized.
    """

    ell: int
    mus: list
    ds: list
    mats: list
    k: int
    colinear: bool = False
    report: VerificationReport | None = field(default=None, compare=False, repr=False)

    @classmethod
    def pair(cls, P0, P1, mu0, mu1, k: int) -> ContractionCertificate:
        return cls(ell=2, mus=[mu0, mu1], ds=[0, k - 1, k], mats=[P0, P1], k=k)

    P0 = property(lambda self: self.mats[0])
    P1 = property(lambda self: self.mats[1])
    mu0 = property(lambda self: self.mus[0])
    mu1 = property(lambda self: self.mus[1])

    @property
    def weights(self):
        return [self.ds[i + 1] - self.ds[i] for i in range(self.ell)]

    @property
    def rate_sum(self):
        return float(sum(h * mu for h, mu in zip(self.weights, self.mus)))


@dataclass
class VerificationReport:
    """Accept/reject outcome with per-condition margins.

    margins is a list of (condition label, margin) pairs; a strict condition
    holds when its margin is below the slack threshold recorded in
    diagnostics. data carries machine-readable extras (worst vertices, ...).
    """

    verdict: bool
    margins: list
    diagnostics: str = ""
    data: dict = field(default_factory=dict)

    def margin(self, label):
        for lab, m in self.margins:
            if lab == label:
                return m
        raise KeyError(label)


def k_contractive_lti(A, k: int, vals=None):
    """(verdict, margin): margin is the top-k real-part sum.

    A is k-contractive iff the margin is below -SPECTRAL_RTOL * max(max|lambda|, 1),
    so a sum that is zero up to rounding rejects. vals is eigenvalues(A) when
    the caller has it already.
    """
    vals = eigenvalues(as_square(A, "A")) if vals is None else vals
    if not 1 <= k <= len(vals):
        raise ValueError(f"k={k} out of range for spectrum of size {len(vals)}")
    margin = float(vals.real[:k].sum())
    return margin < -SPECTRAL_RTOL * max(np.abs(vals).max(), 1.0), margin


def group_real_parts(values, rtol: float = REAL_PART_GROUP_RTOL):
    """Distinct real parts alpha_1 > ... > alpha_q with multiplicities h_bar.

    Two eigenvalues share a bucket when their real parts differ by less than
    rtol * (1 + |alpha|); returns (alphas, h_bars, d_bars) with d_bar_0 = 0 and
    d_bar_i the count of eigenvalues strictly above bucket i.
    """
    re = np.sort(np.asarray([v.real for v in values]))[::-1]
    alphas, hbars = [], []
    for r in re:
        if alphas and abs(r - alphas[-1]) < rtol * (1.0 + abs(alphas[-1])):
            hbars[-1] += 1
        else:
            alphas.append(float(r))
            hbars.append(1)
    dbars = [0]
    for h in hbars[:-1]:
        dbars.append(dbars[-1] + h)
    return alphas, hbars, dbars


def shifted_inertia_certificate(A, mu: float, vals=None) -> np.ndarray:
    """Solve (A - mu I)'P + P(A - mu I) = -I on the symmetric unknowns.

    The result has inertia (p, 0, n - p) with p the number of eigenvalues of A
    with real part above mu, and satisfies A'P + PA < 2 mu P strictly. vals
    is eigenvalues(A) when the caller has it already.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    vals = eigenvalues(A) if vals is None else vals
    scale = max(np.abs(vals).max() if n else 0.0, 1.0)
    if np.any(np.abs(vals.real - mu) <= 1e-9 * scale):
        raise NumericalError(f"mu={mu:.6g} lies on the real-part set of the spectrum")
    # a resonance lambda_i + lambda_j = 2 mu with mu strictly between real-part
    # groups leaves the shifted system singular but consistent; the
    # minimum-norm solution keeps the inertia property. vals - mu stands for
    # the spectrum of A - mu I, so the solve takes no spectrum of its own
    return solve_lyapunov_symmetric(A - mu * np.eye(n), np.eye(n), vals - mu)


def build_certificate(A, k: int) -> ContractionCertificate:
    """Construct a certificate for a k-contractive A.

    Takes the first staged_rates candidate whose shifted Lyapunov solves all
    succeed, all on one spectrum of A. Every certificate is gated through the
    verifier at slack 0, and keeps the report it passed with; if a grouping
    tolerance proves too fine for a defective cluster, the construction
    retries with a coarser one; a coarser tolerance that groups the real
    parts as, bit for bit, one already tried is not retried, and fails as
    that grouping did.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    vals = eigenvalues(A)
    contractive, margin = k_contractive_lti(A, k, vals)
    if not contractive:
        raise ValueError(
            f"system is not {k}-contractive: top-{k} real-part sum = {margin:.6g} "
            "is not negative beyond rounding"
        )
    last_err = None
    failed = {}  # the exact bits of each grouping tried -> the error it raised
    for rtol in GROUP_RTOL_LADDER:
        alphas, hbars, _ = group_real_parts(vals, rtol)
        key = (tuple(a.hex() for a in alphas), tuple(hbars))
        if key not in failed:
            try:
                cert = _build_with_grouping(A, k, vals, rtol)
            except NumericalError as exc:
                failed[key] = exc
            else:
                report = verify_certificate(A, k, cert)
                if report.verdict:
                    cert.report = report
                    return cert
                failed[key] = None  # its message names each rung's own tolerance
        last_err = failed[key] or NumericalError(
            f"certificate at grouping tolerance {rtol:g} failed verification"
        )
    raise NumericalError(
        f"certificate construction failed for a {k}-contractive system"
        + (f" (last error: {last_err})" if last_err else "")
    )


def staged_rates(vals, k: int, n: int, rtol: float):
    """Yield each admissible (mus, ds) of the staged rate schedule, in order.

    Groups the real parts of vals at tolerance rtol, keeps the groups that
    intersect [0, k-1] and sets mu_i = alpha_i + eps. eps starts at
    min(0.45 gap, |budget|/(k+n)) and is halved after every candidate; a
    candidate is yielded only while the weighted budget stays nonpositive and
    no rate sits near a pair midpoint of vals. Raises NumericalError when the
    grouped budget is not negative.
    """
    alphas, hbars, dbars = group_real_parts(vals, rtol=rtol)
    in_range = [d for d in dbars if d <= k - 1]
    p_k = max(in_range)
    c_k = len(in_range)
    # budget = (k - p_k) alpha_{c_k} + sum_{i<c_k-1} hbar_i alpha_{i+1}; this
    # equals the top-k real-part sum when the grouping is exact
    budget = (k - p_k) * alphas[c_k - 1] + sum(
        hbars[i] * alphas[i] for i in range(c_k - 1)
    )
    if budget >= 0:
        raise NumericalError("grouped rate budget is not negative")
    gaps = [alphas[i] - alphas[i + 1] for i in range(len(alphas) - 1)]
    # strictly below half the smallest gap: pair midpoints make the shifted
    # Lyapunov system resonant
    eps = abs(budget) / (k + n)
    if gaps:
        eps = min(0.45 * min(gaps), eps)
    ds = dbars[:c_k] + [k - p_k + dbars[c_k - 1]]
    for _ in range(EPSILON_HALVINGS):
        mus = [alphas[i] + eps for i in range(c_k)]
        if budget + eps * k <= 0 and all(
                resonant_pair(vals, mu, RESONANCE_RTOL) is None for mu in mus):
            yield mus, ds
        eps *= 0.5


def _build_with_grouping(A, k, vals, rtol) -> ContractionCertificate:
    last_err = None
    for mus, ds in staged_rates(vals, k, A.shape[0], rtol):
        try:
            mats = [shifted_inertia_certificate(A, mu, vals) for mu in mus]
        except NumericalError as exc:
            last_err = exc
            continue
        return ContractionCertificate(ell=len(mus), mus=mus, ds=ds, mats=mats, k=k)
    raise NumericalError(
        f"could not select a nondegenerate rate offset after {EPSILON_HALVINGS} halvings"
        + (f" (last error: {last_err})" if last_err else "")
    )


def metric_condition_margin(P, J, mu):
    """Half-form margin lambda_max(sym(P J) - mu P) of J'P + PJ < 2 mu P: a float
    at one J, else one margin per matrix of the broadcast stack."""
    margin = np.linalg.eigvalsh(sym(P @ J) - mu * P).max(axis=-1)
    return margin if margin.ndim else float(margin)


def verify_certificate(A, k: int, cert: ContractionCertificate, slack: float = 0.0) -> VerificationReport:
    """Check a certificate against the staged generalized Lyapunov conditions.

    A is one matrix or a (V, n, n) stack of envelope vertices; each condition
    must hold at every vertex, and the report names its worst vertex (the
    first NaN margin, else the first largest). Structural violations (no
    rates, inertia, breakpoint ordering, a rate sum that is not negative)
    reject; only dimension mismatches and an empty stack raise. slack is
    relative: condition i accepts when its margin is below slack * ||P_i||_2,
    a norm taken only at a nonzero slack. One eigvalsh over the P_i stack
    gives the inertias, and one over the (ell, V) stack of sym(P_i J_v) -
    mu_i P_i the margins, each with the bytes of its own call.
    """
    J = np.asarray(A, dtype=float)
    J = as_square(J, "A")[None] if J.ndim == 2 else J
    if J.ndim != 3 or J.shape[1] != J.shape[2]:
        raise ValueError(f"A must be square or a (V, n, n) stack, got shape {J.shape}")
    if not len(J):
        raise ValueError("no envelope vertex to check")
    n = J.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    ell, ds = cert.ell, cert.ds
    if ell != len(cert.mus) or ell != len(cert.mats) or len(ds) != ell + 1:
        raise ValueError("certificate field lengths are inconsistent")
    if any(np.shape(P) != (n, n) for P in cert.mats):
        raise ValueError("certificate matrix dimension does not match A")

    problems = []
    if ell < 1:
        problems.append(f"no rates: ell={ell}, a certificate needs ell >= 1")
    if ds[0] != 0 or any(ds[i] > ds[i + 1] for i in range(ell)):
        problems.append(f"breakpoints not nondecreasing from 0: {ds}")
    if ell >= 1 and ds[ell - 1] > k - 1:
        problems.append(f"d_{ell - 1}={ds[ell - 1]} exceeds k-1={k - 1}")
    if ds[ell] > k:
        problems.append(f"closing breakpoint d_ell={ds[ell]} exceeds k={k}")

    Ps = np.array([check_symmetric(P, f"P{i}") for i, P in enumerate(cert.mats)]).reshape(ell, n, n)
    for i, (inertia, d) in enumerate(zip(inertia_symmetric(Ps), ds)):
        if inertia != (d, 0, n - d):
            problems.append(f"P{i} inertia {tuple(inertia)} != required ({d}, 0, {n - d})")
    mus = np.asarray(cert.mus, dtype=float).reshape(ell, 1, 1, 1)
    worst = [worst_margin(row) for row in metric_condition_margin(Ps[:, None], J, mus)]
    for i, (P, (m, v)) in enumerate(zip(Ps, worst)):
        thr = slack * max(spectral_norm(P), 1e-300) if slack else 0.0
        if not m < thr:
            problems.append(f"P{i} condition margin {m:.6g} at vertex {v} not below {thr:.6g}")
    rate = cert.rate_sum
    if not rate < 0:
        problems.append(f"rate sum sum_i h_i mu_i = {rate:.6g} not negative")

    planar = (n == 2 and k == 2)
    notes = problems + (["planar case: box compactness not required for the conclusion"]
                        if planar else [])
    return VerificationReport(
        verdict=not problems,
        margins=[(f"P{i}", m) for i, (m, _) in enumerate(worst)] + [("rate_sum", rate)],
        diagnostics="; ".join(notes) if notes else f"all conditions hold (slack={slack:g})",
        data={
            "worst_vertex": {f"P{i}": v for i, (_, v) in enumerate(worst)},
            "slack": slack,
            "planar": planar,
            "n_vertices": len(J),
            "certifying": True,  # vertex checks always certify the box; kept for readers
        },
    )


def variable_counts(n: int, k: int):
    """(N1, N2): unknown counts for the compound-LMI route vs the staged route.
    ValueError, before N1 is computed, for one past MAX_COUNT_DIGITS digits."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    # log10 N1 > 2 log10 C(n, r) - log10 2 for r = min(k, n - k); C(n, r) >= 2^r
    # bounds it at once, so at most a few thousand logarithms are summed
    r = min(k, n - k)
    log_c = r * math.log10(2)
    if 2 * log_c <= MAX_COUNT_DIGITS + 2:
        log_c = (math.fsum(map(math.log10, range(n - r + 1, n + 1)))
                 - math.lgamma(r + 1) / math.log(10))
    # a digit of margin: rounding in the estimate never refuses an N1 that prints
    if 2 * log_c - math.log10(2) > MAX_COUNT_DIGITS + 1:
        raise ValueError(f"N1 for n={n}, k={k} has more than {MAX_COUNT_DIGITS} digits")
    c = math.comb(n, k)
    n1 = c * (c + 1) // 2 + 1
    n2 = k * n * (n - 1) // 2 + k
    return n1, n2
