"""Necessary-and-sufficient k-contraction machinery for LTI systems.

The spectral test sums the k largest eigenvalue real parts; the certificate
route realizes the same property through a family of generalized Lyapunov
inequalities A'P_i + P_i A < 2 mu_i P_i with prescribed inertia of each P_i
and a weighted rate budget sum(h_i mu_i) <= 0.

Margins for a generalized inequality are always reported in the rate-
normalized half form: margin = lambda_max(sym(P (A - mu I))). A condition
holds strictly iff its margin is negative; relative slack s accepts margins
below s * ||P||_2.
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
    solve_lyapunov,
    spectral_norm,
    sym,
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

    ell rates mu_0 > ... > mu_{ell-1}, breakpoints d_0 = 0 < d_1 < ... <
    d_{ell-1} <= k-1 plus the closing d_ell <= k, weights h_i = d_{i+1} - d_i,
    and symmetric matrices P_i of inertia (d_i, 0, n - d_i).

    Synthesis stores its W_i in the same record with colinear=True: the W_i
    share one controllable-block factor, so B'W_i^{-1} is the same for all i.
    """

    ell: int
    mus: list
    ds: list
    mats: list
    k: int
    colinear: bool = False

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


def k_contractive_lti(A, k: int):
    """(verdict, margin): margin is the top-k real-part sum.

    A is k-contractive iff the margin is below -SPECTRAL_RTOL * max(max|lambda|, 1),
    so a sum that is zero up to rounding rejects.
    """
    vals = eigenvalues(as_square(A, "A"))
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


def shifted_inertia_certificate(A, mu: float) -> np.ndarray:
    """Solve (A - mu I)'P + P(A - mu I) = -I.

    The result has inertia (p, 0, n - p) with p the number of eigenvalues of A
    with real part above mu, and satisfies A'P + PA < 2 mu P strictly.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    vals = eigenvalues(A)
    scale = max(np.abs(vals).max() if n else 0.0, 1.0)
    if any(abs(v.real - mu) <= 1e-9 * scale for v in vals):
        raise NumericalError(f"mu={mu:.6g} lies on the real-part set of the spectrum")
    # a resonance lambda_i + lambda_j = 2 mu with mu strictly between real-part
    # groups leaves the shifted system singular but consistent; the
    # minimum-norm solution keeps the inertia property
    return solve_lyapunov(A - mu * np.eye(n), np.eye(n), allow_consistent_singular=True)


def _condition_margin(A, P, mu) -> float:
    """Half-form margin of A'P + PA < 2 mu P."""
    return float(np.linalg.eigvalsh(sym(P @ (A - mu * np.eye(len(A))))).max())


def build_certificate(A, k: int) -> ContractionCertificate:
    """Construct a certificate for a k-contractive A.

    Takes the first staged_rates candidate whose shifted Lyapunov solves all
    succeed. Every certificate is gated through the verifier; if a grouping
    tolerance proves too fine for a defective cluster, the construction
    retries with a coarser one; a coarser tolerance that groups the real
    parts as, bit for bit, one already tried is not retried, and fails as
    that grouping did.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    contractive, margin = k_contractive_lti(A, k)
    if not contractive:
        raise ValueError(
            f"system is not {k}-contractive: top-{k} real-part sum = {margin:.6g} "
            "is not negative beyond rounding"
        )
    vals = eigenvalues(A)
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
                if verify_certificate(A, k, cert).verdict:
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
            mats = [shifted_inertia_certificate(A, mu) for mu in mus]
        except NumericalError as exc:
            last_err = exc
            continue
        return ContractionCertificate(ell=len(mus), mus=mus, ds=ds, mats=mats, k=k)
    raise NumericalError(
        f"could not select a nondegenerate rate offset after {EPSILON_HALVINGS} halvings"
        + (f" (last error: {last_err})" if last_err else "")
    )


def verify_certificate(A, k: int, cert: ContractionCertificate, slack: float = 0.0) -> VerificationReport:
    """Check a certificate against the staged generalized Lyapunov conditions.

    Structural violations (inertia, breakpoint ordering, rate budget) reject;
    only dimension mismatches raise. slack is relative: condition i accepts
    when its margin is below slack * ||P_i||_2.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    if cert.ell != len(cert.mus) or cert.ell != len(cert.mats) or len(cert.ds) != cert.ell + 1:
        raise ValueError("certificate field lengths are inconsistent")
    for P in cert.mats:
        if np.asarray(P).shape != (n, n):
            raise ValueError("certificate matrix dimension does not match A")

    margins = []
    problems = []
    ds = cert.ds
    if ds[0] != 0 or any(ds[i] >= ds[i + 1] for i in range(cert.ell)):
        problems.append(f"breakpoints not strictly increasing from 0: {ds}")
    if cert.ell >= 1 and ds[cert.ell - 1] > k - 1:
        problems.append(f"d_{cert.ell - 1}={ds[cert.ell - 1]} exceeds k-1={k - 1}")
    if ds[cert.ell] > k:
        problems.append(f"closing breakpoint d_ell={ds[cert.ell]} exceeds k={k}")

    for i, (P, mu, d) in enumerate(zip(cert.mats, cert.mus, cert.ds)):
        P = check_symmetric(P, f"P_{i}")
        inertia = inertia_symmetric(P)
        if inertia != (d, 0, n - d):
            problems.append(
                f"P_{i} inertia {tuple(inertia)} != required ({d}, 0, {n - d})"
            )
        m = _condition_margin(A, P, mu)
        margins.append((f"P_{i}", m))
        if not m < slack * max(spectral_norm(P), 1e-300):
            problems.append(f"condition P_{i} margin {m:.6g} not below slack")

    rate = cert.rate_sum
    margins.append(("rate_sum", rate))
    if rate > 0:
        problems.append(f"weighted rate sum {rate:.6g} > 0")

    verdict = not problems
    return VerificationReport(
        verdict=verdict,
        margins=margins,
        diagnostics="; ".join(problems) if problems else f"all conditions hold (slack={slack:g})",
        data={"slack": slack},
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
