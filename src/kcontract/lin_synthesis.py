"""k-order stabilizability and k-contractive feedback synthesis.

The decomposition splits the state space into the controllable subspace and
its orthogonal complement (staircase form); stabilizability of order k asks
the uncontrollable block to be k-contractive or smaller than k. Certificates
are built blockwise: a shifted controllability Gramian on the controllable
block, inertia-constrained Lyapunov solutions on the uncontrollable block,
glued with a small coupling weight kappa found by bisection. All W_i share
the Gramian block, which forces the colinearity B'W_i^{-1} = B'W_0^{-1} and
a single gain K = (rho/2) B'W_0^{-1} with infinite gain margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lin_contraction import (
    GROUP_RTOL_LADDER,
    ContractionCertificate,
    k_contractive_lti,
    shifted_inertia_certificate,
    staged_rates,
)
from .numkernel import (
    NumericalError,
    as_square,
    eigenvalues,
    inertia_symmetric,
    solve_lyapunov,
    spectral_norm,
    sym,
)

RANK_CUTOFF = 1e-10
KAPPA_HALVINGS = 60


@dataclass
class KalmanDecomposition:
    """Orthogonal staircase form: z = T x, T A T' = [[Ac, *], [0, Au]]; spectrum_u
    is eigenvalues(Au), computed once for the stabilizability test and every rung."""

    T: np.ndarray
    Ac: np.ndarray
    Au: np.ndarray
    Bc: np.ndarray
    nc: int
    nu: int

    @cached_property
    def spectrum_u(self) -> np.ndarray:
        return eigenvalues(as_square(self.Au, "A"))


def controllability_matrix(A, B) -> np.ndarray:
    A = as_square(A, "A")
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def kalman_decompose(A, B) -> KalmanDecomposition:
    """Orthogonal change of basis isolating the controllable subspace.

    The basis is the left singular vectors of the controllability matrix,
    with rank cutoff 1e-10 * sigma_max; nu = 0 (fully controllable) is
    admitted, as is nc = 0 (B = 0).
    """
    A = as_square(A, "A")
    n = A.shape[0]
    B = np.asarray(B, dtype=float).reshape(n, -1)
    C = controllability_matrix(A, B)
    # with n*m >= n columns the reduced SVD's U is n x n, and it forms no
    # (n*m) x (n*m) right factor; only a B with no column needs a full one
    U, s, _ = np.linalg.svd(C, full_matrices=not B.shape[1])
    rank = int(np.sum(s > RANK_CUTOFF * s[0])) if s.size and s[0] > 0 else 0
    T = U.T  # z = T x
    At = T @ A @ T.T
    Bt = T @ B
    return KalmanDecomposition(
        T=T,
        Ac=At[:rank, :rank],
        Au=At[rank:, rank:],
        Bc=Bt[:rank, :],
        nc=rank,
        nu=n - rank,
    )


def k_order_stabilizable(A, B, k: int):
    """(verdict, diagnostics): feasible iff nu < k or the uncontrollable block
    is k-contractive."""
    A = as_square(A, "A")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    return _stabilizable(kalman_decompose(A, B), k)


def _stabilizable(dec: KalmanDecomposition, k: int):
    """k_order_stabilizable's verdict and diagnostics for a decomposed pair."""
    if dec.nu < k:
        return True, {"nu": dec.nu, "reason": f"uncontrollable dimension {dec.nu} < k={k}"}
    contractive, margin = k_contractive_lti(dec.Au, k, dec.spectrum_u)
    return contractive, {
        "nu": dec.nu,
        "uncontrollable_topk_sum": margin,
        "reason": f"uncontrollable block top-{k} real-part sum = {margin:.6g}",
    }


def _gramian_block(Ac, Bc, mu):
    """W_c > 0 with W_c(Ac - mu I)' + (Ac - mu I)W_c - Bc Bc' = -2 gamma W_c."""
    nc = Ac.shape[0]
    if nc == 0:
        return np.zeros((0, 0))
    Ahat = Ac - mu * np.eye(nc)
    gamma = max(1.0, 1.0 - eigenvalues(Ahat).real.min())
    M = -gamma * np.eye(nc) - Ahat  # Hurwitz with margin >= 1 by construction
    Wc = solve_lyapunov(M.T, Bc @ Bc.T)
    w = np.linalg.eigvalsh(Wc)
    if w[0] <= 0:
        raise NumericalError(
            "controllable-block Gramian is not positive definite "
            f"(lambda_min = {w[0]:.3e}); controllability detection failed"
        )
    return Wc


def design_margin(A, B, W, mu):
    """Half-form margin of W A' + A W - B B' < 2 mu W: a float at one A, one
    margin per matrix of a (V, n, n) stack."""
    BBt = B @ B.T
    margin = np.linalg.eigvalsh(sym(A @ W) - 0.5 * BBt - mu * W).max(axis=-1)
    return margin if margin.ndim else float(margin)


def _assemble(dec: KalmanDecomposition, A, B, Wc, mu):
    """Glue blockdiag(Wc, kappa Wu), halving kappa until the inequality holds.

    Wu solves Wu(Au - mu I)' + (Au - mu I)Wu = -I, so its inertia matches the
    eigenvalue split of Au around mu. Blocks are balanced to comparable norms
    first so the assembled matrix stays well-conditioned and its inertia is
    numerically unambiguous.

    The halvings are checked in chunks of 1, 2, 4, ... as one (m, n, n)
    stack each, and the first W with a negative margin is returned. Each
    kappa * 0.5**i is exact, and a stacked matmul and eigvalsh give each
    matrix the bytes of its own call, so W is the one the halvings one by
    one would give. A first kappa that holds costs one check, as before;
    all 60 halvings, which most pairs at n >= 12 run before they reject,
    took 0.2 / 0.6 / 1.4 ms at n = 4 / 12 / 20 against 1.0 / 1.4 / 2.4 ms
    one by one (2-core x86-64).
    """
    n = dec.nc + dec.nu
    Wu = np.zeros((0, 0))
    if dec.nu:
        # Au' has the spectrum of Au, which the decomposition holds already
        Wu = shifted_inertia_certificate(dec.Au.T, mu, dec.spectrum_u)
        Wu = Wu / spectral_norm(Wu)
    kappa = spectral_norm(Wc) if Wc.size else 1.0
    kappa = max(kappa, 1e-8)
    # without an uncontrollable block W does not depend on kappa: one check
    halvings, start = KAPPA_HALVINGS if dec.nu else 1, 0
    while start < halvings:
        kappas = kappa * 0.5 ** np.arange(start, min(2 * start + 1, halvings))
        Wz = np.zeros((len(kappas), n, n))
        Wz[:, :dec.nc, :dec.nc] = Wc
        Wz[:, dec.nc:, dec.nc:] = kappas[:, None, None] * Wu
        W = dec.T.T @ Wz @ dec.T
        holds = np.flatnonzero(design_margin(A, B, W, mu) < 0)
        if holds.size:
            return W[holds[0]].copy()
        start += len(kappas)
    raise NumericalError(
        f"coupling weight bisection exhausted after {KAPPA_HALVINGS} halvings at mu={mu:.6g}"
    )


def construct_W(A, B, mu: float) -> np.ndarray:
    """One solution of W A' + A W - B B' < 2 mu W with inertia fixed by mu.

    Requires mu off the real-part set of the uncontrollable block; the result
    has inertia (rho, 0, n - rho) with rho the count of uncontrollable
    eigenvalues with real part above mu.
    """
    A = as_square(A, "A")
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    dec = kalman_decompose(A, B)
    return _assemble(dec, A, B, _gramian_block(dec.Ac, dec.Bc, mu), mu)


def stabilizability_certificate(A, B, k: int) -> ContractionCertificate:
    """Construct certificate data for a k-order stabilizable pair.

    Rates and breakpoints come from the grouped real parts of the
    uncontrollable block; when k exceeds its dimension nu >= 1, the two-rate
    branch applies with mu_0 above the whole block spectrum and mu_1 closing
    the budget nu mu_0 + mu_1 <= -1. All W_i share the controllable-block
    Gramian built at the smallest rate, which yields colinearity. A grouping
    tolerance whose schedule (mus, ds) equals, bit for bit, one already tried
    is not retried: it fails as that schedule did.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    B = np.asarray(B, dtype=float).reshape(n, -1)
    dec = kalman_decompose(A, B)
    feasible, diag = _stabilizable(dec, k)
    if not feasible:
        raise ValueError(f"pair is not {k}-order stabilizable: {diag['reason']}")

    last_err = None
    failed = {}  # the exact bits of each schedule tried -> the error it raised
    for rtol in GROUP_RTOL_LADDER:
        try:
            mus, ds = _rate_schedule(dec, k, n, rtol)
        except NumericalError as exc:
            last_err = exc
            continue
        key = (tuple(float(mu).hex() for mu in mus), tuple(ds))
        if key not in failed:
            try:
                cert = _assemble_certificate(dec, A, B, k, mus, ds)
                _validate_certificate(A, B, cert)
                return cert
            except NumericalError as exc:
                failed[key] = exc
        last_err = failed[key]
    raise NumericalError(f"certificate construction failed: {last_err}")


def _rate_schedule(dec: KalmanDecomposition, k, n, rtol):
    nu = dec.nu
    if nu == 0:
        return [0.0], [0, k]
    if k > nu:
        vals_u = dec.spectrum_u.real
        mu0 = float(vals_u.max() + 1.0)
        mu1 = float(min(-nu * mu0, vals_u.min()) - 1.0)
        return [mu0, mu1], [0, nu, nu + 1]
    rates = next(staged_rates(dec.spectrum_u, k, n, rtol), None)
    if rates is None:
        raise NumericalError("could not select a nondegenerate rate offset")
    return rates


def _assemble_certificate(dec, A, B, k, mus, ds) -> ContractionCertificate:
    Wc = _gramian_block(dec.Ac, dec.Bc, min(mus))
    mats = [_assemble(dec, A, B, Wc, mu) for mu in mus]
    return ContractionCertificate(
        ell=len(mus), mus=[float(m) for m in mus], ds=ds, mats=mats, k=k, colinear=True,
    )


def _validate_certificate(A, B, cert: ContractionCertificate):
    n = A.shape[0]
    B = np.asarray(B, dtype=float).reshape(n, -1)
    for i, (W, mu, d) in enumerate(zip(cert.mats, cert.mus, cert.ds)):
        # W is nonsingular by construction; a tight zero tolerance keeps a
        # small coupling weight from masquerading as a zero eigenvalue
        inertia = inertia_symmetric(W, zero_tol=1e-13)
        if inertia != (d, 0, n - d):
            raise NumericalError(
                f"W_{i} inertia {tuple(inertia)} != required ({d}, 0, {n - d})"
            )
        m = design_margin(A, B, W, mu)
        if not m < 0:
            raise NumericalError(f"design inequality {i} violated (margin {m:.3e})")
    if cert.rate_sum > 0:
        raise NumericalError(f"rate budget violated: {cert.rate_sum:.6g} > 0")
    if cert.colinear and spectral_norm(B) > 0:
        rows0 = B.T @ np.linalg.inv(cert.mats[0])
        scale = max(spectral_norm(rows0), 1e-300)
        for i, W in enumerate(cert.mats[1:], start=1):
            dev = spectral_norm(B.T @ np.linalg.inv(W) - rows0)
            if dev > 1e-6 * scale:
                raise NumericalError(
                    f"colinearity violated by W_{i}: relative deviation {dev / scale:.3e}"
                )


def certificate_margins(A, B, cert: ContractionCertificate):
    """Half-form margins of the ell design inequalities (diagnostics)."""
    A = as_square(A, "A")
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    return [design_margin(A, B, W, mu) for W, mu in zip(cert.mats, cert.mus)]


def synthesize_gain(cert: ContractionCertificate, B, rho: float = 1.0) -> np.ndarray:
    """K = (rho/2) B' W_0^{-1}; any rho >= 1 preserves k-contraction of A - BK."""
    if rho < 1.0:
        raise ValueError(f"rho must be >= 1, got {rho}")
    if not cert.colinear:
        raise ValueError("gain formula requires a colinear certificate")
    W0 = cert.mats[0]
    B = np.asarray(B, dtype=float).reshape(W0.shape[0], -1)
    return (rho / 2.0) * (B.T @ np.linalg.inv(W0))
