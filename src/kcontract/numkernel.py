"""Dense real linear algebra kernel.

Eigenvalues, symmetric inertia counting, the resonance predicate and
Lyapunov solves. Everything here operates on plain numpy arrays (real
entries) and is pure: no global state, safe to share across threads. Targets
are small dense matrices (n <= 20); the Lyapunov solver deliberately uses the
O(n^6) Kronecker vectorization because at this scale robustness beats speed.
Its n^2 x n^2 system is written straight into one array by kronecker_sum,
with the bytes np.kron would give but none of its temporaries, and is
refused past MAX_DENSE_ENTRIES entries (n > 64) before anything is formed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DEFAULT_ZERO_TOL = 1e-9
SYMMETRY_RTOL = 1e-12
# a sum of eigenvalues within SPECTRAL_RTOL * max(max|lambda|, 1) of zero is
# zero up to rounding
SPECTRAL_RTOL = 1e-12
# the most entries of a dense array a solve may form: 128 MiB of float64
MAX_DENSE_ENTRIES = 2 ** 24


class NumericalError(RuntimeError):
    """Raised when a dense kernel operation cannot produce a trustworthy result."""


class InertiaTriple(NamedTuple):
    """Eigenvalue sign counts (negative, zero, positive), multiplicities included."""

    neg: int
    zero: int
    pos: int


def as_square(M, name="matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def check_symmetric(S, name="matrix") -> np.ndarray:
    """Validate symmetry to relative tolerance and return the symmetrized array."""
    S = as_square(S, name)
    scale = np.abs(S).max(initial=0.0)
    if scale > 0 and np.abs(S - S.T).max() > max(SYMMETRY_RTOL * scale, 1e-300):
        raise ValueError(f"{name} is not symmetric (relative asymmetry above {SYMMETRY_RTOL})")
    return 0.5 * (S + S.T)


def spectral_norm(M) -> float:
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def eigenvalues(M) -> np.ndarray:
    """Complex eigenvalues of a square matrix in the deterministic spectrum ordering.

    Conjugate pairs come out exactly conjugate (real input, LAPACK real Schur
    path); ordering is nonincreasing real part with ties broken by
    nonincreasing imaginary part, so repeated calls agree.
    """
    M = as_square(M)
    try:
        vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalError(f"eigenvalue iteration failed to converge: {exc}") from exc
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order].astype(complex, copy=False)


def eigenvalues_symmetric(S) -> np.ndarray:
    """Ascending real eigenvalues of a symmetric matrix."""
    S = check_symmetric(S)
    if S.shape[0] == 0:
        return np.empty(0)
    return np.linalg.eigvalsh(S)


def inertia_symmetric(S, zero_tol: float = DEFAULT_ZERO_TOL) -> InertiaTriple:
    """Count eigenvalues of symmetric S below/within/above +-zero_tol*||S||."""
    w = eigenvalues_symmetric(S)
    scale = np.abs(w).max() if w.size else 0.0
    thr = zero_tol * scale
    neg = int(np.sum(w < -thr))
    pos = int(np.sum(w > thr))
    return InertiaTriple(neg, len(w) - neg - pos, pos)


def resonant_pair(vals, mu: float = 0.0, rtol: float = SPECTRAL_RTOL):
    """First index pair (a, b), a <= b, with (lambda_a - mu) + (lambda_b - mu) ~ 0.

    The sum is compared against rtol * max(max|lambda - mu|, 1); None when no
    pair is that close. Such a pair makes the Lyapunov system of A - mu I
    singular, and a near miss makes its solution blow up in norm.
    """
    shifted = np.asarray(vals) - mu
    tol = rtol * max(np.abs(shifted).max(), 1.0)
    n = len(shifted)
    for a in range(n):
        for b in range(a, n):
            if abs(shifted[a] + shifted[b]) <= tol:
                return a, b
    return None


def kronecker_sum(At) -> np.ndarray:
    """I (x) At + At (x) I, byte for byte as np.kron forms it, in one buffer.

    Entry [(i, k), (j, l)] is I_ij At_kl + At_ij I_kl. Where i != j and
    k != l both products are signed zeros, 0 * At_kl and At_ij * 0, and the
    entry is their sum. The rest are the diagonal blocks [(i, :), (i, :)] =
    At + At_ii I and the strided blocks [(:, k), (:, k)] = At + At_kk I (a
    product with 1.0 is exact), written over that sum.
    """
    n = At.shape[0]
    zeros = At * 0.0
    # C order, so the reshape below is a view whatever the layout of At
    K = np.add(zeros[:, None, :, None], zeros[None, :, None, :], order="C")
    idx = np.arange(n)
    blocks = At + At.diagonal()[:, None, None] * np.eye(n)
    K[idx, :, idx, :] = blocks
    K[:, idx, :, idx] = blocks
    return K.reshape(n * n, n * n)


def check_lyapunov_size(n: int) -> None:
    """Refuse with ValueError a Lyapunov solve of dimension n whose n^2 x n^2
    Kronecker system would hold more than MAX_DENSE_ENTRIES entries."""
    if n ** 4 > MAX_DENSE_ENTRIES:
        raise ValueError(f"a Lyapunov solve of dimension {n} would form {n ** 4} matrix "
                         f"entries, past the cap of {MAX_DENSE_ENTRIES} (n <= 64)")


def solve_lyapunov(A, Q, allow_consistent_singular: bool = False) -> np.ndarray:
    """Solve A'P + PA = -Q for symmetric P by Kronecker vectorization.

    vec(A'P + PA) = K vec(P) in column-major vec, with K = I (x) A' + A' (x) I
    from kronecker_sum, and K is solved by LU.

    Raises NumericalError naming the offending eigenvalue pair when the
    spectrum of A is resonant (lambda_i + lambda_j ~ 0), in which case the
    n^2 x n^2 system is singular. With allow_consistent_singular, a resonant
    but consistent system is solved in the least-squares sense instead
    (minimum-norm solution); the residual check still applies. ValueError,
    before any work, for an n past check_lyapunov_size's cap.
    """
    A = as_square(A, "A")
    n = A.shape[0]
    check_lyapunov_size(n)
    Q = check_symmetric(Q, "Q")
    if Q.shape[0] != n:
        raise ValueError(f"Q has shape {Q.shape}, expected {(n, n)}")
    if n == 0:
        return np.zeros((0, 0))
    vals = eigenvalues(A)
    pair = resonant_pair(vals)
    resonant = None if pair is None else (vals[pair[0]], vals[pair[1]])
    if resonant and not allow_consistent_singular:
        raise NumericalError(
            "resonant spectrum: eigenvalues "
            f"{resonant[0]:.6g} and {resonant[1]:.6g} sum to ~0; Lyapunov system singular"
        )
    K = kronecker_sum(A.T)
    rhs = -Q.reshape(n * n, order="F")
    if resonant:
        vecP = np.linalg.lstsq(K, rhs, rcond=None)[0]
    else:
        try:
            vecP = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular linear system: {exc}") from exc
    P = vecP.reshape((n, n), order="F")
    P = 0.5 * (P + P.T)
    resid = np.abs(A.T @ P + P @ A + Q).max()
    bound = 1e-8 * (spectral_norm(A) * spectral_norm(P) + spectral_norm(Q))
    if resid > max(bound, 1e-300):
        if resonant:
            raise NumericalError(
                "resonant spectrum: eigenvalues "
                f"{resonant[0]:.6g} and {resonant[1]:.6g} sum to ~0 and the "
                f"system is inconsistent (residual {resid:.3e})"
            )
        raise NumericalError(
            f"Lyapunov residual {resid:.3e} exceeds tolerance {bound:.3e}"
        )
    return P


def sym(M) -> np.ndarray:
    """Symmetric part (M + M') / 2, of each matrix of a (..., n, n) stack."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.swapaxes(-1, -2))
