"""Dense real linear algebra kernel.

Eigenvalues, symmetric inertia counting, the resonance predicate and
Lyapunov solves. Everything here operates on plain numpy arrays (real
entries) and is pure: no state but a cache of index arrays, safe to share
across threads. Targets are small dense matrices (n <= 20); the Lyapunov
solvers deliberately use the Kronecker vectorization, not a Schur-based
method, because at this scale robustness beats speed. solve_lyapunov solves
the full n^2 x n^2 system, written straight into one array by kronecker_sum
with the bytes np.kron would give but none of its temporaries.
solve_lyapunov_symmetric solves the same equation on the n(n+1)/2 unknowns of
a symmetric P (the duplication and elimination form of Magnus & Neudecker),
about 1/7 of the LU work at n = 20. Both are refused past MAX_DENSE_ENTRIES
Kronecker entries (n > 64) before anything is formed.
"""

from __future__ import annotations

import functools
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
    """Validate symmetry to relative tolerance and return the symmetrized array
    of one matrix, or of a (..., n, n) stack with each matrix at its own scale."""
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise ValueError(f"{name} contains non-finite entries")
    St = S.swapaxes(-1, -2)
    scale = np.abs(S).max(axis=(-2, -1), initial=0.0)
    asym = np.abs(S - St).max(axis=(-2, -1), initial=0.0)
    if (asym > np.maximum(SYMMETRY_RTOL * scale, 1e-300)).any():
        raise ValueError(f"{name} is not symmetric (relative asymmetry above {SYMMETRY_RTOL})")
    return 0.5 * (S + St)


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
    """Ascending real eigenvalues of a symmetric matrix or (..., n, n) stack."""
    S = check_symmetric(S)
    if S.shape[-1] == 0:
        return np.empty(S.shape[:-1])
    return np.linalg.eigvalsh(S)


def inertia_symmetric(S, zero_tol: float = DEFAULT_ZERO_TOL):
    """Count eigenvalues of symmetric S below/within/above +-zero_tol*||S||.

    A (..., n, n) stack gives a list of triples in C order from one eigvalsh,
    which gives each matrix the bytes of its own call."""
    w = eigenvalues_symmetric(S)
    thr = zero_tol * np.abs(w).max(axis=-1, initial=0.0)[..., None]
    neg = (w < -thr).sum(axis=-1).ravel().tolist()
    pos = (w > thr).sum(axis=-1).ravel().tolist()
    triples = [InertiaTriple(a, w.shape[-1] - a - b, b) for a, b in zip(neg, pos)]
    return triples[0] if w.ndim == 1 else triples


def resonant_pair(vals, mu: float = 0.0, rtol: float = SPECTRAL_RTOL):
    """First index pair (a, b), a <= b, with (lambda_a - mu) + (lambda_b - mu) ~ 0.

    The sum is compared against rtol * max(max|lambda - mu|, 1); None when no
    pair is that close. Such a pair makes the Lyapunov system of A - mu I
    singular, and a near miss makes its solution blow up in norm.
    """
    shifted = np.asarray(vals) - mu
    tol = rtol * max(np.abs(shifted).max(), 1.0)
    # lambda_a + lambda_b is lambda_b + lambda_a bit for bit, so the first close
    # entry of the full table in row order has a <= b
    close = np.abs(shifted[:, None] + shifted) <= tol
    if not close.any():
        return None
    return divmod(int(close.argmax()), len(shifted))


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


@functools.lru_cache(maxsize=None)
def _symmetric_scatter(n: int):
    """(iu, ju, flat) for the Lyapunov operator of dimension n on symmetric unknowns.

    The unknowns and the equations are the entries (a, b), a <= b, in
    np.triu_indices(n) order. Equation (i, j) of A'P + PA takes A_ki on the
    unknown (k, j) and A_kj on (i, k), for every k, each unknown folded into
    the upper triangle; flat holds the position of each such term in the
    flattened m x m operator, m = n(n+1)/2, in the order of the weights
    A'[concat(iu, ju)]. One entry per n <= 64 (check_lyapunov_size), of
    2 m n indices: 2.1 MB at n = 64, 0.13 MB at n = 20.
    """
    iu, ju = np.triu_indices(n)
    m = len(iu)
    pos = np.empty((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(m)
    rows = np.arange(m)[:, None] * m
    flat = np.concatenate([rows + pos[:, ju].T, rows + pos[iu, :]]).ravel()
    for a in (iu, ju, flat):
        a.setflags(write=False)
    return iu, ju, flat


def lyapunov_operator_symmetric(A) -> np.ndarray:
    """The m x m matrix of P -> A'P + PA on the unknowns p_ab, a <= b.

    Rows and columns follow np.triu_indices(n). Column (a, b), a < b, is the
    sum of the Kronecker columns (a, b) and (b, a), and row (i, j) is the
    Kronecker row (i, j): the symmetric fold of kronecker_sum(A.T), formed
    by one np.bincount.
    """
    n = A.shape[0]
    iu, ju, flat = _symmetric_scatter(n)
    m = len(iu)
    weights = A.T[np.concatenate([iu, ju])].ravel()
    return np.bincount(flat, weights=weights, minlength=m * m).reshape(m, m)


def _lyapunov_problem(A, Q):
    """A and the symmetrized Q of a Lyapunov solve, after the shape checks."""
    A = as_square(A, "A")
    n = A.shape[0]
    check_lyapunov_size(n)
    Q = check_symmetric(Q, "Q")
    if Q.shape != (n, n):
        raise ValueError(f"Q has shape {Q.shape}, expected {(n, n)}")
    return A, Q


def _resonant_values(A, vals=None):
    """The first eigenvalue pair of A summing to ~0, or None; vals is
    eigenvalues(A) when the caller has it already."""
    vals = eigenvalues(A) if vals is None else vals
    pair = resonant_pair(vals)
    return None if pair is None else (vals[pair[0]], vals[pair[1]])


def _checked(A, Q, P, resonant):
    """P, once the residual of A'P + PA = -Q is within 1e-8 (||A|| ||P|| + ||Q||)."""
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


def solve_lyapunov(A, Q) -> np.ndarray:
    """Solve A'P + PA = -Q for symmetric P by Kronecker vectorization.

    vec(A'P + PA) = K vec(P) in column-major vec, with K = I (x) A' + A' (x) I
    from kronecker_sum, and K is solved by LU.

    Raises NumericalError naming the offending eigenvalue pair when the
    spectrum of A is resonant (lambda_i + lambda_j ~ 0), in which case the
    n^2 x n^2 system is singular. ValueError, before any work, for an n past
    check_lyapunov_size's cap.
    """
    A, Q = _lyapunov_problem(A, Q)
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    resonant = _resonant_values(A)
    if resonant:
        raise NumericalError(
            "resonant spectrum: eigenvalues "
            f"{resonant[0]:.6g} and {resonant[1]:.6g} sum to ~0; Lyapunov system singular"
        )
    K = kronecker_sum(A.T)
    try:
        vecP = np.linalg.solve(K, -Q.reshape(n * n, order="F"))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular linear system: {exc}") from exc
    P = vecP.reshape((n, n), order="F")
    return _checked(A, Q, 0.5 * (P + P.T), None)


def solve_lyapunov_symmetric(A, Q, vals=None) -> np.ndarray:
    """Solve A'P + PA = -Q on the n(n+1)/2 unknowns of a symmetric P.

    The system is lyapunov_operator_symmetric(A), solved by LU. When the
    spectrum of A is resonant (lambda_i + lambda_j ~ 0) the system is
    singular, and a consistent one is solved by least squares with the
    off-diagonal unknowns scaled by sqrt(2): their 2-norm is then ||P||_F,
    so the result is the minimum-Frobenius-norm solution, the one the
    Kronecker system's least squares gives. Either way the residual check of
    solve_lyapunov applies; an inconsistent resonant system raises
    NumericalError naming the pair. vals is eigenvalues(A) when the caller
    has it already; resonance is decided on it. ValueError, before any work,
    for an n past check_lyapunov_size's cap.
    """
    A, Q = _lyapunov_problem(A, Q)
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    resonant = _resonant_values(A, vals)
    iu, ju, _ = _symmetric_scatter(n)
    L = lyapunov_operator_symmetric(A)
    rhs = -Q[iu, ju]
    if resonant:
        scale = np.where(iu == ju, 1.0, np.sqrt(0.5))
        p = scale * np.linalg.lstsq(L * scale, rhs, rcond=None)[0]
    else:
        try:
            p = np.linalg.solve(L, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular linear system: {exc}") from exc
    P = np.empty((n, n))
    P[iu, ju] = P[ju, iu] = p
    return _checked(A, Q, P, resonant)


def worst_margin(margins):
    """(largest margin, first index) of a margin array. A NaN margin is a vertex
    whose condition could not be evaluated, so it fails: the first NaN wins."""
    arg = int(np.argmax(margins))  # argmax takes the first NaN
    return float(margins[arg]), arg


def sym(M) -> np.ndarray:
    """Symmetric part (M + M') / 2, of each matrix of a (..., n, n) stack."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.swapaxes(-1, -2))
