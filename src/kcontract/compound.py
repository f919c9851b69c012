"""Multiplicative and additive matrix compounds with lexicographic index bookkeeping.

A k-th multiplicative compound collects all order-k minors in lexicographic
row/column order. The additive compound is the derivative of the
multiplicative compound of I + eps*Q at eps = 0; it is assembled here by its
closed form, never by differencing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

# Compounds are dense N x N float arrays with N = C(n, k): N = 2048 is 32 MiB
# per matrix and RK4 assembles four per step, and the index tables of the
# additive compound hold N k (n - k) Python ints. Every shipped, test and
# benchmark use has N <= 70.
MAX_COMPOUND_DIM = 2048


def _check_order(n: int, k: int, maximum: int):
    if not 1 <= k <= maximum:
        raise ValueError(f"compound order k={k} out of range [1, {maximum}] for n={n}")


def _check_dimension(n: int, k: int):
    if comb(n, k) > MAX_COMPOUND_DIM:
        raise ValueError(f"order-{k} compound of an n={n} matrix has dimension "
                         f"C({n},{k}) = {comb(n, k)}, above {MAX_COMPOUND_DIM}")


def multiplicative_compound(Q, k: int) -> np.ndarray:
    """k-th multiplicative compound: entry (I, J) is the minor with rows I, cols J.

    Each column of minors is one LAPACK determinant call (LU with partial
    pivoting) on the (C(m, k), k, k) stack of the row subsets of columns J,
    so a frame of identity columns gives exact 0 and +-1."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = Q.shape
    _check_order(min(m, n), k, min(m, n))
    if k == 1:
        return Q.copy()
    _check_dimension(max(m, n), k)
    rows = np.array(list(combinations(range(m), k)))
    out = np.empty((len(rows), comb(n, k)))
    for j, cols in enumerate(combinations(range(n), k)):
        out[:, j] = np.linalg.det(Q[:, cols][rows])
    return out


@lru_cache(maxsize=32)
def additive_scatter(n: int, k: int):
    """Index arrays of the k-th additive compound of an n x n matrix.

    Returns (subs, dst, src, sign): subs[i] lists the indices of row i, and
    the off-diagonal entry at flat position dst[t] is sign[t] * Q.flat[src[t]].
    """
    _check_dimension(n, k)
    subs = list(combinations(range(n), k))
    N = len(subs)
    pos = {s: i for i, s in enumerate(subs)}
    dst, src, sign = [], [], []
    for i, I in enumerate(subs):
        Iset = set(I)
        for ra, a in enumerate(I):
            for b in range(n):
                if b in Iset:
                    continue
                J = tuple(sorted(Iset - {a} | {b}))
                dst.append(i * N + pos[J])
                src.append(a * n + b)
                sign.append(-1.0 if (ra + J.index(b)) % 2 else 1.0)
    arrays = (np.array(subs, dtype=np.intp).reshape(N, k), np.array(dst, dtype=np.intp),
              np.array(src, dtype=np.intp), np.array(sign))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def additive_compound(Q, k: int) -> np.ndarray:
    """k-th additive compound by closed form, of Q or of each matrix of a (..., n, n) stack.

    Entry (I, I) is the trace of Q over I; entry (I, J) with I and J sharing
    all but one index a in I, b in J carries (-1)^(pos_I(a) + pos_J(b)) Q[a, b];
    all other entries vanish. The entries are gathered and scattered through
    index arrays built once per (n, k).
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim < 2 or Q.shape[-1] != Q.shape[-2]:
        raise ValueError("additive compound needs a square matrix")
    n, stack = Q.shape[-1], Q.shape[:-2]
    _check_order(n, k, n)
    if k == 1:
        return Q.copy()
    subs, dst, src, sign = additive_scatter(n, k)
    N = len(subs)
    out = np.zeros(stack + (N * N,))
    # as 0 + (+-Q[a, b]): a product -0 is stored as +0
    out[..., dst] = sign * Q.reshape(stack + (n * n,)).take(src, axis=-1) + 0.0
    # take keeps each trace's k terms contiguous, so all sum in the 2-d call's order
    out[..., ::N + 1] = Q.diagonal(axis1=-2, axis2=-1).take(subs, axis=-1).sum(axis=-1)
    return out.reshape(stack + (N, N))
