"""Multiplicative and additive matrix compounds with lexicographic index bookkeeping.

A k-th multiplicative compound collects all order-k minors in lexicographic
row/column order. The additive compound is the derivative of the
multiplicative compound of I + eps*Q at eps = 0; it is assembled here by its
closed form, never by differencing.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np


def _check_order(n: int, k: int, maximum: int):
    if not 1 <= k <= maximum:
        raise ValueError(f"compound order k={k} out of range [1, {maximum}] for n={n}")


def index_subsets(n: int, k: int) -> tuple:
    """1-based index tuples labelling compound rows/columns, lexicographically ordered."""
    _check_order(n, k, n)
    return tuple(tuple(i + 1 for i in c) for c in combinations(range(n), k))


def _minor(Q, rows, cols) -> float:
    sub = Q[np.ix_(rows, cols)]
    m = len(rows)
    if m == 1:
        return sub[0, 0]
    if m == 2:
        return sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
    if m == 3:
        return (
            sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
            - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
            + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
        )
    return float(np.linalg.det(sub))  # LU with partial pivoting


def multiplicative_compound(Q, k: int) -> np.ndarray:
    """k-th multiplicative compound: entry (I, J) is the minor with rows I, cols J."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = Q.shape
    _check_order(min(m, n), k, min(m, n))
    if k == 1:
        return Q.copy()
    rows = list(combinations(range(m), k))
    cols = list(combinations(range(n), k))
    out = np.empty((len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            out[i, j] = _minor(Q, r, c)
    return out


def additive_compound(Q, k: int) -> np.ndarray:
    """k-th additive compound by closed form.

    Entry (I, I) is the trace of Q over I; entry (I, J) with I and J sharing
    all but one index a in I, b in J carries (-1)^(pos_I(a) + pos_J(b)) Q[a, b];
    all other entries vanish.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("additive compound needs a square matrix")
    n = Q.shape[0]
    _check_order(n, k, n)
    if k == 1:
        return Q.copy()
    subs = list(combinations(range(n), k))
    N = len(subs)
    pos = {s: i for i, s in enumerate(subs)}
    out = np.zeros((N, N))
    diag = np.diag(Q)
    for i, I in enumerate(subs):
        out[i, i] = diag[list(I)].sum()
        Iset = set(I)
        for ra, a in enumerate(I):
            for b in range(n):
                if b in Iset:
                    continue
                J = tuple(sorted(Iset - {a} | {b}))
                rb = J.index(b)
                out[i, pos[J]] += (-1) ** (ra + rb) * Q[a, b]
    return out


def compound_dimension(n: int, k: int) -> int:
    return comb(n, k)
