import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from kcontract import compound as cp
from kcontract import models


def minors_oracle(Q, k):
    """Direct minor enumeration, kept independent of the production path."""
    from itertools import combinations
    m, n = Q.shape
    rows = list(combinations(range(m), k))
    cols = list(combinations(range(n), k))
    out = np.empty((len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            out[i, j] = np.linalg.det(Q[np.ix_(r, c)])
    return out


def test_multiplicative_first_and_full_order():
    rng = np.random.default_rng(0)
    Q = rng.standard_normal((4, 4))
    assert np.array_equal(cp.multiplicative_compound(Q, 1), Q)
    assert cp.multiplicative_compound(Q, 4)[0, 0] == pytest.approx(np.linalg.det(Q))


def test_multiplicative_3x3_second_order_layout():
    # entry (I, J) must be the minor with rows I and columns J in lex order
    rng = np.random.default_rng(1)
    Q = rng.standard_normal((3, 3))
    C = cp.multiplicative_compound(Q, 2)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for i, (r1, r2) in enumerate(pairs):
        for j, (c1, c2) in enumerate(pairs):
            expected = Q[r1, c1] * Q[r2, c2] - Q[r1, c2] * Q[r2, c1]
            assert C[i, j] == pytest.approx(expected, abs=1e-14)


def test_cauchy_binet_rectangular():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((3, 4))
    lhs = cp.multiplicative_compound(A @ B, 2)
    rhs = cp.multiplicative_compound(A, 2) @ cp.multiplicative_compound(B, 2)
    assert np.abs(lhs - rhs).max() < 1e-10


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_cauchy_binet_property(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    lhs = cp.multiplicative_compound(A @ B, k)
    rhs = cp.multiplicative_compound(A, k) @ cp.multiplicative_compound(B, k)
    scale = max(1.0, np.abs(lhs).max())
    assert np.abs(lhs - rhs).max() < 1e-10 * scale


def test_multiplicative_matches_minor_oracle_k4():
    rng = np.random.default_rng(3)
    Q = rng.standard_normal((6, 5))
    assert np.allclose(cp.multiplicative_compound(Q, 4), minors_oracle(Q, 4), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 8))
def test_identity_column_frames_give_exact_signed_unit_compounds(n):
    # the frames sim.integrate_compound is given: the compound is +-1 at the
    # sorted columns' subset, by the sign of the order they come in, and +0.0
    # elsewhere, with no -0.0
    from itertools import combinations
    for k in range(1, n + 1):
        subsets = list(combinations(range(n), k))
        for cols in (list(range(k)), list(range(n - k, n)), [*range(1, n, 2), *range(0, n, 2)][:k][::-1]):
            inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
            want = np.zeros((len(subsets), 1))
            want[subsets.index(tuple(sorted(cols))), 0] = (-1.0) ** inversions
            got = cp.multiplicative_compound(np.eye(n)[:, cols], k)
            assert got.tobytes() == want.tobytes(), (n, k, cols)


def additive_loop_oracle(Q, k):
    """The closed form entry by entry, as a loop over index subsets."""
    from itertools import combinations
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if k == 1:
        return Q.copy()
    subs = list(combinations(range(n), k))
    pos = {s: i for i, s in enumerate(subs)}
    out = np.zeros((len(subs), len(subs)))
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


def test_additive_matches_loop_oracle_bytes():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 1e-300, -1e300, np.inf, np.nan])
    for n in range(1, 9):
        for k in range(1, n + 1):
            for trial in range(4):
                Q = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, n))
                mask = rng.random((n, n)) < 0.3
                Q[mask] = rng.choice(special[:4 if trial < 3 else 6], mask.sum())
                want = additive_loop_oracle(Q, k)
                got = cp.additive_compound(Q, k)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (n, k, trial)
                # the transposed view reads Q through strides
                assert cp.additive_compound(Q.T, k).tobytes() == \
                    additive_loop_oracle(Q.T, k).tobytes()


def test_batched_additive_matches_loop_oracle_bytes():
    # each matrix of a stack gets its own compound; k >= 8 sums a trace's terms
    # pairwise, in one order only if they sit contiguous
    rng = np.random.default_rng(12)
    for n in range(1, 10):
        for k in range(1, n + 1):
            Q = rng.standard_normal((2, 3, n, n)) * 10.0 ** rng.integers(-3, 4, (2, 3, n, n))
            Q[rng.random(Q.shape) < 0.3] = -0.0
            got = cp.additive_compound(Q, k)
            want = [additive_loop_oracle(q, k) for q in Q.reshape(6, n, n)]
            assert got.shape == (2, 3) + want[0].shape
            assert got.tobytes() == np.array(want).tobytes(), (n, k)


@pytest.mark.parametrize("build, shape", [(cp.multiplicative_compound, (24, 12)),
                                          (cp.additive_compound, (24, 24))])
def test_oversized_compound_rejected_before_enumeration(build, shape, monkeypatch):
    # C(24, 12) = 2.7M rows: the index tuples alone would exhaust memory
    def refuse(*args):
        raise AssertionError("oversized compound enumerated")
    monkeypatch.setattr(cp, "combinations", refuse)
    with pytest.raises(ValueError, match=r"C\(24,12\) = 2704156, above"):
        build(np.zeros(shape), 12)


def test_additive_first_and_full_order():
    rng = np.random.default_rng(4)
    Q = rng.standard_normal((5, 5))
    assert np.array_equal(cp.additive_compound(Q, 1), Q)
    assert cp.additive_compound(Q, 5)[0, 0] == pytest.approx(np.trace(Q))


def test_additive_identity_and_zero():
    assert np.allclose(cp.multiplicative_compound(np.eye(5), 3), np.eye(10))
    assert np.allclose(cp.additive_compound(np.zeros((4, 4)), 2), 0.0)
    assert np.allclose(cp.additive_compound(np.eye(4), 2), 2 * np.eye(6))


def test_additive_matches_derivative_definition():
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((5, 5))
    eps = 1e-6
    fd = (cp.multiplicative_compound(np.eye(5) + eps * Q, 2) - np.eye(10)) / eps
    err = np.abs(fd - cp.additive_compound(Q, 2)).max()
    assert err <= 10 * eps * np.linalg.norm(Q, 2) ** 2


def match_multisets(a, b, tol):
    """Greedy nearest-neighbour pairing; True when every pair is within tol."""
    b = list(b)
    for v in a:
        j = int(np.argmin([abs(v - w) for w in b]))
        if abs(v - b[j]) > tol:
            return False
        b.pop(j)
    return not b


def test_additive_spectral_property():
    # eigenvalues of the k-th additive compound are all k-sums of eigenvalues
    rng = np.random.default_rng(6)
    from itertools import combinations
    for _ in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, n))
        lam = np.linalg.eigvals(A)
        sums = [sum(c) for c in combinations(lam, k)]
        got = np.linalg.eigvals(cp.additive_compound(A, k))
        assert match_multisets(sums, got, 1e-8)


def test_exponential_consistency():
    # (exp(At))^(k) = exp(A^[k] t)
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 4))
    for t in (0.1, 1.0):
        lhs = cp.multiplicative_compound(expm(A * t), 2)
        rhs = expm(cp.additive_compound(A, 2) * t)
        assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.abs(rhs).max())


def test_rossler_third_compound_is_constant():
    bundle = models.builtin("rossler")
    rng = np.random.default_rng(8)
    for x in bundle.box.sample(rng, 100):
        val = cp.additive_compound(bundle.model.jacobian(x), 3)
        assert abs(val[0, 0] + 0.5) <= 1e-12
